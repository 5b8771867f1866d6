"""The Aalo scheduler (Chowdhury & Stoica, SIGCOMM'15) — main baseline (§2.2).

Aalo approximates Shortest-CoFlow-First online with:

* a **global coordinator** that assigns each coflow to a logical priority
  queue based on the **total bytes** the coflow has sent so far, with
  exponentially growing queue thresholds; and
* **independent local ports**: each sender port splits its bandwidth across
  the non-empty priority queues by **weighted sharing** (Aalo §5.1 —
  higher-priority queues get larger weights, which also provides Aalo's
  starvation-freedom), serving flows FIFO (coflow arrival order) within a
  queue; leftover capacity spills down in priority order (work conserving).

Crucially the ports do **not** coordinate, which is precisely the spatial
blindness the paper attacks: flows of one coflow may be scheduled at some
ports and queued at others (out-of-sync, §2.3), and FIFO ignores contention
(§2.4).
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter_ns

from .._fastcore import core as _core
from ..config import SimulationConfig
from ..simulator.fabric import PortLedger
from ..simulator.flows import CoFlow
from ..simulator.state import ClusterState
from .base import Allocation, Scheduler
from .queues import QueueTracker


class AaloScheduler(Scheduler):
    """Aalo: total-bytes priority queues + per-port weighted FIFO.

    ``queue_weight_decay`` follows Aalo's design of giving queue ``q`` a
    weight that shrinks with priority; weight(q) = decay**(-q), normalised
    over the queues occupied at the port. A decay of 10 makes high-priority
    queues strongly dominant (close to strict priority) while guaranteeing
    forward progress for demoted coflows.
    """

    name = "aalo"
    clairvoyant = False

    def __init__(self, config: SimulationConfig,
                 *, queue_weight_decay: float = 10.0):
        super().__init__(config)
        if queue_weight_decay < 1.0:
            raise ValueError(
                f"queue_weight_decay must be >= 1, got {queue_weight_decay}"
            )
        self.queue_weight_decay = queue_weight_decay
        #: queue index -> weight, precomputed once (the per-round pow calls
        #: used to show up in profiles; same floats, same decay rule).
        self._queue_weight = [
            queue_weight_decay ** (-q)
            for q in range(config.queues.num_queues)
        ]
        self.tracker = QueueTracker(config, metric="total")
        #: coflow_id -> arrival order index, the FIFO key at every port.
        self._arrival_order: dict[int, int] = {}
        self._arrival_counter = 0
        #: Active coflows whose flow list does not carry ascending flow ids
        #: (never the case for generated workloads); checked once at
        #: arrival so the per-round gather re-sorts only these.
        self._unsorted: set[int] = set()

    # ---- lifecycle ------------------------------------------------------------

    def on_coflow_arrival(self, coflow: CoFlow, now: float) -> None:
        self.tracker.admit(coflow, now)
        self._arrival_order[coflow.coflow_id] = self._arrival_counter
        self._arrival_counter += 1
        flows = coflow.flows
        if not all(flows[i].flow_id <= flows[i + 1].flow_id
                   for i in range(len(flows) - 1)):
            self._unsorted.add(coflow.coflow_id)

    def on_coflow_completion(self, coflow: CoFlow, now: float) -> None:
        self.tracker.remove(coflow)
        self._arrival_order.pop(coflow.coflow_id, None)
        self._unsorted.discard(coflow.coflow_id)

    # ---- scheduling -------------------------------------------------------------

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        timers = self.timers
        if timers is None:
            self._assign_queues(state, now)
            ids, groups = self._gather(state, now)
            return self._admit(state, ids, groups)
        t0 = perf_counter_ns()
        self._assign_queues(state, now)
        t1 = perf_counter_ns()
        ids, groups = self._gather(state, now)
        t2 = perf_counter_ns()
        allocation = self._admit(state, ids, groups)
        timers.add("schedule.assign", t1 - t0)
        timers.add("schedule.order", t2 - t1)
        timers.add("schedule.admit", perf_counter_ns() - t2)
        return allocation

    def _assign_queues(self, state: ClusterState, now: float) -> None:
        """Total-bytes demotions (D3 with Aalo's metric): they only fire
        when a coflow moved bytes, so incremental rounds revisit just the
        engine's dirty set (see :meth:`QueueTracker.moves`)."""
        tracker = self.tracker
        for coflow, target in tracker.moves(state):
            tracker.demote(coflow, target, now)

    def _gather(self, state: ClusterState,
                now: float) -> tuple[list[int], list[list[int]]]:
        """Schedulable rows per coflow, gathered in active order.

        Returns parallel lists of coflow ids and their table rows, each in
        flow-id order (re-sorted for the rare coflow whose flows do not
        carry ascending ids); coflows with nothing schedulable are left
        out. The ports' (queue, FIFO) coflow order is applied when they
        are served (:meth:`_per_sender`).
        """
        ids, groups, _ = state.schedulable_groups(
            state.active_coflows, now, counts=False)
        unsorted = self._unsorted
        if unsorted:
            flow_id = state.table.flow_id.__getitem__
            for k, cid in enumerate(ids):
                if cid in unsorted:
                    # A new list: row groups may be live caches.
                    groups[k] = sorted(groups[k], key=flow_id)
        return ids, groups

    def _per_sender(self, ids: list[int], groups: list[list[int]],
                    src_col) -> dict[int, list[tuple[int, list[int]]]]:
        """Each sender port's rows (senders read from ``src_col``) sliced
        into runs of equal queue, in service order.

        Emitting the coflows in (queue, FIFO) order, each coflow's flows
        in flow-id order, yields exactly the per-port (queue, fifo,
        flow_id) order the ports serve in, without a key per flow. FIFO
        indices are unique, so the order is total.
        """
        qmap = self.tracker.queue_map
        fifo = self._arrival_order
        per_sender: dict[int, list[tuple[int, list]]] = defaultdict(list)
        for k in sorted(range(len(ids)),
                        key=lambda k: (qmap[ids[k]], fifo[ids[k]])):
            queue = qmap[ids[k]]
            for f in groups[k]:
                runs = per_sender[src_col[f]]
                if not runs or runs[-1][0] != queue:
                    runs.append((queue, [f]))
                else:
                    runs[-1][1].append(f)
        return per_sender

    def _admit(self, state: ClusterState, ids: list[int],
               groups: list[list[int]]) -> Allocation:
        """Serve every sender port from a fresh ledger."""
        allocation = Allocation()
        self._serve_rows(ids, groups, state.table, state.acquire_ledger(),
                         allocation)
        return allocation

    def _serve_rows(self, ids: list[int], groups: list[list[int]], table,
                    ledger, allocation: Allocation) -> None:
        """Port service: bucket rows per sender, serve each port.

        The compiled ``aalo_ports`` does the (queue, FIFO) ordering, the
        per-port bucketing (CSR over senders) and both allocation passes;
        only the exact PortLedger layout qualifies. Otherwise — no
        extension, a LinkLedger, or a tracer that wants port-level events
        — the round runs on the Python reference
        :meth:`_allocate_port_rows`.
        """
        tracer = self.tracer
        if (table.fastcore and _core is not None
                and type(ledger) is PortLedger
                and not (tracer is not None
                         and tracer.forces_python_kernels)):
            if self.metrics is not None:
                self.metrics.inc("kernel.aalo_ports.fastcore")
            _core.aalo_ports(
                ids, groups, self.tracker.queue_map, self._arrival_order,
                self._queue_weight,
                table.src, table.dst, table.flow_id, table.coflow_id,
                ledger.capacity_list, ledger.used_list, ledger.touched_set,
                allocation.rates, allocation.scheduled_coflows,
            )
            return
        if self.metrics is not None:
            self.metrics.inc("kernel.aalo_ports.python")
        per_sender = self._per_sender(ids, groups, table.src)
        # Links observed exhausted anywhere this round: usage only ever
        # grows within a round, so a later grant across such a link would
        # be 0 and commit nothing — skipping it is an exact no-op.
        dead: set[int] = set()
        lists = (
            ledger.path, ledger.capacity_list, ledger.used_list,
            ledger.touched_set, table.flow_id, table.coflow_id, table.dst,
            allocation.rates, allocation.scheduled_coflows, dead,
        )
        # Ports act independently; a deterministic port order stands in for
        # the real system's races on receiver capacity.
        for port in sorted(per_sender):
            self._allocate_port_rows(port, per_sender[port], lists)

    def _allocate_port_rows(self, port: int,
                            runs: list[tuple[int, list[int]]],
                            lists: tuple) -> None:
        """Weighted queue shares at one sender port, then a spill pass.

        ``runs`` holds the port's schedulable rows sliced into runs of
        equal queue, in (queue, fifo, flow_id) order. Each grant is
        ``min(budget, residual of every link on the flow's path)``,
        committed along the path with the ledger's at-capacity clamp.
        ``lists`` carries the round-hoisted ledger path lookup and dense
        lists, table columns, allocation sinks and the round's
        dead-link memo. A flow's path is looked up before the memo is
        consulted, so every flow the port reaches is assigned its path in
        service order whether or not it is granted.
        """
        (path, lcap, lused, touched, fid, cid, dst_col, rates, scheduled,
         dead) = lists
        cap_src = lcap[port]
        port_capacity = cap_src - lused[port]  # == ledger.residual(port)
        if port_capacity <= 0:
            return
        weight_of = self._queue_weight
        total_weight = 0.0
        for q, _ in runs:
            total_weight += weight_of[q]
        rates_get = rates.get
        inf = math.inf

        # Pass 1: each occupied queue spends its weighted share, FIFO.
        # Pass 2 (work conservation): spill leftover capacity in strict
        # priority+FIFO order, e.g. when a queue's share outruns its flows'
        # receiver capacity — the same grant with an unbounded budget.
        passes = [(port_capacity * weight_of[q] / total_weight, run)
                  for q, run in runs]
        passes += [(inf, run) for _, run in runs]
        for budget, run in passes:
            for i in run:
                if budget <= 0:
                    break
                rate = cap_src - lused[port]
                if rate <= 0:
                    return  # sender port exhausted
                links = path(port, dst_col[i])
                if not dead.isdisjoint(links):
                    continue  # no grant across an exhausted link
                if budget < rate:
                    rate = budget
                for link in links:
                    other = lcap[link] - lused[link]
                    if other < rate:
                        rate = other
                if rate <= 0:
                    # Sender residual and budget are positive here, so some
                    # later link of the path is exhausted: memoise it.
                    for link in links:
                        if lcap[link] - lused[link] <= 0:
                            dead.add(link)
                    continue
                for link in links:
                    new_used = lused[link] + rate
                    cap = lcap[link]
                    lused[link] = new_used if new_used < cap else cap
                touched.update(links)
                budget -= rate
                flow_id = fid[i]
                rates[flow_id] = rates_get(flow_id, 0.0) + rate
                scheduled.add(cid[i])

    def next_wakeup(self, state: ClusterState, allocation: Allocation,
                    now: float) -> float | None:
        """Wake at the next total-bytes queue-threshold crossing.

        Zero-rate coflows cannot cross a total-bytes threshold, so only
        this round's scheduled coflows are candidates.
        """
        best = self.tracker.earliest_transition(
            state, allocation.scheduled_coflows, allocation.rates, now, 1e-9)
        return best if math.isfinite(best) else None

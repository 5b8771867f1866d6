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
from operator import attrgetter
from time import perf_counter_ns

from .._fastcore import core as _core
from ..config import SimulationConfig
from ..simulator.fabric import PortLedger
from ..simulator.flows import CoFlow, Flow
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
        # Path-aware states stay on the object path: every grant there goes
        # through ledger.fill_capped, which a LinkLedger bounds by (and
        # charges to) the flow's whole link path — the row path's inlined
        # port-only fill would ignore core links.
        timers = self.timers
        if timers is None:
            self._assign_queues(state, now)
            tracked = state.paths is None and state.rows_tracked()
            ids, groups = self._gather(state, now, tracked)
            return self._admit(state, ids, groups, tracked)
        t0 = perf_counter_ns()
        self._assign_queues(state, now)
        t1 = perf_counter_ns()
        tracked = state.paths is None and state.rows_tracked()
        ids, groups = self._gather(state, now, tracked)
        t2 = perf_counter_ns()
        allocation = self._admit(state, ids, groups, tracked)
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

    def _gather(self, state: ClusterState, now: float,
               tracked: bool) -> tuple[list[int], list[list]]:
        """Schedulable flows per coflow, gathered in active order.

        Returns parallel lists of coflow ids and their table rows
        (``tracked``: one batched gather) or :class:`Flow` lists, each in
        flow-id order (re-sorted for the rare coflow whose flows do not
        carry ascending ids); coflows with nothing schedulable are left
        out. The ports' (queue, FIFO) coflow order is applied when they
        are served (:meth:`_per_sender`).
        """
        if tracked:
            ids, groups, _ = state.schedulable_groups(
                state.active_coflows, now, counts=False)
            flow_id = state.table.flow_id.__getitem__
        else:
            ids, groups = [], []
            for coflow in state.active_coflows:
                flows = state.schedulable_flows(coflow, now)
                if flows:
                    ids.append(coflow.coflow_id)
                    groups.append(flows)
            flow_id = attrgetter("flow_id")
        unsorted = self._unsorted
        if unsorted:
            for k, cid in enumerate(ids):
                if cid in unsorted:
                    # A new list: row groups may be live caches.
                    groups[k] = sorted(groups[k], key=flow_id)
        return ids, groups

    def _per_sender(self, ids: list[int], groups: list[list],
                    src_of) -> dict[int, list[tuple[int, list]]]:
        """Each sender port's flows (table rows or :class:`Flow` objects,
        whose sender ``src_of`` reads) sliced into runs of equal queue, in
        service order.

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
                runs = per_sender[src_of(f)]
                if not runs or runs[-1][0] != queue:
                    runs.append((queue, [f]))
                else:
                    runs[-1][1].append(f)
        return per_sender

    def _admit(self, state: ClusterState, ids: list[int], groups: list[list],
               tracked: bool) -> Allocation:
        """Serve every sender port from a fresh ledger."""
        ledger = state.acquire_ledger()
        allocation = Allocation()
        if tracked:
            self._serve_rows(ids, groups, state.table, ledger, allocation)
            return allocation
        per_sender = self._per_sender(ids, groups, attrgetter("src"))
        # Ports act independently; a deterministic port order stands in for
        # the real system's races on receiver capacity.
        for port in sorted(per_sender):
            self._allocate_port(port, per_sender[port], ledger, allocation)
        return allocation

    def _serve_rows(self, ids: list[int], groups: list[list[int]], table,
                    ledger, allocation: Allocation) -> None:
        """Row-path port service: bucket rows per sender, serve each port.

        Same grants, in the same order, as the object path, with flow
        identity and ports read from the table columns. The compiled
        ``aalo_ports`` does the (queue, FIFO) ordering, the per-port
        bucketing (CSR over senders) and both allocation passes; only the
        exact PortLedger layout qualifies. When a tracer wants port-level
        events the round runs on the bit-identical Python twin instead,
        so per-grant state is visible.
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
        per_sender = self._per_sender(ids, groups, table.src.__getitem__)
        # Hoisted once per round: the ledger's dense lists and the table
        # columns the per-port pass indexes (property/attribute fetches per
        # port call used to add up across thousands of rounds).
        # Receivers observed exhausted anywhere this round: usage only ever
        # grows within a round, so a later fill against such a port would
        # grant 0 and commit nothing — skipping it is an exact no-op.
        dead_dst: set[int] = set()
        lists = (
            ledger.capacity_list, ledger.used_list, ledger.touched_set,
            table.flow_id, table.coflow_id, table.dst,
            allocation.rates, allocation.scheduled_coflows, dead_dst,
        )
        for port in sorted(per_sender):
            self._allocate_port_rows(port, per_sender[port], lists)

    def _allocate_port_rows(self, port: int,
                            runs: list[tuple[int, list[int]]],
                            lists: tuple) -> None:
        """Row-path twin of :meth:`_allocate_port` (same grants, same
        order); flow identity and receiver ports come from the table
        columns, and :meth:`~repro.simulator.fabric.PortLedger.fill_capped`
        is fused inline over the ledger's dense lists — every flow here
        sends from ``port``, so its usage rides in a local accumulator and
        is written back once (grant arithmetic and at-capacity clamps are
        identical, and receiver ports live in a disjoint id range, so no
        read can observe the deferred write). ``lists`` carries the
        round-hoisted ledger lists, table columns, allocation sinks and
        the round's dead-receiver memo — an exhausted receiver stays
        exhausted for the rest of the round (usage only grows), so
        skipping it is an exact no-op: the fill would have granted 0 and
        committed nothing."""
        (lcap, lused, touched, fid, cid, dst_col, rates, scheduled,
         dead_dst) = lists
        cap_src = lcap[port]
        used_src = lused[port]
        port_capacity = cap_src - used_src  # == ledger.residual(port)
        if port_capacity <= 0:
            return
        weight_of = self._queue_weight
        total_weight = 0.0
        for q, _ in runs:
            total_weight += weight_of[q]

        rates_get = rates.get

        # Pass 1: each occupied queue spends its weighted share, FIFO.
        for q, run in runs:
            budget = port_capacity * weight_of[q] / total_weight
            for i in run:
                if budget <= 0:
                    break
                rate = cap_src - used_src
                if rate <= 0:  # sender port exhausted
                    lused[port] = used_src
                    return
                dst = dst_col[i]
                if dst in dead_dst:
                    continue  # receiver full; later receivers may differ
                cap_dst = lcap[dst]
                other = cap_dst - lused[dst]
                if other < rate:
                    rate = other
                if budget < rate:
                    rate = budget
                if rate <= 0:
                    # Sender residual and budget are positive here, so the
                    # receiver must be exhausted: memoise it.
                    dead_dst.add(dst)
                    continue
                new_used = used_src + rate
                used_src = new_used if new_used < cap_src else cap_src
                new_used = lused[dst] + rate
                lused[dst] = new_used if new_used < cap_dst else cap_dst
                touched.add(port)
                touched.add(dst)
                budget -= rate
                flow_id = fid[i]
                rates[flow_id] = rates_get(flow_id, 0.0) + rate
                scheduled.add(cid[i])

        # Pass 2 (work conservation): spill leftover capacity in strict
        # priority+FIFO order, e.g. when a queue's share outruns its flows'
        # receiver capacity.
        for _, run in runs:
            for i in run:
                rate = cap_src - used_src
                if rate <= 0:  # sender port exhausted
                    lused[port] = used_src
                    return
                dst = dst_col[i]
                if dst in dead_dst:
                    continue
                cap_dst = lcap[dst]
                other = cap_dst - lused[dst]
                if other < rate:
                    rate = other
                if rate <= 0:
                    dead_dst.add(dst)
                    continue
                new_used = used_src + rate
                used_src = new_used if new_used < cap_src else cap_src
                new_used = lused[dst] + rate
                lused[dst] = new_used if new_used < cap_dst else cap_dst
                touched.add(port)
                touched.add(dst)
                flow_id = fid[i]
                rates[flow_id] = rates_get(flow_id, 0.0) + rate
                scheduled.add(cid[i])
        lused[port] = used_src

    def _allocate_port(self, port: int,
                       runs: list[tuple[int, list[Flow]]],
                       ledger, allocation: Allocation) -> None:
        """Weighted queue shares at one sender port, then a spill pass.

        ``runs`` holds the port's schedulable flows sliced into runs of
        equal queue, in (queue, fifo, flow_id) order. Each grant goes
        through :meth:`~repro.simulator.fabric.PortLedger.fill_capped` —
        one fused residual/commit call whose rate is the same
        ``min(budget, residual(src), residual(dst))`` as the unfused pair.
        """
        port_capacity = ledger.residual(port)
        if port_capacity <= 0:
            return
        weight_of = self._queue_weight
        total_weight = 0.0
        for q, _ in runs:
            total_weight += weight_of[q]

        fill_capped = ledger.fill_capped
        rates = allocation.rates
        rates_get = rates.get
        scheduled = allocation.scheduled_coflows

        # Every flow here sends from ``port``, so once the port's residual
        # hits zero no later flow (in either pass) can receive a rate —
        # the ledger's -1.0 sentinel bails out instead of scanning the
        # remaining no-op iterations.

        # Pass 1: each occupied queue spends its weighted share, FIFO.
        for q, run in runs:
            budget = port_capacity * weight_of[q] / total_weight
            for flow in run:
                if budget <= 0:
                    break
                rate = fill_capped(port, flow.dst, budget)
                if rate <= 0:
                    if rate < 0:
                        return  # sender port exhausted
                    continue  # receiver full; later receivers may differ
                budget -= rate
                rates[flow.flow_id] = rates_get(flow.flow_id, 0.0) + rate
                scheduled.add(flow.coflow_id)

        # Pass 2 (work conservation): spill leftover capacity in strict
        # priority+FIFO order, e.g. when a queue's share outruns its flows'
        # receiver capacity.
        for _, run in runs:
            for flow in run:
                rate = fill_capped(port, flow.dst, math.inf)
                if rate <= 0:
                    if rate < 0:
                        return  # sender port exhausted
                    continue
                rates[flow.flow_id] = rates_get(flow.flow_id, 0.0) + rate
                scheduled.add(flow.coflow_id)

    def next_wakeup(self, state: ClusterState, allocation: Allocation,
                    now: float) -> float | None:
        """Wake at the next total-bytes queue-threshold crossing.

        Zero-rate coflows cannot cross a total-bytes threshold, so only
        this round's scheduled coflows are candidates.
        """
        best = self.tracker.earliest_transition(
            state, allocation.scheduled_coflows, allocation.rates, now, 1e-9)
        return best if math.isfinite(best) else None

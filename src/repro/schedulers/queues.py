"""Priority-queue bookkeeping shared by Aalo, Saath and the ablations.

The :class:`QueueTracker` maintains, per coflow, the current logical queue,
the instant it entered that queue, and (for Saath) the starvation deadline
derived from FIFO (§4.2 D5). It also computes *when* a coflow will cross its
queue threshold given current rates, which the engine uses to wake the
scheduler exactly at transition instants instead of polling.

Two transition metrics are supported, selected by the owner:

* ``"total"``  — Aalo: total bytes sent by the coflow vs ``Q_hi``.
* ``"perflow"`` — Saath: max bytes sent by any flow vs ``Q_hi / width``
  (Eq. 1, §4.2 D3).

Each round's queue work is two batched calls: :meth:`QueueTracker.moves`
(the target queue of every dirty coflow) and
:meth:`QueueTracker.earliest_transition` (the next threshold crossing over
the round's rated coflows). With the compiled core they run as
``queue_targets`` / ``queue_wakeup`` in :mod:`repro._fastcore` over the
flow table; without it they loop over the per-coflow
:meth:`~QueueTracker.target_queue` / :meth:`~QueueTracker.next_transition_time`,
which are the kernels' reference.
"""

from __future__ import annotations

import math

from .._fastcore import core as _core
from ..config import SimulationConfig
from ..errors import SchedulerError
from ..simulator.flows import CoFlow, left_sum

#: The empty ``keep`` set of :meth:`QueueTracker.moves`.
_NO_KEEP: frozenset[int] = frozenset()


class QueueTracker:
    """Tracks queue membership, entry times, and starvation deadlines."""

    #: Observability hooks (class-level ``None``: the disabled path costs
    #: one attribute check; bound via ``Scheduler.bind_instrumentation``).
    tracer = None
    metrics = None

    def __init__(self, config: SimulationConfig, *, metric: str):
        if metric not in ("total", "perflow"):
            raise SchedulerError(f"unknown queue metric {metric!r}")
        self.config = config
        self.metric = metric
        #: coflow_id -> queue index
        self._queue: dict[int, int] = {}
        #: coflow_id -> time the coflow entered its current queue
        self._entered: dict[int, float] = {}
        #: coflow_id -> absolute starvation deadline
        self._deadline: dict[int, float] = {}
        #: queue index -> number of resident coflows (kept incrementally so
        #: deadline assignment is O(1) instead of an O(coflows) scan).
        self._population: dict[int, int] = {}
        #: coflow_id -> total bytes sent when its target queue was last
        #: computed ("total" metric only). Exact between refreshes: a
        #: coflow's bytes only move in rounds that mark it dirty, and every
        #: dirty coflow is refreshed before the round's wakeup scan.
        self._sent: dict[int, float] = {}

    # ---- membership ---------------------------------------------------------

    def admit(self, coflow: CoFlow, now: float) -> None:
        """Place a newly-arrived coflow in the highest-priority queue."""
        self._place(coflow, 0, now)

    def remove(self, coflow: CoFlow) -> None:
        queue = self._queue.pop(coflow.coflow_id, None)
        if queue is not None:
            self._population[queue] -= 1
        self._entered.pop(coflow.coflow_id, None)
        self._deadline.pop(coflow.coflow_id, None)
        self._sent.pop(coflow.coflow_id, None)

    def queue_of(self, coflow: CoFlow) -> int:
        try:
            return self._queue[coflow.coflow_id]
        except KeyError:
            raise SchedulerError(
                f"coflow {coflow.coflow_id} is not tracked; "
                f"was on_coflow_arrival delivered?"
            ) from None

    @property
    def queue_map(self) -> dict[int, int]:
        """Live ``coflow_id → queue`` mapping (read-only by convention);
        per-round hot loops index it directly instead of paying a method
        call per :meth:`queue_of` lookup."""
        return self._queue

    def deadline_of(self, coflow: CoFlow) -> float:
        return self._deadline.get(coflow.coflow_id, math.inf)

    def population(self, queue: int) -> int:
        """Number of tracked coflows currently in ``queue``."""
        return self._population.get(queue, 0)

    # ---- transitions ----------------------------------------------------------

    def target_queue(self, coflow: CoFlow) -> int:
        """Queue the coflow *should* be in given its progress metric.

        Queues are demotion-only here (progress only grows); §4.3 promotion
        is applied by Saath's dynamics handler, which calls
        :meth:`force_queue` explicitly. The total-bytes metric is kept for
        :meth:`earliest_transition`.
        """
        qcfg = self.config.queues
        if self.metric == "total":
            sent = coflow.bytes_sent
            self._sent[coflow.coflow_id] = sent
            return qcfg.queue_for_bytes(sent)
        return qcfg.queue_for_per_flow_bytes(
            coflow.max_flow_bytes_sent, coflow.width
        )

    def moves(self, state, keep: "set[int] | frozenset[int] | None" = None,
              ) -> list[tuple[CoFlow, int]]:
        """``(coflow, target queue)`` for every coflow :meth:`refresh`
        would move this round, plus every visited coflow in ``keep``.

        Visits the active coflows whose progress can have moved since the
        last round — all of them on full rounds, else the engine delta's
        arrived / progressed / flow-completed set — in active order, the
        order callers must apply the moves in (deadlines read queue
        populations at placement time). A target depends on progress
        only, never on queue state, so batching the targets ahead of the
        placements is exact. Compiled as ``queue_targets`` over the flow
        table when ``table.fastcore``; the Python form (and the fallback
        when the kernel declines a coflow off the table) is
        :meth:`target_queue` per coflow.
        """
        delta = state.delta
        dirty = (None if delta.full
                 else delta.arrived | delta.progressed | delta.flow_completed)
        keep = keep if keep is not None else _NO_KEEP
        table = state.table
        if table.fastcore and _core is not None:
            if self.metrics is not None:
                self.metrics.inc("kernel.queue_targets.fastcore")
            moves = _core.queue_targets(
                state.active_coflows, dirty, keep, self._queue,
                state.row_map, table.bytes_sent,
                self.config.queues._finite_hi, self.metric == "perflow",
                self._sent,
            )
            if moves is not None:
                return moves
        elif self.metrics is not None:
            self.metrics.inc("kernel.queue_targets.python")
        moves = []
        for coflow in state.active_coflows:
            cid = coflow.coflow_id
            if dirty is not None and cid not in dirty:
                continue
            target = self.target_queue(coflow)
            if target > self.queue_of(coflow) or cid in keep:
                moves.append((coflow, target))
        return moves

    def refresh(self, coflow: CoFlow, now: float) -> bool:
        """Move the coflow to its target queue if it crossed a threshold.

        Returns True if the queue changed. Demotion-only (never moves a
        coflow to a higher-priority queue; see :meth:`force_queue`).
        """
        return self.demote(coflow, self.target_queue(coflow), now)

    def demote(self, coflow: CoFlow, target: int, now: float) -> bool:
        """:meth:`refresh` with the target queue already computed
        (:meth:`moves`)."""
        if target > self.queue_of(coflow):
            self._place(coflow, target, now)
            return True
        return False

    def force_queue(self, coflow: CoFlow, queue: int, now: float) -> bool:
        """Explicitly (re)assign ``coflow`` to ``queue`` (dynamics, §4.3).

        Promotion resets the entry time and deadline like any other queue
        change. Returns True if the queue changed.
        """
        if queue == self._queue.get(coflow.coflow_id):
            return False
        self._place(coflow, queue, now)
        return True

    def next_transition_time(self, coflow: CoFlow,
                             rates: dict[int, float],
                             pending_rows: "list[int] | None" = None,
                             ) -> float:
        """Seconds from now until the coflow crosses its queue threshold.

        Under constant ``rates`` (flow_id → bytes/s). ``inf`` if it never
        will (zero relevant rate or already in the last queue).
        ``pending_rows`` optionally narrows the walk to the coflow's
        unfinished table rows (the cluster state's pending cache) — the
        finished-flow filter below skips exactly the dropped rows, so the
        scan order over surviving flows (and every float) is unchanged.
        This is the per-coflow reference of :meth:`earliest_transition`.
        """
        qcfg = self.config.queues
        current = self.queue_of(coflow)
        if current >= qcfg.num_queues - 1:
            return math.inf
        hi = qcfg.hi_threshold(current)
        rows = pending_rows if pending_rows is not None else coflow._rows
        if rows is not None:
            # Rows are in ``flows`` order: same walk, same floats.
            tbl = coflow._table
            fid, ft = tbl.flow_id, tbl.finish_time
            vol, bs = tbl.volume, tbl.bytes_sent
        else:
            # A coflow off the flow table: the same walk over its flows.
            flows = coflow.flows
            rows = range(len(flows))
            fid = [f.flow_id for f in flows]
            ft = [f.finish_time for f in flows]
            vol = [f.volume for f in flows]
            bs = [f.bytes_sent for f in flows]
        rates_get = rates.get
        if self.metric == "total":
            total_rate = left_sum(
                [rates_get(fid[i], 0.0) for i in rows if ft[i] is None])
            if total_rate <= 0:
                return math.inf
            gap = hi - coflow.bytes_sent
            return max(gap, 0.0) / total_rate
        # Per-flow metric: first flow to reach hi / width.
        per_flow_hi = hi / coflow.width
        best = math.inf
        for i in rows:
            if ft[i] is not None:
                continue
            rate = rates_get(fid[i], 0.0)
            if rate <= 0:
                continue
            # A flow cannot push bytes_sent beyond its volume; crossing only
            # happens if the threshold is reachable within it.
            reachable = min(vol[i], per_flow_hi)
            if reachable <= bs[i]:
                # Already at/over the reachable point: if it is the true
                # threshold, the transition is immediate on next refresh.
                if bs[i] >= per_flow_hi:
                    return 0.0
                continue
            if per_flow_hi <= vol[i]:
                best = min(best, (per_flow_hi - bs[i]) / rate)
        return best

    def earliest_transition(self, state, candidates, rates: dict[int, float],
                            now: float, floor: float) -> float:
        """Earliest ``now + max(dt, floor)`` over the ``candidates`` (coflow
        ids) whose :meth:`next_transition_time` ``dt`` is finite; ``inf``
        when there is none.

        Compiled as ``queue_wakeup`` over the flow table when
        ``table.fastcore``, reading the total-bytes metric from the
        round's refresh (:meth:`moves`) instead of summing it again; the
        Python form (and the fallback when the kernel declines an
        untracked candidate) is the :meth:`next_transition_time` fold.
        Both fold ``min`` in candidate order.
        """
        table = state.table
        if table.fastcore and _core is not None:
            if self.metrics is not None:
                self.metrics.inc("kernel.queue_wakeup.fastcore")
            best = _core.queue_wakeup(
                candidates, state.row_map, state.pending_row_map,
                self._queue, self._sent, self.metric == "perflow",
                self.config.queues._finite_hi, table.flow_id,
                table.finish_time, table.volume, table.bytes_sent, rates,
                now, floor,
            )
            if best is not None:
                return best
        elif self.metrics is not None:
            self.metrics.inc("kernel.queue_wakeup.python")
        best = math.inf
        for cid in candidates:
            coflow = state.coflow(cid)
            dt = self.next_transition_time(
                coflow, rates, pending_rows=state.pending_rows(coflow))
            if dt < math.inf:
                best = min(best, now + max(dt, floor))
        return best

    # ---- starvation deadlines (§4.2 D5) --------------------------------------

    def set_deadline(self, coflow: CoFlow, now: float) -> None:
        """Assign a fresh FIFO-derived deadline for the coflow's queue.

        ``deadline = now + d * C_q * t_q`` where ``C_q`` counts coflows
        resident in the queue (including this one) and ``t_q`` is the
        minimum queue-residency time at full port rate.
        """
        factor = self.config.deadline_factor
        if factor is None:
            self._deadline[coflow.coflow_id] = math.inf
            return
        queue = self.queue_of(coflow)
        population = max(self.population(queue), 1)
        t_q = self.config.queues.min_residency_time(
            queue, self.config.port_rate
        )
        self._deadline[coflow.coflow_id] = now + factor * population * t_q

    def starving(self, coflow: CoFlow, now: float) -> bool:
        """True if the coflow has passed its starvation deadline."""
        return now >= self._deadline.get(coflow.coflow_id, math.inf)

    def next_deadline_after(self, now: float) -> float:
        """Earliest deadline strictly in the future, or ``inf``."""
        future = [d for d in self._deadline.values() if d > now]
        return min(future, default=math.inf)

    # ---- internal -------------------------------------------------------------

    def _place(self, coflow: CoFlow, queue: int, now: float) -> None:
        previous = self._queue.get(coflow.coflow_id)
        if previous != queue:
            if previous is not None:
                self._population[previous] -= 1
            self._population[queue] = self._population.get(queue, 0) + 1
            if self.metrics is not None:
                self.metrics.inc("queue.transitions")
            if self.tracer is not None:
                self.tracer.instant(
                    "queue_transition", now, "queues",
                    {"coflow": coflow.coflow_id, "from": previous,
                     "to": queue},
                )
        self._queue[coflow.coflow_id] = queue
        self._entered[coflow.coflow_id] = now
        coflow.queue = queue
        coflow.queue_entry_time = now
        self.set_deadline(coflow, now)
        coflow.deadline = self._deadline[coflow.coflow_id]

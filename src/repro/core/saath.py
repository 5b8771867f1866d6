"""The Saath scheduler — the paper's primary contribution (§3–§4).

Saath is an online (non-clairvoyant) coflow scheduler built from three
complementary ideas plus two safety mechanisms, all implemented here:

1. **All-or-none** (§3.1): a coflow is admitted only if *every* port its
   schedulable flows touch still has capacity; either all of its flows are
   scheduled together or none is. This removes Aalo's out-of-sync problem.
2. **Per-flow queue thresholds** (§3.2, D3/Eq. 1): queue transitions fire
   when the *largest flow* crosses its fair share ``Q_hi / width`` of the
   queue threshold, moving long coflows out of high-priority queues faster.
3. **Least-Contention-First** (§3.3, D1): within a queue, coflows are
   admitted in increasing order of contention ``k_c`` — the spatial
   generalisation of SJF.
4. **Work conservation** (D4): ports left idle by all-or-none are filled
   with the flows of skipped coflows, in scheduling order.
5. **Starvation avoidance** (D5): each coflow carries a FIFO-derived
   deadline ``d · C_q · t_q``; coflows past their deadline are admitted
   ahead of the LCoF order.

The optional §4.3 dynamics handler (approximated SRTF promotion when some
flows have finished) is enabled by ``config.enable_dynamics_promotion``.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

from ..config import SimulationConfig
from ..schedulers.base import Allocation, Scheduler
from ..schedulers.queues import QueueTracker
from ..simulator.flows import CoFlow, Flow
from ..simulator.ratealloc import saath_round_rows
from ..simulator.state import ClusterState
from .contention import ContentionTracker
from .dynamics import promotion_queue


class SaathScheduler(Scheduler):
    """Saath, with ablation switches for the Fig. 10–12 breakdown.

    ``use_lcof=False`` replaces LCoF with FIFO (arrival order) within each
    queue; ``use_perflow_threshold=False`` falls back to Aalo's total-bytes
    queue metric. Both default to the full Saath design. All variants keep
    all-or-none admission and work conservation, matching the paper's
    breakdown (A/N+FIFO, A/N+P/F+FIFO, A/N+P/F+LCoF).
    """

    name = "saath"
    clairvoyant = False

    def __init__(
        self,
        config: SimulationConfig,
        *,
        use_lcof: bool = True,
        use_perflow_threshold: bool = True,
        work_conservation: bool = True,
        length_estimator=None,
    ):
        super().__init__(config)
        self.use_lcof = use_lcof
        self.use_perflow_threshold = use_perflow_threshold
        self.work_conservation = work_conservation
        #: Strategy for the §4.3 remaining-length estimate (None = the
        #: paper's median rule; see repro.core.estimators).
        self.length_estimator = length_estimator
        metric = "perflow" if use_perflow_threshold else "total"
        self.tracker = QueueTracker(config, metric=metric)
        #: Incrementally-maintained contention index (LCoF only). Rebuilt
        #: whenever the engine flags a full resync.
        self._contention = (
            ContentionTracker(config.contention_scope) if use_lcof else None
        )
        #: Coflows governed by the §4.3 SRTF approximation (some flows done).
        self._dynamics_mode: set[int] = set()
        #: Diagnostics: starving coflows admitted (all-or-none, ahead of
        #: the LCoF order), summed over rounds.
        self.starvation_admissions = 0

    # ---- lifecycle ------------------------------------------------------------

    def on_coflow_arrival(self, coflow: CoFlow, now: float) -> None:
        self.tracker.admit(coflow, now)

    def on_coflow_completion(self, coflow: CoFlow, now: float) -> None:
        self.tracker.remove(coflow)
        self._dynamics_mode.discard(coflow.coflow_id)

    def on_flow_completion(self, flow: Flow, coflow: CoFlow, now: float) -> None:
        if not self.config.enable_dynamics_promotion:
            return
        self._dynamics_mode.add(coflow.coflow_id)
        if self._apply_promotion(coflow, now) and self._contention is not None:
            # Queue-scoped contention counts depend on queue membership;
            # dirty the sharers now so the next incremental round recounts.
            self._contention.note_queue_change(coflow.coflow_id)

    # ---- the scheduling round (Fig. 7) ------------------------------------------

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        # Incremental rounds consume the engine's dirty set; full rounds
        # (first round, dynamics) rebuild everything.
        incremental = not state.delta.full
        timers = self.timers
        if timers is None:
            queue_moves = self._assign_queues(state, now)
            order, starving = self._scheduling_order(
                state, now, incremental, queue_moves)
            allocation = self._admit(state, order, now)
        else:
            t0 = perf_counter_ns()
            queue_moves = self._assign_queues(state, now)
            t1 = perf_counter_ns()
            order, starving = self._scheduling_order(
                state, now, incremental, queue_moves)
            t2 = perf_counter_ns()
            allocation = self._admit(state, order, now)
            timers.add("schedule.assign", t1 - t0)
            timers.add("schedule.order", t2 - t1)
            timers.add("schedule.admit", perf_counter_ns() - t2)
        if starving:
            scheduled = allocation.scheduled_coflows
            self.starvation_admissions += sum(
                1 for c in order[:starving] if c.coflow_id in scheduled)
        return allocation

    def _admit(self, state: ClusterState, order: list[CoFlow],
               now: float) -> Allocation:
        """Fig. 7 lines 16–23: all-or-none admission with the D2 equal
        rate in ``order``, then work conservation for the coflows left
        out."""
        ledger = state.acquire_ledger()
        allocation = Allocation()
        # Per-port pending counts replace the per-flow recount in admission
        # and D2 rate assignment whenever they exactly describe the
        # schedulable set (on a multi-tier fabric the round counts the
        # links of each flow's path instead).
        ids, groups, group_counts = state.schedulable_groups(order, now)
        saath_round_rows(
            ids, groups, group_counts, state.table, ledger, allocation,
            min_rate=self.config.min_rate,
            work_conservation=self.work_conservation,
        )
        return allocation

    def next_wakeup(self, state: ClusterState, allocation: Allocation,
                    now: float) -> float | None:
        """Queue-threshold crossings and starvation-deadline expiries.

        Only coflows that received rate this round can cross a threshold
        before the next event; everyone else sits still (zero rate on
        every flow ⇒ infinite transition time).
        """
        best = self.tracker.earliest_transition(
            state,
            allocation.scheduled_coflows | allocation.work_conserved_coflows,
            allocation.rates, now, 0.0,
        )
        if self.config.deadline_factor is not None:
            best = min(best, self.tracker.next_deadline_after(now))
        if not math.isfinite(best) or best <= now:
            # A zero transition gap means refresh already happens on the
            # next schedule; nudge forward to avoid a same-instant livelock.
            if best <= now and math.isfinite(best):
                return now + 1e-9
            return None
        return best

    # ---- pieces ------------------------------------------------------------------

    def _assign_queues(self, state: ClusterState, now: float) -> set[int]:
        """AssignQueue (Fig. 7 line 15): demotions plus §4.3 promotions.

        Returns the ids of coflows whose queue changed this round. In
        incremental mode only coflows whose progress metric can have moved
        (arrived, progressed, or lost a flow since the last round) are
        revisited — for everyone else the demotion-only rule guarantees the
        target queue is unchanged, so skipping them is exact (see
        :meth:`QueueTracker.moves`).
        """
        moved: set[int] = set()
        tracker = self.tracker
        dynamics = self._dynamics_mode
        for coflow, target in tracker.moves(state, keep=dynamics):
            if coflow.coflow_id in dynamics:
                if self._apply_promotion(coflow, now):
                    moved.add(coflow.coflow_id)
            elif tracker.demote(coflow, target, now):
                moved.add(coflow.coflow_id)
        return moved

    def _apply_promotion(self, coflow: CoFlow, now: float) -> bool:
        target = promotion_queue(coflow, self.config.queues,
                                 estimator=self.length_estimator)
        if target is not None:
            return self.tracker.force_queue(coflow, target, now)
        return False

    def _scheduling_order(self, state: ClusterState, now: float,
                          incremental: bool,
                          queue_moves: set[int]) -> tuple[list[CoFlow], int]:
        """Starved coflows first, then queues top-down, LCoF within each.

        Returns the order and how many starving coflows lead it.
        """
        starving: list[CoFlow] = []
        per_queue: dict[int, list[CoFlow]] = {}
        for coflow in state.active_coflows:
            if (self.config.deadline_factor is not None
                    and self.tracker.starving(coflow, now)):
                starving.append(coflow)
            else:
                per_queue.setdefault(
                    self.tracker.queue_of(coflow), []
                ).append(coflow)

        starving.sort(key=lambda c: (self.tracker.deadline_of(c), c.coflow_id))
        num_starving = len(starving)

        order = starving
        contention = None
        if self.use_lcof:
            contention = self._contention_counts(state, incremental,
                                                 queue_moves)
        for queue in sorted(per_queue):
            members = per_queue[queue]
            if self.use_lcof:
                assert contention is not None
                # Decorate-and-sort without a key lambda: coflow ids are
                # unique, so the trailing object is never compared and the
                # (contention, arrival, id) tie-break is unchanged.
                decorated = [
                    (contention[c.coflow_id], c.arrival_time, c.coflow_id, c)
                    for c in members
                ]
                decorated.sort()
                order.extend([t[3] for t in decorated])
            else:  # FIFO within the queue
                members.sort(key=lambda c: (c.arrival_time, c.coflow_id))
                order.extend(members)
        return order, num_starving

    def _contention_counts(self, state: ClusterState, incremental: bool,
                           queue_moves: set[int]) -> dict[int, int]:
        """Current LCoF contention map ``k_c`` for every active coflow.

        The :class:`ContentionTracker` is patched from the engine's delta
        and rebuilt from scratch on full-resync rounds.
        """
        queue_of: dict[int, int] | None = None
        if self.config.contention_scope == "queue":
            queue_of = {
                c.coflow_id: self.tracker.queue_of(c)
                for c in state.active_coflows
            }
        tracker = self._contention
        assert tracker is not None  # use_lcof guards construction
        if not incremental:
            tracker.rebuild(state.active_coflows)
        else:
            # Delta-driven rounds run against live engine notifications, so
            # the port-count caches are exact and hand the tracker each
            # dirty coflow's port footprint without a flow rescan.
            delta = state.delta
            for cid in delta.completed:
                tracker.remove(cid)
            for cid in delta.arrived:
                coflow = state.coflow(cid)
                tracker.add(
                    coflow, ports=set(state.pending_port_counts(coflow))
                )
            for cid in delta.flow_completed - delta.arrived:
                coflow = state.coflow(cid)
                tracker.refresh_ports(
                    coflow, ports=set(state.pending_port_counts(coflow))
                )
            for cid in queue_moves:
                tracker.note_queue_change(cid)
        return tracker.counts(queue_of)

"""Full-recompute reference engine: the equivalence suite's oracle.

Production rounds are incremental: schedulers consume the engine's dirty
set, reuse the cached ledger and the contention, queue, Γ and port-count
caches, and the engine applies each allocation as a diff
against the previous one, finding completions through a lazy heap.
:class:`ReferenceSimulator` turns every round into the round production
runs first and after dynamics: the delta is flagged full (a fresh ledger,
every cache rebuilt, every coflow revisited), the whole allocation is
applied, and completions are found by scanning with the heap cold. Any
result that differs from production's is a bug in the incremental
bookkeeping.
"""

from __future__ import annotations

from ..simulator.engine import Simulator


class ReferenceSimulator(Simulator):
    """:class:`~repro.simulator.engine.Simulator` with every round full."""

    def _recompute_schedule(self) -> None:
        self.state.note_dynamics()
        self._full_apply_pending = True
        super()._recompute_schedule()


def run_reference(scheduler, coflows, fabric, config, **kwargs):
    """:func:`~repro.simulator.engine.run_policy` on the reference engine."""
    return ReferenceSimulator(fabric, scheduler, config, **kwargs).run(coflows)

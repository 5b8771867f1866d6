"""Scheduler interface shared by Saath and all baselines.

A scheduler is a pure policy object: the engine hands it a
:class:`~repro.simulator.state.ClusterState` and the current time, and gets
back an :class:`Allocation` (flow-id → rate). The engine applies rates,
advances fluid state to the next event, and calls back. Event hooks
(``on_coflow_arrival`` etc.) let stateful schedulers maintain queue
assignments and deadlines incrementally.

``next_wakeup`` lets a scheduler request a recomputation *before* any
external event — Saath and Aalo use it for queue-threshold crossings and
starvation-deadline expiries, which change scheduling decisions even though
no flow completed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..config import SimulationConfig
from ..simulator.flows import CoFlow, Flow
from ..simulator.state import ClusterState


@dataclass(slots=True)
class Allocation:
    """Result of one scheduling round: rates plus optional diagnostics."""

    #: flow_id -> rate in bytes/second. Flows absent from the map get 0.
    rates: dict[int, float] = field(default_factory=dict)
    #: coflow ids admitted by the primary policy this round (diagnostics).
    scheduled_coflows: set[int] = field(default_factory=set)
    #: coflow ids that only received work-conservation rates (diagnostics).
    work_conserved_coflows: set[int] = field(default_factory=set)

    def rate_of(self, flow_id: int) -> float:
        return self.rates.get(flow_id, 0.0)


class Scheduler(abc.ABC):
    """Abstract base class for coflow schedulers.

    Subclasses receive the shared :class:`SimulationConfig` so queue
    geometry, the starvation factor and feature flags are consistent across
    the whole experiment.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"
    #: True if the policy reads flow volumes (offline / clairvoyant).
    clairvoyant: bool = False
    #: Observability hooks (class-level ``None`` so the disabled path is a
    #: single attribute check with no per-instance storage cost; see
    #: :meth:`bind_instrumentation`).
    tracer = None
    metrics = None
    #: :class:`~repro.observability.PhaseTimers` for scheduler sub-phases
    #: (recorded below the session's ``schedule`` phase).
    timers = None

    def __init__(self, config: SimulationConfig):
        self.config = config

    def bind_instrumentation(self, tracer, metrics, timers=None) -> None:
        """Attach observability hooks (any may be ``None`` to detach).

        The session calls this at construction and after instrumentation
        is (re)attached; schedulers owning a
        :class:`~repro.schedulers.queues.QueueTracker` propagate the hooks
        so queue transitions are traced too.
        """
        self.tracer = tracer
        self.metrics = metrics
        self.timers = timers
        tracker = getattr(self, "tracker", None)
        if tracker is not None:
            tracker.tracer = tracer
            tracker.metrics = metrics

    # ---- lifecycle hooks (optional) ----------------------------------------

    def on_coflow_arrival(self, coflow: CoFlow, now: float) -> None:
        """Called when ``coflow`` becomes active (arrival or DAG release)."""

    def on_flow_completion(self, flow: Flow, coflow: CoFlow, now: float) -> None:
        """Called when one flow of an active coflow finishes."""

    def on_coflow_completion(self, coflow: CoFlow, now: float) -> None:
        """Called when the last flow of ``coflow`` finishes."""

    # ---- the policy ---------------------------------------------------------

    @abc.abstractmethod
    def schedule(self, state: ClusterState, now: float) -> Allocation:
        """Compute rates for every active flow at time ``now``."""

    def next_wakeup(self, state: ClusterState, allocation: Allocation,
                    now: float) -> float | None:
        """Earliest future instant the scheduler wants to re-run, if any.

        Returning ``None`` means "no internal trigger" — the engine will
        still re-run the scheduler at every external event and flow
        completion. Implementations must return a strictly-future time.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"

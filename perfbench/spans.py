"""Outside-in tracing for the benchmark's traced run.

The simulator is left untouched: spans come from wrapping the public calls
the benchmark makes into each layer (``SimulationSession.step`` /
``snapshot`` / ``restore``, the scheduler instance's ``schedule``,
``next_wakeup`` and lifecycle hooks, the scenario's event iterator and the
workload generators). Each span records its id, parent span, run id, name
and ``perf_counter_ns`` start and end; spans stay in memory until
:meth:`Tracer.write`. Engine phase times and kernel/ledger counts come from
the simulator's own public ``timers=`` and ``metrics=`` attachments.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

from repro.observability import MetricsRegistry, PhaseTimers

#: Scheduler instance methods wrapped, and the span each one records.
SCHEDULER_SPANS = (
    ("schedule", "scheduler.schedule"),
    ("next_wakeup", "scheduler.wakeup"),
    ("on_coflow_arrival", "scheduler.hook"),
    ("on_flow_completion", "scheduler.hook"),
    ("on_coflow_completion", "scheduler.hook"),
)
PHASES = ("lookout", "advance", "completions", "events", "apply")
ALLOCATOR_KERNELS = ("mmf_fill", "madd_rows", "equal_rate_rows",
                     "greedy_rows")


def percentile_us(durations_ns: list[int], q: float) -> float:
    """Nearest-rank percentile of ``durations_ns``, in microseconds."""
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e3


class _Pulls:
    """Iterator whose every ``next()`` is a ``workloads.pull`` span."""

    def __init__(self, pull):
        self._pull = pull

    def __iter__(self):
        return self

    def __next__(self):
        return self._pull()


class Tracer:
    """Span recorder plus the registry and phase timers of one pass."""

    def __init__(self) -> None:
        #: (span_id, parent_id, run_id, name, start_ns, end_ns)
        self.spans: list[tuple] = []
        #: run id -> policy (``None`` for runs that only generate inputs).
        self.runs: dict[str, str | None] = {}
        self.metrics = MetricsRegistry()
        self.timers = PhaseTimers()
        self._stack = [0]
        self._next_id = 1
        self._run_id = ""

    def begin_run(self, run_id: str, policy: str | None) -> None:
        self._run_id = run_id
        self.runs[run_id] = policy

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans.append(
                    (span_id, parent, self._run_id, name, start, end))
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def step(self, session):
        return self.wrap("session.step", session.step)

    def adopt(self, session) -> None:
        """Instrument a new or restored session.

        Wrappers live on the scheduler instance, so a snapshot's deep copy
        carries the donor's wrappers (functions copy by reference); they
        are dropped here and the restored scheduler is wrapped afresh.
        """
        scheduler = session.scheduler
        for method, name in SCHEDULER_SPANS:
            vars(scheduler).pop(method, None)
            setattr(scheduler, method, self.wrap(name,
                                                 getattr(scheduler, method)))
        session.attach_instrumentation(metrics=self.metrics,
                                       timers=self.timers)

    def watch_pulls(self, scenario) -> None:
        """Record a span per event pulled from ``scenario`` (before it is
        attached to a session)."""
        events = scenario.events
        scenario.events = lambda: _Pulls(
            self.wrap("workloads.pull", events().__next__))

    # ---- per-layer metrics ----------------------------------------------

    def layer_metrics(self, policies) -> dict[str, float]:
        """The pass's per-layer metrics (times in s unless named ``_us``)."""
        names = {}
        covered = defaultdict(int)
        for span_id, parent, _run, name, start, end in self.spans:
            names[span_id] = name
            covered[parent] += end - start
        total = defaultdict(int)
        steps = []
        step_self = 0
        replayed = 0
        by_policy = defaultdict(lambda: defaultdict(list))
        for span_id, parent, run, name, start, end in self.spans:
            dur = end - start
            total[name] += dur
            if name == "session.step":
                steps.append(dur)
                step_self += dur - covered[span_id]
            elif name == "workloads.pull":
                replayed += names.get(parent) == "session.restore"
            policy = self.runs.get(run)
            if policy is not None and name.startswith("scheduler."):
                by_policy[policy][name].append(dur)
        out = {
            "workloads.generate_s": total["workloads.generate"] / 1e9,
            "workloads.pull_s": total["workloads.pull"] / 1e9,
            "session.steps": len(steps),
            "session.step_us_p50": percentile_us(steps, 0.50),
            "session.step_us_p99": percentile_us(steps, 0.99),
            "session.self_s": step_self / 1e9,
        }
        for phase in PHASES:
            cell = self.timers.phases.get(phase, (0, 0))
            out[f"session.phase.{phase}_s"] = cell[1] / 1e9
        out["scenario.replayed_coflows"] = replayed
        for policy in policies:
            spans = by_policy[policy]
            rounds = spans["scheduler.schedule"]
            out[f"scheduler.rounds.{policy}"] = len(rounds)
            out[f"scheduler.schedule_s.{policy}"] = sum(rounds) / 1e9
            out[f"scheduler.schedule_us_p50.{policy}"] = percentile_us(
                rounds, 0.50)
            out[f"scheduler.schedule_us_p99.{policy}"] = percentile_us(
                rounds, 0.99)
            out[f"scheduler.wakeup_s.{policy}"] = (
                sum(spans["scheduler.wakeup"]) / 1e9)
            out[f"scheduler.hooks_s.{policy}"] = (
                sum(spans["scheduler.hook"]) / 1e9)
        counter = self.metrics.counter
        out["ratealloc.compiled_calls"] = sum(
            counter(f"kernel.{k}.fastcore") for k in ALLOCATOR_KERNELS)
        out["ratealloc.python_calls"] = sum(
            counter(f"kernel.{k}.python") for k in ALLOCATOR_KERNELS)
        out["topology.ledger_fills"] = (
            counter("ledger.fill") + counter("ledger.fill_capped"))
        out["topology.ledger_commits"] = counter("ledger.commit")
        out["epoch.churn_mean"] = self.metrics.summary("epoch.churn")["mean"]
        out["heap.go_cold"] = counter("heap.go_cold")
        return out


def median_metrics(parts: list[dict[str, float]]) -> dict[str, float]:
    """Per-name median over passes."""
    return {name: statistics.median(p[name] for p in parts)
            for name in parts[0]}


def write(path, tracers: list[Tracer], header: dict) -> None:
    """Write every pass's spans as JSON lines after a header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": header, "fields": [
            "pass", "span_id", "parent_id", "run_id", "name", "start_ns",
            "end_ns"]}) + "\n")
        for index, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([index, *span]) + "\n")

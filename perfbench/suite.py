"""The benchmark's three workloads and the closed-loop pass that drives them.

A *pass* runs every (trace, policy) simulation of one workload once, one
after the other, and records per run the host time spent stepping the
simulation, the finished coflows' ``(coflow_id, CCT)`` pairs, and any
error. The Saath run of every workload is also the snapshot donor: it is
paused at fixed simulated times, snapshotted and restored, and those two
calls are timed apart from the simulation itself.

Passes take an optional :class:`spans.Tracer`; without one nothing is
wrapped, so timed passes carry no instrumentation at all.
"""

from __future__ import annotations

import gc
import hashlib
import random
import traceback
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter

from repro import (
    CoFlow,
    Flow,
    Scenario,
    SimulationSession,
    clone_coflows,
    make_scheduler,
)
from repro.experiments.common import (
    ExperimentScale,
    default_experiment_config,
    fb_spec_for,
    osp_spec_for,
)
from repro.simulator.topology import TopologySpec
from repro.workloads.synthetic import (
    WorkloadGenerator,
    fb_like_spec,
    stream_poisson_coflows,
)

import calib

POLICIES = ("saath", "aalo", "varys-sebf", "uc-tcp")
#: Seed whose digests are recorded in ``digests.json``.
DEFAULT_SEED = 7
#: Generator seeds of the Fig. 9 traces.
FIG9_SEEDS = {"fb-like": 7, "osp-like": 11}
#: Donor snapshot points, as fractions of the workload's arrival horizon.
SNAPSHOT_FRACTIONS = (0.25, 0.5, 0.75)
#: Snapshots taken and restored at each point.
SNAPSHOT_REPEATS = 3
#: Open-loop stream: FB-like shapes on 50 machines at 5 coflows/s.
STREAM_RATE = 5.0
STREAM_SEED = 7
STREAM_COFLOWS = {"full": 1000, "tiny": 60}
CONFIG = default_experiment_config()


def digest(pairs) -> str:
    """sha256 of the sorted ``(coflow_id, CCT)`` pairs, CCTs in ``repr``."""
    text = "".join(f"{cid}:{cct!r}\n" for cid, cct in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Run:
    """One simulation of one policy: its host time and its outputs."""

    run_id: str
    policy: str
    #: Coflows the run must finish.
    expected: int
    sim_s: float = 0.0
    pairs: list = field(default_factory=list)
    error: str | None = None
    #: (host ms, scale to the reference speed) per snapshot and restore;
    #: each snapshot point has its own scale, from reference samples
    #: taken just before and just after its repeats.
    snapshot_ms: list[tuple[float, float]] = field(default_factory=list)
    restore_ms: list[tuple[float, float]] = field(default_factory=list)
    #: :func:`calib.sample` just before and just after the run.
    calib_s: tuple[float, float] = (calib.REFERENCE_S, calib.REFERENCE_S)

    @property
    def scale(self) -> float:
        """Factor taking this run's host times to the reference speed."""
        return 2 * calib.REFERENCE_S / sum(self.calib_s)

    def problem(self, reference: str | None) -> str | None:
        """Why this run fails the correctness gate, or ``None``."""
        if self.error is not None:
            return self.error
        if len(self.pairs) != self.expected:
            return (f"{len(self.pairs)} of {self.expected} coflows "
                    f"finished")
        if reference is not None and digest(self.pairs) != reference:
            return "CCT digest differs from the reference"
        return None


@dataclass
class Pass:
    runs: list[Run] = field(default_factory=list)
    #: The last :func:`calib.sample`, shared by the runs on either side.
    calib_s: float | None = None

    @property
    def sim_s(self) -> float:
        return sum(r.sim_s for r in self.runs)

    @property
    def scaled_sim_s(self) -> float:
        return sum(r.sim_s * r.scale for r in self.runs)

    @property
    def coflows(self) -> int:
        return sum(len(r.pairs) for r in self.runs)


def drive(session, points, run: Run, tracer=None, keep_fork=False):
    """Step ``session`` to completion, pausing at the first instant at or
    after each simulated time in ``points`` to snapshot and restore it
    ``SNAPSHOT_REPEATS`` times.

    Returns the host seconds spent stepping (snapshot and restore are
    timed into ``run`` instead) and, with ``keep_fork``, ``(instant,
    snapshot)`` taken at the middle point — the fork point — else ``None``.
    """
    step = session.step if tracer is None else tracer.step(session)
    sim = 0.0
    fork = None
    for index, t in enumerate(points):
        t0 = perf_counter()
        while session.now < t and step():
            pass
        sim += perf_counter() - t0
        if session.done:
            raise RuntimeError(f"session finished before t={t}")
        before = calib.sample()
        times = []
        for _ in range(SNAPSHOT_REPEATS):
            t0 = perf_counter()
            snap = (session.snapshot() if tracer is None
                    else tracer.call("session.snapshot", session.snapshot))
            t1 = perf_counter()
            restored = (SimulationSession.restore(snap) if tracer is None
                        else tracer.call("session.restore",
                                         SimulationSession.restore, snap))
            t2 = perf_counter()
            if tracer is not None:
                tracer.adopt(restored)
            times.append(((t1 - t0) * 1e3, (t2 - t1) * 1e3))
            del restored
        scale = 2 * calib.REFERENCE_S / (before + calib.sample())
        run.snapshot_ms += [(snap_ms, scale) for snap_ms, _ in times]
        run.restore_ms += [(restore_ms, scale) for _, restore_ms in times]
        if keep_fork and index == len(points) // 2:
            fork = (session.now, snap)
        # Copies kept alive while stepping on would slow the collector.
        del snap
    t0 = perf_counter()
    while step():
        pass
    return sim + perf_counter() - t0, fork


def _attempt(run: Run, out: Pass, body) -> None:
    """Run ``body(run)``; an exception fails the run, not the pass."""
    out.runs.append(run)
    # Start every run from an empty collector, whatever the last one left.
    before = calib.sample() if out.calib_s is None else out.calib_s
    gc.collect()
    try:
        body(run)
    except Exception:  # a failing run counts toward error_rate
        run.error = traceback.format_exc()
    out.calib_s = calib.sample()
    run.calib_s = (before, out.calib_s)


class Placement:
    """A random renumbering of a fabric's machines, drawn from the workload
    seed: :meth:`place` moves a coflow's flows onto the renumbered machines,
    keeping their sizes, widths and arrival times. ``seed=None`` keeps the
    generator's machine ids."""

    def __init__(self, fabric, seed: int | None):
        n = fabric.num_machines
        machines = list(range(n))
        if seed is not None:
            random.Random(seed).shuffle(machines)
        #: Sender ports are machine ids, receiver ports ``n + machine``.
        self._port = machines + [n + m for m in machines]

    def place(self, coflow: CoFlow) -> CoFlow:
        port = self._port
        return CoFlow(coflow.coflow_id, coflow.arrival_time, [
            Flow(f.flow_id, f.coflow_id, port[f.src], port[f.dst], f.volume)
            for f in coflow.flows])


class BatchWorkload:
    """Materialised traces, every policy simulated from scratch per trace."""

    def __init__(self, traces, topology: TopologySpec | None,
                 seed: int | None):
        self.seed = seed
        self.topology = topology
        #: (label, spec, trace seed, fabric, coflows) per trace.
        self.traces = []
        for label, spec, trace_seed in traces:
            fabric = spec.make_fabric()
            coflows = self.generate(spec, trace_seed, fabric)
            self.traces.append((label, spec, trace_seed, fabric, coflows))

    def generate(self, spec, trace_seed: int, fabric) -> list[CoFlow]:
        placement = Placement(fabric, self.seed)
        return [placement.place(c) for c in WorkloadGenerator(
            spec, seed=trace_seed).generate_coflows(fabric)]

    def session(self, fabric, coflows, policy: str,
                tracer=None) -> SimulationSession:
        topology = (self.topology.build(fabric)
                    if self.topology is not None else None)
        scenario = Scenario.from_coflows(clone_coflows(coflows))
        if tracer is not None:
            tracer.watch_pulls(scenario)
        return SimulationSession(
            fabric, make_scheduler(policy, CONFIG), CONFIG,
            scenario=scenario, topology=topology,
        )

    def first_step(self) -> None:
        _, _, _, fabric, coflows = self.traces[0]
        self.session(fabric, coflows, POLICIES[0]).step()

    def run_pass(self, tracer=None, verify: bool = False) -> Pass:
        out = Pass()
        for label, spec, trace_seed, fabric, coflows in self.traces:
            if tracer is not None:
                tracer.begin_run(f"{label}/generate", None)
                coflows = tracer.call("workloads.generate", self.generate,
                                      spec, trace_seed, fabric)
            horizon = max(c.arrival_time for c in coflows)
            points = [f * horizon for f in SNAPSHOT_FRACTIONS]
            for policy in POLICIES:
                run = Run(f"{label}/{policy}", policy, len(coflows))

                def body(run, policy=policy, coflows=coflows):
                    if tracer is not None:
                        tracer.begin_run(run.run_id, policy)
                    session = self.session(fabric, coflows, policy, tracer)
                    if tracer is not None:
                        tracer.adopt(session)
                    donor = policy == POLICIES[0]
                    run.sim_s, fork = drive(
                        session, points if donor else (), run, tracer,
                        keep_fork=verify and donor)
                    run.pairs = [(c.coflow_id, c.cct())
                                 for c in session.result.coflows]
                    if verify and donor:
                        _check_resume(run, fork[1])

                _attempt(run, out, body)
        return out


def _check_resume(run: Run, snap) -> None:
    """A batch session restored mid-run must finish byte-identical."""
    resumed = SimulationSession.restore(snap)
    while resumed.step():
        pass
    pairs = [(c.coflow_id, c.cct()) for c in resumed.result.coflows]
    if digest(pairs) != digest(run.pairs):
        raise RuntimeError("restored session diverged from its donor")


class StreamWorkload:
    """Open-loop Poisson stream with a Saath donor and what-if branches."""

    def __init__(self, seed: int, size: str):
        self.total = STREAM_COFLOWS[size]
        self.spec = fb_like_spec(num_machines=50, num_coflows=self.total)
        self.fabric = self.spec.make_fabric()
        self.placement = Placement(self.fabric, seed)
        horizon = self.total / STREAM_RATE
        self.points = [f * horizon for f in SNAPSHOT_FRACTIONS]

    def scenario(self, tracer=None) -> Scenario:
        def arrivals():
            return map(self.placement.place, stream_poisson_coflows(
                self.spec, rate_per_sec=STREAM_RATE, num_coflows=self.total,
                seed=STREAM_SEED, fabric=self.fabric))

        factory = arrivals
        if tracer is not None:
            def factory():
                return tracer.call("workloads.generate", arrivals)
        scenario = Scenario.from_stream(factory, total_coflows=self.total)
        if tracer is not None:
            tracer.watch_pulls(scenario)
        return scenario

    def donor(self, sink, tracer=None) -> SimulationSession:
        return SimulationSession(
            self.fabric, make_scheduler(POLICIES[0], CONFIG), CONFIG,
            scenario=self.scenario(tracer), sink=sink)

    def first_step(self) -> None:
        self.donor(lambda c: None).step()

    def run_pass(self, tracer=None, verify: bool = False) -> Pass:
        out = Pass()
        donor = Run(f"stream/{POLICIES[0]}", POLICIES[0], self.total)
        finish_times: list[float] = []
        #: (snapshot, coflows the donor had finished when it was taken)
        fork = []

        def run_donor(run):
            if tracer is not None:
                tracer.begin_run(run.run_id, run.policy)
            session = self.donor(_sink(run.pairs, finish_times), tracer)
            if tracer is not None:
                tracer.adopt(session)
            run.sim_s, (instant, snap) = drive(
                session, self.points, run, tracer, keep_fork=True)
            fork.append((snap, bisect_right(finish_times, instant)))

        _attempt(donor, out, run_donor)
        for policy in POLICIES[1:]:
            expected = self.total - fork[0][1] if fork else self.total
            run = Run(f"stream/{policy}", policy, expected)

            def run_branch(run, policy=policy):
                if not fork:
                    raise RuntimeError("the donor reached no fork point")
                kwargs = {"scheduler": make_scheduler(policy, CONFIG),
                          "sink": _sink(run.pairs)}
                if tracer is None:
                    branch = SimulationSession.restore(fork[0][0], **kwargs)
                else:
                    tracer.begin_run(run.run_id, policy)
                    branch = tracer.call("session.restore",
                                         SimulationSession.restore,
                                         fork[0][0], **kwargs)
                    tracer.adopt(branch)
                run.sim_s, _ = drive(branch, (), run, tracer)

            _attempt(run, out, run_branch)
        if verify and fork:
            snap, done = fork[0]
            resumed: list = []
            session = SimulationSession.restore(snap, sink=_sink(resumed))
            while session.step():
                pass
            if digest(donor.pairs[:done] + resumed) != digest(donor.pairs):
                donor.error = "restored stream session diverged from donor"
        return out


def _sink(pairs: list, finish_times: list | None = None):
    """Finished-coflow consumer recording ``(coflow_id, CCT)`` pairs."""
    def sink(coflow) -> None:
        pairs.append((coflow.coflow_id, coflow.cct()))
        if finish_times is not None:
            finish_times.append(coflow.finish_time)
    return sink


def fig9_traces(size: str):
    """(label, spec, generator seed) of the Fig. 9 traces at ``size``."""
    scale = ExperimentScale.SMALL if size == "full" else ExperimentScale.TINY
    return [("fb-like", fb_spec_for(scale), FIG9_SEEDS["fb-like"]),
            ("osp-like", osp_spec_for(scale), FIG9_SEEDS["osp-like"])]


def build(name: str, seed: int | None, size: str = "full"):
    """The named workload, its machines placed by ``seed``."""
    fb, osp = fig9_traces(size)
    if name == "fig9-bigswitch":
        return BatchWorkload([fb, osp], None, seed)
    if name == "leafspine-oversub4":
        return BatchWorkload([fb], TopologySpec(
            kind="leaf-spine", oversub=4, path_select="ecmp"), seed)
    if name == "stream-fork":
        return StreamWorkload(seed, size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fig9-bigswitch", "leafspine-oversub4", "stream-fork")

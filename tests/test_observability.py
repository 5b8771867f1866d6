"""Observability layer: tracing, metrics, profiling — and non-perturbation.

The layer's core promise is that instrumentation only *reads* simulation
state: attaching a :class:`~repro.observability.Tracer`, a
:class:`~repro.observability.MetricsRegistry` and
:class:`~repro.observability.PhaseTimers` must leave every run
byte-identical to its uninstrumented twin — including the hazardous cases
(a ``port``-category tracer forcing the Python kernel twins while fastcore
is built, streaming scenarios, snapshot/restore). This module pins that
promise with the same fingerprint fuzz the engine-path firewall uses, plus
unit coverage for the three pillars, the trace-file schemas (validated
with the actual CI gate, ``tools/check_trace.py``), the ``observer=``
telemetry hook, sweep metrics plumbing, the fastcore warn-once latch and
pre-observability checkpoint compatibility.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import warnings
from pathlib import Path

import pytest

from repro import _fastcore
from repro.analysis.telemetry import TelemetryRecorder
from repro.config import SimulationConfig
from repro.core.saath import SaathScheduler
from repro.schedulers.aalo import AaloScheduler
from repro.experiments.runner import (
    METRICS_ENV,
    ResultCache,
    RunSpec,
    SweepRunner,
    WorkloadSpec,
    execute_spec,
)
from repro.observability import (
    CATEGORIES,
    MetricsRegistry,
    PhaseTimers,
    Tracer,
    aggregate_metrics,
)
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.engine import run_policy, run_scenario
from repro.simulator.flows import clone_coflows
from repro.simulator.scenario import Scenario
from repro.simulator.session import SimulationSession
from repro.simulator.topology import LeafSpineTopology
from repro.workloads.synthetic import WorkloadGenerator, fb_like_spec

from test_fuzz_equivalence import fingerprint, random_workload

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    """Import a tools/ script as a module (they self-insert src on sys.path)."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cfg(**kw) -> SimulationConfig:
    kw.setdefault("sync_interval", 8e-3)
    return SimulationConfig(**kw)


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_summaries(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.set_gauge("g", 0.5)
        for v in (1.0, 3.0, 2.0):
            reg.observe("s", v)
        assert reg.counter("a") == 3.0
        assert reg.counter("missing") == 0.0
        assert reg.gauge("g") == 0.5
        cell = reg.summary("s")
        assert cell["count"] == 3
        assert cell["mean"] == 2.0
        assert cell["min"] == 1.0
        assert cell["max"] == 3.0

    def test_empty_registry_is_truthy(self):
        # `if metrics:` at a hook site must not silently disable an
        # attached-but-still-empty registry; hooks gate on `is not None`.
        assert bool(MetricsRegistry())

    def test_roundtrip_and_merge(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("c", 4)
        reg.set_gauge("g", 7.0)
        reg.observe("s", 2.0)
        clone = MetricsRegistry.from_dict(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()
        clone.merge(reg)
        assert clone.counter("c") == 8.0
        assert clone.summary("s")["count"] == 2
        path = tmp_path / "m.json"
        reg.save(str(path))
        assert MetricsRegistry.load(str(path)).to_dict() == reg.to_dict()

    def test_aggregate_skips_none(self):
        a = MetricsRegistry()
        a.inc("x")
        b = MetricsRegistry()
        b.inc("x", 2)
        rollup = aggregate_metrics([a, None, b])
        assert rollup.counter("x") == 3.0

    def test_deepcopy_and_pickle_survive(self):
        # Unlike tracers/timers, the registry is plain data: snapshots and
        # pool workers carry it along.
        reg = MetricsRegistry()
        reg.inc("c")
        dup = copy.deepcopy(reg)
        dup.inc("c")
        assert reg.counter("c") == 1.0
        assert dup.counter("c") == 2.0


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_jsonl_trace_validates_with_ci_gate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path), metadata={"policy": "saath"}) as tr:
            tr.instant("coflow_arrival", 0.0, "session", {"coflow": 1})
            tr.complete("round", 0.0, 0.008, "schedule")
            tr.counter("port_utilisation", 0.1, "port", {"p0": 0.5})
        check_trace = _load_tool("check_trace")
        assert check_trace.check_jsonl(path) == 3
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["metadata"] == {"policy": "saath"}
        assert lines[0]["categories"] == list(CATEGORIES)
        assert [e["kind"] for e in lines[1:]] == [
            "instant", "complete", "counter"
        ]

    def test_chrome_trace_validates_with_ci_gate(self, tmp_path):
        path = tmp_path / "t.json"
        with Tracer(str(path), format="chrome") as tr:
            tr.instant("snapshot", 0.5, "session")
            tr.complete("round", 1.0, 0.008, "schedule")
            tr.counter("port_utilisation", 2.0, "port", {"p0": 0.25})
        check_trace = _load_tool("check_trace")
        assert check_trace.check_chrome(path) == 3
        doc = json.loads(path.read_text())
        # Timestamps are microseconds (sim-seconds x 1e6).
        instant = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert instant["ts"] == pytest.approx(0.5e6)

    def test_category_filter_and_kernel_forcing(self, tmp_path):
        tr = Tracer(str(tmp_path / "t.jsonl"), categories=["session"])
        assert tr.wants("session") and not tr.wants("port")
        tr.instant("queue_transition", 0.0, "queues")
        assert tr.events == 0
        assert not tr.forces_python_kernels
        tr.close()
        port = Tracer(str(tmp_path / "p.jsonl"), categories=["port"])
        assert port.forces_python_kernels
        port.close()
        full = Tracer(str(tmp_path / "f.jsonl"))
        assert full.forces_python_kernels  # no filter records "port" too
        full.close()

    def test_bad_format_and_category_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            Tracer(str(tmp_path / "x"), format="speedscope")
        with pytest.raises(ValueError, match="unknown trace categories"):
            Tracer(str(tmp_path / "x"), categories=["portz"])

    def test_close_is_idempotent_and_deepcopy_drops(self, tmp_path):
        tr = Tracer(str(tmp_path / "t.jsonl"))
        tr.instant("schedule", 0.0, "schedule")
        assert copy.deepcopy(tr) is None  # snapshots never carry live handles
        tr.close()
        tr.close()
        tr.instant("schedule", 1.0, "schedule")  # silently dropped
        assert tr.events == 1


class TestPhaseTimers:
    def test_accounting_merge_and_report(self):
        t = PhaseTimers()
        t.start()
        t.add("schedule", 1_000_000)
        t.add("schedule", 3_000_000)
        t.add("advance", 500_000)
        t.stop()
        assert t.elapsed_s > 0.0
        other = PhaseTimers()
        other.add("schedule", 1_000_000)
        t.merge(other)
        snap = t.to_dict()["phases"]["schedule"]
        assert snap["calls"] == 3
        report = t.report()
        assert "schedule" in report and "run envelope" in report
        # Sub-phases print indented under their parent and stay out of
        # the share denominator (schedule is 5 of the 5.5 top-level ms).
        t.add("schedule.admit", 2_000_000)
        report = t.report().splitlines()
        assert report[1].startswith("schedule") and "90.9%" in report[1]
        assert report[2].startswith("  schedule.admit")
        assert copy.deepcopy(t) is None


# ---------------------------------------------------------------------------
# Non-perturbation: instrumented runs are byte-identical to bare runs
# ---------------------------------------------------------------------------


def _instrumented_fingerprint(policy, fabric, coflows, cfg, tmp_path,
                              categories=None, fmt="jsonl"):
    tracer = Tracer(str(tmp_path / f"{policy}.{fmt}"), format=fmt,
                    categories=categories)
    metrics = MetricsRegistry()
    timers = PhaseTimers()
    result = run_policy(
        make_scheduler(policy, cfg), clone_coflows(coflows), fabric, cfg,
        tracer=tracer, metrics=metrics, timers=timers,
    )
    tracer.close()
    return fingerprint(result), tracer, metrics, timers


class TestNonPerturbation:
    @pytest.mark.parametrize("policy", available_policies())
    def test_full_instrumentation_does_not_move_a_bit(self, policy, tmp_path):
        for seed in (3, 11):
            fabric, coflows = random_workload(seed)
            cfg = _cfg()
            bare = fingerprint(run_policy(
                make_scheduler(policy, cfg), clone_coflows(coflows), fabric,
                cfg,
            ))
            traced, tracer, metrics, timers = _instrumented_fingerprint(
                policy, fabric, coflows, cfg, tmp_path
            )
            assert traced == bare, f"instrumentation perturbed {policy}"
            assert tracer.events > 0
            assert metrics.counter("flows.completed") > 0
            assert timers.to_dict()["phases"]
            phases = timers.phases
            rounds, schedule_ns = phases["schedule"][:2]
            # The session times every round's next_wakeup call.
            assert phases["wakeup"][0] == rounds, sorted(phases)
            subs = [phases.get(f"schedule.{part}")
                    for part in ("assign", "order", "admit")]
            if isinstance(make_scheduler(policy, cfg),
                          (SaathScheduler, AaloScheduler)):
                # Saath's and Aalo's sub-phases nest inside the session's
                # schedule phase: one sample each per round, never more
                # time.
                assert all(cell is not None and cell[0] == rounds
                           for cell in subs), sorted(phases)
                assert sum(cell[1] for cell in subs) <= schedule_ns
            else:
                assert subs == [None, None, None]

    def test_port_category_forces_python_twin_bit_identically(self, tmp_path):
        # The hazardous path: tracing "port" utilisation needs the Python
        # kernels even when fastcore is built. aalo + uc-tcp exercise the
        # aalo_ports / positive_rows compiled twins.
        for policy in ("aalo", "uc-tcp", "saath"):
            fabric, coflows = random_workload(7)
            cfg = _cfg()
            bare = fingerprint(run_policy(
                make_scheduler(policy, cfg), clone_coflows(coflows), fabric,
                cfg,
            ))
            traced, tracer, _, _ = _instrumented_fingerprint(
                policy, fabric, coflows, cfg, tmp_path, categories=["port"]
            )
            assert traced == bare, f"port tracing perturbed {policy}"
            assert tracer.forces_python_kernels

    @pytest.mark.parametrize("policy", available_policies())
    def test_leaf_spine_hooks_fire_and_do_not_move_a_bit(self, policy,
                                                          tmp_path):
        """The topology hooks on a cross-rack leaf-spine run: the path
        map's ``path_assign`` events, the utilisation sampler's
        ``link_saturation`` counter, and the link ledger's ``ledger.*``
        metrics all fire, and the traced, metered run is byte-identical to
        the bare run."""
        spec = fb_like_spec(num_machines=12, num_coflows=20)
        fabric = spec.make_fabric()
        coflows = WorkloadGenerator(spec, seed=5).generate_coflows(fabric)
        cfg = _cfg()

        def run(**hooks):
            topology = LeafSpineTopology(fabric, racks=4, spines=2,
                                         oversub=4.0,
                                         path_select="least-loaded")
            return fingerprint(run_policy(
                make_scheduler(policy, cfg), clone_coflows(coflows), fabric,
                cfg, topology=topology, **hooks))

        bare = run()
        path = tmp_path / f"{policy}.jsonl"
        tracer = Tracer(str(path))
        metrics = MetricsRegistry()
        assert run(tracer=tracer, metrics=metrics) == bare
        tracer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        names = [e.get("name") for e in events]
        assigned = [e for e in events if e.get("name") == "path_assign"]
        assert any(e["args"]["links"] for e in assigned), policy
        assert all(e["args"]["selector"] == "least-loaded"
                   for e in assigned)
        saturation = [e for e in events if e.get("name") == "link_saturation"]
        assert saturation and any(
            e["args"]["links_active"] for e in saturation), policy
        assert names.count("port_utilisation") >= len(saturation)
        if policy not in ("aalo", "uc-tcp"):
            # Every other policy's rates are committed through
            # LinkLedger.commit (Aalo's port service and UC-TCP's fill
            # charge the ledger in place).
            assert metrics.counter("ledger.commit") > 0, policy

    def test_chrome_format_is_equally_inert(self, tmp_path):
        fabric, coflows = random_workload(4)
        cfg = _cfg()
        bare = fingerprint(run_policy(
            make_scheduler("saath", cfg), clone_coflows(coflows), fabric, cfg,
        ))
        traced, tracer, _, _ = _instrumented_fingerprint(
            "saath", fabric, coflows, cfg, tmp_path, fmt="chrome"
        )
        assert traced == bare
        check_trace = _load_tool("check_trace")
        assert check_trace.check_chrome(Path(tracer.path)) == tracer.events

    def test_streaming_with_instrumentation(self, tmp_path):
        fabric, coflows = random_workload(9)
        cfg = _cfg()
        bare = fingerprint(run_policy(
            make_scheduler("saath", cfg), clone_coflows(coflows), fabric, cfg,
        ))
        ordered = sorted(coflows, key=lambda c: c.arrival_time)
        scenario = Scenario.from_stream(
            lambda: iter(clone_coflows(ordered)), total_coflows=len(coflows)
        )
        with Tracer(str(tmp_path / "s.jsonl")) as tracer:
            result = run_scenario(
                make_scheduler("saath", cfg), scenario, fabric, cfg,
                tracer=tracer, metrics=MetricsRegistry(),
            )
        assert fingerprint(result) == bare

    def test_snapshot_restore_drops_tracer_keeps_metrics(self, tmp_path):
        fabric, coflows = random_workload(5)
        cfg = _cfg()
        bare_result = run_policy(
            make_scheduler("saath", cfg), clone_coflows(coflows), fabric, cfg,
        )
        bare = fingerprint(bare_result)

        session = SimulationSession(
            fabric, make_scheduler("saath", cfg), cfg,
            scenario=Scenario.from_coflows(clone_coflows(coflows)),
        )
        tracer = Tracer(str(tmp_path / "snap.jsonl"))
        metrics = MetricsRegistry()
        session.attach_instrumentation(
            tracer=tracer, metrics=metrics, timers=PhaseTimers()
        )
        session.run_until(bare_result.makespan / 2)
        snap = session.snapshot()
        donor = fingerprint(session.run())
        tracer.close()
        assert donor == bare

        restored = SimulationSession.restore(snap)
        # Live handles dropped; plain-data registry revived independently.
        assert restored.tracer is None
        assert restored.timers is None
        assert restored.metrics is not None
        assert restored.metrics is not metrics
        assert fingerprint(restored.run()) == bare
        assert restored.metrics.counter("session.restores") == 1.0
        assert metrics.counter("session.restores") == 0.0
        assert metrics.counter("session.snapshots") == 1.0


# ---------------------------------------------------------------------------
# observer= regression (satellite: keep the telemetry hook wired)
# ---------------------------------------------------------------------------


class TestObserverRegression:
    def test_observer_fires_and_does_not_perturb(self):
        fabric, coflows = random_workload(6)
        cfg = _cfg()
        bare = fingerprint(run_policy(
            make_scheduler("saath", cfg), clone_coflows(coflows), fabric, cfg,
        ))
        recorder = TelemetryRecorder()
        observed = fingerprint(run_policy(
            make_scheduler("saath", cfg), clone_coflows(coflows), fabric, cfg,
            observer=recorder,
        ))
        assert observed == bare
        assert recorder.samples, "observer= was never invoked"
        # The recorder now rides the shared registry abstraction.
        reg = recorder.registry
        assert reg.counter("telemetry.samples") == len(recorder.samples)
        assert recorder.peak_active_coflows() >= 1
        assert 0.0 <= recorder.work_conservation_fraction() <= 1.0

    def test_observer_wired_through_scenario_and_session(self):
        fabric, coflows = random_workload(6)
        cfg = _cfg()
        recorder = TelemetryRecorder()
        scenario = Scenario.from_coflows(clone_coflows(coflows))
        run_scenario(make_scheduler("saath", cfg), scenario, fabric, cfg,
                     observer=recorder)
        assert recorder.samples


# ---------------------------------------------------------------------------
# fastcore warn-once latch (satellite: no duplicate RuntimeWarning)
# ---------------------------------------------------------------------------


@pytest.fixture
def _fresh_warn_latch(monkeypatch):
    monkeypatch.setattr(_fastcore, "_warned", False)
    monkeypatch.delenv(_fastcore._WARNED_ENV, raising=False)
    yield
    # monkeypatch restores _warned; the env latch set during the test is
    # popped so later tests (and real sessions) are unaffected.
    monkeypatch.delenv(_fastcore._WARNED_ENV, raising=False)


class TestWarnOnce:
    def test_warns_exactly_once_per_process(self, _fresh_warn_latch):
        with pytest.warns(RuntimeWarning, match="fastcore requested"):
            _fastcore.warn_fallback_once()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _fastcore.warn_fallback_once()  # second call: silence

    def test_env_latch_spans_child_processes(self, _fresh_warn_latch,
                                             monkeypatch):
        # A pool worker inherits the env but not the module global: the
        # parent's warning must still suppress the child's.
        monkeypatch.setenv(_fastcore._WARNED_ENV, "1")
        monkeypatch.setattr(_fastcore, "_warned", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _fastcore.warn_fallback_once()

    def test_snapshot_restore_does_not_rewarn(self, _fresh_warn_latch,
                                              monkeypatch):
        monkeypatch.setattr(_fastcore, "AVAILABLE", False)
        fabric, coflows = random_workload(2)
        cfg = _cfg(fastcore=True)
        with pytest.warns(RuntimeWarning, match="fastcore requested"):
            session = SimulationSession(
                fabric, make_scheduler("saath", cfg), cfg,
                scenario=Scenario.from_coflows(clone_coflows(coflows)),
            )
        session.run_until(0.05)
        snap = session.snapshot()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SimulationSession.restore(snap).run()  # restore + run: silence


# ---------------------------------------------------------------------------
# Sweep metrics plumbing
# ---------------------------------------------------------------------------

_SWEEP_WORKLOAD = WorkloadSpec(family="fb-like", machines=8, coflows=12,
                               seed=3)


class TestSweepMetrics:
    def test_execute_spec_gated_by_env(self, monkeypatch):
        spec = RunSpec(policy="saath", workload=_SWEEP_WORKLOAD)
        monkeypatch.delenv(METRICS_ENV, raising=False)
        assert execute_spec(spec).metrics is None
        monkeypatch.setenv(METRICS_ENV, "1")
        out = execute_spec(spec)
        assert out.metrics is not None
        assert out.metrics["counters"]["flows.completed"] > 0

    def test_metrics_survive_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(METRICS_ENV, "1")
        spec = RunSpec(policy="saath", workload=_SWEEP_WORKLOAD)
        cache = ResultCache(tmp_path)
        out = execute_spec(spec)
        cache.put(out)
        replay = cache.get(spec)
        assert replay is not None
        assert replay.metrics == out.metrics
        assert replay.ccts == out.ccts

    def test_uninstrumented_cache_layout_is_unchanged(self, tmp_path,
                                                      monkeypatch):
        # Without the env gate the v3 payload must not grow a metrics key
        # (byte-compatibility with pre-observability caches).
        monkeypatch.delenv(METRICS_ENV, raising=False)
        cache = ResultCache(tmp_path)
        out = execute_spec(RunSpec(policy="saath", workload=_SWEEP_WORKLOAD))
        cache.put(out)
        payload_file = next(tmp_path.rglob("*.json"))
        assert "metrics" not in json.loads(payload_file.read_text())

    def test_runner_counts_specs_and_cache_traffic(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv(METRICS_ENV, raising=False)
        specs = [RunSpec(policy=p, workload=_SWEEP_WORKLOAD)
                 for p in ("saath", "aalo")]
        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        runner.run(specs)
        assert runner.metrics.counter("sweep.specs") == 2
        assert runner.metrics.counter("sweep.cache_misses") == 2
        assert runner.metrics.counter("sweep.runs") == 2
        replay = SweepRunner(jobs=1, cache_dir=tmp_path)
        replay.run(specs)
        assert replay.metrics.counter("sweep.cache_hits") == 2
        assert replay.metrics.counter("sweep.runs") == 0


# ---------------------------------------------------------------------------
# Pre-observability checkpoint compatibility
# ---------------------------------------------------------------------------


def test_pre_observability_checkpoint_restores_clean():
    fabric, coflows = random_workload(8)
    cfg = _cfg()
    bare = fingerprint(run_policy(
        make_scheduler("saath", cfg), clone_coflows(coflows), fabric, cfg,
    ))
    session = SimulationSession(
        fabric, make_scheduler("saath", cfg), cfg,
        scenario=Scenario.from_coflows(clone_coflows(coflows)),
    )
    session.run_until(0.1)
    snap = session.snapshot()
    # Simulate a checkpoint written before the observability layer existed:
    # the payload carries none of the instrumentation attributes.
    for attr in ("_tracer", "_metrics", "_timers"):
        snap.payload.pop(attr, None)
    restored = SimulationSession.restore(snap)
    assert restored.tracer is None
    assert restored.metrics is None
    assert restored.timers is None
    assert fingerprint(restored.run()) == bare

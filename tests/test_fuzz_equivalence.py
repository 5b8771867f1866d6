"""Randomized engine-path equivalence fuzz.

The fixed-workload equivalence suite (tests/test_incremental.py,
tests/test_epochs.py) pins the engine against its full-recompute oracle on
curated inputs; this module hammers it with ~20 seeded random small
workloads mixing staggered arrivals, DAG dependencies, zero-byte flows and
delayed data availability. For every registered scheduler the engine
paths —

* ``production`` (the incremental allocation-epoch engine),
* ``reference`` (:mod:`repro.testing.reference`: every round a full
  round — fresh ledger, rebuilt scheduler caches, whole allocation
  applied, completions found by scan),
* ``stream`` (the same workload pulled lazily through a generator-backed
  :class:`~repro.simulator.scenario.Scenario`),
* ``resumed`` (every 5th seed: pause mid-run, ``snapshot()``,
  ``restore()`` and run the revived session to completion),
* ``leaf-spine`` (every 5th seed: the same workload on a *single-rack*
  :class:`~repro.simulator.topology.LeafSpineTopology` — core links exist,
  so every scheduler allocates through a
  :class:`~repro.simulator.topology.LinkLedger` on the Python references,
  but no path crosses a core link, so the results must not move a bit),
* ``no-fastcore`` (the compiled :mod:`repro._fastcore` kernels forced
  off — when the extension is built the other paths run the C twins, so
  this leg pins compiled-vs-Python **bitwise**; when it is not built,
  every path is the Python rows path and the leg is a no-op)

must produce byte-identical CCTs, completion orders, reschedule counts and
makespans. Workloads are deterministic functions of their seed, so any
failure reproduces exactly.

A second fuzz pins the row allocators bit-for-bit (rates *and* resulting
ledger state) to the test-owned object-form oracles in
``allocator_oracles.py``. The ``mmf`` / ``madd`` / ``equal`` / ``greedy``
legs run the Python references on a big switch; the ``*-paths`` legs run
them on a cross-rack leaf-spine
:class:`~repro.simulator.topology.LinkLedger` against the former
``*_paths`` twins, each side with its own ``least-loaded`` path map, so
the order in which paths are first looked up must match too. The
``*-fastcore`` variants run the same trials with ``table.fastcore`` set,
routing the row forms through the compiled kernels, whose oracle is the
Python reference: each trial also runs the reference and pins the kernel
to it — they skip cleanly when the extension is not built. The ``saath-round`` legs fuzz Saath's
whole admission round (:func:`~repro.simulator.ratealloc.saath_round_rows`,
Python reference and compiled ``saath_round``) against the oracle round,
on a big switch and on a leaf-spine. The ``aalo-round`` legs do the same
for Aalo's round (``aalo_ports`` and the Python reference
``_allocate_port_rows``), and the ``queue-refresh-fastcore`` /
``queue-wakeup-fastcore`` legs pin the compiled queue-threshold layer
(``queue_targets`` / ``queue_wakeup``) to the per-coflow ``refresh`` /
``next_transition_time`` (without the extension the batched calls are
loops over those very methods).
"""

from __future__ import annotations

import math
import random

import pytest

from repro import _fastcore
from repro.config import QueueConfig, SimulationConfig
from repro.errors import CapacityViolationError
from repro.observability import MetricsRegistry
from repro.schedulers.aalo import AaloScheduler
from repro.schedulers.base import Allocation
from repro.schedulers.queues import QueueTracker
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.engine import run_policy, run_scenario
from repro.simulator.fabric import Fabric, PortLedger
from repro.simulator.scenario import Scenario
from repro.simulator.session import SimulationSession
from repro.simulator.flows import CoFlow, Flow, clone_coflows
from repro.simulator.ratealloc import (
    equal_rate_for_coflow_rows,
    greedy_residual_rates_rows,
    madd_rates_rows,
    max_min_fair_rows,
    saath_round_rows,
)
from repro.simulator.state import ClusterState, FlowTable, SchedulingDelta
from repro.simulator.topology import LeafSpineTopology, LinkLedger, PathMap
from repro.testing.reference import run_reference

import allocator_oracles as oracle

NUM_WORKLOADS = 20


def random_workload(seed: int) -> tuple[Fabric, list[CoFlow]]:
    """A small random workload: 4–6 machines, 5–10 coflows.

    Mixes the edge cases the engine's bookkeeping must survive: zero-byte
    flows (born complete), DAG dependencies on earlier coflows (including
    multi-parent joins), delayed data availability, and same-instant
    arrivals.
    """
    rng = random.Random(0xF00D + seed)
    machines = rng.randrange(4, 7)
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    coflows: list[CoFlow] = []
    next_fid = 0
    for cid in range(1, rng.randrange(5, 11)):
        # Duplicate arrival instants across coflows are deliberate.
        arrival = rng.choice([0.0, 0.0, 0.05, 0.1, round(rng.random(), 2)])
        flows = []
        for _ in range(rng.randrange(1, 5)):
            src = rng.randrange(machines)
            dst = rng.randrange(machines)
            if dst == src:
                dst = (dst + 1) % machines
            volume = rng.choice([0.0, 1e3, 5e4, 2e5, 1e6 * rng.random()])
            flow = Flow(
                flow_id=next_fid, coflow_id=cid, src=src,
                dst=dst + machines, volume=volume,
            )
            if rng.random() < 0.2:
                flow.available_time = arrival + rng.random() * 0.2
            flows.append(flow)
            next_fid += 1
        depends_on: tuple[int, ...] = ()
        if coflows and rng.random() < 0.35:
            parents = rng.sample(
                [c.coflow_id for c in coflows],
                k=min(len(coflows), rng.randrange(1, 3)),
            )
            depends_on = tuple(parents)
        coflows.append(
            CoFlow(coflow_id=cid, arrival_time=arrival, flows=flows,
                   depends_on=depends_on)
        )
    return fabric, coflows


def fingerprint(result) -> tuple:
    """Everything the equivalence contract pins, with exact float bits."""
    return (
        tuple(sorted((cid, cct.hex()) for cid, cct in result.ccts().items())),
        tuple(c.coflow_id for c in result.coflows),
        result.reschedules,
        result.makespan.hex(),
    )


ENGINE_PATHS = (
    ("production", run_policy, {}),
    ("reference", run_reference, {}),
    # Compiled kernels forced off. The other paths run with the default
    # ``fastcore=True``, so whenever the extension is built this leg pins
    # C-vs-Python bitwise on every seed/policy.
    ("no-fastcore", run_policy, dict(fastcore=False)),
)


def assert_engine_paths_identical(policy, fabric, coflows, seed, *,
                                  deep_paths, pause_at=0.3, label=""):
    """Run ``coflows`` under every engine path and pin byte-identity.

    Always: production / reference / no-fastcore / stream.
    With ``deep_paths`` (deep copies are not free, so callers sample):
    also snapshot-resume and the single-rack leaf-spine topology (which
    exercises the :class:`LinkLedger` fallback of the fastcore dispatch).
    """
    prints = {}
    for path_name, run, cfg_kw in ENGINE_PATHS:
        cfg = SimulationConfig(sync_interval=8e-3, **cfg_kw)
        result = run(
            make_scheduler(policy, cfg), clone_coflows(coflows),
            fabric, cfg,
        )
        prints[path_name] = fingerprint(result)
    # The same workload fed lazily through a generator-backed scenario
    # stream (the session kernel's open-loop input).
    cfg = SimulationConfig(sync_interval=8e-3)
    ordered = sorted(coflows, key=lambda c: c.arrival_time)
    prints["stream"] = fingerprint(run_scenario(
        make_scheduler(policy, cfg),
        Scenario.from_stream(
            lambda: iter(clone_coflows(ordered)),
            total_coflows=len(ordered),
        ),
        fabric, cfg,
    ))
    # Pause mid-run, checkpoint, resume from the snapshot.
    if deep_paths:
        session = SimulationSession(
            fabric, make_scheduler(policy, cfg), cfg,
            scenario=Scenario.from_coflows(clone_coflows(coflows)),
        )
        session.run_until(pause_at)
        snap = session.snapshot()
        prints["resumed"] = fingerprint(
            SimulationSession.restore(snap).run()
        )
        # A single-rack leaf-spine topology. Core links exist (every
        # allocator runs its Python reference on a LinkLedger) but every
        # flow is rack-local, so nothing may change byte-for-byte.
        prints["leaf-spine"] = fingerprint(run_policy(
            make_scheduler(policy, cfg), clone_coflows(coflows),
            fabric, cfg,
            topology=LeafSpineTopology(
                fabric, racks=1, spines=2, oversub=1.0
            ),
        ))
    expected = prints["production"]
    assert all(p == expected for p in prints.values()), (
        f"engine paths diverged: policy={policy} seed={seed} {label}"
        f"({[k for k, p in prints.items() if p != expected]})"
    )


@pytest.mark.parametrize("policy", available_policies())
def test_random_workloads_triple_path_identical(policy):
    for seed in range(NUM_WORKLOADS):
        fabric, coflows = random_workload(seed)
        assert_engine_paths_identical(
            policy, fabric, coflows, seed, deep_paths=seed % 5 == 0,
        )


NUM_COLLECTIVE_WORKLOADS = 6


def random_collective_workload(seed: int):
    """A small seeded-random training workload: 4–8 machines, 1–2 jobs of a
    random ``(pattern, workers, iterations, volume)`` recipe, random
    placement — the structured counterpart of :func:`random_workload`."""
    from repro.workloads.collectives import collective_jobs

    rng = random.Random(0xC0FFEE + seed)
    machines = rng.randrange(4, 9)
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    pattern = rng.choice(["ring", "tree", "all-to-all", "ps"])
    servers = rng.randrange(1, 3) if pattern == "ps" else 0
    workers = rng.randrange(2, machines - servers + 1)
    jobs = collective_jobs(
        fabric,
        pattern=pattern,
        workers=workers,
        iterations=rng.randrange(1, 3),
        volume=rng.choice([1e3, 5e4, 1e6 * rng.random() + 1.0]),
        jobs=rng.randrange(1, 3),
        servers=servers,
        racks=rng.randrange(1, 3),
        placement=rng.choice(["packed", "spread"]),
        compute_gap=rng.choice([0.0, 0.0, 0.05]),
        arrival_gap=rng.choice([0.0, 0.3]),
    )
    return fabric, [c for job in jobs for c in job]


@pytest.mark.parametrize("policy", available_policies())
def test_random_collective_workloads_six_paths_identical(policy):
    """Seeded random training jobs (collective DAG chains) must be
    byte-identical across every engine path, like every other source."""
    for seed in range(NUM_COLLECTIVE_WORKLOADS):
        fabric, coflows = random_collective_workload(seed)
        assert_engine_paths_identical(
            policy, fabric, coflows, seed, deep_paths=seed % 3 == 0,
            pause_at=0.05, label="collective ",
        )


def _random_attached_flows(rng: random.Random, machines: int):
    """One coflow's worth of random flows, adopted into a fresh table."""
    flows = []
    for i in range(rng.randrange(1, 12)):
        src = rng.randrange(machines)
        dst = rng.randrange(machines)
        if dst == src:
            dst = (dst + 1) % machines
        f = Flow(flow_id=i, coflow_id=1, src=src, dst=dst + machines,
                 volume=rng.choice([0.0, 1e3, 7.5e5, 1e6 * rng.random()]))
        f.bytes_sent = f.volume * rng.random()
        if rng.random() < 0.2:
            f.finish_time = 1.0
        flows.append(f)
    table = FlowTable()
    rows = [table.adopt(f, pos) for pos, f in enumerate(flows)]
    return flows, table, rows


def _object_saath_round(groups, ledger, min_rate, work_conservation,
                        paths=None):
    """The oracle admission round (``allocator_oracles.saath_round``).
    Returns the allocation, the (equal-rate, greedy) call counts and the
    capacity error raised, if any."""
    allocation = Allocation()
    calls = [0, 0]
    try:
        calls = oracle.saath_round(
            [(cid, flows, counts) for cid, flows, _rows, counts in groups],
            ledger, min_rate, work_conservation, allocation, paths=paths)
        error = None
    except CapacityViolationError as exc:
        error = exc
    return allocation, calls, error


def _twin_ledgers(fabric, topology):
    """Two fresh ledgers: port ledgers, or link ledgers over ``topology``
    with a path map each (so each side assigns its own paths)."""
    if topology is None:
        return PortLedger(fabric), PortLedger(fabric)
    return (LinkLedger(topology, PathMap(topology)),
            LinkLedger(topology, PathMap(topology)))


def _assigned(ledger):
    """The ledger's path assignments, in assignment order."""
    paths = getattr(ledger, "_paths", None)
    return None if paths is None else list(paths.assigned_pairs().items())


def _saath_round_instance(rng, machines, min_rate):
    """Random coflow groups on a fresh table: empty groups, finished rows,
    availability-gated groups (a row subset with ``counts=None``) and
    exact per-port counts otherwise."""
    table = FlowTable()
    groups = []
    fid = 0
    for cid in range(1, rng.randrange(2, 8)):
        flows = []
        for _ in range(rng.randrange(0, 6)):
            src = rng.randrange(machines)
            dst = rng.randrange(machines)
            if dst == src:
                dst = (dst + 1) % machines
            f = Flow(flow_id=fid, coflow_id=cid, src=src,
                     dst=dst + machines, volume=1e5)
            if rng.random() < 0.15:
                f.finish_time = 1.0
            flows.append(f)
            fid += 1
        rows = [table.adopt(f, pos) for pos, f in enumerate(flows)]
        if rng.random() < 0.3:
            keep = [k for k in range(len(flows)) if rng.random() < 0.7]
            flows = [flows[k] for k in keep]
            rows = [rows[k] for k in keep]
            counts = None
        else:
            counts = {}
            for f in flows:
                if f.finish_time is None:
                    counts[f.src] = counts.get(f.src, 0) + 1
                    counts[f.dst] = counts.get(f.dst, 0) + 1
        groups.append((cid, flows, rows, counts))
    return table, groups


def _assert_saath_round_matches(groups, table, fabric, precommits, min_rate,
                                work_conservation, fastcore, label,
                                topology=None):
    """Run the oracle round and ``saath_round_rows`` — the Python
    reference, and with ``fastcore`` also the compiled kernel — on twin
    ledgers and pin rates (with insertion order), admitted /
    work-conserved sets (with iteration order), ledger state, path
    assignments and kernel counters."""

    def outcome(allocation, ledger, error):
        return (
            (type(error), str(error)), list(allocation.rates.items()),
            list(allocation.scheduled_coflows),
            list(allocation.work_conserved_coflows),
            [u.hex() for u in ledger.used_list], ledger.touched_set,
            _assigned(ledger),
        )

    ids = [cid for cid, *_ in groups]
    runs = []
    for compiled in dict.fromkeys((False, fastcore)):
        obj_ledger, row_ledger = _twin_ledgers(fabric, topology)
        for src, dst, rate in precommits:
            obj_ledger.commit(src, dst, rate)
            row_ledger.commit(src, dst, rate)
        metrics = MetricsRegistry()
        row_ledger._metrics = metrics
        expected, calls, obj_error = _object_saath_round(
            groups, obj_ledger, min_rate, work_conservation,
            paths=None if topology is None else obj_ledger._paths)
        got = Allocation()
        table.fastcore = compiled
        try:
            saath_round_rows(
                ids, [g[2] for g in groups], [g[3] for g in groups], table,
                row_ledger, got, min_rate=min_rate,
                work_conservation=work_conservation,
            )
            row_error = None
        except CapacityViolationError as exc:
            row_error = exc
        runs.append(outcome(got, row_ledger, row_error))
        assert runs[-1] == outcome(expected, obj_ledger, obj_error), label
        if obj_error is None:
            kind = "fastcore" if compiled and topology is None else "python"
            assert (metrics.counter(f"kernel.equal_rate_rows.{kind}")
                    == calls[0])
            assert metrics.counter(f"kernel.greedy_rows.{kind}") == calls[1]
    # The kernel's oracle is the Python reference.
    assert runs[-1] == runs[0], label
    return expected, obj_error


def _check_saath_round(rng, fastcore):
    machines = 6
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    leaf_spine = LeafSpineTopology(fabric, racks=3, spines=2, oversub=2.0,
                                   path_select="least-loaded")
    for topology in (None, leaf_spine):
        outcomes = {"scheduled": 0, "wc": 0, "exact": 0}
        for trial in range(150):
            min_rate = rng.choice([1.0, 1024.0, 5e4])
            table, groups = _saath_round_instance(rng, machines, min_rate)
            # Pre-load distinct senders; some ports are left with a
            # residual of exactly min_rate (admissible: the test is >=).
            precommits = []
            for src in rng.sample(range(machines), rng.randrange(0, 4)):
                rate = rng.choice([1e5, 6e5, 1e6 - min_rate])
                outcomes["exact"] += rate == 1e6 - min_rate
                precommits.append((src, src + machines, rate))
            expected, _ = _assert_saath_round_matches(
                groups, table, fabric, precommits, min_rate,
                rng.random() < 0.8, fastcore,
                f"saath-round trial {trial} ({topology})", topology)
            outcomes["scheduled"] += bool(expected.scheduled_coflows)
            outcomes["wc"] += bool(expected.work_conserved_coflows)
        assert all(outcomes.values()), outcomes

    # An admitted coflow whose equal rate rounds to zero falls through to
    # work conservation: port 0 keeps one denormal step (== min_rate, so
    # admissible) shared by two flows, and half a step rounds to 0.0.
    step = 5e-324
    tiny = Fabric(num_machines=2, port_rate=4 * step)
    table = FlowTable()
    flows = [Flow(flow_id=0, coflow_id=1, src=0, dst=2, volume=1.0),
             Flow(flow_id=1, coflow_id=1, src=0, dst=3, volume=1.0)]
    rows = [table.adopt(f, pos) for pos, f in enumerate(flows)]
    for counts in ({0: 2, 2: 1, 3: 1}, None):
        for wc in (True, False):
            got, _ = _assert_saath_round_matches(
                [(1, flows, rows, counts)], table, tiny,
                [(0, 2, 3 * step)], step, wc, fastcore, "zero equal rate")
            assert not got.scheduled_coflows
            assert got.work_conserved_coflows == ({1} if wc else set())

    # Counts that undercount the rows break the capacity invariant: the
    # second commit on port 0 raises, after the first coflow's rates and
    # one row's commit have landed, identically on every path.
    table = FlowTable()
    first = [Flow(flow_id=0, coflow_id=1, src=1, dst=9, volume=1.0)]
    bad = [Flow(flow_id=1 + k, coflow_id=2, src=0, dst=6 + k, volume=1.0)
           for k in range(3)]
    first_rows = [table.adopt(f, 0) for f in first]
    bad_rows = [table.adopt(f, pos) for pos, f in enumerate(bad)]
    got, error = _assert_saath_round_matches(
        [(1, first, first_rows, {1: 1, 9: 1}),
         (2, bad, bad_rows, {0: 1, 6: 1, 7: 1, 8: 1})],
        table, fabric, [], 1.0, True, fastcore, "capacity violation")
    assert isinstance(error, CapacityViolationError)
    assert got.scheduled_coflows == {1}


#: Queue geometry of the Aalo-round and queue-kernel legs: thresholds
#: 1e4 · 4**q, small enough for random progress to span every queue.
_QUEUE_START, _QUEUE_GROWTH = 1e4, 4.0


def _queue_config(num_queues: int) -> SimulationConfig:
    return SimulationConfig(
        port_rate=1e6,
        queues=QueueConfig(num_queues=num_queues,
                           start_threshold=_QUEUE_START,
                           growth_factor=_QUEUE_GROWTH),
    )


def _random_round_specs(rng, machines, num_queues):
    """Random coflow descriptions: ``(coflow id, [flow fields])`` with
    shuffled flow ids, progress spread over (and exactly on) the queue
    thresholds, ``-0.0`` progress, flows finished before or after
    activation and data not yet available at t = 1."""
    thresholds = [_QUEUE_START * _QUEUE_GROWTH**q
                  for q in range(max(num_queues - 1, 1))]
    specs = []
    fid = 0
    for cid in range(1, rng.randrange(2, 9)):
        width = rng.randrange(1, 6)
        ids = list(range(fid, fid + width))
        fid += width
        if rng.random() < 0.25:
            rng.shuffle(ids)
        on = rng.choice(thresholds)
        flows = []
        for flow_id in ids:
            src = rng.randrange(machines)
            dst = rng.randrange(machines)
            if dst == src:
                dst = (dst + 1) % machines
            volume = rng.choice([1e3, 5e4, 2e5, on / width, 1e6 * rng.random()])
            sent = rng.choice([0.0, -0.0, volume, volume * rng.random(),
                               on / width, on / width])
            sent = min(sent, volume) if sent > 0 else sent
            flows.append(dict(
                flow_id=flow_id, src=src, dst=dst + machines, volume=volume,
                bytes_sent=sent,
                finish=rng.choice([None] * 6 + ["before", "after"]),
                available_time=rng.choice([0.0] * 5 + [2.0]),
            ))
        specs.append((cid, flows))
    return specs


def _build_round(specs, fabric, notify_finished=False, topology=None):
    """Materialise ``specs`` as a cluster state (which registers every
    coflow's table rows and pending caches). Flows finished after
    activation stay in the pending-row caches (exercising the kernels'
    finished-row filters) unless ``notify_finished``."""
    coflows = []
    for cid, flows in specs:
        coflows.append(CoFlow(coflow_id=cid, arrival_time=0.0, flows=[
            Flow(flow_id=f["flow_id"], coflow_id=cid, src=f["src"],
                 dst=f["dst"], volume=f["volume"],
                 bytes_sent=f["bytes_sent"],
                 finish_time=1.0 if f["finish"] == "before" else None,
                 available_time=f["available_time"])
            for f in flows
        ]))
    state = ClusterState(fabric=fabric, active_coflows=list(coflows),
                         topology=topology)
    for c, (_, flows) in zip(coflows, specs):
        for flow, f in zip(c.flows, flows):
            if f["finish"] == "after":
                flow.finish_time = 1.0
                if notify_finished:
                    state.note_flow_finished(flow)
    return state


def _forbid(*_args, **_kwargs):
    raise AssertionError("the batched queue kernel declined")


def _check_aalo_round(rng, fastcore):
    """Aalo's round (``aalo_ports`` or the Python reference
    ``_allocate_port_rows``) against the oracle port service
    (``allocator_oracles.aalo_round``) on twin states, on a big switch and
    on a cross-rack leaf-spine with dead receivers and dead core links:
    same queue refresh, same grants in the same order, same ledger, same
    path assignments."""
    machines = 6
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    seen = {"unsorted": 0, "gated": 0, "dead": 0, "multi-queue": 0,
            "core": 0, "dead-core": 0}
    for trial in range(150):
        num_queues = rng.choice([1, 4])
        specs = _random_round_specs(rng, machines, num_queues)
        arrival = [cid for cid, _ in specs]
        rng.shuffle(arrival)
        dead = ({rng.randrange(machines) + machines}
                if rng.random() < 0.3 else set())
        leaf = rng.random() < 0.5
        if leaf and rng.random() < 0.4:
            probe = LeafSpineTopology(fabric, racks=3, spines=2)
            dead.add(probe.uplink(rng.randrange(3), rng.randrange(2)))
        outcomes = []
        # The oracle, the Python reference and (with ``fastcore``) the
        # kernel, each on its own state.
        for use_oracle, compiled in dict.fromkeys(
                ((True, False), (False, False), (False, fastcore))):
            topology = (LeafSpineTopology(fabric, racks=3, spines=2,
                                          oversub=2.0,
                                          path_select="least-loaded")
                        if leaf else None)
            state = _build_round(specs, fabric, notify_finished=True,
                                 topology=topology)
            state.table.fastcore = compiled
            state.capacity_override = {p: 0.0 for p in dead}
            aalo = AaloScheduler(_queue_config(num_queues))
            metrics = MetricsRegistry()
            aalo.bind_instrumentation(None, metrics)
            for cid in arrival:
                aalo.on_coflow_arrival(state.coflow(cid), 0.0)
            if use_oracle:
                aalo._assign_queues(state, 1.0)
                allocation = Allocation()
                oracle.aalo_round(aalo, state, 1.0, allocation)
            else:
                allocation = aalo.schedule(state, 1.0)
                kind = "fastcore" if compiled and not leaf else "python"
                assert metrics.counter(f"kernel.aalo_ports.{kind}") == 1
            ledger = state._cached_ledger
            outcomes.append((
                list(allocation.rates.items()),
                list(allocation.scheduled_coflows),
                [u.hex() for u in ledger.used_list],
                ledger.touched_set,
                aalo.tracker.queue_map,
                _assigned(ledger),
            ))
        obj, row = outcomes[0], outcomes[-1]
        assert all(o == obj for o in outcomes), (
            f"aalo-round trial {trial} (leaf-spine={leaf})")
        queues_at = {}
        for cid, flows in specs:
            for f in flows:
                queues_at.setdefault(f["src"], set()).add(row[4][cid])
        seen["unsorted"] += any(
            [f["flow_id"] for f in flows] != sorted(f["flow_id"] for f in flows)
            for _, flows in specs)
        seen["gated"] += any(f["available_time"] > 1.0
                             for _, flows in specs for f in flows)
        seen["dead"] += any(f["dst"] in dead
                            for _, flows in specs for f in flows)
        seen["multi-queue"] += any(len(q) > 1 for q in queues_at.values())
        seen["core"] += leaf and any(links for _, links in row[5])
        seen["dead-core"] += leaf and any(
            dead.intersection(links) for _, links in row[5])
    assert all(seen.values()), seen


def _queue_trackers(rng, specs, fabric, metric, num_queues, fastcore):
    """An attached state plus a batched and a per-coflow tracker with the
    same (partly forced, last queue included) queue placements."""
    state = _build_round(specs, fabric)
    state.table.fastcore = fastcore
    cfg = _queue_config(num_queues)
    batched = QueueTracker(cfg, metric=metric)
    batched.metrics = MetricsRegistry()
    reference = QueueTracker(cfg, metric=metric)
    for c in state.active_coflows:
        queue = rng.choice([0, 0, rng.randrange(num_queues), num_queues - 1])
        for tracker in (batched, reference):
            tracker.admit(c, 0.0)
            tracker.force_queue(c, queue, 0.0)
    return state, batched, reference


def _check_queue_refresh(rng, fastcore):
    """``QueueTracker.moves`` (``queue_targets``) against per-coflow
    ``target_queue`` / ``refresh`` over the dirty walk, for both metrics:
    the same moves, and the same queues, deadlines and total-bytes
    metrics after placing them."""
    assert fastcore  # the Python form is the per-coflow loop itself
    machines = 6
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    seen = {"moved": 0, "kept": 0, "incremental": 0, "declined": 0,
            "last": 0}
    for trial in range(200):
        metric = rng.choice(["total", "perflow"])
        num_queues = rng.choice([1, 2, 4])
        specs = _random_round_specs(rng, machines, num_queues)
        state, batched, reference = _queue_trackers(
            rng, specs, fabric, metric, num_queues, fastcore)
        ids = [c.coflow_id for c in state.active_coflows]
        declined = rng.random() < 0.1
        if declined:
            # A coflow the engine never notified (no table rows).
            stray = CoFlow(coflow_id=99, arrival_time=0.0, flows=[
                Flow(flow_id=99, coflow_id=99, src=0, dst=machines + 1,
                     volume=1e5, bytes_sent=5e4)])
            state.active_coflows.append(stray)
            for tracker in (batched, reference):
                tracker.admit(stray, 0.0)
            ids.append(99)
        else:
            batched.target_queue = _forbid
        if rng.random() < 0.5:
            state.delta = SchedulingDelta(
                full=False,
                arrived={i for i in ids if rng.random() < 0.2},
                progressed={i for i in ids if rng.random() < 0.5},
                flow_completed={i for i in ids if rng.random() < 0.2},
            )
        keep = (None if rng.random() < 0.5
                else {i for i in ids if rng.random() < 0.3})
        moves = batched.moves(state, keep)
        assert batched.metrics.counter("kernel.queue_targets.fastcore") == 1

        delta = state.delta
        dirty = delta.arrived | delta.progressed | delta.flow_completed
        expected = []
        for c in state.active_coflows:
            if delta.full or c.coflow_id in dirty:
                target = reference.target_queue(c)
                if (target > reference.queue_of(c)
                        or c.coflow_id in (keep or ())):
                    expected.append((c, target))
        label = f"queue-refresh trial {trial} ({metric})"
        assert ([(c.coflow_id, t) for c, t in moves]
                == [(c.coflow_id, t) for c, t in expected]), label
        assert all(a is b for (a, _), (b, _) in zip(moves, expected)), label
        for c, target in moves:
            batched.demote(c, target, 2.0)
        for c in state.active_coflows:
            if delta.full or c.coflow_id in dirty:
                reference.refresh(c, 2.0)
        for attr in ("_queue", "_deadline", "_entered", "_population"):
            assert getattr(batched, attr) == getattr(reference, attr), label
        assert ({k: v.hex() for k, v in batched._sent.items()}
                == {k: float(v).hex()
                    for k, v in reference._sent.items()}), label
        seen["moved"] += any(t > 0 for _, t in moves)
        seen["kept"] += bool(keep) and any(
            t <= reference.queue_of(c) for c, t in expected)
        seen["incremental"] += not delta.full
        seen["declined"] += declined
        seen["last"] += any(t == num_queues - 1 > 0 for _, t in moves)
    assert all(seen.values()), seen


def _check_queue_wakeup(rng, fastcore):
    """``QueueTracker.earliest_transition`` (``queue_wakeup``) against the
    per-coflow ``next_transition_time`` fold, for both metrics and both
    wakeup floors: the same float, bit for bit."""
    assert fastcore  # the Python form is the per-coflow fold itself
    machines = 6
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    seen = {"finite": 0, "immediate": 0, "inf": 0, "empty": 0,
            "declined": 0}
    for trial in range(250):
        metric = rng.choice(["total", "perflow"])
        num_queues = rng.choice([1, 2, 4])
        specs = _random_round_specs(rng, machines, num_queues)
        state, batched, reference = _queue_trackers(
            rng, specs, fabric, metric, num_queues, fastcore)
        # The round's refresh fills the total-bytes metric cache.
        batched.moves(state)
        table = state.table
        rates = {}
        for c in state.active_coflows:
            for i in state.pending_rows(c):
                if rng.random() < 0.8:  # else absent
                    rates[table.flow_id[i]] = rng.choice(
                        [0.0, 1e3, 5e5, 1e6 * rng.random()])
        ids = [c.coflow_id for c in state.active_coflows]
        candidates = {i for i in ids if rng.random() < 0.6}
        declined = rng.random() < 0.1 and bool(candidates)
        if declined:
            victim = next(iter(candidates))
            if metric == "total" and rng.random() < 0.5:
                batched._sent.pop(victim)  # no cached metric
            elif rng.random() < 0.5:
                state.pending_row_map.pop(victim)  # no pending-row cache
            else:
                state.row_map.pop(victim)  # not attached to the table
        else:
            batched.next_transition_time = _forbid
        now = rng.choice([0.0, 0.5])
        floor = rng.choice([0.0, 1e-9])
        got = batched.earliest_transition(state, candidates, rates, now,
                                          floor)
        assert batched.metrics.counter("kernel.queue_wakeup.fastcore") == 1
        best = math.inf
        for cid in candidates:
            c = state.coflow(cid)
            dt = reference.next_transition_time(
                c, rates, pending_rows=state.pending_rows(c))
            if dt < math.inf:
                best = min(best, now + max(dt, floor))
        label = f"queue-wakeup trial {trial} ({metric})"
        assert got.hex() == best.hex(), label
        seen["finite"] += math.isfinite(best) and best > now
        seen["immediate"] += best == now
        seen["inf"] += bool(candidates) and best == math.inf
        seen["empty"] += not candidates
        seen["declined"] += declined
    assert all(seen.values()), seen


@pytest.mark.parametrize("allocator", [
    "mmf", "madd", "equal", "greedy",
    "mmf-paths", "madd-paths", "equal-paths", "greedy-paths",
    "mmf-fastcore", "madd-fastcore", "greedy-fastcore",
    "saath-round", "saath-round-fastcore",
    "aalo-round", "aalo-round-fastcore",
    "queue-refresh-fastcore", "queue-wakeup-fastcore",
])
def test_row_allocators_match_object_allocators(allocator):
    """The row allocators are bit-identical to the test-owned object-form
    oracles — same rates, same residual ledger — across random instances.
    The ``*-paths`` legs run on a cross-rack leaf-spine LinkLedger against
    the former ``*_paths`` twins, each side with its own ``least-loaded``
    path map, and also pin the path assignments. The ``*-fastcore``
    variants set ``table.fastcore`` so the row forms dispatch to the
    compiled kernels, fuzzing C against the Python reference and the
    oracles; they skip when the extension is not built."""
    fastcore = allocator.endswith("-fastcore")
    if fastcore:
        if not _fastcore.AVAILABLE:
            pytest.skip("repro._fastcore extension not built")
        allocator = allocator[: -len("-fastcore")]
    rng = random.Random(2024)
    check = {
        "saath-round": _check_saath_round,
        "aalo-round": _check_aalo_round,
        "queue-refresh": _check_queue_refresh,
        "queue-wakeup": _check_queue_wakeup,
    }.get(allocator)
    if check is not None:
        check(rng, fastcore)
        return
    machines = 8
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    topology = None
    if allocator.endswith("-paths"):
        allocator = allocator[: -len("-paths")]
        topology = LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0,
                                     path_select="least-loaded")
    coflow_stub = CoFlow(coflow_id=1, arrival_time=0.0, flows=[])
    allocate = {
        "mmf": max_min_fair_rows, "madd": madd_rates_rows,
        "equal": equal_rate_for_coflow_rows,
        "greedy": greedy_residual_rates_rows,
    }[allocator]
    crossed = 0
    for trial in range(120):
        flows, table, rows = _random_attached_flows(rng, machines)
        obj_ledger, row_ledger = _twin_ledgers(fabric, topology)
        ref_ledger = _twin_ledgers(fabric, topology)[0]
        paths = None if topology is None else obj_ledger._paths
        # Pre-commit some random load so residuals differ across links.
        for _ in range(rng.randrange(0, 4)):
            src = rng.randrange(machines)
            dst = rng.choice([src, rng.randrange(machines)]) + machines
            for ledger in (obj_ledger, row_ledger, ref_ledger):
                ledger.commit(src, dst, 1e5)
        cap = (rng.choice([None, None, 0.0, 1e3, 2e9])
               if allocator == "mmf" else None)
        kwargs = {"rate_cap": cap} if allocator == "mmf" else {}
        if fastcore:
            # The kernel's oracle is the Python reference.
            table.fastcore = False
            reference = allocate(rows, table, ref_ledger, **kwargs)
        table.fastcore = fastcore
        got = allocate(rows, table, row_ledger, **kwargs)
        if fastcore:
            assert got == reference, f"{allocator} kernel at trial {trial}"
            assert (row_ledger.snapshot_residuals()
                    == ref_ledger.snapshot_residuals()), (
                f"{allocator} kernel ledger at trial {trial}")

        if allocator == "mmf":
            if paths is None:
                expected = oracle.max_min_fair(flows, obj_ledger,
                                               rate_cap=cap)
            else:
                expected = oracle.max_min_fair_paths(flows, paths,
                                                     obj_ledger, rate_cap=cap)
        elif allocator == "madd":
            if paths is None:
                expected = oracle.madd_rates(coflow_stub, obj_ledger,
                                             flows=flows)
            else:
                expected = oracle.madd_rates_paths(coflow_stub, obj_ledger,
                                                   paths, flows=flows)
        elif allocator == "equal":
            if paths is None:
                expected = oracle.equal_rate_for_coflow(
                    coflow_stub, obj_ledger, flows=flows)
            else:
                expected = oracle.equal_rate_for_coflow_paths(
                    coflow_stub, obj_ledger, paths, flows=flows)
        else:
            expected = oracle.greedy_residual_rates(flows, obj_ledger)

        assert got == expected, f"{allocator} diverged at trial {trial}"
        assert (row_ledger.snapshot_residuals()
                == obj_ledger.snapshot_residuals()), (
            f"{allocator} ledger state diverged at trial {trial}"
        )
        assert _assigned(row_ledger) == _assigned(obj_ledger), (
            f"{allocator} path assignment diverged at trial {trial}")
        crossed += any(links for _, links in _assigned(row_ledger) or ())
        for fid, rate in got.items():
            assert math.isfinite(rate)
    assert topology is None or crossed

"""Cross-rack leaf-spine results pinned bit-for-bit for every policy.

The fuzz suite's leaf-spine leg and
``test_topology.py::test_rack_local_leaf_spine_matches_big_switch`` only
run rack-local paths, where a flow never crosses a core link. This module
pins :func:`test_fuzz_equivalence.fingerprint` (CCT bits, completion
order, reschedule count, makespan bits) of runs whose flows *do* cross
core links, on three workload families:

* ``fb-<selector>`` — an FB-like trace spread over 4 racks at
  oversubscription 4, under each path selector (``ecmp``,
  ``least-loaded``, ``static``);
* ``collective-<pattern>`` — ring, tree, all-to-all and parameter-server
  training jobs placed ``spread`` over 2 racks at oversubscription 4;
* ``dynamics`` — the FB-like trace under ``least-loaded`` with a core
  uplink degraded, a core downlink taken down, and both recovered.

The expected values in ``data/topology_fingerprints.json`` were recorded
once, before the flow-table-only scheduling refactor, on the code whose
allocators still had separate object, ``*_rows`` and ``*_paths`` forms.
They are a contract: when a run stops matching, the change moved a
cross-rack result, and the fix belongs in the code, not in the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import SimulationConfig
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.dynamics import LinkDegradation, LinkRecovery
from repro.simulator.engine import run_policy
from repro.simulator.fabric import Fabric
from repro.simulator.flows import clone_coflows
from repro.simulator.topology import LeafSpineTopology
from repro.workloads.collectives import collective_jobs
from repro.workloads.synthetic import WorkloadGenerator, fb_like_spec

from test_fuzz_equivalence import fingerprint

DATA = Path(__file__).parent / "data" / "topology_fingerprints.json"

SELECTORS = ("ecmp", "least-loaded", "static")
PATTERNS = ("ring", "tree", "all-to-all", "ps")


def _fb_workload():
    """30 FB-like coflows on 12 machines (most pairs cross racks)."""
    spec = fb_like_spec(num_machines=12, num_coflows=30)
    fabric = spec.make_fabric()
    return fabric, WorkloadGenerator(spec, seed=5).generate_coflows(fabric)


def _collective_workload(pattern):
    """Three staggered training jobs spread over 2 racks of 8 machines."""
    fabric = Fabric(num_machines=8, port_rate=1.25e8)
    jobs = collective_jobs(
        fabric, pattern=pattern, workers=6 if pattern != "ps" else 5,
        iterations=3, volume=4e6, jobs=3,
        servers=1 if pattern == "ps" else 0, racks=2, placement="spread",
        compute_gap=0.01, arrival_gap=0.02,
    )
    return fabric, [c for job in jobs for c in job]


def cases():
    """``label -> (fabric, coflows, topology factory, dynamics)``."""
    out = {}
    fabric, coflows = _fb_workload()
    for selector in SELECTORS:
        out[f"fb-{selector}"] = (
            fabric, coflows,
            lambda fabric=fabric, selector=selector: LeafSpineTopology(
                fabric, racks=4, spines=2, oversub=4.0,
                path_select=selector),
            (),
        )
    for pattern in PATTERNS:
        cfabric, ccoflows = _collective_workload(pattern)
        out[f"collective-{pattern}"] = (
            cfabric, ccoflows,
            lambda fabric=cfabric: LeafSpineTopology(
                fabric, racks=2, spines=2, oversub=4.0),
            (),
        )
    probe = LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0)
    up, down = probe.uplink(0, 0), probe.downlink(2, 1)
    out["dynamics"] = (
        fabric, coflows,
        lambda: LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0,
                                  path_select="least-loaded"),
        (LinkDegradation(time=0.05, link=up, factor=0.25),
         LinkDegradation(time=0.1, link=down, factor=0.0),
         LinkRecovery(time=0.3, link=down),
         LinkRecovery(time=0.6, link=up)),
    )
    return out


def run_case(case, policy):
    """The JSON-shaped fingerprint of ``policy`` on one case."""
    fabric, coflows, topology, dynamics = case
    cfg = SimulationConfig(sync_interval=8e-3)
    result = run_policy(
        make_scheduler(policy, cfg), clone_coflows(coflows), fabric, cfg,
        topology=topology(), dynamics=list(dynamics),
    )
    return json.loads(json.dumps(fingerprint(result)))


_CASES = cases()
_EXPECTED = json.loads(DATA.read_text())["fingerprints"]


@pytest.mark.parametrize("label", sorted(_CASES))
@pytest.mark.parametrize("policy", available_policies())
def test_cross_rack_fingerprint_unchanged(label, policy):
    expected = _EXPECTED[label][policy]
    got = run_case(_CASES[label], policy)
    assert got == expected, f"{policy} on {label} moved"


def test_every_case_crosses_a_core_link():
    """The pinned runs are only worth pinning if their traffic crosses
    core links: every case must assign at least one non-empty path."""
    for label, (fabric, coflows, topology, _) in _CASES.items():
        topo = topology()
        pairs = {(f.src, f.dst) for c in coflows for f in c.flows}
        assert any(topo.path_candidates(s, d) for s, d in pairs), label

"""Property-based tests on the rate-allocation substrate.

Invariants under arbitrary flow layouts:

* no allocator ever oversubscribes a port;
* max-min fairness is Pareto-efficient on its bottlenecks;
* MADD finishes all flows of the coflow at one instant;
* Saath's equal-rate rule gives every flow the same rate.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.fabric import Fabric, PortLedger
from repro.simulator.flows import CoFlow, Flow
from repro.simulator.ratealloc import (
    equal_rate_for_coflow_rows,
    greedy_residual_rates_rows,
    madd_rates_rows,
    max_min_fair_rows,
)
from repro.simulator.state import FlowTable

MACHINES = 6
RATE = 100.0


@st.composite
def flow_sets(draw, max_flows=12, coflow_id=0):
    """Random flows over a 6-machine fabric, distinct flow ids."""
    n = draw(st.integers(min_value=1, max_value=max_flows))
    flows = []
    for i in range(n):
        src = draw(st.integers(min_value=0, max_value=MACHINES - 1))
        dst_machine = draw(st.integers(min_value=0, max_value=MACHINES - 1))
        volume = draw(st.floats(min_value=1.0, max_value=1e4,
                                allow_nan=False, allow_infinity=False))
        flows.append(
            Flow(flow_id=i, coflow_id=coflow_id, src=src,
                 dst=dst_machine + MACHINES, volume=volume)
        )
    return flows


def _fabric():
    return Fabric(num_machines=MACHINES, port_rate=RATE)


def _rows(flows):
    """``flows`` adopted into a fresh flow table: (rows, table)."""
    table = FlowTable()
    return [table.adopt(f, pos) for pos, f in enumerate(flows)], table


def max_min_fair(flows, ledger, **kw):
    return max_min_fair_rows(*_rows(flows), ledger, **kw)


def madd_rates(coflow, ledger):
    return madd_rates_rows(*_rows(coflow.flows), ledger)


def equal_rate_for_coflow(coflow, ledger):
    return equal_rate_for_coflow_rows(*_rows(coflow.flows), ledger)


def greedy_residual_rates(flows, ledger):
    return greedy_residual_rates_rows(*_rows(flows), ledger)


def _port_usage(flows, rates):
    usage: dict[int, float] = {}
    for f in flows:
        r = rates.get(f.flow_id, 0.0)
        usage[f.src] = usage.get(f.src, 0.0) + r
        usage[f.dst] = usage.get(f.dst, 0.0) + r
    return usage


class TestMaxMinProperties:
    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_never_oversubscribes(self, flows):
        rates = max_min_fair(flows, PortLedger(_fabric()))
        for port, used in _port_usage(flows, rates).items():
            assert used <= RATE * (1 + 1e-6)

    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_every_flow_gets_positive_rate(self, flows):
        """With empty ledger every flow shares at least one port's capacity."""
        rates = max_min_fair(flows, PortLedger(_fabric()))
        for f in flows:
            assert rates[f.flow_id] > 0

    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_pareto_on_bottleneck(self, flows):
        """Each flow is capped by at least one saturated port (can't raise
        any rate without lowering another)."""
        rates = max_min_fair(flows, PortLedger(_fabric()))
        usage = _port_usage(flows, rates)
        for f in flows:
            saturated = (
                usage[f.src] >= RATE * (1 - 1e-6)
                or usage[f.dst] >= RATE * (1 - 1e-6)
            )
            assert saturated

    @given(flow_sets(), st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_rate_cap_respected(self, flows, cap):
        rates = max_min_fair(flows, PortLedger(_fabric()), rate_cap=cap)
        for r in rates.values():
            assert r <= cap * (1 + 1e-9)


class TestMaddProperties:
    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_all_flows_finish_together(self, flows):
        coflow = CoFlow(coflow_id=0, arrival_time=0.0, flows=flows)
        rates = madd_rates(coflow, PortLedger(_fabric()))
        times = [
            f.remaining / rates[f.flow_id]
            for f in flows if f.flow_id in rates
        ]
        assert times, "empty ledger must always admit the coflow"
        first = times[0]
        for t in times[1:]:
            assert t == pytest.approx(first, rel=1e-9)

    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_no_oversubscription(self, flows):
        coflow = CoFlow(coflow_id=0, arrival_time=0.0, flows=flows)
        rates = madd_rates(coflow, PortLedger(_fabric()))
        for port, used in _port_usage(flows, rates).items():
            assert used <= RATE * (1 + 1e-6)

    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_bottleneck_port_saturated(self, flows):
        """MADD must fully use the bottleneck port (minimal duration)."""
        coflow = CoFlow(coflow_id=0, arrival_time=0.0, flows=flows)
        rates = madd_rates(coflow, PortLedger(_fabric()))
        usage = _port_usage(flows, rates)
        assert max(usage.values()) == pytest.approx(RATE, rel=1e-9)


class TestEqualRateProperties:
    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_single_common_rate(self, flows):
        coflow = CoFlow(coflow_id=0, arrival_time=0.0, flows=flows)
        rates = equal_rate_for_coflow(coflow, PortLedger(_fabric()))
        values = set(round(r, 9) for r in rates.values())
        assert len(values) == 1

    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_no_oversubscription(self, flows):
        coflow = CoFlow(coflow_id=0, arrival_time=0.0, flows=flows)
        rates = equal_rate_for_coflow(coflow, PortLedger(_fabric()))
        for port, used in _port_usage(flows, rates).items():
            assert used <= RATE * (1 + 1e-6)


class TestGreedyProperties:
    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_no_oversubscription(self, flows):
        rates = greedy_residual_rates(flows, PortLedger(_fabric()))
        for port, used in _port_usage(flows, rates).items():
            assert used <= RATE * (1 + 1e-6)

    @given(flow_sets())
    @settings(max_examples=60, deadline=None)
    def test_first_flow_maximal(self, flows):
        """The first flow always receives the full min(src, dst) residual."""
        rates = greedy_residual_rates(flows, PortLedger(_fabric()))
        assert rates[flows[0].flow_id] == pytest.approx(RATE)

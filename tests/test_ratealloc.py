"""Rate allocation substrate: max-min fairness, MADD, greedy fill."""

import pytest

from repro.simulator.fabric import Fabric, PortLedger
from repro.simulator.flows import make_coflow
from repro.simulator.ratealloc import (
    equal_rate_for_coflow_rows,
    greedy_residual_rates_rows,
    madd_rates_rows,
    max_min_fair_rows,
)
from repro.simulator.state import FlowTable


def _fabric(machines=6, rate=100.0):
    return Fabric(num_machines=machines, port_rate=rate)


def _rows(coflow):
    """The coflow's flows adopted into a fresh flow table."""
    table = FlowTable()
    return table.adopt_coflow(coflow), table


def max_min_fair(flows, ledger, **kw):
    """Max-min fairness over the rows of ``flows`` (one coflow)."""
    table = FlowTable()
    rows = [table.adopt(f, pos) for pos, f in enumerate(flows)]
    return max_min_fair_rows(rows, table, ledger, **kw)


def madd_rates(coflow, ledger):
    return madd_rates_rows(*_rows(coflow), ledger)


def equal_rate_for_coflow(coflow, ledger):
    return equal_rate_for_coflow_rows(*_rows(coflow), ledger)


def greedy_residual_rates(flows, ledger):
    table = FlowTable()
    rows = [table.adopt(f, pos) for pos, f in enumerate(flows)]
    return greedy_residual_rates_rows(rows, table, ledger)


class TestMaxMinFair:
    def test_single_flow_gets_full_rate(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        rates = max_min_fair(c.flows, PortLedger(fab))
        assert rates[0] == pytest.approx(100.0)

    def test_two_flows_share_common_sender(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [
            (0, fab.receiver_port(1), 100.0),
            (0, fab.receiver_port(2), 100.0),
        ])
        rates = max_min_fair(c.flows, PortLedger(fab))
        assert rates[0] == pytest.approx(50.0)
        assert rates[1] == pytest.approx(50.0)

    def test_unconstrained_flow_fills_up(self):
        fab = _fabric()
        # Flows 0,1 share sender 0; flow 2 is alone on sender 1.
        c = make_coflow(0, 0.0, [
            (0, fab.receiver_port(1), 1.0),
            (0, fab.receiver_port(2), 1.0),
            (1, fab.receiver_port(3), 1.0),
        ])
        rates = max_min_fair(c.flows, PortLedger(fab))
        assert rates[0] == pytest.approx(50.0)
        assert rates[2] == pytest.approx(100.0)

    def test_receiver_bottleneck(self):
        fab = _fabric()
        rcv = fab.receiver_port(5)
        c = make_coflow(0, 0.0, [(0, rcv, 1.0), (1, rcv, 1.0), (2, rcv, 1.0)])
        rates = max_min_fair(c.flows, PortLedger(fab))
        for fid in range(3):
            assert rates[fid] == pytest.approx(100.0 / 3)

    def test_rate_cap_applies(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)])
        rates = max_min_fair(c.flows, PortLedger(fab), rate_cap=10.0)
        assert rates[0] == pytest.approx(10.0)

    def test_zero_cap_means_no_allocation(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)])
        rates = max_min_fair(c.flows, PortLedger(fab), rate_cap=0.0)
        assert rates[0] == 0.0

    def test_respects_prior_commitments(self):
        fab = _fabric()
        ledger = PortLedger(fab)
        ledger.commit(0, fab.receiver_port(3), 80.0)
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)])
        rates = max_min_fair(c.flows, ledger)
        assert rates[0] == pytest.approx(20.0)

    def test_finished_flows_skipped(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [
            (0, fab.receiver_port(1), 1.0), (0, fab.receiver_port(2), 1.0),
        ])
        c.flows[0].finish_time = 1.0
        rates = max_min_fair(c.flows, ledger := PortLedger(fab))
        assert 0 not in rates
        assert rates[1] == pytest.approx(100.0)
        assert ledger.residual(0) == pytest.approx(0.0)

    def test_total_never_exceeds_capacity(self):
        fab = _fabric(machines=4, rate=100.0)
        transfers = [
            (s, fab.receiver_port(d), 1.0)
            for s in range(4) for d in range(4) if s != d
        ]
        c = make_coflow(0, 0.0, transfers)
        ledger = PortLedger(fab)
        rates = max_min_fair(c.flows, ledger)
        per_port: dict[int, float] = {}
        for f in c.flows:
            per_port[f.src] = per_port.get(f.src, 0) + rates[f.flow_id]
            per_port[f.dst] = per_port.get(f.dst, 0) + rates[f.flow_id]
        for port, used in per_port.items():
            assert used <= 100.0 + 1e-6


class TestMadd:
    def test_single_flow_full_rate(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 200.0)])
        rates = madd_rates(c, PortLedger(fab))
        assert rates[0] == pytest.approx(100.0)

    def test_flows_finish_together(self):
        fab = _fabric()
        # Bottleneck: sender 0 carries 100 + 50 = 150 bytes -> gamma = 1.5s.
        c = make_coflow(0, 0.0, [
            (0, fab.receiver_port(1), 100.0),
            (0, fab.receiver_port(2), 50.0),
        ])
        rates = madd_rates(c, PortLedger(fab))
        gamma = 150.0 / 100.0
        assert rates[0] == pytest.approx(100.0 / gamma)
        assert rates[1] == pytest.approx(50.0 / gamma)
        # Completion times equal:
        assert 100.0 / rates[0] == pytest.approx(50.0 / rates[1])

    def test_blocked_port_returns_empty(self):
        fab = _fabric()
        ledger = PortLedger(fab)
        ledger.commit(0, fab.receiver_port(5), 100.0)  # sender 0 saturated
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 10.0)])
        assert madd_rates(c, ledger) == {}

    def test_partial_residual_scales_down(self):
        fab = _fabric()
        ledger = PortLedger(fab)
        ledger.commit(0, fab.receiver_port(5), 60.0)
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        rates = madd_rates(c, ledger)
        assert rates[0] == pytest.approx(40.0)

    def test_finished_flows_ignored(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [
            (0, fab.receiver_port(1), 100.0), (1, fab.receiver_port(2), 60.0),
        ])
        c.flows[0].bytes_sent = 100.0
        c.flows[0].finish_time = 1.0
        rates = madd_rates(c, PortLedger(fab))
        assert list(rates) == [1]


class TestEqualRate:
    def test_all_flows_same_rate(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [
            (0, fab.receiver_port(1), 100.0),
            (1, fab.receiver_port(2), 10.0),
        ])
        rates = equal_rate_for_coflow(c, PortLedger(fab))
        assert rates[0] == rates[1] == pytest.approx(100.0)

    def test_rate_limited_by_shared_sender(self):
        fab = _fabric()
        # Two flows on sender 0: each capped at 50; all get 50.
        c = make_coflow(0, 0.0, [
            (0, fab.receiver_port(1), 1.0),
            (0, fab.receiver_port(2), 1.0),
            (1, fab.receiver_port(3), 1.0),
        ])
        rates = equal_rate_for_coflow(c, PortLedger(fab))
        assert all(r == pytest.approx(50.0) for r in rates.values())
        assert len(rates) == 3

    def test_zero_residual_gives_empty(self):
        fab = _fabric()
        ledger = PortLedger(fab)
        ledger.commit(0, fab.receiver_port(5), 100.0)
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)])
        assert equal_rate_for_coflow(c, ledger) == {}

    def test_commits_to_ledger(self):
        fab = _fabric()
        ledger = PortLedger(fab)
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)])
        equal_rate_for_coflow(c, ledger)
        assert ledger.residual(0) == pytest.approx(0.0)


class TestGreedyResidual:
    def test_order_matters(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [
            (0, fab.receiver_port(1), 1.0),
            (0, fab.receiver_port(2), 1.0),
        ])
        rates = greedy_residual_rates(c.flows, PortLedger(fab))
        assert rates[0] == pytest.approx(100.0)
        assert 1 not in rates  # sender already exhausted

    def test_min_of_sender_receiver(self):
        fab = _fabric()
        ledger = PortLedger(fab)
        ledger.commit(1, fab.receiver_port(2), 70.0)  # receiver 2 has 30 left
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(2), 1.0)])
        rates = greedy_residual_rates(c.flows, ledger)
        assert rates[0] == pytest.approx(30.0)

    def test_skips_finished(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)])
        c.flows[0].finish_time = 1.0
        assert greedy_residual_rates(c.flows, PortLedger(fab)) == {}

"""Contention computation (the k_c of LCoF / LWTF)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig
from repro.core.contention import (
    ContentionTracker,
    contention_counts,
    ports_in_use,
    waiting_time_increase,
)
from repro.core.saath import SaathScheduler
from repro.simulator.engine import run_policy
from repro.simulator.flows import clone_coflows, make_coflow
from repro.simulator.scenario import Scenario
from repro.simulator.session import SimulationSession

from test_fuzz_equivalence import fingerprint, random_workload


def _c(cid, transfers, fid_base=None):
    return make_coflow(cid, 0.0, transfers,
                       flow_id_start=(fid_base or cid) * 100)


class TestPortsInUse:
    def test_includes_senders_and_receivers(self):
        c = _c(0, [(0, 10, 1.0), (1, 11, 1.0)])
        assert ports_in_use(c) == {0, 1, 10, 11}

    def test_finished_flows_release_ports(self):
        c = _c(0, [(0, 10, 1.0), (1, 11, 1.0)])
        c.flows[0].finish_time = 1.0
        assert ports_in_use(c) == {1, 11}


class TestContentionCounts:
    def test_disjoint_coflows_have_zero_contention(self):
        a = _c(1, [(0, 10, 1.0)])
        b = _c(2, [(1, 11, 1.0)])
        counts = contention_counts([a, b])
        assert counts == {1: 0, 2: 0}

    def test_shared_sender_counts_once(self):
        a = _c(1, [(0, 10, 1.0), (0, 11, 1.0)])
        b = _c(2, [(0, 12, 1.0)])
        counts = contention_counts([a, b])
        assert counts[1] == 1
        assert counts[2] == 1

    def test_fig1_contention_values(self):
        """Fig. 1 of the paper: k1=1 per single-port coflow... the text
        gives k1=1, k2=3 in the narrative example of §1; here we check the
        structural property: a coflow overlapping N others reports N."""
        hub = _c(1, [(0, 10, 1.0), (1, 11, 1.0), (2, 12, 1.0)])
        spokes = [
            _c(2, [(0, 13, 1.0)]),
            _c(3, [(1, 14, 1.0)]),
            _c(4, [(2, 15, 1.0)]),
        ]
        counts = contention_counts([hub, *spokes])
        assert counts[1] == 3
        for s in (2, 3, 4):
            assert counts[s] == 1

    def test_receiver_sharing_counts(self):
        a = _c(1, [(0, 10, 1.0)])
        b = _c(2, [(1, 10, 1.0)])
        counts = contention_counts([a, b])
        assert counts == {1: 1, 2: 1}

    def test_multiple_shared_ports_still_one_count(self):
        a = _c(1, [(0, 10, 1.0), (1, 11, 1.0)])
        b = _c(2, [(0, 12, 1.0), (1, 13, 1.0)])
        counts = contention_counts([a, b])
        assert counts == {1: 1, 2: 1}

    def test_finished_flows_do_not_contend(self):
        a = _c(1, [(0, 10, 1.0), (1, 11, 1.0)])
        b = _c(2, [(0, 12, 1.0)])
        a.flows[0].finish_time = 1.0  # releases port 0
        counts = contention_counts([a, b])
        assert counts == {1: 0, 2: 0}

    def test_queue_scope_filters(self):
        a = _c(1, [(0, 10, 1.0)])
        b = _c(2, [(0, 11, 1.0)])
        c = _c(3, [(0, 12, 1.0)])
        queue_of = {1: 0, 2: 0, 3: 1}
        counts = contention_counts([a, b, c], scope="queue",
                                   queue_of=queue_of)
        assert counts[1] == 1  # only b shares a queue
        assert counts[3] == 0

    def test_queue_scope_requires_mapping(self):
        with pytest.raises(ValueError):
            contention_counts([_c(1, [(0, 10, 1.0)])], scope="queue")

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            contention_counts([], scope="global")

    def test_empty_input(self):
        assert contention_counts([]) == {}


class TestWaitingTimeIncrease:
    def test_t_times_k(self):
        c = _c(1, [(0, 10, 100.0)])
        key = waiting_time_increase(c, {1: 3}, port_rate=100.0)
        assert key == pytest.approx(3.0)  # 1 second duration * 3 blocked

    def test_zero_contention_is_free(self):
        c = _c(1, [(0, 10, 100.0)])
        assert waiting_time_increase(c, {1: 0}, port_rate=100.0) == 0.0

    def test_progress_reduces_key(self):
        c = _c(1, [(0, 10, 100.0)])
        before = waiting_time_increase(c, {1: 2}, 100.0)
        c.flows[0].bytes_sent = 50.0
        after = waiting_time_increase(c, {1: 2}, 100.0)
        assert after == pytest.approx(before / 2)


class TestContentionTracker:
    """The pair-share index against the from-scratch oracle."""

    @settings(max_examples=150, deadline=None)
    @given(scope=st.sampled_from(["all", "queue"]), data=st.data())
    def test_counts_match_from_scratch_after_every_operation(self, scope,
                                                             data):
        tracker = ContentionTracker(scope)
        live = {}
        queue_of = {}
        next_fid = 0
        for _ in range(data.draw(st.integers(1, 40), label="ops")):
            op = data.draw(st.sampled_from(
                ["add", "remove", "refresh", "queue"]), label="op")
            cid = data.draw(st.integers(0, 5), label="cid")
            supply_ports = data.draw(st.booleans(), label="supply ports")
            if op == "add" and cid not in live:
                # Four machines: senders 0-3, receivers 4-7.
                pairs = data.draw(st.lists(
                    st.tuples(st.integers(0, 3), st.integers(4, 7)),
                    min_size=1, max_size=5), label="flows")
                coflow = make_coflow(cid, 0.0, [(s, d, 1.0) for s, d in pairs],
                                     flow_id_start=next_fid)
                next_fid += len(pairs)
                live[cid] = coflow
                queue_of[cid] = data.draw(st.integers(0, 2), label="queue")
                tracker.add(coflow, ports=(ports_in_use(coflow)
                                           if supply_ports else None))
            elif op == "remove":
                live.pop(cid, None)
                queue_of.pop(cid, None)
                tracker.remove(cid)
            elif op == "refresh" and cid in live:
                coflow = live[cid]
                for f in coflow.flows:
                    if data.draw(st.booleans(), label="finish"):
                        f.finish_time = 1.0
                tracker.refresh_ports(coflow, ports=(
                    ports_in_use(coflow) if supply_ports else None))
            elif op == "queue" and cid in live:
                queue_of[cid] = data.draw(st.integers(0, 2), label="queue")
                tracker.note_queue_change(cid)
            expected = contention_counts(live.values(), scope=scope,
                                         queue_of=queue_of)
            assert tracker.counts(queue_of) == expected

    def test_queue_scope_requires_mapping(self):
        tracker = ContentionTracker("queue")
        tracker.add(_c(1, [(0, 10, 1.0)]))
        with pytest.raises(ValueError):
            tracker.counts()

    @pytest.mark.parametrize("scope", ["all", "queue"])
    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_saath_snapshot_restore_mid_run_is_byte_identical(self, scope,
                                                              seed):
        """The index deep-copies with the scheduler: a restored session and
        its donor both finish byte-identical to a straight run, and the
        restored tracker owns its index."""
        fabric, coflows = random_workload(seed)
        cfg = SimulationConfig(sync_interval=8e-3, contention_scope=scope)
        straight = run_policy(SaathScheduler(cfg), clone_coflows(coflows),
                              fabric, cfg)
        session = SimulationSession(
            fabric, SaathScheduler(cfg), cfg,
            scenario=Scenario.from_coflows(clone_coflows(coflows)),
        )
        session.run_until(straight.makespan / 2)
        snap = session.snapshot()
        restored = SimulationSession.restore(snap)
        donor_index = session.scheduler._contention
        copy_index = restored.scheduler._contention
        assert copy_index is not donor_index
        assert copy_index._share == donor_index._share
        assert copy_index._share is not donor_index._share
        assert fingerprint(session.run()) == fingerprint(straight)
        assert fingerprint(restored.run()) == fingerprint(straight)

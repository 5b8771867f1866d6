"""Test-owned oracles: the object-form rate allocators and rounds.

Before the schedulers ran on flow-table rows only, every allocator also
existed as an *object form* over :class:`~repro.simulator.flows.Flow`
views, and multi-tier fabrics used ``*_paths`` twins that queried a
:class:`~repro.simulator.topology.PathMap` for each flow's core links.
Their code is kept here verbatim (docstrings shortened), together with
Saath's object admission round and Aalo's object port service, as
independent references: the fuzz legs of
``test_fuzz_equivalence.py::test_row_allocators_match_object_allocators``
pin the row allocators — the Python references and the compiled kernels —
to them bit for bit, rates and ledger state alike. The ``*_paths`` oracles
also fix the order in which paths are first looked up, which decides the
``least-loaded`` selector's assignments.

Only two ledger primitives are reproduced (:func:`fill`,
:func:`fill_capped`): the ledgers no longer have them, and these copies
follow the big-switch and link-ledger methods they replace.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Sequence

from repro.simulator.fabric import PortLedger
from repro.simulator.flows import CoFlow, Flow
from repro.simulator.topology import LinkLedger, PathMap


def _extra_links(ledger: PortLedger, src: int, dst: int) -> tuple[int, ...]:
    if isinstance(ledger, LinkLedger):
        return ledger._paths.extra_links(src, dst)
    return ()


def fill(ledger: PortLedger, src: int, dst: int) -> float:
    """``PortLedger.fill`` / ``LinkLedger.fill``: commit and return the
    smallest residual along the path (no clamp, no tolerance check)."""
    used = ledger.used_list
    capacity = ledger.capacity_list
    extras = _extra_links(ledger, src, dst)
    rate = capacity[src] - used[src]
    other = capacity[dst] - used[dst]
    if other < rate:
        rate = other
    for link in extras:
        other = capacity[link] - used[link]
        if other < rate:
            rate = other
    if rate <= 0:
        return 0.0
    touched = ledger.touched_set
    for link in (src, dst, *extras):
        used[link] += rate
        touched.add(link)
    return rate


def fill_capped(ledger: PortLedger, src: int, dst: int, cap: float) -> float:
    """``PortLedger.fill_capped`` / ``LinkLedger.fill_capped``: commit and
    return ``min(cap, residuals along the path)``; 0.0 when a link beyond
    the sender is exhausted, -1.0 when the sender is."""
    used = ledger.used_list
    capacity = ledger.capacity_list
    rate = capacity[src] - used[src]
    if rate <= 0:
        return -1.0
    other = capacity[dst] - used[dst]
    if other < rate:
        rate = other
    extras = _extra_links(ledger, src, dst)
    for link in extras:
        other = capacity[link] - used[link]
        if other < rate:
            rate = other
    if cap < rate:
        rate = cap
    if rate <= 0:
        return 0.0
    touched = ledger.touched_set
    for link in (src, dst, *extras):
        new_used = used[link] + rate
        link_cap = capacity[link]
        used[link] = new_used if new_used < link_cap else link_cap
        touched.add(link)
    return rate


def max_min_fair(
    flows: Sequence[Flow],
    ledger: PortLedger,
    *,
    rate_cap: float | None = None,
    commit: bool = True,
) -> dict[int, float]:
    """Per-flow max-min fairness by progressive filling over ports."""
    active_map: dict[int, Flow] = {
        f.flow_id: f for f in flows if f.finish_time is None
    }
    if not active_map:
        return {}
    active = list(active_map.values())
    fids = list(active_map)
    if rate_cap is not None and rate_cap <= 0:
        return dict.fromkeys(fids, 0.0)

    # Dense port indexing in first-seen order (src before dst per flow).
    port_index: dict[int, int] = {}
    residual: list[float] = []
    live: list[int] = []
    #: dense port -> flow positions touching it, in flow order.
    members: list[list[int]] = []
    num_flows = len(active)
    src_i: list[int] = [0] * num_flows
    dst_i: list[int] = [0] * num_flows
    ledger_residual = ledger.residual
    for i, f in enumerate(active):
        port = f.src
        j = port_index.get(port)
        if j is None:
            j = port_index[port] = len(residual)
            residual.append(ledger_residual(port))
            live.append(1)
            members.append([i])
        else:
            live[j] += 1
            members[j].append(i)
        src_i[i] = j
        port = f.dst
        j = port_index.get(port)
        if j is None:
            j = port_index[port] = len(residual)
            residual.append(ledger_residual(port))
            live.append(1)
            members.append([i])
        else:
            live[j] += 1
            members[j].append(i)
        dst_i[i] = j

    frozen = bytearray(num_flows)
    rate_of: list[float] = [0.0] * num_flows
    num_ports = len(residual)
    remaining = num_flows

    while remaining:
        # Tightest port among those with unfrozen flows. Dense indices were
        # assigned in first-seen order, so ascending-index iteration *is*
        # the original insertion-order scan and the tie-break (first port
        # among equal shares) is preserved; dead ports just skip.
        best_j = -1
        best_share = math.inf
        for j in range(num_ports):
            count = live[j]
            if count == 0:
                continue
            share = residual[j] / count
            if share < best_share:
                best_share = share
                best_j = j
        if best_j < 0:
            break

        if rate_cap is not None and rate_cap < best_share:
            # Every remaining flow can take the cap without saturating any
            # port: freeze them all at the cap. (The original loop also
            # updated residuals here, but nothing reads them after this
            # terminal branch.)
            for i in range(num_flows):
                if not frozen[i]:
                    rate_of[i] = rate_cap
            break

        # Freeze the flows on the bottleneck port at the fair share.
        # Numerical guard, applied per update: residuals can dip a hair
        # below zero. Clamping after each subtraction instead of once at
        # iteration end yields the same final value — a positive partial
        # result is unclamped either way, and once any partial result goes
        # negative both variants end the iteration at exactly 0.0.
        for i in members[best_j]:
            if frozen[i]:
                continue
            frozen[i] = 1
            rate_of[i] = best_share
            j = src_i[i]
            nr = residual[j] - best_share
            residual[j] = nr if nr >= 0 else 0.0
            live[j] -= 1
            j = dst_i[i]
            nr = residual[j] - best_share
            residual[j] = nr if nr >= 0 else 0.0
            live[j] -= 1
            remaining -= 1

    rates = dict(zip(fids, rate_of))
    if commit:
        ledger_commit = ledger.commit
        for f, rate in zip(active, rate_of):
            if rate > 0:
                ledger_commit(f.src, f.dst, rate)
    return rates


def madd_rates(
    coflow: CoFlow,
    ledger: PortLedger,
    *,
    flows: Iterable[Flow] | None = None,
) -> dict[int, float]:
    """MADD: every flow finishes at the coflow's bottleneck time."""
    # Inlined Flow.remaining / Flow.finished: this runs for every active
    # coflow on every scheduling round under Varys, so property dispatch
    # overhead is material. ``remaining > 0`` never needs the max-with-zero
    # clamp the property applies (the filter already excludes non-positive
    # values), so the floats are unchanged.
    todo = [f for f in (flows if flows is not None else coflow.flows)
            if f.finish_time is None and f.volume - f.bytes_sent > 0]
    if not todo:
        return {}

    port_bytes: dict[int, float] = {}
    get = port_bytes.get
    for f in todo:
        remaining = f.volume - f.bytes_sent
        port_bytes[f.src] = get(f.src, 0.0) + remaining
        port_bytes[f.dst] = get(f.dst, 0.0) + remaining

    gamma = 0.0
    port_residual = ledger.residual
    for port, volume in port_bytes.items():
        residual = port_residual(port)
        if residual <= 0:
            return {}
        share = volume / residual
        if share > gamma:
            gamma = share
    if gamma <= 0:
        return {}

    rates = {f.flow_id: (f.volume - f.bytes_sent) / gamma for f in todo}
    commit = ledger.commit
    for f in todo:
        commit(f.src, f.dst, rates[f.flow_id])
    return rates


def equal_rate_for_coflow(
    coflow: CoFlow,
    ledger: PortLedger,
    *,
    flows: Sequence[Flow] | None = None,
    port_counts: dict[int, int] | None = None,
) -> dict[int, float]:
    """Saath's D2 rule: one equal rate, the minimum per-flow cap."""
    todo = [f for f in (flows if flows is not None else coflow.flows)
            if f.finish_time is None]
    if not todo:
        return {}

    residual = ledger.residual
    rate = math.inf
    if port_counts is not None:
        for port, count in port_counts.items():
            cap = residual(port) / count
            if cap < rate:
                rate = cap
    else:
        count_at_port: dict[int, int] = defaultdict(int)
        for f in todo:
            count_at_port[f.src] += 1
            count_at_port[f.dst] += 1
        for f in todo:
            cap_src = residual(f.src) / count_at_port[f.src]
            cap_dst = residual(f.dst) / count_at_port[f.dst]
            rate = min(rate, cap_src, cap_dst)
    if not math.isfinite(rate) or rate <= 0:
        return {}

    rates = {f.flow_id: rate for f in todo}
    commit = ledger.commit
    for f in todo:
        commit(f.src, f.dst, rate)
    return rates


def max_min_fair_paths(
    flows: Sequence[Flow],
    paths: "PathMap",
    ledger: PortLedger,
    *,
    rate_cap: float | None = None,
    commit: bool = True,
) -> dict[int, float]:
    """:func:`max_min_fair` over every link of each flow's path."""
    active_map: dict[int, Flow] = {
        f.flow_id: f for f in flows if f.finish_time is None
    }
    if not active_map:
        return {}
    active = list(active_map.values())
    fids = list(active_map)
    if rate_cap is not None and rate_cap <= 0:
        return dict.fromkeys(fids, 0.0)

    extra_links = paths.extra_links
    # Dense link indexing in first-seen order (per flow: src, dst, extras).
    link_index: dict[int, int] = {}
    residual: list[float] = []
    live: list[int] = []
    #: dense link -> flow positions crossing it, in flow order.
    members: list[list[int]] = []
    num_flows = len(active)
    #: flow position -> dense indices of every link on its path.
    path_idx: list[tuple[int, ...]] = [()] * num_flows
    ledger_residual = ledger.residual
    for i, f in enumerate(active):
        idx = []
        for link in (f.src, f.dst, *extra_links(f.src, f.dst)):
            j = link_index.get(link)
            if j is None:
                j = link_index[link] = len(residual)
                residual.append(ledger_residual(link))
                live.append(1)
                members.append([i])
            else:
                live[j] += 1
                members[j].append(i)
            idx.append(j)
        path_idx[i] = tuple(idx)

    frozen = bytearray(num_flows)
    rate_of: list[float] = [0.0] * num_flows
    num_links = len(residual)
    remaining = num_flows

    while remaining:
        # Tightest link among those with unfrozen flows (ascending dense
        # index == first-seen order, the object form's tie-break).
        best_j = -1
        best_share = math.inf
        for j in range(num_links):
            count = live[j]
            if count == 0:
                continue
            share = residual[j] / count
            if share < best_share:
                best_share = share
                best_j = j
        if best_j < 0:
            break

        if rate_cap is not None and rate_cap < best_share:
            for i in range(num_flows):
                if not frozen[i]:
                    rate_of[i] = rate_cap
            break

        # Freeze the flows on the bottleneck link at the fair share,
        # subtracting it from every link of each frozen flow's path (same
        # per-update negative clamp as the object form).
        for i in members[best_j]:
            if frozen[i]:
                continue
            frozen[i] = 1
            rate_of[i] = best_share
            for j in path_idx[i]:
                nr = residual[j] - best_share
                residual[j] = nr if nr >= 0 else 0.0
                live[j] -= 1
            remaining -= 1

    rates = dict(zip(fids, rate_of))
    if commit:
        ledger_commit = ledger.commit
        for f, rate in zip(active, rate_of):
            if rate > 0:
                ledger_commit(f.src, f.dst, rate)
    return rates


def madd_rates_paths(
    coflow: CoFlow,
    ledger: PortLedger,
    paths: "PathMap",
    *,
    flows: Iterable[Flow] | None = None,
) -> dict[int, float]:
    """:func:`madd_rates` with Γ over every path link."""
    todo = [f for f in (flows if flows is not None else coflow.flows)
            if f.finish_time is None and f.volume - f.bytes_sent > 0]
    if not todo:
        return {}

    extra_links = paths.extra_links
    link_bytes: dict[int, float] = {}
    get = link_bytes.get
    for f in todo:
        remaining = f.volume - f.bytes_sent
        link_bytes[f.src] = get(f.src, 0.0) + remaining
        link_bytes[f.dst] = get(f.dst, 0.0) + remaining
        for link in extra_links(f.src, f.dst):
            link_bytes[link] = get(link, 0.0) + remaining

    gamma = 0.0
    link_residual = ledger.residual
    for link, volume in link_bytes.items():
        residual = link_residual(link)
        if residual <= 0:
            return {}
        share = volume / residual
        if share > gamma:
            gamma = share
    if gamma <= 0:
        return {}

    rates = {f.flow_id: (f.volume - f.bytes_sent) / gamma for f in todo}
    commit = ledger.commit
    for f in todo:
        commit(f.src, f.dst, rates[f.flow_id])
    return rates


def equal_rate_for_coflow_paths(
    coflow: CoFlow,
    ledger: PortLedger,
    paths: "PathMap",
    *,
    flows: Sequence[Flow] | None = None,
    link_counts: dict[int, int] | None = None,
) -> dict[int, float]:
    """:func:`equal_rate_for_coflow` over every path link."""
    todo = [f for f in (flows if flows is not None else coflow.flows)
            if f.finish_time is None]
    if not todo:
        return {}

    extra_links = paths.extra_links
    residual = ledger.residual
    rate = math.inf
    if link_counts is not None:
        for link, count in link_counts.items():
            cap = residual(link) / count
            if cap < rate:
                rate = cap
    else:
        count_at_link: dict[int, int] = defaultdict(int)
        for f in todo:
            count_at_link[f.src] += 1
            count_at_link[f.dst] += 1
            for link in extra_links(f.src, f.dst):
                count_at_link[link] += 1
        for f in todo:
            cap = residual(f.src) / count_at_link[f.src]
            if cap < rate:
                rate = cap
            cap = residual(f.dst) / count_at_link[f.dst]
            if cap < rate:
                rate = cap
            for link in extra_links(f.src, f.dst):
                cap = residual(link) / count_at_link[link]
                if cap < rate:
                    rate = cap
    if not math.isfinite(rate) or rate <= 0:
        return {}

    rates = {f.flow_id: rate for f in todo}
    commit = ledger.commit
    for f in todo:
        commit(f.src, f.dst, rate)
    return rates


def greedy_residual_rates(
    flows: Sequence[Flow],
    ledger: PortLedger,
) -> dict[int, float]:
    """Work-conservation fill in input order, with a dead-port memo."""
    rates: dict[int, float] = {}
    residual = ledger.residual
    dead: set[int] = set()
    for f in flows:
        if f.finish_time is not None:
            continue
        src = f.src
        dst = f.dst
        if src in dead or dst in dead:
            continue
        rate = fill(ledger, src, dst)
        if rate > 0:
            rates[f.flow_id] = rate
        else:
            if residual(src) <= 0:
                dead.add(src)
            if residual(dst) <= 0:
                dead.add(dst)
    return rates


def saath_round(groups, ledger, min_rate, work_conservation, allocation,
                paths: PathMap | None = None):
    """Saath's object admission round: all-or-none admission, the D2
    equal rate (``*_paths`` form with ``paths``, which replaces the given
    port counts by link counts) and one greedy walk over the missed
    coflows. ``groups`` holds ``(coflow id, flows, counts)``; returns the
    (equal-rate, greedy) call counts."""
    calls = [0, 0]
    missed: list[list[Flow]] = []
    for cid, flows, counts in groups:
        if not flows:
            continue
        admit = counts
        if paths is not None:
            # Admission covers every flow's path; the D2 counts only the
            # unfinished flows (the same sets on an engine state, which
            # never hands a finished flow to the round).
            admit = {}
            counts = defaultdict(int)
            for f in flows:
                path = (f.src, f.dst, *paths.extra_links(f.src, f.dst))
                admit.update(dict.fromkeys(path))
                if f.finish_time is None:
                    for link in path:
                        counts[link] += 1
        if _all_or_none_admissible(flows, ledger, min_rate, admit):
            calls[0] += 1
            stub = CoFlow(coflow_id=cid, arrival_time=0.0, flows=[])
            if paths is not None:
                rates = equal_rate_for_coflow_paths(
                    stub, ledger, paths, flows=flows, link_counts=counts)
            else:
                rates = equal_rate_for_coflow(
                    stub, ledger, flows=flows, port_counts=counts)
            if rates:
                allocation.rates.update(rates)
                allocation.scheduled_coflows.add(cid)
                continue
        missed.append(flows)
    if work_conservation and missed:
        calls[1] += 1
        wc_flows = [f for flows in missed for f in flows]
        rates = greedy_residual_rates(wc_flows, ledger)
        if rates:
            allocation.rates.update(rates)
            allocation.work_conserved_coflows |= {
                f.coflow_id for f in wc_flows if f.flow_id in rates}
    return calls


def _all_or_none_admissible(flows, ledger, min_rate, port_counts=None):
    residual = ledger.residual
    if port_counts is not None:
        return all(residual(p) >= min_rate for p in port_counts)
    ports: set[int] = set()
    for f in flows:
        ports.add(f.src)
        ports.add(f.dst)
    return all(residual(p) >= min_rate for p in ports)


def aalo_round(aalo, state, now, allocation) -> None:
    """Aalo's object port service on ``state``'s ledger, after the caller
    refreshed the queues: schedulable flows per coflow in active order
    (flow-id order), each sender port served in port order by weighted
    queue shares and a spill pass through :func:`fill_capped`."""
    ids, groups = [], []
    for coflow in state.active_coflows:
        flows = state.schedulable_flows(coflow, now)
        if flows:
            ids.append(coflow.coflow_id)
            groups.append(sorted(flows, key=lambda f: f.flow_id))
    qmap = aalo.tracker.queue_map
    fifo = aalo._arrival_order
    per_sender: dict[int, list[tuple[int, list[Flow]]]] = defaultdict(list)
    for k in sorted(range(len(ids)),
                    key=lambda k: (qmap[ids[k]], fifo[ids[k]])):
        queue = qmap[ids[k]]
        for f in groups[k]:
            runs = per_sender[f.src]
            if not runs or runs[-1][0] != queue:
                runs.append((queue, [f]))
            else:
                runs[-1][1].append(f)
    ledger = state.acquire_ledger()
    for port in sorted(per_sender):
        _allocate_port(aalo, port, per_sender[port], ledger, allocation)


def _allocate_port(aalo, port, runs, ledger, allocation) -> None:
    port_capacity = ledger.residual(port)
    if port_capacity <= 0:
        return
    weight_of = aalo._queue_weight
    total_weight = 0.0
    for q, _ in runs:
        total_weight += weight_of[q]
    rates = allocation.rates
    rates_get = rates.get
    scheduled = allocation.scheduled_coflows
    for q, run in runs:
        budget = port_capacity * weight_of[q] / total_weight
        for flow in run:
            if budget <= 0:
                break
            rate = fill_capped(ledger, port, flow.dst, budget)
            if rate <= 0:
                if rate < 0:
                    return  # sender port exhausted
                continue  # receiver full; later receivers may differ
            budget -= rate
            rates[flow.flow_id] = rates_get(flow.flow_id, 0.0) + rate
            scheduled.add(flow.coflow_id)
    for _, run in runs:
        for flow in run:
            rate = fill_capped(ledger, port, flow.dst, math.inf)
            if rate <= 0:
                if rate < 0:
                    return  # sender port exhausted
                continue
            rates[flow.flow_id] = rates_get(flow.flow_id, 0.0) + rate
            scheduled.add(flow.coflow_id)

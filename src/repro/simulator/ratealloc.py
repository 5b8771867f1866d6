"""Rate-allocation substrate: water-filling max-min fairness and MADD.

The allocators used across the schedulers:

* :func:`max_min_fair_rows` — global per-flow max-min fairness via
  progressive filling. This is the fluid model of per-flow TCP fair
  sharing and powers the UC-TCP baseline (§6.1).
* :func:`madd_rates_rows` — Minimum-Allocation-for-Desired-Duration
  (Varys §4 / paper §4.2 D2): give every flow of a coflow the rate that
  finishes it exactly at the coflow's bottleneck completion time.
* :func:`equal_rate_for_coflow_rows` — Saath's D2 rule: one equal rate for
  all flows of a coflow, the minimum of the per-flow fair caps.
* :func:`greedy_residual_rates_rows` — the work-conservation fill.
* :func:`saath_round_rows` — Saath's whole admission round composed from
  the above (all-or-none, D2 equal rate, work conservation).

Every allocator takes flow-table row indices plus the owning
:class:`~repro.simulator.state.FlowTable` and works on a
:class:`~repro.simulator.fabric.PortLedger`, so the caller controls what
capacity is visible (residual capacity after higher-priority allocations).
A flow constrains — and is charged on — every link of its *path*, which
the ledger supplies through one method, :meth:`PortLedger.path`: on the
big switch that is ``(src, dst)``; a
:class:`~repro.simulator.topology.LinkLedger` appends the core links its
:class:`~repro.simulator.topology.PathMap` assigns to the pair, so rates
saturate at the true bottleneck link. Path lookups happen in the order the
rows are walked, which fixes the order in which lazily-chosen paths (the
``least-loaded`` selector) are assigned.

Each allocator is the Python reference of a compiled kernel in
:mod:`repro._fastcore` (``mmf_fill``, ``madd_rows``, ``greedy_rows``,
``saath_round``) performing the same IEEE-754 operations in the same
order. The kernels address the ledger's dense ``capacity_list`` /
``used_list`` buffers as port-indexed C arrays, so they are dispatched
first and only for an exact :class:`PortLedger` on a table whose
``fastcore`` flag is set; every other call runs the Python reference.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .._fastcore import core as _core
from .fabric import PortLedger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (state -> fabric)
    from ..schedulers.base import Allocation
    from .state import FlowTable


def _compiled(table: "FlowTable", ledger: PortLedger) -> bool:
    """True when the compiled kernels may serve this call: the extension
    is built, the table opted in, and the ledger is the port-indexed
    layout the kernels address (a LinkLedger's path charges are not
    replicated in C)."""
    return table.fastcore and _core is not None and type(ledger) is PortLedger


def max_min_fair_rows_raw(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
    *,
    rate_cap: float | None = None,
    commit: bool = True,
    prefiltered: bool = False,
) -> tuple[list[int], list[float]]:
    """Max-min fair rates for ``rows`` over the ledger's residual capacity.

    Progressive filling: repeatedly find the tightest link (smallest
    residual divided by its number of unfrozen flows), freeze those flows
    at the fair share, subtract it along each frozen flow's path, and
    continue. Links get dense indices in first-seen order (per flow: the
    path in ledger order), and the tie-break among equal shares is the
    first link in that order.

    Returns the unfinished rows (in input order) and their rates as two
    aligned lists. ``prefiltered=True`` asserts that ``rows`` holds no
    finished flows (true for pending-row caches), skipping the liveness
    re-filter. ``rate_cap`` optionally bounds every flow's rate (``<= 0``
    zeroes them all). ``commit=False`` skips the final ledger commits —
    for callers that discard the ledger after the round (UC-TCP); the
    rates respect every link capacity either way.
    """
    if prefiltered:
        active = list(rows) if not isinstance(rows, list) else rows
    else:
        ft = table.finish_time
        active = [i for i in rows if ft[i] is None]
    num_flows = len(active)
    rate_of: list[float] = [0.0] * num_flows
    if not num_flows or (rate_cap is not None and rate_cap <= 0):
        return active, rate_of

    metrics = ledger._metrics
    if _compiled(table, ledger):
        if metrics is not None:
            metrics.inc("kernel.mmf_fill.fastcore")
        return active, _core.mmf_fill(
            active, table.src, table.dst, ledger.capacity_list,
            ledger.used_list, ledger.touched_set, rate_cap, commit,
        )
    if metrics is not None:
        metrics.inc("kernel.mmf_fill.python")

    src_col = table.src
    dst_col = table.dst
    lcap = ledger.capacity_list
    lused = ledger.used_list
    path = ledger.path

    paths = [path(src_col[i], dst_col[i]) for i in active]
    # Link ids are dense, so the first-seen map is a flat position list.
    link_pos: list[int] = [-1] * len(lcap)
    residual: list[float] = []
    live: list[int] = []
    #: dense link -> flow positions crossing it, in flow order.
    members: list[list[int]] = []
    for k, links in enumerate(paths):
        for link in links:
            j = link_pos[link]
            if j < 0:
                link_pos[link] = len(residual)
                r = lcap[link] - lused[link]  # == ledger.residual(link)
                residual.append(r if r >= 0.0 else 0.0)
                live.append(1)
                members.append([k])
            else:
                live[j] += 1
                members[j].append(k)

    frozen = bytearray(num_flows)
    remaining = num_flows
    inf = math.inf
    #: Per-link fair share ``residual / live`` (inf once drained),
    #: maintained incrementally: a share only changes when one of its
    #: link's inputs changes, so the bottleneck search collapses to a
    #: C-level ``min`` + first-index lookup, which returns the lowest dense
    #: index among equal shares — the first-seen tie-break.
    shares = [residual[j] / live[j] for j in range(len(residual))]

    while remaining:
        best_share = min(shares)
        if best_share == inf:
            break
        best_j = shares.index(best_share)

        if rate_cap is not None and rate_cap < best_share:
            # Every remaining flow can take the cap without saturating any
            # link: freeze them all at the cap.
            for k in range(num_flows):
                if not frozen[k]:
                    rate_of[k] = rate_cap
            break

        # Freeze the flows on the bottleneck link at the fair share.
        # Numerical guard, applied per update: residuals can dip a hair
        # below zero; clamping after each subtraction yields the same final
        # value as clamping once (a positive partial result is unclamped
        # either way, and once one goes negative the link ends at 0.0).
        for k in members[best_j]:
            if frozen[k]:
                continue
            frozen[k] = 1
            rate_of[k] = best_share
            for link in paths[k]:
                j = link_pos[link]
                nr = residual[j] - best_share
                residual[j] = nr = nr if nr >= 0 else 0.0
                lv = live[j] - 1
                live[j] = lv
                shares[j] = nr / lv if lv else inf
            remaining -= 1

    if commit:
        ledger_commit = ledger.commit
        for k, i in enumerate(active):
            rate = rate_of[k]
            if rate > 0:
                ledger_commit(src_col[i], dst_col[i], rate)
    return active, rate_of


def max_min_fair_rows(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
    *,
    rate_cap: float | None = None,
    commit: bool = True,
) -> dict[int, float]:
    """:func:`max_min_fair_rows_raw` as ``flow_id → rate`` over the
    unfinished rows (zero-rate entries included)."""
    active, rate_of = max_min_fair_rows_raw(
        rows, table, ledger, rate_cap=rate_cap, commit=commit
    )
    fid = table.flow_id
    return dict(zip([fid[i] for i in active], rate_of))


def madd_rates_rows(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
) -> dict[int, float]:
    """MADD rates finishing every row of a coflow at its bottleneck time.

    **Clairvoyant**: reads remaining volumes off the table. Computes the
    coflow's completion time Γ — the maximum over every link its unfinished
    flows cross of the link's remaining byte load divided by its residual
    capacity — then assigns each flow ``remaining / Γ`` and commits it.
    Returns ``{}`` when the coflow cannot make progress (some needed link
    has no residual).
    """
    metrics = ledger._metrics
    if _compiled(table, ledger):
        if metrics is not None:
            metrics.inc("kernel.madd_rows.fastcore")
        return _core.madd_rows(
            rows, table.finish_time, table.volume, table.bytes_sent,
            table.src, table.dst, table.flow_id, ledger.capacity_list,
            ledger.used_list, ledger.touched_set,
        )
    if metrics is not None:
        metrics.inc("kernel.madd_rows.python")
    ft = table.finish_time
    vol = table.volume
    bs = table.bytes_sent
    src_col = table.src
    dst_col = table.dst
    path = ledger.path
    # Liveness filter and per-link byte aggregation fused into one pass
    # (``remaining`` is computed once and reused for the rates below).
    todo: list[int] = []
    left: list[float] = []
    link_bytes: dict[int, float] = {}
    get = link_bytes.get
    for i in rows:
        if ft[i] is not None:
            continue
        remaining = vol[i] - bs[i]
        if remaining <= 0:
            continue
        todo.append(i)
        left.append(remaining)
        for link in path(src_col[i], dst_col[i]):
            link_bytes[link] = get(link, 0.0) + remaining
    if not todo:
        return {}

    lcap = ledger.capacity_list
    lused = ledger.used_list
    gamma = 0.0
    for link, volume in link_bytes.items():
        residual = lcap[link] - lused[link]  # == ledger.residual(link)
        if residual <= 0:
            return {}
        share = volume / residual
        if share > gamma:
            gamma = share
    if gamma <= 0:
        return {}

    fid = table.flow_id
    commit = ledger.commit
    rates: dict[int, float] = {}
    for i, remaining in zip(todo, left):
        rate = remaining / gamma
        rates[fid[i]] = rate
        commit(src_col[i], dst_col[i], rate)
    return rates


def equal_rate_for_coflow_rows(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
    *,
    port_counts: dict[int, int] | None = None,
) -> dict[int, float]:
    """Saath's D2 rule: one equal rate for every unfinished row.

    Non-clairvoyant. At each link the coflow's flows share the residual
    capacity fairly, so a flow's cap is the minimum over its path of
    ``residual(link) / n_link`` (``n_link`` = the rows crossing the link).
    The coflow rate is the minimum cap over its flows — "the rate of the
    slowest flow is assigned to all the flows" (§4.2 D2) — and is
    committed to the ledger. Returns ``{}`` if that rate would be zero.

    ``port_counts`` optionally supplies the per-link counts over exactly
    ``rows`` (on a big switch the cluster state's per-port pending counts,
    see :meth:`~repro.simulator.state.ClusterState.port_counts`),
    collapsing the counting and min-cap passes to O(links): the minimum
    over the same multiset of caps is the same float. Its compiled twin
    runs inside the ``saath_round`` kernel (see :func:`saath_round_rows`).
    """
    metrics = ledger._metrics
    if metrics is not None:
        metrics.inc("kernel.equal_rate_rows.python")
    ft = table.finish_time
    todo = [i for i in rows if ft[i] is None]
    if not todo:
        return {}

    src_col = table.src
    dst_col = table.dst
    lcap = ledger.capacity_list
    lused = ledger.used_list
    rate = math.inf
    if port_counts is not None:
        for link, count in port_counts.items():
            r = lcap[link] - lused[link]  # == ledger.residual(link)
            cap = (r if r >= 0.0 else 0.0) / count
            if cap < rate:
                rate = cap
    else:
        path = ledger.path
        paths = [path(src_col[i], dst_col[i]) for i in todo]
        count_at: dict[int, int] = {}
        get = count_at.get
        for links in paths:
            for link in links:
                count_at[link] = get(link, 0) + 1
        for links in paths:
            for link in links:
                r = lcap[link] - lused[link]
                cap = (r if r >= 0.0 else 0.0) / count_at[link]
                if cap < rate:
                    rate = cap
    if not math.isfinite(rate) or rate <= 0:
        return {}

    fid = table.flow_id
    commit = ledger.commit
    rates: dict[int, float] = {}
    for i in todo:
        rates[fid[i]] = rate
        commit(src_col[i], dst_col[i], rate)
    return rates


def greedy_residual_rates_rows(
    rows: Sequence[int],
    table: "FlowTable",
    ledger: PortLedger,
) -> dict[int, float]:
    """Work-conservation fill (Fig. 7 lines 18–23).

    Walk ``rows`` in order, giving each unfinished flow the smallest
    residual along its path and committing it. Later flows see capacity
    already consumed by earlier ones, so the input order is the scheduling
    priority order.

    Sender and receiver ports observed exhausted are remembered for the
    rest of the walk: residuals only decrease within one fill pass, so
    skipping a flow on a dead port is exactly the zero-rate no-op the fill
    would have returned, and the pass stops probing the ledger once the
    fabric saturates. The memo is checked before the path is looked up, so
    a skipped flow assigns no path.
    """
    metrics = ledger._metrics
    if _compiled(table, ledger):
        if metrics is not None:
            metrics.inc("kernel.greedy_rows.fastcore")
        return _core.greedy_rows(
            rows, table.finish_time, table.flow_id, table.src, table.dst,
            ledger.capacity_list, ledger.used_list, ledger.touched_set,
        )
    if metrics is not None:
        metrics.inc("kernel.greedy_rows.python")
    rates: dict[int, float] = {}
    dead: set[int] = set()
    ft = table.finish_time
    fid = table.flow_id
    src_col = table.src
    dst_col = table.dst
    path = ledger.path
    # The grant needs no tolerance check (it never exceeds a residual) and
    # no at-capacity clamp; ``residual(p) <= 0`` is ``capacity - used <= 0``
    # (the max-with-zero clamp never changes the sign).
    lcap = ledger.capacity_list
    lused = ledger.used_list
    touched = ledger.touched_set
    for i in rows:
        if ft[i] is not None:
            continue
        src = src_col[i]
        dst = dst_col[i]
        if src in dead or dst in dead:
            continue
        links = path(src, dst)
        rate = math.inf
        for link in links:
            r = lcap[link] - lused[link]
            if r < rate:
                rate = r
        if rate > 0:
            for link in links:
                lused[link] += rate
            touched.update(links)
            rates[fid[i]] = rate
        else:
            if lcap[src] - lused[src] <= 0:
                dead.add(src)
            if lcap[dst] - lused[dst] <= 0:
                dead.add(dst)
    return rates


def _admissible_rows(rows: Sequence[int], table: "FlowTable",
                     ledger: PortLedger, port_counts: dict[int, int] | None,
                     min_rate: float) -> bool:
    """All-or-none admission over rows: every link on the rows' paths has
    ``residual >= min_rate``. ``port_counts`` supplies the link set when it
    exactly covers ``rows``; otherwise every row's path is looked up
    before any link is tested. ``residual >= min_rate`` is evaluated as
    ``capacity - used >= min_rate`` — ``min_rate`` is validated positive,
    so the max-with-zero clamp inside ``residual`` cannot change it."""
    lcap = ledger.capacity_list
    lused = ledger.used_list
    if port_counts is None:
        src_col = table.src
        dst_col = table.dst
        path = ledger.path
        links: set[int] = set()
        for i in rows:
            links.update(path(src_col[i], dst_col[i]))
    else:
        links = port_counts
    for link in links:
        if lcap[link] - lused[link] < min_rate:
            return False
    return True


def saath_round_rows(
    coflow_ids: list[int],
    groups: list[list[int]],
    group_counts: list[dict[int, int] | None],
    table: "FlowTable",
    ledger: PortLedger,
    allocation: "Allocation",
    *,
    min_rate: float,
    work_conservation: bool,
) -> None:
    """Saath's admission round (Fig. 7 lines 16–23).

    ``groups[k]`` holds the schedulable rows of coflow ``coflow_ids[k]``, in
    scheduling order, and ``group_counts[k]`` its per-port pending counts
    (``None`` when availability makes them inexact, see
    :meth:`~repro.simulator.state.ClusterState.port_counts`). Each coflow
    in turn is admitted all-or-none (:func:`_admissible_rows`) and given
    its D2 equal rate (:func:`equal_rate_for_coflow_rows`); coflows that
    are not admitted, or whose equal rate is zero, are then filled in
    order by one :func:`greedy_residual_rates_rows` walk. Rates, the
    admitted ids and the work-conserved ids are written into
    ``allocation``.

    Port counts only describe the big switch's two-link paths; on any
    other ledger they are ignored and the link counts are taken from the
    rows' paths. With the compiled core the whole round is one
    ``saath_round`` call, which runs the same equal-rate and greedy
    kernels and bumps their ``kernel.*.fastcore`` counters by the calls it
    made.
    """
    metrics = ledger._metrics
    if _compiled(table, ledger):
        equal_calls, greedy_calls = _core.saath_round(
            coflow_ids, groups, group_counts, table.finish_time, table.src,
            table.dst, table.flow_id, table.coflow_id, ledger.capacity_list,
            ledger.used_list, ledger.touched_set, min_rate,
            work_conservation, allocation.rates,
            allocation.scheduled_coflows, allocation.work_conserved_coflows,
        )
        if metrics is not None:
            if equal_calls:
                metrics.inc("kernel.equal_rate_rows.fastcore", equal_calls)
            if greedy_calls:
                metrics.inc("kernel.greedy_rows.fastcore", greedy_calls)
        return
    if type(ledger) is not PortLedger:
        group_counts = [None] * len(groups)
    missed_rows: list[list[int]] = []
    for cid, rows, counts in zip(coflow_ids, groups, group_counts):
        if not rows:
            continue
        if _admissible_rows(rows, table, ledger, counts, min_rate):
            rates = equal_rate_for_coflow_rows(
                rows, table, ledger, port_counts=counts
            )
            if rates:
                allocation.rates.update(rates)
                allocation.scheduled_coflows.add(cid)
                continue
        missed_rows.append(rows)
    if work_conservation and missed_rows:
        wc_rows: list[int] = []
        for rows in missed_rows:
            wc_rows.extend(rows)
        rates = greedy_residual_rates_rows(wc_rows, table, ledger)
        if rates:
            allocation.rates.update(rates)
            fid = table.flow_id
            cid_col = table.coflow_id
            granted = {cid_col[i] for i in wc_rows if fid[i] in rates}
            allocation.work_conserved_coflows |= granted

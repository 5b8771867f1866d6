"""CoFlow contention — the quantity behind Least-Contention-First (§3, §4.2).

The contention ``k_c`` of a coflow ``c`` is the number of *other* coflows
that would be blocked on ``c``'s ports if ``c`` were scheduled there: i.e.
the number of distinct other coflows with at least one unfinished flow on a
port that ``c`` also uses. Scheduling ``c`` for duration ``t`` increases the
total waiting time of the rest of the system by roughly ``t * k_c``, which
is what LCoF (and the offline LWTF policy of Fig. 3) minimises.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping

from ..simulator.flows import CoFlow


def ports_in_use(coflow: CoFlow) -> set[int]:
    """Ports touched by the coflow's *unfinished* flows.

    Finished flows have released their ports and no longer contend.
    """
    ports: set[int] = set()
    rows = coflow._rows
    if rows is not None:
        # Row path: table-tracked coflows read the port columns directly.
        tbl = coflow._table
        ft = tbl.finish_time
        src = tbl.src
        dst = tbl.dst
        for i in rows:
            if ft[i] is None:
                ports.add(src[i])
                ports.add(dst[i])
        return ports
    for f in coflow.flows:
        if not f.finished:
            ports.add(f.src)
            ports.add(f.dst)
    return ports


def contention_counts(
    coflows: Iterable[CoFlow],
    *,
    scope: str = "all",
    queue_of: Mapping[int, int] | None = None,
) -> dict[int, int]:
    """Compute ``k_c`` for every coflow in one pass.

    ``scope="all"`` (the default, used by Saath) counts contention against
    every active coflow sharing a port. ``scope="queue"`` restricts the
    count to coflows in the same priority queue, in which case ``queue_of``
    (coflow_id → queue index) must be provided.

    Runs in ``O(total port occupancies)``: build the port → coflow-set
    index, then union per coflow.
    """
    coflows = list(coflows)
    if scope not in ("all", "queue"):
        raise ValueError(f"unknown contention scope {scope!r}")
    if scope == "queue" and queue_of is None:
        raise ValueError("scope='queue' requires queue_of mapping")

    occupants: dict[int, set[int]] = defaultdict(set)
    my_ports: dict[int, set[int]] = {}
    for c in coflows:
        ports = ports_in_use(c)
        my_ports[c.coflow_id] = ports
        for p in ports:
            occupants[p].add(c.coflow_id)

    counts: dict[int, int] = {}
    for c in coflows:
        blocked: set[int] = set()
        for p in my_ports[c.coflow_id]:
            blocked |= occupants[p]
        blocked.discard(c.coflow_id)
        if scope == "queue":
            assert queue_of is not None
            mine = queue_of.get(c.coflow_id)
            blocked = {b for b in blocked if queue_of.get(b) == mine}
        counts[c.coflow_id] = len(blocked)
    return counts


class ContentionTracker:
    """Incrementally-maintained contention counts ``k_c``.

    Equivalent to calling :func:`contention_counts` every round, but driven
    by the engine's :class:`~repro.simulator.state.SchedulingDelta` through
    a *pair-share index*: ``share[a][b]`` is the number of ports coflows
    ``a`` and ``b`` both occupy (kept only while non-zero, symmetric), so
    ``k_a`` is the number of keys of ``share[a]``. :meth:`add`,
    :meth:`remove` and :meth:`refresh_ports` patch the index in
    O(changed ports × occupants) and keep every scope-``"all"`` count
    current as they go; :meth:`counts` unions no sets.

    With ``scope="queue"`` only the sharers in ``a``'s own queue count:
    the owner must report queue moves through :meth:`note_queue_change`
    and pass the current ``queue_of`` mapping to :meth:`counts`, which
    re-filters ``share[a]`` for the coflows whose sharer set or queue
    changed since the last call.
    """

    def __init__(self, scope: str = "all"):
        if scope not in ("all", "queue"):
            raise ValueError(f"unknown contention scope {scope!r}")
        self.scope = scope
        #: port -> ids of coflows with an unfinished flow on the port.
        self._occupants: dict[int, set[int]] = {}
        #: coflow_id -> ports currently occupied.
        self._ports: dict[int, set[int]] = {}
        #: coflow_id -> {sharer id: ports shared}, entries > 0 only.
        self._share: dict[int, dict[int, int]] = {}
        self._counts: dict[int, int] = {}
        #: Queue scope: coflow ids whose count must be re-filtered.
        self._dirty: set[int] = set()

    # ---- maintenance ------------------------------------------------------

    def rebuild(self, coflows: Iterable[CoFlow]) -> None:
        """Re-index from scratch (first round, or after a dynamics event)."""
        self._occupants.clear()
        self._ports.clear()
        self._share.clear()
        self._counts.clear()
        self._dirty.clear()
        for c in coflows:
            self.add(c)

    def _sharers_changed(self, cid: int, delta: int) -> None:
        """``cid``'s sharer set changed, by ``delta`` sharers net."""
        if self.scope == "all":
            self._counts[cid] += delta
        else:
            self._dirty.add(cid)

    def add(self, coflow: CoFlow, *, ports: set[int] | None = None) -> None:
        """Index a newly-active coflow (not already indexed).

        ``ports`` optionally supplies the coflow's unfinished-flow port set
        (the cluster state's port-count cache) so the tracker
        needn't rescan every flow; it must equal ``ports_in_use(coflow)``.
        """
        if ports is None:
            ports = ports_in_use(coflow)
        cid = coflow.coflow_id
        self._ports[cid] = ports
        mine: dict[int, int] = {}
        occupants = self._occupants
        for p in ports:
            members = occupants.get(p)
            if members is None:
                occupants[p] = {cid}
                continue
            for b in members:
                mine[b] = mine.get(b, 0) + 1
            members.add(cid)
        share = self._share
        share[cid] = mine
        for b, n in mine.items():
            share[b][cid] = n
            self._sharers_changed(b, 1)
        self._counts[cid] = 0
        self._sharers_changed(cid, len(mine))

    def remove(self, coflow_id: int) -> None:
        """Drop a completed coflow; no-op if it was never indexed."""
        ports = self._ports.pop(coflow_id, None)
        if ports is None:
            return
        share = self._share
        for b in share.pop(coflow_id):
            del share[b][coflow_id]
            self._sharers_changed(b, -1)
        del self._counts[coflow_id]
        self._dirty.discard(coflow_id)
        occupants = self._occupants
        for p in ports:
            members = occupants[p]
            members.discard(coflow_id)
            if not members:
                del occupants[p]

    def refresh_ports(self, coflow: CoFlow, *,
                      ports: set[int] | None = None) -> None:
        """Re-derive a coflow's port footprint after some flows finished.

        ``ports`` optionally supplies the new footprint from the cluster
        state's compaction cache (see :meth:`add`).
        """
        cid = coflow.coflow_id
        old = self._ports.get(cid)
        if old is None:
            self.add(coflow, ports=ports)
            return
        new = ports_in_use(coflow) if ports is None else ports
        if new == old:
            return
        occupants = self._occupants
        share = self._share
        mine = share[cid]
        before = len(mine)
        for p in old - new:
            members = occupants[p]
            members.discard(cid)
            if not members:
                del occupants[p]
                continue
            for b in members:
                n = mine[b] - 1
                if n:
                    mine[b] = n
                    share[b][cid] = n
                else:
                    del mine[b]
                    del share[b][cid]
                    self._sharers_changed(b, -1)
        for p in new - old:
            members = occupants.get(p)
            if members is None:
                occupants[p] = {cid}
                continue
            for b in members:
                n = mine.get(b, 0) + 1
                mine[b] = n
                share[b][cid] = n
                if n == 1:
                    self._sharers_changed(b, 1)
            members.add(cid)
        self._ports[cid] = new
        self._sharers_changed(cid, len(mine) - before)

    def note_queue_change(self, coflow_id: int) -> None:
        """A coflow moved queue: its sharers' queue-scoped counts change."""
        if self.scope != "queue":
            return
        mine = self._share.get(coflow_id)
        if mine is None:
            return
        self._dirty.update(mine)
        self._dirty.add(coflow_id)

    # ---- queries ----------------------------------------------------------

    def counts(self, queue_of: Mapping[int, int] | None = None
               ) -> dict[int, int]:
        """Current ``coflow_id -> k_c`` map (a live view: read it before
        the next update)."""
        if self.scope == "all":
            return self._counts
        if queue_of is None:
            raise ValueError("scope='queue' requires queue_of mapping")
        dirty = self._dirty
        if dirty:
            share = self._share
            counts = self._counts
            get = queue_of.get
            for cid in dirty:
                mine = share[cid]
                q = get(cid)
                counts[cid] = sum(1 for b in mine if get(b) == q)
            dirty.clear()
        return self._counts


def waiting_time_increase(
    coflow: CoFlow, contention: Mapping[int, int], port_rate: float
) -> float:
    """The LWTF key ``t_c * k_c`` (§2.4): clairvoyant remaining duration at
    the bottleneck port times the number of coflows it would block."""
    t_c = coflow.bottleneck_remaining_bytes() / port_rate
    return t_c * contention.get(coflow.coflow_id, 0)

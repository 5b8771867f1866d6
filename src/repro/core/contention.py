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
    by the engine's :class:`~repro.simulator.state.SchedulingDelta`: the
    port → occupants index is patched for arrived / completed / shrunk
    coflows, and only coflows whose count can actually have changed (the
    coflow itself plus the occupants of every port whose membership
    changed) are recounted. In steady state one flow completion dirties a
    handful of coflows instead of the whole active set.

    With ``scope="queue"`` the owner must report queue moves through
    :meth:`note_queue_change` (a queue move changes which sharers count)
    and pass the current ``queue_of`` mapping to :meth:`counts`.
    """

    def __init__(self, scope: str = "all"):
        if scope not in ("all", "queue"):
            raise ValueError(f"unknown contention scope {scope!r}")
        self.scope = scope
        #: port -> ids of coflows with an unfinished flow on the port.
        self._occupants: dict[int, set[int]] = {}
        #: coflow_id -> ports currently occupied.
        self._ports: dict[int, set[int]] = {}
        self._coflows: dict[int, CoFlow] = {}
        self._counts: dict[int, int] = {}
        #: Coflow ids whose cached count may be stale.
        self._dirty: set[int] = set()

    # ---- maintenance ------------------------------------------------------

    def rebuild(self, coflows: Iterable[CoFlow]) -> None:
        """Re-index from scratch (first round, or after a dynamics event)."""
        self._occupants.clear()
        self._ports.clear()
        self._coflows.clear()
        self._counts.clear()
        self._dirty.clear()
        for c in coflows:
            self.add(c)

    def add(self, coflow: CoFlow, *, ports: set[int] | None = None) -> None:
        """Index a newly-active coflow.

        ``ports`` optionally supplies the coflow's unfinished-flow port set
        (the cluster state's flow-group compaction cache) so the tracker
        needn't rescan every flow; it must equal ``ports_in_use(coflow)``.
        """
        if ports is None:
            ports = ports_in_use(coflow)
        cid = coflow.coflow_id
        self._coflows[cid] = coflow
        self._ports[cid] = ports
        occupants = self._occupants
        dirty = self._dirty
        for p in ports:
            members = occupants.get(p)
            if members is None:
                occupants[p] = {cid}
            else:
                dirty |= members
                members.add(cid)
        dirty.add(cid)

    def remove(self, coflow_id: int) -> None:
        """Drop a completed coflow; no-op if it was never indexed."""
        ports = self._ports.pop(coflow_id, None)
        if ports is None:
            return
        self._coflows.pop(coflow_id, None)
        self._counts.pop(coflow_id, None)
        self._dirty.discard(coflow_id)
        occupants = self._occupants
        for p in ports:
            members = occupants.get(p)
            if members is None:
                continue
            members.discard(coflow_id)
            if members:
                self._dirty |= members
            else:
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
        dirty = self._dirty
        for p in old - new:
            members = occupants.get(p)
            if members is None:
                continue
            members.discard(cid)
            if members:
                dirty |= members
            else:
                del occupants[p]
        for p in new - old:
            members = occupants.get(p)
            if members is None:
                occupants[p] = {cid}
            else:
                dirty |= members
                members.add(cid)
        self._ports[cid] = new
        dirty.add(cid)

    def note_queue_change(self, coflow_id: int) -> None:
        """A coflow moved queue: its sharers' queue-scoped counts change."""
        if self.scope != "queue":
            return
        ports = self._ports.get(coflow_id)
        if ports is None:
            return
        occupants = self._occupants
        for p in ports:
            members = occupants.get(p)
            if members:
                self._dirty |= members
        self._dirty.add(coflow_id)

    # ---- queries ----------------------------------------------------------

    def counts(self, queue_of: Mapping[int, int] | None = None
               ) -> dict[int, int]:
        """Current ``coflow_id -> k_c`` map, recounting only dirty coflows."""
        if self.scope == "queue" and queue_of is None:
            raise ValueError("scope='queue' requires queue_of mapping")
        if self._dirty:
            occupants = self._occupants
            counts = self._counts
            for cid in self._dirty:
                ports = self._ports.get(cid)
                if ports is None:
                    continue
                blocked: set[int] = set()
                for p in ports:
                    members = occupants.get(p)
                    if members:
                        blocked |= members
                blocked.discard(cid)
                if self.scope == "queue":
                    assert queue_of is not None
                    mine = queue_of.get(cid)
                    blocked = {b for b in blocked if queue_of.get(b) == mine}
                counts[cid] = len(blocked)
            self._dirty.clear()
        return self._counts


def waiting_time_increase(
    coflow: CoFlow, contention: Mapping[int, int], port_rate: float
) -> float:
    """The LWTF key ``t_c * k_c`` (§2.4): clairvoyant remaining duration at
    the bottleneck port times the number of coflows it would block."""
    t_c = coflow.bottleneck_remaining_bytes() / port_rate
    return t_c * contention.get(coflow.coflow_id, 0)

"""Baraat-style FIFO with Limited Multiplexing (Dogar et al., SIGCOMM'14).

The paper's related-work section positions Baraat as the fully
*decentralised* online task-aware scheduler: no coordinator, every port
independently serves coflows ("tasks") in global arrival (FIFO) order, but
— unlike pure FIFO — multiplexes up to ``multiplexing_level`` concurrent
coflows per port to avoid head-of-line blocking behind heavy ones. The
multiplexed coflows at a port share its capacity equally (Baraat's
fair-share mode).

Like Aalo, Baraat has no notion of the spatial dimension: each port makes
its own choice of which ``k`` coflows to serve, so flows of one coflow can
be active at one port and queued at another — it inherits the out-of-sync
problem (§8 of the Saath paper: "Baraat ... suffers from the same
limitation as Aalo").
"""

from __future__ import annotations

import math
from collections import defaultdict

from ..config import SimulationConfig
from ..errors import ConfigError
from ..simulator.flows import CoFlow
from ..simulator.state import ClusterState
from .base import Allocation, Scheduler


class BaraatFifoLmScheduler(Scheduler):
    """Decentralised FIFO with limited multiplexing."""

    name = "baraat-fifo-lm"
    clairvoyant = False

    def __init__(self, config: SimulationConfig,
                 *, multiplexing_level: int = 4):
        super().__init__(config)
        if multiplexing_level < 1:
            raise ConfigError(
                f"multiplexing_level must be >= 1, got {multiplexing_level}"
            )
        self.multiplexing_level = multiplexing_level
        self._arrival_order: dict[int, int] = {}
        self._counter = 0

    def on_coflow_arrival(self, coflow: CoFlow, now: float) -> None:
        self._arrival_order[coflow.coflow_id] = self._counter
        self._counter += 1

    def on_coflow_completion(self, coflow: CoFlow, now: float) -> None:
        self._arrival_order.pop(coflow.coflow_id, None)

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        table = state.table
        src_col, dst_col = table.src, table.dst
        fid, cid = table.flow_id, table.coflow_id
        per_sender: dict[int, list[int]] = defaultdict(list)
        for coflow in state.active_coflows:
            for i in state.schedulable_rows(coflow, now):
                per_sender[src_col[i]].append(i)

        ledger = state.acquire_ledger()
        path = ledger.path
        commit = ledger.commit
        lcap, lused = ledger.capacity_list, ledger.used_list
        allocation = Allocation()
        rates = allocation.rates
        order = self._arrival_order
        for port in sorted(per_sender):
            rows = sorted(
                per_sender[port],
                key=lambda i: (order.get(cid[i], 1 << 60), fid[i]),
            )
            # The first `multiplexing_level` distinct coflows at this port
            # are eligible; their flows share the port equally.
            eligible: list[int] = []
            admitted: set[int] = set()
            for i in rows:
                if cid[i] in admitted:
                    eligible.append(i)
                elif len(admitted) < self.multiplexing_level:
                    admitted.add(cid[i])
                    eligible.append(i)
            if not eligible:
                continue
            # A flow's grant is capped by the fair share and by every
            # other link of its path (the receiver, plus any core links on
            # a multi-tier fabric); ledger.commit charges the same links.
            # A negative ``capacity - used`` stands in for the zero
            # residual it clamps to: either way the flow is skipped.
            fair = ledger.residual(port) / len(eligible)
            for i in eligible:
                rate = fair
                for link in path(port, dst_col[i])[1:]:
                    left = lcap[link] - lused[link]
                    if left < rate:
                        rate = left
                if rate <= 0:
                    continue
                commit(port, dst_col[i], rate)
                rates[fid[i]] = rates.get(fid[i], 0.0) + rate
                allocation.scheduled_coflows.add(cid[i])
            # Leftovers (receiver-capped flows) spill to eligible flows.
            for i in eligible:
                extra = math.inf
                for link in path(port, dst_col[i]):
                    left = lcap[link] - lused[link]
                    if left < extra:
                        extra = left
                if extra <= 0:
                    continue
                commit(port, dst_col[i], extra)
                rates[fid[i]] = rates.get(fid[i], 0.0) + extra
        return allocation

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

from collections import defaultdict

from ..config import SimulationConfig
from ..errors import ConfigError
from ..simulator.flows import CoFlow, Flow
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
        per_sender: dict[int, list[Flow]] = defaultdict(list)
        for coflow in state.active_coflows:
            for f in state.schedulable_flows(coflow, now):
                per_sender[f.src].append(f)

        ledger = state.acquire_ledger()
        allocation = Allocation()
        for port in sorted(per_sender):
            flows = sorted(
                per_sender[port],
                key=lambda f: (self._arrival_order.get(f.coflow_id, 1 << 60),
                               f.flow_id),
            )
            # The first `multiplexing_level` distinct coflows at this port
            # are eligible; their flows share the port equally.
            eligible: list[Flow] = []
            admitted: set[int] = set()
            for f in flows:
                if f.coflow_id in admitted:
                    eligible.append(f)
                elif len(admitted) < self.multiplexing_level:
                    admitted.add(f.coflow_id)
                    eligible.append(f)
            if not eligible:
                continue
            # Multi-tier topologies: a flow's grant is additionally capped
            # by every core link on its path (extra_links is empty on the
            # big-switch default, leaving the classic arithmetic intact);
            # LinkLedger.commit then charges the same links.
            extra_links = (
                state.paths.extra_links if state.paths is not None
                else None
            )
            fair = ledger.residual(port) / len(eligible)
            for f in eligible:
                rate = min(fair, ledger.residual(f.dst))
                if extra_links is not None:
                    for link in extra_links(f.src, f.dst):
                        rate = min(rate, ledger.residual(link))
                if rate <= 0:
                    continue
                ledger.commit(f.src, f.dst, rate)
                allocation.rates[f.flow_id] = (
                    allocation.rates.get(f.flow_id, 0.0) + rate
                )
                allocation.scheduled_coflows.add(f.coflow_id)
            # Leftovers (receiver-capped flows) spill to eligible flows.
            for f in eligible:
                extra = min(ledger.residual(f.src), ledger.residual(f.dst))
                if extra_links is not None:
                    for link in extra_links(f.src, f.dst):
                        extra = min(extra, ledger.residual(link))
                if extra <= 0:
                    continue
                ledger.commit(f.src, f.dst, extra)
                allocation.rates[f.flow_id] = (
                    allocation.rates.get(f.flow_id, 0.0) + extra
                )
        return allocation

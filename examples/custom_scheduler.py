#!/usr/bin/env python
"""Extending the library: write and register a custom coflow scheduler.

Implements "Widest-CoFlow-First" — an intentionally naive policy that
admits coflows all-or-none in *decreasing* width order — registers it under
a new policy name, and races it against Saath and Aalo on the same
workload. The point is the extension surface:

* subclass :class:`repro.Scheduler` and implement ``schedule``,
* read flows as flow-table rows (``state.schedulable_rows`` indexes the
  ``state.table`` columns) and reuse the building blocks (``PortLedger``
  via ``state.make_ledger()``, whose ``path`` lists the links a flow
  crosses, and the row allocators in ``repro.simulator.ratealloc``),
* call :func:`repro.register_policy` so the CLI, experiments and the rest
  of the harness can refer to it by name.
"""

import numpy as np

from repro import (
    Allocation,
    Scheduler,
    SimulationConfig,
    clone_coflows,
    make_scheduler,
    register_policy,
    run_policy,
)
from repro.analysis.metrics import per_coflow_speedups
from repro.simulator.ratealloc import (
    equal_rate_for_coflow_rows,
    greedy_residual_rates_rows,
)
from repro.workloads.synthetic import WorkloadGenerator, fb_like_spec


class WidestCoflowFirst(Scheduler):
    """All-or-none admission in decreasing width order (a bad idea)."""

    name = "widest-first"
    clairvoyant = False

    def schedule(self, state, now):
        ledger = state.make_ledger()
        table = state.table
        allocation = Allocation()
        order = sorted(
            state.active_coflows,
            key=lambda c: (-c.width, c.arrival_time, c.coflow_id),
        )
        missed = []
        for coflow in order:
            rows = state.schedulable_rows(coflow, now)
            if not rows:
                continue
            links = {link for i in rows
                     for link in ledger.path(table.src[i], table.dst[i])}
            if all(ledger.has_capacity(link, self.config.min_rate)
                   for link in links):
                rates = equal_rate_for_coflow_rows(rows, table, ledger)
                if rates:
                    allocation.rates.update(rates)
                    allocation.scheduled_coflows.add(coflow.coflow_id)
                    continue
            missed.append(coflow)
        leftovers = [i for c in missed for i in state.schedulable_rows(c, now)]
        allocation.rates.update(
            greedy_residual_rates_rows(leftovers, table, ledger))
        return allocation


def main() -> None:
    register_policy(WidestCoflowFirst.name, WidestCoflowFirst)

    spec = fb_like_spec(num_machines=20, num_coflows=50)
    fabric = spec.make_fabric()
    workload = WorkloadGenerator(spec, seed=11).generate_coflows(fabric)
    config = SimulationConfig()

    ccts = {}
    for policy in ("aalo", "saath", "widest-first"):
        result = run_policy(
            make_scheduler(policy, config), clone_coflows(workload),
            fabric, config,
        )
        ccts[policy] = result.ccts()
        print(f"{policy:>14}: average CCT "
              f"{np.mean(list(ccts[policy].values())):.3f} s")

    for policy in ("saath", "widest-first"):
        sp = np.array(list(
            per_coflow_speedups(ccts["aalo"], ccts[policy]).values()
        ))
        print(f"\n{policy} vs aalo: median {np.median(sp):.2f}x, "
              f"P90 {np.percentile(sp, 90):.2f}x")
    print("\n(widest-first is deliberately terrible — scheduling the most "
          "contended\ncoflows first maximises blocking, the exact opposite "
          "of LCoF.)")


if __name__ == "__main__":
    main()

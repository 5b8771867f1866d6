"""Test-support utilities shipped with the library.

* :mod:`repro.testing.chaos` — the deterministic fault-injection harness
  the resilience tests and the CI ``chaos-smoke`` job use to exercise
  every recovery path on purpose.
* :mod:`repro.testing.reference` — the full-recompute reference engine
  the equivalence tests compare the incremental engine with (imported on
  demand: it pulls in the simulator).
"""

from . import chaos  # noqa: F401  (re-export for repro.testing.chaos use)

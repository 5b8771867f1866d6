"""Optional compiled core: C twins of the simulator's measured hot loops.

The extension module (``repro._fastcore._core``, built from ``fastcore.c``)
re-implements the progressive-fill / fused-allocation kernels of
:mod:`repro.simulator.ratealloc` (including ``saath_round``, Saath's whole
big-switch admission round, twin of ``ratealloc.saath_round_rows``), the
inner loops of :mod:`repro.simulator.session`, the round cores of the
Aalo and UC-TCP schedulers, and the queue-threshold layer shared by Aalo
and Saath (``queue_targets`` / ``queue_wakeup``, twins of the per-coflow
``QueueTracker.target_queue`` / ``QueueTracker.next_transition_time``) with the
same IEEE-754 operations in the same order, so results are **bitwise
identical** to the pure-Python rows path — asserted by the fuzz firewall
(``tests/test_fuzz_equivalence.py``). Each kernel has exactly one Python
reference. The allocator and round kernels address the ledger as
port-indexed arrays, so callers dispatch them only for an exact
:class:`~repro.simulator.fabric.PortLedger`; a multi-tier
:class:`~repro.simulator.topology.LinkLedger`, whose flows are charged
along whole paths, always runs the Python references.

This package degrades gracefully: when the extension is not built (no
compiler, fresh checkout, cross-platform wheel), :data:`core` is ``None``,
:data:`AVAILABLE` is ``False``, and every caller falls back to the Python
rows path.  Build in place with ``python tools/build_fastcore.py``.
"""

from __future__ import annotations

import os
import warnings

__all__ = ["AVAILABLE", "core", "warn_fallback_once"]

#: Cross-process backing for the warn-once latch: module globals reset in
#: every pool worker (each is a fresh interpreter), but workers inherit the
#: parent's environment, so a sweep warns once instead of once per worker.
_WARNED_ENV = "REPRO_FASTCORE_WARNED"

try:  # pragma: no cover - exercised via both CI matrix legs
    from . import _core as core  # type: ignore[attr-defined]
except ImportError:  # extension not built: pure-Python fallback
    core = None  # type: ignore[assignment]

AVAILABLE = core is not None

if AVAILABLE:
    # The C ledger-commit twin raises the same exception type as
    # PortLedger.commit; registered here to avoid an import cycle in C.
    from ..errors import CapacityViolationError

    core.set_capacity_error(CapacityViolationError)

_warned = False


def warn_fallback_once() -> None:
    """Warn loudly (once per process) that fastcore was requested but the
    extension is not built, so the simulation runs on the Python rows path.

    Silent fallback would quietly forfeit the ~2x speedup and make bench
    numbers incomparable, hence a RuntimeWarning rather than a debug log.
    """
    global _warned
    if _warned or os.environ.get(_WARNED_ENV):
        return
    _warned = True
    os.environ[_WARNED_ENV] = "1"
    warnings.warn(
        "fastcore requested but repro._fastcore._core is not built; "
        "falling back to the pure-Python rows path (results are identical, "
        "~2x slower). Build it with: python tools/build_fastcore.py",
        RuntimeWarning,
        stacklevel=3,
    )

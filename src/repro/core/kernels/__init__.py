"""Kernel tier registry for the level-evaluation hot path.

:class:`repro.core.dca.DelayAnalyzer` evaluates every Audsley /
admission level through one of three interchangeable kernels (see
``docs/kernels.md`` for the full matrix):

``reference``
    The broadcast tensor path (``_batch_dispatch``): per-level
    ``(rows, n)`` relation masks over the ``(n, n, N)`` segment cache.
    Semantic ground truth; every other tier is tested against it.
``paired``
    The pairwise-contribution kernel: premasked contribution matrices
    and stage-major tensors, bitwise identical to ``reference`` for
    every candidate row.  The default.
``compiled``
    Numba-jitted loop primitives (:mod:`repro.core.kernels.compiled`)
    over the same premasked operands.  Numba is an *optional*
    dependency: the primitives fall back to pure-python loops with
    identical arithmetic (same left-fold order), but requesting
    ``kernel="compiled"`` without numba raises
    :class:`CompiledKernelUnavailable` -- silent orders-of-magnitude
    slowdowns are worse than a clear error.  Tests force the fallback
    path through :data:`FORCE_FALLBACK` to property-check equivalence
    without numba installed.

This package is dependency-free within ``repro`` (it must not import
:mod:`repro.core.dca`, which imports it).
"""

from __future__ import annotations

import os

from repro.core.kernels import compiled
from repro.core.kernels.compiled import HAS_NUMBA

__all__ = [
    "CompiledKernelUnavailable",
    "FORCE_FALLBACK",
    "HAS_NUMBA",
    "KERNEL_TIERS",
    "compiled",
    "compiled_available",
    "resolve_kernel",
]

#: Every kernel value accepted by ``DelayAnalyzer(kernel=...)``, the
#: CLI ``--kernel`` flags, the campaign ``kernel`` knob and the online
#: scenario specs.  The first entry is the default everywhere.
KERNEL_TIERS = ("paired", "reference", "compiled")

#: Pretend the compiled tier is available even without numba, running
#: its pure-python fallback loops.  Test-only: the fallback is
#: arithmetic-identical to the jitted code but orders of magnitude
#: slower, which is exactly why ``kernel="compiled"`` refuses to run
#: on it silently.  Set via the environment (the no-optional-deps CI
#: job) or monkeypatched directly.
FORCE_FALLBACK = os.environ.get("REPRO_KERNEL_FORCE_FALLBACK", "") not in (
    "", "0")


class CompiledKernelUnavailable(RuntimeError):
    """``kernel="compiled"`` was requested but numba is not installed.

    Install the optional ``numba`` dependency, or use
    ``kernel="paired"`` (the default).
    """


def compiled_available() -> bool:
    """Whether ``kernel="compiled"`` can be served (numba importable,
    or the test-only fallback force flag is set)."""
    return HAS_NUMBA or FORCE_FALLBACK


def resolve_kernel(requested: str, *, window_filter: bool = True) -> str:
    """Map a requested kernel value to the effective evaluation tier.

    * unknown values raise ``ValueError`` (message names the valid
      tiers, matching the historic ``DelayAnalyzer`` error);
    * ``"compiled"`` raises :class:`CompiledKernelUnavailable` when
      numba is absent (checked first, so the error is never masked by
      the window-filter downgrade below);
    * ``window_filter=False`` resolves everything to ``"reference"``:
      the premasked contribution tensors bake the window-overlap
      filter in, so only the tensor path can serve unfiltered
      analyzers.
    """
    if requested not in KERNEL_TIERS:
        raise ValueError(
            f"kernel must be one of {KERNEL_TIERS}, got {requested!r}")
    if requested == "compiled" and not compiled_available():
        raise CompiledKernelUnavailable(
            "kernel='compiled' needs the optional numba dependency, "
            "which is not installed; install numba, or use "
            "kernel='paired' (the default)")
    if not window_filter:
        return "reference"
    return requested

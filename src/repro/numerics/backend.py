"""Numerics backend selection for the batched model hot path.

The hit model has two evaluation paths:

* ``"numpy"`` (the default) — the batched kernels: interval arguments of a
  whole configuration grid gathered into arrays, the CDF transform's grid
  built with one ``cdf_batch`` call, and distribution CDFs evaluated as
  whole-array operations (including a masked vectorised incomplete gamma).
  Only exactly-rounded operations (``+ − × ÷``, comparisons, clamps) are
  vectorised; every transcendental goes through the same ``math`` call the
  scalar code makes, element by element.
* ``"scalar"`` — the original point-by-point evaluation path.  This is the
  oracle: it runs no batch kernel and no ``cdf_batch`` override, and the
  batched path is required (and CI-enforced) to reproduce it byte for byte.

Backend choice is *deterministic state*, not behaviour: both backends
compute bit-for-bit identical floating-point results for the same inputs.
The equivalence suite in ``tests/core/test_batched_equivalence.py`` pins
that contract.

The active backend is process-global.  It is read from the
``REPRO_BACKEND`` environment variable on first use (so worker processes
forked by :mod:`repro.parallel` inherit the driver's choice) and can be
changed explicitly with :func:`set_backend` or temporarily with
:func:`use_backend`.  An unknown name raises
:class:`~repro.exceptions.ConfigurationError` listing the valid ones.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.exceptions import ConfigurationError

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "active_backend",
    "set_backend",
    "use_backend",
    "batching_enabled",
]

#: Recognised backend names, in documentation order.
BACKENDS = ("numpy", "scalar")

#: The backend used when ``REPRO_BACKEND`` is unset.
DEFAULT_BACKEND = "numpy"


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown numerics backend {name!r}; expected one of: "
            + ", ".join(BACKENDS)
        )
    return name


#: The explicitly selected backend; None until first use, when it is read
#: from ``REPRO_BACKEND`` (an unknown name fails there, not at import).
_active: str | None = None


def active_backend() -> str:
    """The currently selected backend name."""
    global _active
    if _active is None:
        _active = _validate(os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND))
    return _active


def set_backend(name: str) -> str | None:
    """Select a backend process-wide; returns the previous selection.

    The previous selection is None while the backend is still the unread
    ``REPRO_BACKEND`` default.
    """
    global _active
    previous = _active
    _active = _validate(name)
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily select a backend (scoped; restores the previous one)."""
    global _active
    previous = set_backend(name)
    try:
        yield name
    finally:
        _active = previous


def batching_enabled() -> bool:
    """True when the active backend routes evaluation through batch kernels."""
    return active_backend() != "scalar"

"""Numeric tolerance used by all floating-point (spectral) checks.

Exact polyhedral paths never consult this; only PSD-cone membership,
eigenvalue checks and float residual comparisons do.  ``tolerance_for``
is the one place that picks between exact equality and the tolerance.
"""

from __future__ import annotations

import os

from .linalg import is_exact

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 20260808

_ENV_VAR = "COMCAT_TOLERANCE"
_override: float | None = None


def numeric_tolerance() -> float:
    """Current tolerance: explicit override > environment > default."""
    if _override is not None:
        return _override
    raw = os.environ.get(_ENV_VAR)
    if raw is not None and raw != "":
        return float(raw)
    return DEFAULT_TOLERANCE


def tolerance_for(*objs) -> float:
    """0 when every object (scalar, vector or matrix) is exact, so that
    exact data must agree exactly; the numeric tolerance otherwise."""
    return 0 if all(is_exact(o) for o in objs) else numeric_tolerance()


def set_tolerance(value: float | None) -> None:
    """Set (or clear, with None) the process-wide tolerance override."""
    global _override
    if value is not None and value <= 0:
        raise ValueError("tolerance must be positive")
    _override = value

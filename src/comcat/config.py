"""Numeric tolerance used by all floating-point (spectral) checks.

The data decides between exact and float.  ``tolerance_for`` is the one
place that picks between exact equality (0, when every operand is an int
or a Fraction) and the tolerance; Python's number types pick the
arithmetic: ``identity(n)`` holds the int 1, which stays exact against
Fractions and becomes float against floats, and ``Fraction(1) / x`` is
exactly ``1.0 / x`` when x is a float.

Three choices stay with a model's kind, because the kind, not the data,
decides them:

- which cone description decides a predicate: facet or generator signs
  for a polyhedral cone, eigenvalues for a PSD one;
- the tolerance of ``composites.in_max_cone``, because a PSD
  factor's probe rays are float data even when the form is exact;
- the refusal of floats in exact models by ``cli``'s ``remote-eval``, an
  input-format rule.
"""

from __future__ import annotations

import math
import os

from .errors import InputError
from .linalg import is_exact

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 20260808

_ENV_VAR = "COMCAT_TOLERANCE"
_override: float | None = None


def numeric_tolerance() -> float:
    """Current tolerance: explicit override > environment > default.

    A COMCAT_TOLERANCE that is not a positive finite number raises
    InputError, as ``set_tolerance`` does."""
    if _override is not None:
        return _override
    raw = os.environ.get(_ENV_VAR)
    if raw is None or raw == "":
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        value = math.nan  # not a number: refused below, as NaN is
    if not 0 < value < math.inf:  # the rule of set_tolerance
        raise InputError(f"{_ENV_VAR}={raw}: tolerance must be positive and finite")
    return value


def tolerance_for(*objs) -> float:
    """0 when every object (scalar, vector or matrix) is exact, so that
    exact data must agree exactly; the numeric tolerance otherwise."""
    return 0 if all(is_exact(o) for o in objs) else numeric_tolerance()


def set_tolerance(value: float | None) -> None:
    """Set (or clear, with None) the process-wide tolerance override."""
    global _override
    if value is not None and not 0 < value < math.inf:  # also refuses NaN
        raise InputError("tolerance must be positive and finite")
    _override = value

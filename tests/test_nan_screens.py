"""A NaN in a float residual is an input error wherever it sits.

Python's ``max`` skips a NaN that follows a number, and NaN > tol is
false, so a residual screen that read ``max_abs`` passed such data.  Each
screen below gets its NaN past the first entry.

A polyhedral predicate reads a given float point by its exact binary
value, which a NaN or an infinity does not have: ``linalg.frac`` refuses
it with InputError naming the value, where it used to escape as the
ValueError or OverflowError of ``Fraction``."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from comcat.conditioning import remote_evaluate, remote_evaluate_dual
from comcat.com import Com, validate_com
from comcat.composites import min_tensor
from comcat.errors import InputError
from comcat.linalg import identity, max_abs
from comcat.models import classical, classical_symmetric_structure, gbit
from comcat.protocols import (
    compact_structure_from_duality,
    factor_morphism,
    find_teleportation,
    verify_compact_structure,
    verify_teleportation,
)
from comcat.selfdual import (
    DualityStructure,
    build_structure,
    canonical_adjoint,
    counit_dual_check,
    tau_is_identity,
)

NAN = float("nan")
NAN_LAST = ((1.0, 0.0), (0.0, NAN))


@pytest.mark.parametrize(
    "obj",
    [
        (1.0, NAN, 0.0),
        [0.5, np.float64(NAN)],
        NAN_LAST,
        NAN,
        [[0.25 * (i - j) for j in range(8)] for i in range(7)] + [[0.0] * 7 + [NAN]],  # the numpy path
    ],
    ids=["vector", "float64", "matrix", "scalar", "8x8"],
)
def test_max_abs_refuses_a_nan_anywhere(obj):
    with pytest.raises(InputError, match="NaN"):
        max_abs(obj)


def test_max_abs_of_exact_and_finite_data_is_unchanged():
    assert max_abs((F(1, 2), -3, 0)) == 3 and max_abs(((1.5, -2.0), (0.0, 1.0))) == 2.0
    assert max_abs((1.0, float("inf"))) == float("inf")


def _teleportation_with_f(f):
    c2 = classical(2)
    c2_min = min_tensor(c2, c2)
    return verify_teleportation(replace(find_teleportation(c2, c2, c2_min, c2_min), f=f), c2, c2)


def _structure():
    return DualityStructure(com=classical(2), gamma_hat=NAN_LAST, f_hat=identity(2))


SCREENS = {
    "teleportation f past the first entry": lambda: _teleportation_with_f((1, NAN, 0, 1)),
    "teleportation f first": lambda: _teleportation_with_f((NAN, 0, 0, 1)),
    "zig-zag": lambda: verify_compact_structure(classical(2), classical(2), (1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, NAN)),
    "factor_morphism": lambda: factor_morphism(
        NAN_LAST, compact_structure_from_duality(classical_symmetric_structure(2))
    ),
    "remote evaluation": lambda: remote_evaluate(
        (1, 0, 0, 1), (F(1, 2), 0, 0, F(1, 2)), (1.0, NAN), *[classical(2)] * 3
    ),
    "dual remote evaluation": lambda: remote_evaluate_dual(
        (1, 0, 0, 1), (F(1, 2), 0, 0, F(1, 2)), (1.0, NAN), *[classical(2)] * 3
    ),
    "inverse": lambda: build_structure(classical(2), identity(2), f_hat=NAN_LAST),
    "adjoint routes": lambda: canonical_adjoint(NAN_LAST, *[classical_symmetric_structure(2)] * 2),
    "symmetry": lambda: _structure().symmetric,
    "twist": lambda: tau_is_identity(_structure()),
    "co-unit": lambda: counit_dual_check(_structure()),
}


@pytest.mark.parametrize("screen", sorted(SCREENS))
def test_nan_residual_is_an_input_error(screen):
    with pytest.raises(InputError, match="NaN"):
        SCREENS[screen]()


INF = float("inf")


def _teleportation_with_omega(omega):
    c2 = classical(2)
    c2_min = min_tensor(c2, c2)
    return verify_teleportation(replace(find_teleportation(c2, c2, c2_min, c2_min), omega=omega), c2, c2)


def _gbit_with_unit(unit):
    g = gbit()
    return validate_com(Com("gbit", g.state_cone, g.effect_cone, unit))


EXACT_READS = {
    "member nan": (lambda: classical(2).state_cone.member((1.0, NAN)), "nan"),
    "strictly_positive nan": (lambda: classical(2).state_cone.strictly_positive((NAN, 1.0)), "nan"),
    "member inf": (lambda: classical(2).state_cone.member((1.0, INF)), "inf"),
    "strictly_positive inf": (lambda: classical(2).state_cone.strictly_positive((1.0, INF)), "inf"),
    "validate_com unit": (lambda: _gbit_with_unit((0.0, 0.0, NAN)), "nan"),
    "teleportation omega": (lambda: _teleportation_with_omega((0.5, 0.0, NAN, 0.5)), "nan"),
}


@pytest.mark.parametrize("read", sorted(EXACT_READS))
def test_a_non_finite_float_read_exactly_is_an_input_error(read):
    call, value = EXACT_READS[read]
    with pytest.raises(InputError, match=f"^{value} is not a finite number"):
        call()

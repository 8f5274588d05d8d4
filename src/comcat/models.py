"""Builtin systems: classical simplices, quantum models, the square bit,
their builtin duality structures, and linearization of finite
outcome/state probability tables.

Models and structures are immutable, so ``builtin`` and
``builtin_structure`` build each name once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
import numpy as np

from . import hermitian
from .com import Com
from .cones import cone_from_generators, dual_cone, psd_cone
from .errors import DegenerateTriple, InputError
from .linalg import frac, rref
from .selfdual import build_structure


def classical(n: int) -> Com:
    """Probability weights on n outcomes: orthant cones, all-ones unit.

    classical(1) is the trivial one-dimensional system."""
    if n < 1:
        raise InputError("n must be at least 1")
    basis = [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
    orthant = cone_from_generators(basis)
    return Com(
        label=f"classical{n}",
        state_cone=orthant,
        effect_cone=cone_from_generators(basis),
        unit=tuple(Fraction(1) for _ in range(n)),
    )


def quantum(d: int) -> Com:
    """Density operators on a d-dimensional Hilbert space, trace unit."""
    if d < 2:
        raise InputError("d must be at least 2")
    cone = psd_cone(d)
    return Com(
        label=f"quantum{d}",
        state_cone=cone,
        effect_cone=psd_cone(d),
        unit=hermitian.unit_coords((d,)),
    )


def gbit() -> Com:
    """The square bit: state cone over the unit square at height one,
    effect cone the full dual (a rotated square), unit (0, 0, 1)."""
    square = cone_from_generators([(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])
    return Com(
        label="gbit",
        state_cone=square,
        effect_cone=dual_cone(square),
        unit=(Fraction(0), Fraction(0), Fraction(1)),
    )


def _number_after(prefix: str, name: str) -> int | None:
    """N when name is prefix followed by the decimal digits of N, else None."""
    digits = name[len(prefix) :]
    return int(digits) if name.startswith(prefix) and digits.isdigit() else None


@cache
def builtin(name: str) -> Com:
    """Resolve a builtin model name: classicalN, quantumD, qubit, gbit."""
    if name == "gbit":
        return gbit()
    if name == "qubit":
        return quantum(2)
    if (n := _number_after("classical", name)) is not None:
        return classical(n)
    if (d := _number_after("quantum", name)) is not None:
        return quantum(d)
    raise KeyError(f"unknown builtin model {name!r}")


# ---------------------------------------------------------------------------
# Probability-table models


@dataclass(frozen=True)
class MackeyTriple:
    """Finite outcomes, finite states, and the outcome probability table.

    p[x][s] is the probability of outcome x on state s; entries in [0, 1].
    States with identical columns are statistically indistinguishable and
    get merged during linearization."""

    outcomes: tuple
    states: tuple
    table: tuple  # |X| x |Sigma|

    def __post_init__(self):
        if len(self.table) != len(self.outcomes):
            raise InputError("table must have one row per outcome")
        for row in self.table:
            if len(row) != len(self.states):
                raise InputError("table must have one column per state")
            for v in row:
                if not (0 <= v <= 1):
                    raise InputError("probabilities must lie in [0, 1]")


def mackey_triple(outcomes, states, table) -> MackeyTriple:
    return MackeyTriple(
        tuple(outcomes), tuple(states), tuple(tuple(frac(v) for v in row) for row in table)
    )


def classical_as_mackey(n: int) -> MackeyTriple:
    """The n-outcome classical experiment: identity probability table."""
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    return mackey_triple(range(n), range(n), ident)


def from_mackey(triple: MackeyTriple) -> Com:
    """Linearize a probability table into a model.

    One reduced row echelon form of the outcome x state table fixes the
    model: its pivot columns are a basis of the column span (the carrier),
    column s of its rows holds the coordinates of state s over that basis,
    the unit is all ones in those coordinates and exists iff every state's
    coordinates sum to one (else the triple is degenerate), and outcome x's
    effect is its table row on the pivot columns.  States with equal
    columns get equal coordinates, so they merge into one ray of the state
    cone; the effect cone is spanned by the outcome effects and the unit."""
    if not triple.states:
        raise DegenerateTriple("no states")
    rows, basis = rref(triple.table)
    coords = [tuple(row[s] for row in rows[: len(basis)]) for s in range(len(triple.states))]
    if any(sum(c) != 1 for c in coords):
        raise DegenerateTriple("no linear functional takes value one on every state")
    u = tuple(Fraction(1) for _ in basis)

    state_cone = cone_from_generators(coords)
    effects = [tuple(row[s] for s in basis) for row in triple.table] + [u]

    return Com(
        label=f"mackey[{len(triple.outcomes)}x{len(triple.states)}]",
        state_cone=state_cone,
        effect_cone=cone_from_generators(effects),
        unit=u,
    )


# ---------------------------------------------------------------------------
# Builtin duality structures


def classical_symmetric_structure(n: int):
    """Perfectly correlated (normalized) state of two classical systems:
    diagonal conditioning map, symmetric, the canonical classical witness."""
    gamma_hat = tuple(
        tuple(Fraction(1, n) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
    return build_structure(builtin(f"classical{n}"), gamma_hat)


def gbit_rotation_structure():
    """Asymmetric square-bit structure: the conditioning map rotates the
    effect square onto the state square (45 degrees with the matching
    dilation, hence rational).  Its twist is the quarter-turn, not the
    identity."""
    gamma_hat = ((Fraction(1), Fraction(-1), Fraction(0)),
                 (Fraction(1), Fraction(1), Fraction(0)),
                 (Fraction(0), Fraction(0), Fraction(1)))
    return build_structure(builtin("gbit"), gamma_hat)


def gbit_reflection_structure():
    """Symmetric square-bit structure: a reflection carrying the effect
    square onto the state square.  Symmetric but indefinite, so the square
    bit is weakly yet not strongly self-dual."""
    gamma_hat = ((Fraction(1), Fraction(1), Fraction(0)),
                 (Fraction(1), Fraction(-1), Fraction(0)),
                 (Fraction(0), Fraction(0), Fraction(1)))
    return build_structure(builtin("gbit"), gamma_hat)


def maximally_entangled_structure(d: int):
    """Quantum structure from the maximally entangled state.

    gamma is the projector form evaluated on basis pairs; the inverting
    map is built independently as d times the transpose superoperator (the
    channel/state correspondence inverse with its dimensional scaling) and
    then verified against the inverse of the conditioning map."""
    if d < 2:
        raise InputError("d must be at least 2")
    psi = np.zeros((d * d, 1), dtype=complex)
    for i in range(d):
        psi[i * d + i, 0] = 1.0
    psi /= np.sqrt(d)
    proj = psi @ psi.conj().T

    n = d * d
    # G[k, l] = Tr(proj kron(B_k, B_l)), the composite basis being kron(B_k, B_l)
    BB = hermitian._stacked((d, d))
    G = np.trace(proj @ BB, axis1=1, axis2=2).real.reshape(n, n)
    gamma_hat = tuple(map(tuple, G.T.tolist()))

    # transpose superoperator in the fixed basis, scaled by d:
    # f_hat[k, l] = d Tr(B_k B_l^T)
    B = hermitian._stacked((d,))
    F = d * np.trace(B[:, None] @ B.transpose(0, 2, 1)[None], axis1=2, axis2=3).real
    f_hat = tuple(map(tuple, F.tolist()))
    return build_structure(quantum(d), gamma_hat, f_hat=f_hat)


def structure_variants(model: str) -> tuple[str, ...]:
    """The builtin structure variants of a builtin model name, the default
    first; () for a name that is not a builtin model's."""
    if model == "gbit":
        return ("reflection", "rotation")
    if _number_after("classical", model) is not None:
        return ("symmetric",)
    if model == "qubit" or _number_after("quantum", model) is not None:
        return ("choi",)
    return ()


@cache
def builtin_structure(name: str):
    """Structure names: classicalN:symmetric, gbit:reflection,
    gbit:rotation, qubit:choi / quantumD:choi (see ``structure_variants``);
    a bare model name takes the first variant.  KeyError for any other
    name."""
    base, _, variant = name.partition(":")
    variants = structure_variants(base)
    if not variants or variant not in ("", *variants):
        raise KeyError(f"unknown builtin structure {name!r}")
    if base == "gbit":
        return gbit_rotation_structure() if variant == "rotation" else gbit_reflection_structure()
    if (n := _number_after("classical", base)) is not None:
        return classical_symmetric_structure(n)
    return maximally_entangled_structure(2 if base == "qubit" else _number_after("quantum", base))


def pauli_fragment_triple() -> MackeyTriple:
    """Four outcomes (z and x basis measurements) against the six Pauli
    eigenstates; the standard qubit fragment with a rank-3 table."""
    h = Fraction(1, 2)
    table = [
        # columns: +z, -z, +x, -x, +y, -y
        [1, 0, h, h, h, h],
        [0, 1, h, h, h, h],
        [h, h, 1, 0, h, h],
        [h, h, 0, 1, h, h],
    ]
    return mackey_triple(["+z", "-z", "+x", "-x"], ["+z", "-z", "+x", "-x", "+y", "-y"], table)

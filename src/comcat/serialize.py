"""JSON codecs for cones, models, composites, structures and certificates.

Rationals serialize as "p/q" strings (plain ints when integral) so that
round-trips are lossless; floats pass through as JSON numbers.  Exact
(polyhedral) data refuses floats: the generators of a polyhedral cone and
the unit of a polyhedral model must be integers or "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .com import Com
from .composites import CompositeCom
from .cones import PSD, Cone, cone_from_generators, psd_cone
from .errors import ComcatError


class SchemaError(ComcatError):
    pass


def num_to_json(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return x
    return float(x)


def num_from_json(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool):
        raise SchemaError("booleans are not numbers")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise SchemaError(f"cannot read number from {v!r}")


def vector_to_json(v):
    return [num_to_json(x) for x in v]


def vector_from_json(v):
    return tuple(num_from_json(x) for x in v)


def exact_vector_from_json(v, field: str):
    """A vector of exact (polyhedral) data; a float is refused, since its
    binary value is seldom the rational that was meant."""
    for x in v:
        if isinstance(x, float):
            raise SchemaError(f"{field}: float {x!r} in exact data; write it as an integer or a \"p/q\" string")
    return vector_from_json(v)


def matrix_to_json(M):
    return [vector_to_json(row) for row in M]


def cone_to_json(C: Cone) -> dict:
    if C.kind == PSD:
        dims = C.hilbert_dims
        total = 1
        for d in dims:
            total *= d
        out: dict[str, Any] = {"kind": "psd", "hilbert_dim": total}
        if len(dims) > 1:
            out["factors"] = list(dims)
        return out
    return {
        "kind": "polyhedral",
        "dim": C.dim,
        "generators": [vector_to_json(g) for g in C.generators],
    }


def cone_from_json(data: dict) -> Cone:
    kind = data.get("kind")
    if kind == "psd":
        dims = tuple(data.get("factors", [data["hilbert_dim"]]))
        return psd_cone(dims)
    if kind != "polyhedral":
        raise SchemaError(f"unknown cone kind {kind!r}")
    gens = [exact_vector_from_json(g, "generators") for g in data["generators"]]
    C = cone_from_generators(gens)
    if C.dim != data.get("dim", C.dim):
        raise SchemaError("declared dimension does not match the generators")
    return C


def com_to_json(com: Com) -> dict:
    out = {
        "label": com.label,
        "dim": com.dim,
        "state_cone": cone_to_json(com.state_cone),
        "effect_cone": cone_to_json(com.effect_cone),
        "unit": vector_to_json(com.unit),
    }
    if isinstance(com, CompositeCom):
        out["composite_kind"] = com.composite_kind
        out["factors"] = [com_to_json(f) for f in com.factors]
    return out


def com_from_json(data: dict) -> Com:
    label = data.get("label", "unnamed")
    state = cone_from_json(data["state_cone"])
    effect = cone_from_json(data["effect_cone"])
    if state.kind == PSD:
        unit = vector_from_json(data["unit"])
    else:
        unit = exact_vector_from_json(data["unit"], "unit")
    if "composite_kind" in data and "factors" in data:
        factors = tuple(com_from_json(f) for f in data["factors"])
        return CompositeCom(
            label=label,
            state_cone=state,
            effect_cone=effect,
            unit=unit,
            factors=factors,
            composite_kind=data["composite_kind"],
        )
    return Com(label=label, state_cone=state, effect_cone=effect, unit=unit)


def structure_to_json(D, verdicts: dict | None = None) -> dict:
    from .selfdual import strongly_self_dual, tau_is_identity

    out = {
        "object": D.com.label,
        "gamma": vector_to_json(D.gamma),
        "f": vector_to_json(D.f),
        "gamma_hat": matrix_to_json(D.gamma_hat),
        "f_hat": matrix_to_json(D.f_hat),
        "tau": matrix_to_json(D.tau),
        "residuals": {k: num_to_json(v) for k, v in D.residuals.items()},
        "verdicts": {
            "weakly_self_dual": True,
            "symmetric": D.symmetric,
            "tau_is_identity": tau_is_identity(D),
            "strongly_self_dual": strongly_self_dual(D),
        },
    }
    if verdicts:
        out["verdicts"].update(verdicts)
    return out


def certificate_to_json(cert) -> dict:
    return {
        "omega": vector_to_json(cert.omega),
        "r_hat": matrix_to_json(cert.r_hat),
        "c": num_to_json(cert.c),
        "f": vector_to_json(cert.f),
        "residual": num_to_json(cert.residual),
    }


def state_from_json(data, field: str | None = None) -> tuple:
    """A vector, bare or as {"vector": [...]}; given a field name it is
    exact data, read by ``exact_vector_from_json``."""
    if isinstance(data, dict):
        data = data["vector"]
    return vector_from_json(data) if field is None else exact_vector_from_json(data, field)


def dumps(obj, **kwargs) -> str:
    return json.dumps(obj, sort_keys=True, **kwargs)

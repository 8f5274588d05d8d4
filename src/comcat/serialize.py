"""JSON codecs for cones, models, composites, structures and certificates.

Rationals serialize as "p/q" strings (plain ints when integral) so that
round-trips are lossless; floats pass through as JSON numbers.
``num_to_json`` and ``vector_to_json`` pass Python ints and floats on as
they are, recognized by their exact type before the costlier
``isinstance`` test against the ``Fraction`` ABC.  A bool stays a bool,
and any other number, a numpy scalar included, becomes a Python float.
Exact (polyhedral) data refuses floats: the generators of a polyhedral
cone and the unit of a polyhedral model must be integers or "p/q"
strings.

``dumps`` writes sorted-key JSON text: compact by ``json``'s C encoder, or
indented, as the CLI prints its reports, by a one-pass writer whose text
is byte for byte that of ``json.dumps(obj, sort_keys=True, indent=...)``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import isfinite, prod
from typing import Any

from .com import Com
from .composites import CompositeCom
from .cones import PSD, Cone, cone_from_generators, psd_cone
from .errors import InputError


class SchemaError(InputError):
    """A JSON document that does not describe what it should."""


def json_field(data, key: str):
    """data[key] of a JSON object; a missing key is a SchemaError."""
    if not isinstance(data, dict):
        raise SchemaError(f"expected a JSON object with field {key!r}")
    if key not in data:
        raise SchemaError(f"missing field {key!r}")
    return data[key]


def expect_json(value, kind: type, field: str):
    """value, which must be a JSON array (kind list) or object (kind dict);
    a SchemaError naming the field otherwise."""
    if not isinstance(value, kind):
        noun = "array" if kind is list else "object"
        raise SchemaError(f"{field}: expected a JSON {noun}, got {value!r}")
    return value


_PLAIN_NUMBERS = frozenset({int, float})  # passed on as they are, without the Fraction ABC check


def num_to_json(x):
    if type(x) in _PLAIN_NUMBERS:
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return x
    return float(x)


def num_from_json(v):
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"cannot read number from {v!r}") from None
    if isinstance(v, bool):
        raise SchemaError("booleans are not numbers")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if not isfinite(v):
            raise SchemaError(f"cannot read number from {v!r}: not finite")
        return v
    raise SchemaError(f"cannot read number from {v!r}")


def vector_to_json(v):
    if _PLAIN_NUMBERS.issuperset(map(type, v)):
        return list(v)
    return [num_to_json(x) for x in v]


def vector_from_json(v):
    return tuple(num_from_json(x) for x in v)


def exact_vector_from_json(v, field: str):
    """A vector of exact (polyhedral) data; a float is refused, since its
    binary value is seldom the rational that was meant."""
    for x in expect_json(v, list, field):
        if isinstance(x, float):
            raise SchemaError(f"{field}: float {x!r} in exact data; write it as an integer or a \"p/q\" string")
    return vector_from_json(v)


def matrix_to_json(M):
    return [vector_to_json(row) for row in M]


def cone_to_json(C: Cone) -> dict:
    if C.kind == PSD:
        dims = C.hilbert_dims
        out: dict[str, Any] = {"kind": "psd", "hilbert_dim": prod(dims)}
        if len(dims) > 1:
            out["factors"] = list(dims)
        return out
    return {
        "kind": "polyhedral",
        "dim": C.dim,
        "generators": [vector_to_json(g) for g in C.generators],
    }


def cone_from_json(data: dict) -> Cone:
    kind = json_field(data, "kind")
    if kind == "psd":
        total = json_field(data, "hilbert_dim")
        factors = expect_json(data.get("factors", [total]), list, "factors")
        for field, dims in (("hilbert_dim", [total]), ("factors", factors)):
            if not all(type(d) is int for d in dims):  # a bool is no dimension
                raise SchemaError(f"{field}: Hilbert dimensions must be JSON integers, got {data[field]!r}")
        if prod(factors) != total:
            raise SchemaError(f"hilbert_dim: {total} is not the product of the factors {factors}")
        return psd_cone(tuple(factors))
    if kind != "polyhedral":
        raise SchemaError(f"unknown cone kind {kind!r}")
    gens = [
        exact_vector_from_json(g, "generators")
        for g in expect_json(json_field(data, "generators"), list, "generators")
    ]
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
    state = cone_from_json(json_field(data, "state_cone"))
    label = data.get("label", "unnamed")
    effect = cone_from_json(json_field(data, "effect_cone"))
    if state.kind == PSD:
        unit = vector_from_json(expect_json(json_field(data, "unit"), list, "unit"))
    else:
        unit = exact_vector_from_json(json_field(data, "unit"), "unit")
    if "composite_kind" in data and "factors" in data:
        factors = tuple(com_from_json(f) for f in expect_json(data["factors"], list, "factors"))
        return CompositeCom(
            label=label,
            state_cone=state,
            effect_cone=effect,
            unit=unit,
            factors=factors,
            composite_kind=data["composite_kind"],
        )
    return Com(label=label, state_cone=state, effect_cone=effect, unit=unit)


def structure_to_json(D) -> dict:
    from .selfdual import strongly_self_dual, tau_is_identity

    return {
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
        data = json_field(data, "vector")
    if field is None:
        return vector_from_json(expect_json(data, list, "vector"))
    return exact_vector_from_json(data, field)


def dumps(obj, indent: int | None = None) -> str:
    """JSON text of obj with sorted keys: one line by the C encoder, or,
    given an indent, the same text as ``json.dumps(obj, sort_keys=True,
    indent=indent)``, written in one pass."""
    if indent is None:
        return json.dumps(obj, sort_keys=True)
    out: list[str] = []
    _write_indented(obj, out, "\n", " " * indent)
    return "".join(out)


_SCALARS = frozenset({str, int, float, bool, type(None)})


@lru_cache()
def _flat_encoder(inner: str):
    """The C encoder's ``encode`` for a container of scalars whose items
    sit on their own lines, each after the newline and indentation inner."""
    return json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).encode


def _key_text(key) -> str:
    """An object key as ``json`` writes it: a string, or a number, bool or
    None in quotes."""
    if isinstance(key, str):
        return json.encoder.encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return json.encoder.encode_basestring_ascii(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_indented(obj, out: list, pad: str, step: str) -> None:
    """Append the indented text of obj to out; pad is the newline and
    indentation of obj's own line.  Scalars and empty containers are
    written by the C encoder, as is a container of scalars, in one call;
    json's pure-Python indenting encoder is the one thing bypassed."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        out.append(json.dumps(obj))
        return
    inner = pad + step
    is_dict = isinstance(obj, dict)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        text = _flat_encoder(inner)(obj)
        out.append(text[0] + inner + text[1:-1] + pad + text[-1])
        return
    if is_dict:
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _key_text(key) + ": ")
            _write_indented(value, out, inner, step)
            sep = "," + inner
        out.append(pad + "}")
    else:
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_indented(value, out, inner, step)
            sep = "," + inner
        out.append(pad + "]")

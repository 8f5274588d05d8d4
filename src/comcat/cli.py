"""Command-line front end: reproducible model checks over JSON files.

Exit codes: 0 property verified / object produced, 1 property refuted
(with a witness in the report), 2 usage or input errors: an unreadable file
or JSON document, or an ``InputError`` (a malformed field, an unknown name,
a bad size or tolerance, a ``remote-eval`` vector whose length does not
fit its models, a pair of models that the requested composite cannot
combine, or a model that a search refuses, ``UnsupportedKind``: a quantum
model given to the exact-only searches of ``teleport``, ``compact-check``,
``wsd`` and ``dagger``, or a polyhedral model with more extreme rays than
their ray matching enumerates).  Any other exception is a fault of the
program, not of its input, and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import models, report, serialize
from .com import Com, validate_com
from .composites import KINDS, tensor
from .conditioning import remote_evaluate
from .cones import POLYHEDRAL, cones_equal, simplicial
from .config import DEFAULT_SEED, numeric_tolerance, set_tolerance, tolerance_for
from .errors import ComcatError, InputError, KindMismatch, MixedKindUnsupported
from .linalg import deviation, matmul, transpose
from .matching import com_isomorphism
from .protocols import check_theory_compact_closed, find_teleportation, verify_teleportation
from .selfdual import (
    build_structure,
    check_symmetric_self_duality,
    check_weak_self_duality,
    dagger_compactness_verdict,
)
from .serialize import (
    SchemaError,
    certificate_to_json,
    com_from_json,
    com_to_json,
    expect_json,
    json_field,
    state_from_json,
    structure_to_json,
    vector_to_json,
)

def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _resolve_model(spec: str) -> tuple[Com, dict]:
    """Model plus an input descriptor with a content hash."""
    if spec.startswith("builtin:"):
        try:
            com = models.builtin(spec[len("builtin:") :])
        except KeyError as exc:
            raise SchemaError(exc.args[0]) from None
        digest = report.hash_text(serialize.dumps(com_to_json(com)))
        return com, {"source": spec, "sha256": digest}
    raw = Path(spec).read_bytes()
    com = com_from_json(json.loads(raw))
    return com, {"source": spec, "sha256": report.hash_bytes(raw)}


def _emit(data: dict, output: str | None) -> None:
    text = serialize.dumps(data, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _finish(args, command, inputs, verdicts, residuals=None, certificates=None, ok=True):
    rep = report.make_report(
        command=command,
        inputs=inputs,
        seed=args.seed,
        tolerance=numeric_tolerance(),
        verdicts=verdicts,
        residuals=residuals,
        certificates=certificates,
        runtime_seconds=round(time.perf_counter() - args.started, 6),
    )
    _emit(rep, args.output)
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    com, desc = _resolve_model(args.model)
    violations = validate_com(com)
    return _finish(
        args,
        "validate",
        {"model": desc},
        {"valid": not violations, "violations": violations},
        ok=not violations,
    )


def _cmd_model(args) -> int:
    if args.which == "classical":
        com = models.classical(args.n)
    elif args.which == "quantum":
        com = models.quantum(args.d)
    elif args.which == "gbit":
        com = models.gbit()
    else:  # mackey
        data = _load_json(args.triple)
        outcomes, states, table = (
            expect_json(json_field(data, key), list, key) for key in ("outcomes", "states", "table")
        )
        triple = models.mackey_triple(
            outcomes, states, [serialize.exact_vector_from_json(row, "table") for row in table]
        )
        com = models.from_mackey(triple)
    _emit(com_to_json(com), args.output)
    return 0


def _composite(A: Com, B: Com, kind: str):
    """``tensor(A, B, kind)``; a pair of models that the kind cannot
    combine is an input error, not a refuted property."""
    try:
        return tensor(A, B, kind)
    except (MixedKindUnsupported, KindMismatch) as exc:
        raise InputError(
            f"no {kind} composite of {A.label} ({A.kind}) and {B.label} ({B.kind}): {exc}"
        ) from None


def _cmd_tensor(args) -> int:
    A, _ = _resolve_model(args.a)
    B, _ = _resolve_model(args.b)
    AB = _composite(A, B, args.kind)
    _emit(com_to_json(AB), args.output)
    return 0


def _cmd_remote_eval(args) -> int:
    A, da = _resolve_model(args.models[0])
    B, db = _resolve_model(args.models[1])
    C, dc = _resolve_model(args.models[2])
    # Exact models take exact vectors only; a float is an input error.
    exact = all(X.kind == "polyhedral" for X in (A, B, C))
    f, omega, alpha = (
        state_from_json(_load_json(getattr(args, name)), name if exact else None)
        for name in ("f", "omega", "alpha")
    )
    lengths = {"f": A.dim * B.dim, "omega": B.dim * C.dim, "alpha": A.dim}
    for (name, length), vector in zip(lengths.items(), (f, omega, alpha)):
        if len(vector) != length:
            raise InputError(f"--{name} has length {len(vector)}, expected {length}")
    result = remote_evaluate(f, omega, alpha, A, B, C)
    return _finish(
        args,
        "remote-eval",
        {"a": da, "b": db, "c": dc},
        {"both_sides_agree": True, "result": vector_to_json(result)},
    )


def _cmd_teleport(args) -> int:
    A, da = _resolve_model(args.a)
    B, db = _resolve_model(args.b)
    ba, ab = _composite(B, A, args.composite), _composite(A, B, KINDS[args.composite][1])
    cert = find_teleportation(A, B, ab, ba)
    verdicts = {"teleportable": False, "composite": args.composite}
    residuals = certificates = None
    if cert is None:
        verdicts["exhausted"] = True
    else:
        check = verify_teleportation(cert, A, B)
        verdicts["teleportable"] = check.ok
        residuals = {k: serialize.num_to_json(v) for k, v in check.residuals.items()}
        certificates = certificate_to_json(cert)
    return _finish(
        args, "teleport", {"a": da, "b": db}, verdicts, residuals, certificates, ok=verdicts["teleportable"]
    )


def _load_theory(spec: str):
    """A theory file lists objects, pairwise composite kinds and optional
    structure variants; bare object specs form a one-object theory."""
    if spec.startswith("builtin:") or not spec.endswith(".json"):
        com, desc = _resolve_model(spec)
        return [com], {}, {}, {"theory": desc}
    raw = Path(spec).read_bytes()
    data = json.loads(raw)
    objs = []
    for entry in expect_json(json_field(data, "objects"), list, "objects"):
        if isinstance(entry, str):
            com, _ = _resolve_model(entry)
        else:
            com = com_from_json(entry)
        if any(other.label == com.label for other in objs):
            raise SchemaError(f"duplicate object label {com.label!r} in theory {spec}")
        objs.append(com)
    composites = expect_json(data.get("composites", {}), dict, "composites")
    structures = expect_json(data.get("structures", {}), dict, "structures")
    return objs, composites, structures, {"theory": {"source": spec, "sha256": report.hash_bytes(raw)}}


def _default_kind(A: Com, B: Com) -> str:
    """spatial for two quantum factors; min when a factor has a simplicial
    state cone (``cones.simplicial``), where min and max coincide for
    saturated factors; max otherwise."""
    if A.kind == "psd" and B.kind == "psd":
        return "spatial"
    if simplicial(A.state_cone) or simplicial(B.state_cone):
        return "min"
    return "max"


def _cmd_compact_check(args) -> int:
    objs, designations, _, inputs = _load_theory(args.theory)
    composites, kinds = {}, {}
    for A in objs:
        for B in objs:
            pair = f"{A.label}|{B.label}"
            kind = kinds[pair] = designations.get(pair, args.composite or _default_kind(A, B))
            if not isinstance(kind, str) or kind not in KINDS:
                raise SchemaError(f"unknown composite kind {kind!r} for {pair}")
            composites[(A.label, B.label)] = _composite(A, B, kind)
            composites[("effects", A.label, B.label)] = _composite(A, B, KINDS[kind][1])
    out = check_theory_compact_closed(objs, composites)
    verdicts = {
        "compact_closed": out["theory_compact_closed"],
        "composites": kinds,
        "objects": {
            A.label: {
                "compact": out[A.label]["compact"],
                "partner": out[A.label]["partner"],
                "exhausted": [" ".join(t) for t in out[A.label]["exhausted"]],
            }
            for A in objs
        },
    }
    certs = {
        A.label: [certificate_to_json(c) for c in out[A.label]["certificates"]]
        for A in objs
        if out[A.label]["certificates"]
    }
    return _finish(
        args,
        "compact-check",
        inputs,
        verdicts,
        certificates=certs,
        ok=out["theory_compact_closed"],
    )


def _cmd_wsd(args) -> int:
    com, desc = _resolve_model(args.model)
    found = check_symmetric_self_duality(com) if args.symmetric else check_weak_self_duality(com)
    return _finish(
        args,
        "wsd",
        {"model": desc},
        {"weakly_self_dual": found is not None, "symmetric_required": args.symmetric},
        certificates=None if found is None else structure_to_json(found),
        ok=found is not None,
    )


def _structure_for(com: Com, variant: str | None):
    """The structure that decides com, or None: the builtin one named by
    its label and variant when com has the builtin's cones and unit, or
    carried over by M = ``com_isomorphism`` (gamma_hat -> M gamma_hat M^T)
    when com is the polyhedral builtin in another basis; else the first
    symmetric, then weak, structure of the search.  An unknown variant of
    a builtin label is an input error."""
    name = com.label if variant is None else f"{com.label}:{variant}"
    try:
        D = models.builtin_structure(name)
    except KeyError:
        known = models.structure_variants(com.label)
        if variant is not None and known:
            raise InputError(
                f"unknown structure variant {variant!r} of {com.label}; known: {', '.join(known)}"
            ) from None
        D = None
    if D is not None:
        builtin = D.com
        if (
            cones_equal(builtin.state_cone, com.state_cone)
            and cones_equal(builtin.effect_cone, com.effect_cone)
            and deviation(builtin.unit, com.unit) <= tolerance_for(builtin.unit, com.unit)
        ):
            return D
        if builtin.kind == com.kind == POLYHEDRAL and (M := com_isomorphism(builtin, com)) is not None:
            return build_structure(com, matmul(matmul(M, D.gamma_hat), transpose(M)))
    return check_symmetric_self_duality(com) or check_weak_self_duality(com)


def _cmd_dagger(args) -> int:
    objs, _, structure_spec, inputs = _load_theory(args.theory)
    items = [(f"structures key {label!r}", label, v) for label, v in structure_spec.items()]
    for item in args.structure or []:
        label, sep, variant = item.partition("=")
        if not sep:
            raise InputError(f"--structure {item!r}: expected LABEL=VARIANT")
        items.append((f"--structure {item!r}", label, variant))
    labels = [com.label for com in objs]
    variants = {}
    for where, label, variant in items:
        if label not in labels:
            raise InputError(f"{where}: no object is labelled {label!r}; objects: {', '.join(labels)}")
        variants[label] = variant
    structures = []
    for com in objs:
        found = _structure_for(com, variants.get(com.label))
        if found is None:
            return _finish(
                args,
                "dagger",
                inputs,
                {"dagger_compact": False, "reason": f"no structure for {com.label}"},
                ok=False,
            )
        structures.append(found)
    verdict = dagger_compactness_verdict(structures)
    verdicts = {
        "dagger_compact": verdict["dagger_compact"],
        "all_equivalences_consistent": verdict["all_consistent"],
        "objects": [
            {
                "label": entry["label"],
                "symmetric": entry["symmetric"],
                "involutive": entry["trio"]["i"],
                "tau_is_identity": entry["trio"]["ii"],
                "consistent": entry["trio"]["consistent"],
            }
            for entry in verdict["objects"]
        ],
    }
    certs = {D.com.label: structure_to_json(D) for D in structures}
    return _finish(
        args,
        "dagger",
        inputs,
        verdicts,
        certificates=certs,
        ok=verdict["dagger_compact"],
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="PRNG seed recorded in reports"
    )
    common.add_argument(
        "--tolerance", type=float, default=None, help="override the spectral tolerance"
    )
    common.add_argument("--output", "-o", default=None, help="write the report/object to a file")

    p = argparse.ArgumentParser(
        prog="comcat",
        description="Verification toolkit for finite-dimensional convex operational models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", parents=[common], help="check the model triple invariants")
    v.add_argument("model")
    v.set_defaults(func=_cmd_validate)

    m = sub.add_parser("model", help="emit a builtin or linearized model")
    msub = m.add_subparsers(dest="which", required=True)
    mc = msub.add_parser("classical", parents=[common])
    mc.add_argument("--n", type=int, required=True)
    mq = msub.add_parser("quantum", parents=[common])
    mq.add_argument("--d", type=int, required=True)
    msub.add_parser("gbit", parents=[common])
    mm = msub.add_parser("mackey", parents=[common])
    mm.add_argument("triple")
    m.set_defaults(func=_cmd_model)

    t = sub.add_parser("tensor", parents=[common], help="compose two models")
    t.add_argument("--kind", choices=["min", "max", "spatial"], required=True)
    t.add_argument("a")
    t.add_argument("b")
    t.set_defaults(func=_cmd_tensor)

    r = sub.add_parser("remote-eval", parents=[common], help="evaluate a remote protocol, both sides")
    r.add_argument("--f", required=True)
    r.add_argument("--omega", required=True)
    r.add_argument("--alpha", required=True)
    r.add_argument("--models", nargs=3, required=True, metavar=("A", "B", "C"))
    r.set_defaults(func=_cmd_remote_eval)

    tp = sub.add_parser("teleport", parents=[common], help="search for a teleportation protocol")
    tp.add_argument("a")
    tp.add_argument("b")
    tp.add_argument("--composite", choices=["min", "max"], default="min",
                    help="composite hosting the shared state")
    tp.set_defaults(func=_cmd_teleport)

    cc = sub.add_parser("compact-check", parents=[common], help="teleportation verdict per object")
    cc.add_argument("theory")
    cc.add_argument("--composite", choices=["min", "max"], default=None)
    cc.set_defaults(func=_cmd_compact_check)

    w = sub.add_parser("wsd", parents=[common], help="search for a (symmetric) self-duality structure")
    w.add_argument("model")
    w.add_argument("--symmetric", action="store_true")
    w.set_defaults(func=_cmd_wsd)

    d = sub.add_parser("dagger", parents=[common], help="dagger-compactness verdict for a theory")
    d.add_argument("theory")
    d.add_argument(
        "--structure",
        action="append",
        metavar="LABEL=VARIANT",
        help="structure variant per object, e.g. gbit=rotation",
    )
    d.set_defaults(func=_cmd_dagger)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        if args.tolerance is not None:
            set_tolerance(args.tolerance)
        return args.func(args)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"comcat: input error: {exc}", file=sys.stderr)
        return 2
    except ComcatError as exc:
        print(f"comcat: {exc}", file=sys.stderr)
        return 1
    finally:
        set_tolerance(None)


if __name__ == "__main__":
    sys.exit(main())

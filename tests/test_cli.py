import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import comcat
import serialize_oracle
from comcat.cli import build_parser, main
from comcat.com import Com
from comcat.cones import cone_from_generators, dual_cone
from comcat.linalg import inverse, matrix_to_vec, matvec, transpose
from comcat.models import classical, gbit, quantum
from comcat.selfdual import check_symmetric_self_duality, verify_isomorphism_state
from comcat.composites import min_tensor, spatial_quantum_composite
from comcat.serialize import (
    SchemaError,
    com_from_json,
    com_to_json,
    cone_from_json,
    cone_to_json,
    dumps,
    num_from_json,
    num_to_json,
    vector_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def body_of(stdout: str) -> dict:
    return json.loads(stdout)["body"]


def test_number_codec_round_trip():
    values = [F(1, 3), F(-7, 2), F(4), 0.125, 0.1, -3.0]
    for v in values:
        assert num_from_json(json.loads(json.dumps(num_to_json(v)))) == v


NUMBERS = st.one_of(
    st.integers(),
    st.booleans(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324]),
    st.fractions(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def _same_json_number(x, y) -> bool:
    """Equal values of the same type, -0.0 and NaN told apart by repr."""
    return type(x) is type(y) and repr(x) == repr(y)


@given(NUMBERS)
def test_num_to_json_equals_the_isinstance_encoder(x):
    assert _same_json_number(num_to_json(x), serialize_oracle.num_to_json(x))


@given(st.one_of(st.lists(NUMBERS), st.lists(st.one_of(st.integers(), st.floats())).map(tuple)))
def test_vector_to_json_equals_the_isinstance_encoder(v):
    got, expected = vector_to_json(v), serialize_oracle.vector_to_json(v)
    assert type(got) is list and len(got) == len(expected)
    assert all(map(_same_json_number, got, expected))


def test_cone_json_round_trip():
    g = gbit()
    for cone in (g.state_cone, g.effect_cone, quantum(2).state_cone):
        back = cone_from_json(json.loads(dumps(cone_to_json(cone))))
        from comcat.cones import cones_equal

        assert cones_equal(back, cone)


def test_com_json_round_trip_all_fields():
    for model in (classical(3), gbit(), quantum(2)):
        data = json.loads(dumps(com_to_json(model)))
        back = com_from_json(data)
        assert back.label == model.label
        assert back.unit == model.unit
        assert json.loads(dumps(com_to_json(back))) == data


def test_composite_json_round_trip():
    M = min_tensor(classical(2), gbit())
    data = json.loads(dumps(com_to_json(M)))
    back = com_from_json(data)
    assert back.composite_kind == "min"
    assert back.factors[0].label == "classical2"
    assert json.loads(dumps(com_to_json(back))) == data


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text()
    | st.text(alphabet='"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children)
    | st.dictionaries(st.integers(), children),
    max_leaves=40,
)


@given(_json_values, st.sampled_from([0, 1, 2, 4]))
@example({"a": [], "b": {}, "c": (), "d": [(1, 2.5), ({},)], "e": {"f": (None, True, "\u00e9")}}, 2)
def test_indented_dumps_is_the_json_text(value, indent):
    assert dumps(value, indent=indent) == json.dumps(value, sort_keys=True, indent=indent)


def _psd_model(hilbert_dim, factors=None) -> dict:
    doc = com_to_json(spatial_quantum_composite(quantum(2), quantum(2)))
    for cone in ("state_cone", "effect_cone"):
        doc[cone] = {"kind": "psd", "hilbert_dim": hilbert_dim}
        if factors is not None:
            doc[cone]["factors"] = factors
    return doc


def test_psd_hilbert_dim_must_be_the_product_of_the_factors(tmp_path, capsys):
    code, out, err = run(capsys, "validate", _write(tmp_path, "bad.json", _psd_model(5, [2, 2])))
    assert (code, out) == (2, "")
    assert "hilbert_dim: 5 is not the product of the factors [2, 2]" in err
    code, out, err = run(capsys, "validate", _write(tmp_path, "good.json", _psd_model(4, [2, 2])))
    assert code == 0, err
    assert cone_from_json({"kind": "psd", "hilbert_dim": 4, "factors": [2, 2]}).hilbert_dims == (2, 2)
    assert cone_from_json({"kind": "psd", "hilbert_dim": 4}).hilbert_dims == (4,)


def test_validate_builtin_ok(capsys):
    code, out, _ = run(capsys, "validate", "builtin:classical2")
    assert code == 0
    assert body_of(out)["verdicts"]["valid"] is True


def test_validate_broken_model_exit_one(tmp_path, capsys):
    data = com_to_json(classical(2))
    data["unit"] = [1, 0]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    body = body_of(out)
    assert body["verdicts"]["valid"] is False
    assert body["verdicts"]["violations"]


def test_validate_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2
    assert "input error" in err


def test_model_and_tensor_files(tmp_path, capsys):
    trit = tmp_path / "trit.json"
    code, _, _ = run(capsys, "model", "classical", "--n", "3", "-o", str(trit))
    assert code == 0
    assert json.loads(trit.read_text())["dim"] == 3
    out_file = tmp_path / "pair.json"
    code, _, _ = run(capsys, "tensor", "--kind", "min", str(trit), "builtin:classical2", "-o", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["dim"] == 6


def test_model_mackey(tmp_path, capsys):
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps({
        "outcomes": [0, 1],
        "states": ["s", "t"],
        "table": [[1, 0], [0, 1]],
    }))
    code, out, _ = run(capsys, "model", "mackey", str(triple))
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_wsd_gbit_symmetric(capsys):
    code, out, _ = run(capsys, "wsd", "builtin:gbit", "--symmetric")
    assert code == 0
    body = body_of(out)
    assert body["verdicts"]["weakly_self_dual"] is True
    cert = json.loads(out)["body"]["certificates"]
    assert cert["verdicts"]["symmetric"] is True
    assert cert["verdicts"]["strongly_self_dual"] is False


def test_dagger_builtin_classical(capsys):
    code, out, _ = run(capsys, "dagger", "builtin:classical2")
    assert code == 0
    assert body_of(out)["verdicts"]["dagger_compact"] is True


def test_dagger_gbit_rotation_refuted(capsys):
    code, out, _ = run(capsys, "dagger", "builtin:gbit", "--structure", "gbit=rotation")
    assert code == 1
    body = body_of(out)
    assert body["verdicts"]["dagger_compact"] is False
    assert body["verdicts"]["all_equivalences_consistent"] is True


def test_dagger_unknown_variant_of_a_builtin_label_exits_two(capsys, tmp_path):
    theory = _write(tmp_path, "theory.json", {"objects": ["builtin:gbit"], "structures": {"gbit": "rotaton"}})
    for argv in (("builtin:gbit", "--structure", "gbit=rotaton"), (theory,)):
        code, out, err = run(capsys, "dagger", *argv)
        assert (code, out) == (2, "")
        assert "unknown structure variant 'rotaton' of gbit; known: reflection, rotation" in err


def test_dagger_variant_of_a_label_that_is_not_builtin_still_searches(capsys, tmp_path):
    doc = com_to_json(classical(2))
    doc["label"] = "classical_bit"
    theory = _write(tmp_path, "theory.json", {"objects": [doc], "structures": {"classical_bit": "any"}})
    code, out, err = run(capsys, "dagger", theory)
    assert code == 0, err
    assert body_of(out)["verdicts"]["dagger_compact"] is True


def _gamma_hat(cert: dict) -> tuple:
    return tuple(tuple(num_from_json(x) for x in row) for row in cert["gamma_hat"])


@pytest.mark.parametrize("label", ["classical3", "quantum2"])
def test_dagger_decides_a_mislabelled_gbit_by_the_search(capsys, tmp_path, label):
    """A builtin label with another model's data gets no builtin structure
    (I/3, or the 4 x 4 Choi map): the search finds the gbit's own
    reflection."""
    doc = com_to_json(gbit())
    doc["label"] = label
    code, out, err = run(capsys, "dagger", _write(tmp_path, "theory.json", {"objects": [doc]}))
    assert code == 0, err
    cert = body_of(out)["certificates"][label]
    expected = check_symmetric_self_duality(com_from_json(doc))
    assert _gamma_hat(cert) == expected.gamma_hat
    assert not verify_isomorphism_state(matrix_to_vec(transpose(_gamma_hat(cert))), gbit())


def _gbit_in_basis(U) -> Com:
    """The gbit with states carried by U and effects by U^-T."""
    g, V = gbit(), transpose(inverse(U))
    return Com(
        label="gbit",
        state_cone=cone_from_generators([matvec(U, x) for x in g.state_cone.generators]),
        effect_cone=cone_from_generators([matvec(V, e) for e in g.effect_cone.generators]),
        unit=matvec(V, g.unit),
    )


@pytest.mark.parametrize("variant, code", [("rotation", 1), ("reflection", 0)])
def test_dagger_carries_a_builtin_structure_into_the_objects_basis(capsys, tmp_path, variant, code):
    com = _gbit_in_basis(((1, 1, 0), (0, 1, 0), (1, -2, 1)))
    theory = _write(tmp_path, "theory.json", {"objects": [com_to_json(com)]})
    got, out, err = run(capsys, "dagger", theory, "--structure", f"gbit={variant}")
    assert got == code, err
    gamma_hat = _gamma_hat(body_of(out)["certificates"]["gbit"])
    assert not verify_isomorphism_state(matrix_to_vec(transpose(gamma_hat)), com)
    assert verify_isomorphism_state(matrix_to_vec(transpose(gamma_hat)), gbit())


def _with(doc, path, value):
    """A copy of a JSON document with the entry at path (a key sequence)
    set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    inner = doc
    for key in parents:
        inner = inner[key]
    inner[last] = value
    return doc


@pytest.mark.parametrize(
    "command, doc, field, kind",
    [
        (("dagger",), {"objects": "builtin:gbit"}, "objects", "array"),
        (("dagger",), {"objects": ["builtin:gbit"], "structures": ["gbit"]}, "structures", "object"),
        (("model", "mackey"), {"outcomes": [0], "states": ["s"], "table": 1}, "table", "array"),
        (("validate",), _with(com_to_json(gbit()), ["state_cone", "generators"], 4), "generators", "array"),
        (("validate",), _with(com_to_json(quantum(2)), ["state_cone", "factors"], 2), "factors", "array"),
        (("validate",), _with(com_to_json(quantum(2)), ["unit"], 1), "unit", "array"),
    ],
    ids=["objects", "structures", "table", "generators", "factors", "psd-unit"],
)
def test_fields_of_the_wrong_json_type_exit_two(capsys, tmp_path, command, doc, field, kind):
    code, out, err = run(capsys, *command, _write(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert f"{field}: expected a JSON {kind}" in err


@pytest.mark.parametrize("label", ["classical_bit", "quantum_bit", "bit"])
def test_dagger_searches_for_labels_that_are_not_builtin_names(capsys, tmp_path, label):
    doc = com_to_json(classical(2))
    doc["label"] = label
    theory = tmp_path / "theory.json"
    theory.write_text(dumps({"objects": [doc]}))
    code, out, err = run(capsys, "dagger", str(theory))
    assert code == 0, err
    assert body_of(out)["verdicts"]["objects"][0]["label"] == label


def test_teleport_classical(capsys):
    code, out, _ = run(capsys, "teleport", "builtin:classical2", "builtin:classical2", "--composite", "min")
    assert code == 0
    report = json.loads(out)
    assert report["body"]["certificates"]["c"] == "1/2"


def test_teleport_gbit_min_refuted(capsys):
    code, out, _ = run(capsys, "teleport", "builtin:gbit", "builtin:gbit", "--composite", "min")
    assert code == 1
    assert body_of(out)["verdicts"]["exhausted"] is True


def test_compact_check_theory(tmp_path, capsys):
    theory = tmp_path / "theory.json"
    theory.write_text(json.dumps({
        "objects": ["builtin:classical2", "builtin:classical3"],
    }))
    code, out, _ = run(capsys, "compact-check", str(theory))
    assert code == 0
    assert body_of(out)["verdicts"]["compact_closed"] is True


@pytest.mark.parametrize("kind", ["min", "max", "spatial"])
def test_tensor_of_a_quantum_and_a_polyhedral_model_exits_two(capsys, kind):
    code, out, err = run(capsys, "tensor", "builtin:qubit", "builtin:classical2", "--kind", kind)
    assert code == 2 and not out
    assert "composite of quantum2 (psd) and classical2 (polyhedral)" in err


def test_teleport_of_a_quantum_and_a_polyhedral_model_exits_two(capsys):
    code, out, err = run(capsys, "teleport", "builtin:qubit", "builtin:classical2")
    assert code == 2 and not out
    assert "no min composite of classical2 (polyhedral) and quantum2 (psd)" in err


def test_compact_check_of_a_mixed_theory_exits_two(tmp_path, capsys):
    theory = _write(tmp_path, "theory.json", {"objects": ["builtin:qubit", "builtin:classical2"]})
    code, out, err = run(capsys, "compact-check", theory)
    assert code == 2 and not out
    assert "no min composite of quantum2 (psd) and classical2 (polyhedral)" in err


@pytest.mark.parametrize(
    "command, search",
    [("compact-check", "the teleportation search"), ("wsd", "the self-duality search")],
)
def test_exact_only_search_of_a_quantum_model_exits_two(capsys, command, search):
    code, out, err = run(capsys, command, "builtin:qubit")
    assert code == 2 and not out
    assert err == f"comcat: input error: {search} is exact-only, and quantum2 is psd\n"


def _decagon() -> dict:
    """The polyhedral model on 10 of the 12 lattice points of the radius-5
    circle, (x, y, 1): ten extreme rays, beyond ``matching.MAX_RAYS``."""
    points = [(5, 0), (4, 3), (3, 4), (-3, 4), (-4, 3), (-5, 0), (-4, -3), (-3, -4), (3, -4), (4, -3)]
    state = cone_from_generators([(x, y, 1) for x, y in points])
    return com_to_json(Com(label="decagon", state_cone=state, effect_cone=dual_cone(state), unit=(0, 0, 1)))


@pytest.mark.parametrize("command", [["wsd"], ["wsd", "--symmetric"], ["dagger"]])
def test_self_duality_search_beyond_the_ray_bound_exits_two(tmp_path, capsys, command):
    model = _write(tmp_path, "decagon.json", _decagon())
    arg = _write(tmp_path, "theory.json", {"objects": [model]}) if command == ["dagger"] else model
    code, out, err = run(capsys, *command, arg)
    assert code == 2 and not out
    assert err == (
        "comcat: input error: the self-duality search is exhaustive up to 8 extreme rays, "
        "and decagon has 10\n"
    )


@pytest.mark.parametrize("command", [["teleport", "builtin:classical9"], ["compact-check"]])
def test_teleportation_search_beyond_the_ray_bound_exits_two(tmp_path, capsys, command):
    report = tmp_path / "report.json"
    code, out, err = run(capsys, *command, "builtin:classical9", "-o", str(report))
    assert code == 2 and not out and not report.exists()
    assert err == (
        "comcat: input error: the teleportation search is exhaustive up to 8 extreme rays, "
        "and classical9 has 9\n"
    )


def test_remote_eval_cli(tmp_path, capsys):
    f = tmp_path / "f.json"
    omega = tmp_path / "omega.json"
    alpha = tmp_path / "alpha.json"
    f.write_text(json.dumps({"vector": ["1/2", 0, 0, "1/2"]}))
    omega.write_text(json.dumps({"vector": ["1/2", 0, 0, "1/2"]}))
    alpha.write_text(json.dumps({"vector": ["1/3", "2/3"]}))
    code, out, _ = run(
        capsys,
        "remote-eval", "--f", str(f), "--omega", str(omega), "--alpha", str(alpha),
        "--models", "builtin:classical2", "builtin:classical2", "builtin:classical2",
    )
    assert code == 0
    assert body_of(out)["verdicts"]["result"] == ["1/12", "1/6"]


def _write_vectors(tmp_path, vectors):
    """JSON files for remote-eval's --f/--omega/--alpha, as argv."""
    argv = []
    for name, vector in vectors.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(vector))
        argv += [f"--{name}", str(path)]
    return argv


def test_remote_eval_refuses_floats_for_exact_models(tmp_path, capsys):
    exact = {"f": ["1/2", 0, 0, "1/2"], "omega": ["1/2", 0, 0, "1/2"], "alpha": ["1/10", "9/10"]}
    floats = {"f": [0.5, 0, 0, 0.5], "omega": [0.5, 0, 0, 0.5], "alpha": [0.1, 0.9]}
    for name in exact:
        vectors = dict(exact, **{name: floats[name]})
        code, out, err = run(
            capsys, "remote-eval", *_write_vectors(tmp_path, vectors),
            "--models", "builtin:classical2", "builtin:classical2", "builtin:classical2",
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"comcat: input error: {name}: float ")


@pytest.mark.parametrize("name, expected", [("f", 4), ("omega", 4), ("alpha", 2)])
def test_remote_eval_vector_of_the_wrong_length_exits_two(tmp_path, capsys, name, expected):
    vectors = {"f": ["1/2", 0, 0, "1/2"], "omega": ["1/2", 0, 0, "1/2"], "alpha": ["1/3", "2/3"]}
    vectors[name] = ["1/3"] * 3
    code, out, err = run(
        capsys, "remote-eval", *_write_vectors(tmp_path, vectors),
        "--models", "builtin:classical2", "builtin:classical2", "builtin:classical2",
    )
    assert (code, out) == (2, "")
    assert err == f"comcat: input error: --{name} has length 3, expected {expected}\n"


def test_remote_eval_accepts_floats_for_psd_models(tmp_path, capsys):
    vectors = {"f": [0.5] + [0] * 15, "omega": [0.25] + [0] * 15, "alpha": [0.5, 0, 0, 0.5]}
    code, out, _ = run(
        capsys, "remote-eval", *_write_vectors(tmp_path, vectors),
        "--models", "builtin:qubit", "builtin:qubit", "builtin:qubit",
    )
    assert code == 0
    assert body_of(out)["verdicts"]["result"] == [0.0625, 0.0, 0.0, 0.0]


def test_bad_tolerance_is_an_input_error(capsys):
    from comcat.config import DEFAULT_TOLERANCE, numeric_tolerance

    for value in ("-1", "0", "nan", "inf"):
        code, out, err = run(capsys, "validate", "builtin:qubit", "--tolerance", value)
        assert (code, out) == (2, "")
        assert err == "comcat: input error: tolerance must be positive and finite\n"
        assert numeric_tolerance() == DEFAULT_TOLERANCE


@pytest.mark.parametrize("value, command", [("nan", "validate"), ("0", "dagger")])
def test_bad_tolerance_env_is_an_input_error(capsys, monkeypatch, value, command):
    monkeypatch.setenv("COMCAT_TOLERANCE", value)
    code, out, err = run(capsys, command, "builtin:qubit")
    assert (code, out) == (2, "")
    assert err == (
        f"comcat: input error: COMCAT_TOLERANCE={value}: tolerance must be positive and finite\n"
    )


def test_seed_recorded_and_bodies_reproducible(capsys):
    code1, out1, _ = run(capsys, "dagger", "builtin:gbit", "--seed", "7")
    code2, out2, _ = run(capsys, "dagger", "builtin:gbit", "--seed", "7")
    assert code1 == code2 == 0
    b1, b2 = json.loads(out1), json.loads(out2)
    assert b1["body"]["seed"] == 7
    assert json.dumps(b1["body"], sort_keys=True) == json.dumps(b2["body"], sort_keys=True)
    assert b1["body_sha256"] == b2["body_sha256"]


def test_different_seed_same_verdict(capsys):
    _, out1, _ = run(capsys, "dagger", "builtin:qubit", "--seed", "1")
    _, out2, _ = run(capsys, "dagger", "builtin:qubit", "--seed", "2")
    v1 = body_of(out1)["verdicts"]
    v2 = body_of(out2)["verdicts"]
    assert v1 == v2


def test_tolerance_env_override(monkeypatch):
    from comcat.config import numeric_tolerance

    monkeypatch.setenv("COMCAT_TOLERANCE", "1e-6")
    assert numeric_tolerance() == 1e-6
    monkeypatch.delenv("COMCAT_TOLERANCE")
    assert numeric_tolerance() == 1e-9


def test_cached_parser_keeps_no_state_between_commands(capsys):
    # The parser is built once per process.  A --tolerance on one command
    # must not reach the next: its body equals that of a fresh process.
    assert build_parser() is build_parser()
    code, _, _ = run(capsys, "dagger", "builtin:qubit", "--tolerance", "1e-3")
    assert code == 0
    code, out, _ = run(capsys, "validate", "builtin:quantum2")
    assert code == 0
    fresh = subprocess.run(
        [sys.executable, "-m", "comcat.cli", "validate", "builtin:quantum2"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(comcat.__file__).parent.parent)},
    )
    assert body_of(out) == body_of(fresh.stdout)


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_float_in_exact_data_exits_two_naming_field_and_value(tmp_path, capsys):
    gen = com_to_json(gbit())
    gen["state_cone"]["generators"][0] = [0.1, 1, 1]
    unit = com_to_json(classical(2))
    unit["unit"] = [0.5, 1]
    table = {"outcomes": [0, 1], "states": ["s", "t"], "table": [[1, 0.25], [0, 1]]}
    for argv, field, value in [
        (("validate", _write(tmp_path, "gen.json", gen)), "generators", "0.1"),
        (("validate", _write(tmp_path, "unit.json", unit)), "unit", "0.5"),
        (("model", "mackey", _write(tmp_path, "table.json", table)), "table", "0.25"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert f"{field}: float {value}" in err


def test_float_unit_of_quantum_model_still_loads(tmp_path, capsys):
    data = com_to_json(quantum(2))
    data["unit"] = [float(x) for x in data["unit"]]
    code, out, _ = run(capsys, "validate", _write(tmp_path, "qubit.json", data))
    assert code == 0
    assert body_of(out)["verdicts"]["valid"] is True


def test_duplicate_theory_label_exits_two(tmp_path, capsys):
    fake = com_to_json(gbit())
    fake["label"] = "classical2"
    theory = _write(tmp_path, "theory.json", {"objects": ["builtin:classical2", fake]})
    for command in ("compact-check", "dagger"):
        code, out, err = run(capsys, command, theory)
        assert code == 2 and not out
        assert "duplicate object label 'classical2'" in err


def test_default_composite_does_not_depend_on_the_label(tmp_path, capsys):
    verdicts = []
    for label in ("gbit", "classicalish"):
        square = com_to_json(gbit())
        square["label"] = label
        code, out, _ = run(capsys, "compact-check", _write(tmp_path, f"{label}.json", {"objects": [square]}))
        verdicts.append((code, body_of(out)["verdicts"]["objects"][label]["compact"]))
    assert verdicts == [(0, True), (0, True)]


def test_compact_check_body_records_the_composite_of_each_pair(tmp_path, capsys):
    for argv, kind in [((), "max"), (("--composite", "max"), "max"), (("--composite", "min"), "min")]:
        code, out, _ = run(capsys, "compact-check", "builtin:gbit", *argv)
        assert body_of(out)["verdicts"]["composites"] == {"gbit|gbit": kind}
    theory = _write(tmp_path, "theory.json", {
        "objects": ["builtin:classical2", "builtin:gbit"],
        "composites": {"classical2|gbit": "max"},
    })
    code, out, _ = run(capsys, "compact-check", theory)
    assert body_of(out)["verdicts"]["composites"] == {
        "classical2|classical2": "min",
        "classical2|gbit": "max",
        "gbit|classical2": "min",
        "gbit|gbit": "max",
    }


def test_input_errors_at_each_parsing_site_exit_two(tmp_path, capsys, monkeypatch):
    no_unit = com_to_json(classical(2))
    del no_unit["unit"]
    bad_number = com_to_json(classical(2))
    bad_number["unit"] = ["1/0", 1]
    no_table = {"outcomes": [0, 1], "states": ["s"]}
    bad_kind = {"objects": ["builtin:classical2"], "composites": {"classical2|classical2": "sideways"}}
    no_qudit = com_to_json(quantum(2))
    no_qudit["state_cone"]["hilbert_dim"] = 0
    number_unit = com_to_json(classical(2))
    number_unit["unit"] = 5
    listed_composites = {"objects": ["builtin:classical2"], "composites": ["min"]}
    string_dim = com_to_json(quantum(2))
    string_dim["state_cone"]["hilbert_dim"] = "2"
    string_factor = com_to_json(quantum(2))
    string_factor["state_cone"]["factors"] = ["2"]
    stray_structure = {"objects": ["builtin:gbit"], "structures": {"nothere": "rotation"}}
    cases = [
        (("validate", "builtin:nonsense"), "unknown builtin model 'nonsense'"),
        (("validate", _write(tmp_path, "no_unit.json", no_unit)), "missing field 'unit'"),
        (("validate", _write(tmp_path, "bad_number.json", bad_number)), "cannot read number from '1/0'"),
        (("model", "mackey", _write(tmp_path, "no_table.json", no_table)), "missing field 'table'"),
        (("model", "classical", "--n", "0"), "n must be at least 1"),
        (("validate", _write(tmp_path, "no_qudit.json", no_qudit)), "positive Hilbert dimensions"),
        (("compact-check", _write(tmp_path, "kind.json", bad_kind)), "unknown composite kind 'sideways'"),
        (("validate", _write(tmp_path, "number_unit.json", number_unit)), "unit: expected a JSON array"),
        (("compact-check", _write(tmp_path, "listed.json", listed_composites)),
         "composites: expected a JSON object"),
        (("validate", _write(tmp_path, "string_dim.json", string_dim)),
         "hilbert_dim: Hilbert dimensions must be JSON integers, got '2'"),
        (("validate", _write(tmp_path, "string_factor.json", string_factor)),
         "factors: Hilbert dimensions must be JSON integers, got ['2']"),
        (("dagger", "builtin:gbit", "--structure", "nothere=rotation"),
         "--structure 'nothere=rotation': no object is labelled 'nothere'; objects: gbit"),
        (("dagger", "builtin:gbit", "--structure", "gbit"), "--structure 'gbit': expected LABEL=VARIANT"),
        (("dagger", _write(tmp_path, "stray.json", stray_structure)),
         "structures key 'nothere': no object is labelled 'nothere'; objects: gbit"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("comcat: input error: ") and message in err, err
    monkeypatch.setenv("COMCAT_TOLERANCE", "tiny")
    code, out, err = run(capsys, "validate", "builtin:qubit")
    assert (code, out) == (2, "")
    assert "COMCAT_TOLERANCE=tiny: tolerance must be positive and finite" in err


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_internal_key_and_value_errors_are_not_input_errors(monkeypatch, capsys, error):
    # A fault inside a command is not the input's: it propagates with its
    # traceback instead of exiting 2 as "input error".
    def broken(com):
        raise error("internal lookup failed")

    monkeypatch.setattr("comcat.cli.check_weak_self_duality", broken)
    with pytest.raises(error, match="internal lookup failed"):
        main(["wsd", "builtin:gbit"])
    assert "input error" not in capsys.readouterr().err


def test_json_numbers_load_as_ints_and_fractions():
    assert type(num_from_json(3)) is int and num_from_json(3) == 3
    assert num_from_json(json.loads('"3/2"')) == F(3, 2) and type(num_from_json("3/2")) is F
    assert type(num_from_json(0.5)) is float
    for value in (True, False):
        with pytest.raises(SchemaError, match="booleans are not numbers"):
            num_from_json(value)
    back = com_from_json(json.loads(dumps(com_to_json(gbit()))))
    assert all(type(x) is int for g in back.state_cone.generators for x in g)
    assert all(type(x) is int for x in back.unit)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_in_a_model_exits_two_naming_it(tmp_path, capsys, token):
    # json.loads reads these tokens as floats; a qubit unit holding one
    # made dagger refuse the model as non-polyhedral (exit 1).
    value = float(token.replace("Infinity", "inf"))
    data = com_to_json(quantum(2))
    data["unit"] = [float(x) for x in data["unit"]]
    data["unit"][0] = value
    model = _write(tmp_path, "qubit.json", data)
    theory = _write(tmp_path, "theory.json", {"objects": [data]})
    assert token in Path(model).read_text()
    for argv in (("validate", model), ("dagger", theory)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"cannot read number from {value!r}: not finite" in err

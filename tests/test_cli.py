import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import comcat
from comcat.cli import build_parser, main
from comcat.models import classical, gbit, quantum
from comcat.composites import min_tensor
from comcat.serialize import (
    com_from_json,
    com_to_json,
    cone_from_json,
    cone_to_json,
    dumps,
    num_from_json,
    num_to_json,
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

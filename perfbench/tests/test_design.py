"""BENCHMARK.json, design.json and the code agree; metric arithmetic."""

import json
import re
from pathlib import Path

import pytest

import reference
import run
import worker
import workloads

HERE = Path(__file__).resolve().parent.parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"] and BENCH["command"][1].startswith("perfbench/")
    names = [w["name"] for w in BENCH["workloads"]] + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_tables_match_the_runner():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_design_predictions_name_real_metrics():
    assert set(DESIGN["workloads"]) == set(run.WORKLOADS)
    known = set(run.PER_LAYER_UNITS) | set(run.END_TO_END_UNITS)
    for spec in DESIGN["workloads"].values():
        for prediction in spec["predictions"]:
            assert set(prediction["layer"]) <= known
            assert set(prediction.get("moves", [])) <= known


def test_schedule_runs_each_family_weight_times_spread_out():
    fams = [workloads.Family(f"f{i}", w, []) for i, w in enumerate((1, 3, 12))]
    order = worker.schedule(fams)
    assert [order.count(i) for i in range(3)] == [1, 3, 12]
    halves = order[: len(order) // 2], order[len(order) // 2:]
    assert abs(halves[0].count(2) - halves[1].count(2)) <= 1


def _sample(durations_by_family, weights, reference_s=reference.REFERENCE_S):
    return {
        "families": {n: {"weight": weights[n], "durations": d} for n, d in durations_by_family.items()},
        "references": [(reference_s * 0.9, reference_s), (reference_s, reference_s * 1.5), (reference_s * 2, reference_s / 2)],
        "rss_kib": 2048, "attempted": 110, "failed": 0, "rounds": 1.5,
    }


SLOW = [1.0 + i / 10 for i in range(21)]  # median 2.0, ten samples above it


def test_end_to_end_metrics_count_each_family_at_its_median():
    sample = _sample({"fast": [0.02, 0.01, 0.03], "slow": SLOW}, {"fast": 80, "slow": 20})
    metrics, _ = run.end_to_end(sample, [0.3, 0.1, 0.2])
    assert metrics["checks_per_s"] == pytest.approx(100 / (80 * 0.02 + 20 * 2.0))
    assert metrics["check_s.p50"] == pytest.approx(0.02)
    assert metrics["check_s.p90"] == pytest.approx(2.0)
    assert metrics["peak_rss_mb"] == 2.0 and metrics["setup_s"] == 0.2


def test_times_are_normalized_by_the_reference_medians():
    durations, weights = {"fast": [0.02], "slow": SLOW}, {"fast": 80, "slow": 20}
    quiet, _ = run.end_to_end(_sample(durations, weights), [0.1])
    assert quiet["check_s.p50"] == pytest.approx(0.02)
    slow_host, _ = run.end_to_end(_sample(durations, weights, reference.REFERENCE_S * 2), [0.1])
    assert slow_host["check_s.p50"] == pytest.approx(0.01)
    assert slow_host["checks_per_s"] == pytest.approx(quiet["checks_per_s"] * 2)


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(RuntimeError):
        run.end_to_end(_sample({"a": [1.0] * 3, "b": [5.0] * 5}, {"a": 50, "b": 10}), [0.1])


def test_measure_runs_a_full_round_and_times_the_reference():
    ran = []

    def check(name):
        return workloads.Check(lambda: ran.append(name), lambda obs: None)

    fams = [
        workloads.Family("a", 4, [check("a0"), check("a1")]),
        workloads.Family("b", 1, [check("b0")], warm=False),
    ]
    result = worker.measure(fams, seconds=0)
    assert result["rounds"] == 1
    assert ran.count("a0") == 1 + 2  # and one uncounted warm-up run
    assert ran.count("a1") == ran.count("b0") * 2 == 2
    assert len(result["families"]["a"]["durations"]) == 4 and len(result["references"]) >= 1


def test_gauge_leaves_out_its_own_time_and_normalizes():
    gauge = worker.Gauge()
    gauge.timings, gauge.spent = [(reference.REFERENCE_S * 2, reference.REFERENCE_S * 2)], 1.0
    assert gauge.normalize(3.0) == pytest.approx(1.0)  # 2 s on a host at half its quiet speed


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_design_records_the_check_mix(name, tmp_path):
    families = workloads.WORKLOADS[name](0, tmp_path)
    assert DESIGN["workloads"][name]["mix"] == {f.name: f.weight for f in families}

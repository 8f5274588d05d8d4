"""The names the benchmark's tracer (``perfbench/tracer.py``) patches must
keep existing: a renamed function or ``Cone`` method breaks the benchmark
although the library's own tests pass.  This smoke test only imports the
tracer from ``perfbench/``; it changes nothing there."""

import sys
from pathlib import Path

import pytest

from comcat import composites, cones, lp
from comcat.models import gbit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def _patched_names():
    """What the tracer replaces, as the library binds it."""
    return (
        dict(vars(cones.Cone)),
        composites.min_tensor,
        composites.cone_from_generators,
        composites.solve_lp,
        lp.solve_lp,
    )


def test_tracer_installs_around_min_tensor_and_uninstalls_cleanly(tracer_module):
    before = _patched_names()
    t = tracer_module.Tracer()
    with t:
        assert composites.min_tensor is not before[1]
        composites.min_tensor(gbit(), gbit())
    totals = tracer_module.layer_totals(t)
    assert totals["composites"]["calls"] == 1
    assert totals["cones.build"]["calls"] >= 2
    assert totals["lp"]["calls"] > 0
    assert _patched_names() == before

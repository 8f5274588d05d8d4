"""The tracer: self-time arithmetic, identity patching, and LP counts
cross-checked against counts taken by patching every binding by hand."""

from array import array

import pytest

import tracer as tr
from comcat import composites, lp, models, protocols, selfdual


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    assert tr.self_times(parent, start, end) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 2.0, 9.0]
    end = [10.0, 4.0, 5.0, 12.0]  # [1, 4] and [2, 5] overlap; [9, 12] leaves the parent
    assert tr.self_times(parent, start, end)[0] == pytest.approx(10 - 4 - 1)


def test_self_time_never_negative():
    # a child that outlasts its parent covers all of it
    assert tr.self_times([-1, 0], [0.0, 0.0], [1.0, 2.0]) == [0.0, 2.0]


def _tracer_with(spans):
    """Tracer holding synthetic (layer, parent, start, end) spans."""
    t = tr.Tracer()
    for layer, parent, s, e in spans:
        t.layer.append(t.layer_id(layer))
        t.parent.append(parent)
        t.call.append(t.new_call())
        t.start.append(s)
        t.end.append(e)
    return t


def test_layer_totals_and_ancestry():
    t = _tracer_with([
        ("check", -1, 0.0, 10.0),
        ("matching", 0, 1.0, 6.0),
        ("lp", 1, 2.0, 3.0),
        ("lp", 0, 7.0, 9.0),
    ])
    totals = tr.layer_totals(t)
    assert totals["lp"]["calls"] == 2
    assert totals["lp"]["self_s"] == pytest.approx(3.0)
    assert totals["matching"]["self_s"] == pytest.approx(4.0)
    assert totals["check"]["self_s"] == pytest.approx(3.0)
    matching = {t.layer_id("matching")}
    assert [tr.under(t, i, matching) for i in range(4)] == [False, False, True, False]


def test_generator_segments_count_one_call():
    t = tr.Tracer()

    def gen(n):
        yield from range(n)

    traced = t.wrap(gen, "matching")
    assert list(traced(3)) == [0, 1, 2]
    totals = tr.layer_totals(t)
    assert totals["matching"]["calls"] == 1
    assert totals["matching"]["yielded"] == 3
    assert len(t.start) == 4  # three yielding segments and the exhausting one


def test_install_patches_every_binding_and_uninstall_restores():
    original = lp.solve_lp
    with tr.Tracer():
        assert lp.solve_lp is not original
        assert protocols.solve_lp is lp.solve_lp
        assert composites.solve_lp is lp.solve_lp
    assert lp.solve_lp is original and protocols.solve_lp is original


def _lp_calls(fn) -> int:
    t = tr.Tracer()
    with t:
        fn()
    return tr.layer_totals(t).get("lp", {}).get("calls", 0)


def test_lp_counts_match_the_hand_count():
    g = models.gbit()
    assert _lp_calls(lambda: composites.min_tensor(g, g)) == 34
    assert _lp_calls(lambda: protocols.find_teleportation(
        g, g, composites.min_tensor(g, g), composites.max_tensor(g, g))) == 71
    assert _lp_calls(lambda: protocols.find_teleportation(
        g, g, composites.max_tensor(g, g), composites.min_tensor(g, g))) == 116
    assert _lp_calls(lambda: selfdual.strongly_self_dual_model(g)) == 29


def test_convert_spans_only_when_a_representation_is_missing():
    t = tr.Tracer()
    with t:
        g = models.gbit()
        before = tr.layer_totals(t).get("cones.convert", {}).get("calls", 0)
        g.state_cone.facets  # already known: no conversion
        g.effect_cone.facets  # generated by facets of the square: converts
        g.effect_cone.facets
    assert tr.layer_totals(t)["cones.convert"]["calls"] == before + 1

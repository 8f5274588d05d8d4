"""Outside-in tracer: spans around the public functions of each comcat layer.

The tracer never edits comcat.  It replaces, by identity, every binding of
a traced function in every loaded ``comcat`` module (``from .lp import
solve_lp`` copies the function into several modules, so patching one
module alone would miss most calls), and patches the ``Cone`` methods on
the class.  Spans carry a parent index and stay in memory until the run
ends; self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

CHECK = "check"

# (layer, module, public functions traced in it).  Element-level helpers
# (linalg.dot, lp.eq, serialize.num_to_json, ...) are left out on purpose:
# they run millions of times and a span each would swamp what it measures.
LAYERS = (
    ("lp", "comcat.lp", ("solve_lp",)),
    ("cones.build", "comcat.cones", ("cone_from_generators", "cone_from_facets", "dual_cone")),
    ("matching", "comcat.matching", ("order_isomorphisms", "find_order_isomorphism", "com_isomorphism")),
    ("protocols.search", "comcat.protocols", ("find_teleportation", "check_theory_compact_closed")),
    ("protocols.verify", "comcat.protocols", (
        "verify_teleportation", "verify_compact_structure", "max_effect_scale_psd", "factor_morphism",
    )),
    ("selfdual", "comcat.selfdual", (
        "verify_isomorphism_state", "build_structure", "check_weak_self_duality",
        "check_symmetric_self_duality", "canonical_adjoint", "double_dual_check",
        "symmetry_equivalence_report", "counit_dual_check", "strongly_self_dual",
        "negative_inertia_count", "strongly_self_dual_model", "dagger_compactness_verdict",
    )),
    ("linalg", "comcat.linalg", (
        "matmul", "inverse", "rank", "rref", "solve", "nullspace", "symmetric_inertia", "kron",
    )),
    ("hermitian", "comcat.hermitian", ("coords", "matrix", "eigenvalues", "min_eigenvalue", "unit_coords")),
    ("composites", "comcat.composites", (
        "min_tensor", "max_tensor", "spatial_quantum_composite", "tensor", "in_max_cone",
        "is_composite", "separability_check", "separating_functional",
    )),
    ("conditioning", "comcat.conditioning", (
        "conditioning_map", "co_conditioning_map", "conditioning_adjoint", "marginals",
        "conditional_state", "remote_evaluate", "remote_evaluation_residual", "remote_evaluate_dual",
    )),
    ("com", "comcat.com", (
        "validate_com", "is_saturated", "is_effect", "is_morphism", "is_process", "normalize_morphism",
    )),
    ("models", "comcat.models", (
        "classical", "quantum", "gbit", "builtin", "from_mackey", "builtin_structure",
        "maximally_entangled_structure",
    )),
    ("cli", "comcat.cli", ("main",)),
    # JSON codecs and report hashing: the fixed cost of every CLI check.
    ("serialize", "comcat.serialize", (
        "cone_to_json", "cone_from_json", "com_to_json", "com_from_json",
        "structure_to_json", "certificate_to_json", "state_from_json", "dumps",
    )),
    ("serialize", "comcat.report", ("make_report", "hash_bytes", "hash_text")),
)

CONE_MEMBER = "cones.member"
CONE_CONVERT = "cones.convert"


class Tracer:
    """Span recorder.  ``install`` patches comcat; ``uninstall`` undoes it.

    Spans live in parallel arrays: layer id, parent index (-1 at the root),
    call id (generator segments of one call share it), start and end."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, dict] = {}  # span index -> counters recorded at the boundary
        self._stack: list[int] = []
        self._calls = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return lid

    def new_call(self) -> int:
        self._calls += 1
        return self._calls

    def open(self, lid: int, call: int) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(call)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.open(self.layer_id(name), self.new_call())
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, layer: str, note=None):
        lid = self.layer_id(layer)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                call = tracer.new_call()
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer.open(lid, call)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(idx)
                        tracer.notes[idx] = {"yielded": 1}
                        yield item
                finally:
                    inner.close()

            traced = traced_gen
        else:
            def traced(*args, **kwargs):
                idx = tracer.open(lid, tracer.new_call())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if note is not None:
                    tracer.notes[idx] = note(args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _convert_property(self, prop: property, attr: str) -> property:
        """Property that opens a cones.convert span only when the cached
        representation is missing, i.e. when the access converts."""
        getter = prop.fget
        lid = self.layer_id(CONE_CONVERT)
        tracer = self

        def fget(cone):
            if getattr(cone, attr) is not None or cone.kind != "polyhedral":
                return getter(cone)
            idx = tracer.open(lid, tracer.new_call())
            try:
                return getter(cone)
            finally:
                tracer.close(idx)

        return property(fget)

    def install(self) -> "Tracer":
        """Patch every comcat binding of the traced functions, by identity."""
        replacements: dict[int, tuple] = {}
        for layer, module_name, names in LAYERS:
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                note = _lp_note if layer == "lp" else None
                replacements[id(fn)] = (fn, self.wrap(fn, layer, note))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "comcat" or module_name.startswith("comcat.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

        cone = importlib.import_module("comcat.cones").Cone
        for name in ("member", "member_by_lp"):
            self._set(cone, name, self.wrap(vars(cone)[name], CONE_MEMBER))
        self._set(cone, "generators", self._convert_property(vars(cone)["generators"], "_generators"))
        self._set(cone, "facets", self._convert_property(vars(cone)["facets"], "_facets"))
        return self

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _lp_note(args, kwargs, result) -> dict:
    num_vars = args[0] if args else kwargs["num_vars"]
    constraints = args[1] if len(args) > 1 else kwargs["constraints"]
    return {"cells": num_vars * len(constraints), "optimal": int(result.status == "optimal")}


# -- analysis ------------------------------------------------------------


def self_times(parent, start, end) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[int]] = {}
    for idx, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(idx)
    out = []
    for idx in range(len(start)):
        s, e = start[idx], end[idx]
        covered = 0.0
        kids = children.get(idx)
        if kids:
            intervals = sorted((max(start[k], s), min(end[k], e)) for k in kids)
            cur_s, cur_e = None, None
            for a, b in intervals:
                if b <= a:
                    continue
                if cur_e is None or a > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = a, b
                else:
                    cur_e = max(cur_e, b)
            if cur_e is not None:
                covered += cur_e - cur_s
        out.append(max(e - s - covered, 0.0))
    return out


def under(tracer: Tracer, idx: int, lids: set) -> bool:
    """Does some ancestor of span idx belong to one of the given layers?"""
    p = tracer.parent[idx]
    while p >= 0:
        if tracer.layer[p] in lids:
            return True
        p = tracer.parent[p]
    return False


def layer_totals(tracer: Tracer) -> dict[str, dict]:
    """Calls, self seconds and boundary counters, summed per layer."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    totals = {name: {"calls": 0, "self_s": 0.0} for name in tracer.layer_names}
    seen_calls: set[int] = set()
    for idx, lid in enumerate(tracer.layer):
        entry = totals[tracer.layer_names[lid]]
        entry["self_s"] += selfs[idx]
        call = tracer.call[idx]
        if call not in seen_calls:
            seen_calls.add(call)
            entry["calls"] += 1
        for key, value in tracer.notes.get(idx, {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """The benchmark's per-layer metrics, per traced round of the mix.
    Ratios over zero calls read 0."""
    totals = layer_totals(tracer)

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def lp_under(*layers) -> int:
        lp = tracer._layer_ids.get("lp")
        lids = {tracer._layer_ids[name] for name in layers if name in tracer._layer_ids}
        return sum(1 for idx, lid in enumerate(tracer.layer) if lid == lp and under(tracer, idx, lids))

    lp_calls = get("lp", "calls")
    matching_lp = lp_under("matching")
    out = {
        "lp.optimal_ratio": get("lp", "optimal") / lp_calls if lp_calls else 0.0,
        "lp.cells": get("lp", "cells") / rounds,
        "matching.lp_calls": matching_lp / rounds,
        "matching.yield_ratio": get("matching", "yielded") / matching_lp if matching_lp else 0.0,
        "protocols.search.lp_calls": lp_under("protocols.search") / rounds,
    }
    for layer in ("lp", "cones.convert", "cones.build", "cones.member", "matching", "protocols.search",
                  "selfdual", "linalg", "hermitian", "composites"):
        out[f"{layer}.calls"] = get(layer, "calls") / rounds
    for layer in ("lp", "cones.convert", "cones.build", "cones.member", "matching", "protocols.search",
                  "protocols.verify", "selfdual", "linalg", "hermitian", "composites", "conditioning",
                  "com", "models", "cli", "serialize"):
        out[f"{layer}.self_s"] = get(layer, "self_s") / rounds
    return out

"""The two check mixes and their pinned verdicts.

A check is one user-level query: one ``comcat.cli.main`` call, or one
public library call plus its independent verification by comcat's public
verifiers.  ``run`` is the timed part and rebuilds its models and
composites from the JSON documents generated at set-up.  ``gate`` runs
after the timer stops and returns why the observation contradicts the
pinned verdict, or None.  Each family holds a pool of independently
seeded instances and takes them in turn, so one run averages over several
bases.

comcat functions are looked up as module attributes at call time
(``protocols.find_teleportation``), so the tracer's patches apply to the
benchmark's own calls too.

Pinned verdicts (independent of the seed, since every seeded model is
isomorphic to its builtin):
  gbit: teleportable with the shared state in the max composite and the
    effect in the min composite, exhausted the other way; symmetric
    self-dual, not strongly self-dual; rotation structure not dagger
    compact, reflection structure dagger compact.
  classical(n): teleportable, compact closed, strongly self-dual.
  rational hexagon: weakly self-dual.
  gbit (x) gbit: min composite 16 state rays / 24 facets, max composite
    24 state rays / 16 facets; isotropic PR mixtures are entangled exactly
    when the PR weight exceeds 1/2.
  quantumD: dagger compact; maximally entangled states are isomorphism
    states and teleport with scale 1/d^2; Kraus maps are morphisms.

Weights: ``run.py`` takes the median and the 90th percentile over one
round, each check counted at its family's median time.  The weights put
both percentiles well inside one family's share of the round, and that
family's median well apart from its neighbours', so neither moves to
another family from run to run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from comcat import cli, com, composites, conditioning, hermitian, linalg, matching, models, protocols, selfdual, serialize

import inputs as gen

POOL = 8  # seeded instances per family


@dataclass
class Check:
    run: Callable[[], object]  # timed: the query and comcat's own verification
    gate: Callable[[object], str | None]  # untimed: why the result is wrong, or None


@dataclass
class Family:
    """One kind of check; a round of the mix runs it ``weight`` times,
    taking the pool's instances in turn."""

    name: str
    weight: int
    checks: list[Check]
    warm: bool = True  # run once before timing (the heaviest families are not)
    _next: int = 0

    def next(self) -> Check:
        check = self.checks[self._next % len(self.checks)]
        self._next += 1
        return check

    def rewind(self) -> None:
        self._next = 0


def _load(doc):
    return serialize.com_from_json(doc)


def _model(rng, data) -> dict:
    return gen.seeded_model(rng, data)["model"]


# -- CLI --------------------------------------------------------------------------


def cli_check(argv, out: str, expect_rc: int, expect: dict) -> Check:
    """A CLI call; its report must carry the expected verdicts, and a repeat
    of the same call must give the same body hash."""
    seen: list[str] = []

    def run():
        return cli.main([*argv, "-o", out])

    def gate(rc):
        if rc != expect_rc:
            return f"exit code {rc}, expected {expect_rc}"
        report = json.loads(Path(out).read_text())
        verdicts = report["body"]["verdicts"]
        for key, value in expect.items():
            if verdicts.get(key) != value:
                return f"verdict {key}={verdicts.get(key)!r}, expected {value!r}"
        if seen and report["body_sha256"] != seen[0]:
            return "repeated CLI check gave a different body_sha256"
        seen[:] = [report["body_sha256"]]
        return None

    return Check(run, gate)


# -- exact checks -------------------------------------------------------------------


def teleport_check(doc_a, doc_b, kind_ab, kind_ba) -> Check:
    def run():
        A, B = _load(doc_a), _load(doc_b)
        cert = protocols.find_teleportation(A, B, composites.tensor(A, B, kind_ab), composites.tensor(B, A, kind_ba))
        return None if cert is None else protocols.verify_teleportation(cert, A, B)

    def gate(report):
        if report is None:
            return "search exhausted; expected a certificate"
        return None if report.ok else f"certificate fails verification: {report.violations}"

    return Check(run, gate)


def tensor_check(doc_a, doc_b, kind, counts) -> Check:
    """Both representations of both cones forced, then the composite contract."""

    def run():
        A, B = _load(doc_a), _load(doc_b)
        AB = composites.tensor(A, B, kind)
        shape = (
            len(AB.state_cone.generators),
            len(AB.state_cone.facets),
            len(AB.effect_cone.generators),
            len(AB.effect_cone.facets),
        )
        return shape, composites.is_composite(AB, A, B)

    def gate(obs):
        shape, violations = obs
        if violations:
            return f"is_composite: {violations[:2]}"
        return None if shape == counts else f"ray/facet counts {shape}, expected {counts}"

    return Check(run, gate)


def _dot(x, y):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))


def separability_check(doc_a, doc_b, entangled, separable) -> Check:
    def run():
        A, B = _load(doc_a), _load(doc_b)
        AB = composites.min_tensor(A, B)
        gens = AB.state_cone.generators
        return (
            composites.separability_check(entangled, AB),
            composites.separating_functional(entangled, gens),
            composites.separability_check(separable, AB),
            composites.separating_functional(separable, gens),
            gens,
        )

    def gate(obs):
        sep_e, s, sep_s, s_none, gens = obs
        if sep_e or not sep_s:
            return f"separability verdicts {sep_e}, {sep_s}; expected False, True"
        if s is None or s_none is not None:
            return "separating functional missing for the entangled state or present for the separable one"
        if _dot(s, entangled) <= 0 or any(_dot(s, g) > 0 for g in gens):
            return "separating functional does not separate"
        return None

    return Check(run, gate)


def remote_exact_check(doc, f, omega, alpha) -> Check:
    n = len(doc["unit"])
    # independent contraction: out_k = sum_ij F[i][j] alpha_i Omega[j][k]
    expected = tuple(
        sum(f[i * n + j] * alpha[i] * omega[j * n + k] for i in range(n) for j in range(n)) for k in range(n)
    )

    def run():
        A = _load(doc)
        return conditioning.remote_evaluate(f, omega, alpha, A, A, A)

    return Check(run, lambda out: None if tuple(out) == expected else f"remote evaluation {out} != {expected}")


def selfdual_check(doc, kind, strong) -> Check:
    def run():
        A = _load(doc)
        if kind == "strong":
            return selfdual.strongly_self_dual_model(A)
        search = selfdual.check_symmetric_self_duality if kind == "symmetric" else selfdual.check_weak_self_duality
        D = search(A)
        return None if D is None else (D.symmetric, selfdual.verify_isomorphism_state(D.gamma, A))

    def gate(obs):
        if kind == "strong":
            return None if obs is strong else f"strongly self-dual {obs}, expected {strong}"
        if obs is None:
            return "self-duality search exhausted; expected a structure"
        symmetric, violations = obs
        if violations:
            return f"isomorphism state fails: {violations[:2]}"
        return "symmetric search returned an asymmetric structure" if kind == "symmetric" and not symmetric else None

    return Check(run, gate)


def iso_check(triple, doc) -> Check:
    def run():
        A = models.from_mackey(models.mackey_triple(*triple))
        B = _load(doc)
        M = matching.com_isomorphism(A, B)
        if M is None:
            return None
        positive = com.is_morphism(M, A, B).ok and com.is_morphism(linalg.inverse(M), B, A).ok
        return M, A.unit, B.unit, positive

    def gate(obs):
        if obs is None:
            return "isomorphism search exhausted"
        M, u_a, u_b, positive = obs
        if not positive:
            return "isomorphism or its inverse is not positive"
        pulled = [sum(M[r][c] * u_b[r] for r in range(len(M))) for c in range(len(M))]
        return None if pulled == list(u_a) else "isomorphism does not preserve the unit"

    return Check(run, gate)


# -- spectral checks ------------------------------------------------------------------


def spatial_check(doc, seed) -> Check:
    def run():
        A = _load(doc)
        return composites.is_composite(composites.spatial_quantum_composite(A, A), A, A, seed=seed)

    return Check(run, lambda v: f"is_composite: {v[:2]}" if v else None)


def teleport_psd_check(doc, gamma, f_hat, d) -> Check:
    def run():
        A = _load(doc)
        AB = composites.spatial_quantum_composite(A, A)
        c = protocols.max_effect_scale_psd(f_hat, A, A)
        r_form = tuple(x for row in zip(*f_hat) for x in row)
        cert = protocols.TeleportationCertificate(
            omega=gamma, r_hat=f_hat, c=c, f=tuple(c * x for x in r_form), residual=0.0,
            composite_ab=AB, composite_ba=AB,
        )
        return c, protocols.verify_teleportation(cert, A, A)

    def gate(obs):
        c, report = obs
        if not report.ok:
            return f"certificate fails verification: {report.violations}"
        return None if abs(c - 1 / d**2) <= 1e-9 else f"effect scale {c}, expected {1 / d**2}"

    return Check(run, gate)


def isostate_check(doc, gamma) -> Check:
    return Check(
        lambda: selfdual.verify_isomorphism_state(gamma, _load(doc)),
        lambda v: f"isomorphism state fails: {v[:2]}" if v else None,
    )


def morphism_check(doc, phi) -> Check:
    def run():
        A = _load(doc)
        return com.is_morphism(phi, A, A)

    return Check(run, lambda rep: None if rep.ok else f"Kraus map rejected: {rep.violations[:2]}")


def remote_float_check(doc, f, omega, alpha) -> Check:
    n = len(doc["unit"])
    expected = np.einsum("ij,i,jk->k", np.reshape(f, (n, n)), np.asarray(alpha), np.reshape(omega, (n, n)))

    def run():
        A = _load(doc)
        return conditioning.remote_evaluate(f, omega, alpha, A, A, A)

    def gate(out):
        err = float(np.max(np.abs(np.asarray(out, dtype=float) - expected)))
        return None if err <= 1e-9 else f"remote evaluation off by {err}"

    return Check(run, gate)


# -- workloads ------------------------------------------------------------------------


class Mix:
    """Families of one workload.  Every instance gets its own random stream,
    so adding a family or an instance moves no other input."""

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir, self.families = seed, workdir, []

    def add(self, name, weight, make, warm=True, pool=None, heavy=False):
        """``pool`` defaults to one instance per check of a round, and at
        least POOL.  A ``heavy`` family runs only once or twice per run and
        its cost swings by up to 2x with the basis, so its single instance
        comes from a fixed stream: a per-seed basis would make the run's
        throughput a property of the seed rather than of the code."""
        stream = "fixed" if heavy else self.seed
        pool = 1 if heavy else pool or max(POOL, weight)
        checks = [make(random.Random(f"{stream}:{name}:{i}"), i) for i in range(pool)]
        self.families.append(Family(name, weight, checks, warm and not heavy))

    def add_cli(self, name, weight, make_argv, expect_rc, expect, **kwargs):
        def make(rng, i):
            out = str(self.workdir / f"{name}.{i}.report.json")
            return cli_check(make_argv(rng, f"{name}.{i}"), out, expect_rc, expect)

        self.add(name, weight, make, **kwargs)

    def write(self, name, doc) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)


def _np_rng(rng: random.Random) -> np.random.Generator:
    return np.random.default_rng(rng.getrandbits(64))


def exact(seed: int, workdir: Path) -> list[Family]:
    """Exact polyhedral checks: teleportation, composites and separability,
    where brute-force cone conversion and a few large LPs dominate, and
    ray-matching self-duality searches, which make many small LPs and
    facet-sign membership tests.  Clusters: the six gbit checks that take
    seconds, the c3 (x) gbit composites with the larger searches around
    them (p90), and the classical teleportation checks (p50)."""
    mix = Mix(seed, workdir)
    _teleportation(mix)
    _self_duality(mix)
    return mix.families


def _teleportation(mix: Mix) -> None:
    gbit, c2, c3 = gen.gbit_data(), gen.classical_data(2), gen.classical_data(3)

    def teleport_argv(kind):
        def argv(rng, stem):
            a, b = mix.write(f"{stem}.a.json", _model(rng, gbit)), mix.write(f"{stem}.b.json", _model(rng, gbit))
            return ["teleport", a, b, "--composite", kind]
        return argv

    mix.add_cli("cli.teleport.max", 1, teleport_argv("max"), 0, {"teleportable": True}, heavy=True)
    mix.add_cli("cli.teleport.min", 1, teleport_argv("min"), 1, {"teleportable": False, "exhausted": True},
                heavy=True)
    mix.add("tensor.gbit-gbit.min", 1, lambda rng, i: tensor_check(
        _model(rng, gbit), _model(rng, gbit), "min", (16, 24, 24, 16)), heavy=True)
    mix.add("tensor.gbit-gbit.max", 1, lambda rng, i: tensor_check(
        _model(rng, gbit), _model(rng, gbit), "max", (24, 16, 16, 24)), heavy=True)

    def separability(rng, i):
        a, b = gen.seeded_model(rng, gbit), gen.seeded_model(rng, gbit)
        ent = gen.isotropic_pr_state(rng.choice(gen.PR_PATTERNS), rng.choice(gen.ENTANGLED_WEIGHTS))
        sep = gen.isotropic_pr_state(rng.choice(gen.PR_PATTERNS), rng.choice(gen.SEPARABLE_WEIGHTS))
        return separability_check(
            a["model"], b["model"],
            tuple(gen.transform_state2(ent, a["T"], b["T"])), tuple(gen.transform_state2(sep, a["T"], b["T"])),
        )

    mix.add("separability.gbit-gbit", 1, separability, heavy=True)
    # both forced representations in one family, alternating: p90 lies in
    # it, and one median over twenty instances moves less than two of ten
    mix.add("tensor.c3-gbit", 20, lambda rng, i: tensor_check(
        _model(rng, c3), _model(rng, gbit), ("min", "max")[i % 2], (12, 12, 12, 12)))
    mix.add("teleport.c3-c3", 1, lambda rng, i: teleport_check(_model(rng, c3), _model(rng, c3), "min", "min"))
    mix.add("teleport.c2-gbit", 1, lambda rng, i: teleport_check(_model(rng, c2), _model(rng, gbit), "min", "max"))
    mix.add_cli("cli.compact-check", 1, lambda rng, stem: [
        "compact-check", mix.write(f"{stem}.json", {"objects": [_model(rng, c2), _model(rng, c3)]}),
    ], 0, {"compact_closed": True})
    mix.add("teleport.c2-c3", 2, lambda rng, i: teleport_check(_model(rng, c2), _model(rng, c3), "min", "min"))
    mix.add("teleport.c2-c2", 80, lambda rng, i: teleport_check(_model(rng, c2), _model(rng, c2), "min", "min"))

    def remote(rng, i):
        r = gen.seeded_model(rng, gbit)
        T, T_inv_t = r["T"], gen.transpose(r["T_inv"])
        e1, e2 = gen.random_effect(rng, gen.GBIT_EFFECTS), gen.random_effect(rng, gen.GBIT_EFFECTS)
        f = gen.transform_state2(gen.kron_vec(e1, e2), T_inv_t, T_inv_t)
        omega = gen.isotropic_pr_state(rng.choice(gen.PR_PATTERNS), rng.choice(gen.ENTANGLED_WEIGHTS))
        alpha = gen.matvec(T, gen.random_state(rng, gen.GBIT_STATES, [0, 0, 1]))
        return remote_exact_check(r["model"], tuple(f), tuple(gen.transform_state2(omega, T, T)), tuple(alpha))

    mix.add("remote.exact", 20, remote)


def _self_duality(mix: Mix) -> None:
    """At most 6 rays in dimension at most 6, so conversion is negligible.
    strongly_self_dual_model on the gbit exhausts all 24 bijections."""
    for n in range(3, 7):
        mix.add(f"weak.classical{n}", 1, lambda rng, i, n=n: selfdual_check(
            _model(rng, gen.classical_data(n)), "weak", True))
    for kind in ("symmetric", "strong"):
        mix.add(f"{kind}.classical3", 1, lambda rng, i, kind=kind: selfdual_check(
            _model(rng, gen.classical_data(3)), kind, True))
    for kind in ("weak", "symmetric", "strong"):
        mix.add(f"{kind}.gbit", 1, lambda rng, i, kind=kind: selfdual_check(_model(rng, gen.gbit_data()), kind, False),
                heavy=kind == "strong")
    hexagon = gen.polygon_data("hexagon", gen.HEXAGON)
    mix.add("weak.hexagon", 1, lambda rng, i: selfdual_check(_model(rng, hexagon), "weak", None))

    def iso(n):
        def make(rng, i):
            rows, cols = list(range(n)), list(range(n))
            rng.shuffle(rows)
            rng.shuffle(cols)
            table = [[int(rows[r] == cols[c]) for c in range(n)] for r in range(n)]
            triple = ([f"x{r}" for r in range(n)], [f"s{c}" for c in range(n)], table)
            return iso_check(triple, _model(rng, gen.classical_data(n)))
        return make

    for n in range(3, 6):
        mix.add(f"iso.mackey{n}", 1, iso(n))
    # The dagger CLI takes the gbit structure variants from its builtin
    # table by label; the seeded file still changes the hashed input.
    for variant, rc in (("rotation", 1), ("reflection", 0)):
        mix.add_cli(f"cli.dagger.gbit-{variant}", 1, lambda rng, stem, variant=variant: [
            "dagger", mix.write(f"{stem}.json", {"objects": [_model(rng, gen.gbit_data())]}),
            "--structure", f"gbit={variant}",
        ], rc, {"dagger_compact": rc == 0})


def spectral(seed: int, workdir: Path) -> list[Family]:
    """No LP and no cone conversion: eigenvalues, Hermitian coordinates and
    the double-dual checks of the dagger verdict.  Clusters: the quantum4
    dagger verdict (seconds), spatial composites and the quantum3 verdict
    (p90 in the quantum3 composites), the small verifications (p50 in the
    quantum3 morphism checks)."""
    mix = Mix(seed, workdir)
    for d in (2, 3, 4):
        doc, basis, n = gen.quantum_json(d), hermitian.basis((d,)), d * d
        theory = mix.write(f"quantum{d}.json", {"objects": [doc]})
        mix.add_cli(f"cli.dagger.quantum{d}", 10 if d == 2 else 5, lambda rng, stem, theory=theory: ["dagger", theory],
                    0, {"dagger_compact": True}, warm=d < 4, pool=1)
        mix.add(f"composite.quantum{d}", 10 if d == 3 else 5, lambda rng, i, doc=doc: spatial_check(
            doc, rng.getrandbits(30)))

        def teleport(rng, i, doc=doc, basis=basis, n=n, d=d):
            gamma = gen.entangled_gamma(_np_rng(rng), d, basis)
            # the inverting map: inverse of the conditioning map hat(gamma) = G^T
            f_hat = np.linalg.inv(np.reshape(gamma, (n, n)).T)
            return teleport_psd_check(doc, tuple(gamma), tuple(tuple(r) for r in f_hat), d)

        mix.add(f"teleport.quantum{d}", 10, teleport)
        mix.add(f"isostate.quantum{d}", 10, lambda rng, i, doc=doc, basis=basis, d=d: isostate_check(
            doc, tuple(gen.entangled_gamma(_np_rng(rng), d, basis))))
        mix.add(f"morphism.quantum{d}", 40 if d == 3 else 10, lambda rng, i, doc=doc, basis=basis, d=d: morphism_check(
            doc, tuple(tuple(r) for r in gen.kraus_map(_np_rng(rng), d, basis))))

    def remote(rng, i):
        nrng, basis, pair = _np_rng(rng), hermitian.basis((2,)), hermitian.basis((2, 2))
        f = gen.kron_vec(gen.coords(gen.random_effect_matrix(nrng, 2), basis),
                         gen.coords(gen.random_effect_matrix(nrng, 2), basis))
        omega = gen.coords(gen.random_density(nrng, 4), pair)
        alpha = gen.coords(gen.random_density(nrng, 2), basis)
        return remote_float_check(gen.quantum_json(2), tuple(f), tuple(omega), tuple(alpha))

    mix.add("remote.float", 10, remote)
    return mix.families


WORKLOADS = {
    "exact": exact,
    "spectral": spectral,
}

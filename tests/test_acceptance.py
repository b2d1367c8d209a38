"""End-to-end acceptance criteria.

One test per criterion, each printing a single pass/fail line with its
runtime.  Tolerances are fixed here and never loosened at run time; budgets
are tuned only to meet the stated runtime bounds.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from normlab import (
    EntrywiseMax,
    EntrywiseSum,
    GIndPair,
    Lp,
    MaxColSum,
    MaxOf,
    MaxRowSum,
    OptBudget,
    RandomStream,
    Scaled,
    Spectral,
    alpha_identity_check,
    chain_compare,
    extract_pair,
    gind_eval,
    minimality_probe,
    maximize_on_sphere,
    mnorm_eval,
    sample_matrix,
    sample_vector,
    vnorm_eval,
)
from normlab.extraction import GAP_FOUND, clear_role1_cache
from normlab.verification import verify_lemma21
from _oracles import dense_gind_oracle


def _report(num: int, name: str, ok: bool, elapsed: float, bound: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} [{elapsed:.1f}s / limit {bound:.0f}s]{detail}")
    assert ok, f"criterion {num} failed{detail}"
    assert elapsed < bound, f"criterion {num} runtime {elapsed:.1f}s exceeds {bound}s"


def test_criterion_01_closed_form_recovery():
    start = time.perf_counter()
    budget = OptBudget(multistarts=2, max_iters=120, samples=8, seed=101)
    worst = 0.0
    g = RandomStream(1001).generator()
    for n in (2, 3):
        for _ in range(50):
            a = sample_matrix(g, n)
            for p, closed in ((1.0, MaxColSum()), (math.inf, MaxRowSum()), (2.0, Spectral())):
                got = gind_eval(GIndPair(Lp(p), Lp(p)), a, budget).value
                want = mnorm_eval(closed, a)
                worst = max(worst, abs(got - want) / max(1e-30, want))
    _report(
        1, "closed-form recovery", worst <= 1e-6, time.perf_counter() - start, 10.0,
        f" (worst rel err {worst:.2e})",
    )


def test_criterion_02_product_bound_both_directions():
    start = time.perf_counter()
    budget = OptBudget(multistarts=1, max_iters=40, samples=4, seed=102)
    forward = verify_lemma21(
        GIndPair(Lp(math.inf), Lp(1)), 2, trials=1000, rng=RandomStream(1002), budget=budget
    )
    worst = forward.cases[1].values["worst_product_ratio"]
    ok = forward.passed and worst <= 1.0 + 1e-9

    norm = lambda m: gind_eval(GIndPair(Lp(1), Lp(math.inf)), m, budget).value
    j = np.ones((2, 2), dtype=np.complex128)
    lhs, rhs = norm(j @ j), norm(j) ** 2
    ok = ok and lhs == pytest.approx(2.0, rel=1e-9) and rhs == pytest.approx(1.0, rel=1e-9)
    _report(
        2, "product bound iff dominance", ok, time.perf_counter() - start, 5.0,
        f" (worst product ratio {worst:.3f}; violation 2 > 1 at the all-ones matrix)",
    )


def test_criterion_03_rescaled_pairs_agree():
    start = time.perf_counter()
    budget = OptBudget(multistarts=2, max_iters=80, samples=6, seed=103)
    pair_a = GIndPair(Scaled(3.0, Lp(math.inf)), Scaled(6.0, Lp(2)))
    pair_b = GIndPair(Lp(math.inf), Scaled(2.0, Lp(2)))
    g = RandomStream(1003).generator()
    worst = 0.0
    for _ in range(100):
        m = sample_matrix(g, 2)
        va = gind_eval(pair_a, m, budget).value
        vb = gind_eval(pair_b, m, budget).value
        worst = max(worst, abs(va - vb) / max(1e-30, va))
    ok = worst <= 1e-9

    j = np.ones((2, 2), dtype=np.complex128)
    loose = gind_eval(pair_b, j, budget).value
    tight = gind_eval(GIndPair(Lp(2), Scaled(2.0, Lp(2))), j, budget).value
    ok = ok and loose == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-6)
    ok = ok and tight == pytest.approx(4.0, rel=1e-6)
    _report(
        3, "rescaled pairs agree, distinct ones differ", ok,
        time.perf_counter() - start, 10.0,
        f" (worst rel diff {worst:.2e}; at ones: {loose:.6f} vs {tight:.6f})",
    )


def test_criterion_04_column_replication_identity():
    start = time.perf_counter()
    budget = OptBudget(multistarts=1, max_iters=30, samples=4, seed=104)
    family = [Lp(1), Lp(2), Lp(math.inf)]
    ok = True
    worst = 0.0
    for n in (2, 3):
        g = RandomStream(1004 + n).generator()
        for n1 in family:
            for n2 in family:
                for _ in range(50):
                    x = sample_vector(g, n)
                    rep = alpha_identity_check(GIndPair(n1, n2), x, budget)
                    dev = abs(rep.lhs - rep.rhs) / max(1e-30, rep.lhs, rep.rhs)
                    worst = max(worst, dev)
                    ok = ok and rep.holds
    _report(
        4, "column-replication identity", ok and worst <= 1e-6,
        time.perf_counter() - start, 20.0, f" (worst rel dev {worst:.2e})",
    )


_CATALOG = [
    ("entrywise-sum", EntrywiseSum()),
    ("entrywise-max", EntrywiseMax()),
    ("max-col-sum", MaxColSum()),
    ("max-row-sum", MaxRowSum()),
    ("spectral", Spectral()),
    ("max(col,row)", MaxOf((MaxColSum(), MaxRowSum()))),
]


def test_criterion_05_reconstruction_upper_bound():
    start = time.perf_counter()
    clear_role1_cache()
    outer = OptBudget(multistarts=1, max_iters=25, samples=4, seed=105)
    inner = OptBudget(multistarts=1, max_iters=12, samples=2, seed=106)
    worst = 0.0
    for label, source in _CATALOG:
        pair = extract_pair(source, inner)
        gpair = GIndPair(pair.norm1, pair.norm2)
        g = RandomStream(1005).generator()
        for _ in range(100):
            a = sample_matrix(g, 2)
            ratio = gind_eval(gpair, a, outer).value / mnorm_eval(source, a)
            worst = max(worst, ratio)
    _report(
        5, "reconstruction upper-bound law", worst <= 1.0 + 1e-6,
        time.perf_counter() - start, 60.0, f" (worst ratio {worst:.9f})",
    )


def test_criterion_06_round_trip_for_induced_norms():
    start = time.perf_counter()
    clear_role1_cache()
    outer = OptBudget(multistarts=1, max_iters=25, samples=4, seed=107)
    inner = OptBudget(multistarts=1, max_iters=12, samples=2, seed=108)
    worst_rt = 0.0
    worst_eq = 0.0
    for source in (MaxColSum(), MaxRowSum(), Spectral()):
        for n in (2, 3):
            pair = extract_pair(source, inner)
            gpair = GIndPair(pair.norm1, pair.norm2)
            g = RandomStream(1006 + n).generator()
            for _ in range(50):
                a = sample_matrix(g, n)
                got = gind_eval(gpair, a, outer).value
                want = mnorm_eval(source, a)
                worst_rt = max(worst_rt, abs(got - want) / max(1e-30, want))
            for _ in range(100):
                x = sample_vector(g, n)
                v1 = vnorm_eval(pair.norm1, x)
                v2 = vnorm_eval(pair.norm2, x)
                worst_eq = max(worst_eq, abs(v1 - v2) / max(1e-30, v1, v2))
    ok = worst_rt <= 1e-6 and worst_eq <= 1e-6
    _report(
        6, "extraction round trip", ok, time.perf_counter() - start, 60.0,
        f" (worst round-trip {worst_rt:.2e}, worst pair gap {worst_eq:.2e})",
    )


def test_criterion_07_non_minimality_witnesses():
    start = time.perf_counter()
    clear_role1_cache()
    inner = OptBudget(multistarts=1, max_iters=12, samples=2, seed=109)
    probe_sigma = minimality_probe(
        EntrywiseSum(), 2, 100,
        OptBudget(multistarts=2, max_iters=120, samples=4, seed=110),
        RandomStream(1007),
        inner,
    )
    probe_maxcr = minimality_probe(
        MaxOf((MaxColSum(), MaxRowSum())), 2, 100,
        OptBudget(multistarts=2, max_iters=60, samples=4, seed=111),
        RandomStream(1008),
        inner,
    )
    ok = (
        probe_sigma.verdict == GAP_FOUND
        and abs(probe_sigma.max_gap_ratio - 0.7071) <= 1e-3
        and np.allclose(probe_sigma.witness, [[1, 1], [1, -1]])
        and probe_maxcr.verdict == GAP_FOUND
        and abs(probe_maxcr.max_gap_ratio - 0.5) <= 1e-3
        and np.allclose(probe_maxcr.witness, [[1, 0], [1, 0]])
    )
    _report(
        7, "non-minimality witnesses", ok, time.perf_counter() - start, 30.0,
        f" (ratios {probe_sigma.max_gap_ratio:.4f}, {probe_maxcr.max_gap_ratio:.4f})",
    )


def test_criterion_08_chain_inequality():
    start = time.perf_counter()
    budget = OptBudget(multistarts=2, max_iters=80, samples=6, seed=112)
    pairs = [
        GIndPair(Lp(math.inf), Lp(1)),
        GIndPair(Lp(math.inf), Lp(2)),
        GIndPair(Lp(2), Lp(1)),
        GIndPair(Lp(math.inf), Scaled(2.0, Lp(2))),
        GIndPair(Lp(3), Lp(1.5)),
    ]
    ok = True
    worst_slack = math.inf
    g = RandomStream(1009).generator()
    for pair in pairs:
        for _ in range(50):
            a = sample_matrix(g, 2)
            rep = chain_compare(pair, a, budget)
            ok = ok and rep.chain_holds
            worst_slack = min(worst_slack, rep.slack)
    _report(
        8, "four-norm chain for dominated pairs", ok,
        time.perf_counter() - start, 20.0, f" (worst slack {worst_slack:.3e})",
    )


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    codomains = [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 1.0)]
    worst = 0.0
    for k in range(20):
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        cod_p, cod_scale = codomains[k % len(codomains)]
        codomain = Lp(cod_p) if cod_scale == 1.0 else Scaled(cod_scale, Lp(cod_p))
        for domain_p in (1.0, 2.0, math.inf):
            oracle = dense_gind_oracle(a, domain_p, cod_p, cod_scale)
            budget = OptBudget(multistarts=6, max_iters=400, samples=24, seed=113 + k)
            engine = gind_eval(GIndPair(Lp(domain_p), codomain), a, budget).value
            objective = lambda x: vnorm_eval(codomain, a @ x)
            ascent = maximize_on_sphere(
                objective, Lp(domain_p), 2, budget, objective_convex=False
            ).value
            worst = max(
                worst,
                abs(engine - oracle) / max(1e-30, oracle),
                abs(ascent - oracle) / max(1e-30, oracle),
            )
    _report(
        9, "ascent agrees with dense enumeration", worst <= 1e-4,
        time.perf_counter() - start, 30.0, f" (worst rel err {worst:.2e})",
    )


def _normalize_elapsed(doc):
    if isinstance(doc, dict):
        return {
            k: (0.0 if k == "elapsed" else _normalize_elapsed(v)) for k, v in doc.items()
        }
    if isinstance(doc, list):
        return [_normalize_elapsed(v) for v in doc]
    return doc


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for run in (1, 2):
        path = tmp_path / f"report_{run}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "normlab", "verify", "--suite", "paper-demos",
                "--seed", "42", "--report", str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_text())
    a, b = (
        json.dumps(_normalize_elapsed(json.loads(text)), sort_keys=True)
        for text in outputs
    )
    _report(
        10, "byte-identical replay modulo timing", a == b,
        time.perf_counter() - start, 120.0, "",
    )

import dataclasses
import hashlib
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import (
    dense_gind_oracle,
    dense_sphere_max,
    dense_torus_max,
    half_pairs_l2_closed_form,
    linf_to_l2_closed_form,
    lp_batched,
)

from normlab import (
    EXACT_CLOSED_FORM,
    EXACT_VERTEX,
    ComputationResult,
    LOWER_BOUND,
    EntrywiseMax,
    EntrywiseSum,
    GInd,
    GIndPair,
    Lp,
    MaxColSum,
    MaxOf,
    MaxRowSum,
    DimensionMismatchError,
    NonFiniteInputError,
    NormlabError,
    OptBudget,
    RandomStream,
    Scaled,
    Spectral,
    WeightedLp,
    chain_compare,
    default_budget,
    extract_norm2,
    extract_pair,
    gind_eval,
    gind_eval_many,
    mnorm_eval,
    sample_matrix,
    sample_vector,
    vnorm_dual_eval,
    vnorm_eval,
)
from normlab import core, gind, sphere_opt

J2 = np.ones((2, 2), dtype=np.complex128)
B = OptBudget(multistarts=4, max_iters=300, samples=16, seed=5)


def test_linf_to_scaled_l2_at_ones():
    pair = GIndPair(Lp(math.inf), Scaled(2.0, Lp(2)))
    res = gind_eval(pair, J2, B)
    assert res.value == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-9)


def test_l2_to_scaled_l2_at_ones():
    pair = GIndPair(Lp(2), Scaled(2.0, Lp(2)))
    res = gind_eval(pair, J2, B)
    assert res.exactness == EXACT_CLOSED_FORM
    assert res.value == pytest.approx(4.0, rel=1e-9)


def test_l1_to_linf_is_entrywise_max():
    pair = GIndPair(Lp(1), Lp(math.inf))
    res = gind_eval(pair, [[1, 2], [3, 4]], B)
    assert res.exactness == EXACT_VERTEX
    assert res.value == pytest.approx(4.0, rel=1e-12)


def test_witness_on_domain_sphere():
    pair = GIndPair(Scaled(3.0, Lp(math.inf)), Lp(1))
    a = np.array([[1.0, 2.0j], [0.5, -1.0]], dtype=np.complex128)
    res = gind_eval(pair, a, B)
    assert vnorm_eval(pair.norm1, res.witness) == pytest.approx(1.0, rel=1e-12)
    assert vnorm_eval(pair.norm2, a @ res.witness) == pytest.approx(res.value, rel=1e-12)


def test_scaling_invariance():
    g = RandomStream(13).generator()
    base = GIndPair(Lp(math.inf), Lp(2))
    for gamma in (0.5, 3.0, 17.0):
        scaled = GIndPair(
            Scaled(gamma, Lp(math.inf)), Scaled(gamma, Lp(2))
        )
        for _ in range(5):
            a = sample_matrix(g, 2)
            v0 = gind_eval(base, a, B).value
            v1 = gind_eval(scaled, a, B).value
            assert v1 == pytest.approx(v0, rel=1e-9)


def test_codomain_and_domain_scaling_laws():
    g = RandomStream(14).generator()
    for gamma in (0.5, 2.0, 7.0):
        for _ in range(5):
            a = sample_matrix(g, 2)
            v0 = gind_eval(GIndPair(Lp(math.inf), Lp(2)), a, B).value
            up = gind_eval(GIndPair(Lp(math.inf), Scaled(gamma, Lp(2))), a, B).value
            down = gind_eval(GIndPair(Scaled(gamma, Lp(math.inf)), Lp(2)), a, B).value
            assert up == pytest.approx(gamma * v0, rel=1e-9)
            assert down == pytest.approx(v0 / gamma, rel=1e-9)


def test_rank_one_closed_form():
    # for A with entries u_i v_j the value is ||u||_2 * dual_1(conj(v))
    g = RandomStream(15).generator()
    norms = [Lp(1), Lp(2), Lp(math.inf), Scaled(2.0, Lp(2))]
    for _ in range(6):
        u, v = sample_vector(g, 2), sample_vector(g, 2)
        a = np.outer(u, v)
        for n1 in norms:
            for n2 in norms:
                got = gind_eval(GIndPair(n1, n2), a, B).value
                want = vnorm_eval(n2, u) * vnorm_dual_eval(n1, np.conj(v))
                assert got == pytest.approx(want, rel=1e-6)


def test_recovers_induced_closed_forms():
    g = RandomStream(16).generator()
    for n in (2, 3):
        budget = OptBudget(multistarts=4, max_iters=300, samples=16, seed=6)
        for _ in range(10):
            a = sample_matrix(g, n)
            got_c = gind_eval(GIndPair(Lp(1), Lp(1)), a, budget).value
            got_r = gind_eval(GIndPair(Lp(math.inf), Lp(math.inf)), a, budget).value
            got_s = gind_eval(GIndPair(Lp(2), Lp(2)), a, budget).value
            assert got_c == pytest.approx(mnorm_eval(MaxColSum(), a), rel=1e-6)
            assert got_r == pytest.approx(mnorm_eval(MaxRowSum(), a), rel=1e-6)
            assert got_s == pytest.approx(mnorm_eval(Spectral(), a), rel=1e-6)


def test_submultiplicative_iff_dominated():
    g = RandomStream(17).generator()
    dominated = GIndPair(Lp(math.inf), Lp(1))
    norm = lambda m: gind_eval(dominated, m, B).value
    for _ in range(60):
        a, b = sample_matrix(g, 2), sample_matrix(g, 2)
        assert norm(a @ b) <= norm(a) * norm(b) * (1 + 1e-9)
    # the reversed pair is not dominated: the all-ones pair violates it
    undominated = GIndPair(Lp(1), Lp(math.inf))
    norm = lambda m: gind_eval(undominated, m, B).value
    assert norm(J2 @ J2) == pytest.approx(2.0, rel=1e-9)
    assert norm(J2) ** 2 == pytest.approx(1.0, rel=1e-9)


def test_chain_identity_example():
    rep = chain_compare(GIndPair(Lp(math.inf), Lp(1)), np.eye(2), B)
    assert rep.v21 == pytest.approx(1.0, rel=1e-9)
    assert rep.v11 == pytest.approx(1.0, rel=1e-9)
    assert rep.v22 == pytest.approx(1.0, rel=1e-9)
    assert rep.v12 == pytest.approx(2.0, rel=1e-9)
    assert rep.chain_holds


def test_chain_equal_norms_coincide():
    g = RandomStream(18).generator()
    a = sample_matrix(g, 3)
    rep = chain_compare(GIndPair(Lp(2), Lp(2)), a, B)
    for v in (rep.v21, rep.v11, rep.v22):
        assert v == pytest.approx(rep.v12, rel=1e-9)
    assert rep.chain_holds


def test_chain_violated_without_dominance():
    rep = chain_compare(GIndPair(Lp(1), Lp(math.inf)), J2, B)
    assert rep.v12 == pytest.approx(1.0, rel=1e-9)
    assert rep.v11 == pytest.approx(2.0, rel=1e-9)
    assert not rep.chain_holds
    assert rep.slack < -1e-6


def test_zero_matrix():
    res = gind_eval(GIndPair(Lp(1), Lp(2)), np.zeros((2, 2)), B)
    assert res.value == 0.0


def test_determinism_across_calls():
    a = np.array([[1.0, 2.0j], [0.5j, -1.0]], dtype=np.complex128)
    pair = GIndPair(Lp(math.inf), Lp(1.5))
    r1 = gind_eval(pair, a, B)
    r2 = gind_eval(pair, a, B)
    assert r1.value == r2.value
    assert np.array_equal(r1.witness, r2.witness)


def test_full_pipeline_at_n4():
    # desk scale tops out at n = 4: recovery and extraction still hold there
    g = RandomStream(77).generator()
    budget = OptBudget(multistarts=3, max_iters=200, samples=12, seed=44)
    a = sample_matrix(g, 4)
    got = gind_eval(GIndPair(Lp(1), Lp(1)), a, budget).value
    assert got == pytest.approx(mnorm_eval(MaxColSum(), a), rel=1e-9)
    got = gind_eval(GIndPair(Lp(math.inf), Lp(math.inf)), a, budget).value
    assert got == pytest.approx(mnorm_eval(MaxRowSum(), a), rel=1e-6)

    from normlab import extract_pair

    inner = OptBudget(multistarts=1, max_iters=16, samples=2, seed=45)
    pair = extract_pair(MaxColSum(), inner)
    outer = OptBudget(multistarts=1, max_iters=30, samples=4, seed=46)
    num = gind_eval(GIndPair(pair.norm1, pair.norm2), a, outer).value
    assert num == pytest.approx(mnorm_eval(MaxColSum(), a), rel=1e-6)


@pytest.mark.parametrize(
    "source, exactness",
    [
        (Spectral(), EXACT_CLOSED_FORM),
        (EntrywiseMax(), EXACT_VERTEX),
        (MaxColSum(), EXACT_VERTEX),
        (EntrywiseSum(), LOWER_BOUND),
        (MaxRowSum(), LOWER_BOUND),
        (MaxOf((MaxColSum(), MaxRowSum())), LOWER_BOUND),
    ],
    ids=["spectral", "entrywise-max", "maxcolsum", "entrywise-sum", "maxrowsum", "maxcr"],
)
def test_extracted_catalog_pairs_reconstruct_through_the_dispatch(source, exactness):
    g = RandomStream(41).generator()
    budget = OptBudget(multistarts=2, max_iters=60, samples=4, seed=6)
    extracted = extract_pair(source)
    pair = GIndPair(extracted.norm1, extracted.norm2)
    for n in (2, 3, 4):
        for _ in range(4):
            a = sample_matrix(g, n)
            res = gind_eval(pair, a, budget)
            want = mnorm_eval(source, a)
            assert res.exactness == exactness
            if exactness == LOWER_BOUND:
                assert res.value <= want * (1 + 1e-9)
            else:
                assert res.value == pytest.approx(want, rel=1e-12)


# l-inf and weighted l-inf domains: the polydisc branch-and-bound

INF = math.inf


def _linf_domains(n: int):
    return [Lp(INF), WeightedLp((2.0, 1.0, 0.5, 1.25)[:n], INF)]


def _radii(domain, n: int) -> np.ndarray:
    return np.ones(n) if isinstance(domain, Lp) else 1.0 / np.asarray(domain.weights)


def _batch_codomains(n: int):
    return [
        Lp(1),
        Lp(1.5),
        Lp(2),
        Lp(3),
        Lp(INF),
        WeightedLp((0.5, 2.0, 1.0, 3.0)[:n], 1.5),
        Scaled(2.0, Lp(2)),
        MaxOf((Lp(1), Scaled(2.0, Lp(INF)))),
    ]


def _column_norms(spec):
    """The codomain descriptor on the columns of a 2-d array, in plain numpy."""
    if isinstance(spec, Lp):
        return lambda y: lp_batched(y, spec.p)
    if isinstance(spec, WeightedLp):
        w = np.asarray(spec.weights)[:, None]
        return lambda y: lp_batched(w * y, spec.p)
    if isinstance(spec, Scaled):
        inner = _column_norms(spec.inner)
        return lambda y: spec.gamma * inner(y)
    parts = [_column_norms(part) for part in spec.parts]
    return lambda y: np.max([part(y) for part in parts], axis=0)


def _complex(g: np.random.Generator, n: int) -> np.ndarray:
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)


def _check_witness(pair, a, res):
    assert vnorm_eval(pair.norm1, res.witness) == pytest.approx(1.0, rel=1e-12)
    assert vnorm_eval(pair.norm2, a @ res.witness) == pytest.approx(res.value, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linf_domains_match_dense_oracles(n):
    # n = 2: the sphere enumeration behind dense_gind_oracle, on an odd grid
    # so that every round keeps the torus's modulus profile; n = 3, 4: a torus
    # grid with a local polish of each of its peaks
    g = np.random.default_rng([2024, n])
    for domain in _linf_domains(n):
        r = _radii(domain, n)
        for codomain in _batch_codomains(n):
            a = _complex(g, n)
            norm2 = _column_norms(codomain)
            if n == 2:
                oracle = dense_sphere_max(lambda y: norm2((a * r) @ y), INF, grid=341, rounds=4)
            else:
                oracle = dense_torus_max(lambda x: norm2(a @ x), r, grid=(0, 0, 96, 40)[n - 1])
            pair = GIndPair(domain, codomain)
            res = gind_eval(pair, a)
            label = f"{domain} -> {codomain}"
            assert res.exactness == LOWER_BOUND, label
            assert abs(res.value - oracle) <= 1e-9 * oracle, label
            assert res.value <= oracle * (1 + 1e-12), label
            _check_witness(pair, a, res)


def _dft(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def _dft_value(codomain, n: int) -> float:
    """max ||F x|| over unimodular x, F = DFT/sqrt(n) unitary: ||F x||_2 = sqrt(n)
    always, so l_p peaks at n^(1/p) (flat F x, which some x gives) for p <= 2
    and at sqrt(n) (F x = sqrt(n) e_0 at x = 1) for p >= 2."""
    if isinstance(codomain, Lp):
        return n ** max(1.0 / codomain.p, 0.5)
    if isinstance(codomain, Scaled):
        return codomain.gamma * _dft_value(codomain.inner, n)
    return max(_dft_value(part, n) for part in codomain.parts)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flat_maxima_are_exact(n):
    # the absolute bound N2(|A| r) settles the identity, a permutation, a
    # single-entry, the all-ones and the zero matrix from the starts, though
    # the whole torus (or whole circles of it) maximizes most of them; two
    # columns into l2 take the closed form, one evaluation;
    # DFT/sqrt(n) into l2 is flat everywhere and below that bound, so it runs
    # the search, within 0.5 s a call
    perm = np.roll(np.eye(n), 1, axis=0)
    single = np.zeros((n, n), dtype=np.complex128)
    single[n - 1, 0] = 2.0 - 1.0j
    for domain in _linf_domains(n):
        r = _radii(domain, n)
        for codomain in _batch_codomains(n):
            pair = GIndPair(domain, codomain)
            closed = n == 2 and gind.split_scale(codomain)[1] == Lp(2)
            settled = [
                (np.eye(n), vnorm_eval(codomain, r)),
                (perm, vnorm_eval(codomain, perm @ r)),
                (single, abs(single[n - 1, 0]) * r[0] * vnorm_eval(codomain, np.eye(n)[n - 1])),
                (np.ones((n, n)), vnorm_eval(codomain, np.full(n, r.sum()))),
                (np.zeros((n, n)), 0.0),
            ]
            for a, want in settled:
                res = gind_eval(pair, a)
                assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)
                assert res.evaluations == (1 if closed else n)
                _check_witness(pair, a, res)
            if isinstance(domain, Lp) and not isinstance(codomain, WeightedLp):
                start = time.perf_counter()
                res = gind_eval(pair, _dft(n))
                assert time.perf_counter() - start < 0.5
                assert res.value == pytest.approx(_dft_value(codomain, n), rel=1e-9)
                _check_witness(pair, _dft(n), res)


def test_linf_to_linf_is_the_max_row_sum_from_the_starts():
    g = np.random.default_rng(29)
    for n in (1, 2, 3, 4):
        for domain in _linf_domains(n):
            r = _radii(domain, n)
            for _ in range(20):
                a = _complex(g, n)
                res = gind_eval(GIndPair(domain, Lp(INF)), a)
                assert res.value == pytest.approx(float((np.abs(a) @ r).max()), rel=1e-15)
                assert res.evaluations == n


def _polyhedral_domains(n: int):
    """Polyhedral domains with l1 parts: max(l1, 2 l-inf), a weighted and
    scaled one, and a nested MaxOf."""
    w = (2.0, 1.0, 0.5, 1.25)[:n]
    return [
        MaxOf((Lp(1), Scaled(2.0, Lp(INF)))),
        MaxOf((WeightedLp(w, 1), Scaled(1.5, Lp(INF)))),
        MaxOf((Scaled(0.5, Lp(1)), MaxOf((WeightedLp(w, INF), Scaled(0.75, WeightedLp(w[::-1], 1)))))),
    ]


def _vertices(domain, n: int) -> list:
    _, core1 = gind.split_scale(domain)
    return gind._ball_vertices(core1, *gind._moduli_constraints(core1, n))


@pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 3), (4, 6)])
def test_max_l1_2linf_vertices_hold_two_halves(n, count):
    # max(l1, 2 l-inf) <= 1 caps each modulus at 1/2 and their sum at 1; the
    # maximal vertices put 1/2 on two coordinates (on the one at n = 1)
    verts = _vertices(MaxOf((Lp(1), Scaled(2.0, Lp(INF)))), n)
    assert len(verts) == count
    assert len({tuple(v) for v in verts}) == count
    for v in verts:
        assert sorted(v.tolist(), reverse=True) == [0.5] * min(n, 2) + [0.0] * (n - 2)


def test_ball_vertices_of_weighted_scaled_and_nested_cores():
    half_l1 = MaxOf((Scaled(0.5, Lp(1)), Lp(INF)))  # sum <= 2, each <= 1
    assert [v.tolist() for v in _vertices(half_l1, 2)] == [[1.0, 1.0]]
    assert sorted(v.tolist() for v in _vertices(half_l1, 3)) == [
        [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]
    ]
    # r0 + 2 r1 <= 1 inside the unit box: the two axis vertices
    weighted = MaxOf((WeightedLp((1.0, 2.0), 1), Lp(INF)))
    assert sorted(v.tolist() for v in _vertices(weighted, 2)) == [[0.0, 0.5], [1.0, 0.0]]
    # two l1 rows meet inside the simplex: r1 + r2 = 1 and 3 r1 + r2 / 2 = 1
    rows = MaxOf((Lp(1), WeightedLp((1.0, 3.0, 0.5), 1)))
    got = sorted(v.tolist() for v in _vertices(rows, 3))
    want = [[0.0, 0.0, 1.0], [0.0, 0.2, 0.8], [0.0, 1.0 / 3.0, 0.0], [1.0, 0.0, 0.0]]
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    # nesting and outer scales fold into the same rows and caps
    nested = Scaled(3.0, MaxOf((Lp(1), MaxOf((Scaled(2.0, Lp(INF)),)))))
    for n in (1, 2, 3, 4):
        flat = _vertices(MaxOf((Lp(1), Scaled(2.0, Lp(INF)))), n)
        assert [v.tolist() for v in _vertices(nested, n)] == [v.tolist() for v in flat]
    # l-inf cores are the one-vertex case: the caps, bit for bit
    for n in (1, 2, 3, 4):
        for domain in _linf_domains(n):
            (v,) = _vertices(domain, n)
            assert v.tobytes() == _radii(domain, n).tobytes()
    # every vertex lies on the unit sphere of its norm, none dominates another
    for n in (1, 2, 3, 4):
        for domain in _polyhedral_domains(n):
            _, core1 = gind.split_scale(domain)
            verts = _vertices(domain, n)
            for v in verts:
                assert vnorm_eval(core1, v) == pytest.approx(1.0, rel=1e-15)
                assert not any((u >= v).all() and (u > v).any() for u in verts)


def _polydisc_from_starts(objective_many, a, radii, starts, ceiling):
    """maximize_on_polydisc of x -> f(a x), a stack of one, from the best of
    ``starts``, ties to the first, scored by the same objective of images."""
    vals = objective_many(starts @ a.T)
    k = int(np.argmax(vals))
    start = ComputationResult(float(vals[k]), starts[k], LOWER_BOUND, len(starts))
    return sphere_opt.maximize_on_polydisc(objective_many, radii, [start], [ceiling], a[None])[0]


def test_skipped_vertices_never_change_the_result():
    # a vertex whose ceiling N2(|A_S| v_S) does not exceed the best value so
    # far cannot win, so the union equals the search of every vertex; into
    # l2, two-coordinate vertices take the closed form, which the search
    # approaches from below to its 1e-9
    g = np.random.default_rng(43)
    skipped = 0
    for n in (3, 4):
        for domain in _polyhedral_domains(n):
            for codomain in (Lp(2), Lp(1.5)):
                a = _complex(g, n)
                verts = _vertices(domain, n)
                got = gind._polyhedral_search(codomain, a[None], verts)[0]
                best, evals = None, 0
                for v in verts:
                    s = np.flatnonzero(v)
                    res = _polydisc_from_starts(
                        lambda ys: np.asarray([vnorm_eval(codomain, y) for y in ys]),
                        a[:, s],
                        v[s],
                        v[s] * core.conj_phases(a)[:, s],
                        vnorm_eval(codomain, np.abs(a[:, s]) @ v[s]),
                    )
                    evals += res.evaluations
                    best = res.value if best is None else max(best, res.value)
                if codomain == Lp(2):
                    assert best * (1 - 1e-15) <= got.value <= best * (1 + 1e-9)
                else:
                    assert got.value == pytest.approx(best, rel=1e-12)
                assert got.evaluations <= evals
                skipped += got.evaluations < evals
    assert skipped > 0


def test_non_polyhedral_maxof_domains_still_climb(monkeypatch):
    climbs = []
    climb = sphere_opt._climb
    monkeypatch.setattr(sphere_opt, "_climb", lambda *args: climbs.append(1) or climb(*args))
    domain = MaxOf((Lp(3), Scaled(0.5, Lp(1))))
    assert gind._moduli_constraints(domain, 3) is None
    a = _complex(np.random.default_rng(37), 3)
    res = gind_eval(GIndPair(domain, Lp(2)), a, B)
    assert climbs == [1]
    assert res.exactness == LOWER_BOUND


def _leaves(spec, gamma=1.0):
    """The Lp and WeightedLp parts of a tree of Scaled and MaxOf, each under
    its accumulated scale."""
    if isinstance(spec, Scaled):
        return _leaves(spec.inner, gamma * spec.gamma)
    if isinstance(spec, MaxOf):
        return [leaf for part in spec.parts for leaf in _leaves(part, gamma)]
    return [Scaled(gamma, spec)]


@pytest.mark.parametrize("n", [2, 3])
def test_polyhedral_domains_match_dense_oracles(n):
    # the unit ball is the convex hull of the vertices' polydiscs, so the
    # maximum is the best dense torus scan over them; the domain norm
    # dominates each of its parts, so the dual of every part bounds the
    # domain's dual from above and the column bound N1^D((N2(a_j))_j) with it
    g = np.random.default_rng([2027, n])
    for domain in _polyhedral_domains(n):
        for codomain in (Lp(1.5), Lp(2), Lp(INF), WeightedLp((0.5, 2.0, 1.0)[:n], 3)):
            a = _complex(g, n)
            norm2 = _column_norms(codomain)
            oracle = 0.0
            for v in _vertices(domain, n):
                s = np.flatnonzero(v)
                oracle = max(oracle, dense_torus_max(
                    lambda x: norm2(a[:, s] @ x), v[s], grid={1: 1, 2: 96, 3: 96}[s.size]
                ))
            columns = np.array([vnorm_eval(codomain, a[:, j]) for j in range(n)])
            ceiling = min(vnorm_dual_eval(leaf, columns) for leaf in _leaves(domain))
            pair = GIndPair(domain, codomain)
            res = gind_eval(pair, a)
            label = f"{domain} -> {codomain}"
            assert res.exactness == LOWER_BOUND, label
            assert res.value >= oracle * (1 - 1e-9), label
            assert res.value <= ceiling * (1 + 1e-12), label
            _check_witness(pair, a, res)


def test_linf_domains_never_climb(monkeypatch):
    # no climb, no eigen solve, no random stream: the search is deterministic
    def forbidden(*args, **kwargs):
        raise AssertionError("the polydisc search must not reach this")

    monkeypatch.setattr(sphere_opt, "_climb", forbidden)
    monkeypatch.setattr(gind, "hermitian_top_eig", forbidden)
    monkeypatch.setattr(core.RandomStream, "generator", forbidden)
    g = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        for domain in _linf_domains(n) + _polyhedral_domains(n):
            for codomain in _batch_codomains(n):
                for outer in (1.0, 3.0):
                    pair = GIndPair(Scaled(outer, domain), codomain)
                    res = gind_eval(pair, _complex(g, n))
                    assert res.exactness == LOWER_BOUND


def _count_search_calls(monkeypatch) -> list:
    """Rebind ``gind.maximize_on_polydisc`` so that each call, the lockstep
    search of every live matrix at one vertex, appends [free phases,
    objective calls] to the returned list; the caller's scoring of its
    starts counts as one call.  A lone matrix's call is one search."""
    searches = []
    real = gind.maximize_on_polydisc

    def counting(objective_many, radii, *args):
        entry = [len(radii) - 1, 1]
        searches.append(entry)

        def objective(xs):
            entry[1] += 1
            return objective_many(xs)

        return real(objective, radii, *args)

    monkeypatch.setattr(gind, "maximize_on_polydisc", counting)
    return searches


def test_one_phase_searches_make_at_most_six_objective_calls(monkeypatch):
    # one free phase splits each live arc 16 ways: the starts, then five
    # rounds take the arc half-width from pi/4 to pi/262144, where the box
    # bound's excess 1/cos h - 1 is below the 1e-9 prune (into l2 one free
    # phase has a closed form, so these codomains are l1 and l1.5)
    searches = _count_search_calls(monkeypatch)
    g = np.random.default_rng(1906)
    half = MaxOf((Lp(1), Scaled(2.0, Lp(INF))))
    cases = [(GIndPair(Lp(INF), codomain), 2) for codomain in (Lp(1), Scaled(2.0, Lp(1.5)))]
    cases += [(GIndPair(half, Lp(1)), 3), (GIndPair(half, Lp(1.5)), 4)]
    for pair, n in cases:
        for _ in range(10):
            gind_eval(pair, _complex(g, n))
    one_phase = [calls for d, calls in searches if d == 1]
    assert len(one_phase) == len(searches) and sum(calls > 1 for calls in one_phase) >= 30
    assert max(one_phase) <= 6


def test_searches_with_more_phases_still_halve():
    # two and three free phases halve every box: these counts and values
    # pin that search, so a change to its split shows here (scoring each
    # box's 3**d vertex combinations on its own took 2,919 and 51,628 rows
    # to 6.284754042735348 and the same 9.13873685876921)
    pair = GIndPair(Lp(INF), Lp(1))
    for n, evaluations, value in ((3, 2009, 6.284754042735349), (4, 29608, 9.13873685876921)):
        a = _complex(np.random.default_rng([19, n]), n)
        res = gind_eval(pair, a)
        assert (res.evaluations, res.value) == (evaluations, value), n


def test_linf_to_l2_matches_the_closed_form():
    # two columns into l2 have a closed form, which gind_eval takes: the
    # oracle computes it apart, from the column norms and inner product
    g = np.random.default_rng(1907)
    for _ in range(240):
        a = _complex(g, 2)
        r = np.exp(g.uniform(-2.0, 2.0, 2))
        closed = linf_to_l2_closed_form(a, r)
        res = gind_eval(GIndPair(WeightedLp(tuple(1.0 / r), INF), Lp(2)), a)
        assert closed * (1 - 1e-12) <= res.value <= closed * (1 + 1e-12)


def _degenerate_columns(g: np.random.Generator, n: int) -> list:
    """Matrices with a zero column, two parallel columns, two orthogonal
    columns, and the zero matrix."""
    zero, parallel, orthogonal = (_complex(g, n) for _ in range(3))
    zero[:, 0] = 0.0
    parallel[:, 1] = (0.5 - 2j) * parallel[:, 0]
    orthogonal[:, :2] = np.array([[1.0, 1j], [1j, 1.0]] + [[0.0, 0.0]] * (n - 2))
    return [zero, parallel, orthogonal, np.zeros((n, n))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_coordinate_vertices_into_l2_take_the_closed_form(monkeypatch, n):
    # every maximal vertex of max(l1, 2 l-inf) holds 1/2 on two coordinates,
    # so the maximum is the best pair's closed form, and no search runs
    searches = _count_search_calls(monkeypatch)
    g = np.random.default_rng([1908, n])
    w = (2.0, 1.0, 0.5, 1.25)[:n]
    half = MaxOf((Lp(1), Scaled(2.0, Lp(INF))))
    codomains = [(Lp(2), 1.0, np.ones(n)), (WeightedLp(w, 2), 1.0, np.asarray(w)),
                 (Scaled(3.0, Lp(2)), 3.0, np.ones(n))]
    matrices = [_complex(g, n) for _ in range(30)] + _degenerate_columns(g, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for codomain, gamma, rows in codomains:
            pair = GIndPair(half, codomain)
            for a in matrices:
                want = gamma * half_pairs_l2_closed_form(rows[:, None] * a)
                res = gind_eval(pair, a)
                assert res.exactness == LOWER_BOUND
                assert abs(res.value - want) <= 1e-12 * want, codomain
                assert res.evaluations <= n * (n - 1) // 2
                _check_witness(pair, a, res)
    assert searches == []


POLYDISC_GOLDEN = Path(__file__).resolve().parent / "data" / "polydisc_linf_l1.json"


@pytest.mark.parametrize("n", [3, 4])
def test_shared_corners_keep_the_values(n):
    # scoring each split's shared corners once finds the values that scoring
    # every box's corners on its own found, on 100 matrices, with fewer rows
    golden = json.loads(POLYDISC_GOLDEN.read_text(encoding="utf-8"))[f"n={n}"]
    g = np.random.default_rng([2048, n])
    rows = 0
    for want in golden["values"]:
        res = gind_eval(GIndPair(Lp(INF), Lp(1)), _complex(g, n))
        assert abs(res.value - float.fromhex(want)) <= 1e-12 * res.value
        rows += res.evaluations
    assert rows < 0.7 * sum(golden["evaluations"])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_round_scores_the_parents_grids(n):
    # a round scores (2q+1)**d rows per live parent: the first one the 9**d
    # of the whole torus split 4 ways, later ones 33 per live arc at d = 1
    # and 5**d per live box at d >= 2, in calls of at most 2,048 rows
    d = n - 1
    g = np.random.default_rng([1909, n])
    for _ in range(5):
        a = _complex(g, n)
        calls = []
        objective = lambda ys: calls.append(len(ys)) or np.abs(ys).sum(axis=1)
        r = np.ones(n)
        res = _polydisc_from_starts(
            objective, a, r, core.conj_phases(a), vnorm_eval(Lp(1), np.abs(a) @ r)
        )
        assert calls[:2] == [n, 9**d]
        grid = 33 if d == 1 else 5**d
        assert all(rows % grid == 0 and rows <= 2048 for rows in calls[2:])
        assert sum(calls) == res.evaluations


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "pair",
    [
        GIndPair(Lp(INF), Lp(1)),  # polydisc search
        GIndPair(Lp(3), Lp(1.5)),  # power method
        GIndPair(Lp(1), Lp(INF)),  # vertex
        GIndPair(Lp(2), Lp(2)),  # closed form
        GIndPair(MaxOf((Lp(3), Scaled(0.5, Lp(1)))), Lp(2)),  # climb
    ],
)
def test_non_finite_matrices_are_rejected(pair, bad):
    with pytest.raises(NonFiniteInputError) as info:
        gind_eval(pair, [[bad, 0], [0, 1]], B)
    assert isinstance(info.value, NormlabError) and isinstance(info.value, ValueError)


_BIG = [[1e200, 0], [0, 1]]
_SUBNORMAL = [[0, 0], [0, 1e-310]]


@pytest.mark.parametrize(
    "pair, a, value, label",
    [
        # l2 sums of squares that overflow or underflow are scaled first
        (GInd(Lp(2), Lp(2)), _BIG, 1e200, EXACT_CLOSED_FORM),
        (GInd(Lp(1), Lp(2)), _BIG, 1e200, EXACT_VERTEX),
        (GInd(Lp(math.inf), Lp(2)), _BIG, 1e200, LOWER_BOUND),
        (GInd(Lp(1), Lp(2)), [[1e-200, 0], [0, 1e-200]], 1e-200, EXACT_VERTEX),
        # the phase of an entry whose modulus has no finite reciprocal
        (GInd(Lp(math.inf), Lp(1)), _SUBNORMAL, 1e-310, LOWER_BOUND),
        (GInd(Lp(3), Lp(1.5)), _SUBNORMAL, 1e-310, LOWER_BOUND),
        (GInd(Lp(math.inf), Lp(1)), [[1e-310]], 1e-310, LOWER_BOUND),
        (GInd(MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))), Lp(2)), [[1e-310]], 5e-311, LOWER_BOUND),
    ],
)
def test_extreme_finite_entries_read_their_values(pair, a, value, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gind_eval(pair, a, B)
    assert (res.value, res.exactness) == (value, label)
    if a is _BIG:
        assert mnorm_eval(Spectral(), a) == res.value


def test_two_column_l2_phase_of_an_inner_product_without_a_finite_modulus():
    # <a_1, a_0> = 1.69e308 (1 + i) has finite parts, but its modulus
    # exceeds the largest float: its phase is that of its half
    a = np.array([[1.3e154 * (1 + 1j), 1.3e154], [0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gind_eval(GInd(Lp(math.inf), Lp(2)), a, B)
    assert res.value == pytest.approx(1.3e154 * (math.sqrt(2) + 1), rel=1e-15)
    assert vnorm_eval(Lp(2), a @ res.witness) == res.value


@pytest.mark.parametrize(
    "a",
    [[[1e160, 1e160], [0, 0]], [[1e160, 1e160j], [0, 0]], [[1e160, 1e160], [1e160, -1e160]]],
    ids=["parallel", "phased", "orthogonal"],
)
def test_two_column_l2_phase_of_an_overflowing_inner_product(a):
    # <a_1, a_0> overflows to an infinite or NaN part, in vdot too, though
    # the norm, 2e160 each time, is finite: its phase is that of the inner
    # product of the columns scaled by powers of two
    a = np.array(a, dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gind_eval(GInd(Lp(math.inf), Lp(2)), a, B)
        assert res.value == pytest.approx(2e160, rel=1e-15)
        assert vnorm_eval(Lp(math.inf), res.witness) == 1.0
        assert vnorm_eval(Lp(2), a @ res.witness) == res.value


# smooth l_p domains, 1 < p < inf: the nonlinear power method


def _smooth_domains(n: int):
    w = (2.0, 1.0, 0.5, 1.25)[:n]
    return [Lp(1.5), Lp(3), WeightedLp(w, 3), Scaled(0.5, WeightedLp(w[::-1], 1.5))]


def _column_bound(pair, a) -> float:
    """N1^D((N2(a_j))_j): ||Ax|| <= sum_j |x_j| N2(a_j) <= N1(x) N1^D(c)."""
    columns = np.array([vnorm_eval(pair.norm2, a[:, j]) for j in range(a.shape[1])])
    return vnorm_dual_eval(pair.norm1, columns)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_smooth_domains_match_the_dense_oracle(p):
    g = np.random.default_rng([2031, int(p * 2)])
    for codomain_p, scale in ((1.0, 1.0), (1.5, 1.0), (3.0, 1.0), (INF, 1.0), (2.0, 2.0)):
        codomain = Lp(codomain_p) if scale == 1.0 else Scaled(scale, Lp(codomain_p))
        pair = GIndPair(Lp(p), codomain)
        for _ in range(3):
            a = _complex(g, 2)
            oracle = dense_gind_oracle(a, p, codomain_p, scale)
            res = gind_eval(pair, a)
            label = f"l{p} -> {codomain}"
            assert res.exactness == LOWER_BOUND, label
            assert res.value >= oracle * (1 - 1e-9), label
            assert res.value <= _column_bound(pair, a) * (1 + 1e-12), label
            _check_witness(pair, a, res)


@pytest.mark.parametrize("n", [3, 4])
def test_smooth_domains_stay_below_the_column_bound(n):
    g = np.random.default_rng([2033, n])
    for domain in _smooth_domains(n):
        for codomain in _batch_codomains(n):
            pair = GIndPair(domain, codomain)
            a = _complex(g, n)
            res = gind_eval(pair, a)
            label = f"{domain} -> {codomain}"
            assert res.exactness == LOWER_BOUND, label
            assert res.value <= _column_bound(pair, a) * (1 + 1e-12), label
            _check_witness(pair, a, res)


def test_smooth_domains_never_climb(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the power method must not reach the climb")

    monkeypatch.setattr(sphere_opt, "_climb", forbidden)
    g = np.random.default_rng(47)
    for n in (1, 2, 3, 4):
        for domain in _smooth_domains(n) + [WeightedLp((2.0, 1.0, 0.5, 1.25)[:n], 2)]:
            for codomain in _batch_codomains(n):
                res = gind_eval(GIndPair(Scaled(3.0, domain), codomain), _complex(g, n), B)
                assert res.exactness == LOWER_BOUND


def test_rank_one_matrices_converge_in_two_steps():
    # C_x = x 1^T maps y to (sum_j y_j) x, so its value is N2(x) N1^D(1), and
    # one step reaches it from any start: a second step does not move, so
    # each start scores at most two rows beyond its own
    g = np.random.default_rng(53)
    for n in (2, 3, 4):
        for domain in _smooth_domains(n):
            for codomain in _batch_codomains(n):
                x = _complex(g, n)[0]
                a = np.outer(x, np.ones(n))
                pair = GIndPair(domain, codomain)
                res = gind_eval(pair, a)
                want = vnorm_eval(codomain, x) * vnorm_dual_eval(domain, np.ones(n))
                assert res.value == pytest.approx(want, rel=1e-12)
                # the basis, the all-ones vector, n phase vectors, the seeds
                starts = 2 * n + 1 + len(list(gind._quality_seeds(a)))
                assert res.evaluations <= 3 * starts
                _check_witness(pair, a, res)


def test_zero_images_raise_no_warning():
    # the zero matrix gives every start a zero image, and a zero column gives
    # e_2 one.  The values are those the sphere climb found at budget
    # OptBudget(1000, 400, 16, 3), or above
    a = np.array([[1.0, 2j, 0], [0, 0, 0], [0.5, -1.0, 0]])
    pairs = {
        GIndPair(Lp(3), Lp(1.5)): 2.866418596501418,
        GIndPair(WeightedLp((2.0, 0.5, 1.0), 1.5), Lp(INF)): 4.002602275264524,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair, climbed in pairs.items():
            first = np.eye(3, dtype=np.complex128)[0]
            res = gind_eval(pair, np.zeros((3, 3)))
            assert res.value == 0.0
            assert res.witness.tobytes() == (first / vnorm_eval(pair.norm1, first)).tobytes()
            assert res.exactness == LOWER_BOUND
            res = gind_eval(pair, a)
            assert res.value >= climbed
            assert res.value <= _column_bound(pair, a) * (1 + 1e-12)
            _check_witness(pair, a, res)


POWER_VALUES = Path(__file__).resolve().parent / "data" / "power_values.json"


def _power_value_pairs(n: int) -> dict:
    w = (2.0, 1.0, 0.5, 1.25)[:n]
    return {
        "l3->l1.5": GIndPair(Lp(3), Lp(1.5)),
        "l2->l1": GIndPair(Lp(2), Lp(1)),
        "wl3->max(l1,2linf)": GIndPair(WeightedLp(w, 3), MaxOf((Lp(1), Scaled(2.0, Lp(INF))))),
    }


def test_power_method_values_never_fall():
    # the values of an earlier form of the power method on 378 random calls:
    # a change of its steps may move a value by rounding, never down by more
    # than 1e-15 relative, and never above the column bound
    recorded = json.loads(POWER_VALUES.read_text(encoding="utf-8"))["values"]
    for n in (2, 3, 4):
        g = np.random.default_rng([777, n])
        matrices = [g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)) for _ in range(42)]
        for name, pair in _power_value_pairs(n).items():
            before = recorded[f"{name} n={n}"]
            assert len(before) == len(matrices)
            for k, (a, value) in enumerate(zip(matrices, before)):
                label = f"{name} n={n} #{k}"
                res = gind_eval(pair, a, default_budget(n, n))
                assert res.value >= float.fromhex(value) * (1 - 1e-15), label
                assert res.value <= _column_bound(pair, a) * (1 + 1e-12), label
                assert vnorm_eval(pair.norm1, res.witness) == pytest.approx(1.0, rel=1e-12), label


def test_smooth_domains_read_no_budget():
    # the power method runs from fixed starts with its own step cap, and the
    # l2 -> l2 closed form from a fixed eigen start, so the budget moves no
    # bit of their results
    for n in (2, 3, 4):
        g = np.random.default_rng([881, n])
        pairs = _power_value_pairs(n) | {"l2->2 l2": GIndPair(Lp(2), Scaled(2.0, Lp(2)))}
        for name, pair in pairs.items():
            for _ in range(4):
                a = _complex(g, n)
                full = gind_eval(pair, a, default_budget(n, 17 * n))
                tiny = gind_eval(pair, a, OptBudget(1, 1, 1, 0))
                label = f"{name} n={n}"
                assert full.value.hex() == tiny.value.hex(), label
                assert full.witness.tobytes() == tiny.witness.tobytes(), label
                assert full.evaluations == tiny.evaluations, label


L2_CLOSED_FORM = Path(__file__).resolve().parent / "data" / "gind_l2_closed_form.json"


def _hex_entries(arr) -> list:
    return [[float(z.real).hex(), float(z.imag).hex()] for z in np.asarray(arr).ravel()]


def test_l2_closed_form_replays_recorded_bits():
    # 200 l2 -> l2 calls recorded when the closed form was a branch of the
    # sphere maximizer: n = 1..4, Scaled domains and codomains, the extracted
    # Spectral pair, zero columns, rank one, Hermitian, identity and zero
    # matrices.  The route in gind_eval must give the same value bits,
    # witness bits, label and evaluation count, and mnorm_eval of the GInd
    # the same value bits
    from normlab.formats import norm_spec_from_doc

    cases = json.loads(L2_CLOSED_FORM.read_text(encoding="utf-8"))["cases"]
    assert len(cases) >= 120
    for k, case in enumerate(cases):
        n = case["n"]
        flat = [complex(float.fromhex(re), float.fromhex(im)) for re, im in case["matrix"]]
        a = np.array(flat, dtype=np.complex128).reshape(n, n)
        spec = GInd(norm_spec_from_doc(case["norm1"]), norm_spec_from_doc(case["norm2"]))
        res = gind_eval(spec, a)
        label = f"case {k}: n={n} {spec}"
        assert res.value.hex() == case["value"], label
        assert _hex_entries(res.witness) == case["witness"], label
        assert res.exactness == case["exactness"] == EXACT_CLOSED_FORM, label
        assert res.evaluations == case["evaluations"], label
        assert mnorm_eval(spec, a).hex() == res.value.hex(), label


ROUTE_BITS = Path(__file__).resolve().parent / "data" / "gind_route_bits.json"


def test_stacked_routes_replay_recorded_bits():
    # 376 calls recorded when every route took one matrix a call: the plain
    # and weighted l1 vertex routes, the two-column l2 closed form, and the
    # polydisc route with starts at their ceiling and with searches, at
    # n = 1..4 on random, real, zero, identity, all-ones and Hermitian
    # matrices.  gind_eval, and gind_eval_many over each pair's matrices at
    # once, must give the same value bits, witness bits, label and
    # evaluation count
    from normlab.formats import norm_spec_from_doc

    doc = json.loads(ROUTE_BITS.read_text(encoding="utf-8"))
    matrices = [
        np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in flat])
        for flat in doc["matrices"]
    ]
    groups: dict = {}
    for case in doc["cases"]:
        key = (case["n"], json.dumps(case["norm1"]), json.dumps(case["norm2"]))
        groups.setdefault(key, []).append(case)
    assert {case["route"] for case in doc["cases"]} == {
        "vertex", "weighted-vertex", "two-column", "polydisc-ceiling", "polydisc-search"
    }
    assert sum(case["evaluations"] > 3 * case["n"] for case in doc["cases"]) >= 20
    for (n, norm1, norm2), cases in groups.items():
        spec = GInd(norm_spec_from_doc(json.loads(norm1)), norm_spec_from_doc(json.loads(norm2)))
        stack = np.array([matrices[case["matrix"]].reshape(n, n) for case in cases])
        many = gind_eval_many(spec, stack)
        for a, got, case in zip(stack, many, cases):
            label = f"{case['route']}: n={n} {spec} matrix {case['matrix']}"
            for res in (gind_eval(spec, a), got):
                assert res.value.hex() == case["value"], label
                assert _hex_entries(res.witness) == case["witness"], label
                assert res.exactness == case["exactness"], label
                assert res.evaluations == case["evaluations"], label


L1_EXTRACTED_CODOMAINS = Path(__file__).resolve().parent / "data" / "gind_l1_extracted_codomains.json"


def test_l1_domains_into_extracted_codomains_replay_recorded_bits(monkeypatch):
    # 12 calls recorded when an l1, weighted-l1 or scaled-l1 domain into a
    # codomain with an Extracted leaf took the sphere maximizer's vertex
    # route, at n = 2: role 2 of an off-table source, of a table source under
    # Scaled, beside l2 under MaxOf, and role 1 of an off-table source.  The
    # vertex route of gind_eval_many must give the same value bits, witness
    # bits, label and evaluation count, without the sphere maximizer
    from normlab.formats import norm_spec_from_doc

    def no_sphere_maximizer(*args, **kwargs):
        raise AssertionError("an l1 domain reached maximize_on_sphere")

    monkeypatch.setattr(gind, "maximize_on_sphere", no_sphere_maximizer)
    cases = json.loads(L1_EXTRACTED_CODOMAINS.read_text(encoding="utf-8"))["cases"]
    assert len(cases) == 12
    for case in cases:
        spec = GInd(norm_spec_from_doc(case["norm1"]), norm_spec_from_doc(case["norm2"]))
        a = np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in case["matrix"]])
        res = gind_eval(spec, a.reshape(2, 2))
        assert res.value.hex() == case["value"], spec
        assert _hex_entries(res.witness) == case["witness"], spec
        assert res.exactness == case["exactness"] == EXACT_VERTEX, spec
        assert res.evaluations == case["evaluations"], spec


def test_gindpair_is_gind():
    assert GIndPair is GInd
    assert GIndPair(Lp(2), Lp(1)) == GInd(Lp(2), Lp(1))


def _conjugate(p: float) -> float:
    return INF if p == 1.0 else 1.0 if p == INF else p / (p - 1.0)


_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 4.0, INF)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    p=st.sampled_from(_EXPONENTS),
    q=st.sampled_from(_EXPONENTS),
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_has_the_same_induced_norm(p, q, n, seed):
    # ||A||_{p -> q} = ||A*||_{q' -> p'}: the two sides often take different
    # routes (vertex, polydisc, power method, closed form), so each checks the
    # other without a dense oracle.  The polydisc search of an l-inf domain
    # stops within 1e-9 of its maximum; the other routes agree to rounding
    a = _complex(np.random.default_rng(seed), n)
    primal = gind_eval(GIndPair(Lp(p), Lp(q)), a).value
    adjoint = gind_eval(GIndPair(Lp(_conjugate(q)), Lp(_conjugate(p))), a.conj().T).value
    tol = 2e-9 if INF in (p, _conjugate(q)) else 1e-12
    assert primal == pytest.approx(adjoint, rel=tol)


GOLDEN = Path(__file__).resolve().parent / "data" / "gind_ascent_golden.json"


def _golden_matrix(entry: dict, n: int) -> np.ndarray:
    flat = [complex(float.fromhex(re), float.fromhex(im)) for re, im in entry["matrix"]]
    return np.array(flat, dtype=np.complex128).reshape(n, n)


def test_starts_that_cannot_catch_the_best_retire(monkeypatch):
    # on this matrix every start but the best crawls toward a lower local
    # maximum, about 0.2% below; each would spend all 400 steps, but none
    # can reach the best at its rate of gain, so they retire early
    a = np.array([
        [-0.07166463604118728 + 0.16255250474546945j, 0.9169755573182296 - 0.04571831500187342j,
         1.017470060753194 - 0.967866639880192j],
        [-0.2019810467761021 + 0.04435010410809679j, -0.17443541240859767 + 0.09709429115548887j,
         0.675371150796781 - 0.5904658233306094j],
        [-0.25908859378584703 + 0.225062899228457j, -0.8873450199229616 + 0.8127140170091874j,
         0.17935251605049107 - 0.5837593999952724j],
    ])
    calls = []
    real = gind.norming_functionals_many
    monkeypatch.setattr(gind, "norming_functionals_many", lambda *args: calls.append(1) or real(*args))
    res = gind_eval(GIndPair(Lp(3), Lp(1.5)), a, default_budget(3, 1364388014))
    # two kernel calls per step, one more for the starts
    assert 0 < len(calls) // 2 < 100
    assert res.value == 2.4661178281861846


def test_golden_l3_to_l15_evaluation_counts():
    # the power method is deterministic, so a convergence change shows up as
    # a count; the climb scored 6,536, 9,803 and 13,070 rows on these
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for n, evaluations in ((2, 125), (3, 217), (4, 383)):
        want = golden[f"l3->l1.5 n={n}"]
        a = _golden_matrix(want, n)
        res = gind_eval(GIndPair(Lp(3), Lp(1.5)), a, default_budget(n, want["seed"]))
        assert res.evaluations == evaluations, n
        assert res.value > float.fromhex(want["value"]), n


# the four shapes of the benchmark's gind-mix workload that used to climb;
# GOLDEN holds value, witness and evaluation count of each at n = 2, 3, 4 as
# the climb computed them.  None climbs any more: the l-inf and
# max(l1, 2 l-inf) domains get polydisc searches and the l3 domain the power
# method, so every entry is a floor the new value must reach
GOLDEN_PAIRS = {
    "linf->l1": GIndPair(Lp(math.inf), Lp(1)),
    "l3->l1.5": GIndPair(Lp(3), Lp(1.5)),
    "linf->linf": GIndPair(Lp(math.inf), Lp(math.inf)),
    "max(l1,2linf)->l2": GIndPair(MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))), Lp(2)),
}


def _golden_cases():
    """(label, pair, n, budget) for every golden call."""
    for n in (2, 3, 4):
        seed = int(np.random.default_rng([3901, n]).integers(0, 2**31))
        for label, pair in GOLDEN_PAIRS.items():
            yield f"{label} n={n}", pair, n, default_budget(n, seed)


def test_gind_ascents_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = list(_golden_cases())
    assert sorted(golden) == sorted(label for label, *_ in cases)
    for label, pair, n, budget in cases:
        want = golden[label]
        assert want["seed"] == budget.seed
        matrix = _golden_matrix(want, n)
        res = gind_eval(pair, matrix, budget)
        # the searches reach at least what the climb found
        assert res.value >= float.fromhex(want["value"]) * (1 - 1e-9), label
        assert res.exactness == want["exactness"] == "lower_bound", label
        assert vnorm_eval(pair.norm1, res.witness) == pytest.approx(1.0, rel=1e-12), label
        assert vnorm_eval(pair.norm2, matrix @ res.witness) == pytest.approx(
            res.value, rel=1e-12
        ), label


# max(l3, l1/2) -> l1.5 is neither polyhedral nor a plain l_p domain, so it
# still climbs.  (zero row, budget, n) -> (value hex, evaluations, SHA-256 of
# the witness bytes) on rng(11).standard_normal((n, n)) + 0.5j; "mid-sweep"
# stops every start inside its first sweep
CLIMB_PINS = {
    (False, "default", 1): (
        "0x1.0099103fb8894p-1", 2885,
        "838d175ef454f3ce76f9ba2e8cf58dad1beff67c427b84f15ae2d4b7f27b101d",
    ),
    (False, "default", 2): (
        "0x1.fd5bab31dec5bp+0", 6536,
        "ab0b4d3e2b4b70f95677d0f41b24db40f0184d5279fbf88ea1dff09d79e0b2e8",
    ),
    (False, "default", 3): (
        "0x1.b96eb6b93dc04p+1", 9803,
        "e8d99a7081a5b0207acbe44fc0cbed7abff2d4d9288095a9c5976afe40ebb45f",
    ),
    (False, "default", 4): (
        "0x1.0b8d8bcce2606p+2", 13070,
        "62e87604748868ccca64c9bd5934aa06b61520da72bfdd06e733785dd6b8cbf7",
    ),
    (False, "one start", 1): (
        "0x1.0099103fb8894p-1", 421,
        "838d175ef454f3ce76f9ba2e8cf58dad1beff67c427b84f15ae2d4b7f27b101d",
    ),
    (False, "one start", 2): (
        "0x1.fd5ba5c2ff2dfp+0", 536,
        "788471ac4837f5d4e4d01de43b14c116c02b868052e12bb4166a7f2e567e0d66",
    ),
    (False, "one start", 3): (
        "0x1.b909f73b61199p+1", 603,
        "8ded54b007d17db9234b6f77f26a8ba37c7e195511e837ad97013d4ce9451fe4",
    ),
    (False, "one start", 4): (
        "0x1.0adcffaa9cd2dp+2", 670,
        "4b3d607b906b3692445a48ff2b1ae97087cafb36c5540a0875e533e954ae0ab5",
    ),
    (False, "mid-sweep", 1): (
        "0x1.0099103fb8893p-1", 34,
        "495cd0cda08aca9d5940d6885269a6bda08604c8751ed31778b3eedde49fd729",
    ),
    (False, "mid-sweep", 2): (
        "0x1.fd2f2ac6ec422p+0", 37,
        "0d5045bc9862eb480913615add77d9539c69515cae595b66e8d019e6dbb48d1b",
    ),
    (False, "mid-sweep", 3): (
        "0x1.b5f5a94dc21bfp+1", 40,
        "ed0647fef1fcf4fe7a3a2f77920cdfe2aa315ca6df5e9572cec957f5dcb6e087",
    ),
    (False, "mid-sweep", 4): (
        "0x1.0429e44802cfap+2", 43,
        "e2f163f8b92ae4052713810a74a9a46abe5825d736c2b69c3fb290a5db7da7f7",
    ),
    (True, "default", 1): (
        "0x0.0p+0", 2883,
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
    ),
    (True, "default", 2): (
        "0x1.a39f3e4ca01a9p+0", 6535,
        "971ca7f02e6a9114490f560ee221008e4c99036ae46f10caac1bdfb3afd46082",
    ),
    (True, "default", 3): (
        "0x1.71873bc2ac116p+1", 9802,
        "a8b2386e1bae8e3aa8e257a7fddf1c4a967605cff12f7d4101313a884bb56d4f",
    ),
    (True, "default", 4): (
        "0x1.8b6fd273cb24ap+1", 13069,
        "50b746f3069a71a1fc769c2f21ac1335bec4a483be3041f286bccf227e0b9a9d",
    ),
    (True, "one start", 1): (
        "0x0.0p+0", 419,
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
    ),
    (True, "one start", 2): (
        "0x1.a39edd5f4391fp+0", 535,
        "858cbeda415397a321cf1b4dfeb175fb412945d5687a9e9af26d64fd99b287b3",
    ),
    (True, "one start", 3): (
        "0x1.71229df03ede9p+1", 602,
        "34ce7db648470e345c16cda580226f434923490b045351264c7beccb10cb7861",
    ),
    (True, "one start", 4): (
        "0x1.8a45a417b2265p+1", 669,
        "060e13cb2fe01c6c6891521b90c0a9225e595a810dfcba1840cb593a47497180",
    ),
    (True, "mid-sweep", 1): (
        "0x0.0p+0", 32,
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
    ),
    (True, "mid-sweep", 2): (
        "0x1.a2cbfa01c83c4p+0", 36,
        "43647215ca766f7b51334f061fbaca3be449134aa331c2a1908b4354c594b769",
    ),
    (True, "mid-sweep", 3): (
        "0x1.6f0e2a76ec0b9p+1", 39,
        "87b6f5a4e86f61d6b3474184937e9c75518265c40926da44f7e4988ea449a66e",
    ),
    (True, "mid-sweep", 4): (
        "0x1.7c586b4d547d1p+1", 42,
        "433ff276df2ec4fce31433dd6ecdd819d4b16286798e5ca3d1fdd87d49a1e3fc",
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("cut", ["default", "one start", "mid-sweep"])
@pytest.mark.parametrize("zero_row", [False, True])
def test_maxof_smooth_climb_keeps_its_bits(n, cut, zero_row):
    default = default_budget(n, 29)
    budget = {
        "default": default,
        "one start": dataclasses.replace(default, multistarts=1),
        "mid-sweep": OptBudget(multistarts=3, max_iters=7, samples=8, seed=5),
    }[cut]
    a = np.random.default_rng(11).standard_normal((n, n)) + 0.5j
    if zero_row:
        a[n // 2] = 0.0
    pair = GIndPair(MaxOf((Lp(3), Scaled(0.5, Lp(1)))), Lp(1.5))
    res = gind_eval(pair, a, budget)
    value, evaluations, witness = CLIMB_PINS[zero_row, cut, n]
    assert float(res.value).hex() == value
    assert res.evaluations == evaluations
    assert hashlib.sha256(res.witness.tobytes()).hexdigest() == witness
    assert res.exactness == LOWER_BOUND


# the stack form: gind_eval_many picks a route once for a list of matrices


_SMALL = OptBudget(multistarts=1, max_iters=20, samples=2, seed=7)
_OFF_CATALOG = MaxOf((EntrywiseMax(), MaxColSum()))
# routes that evaluate an off-catalog extracted norm or climb: fewer matrices
_SLOW = ("l1 vertices, no batch codomain", "weighted l1 vertices, no batch codomain", "climb",
         "extracted, off the catalog")


def _stack_pairs(n: int) -> dict:
    """A pair for each route, and each shape of route, of gind_eval_many."""
    w = (2.0, 1.0, 0.5, 1.25)[:n]
    mixed = MaxOf((Lp(1), Scaled(2.0, Lp(INF))))
    role2 = extract_norm2(_OFF_CATALOG, _SMALL)
    return {
        "closed form": GInd(Lp(2), Scaled(2.0, Lp(2))),
        "l1 vertices": GInd(Lp(1), Lp(1.5)),
        "weighted l1 vertices": GInd(Scaled(0.5, WeightedLp(w, 1)), Lp(2)),
        "l1 vertices, no batch codomain": GInd(Lp(1), role2),
        "weighted l1 vertices, no batch codomain": GInd(WeightedLp(w, 1), role2),
        "one polydisc, start at the ceiling": GInd(Scaled(3.0, Lp(INF)), Lp(INF)),
        "one polydisc, searched": GInd(Lp(INF), Lp(1)),
        "polydiscs, two columns into l2": GInd(mixed, Lp(2)),
        "polydiscs, two columns into weighted l2": GInd(mixed, WeightedLp(w, 2)),
        "polydiscs, searched": GInd(mixed, Lp(1.5)),
        "power method": GInd(WeightedLp(w, 3), Lp(1.5)),
        "climb": GInd(MaxOf((Lp(3), Scaled(0.5, Lp(1)))), Lp(2)),
        "extracted, catalog": extract_pair(Spectral()),
        "extracted, a polydisc source": extract_pair(EntrywiseSum()),
        "extracted, a gind source": extract_pair(GInd(Lp(3), Lp(1.5))),
        "extracted, off the catalog": extract_pair(_OFF_CATALOG, _SMALL),
    }


def _same_result(got, want, label):
    assert float(got.value).hex() == float(want.value).hex(), label
    assert got.witness.tobytes() == want.witness.tobytes(), label
    assert (got.exactness, got.evaluations) == (want.exactness, want.evaluations), label


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gind_eval_many_is_gind_eval_at_every_matrix(n, monkeypatch):
    # field for field and bit for bit, on every route: the zero, identity
    # and all-ones matrices, a Hermitian one with a repeated top eigenvalue
    # and random ones; a stack of one and an empty stack.  The polydisc
    # routes also see stacks in which only some matrices pass a vertex
    sizes = []
    for name in ("_two_column_l2", "_polydisc_search"):

        def counted(core2, ms, *args, real=getattr(gind, name)):
            sizes.append(len(ms))
            return real(core2, ms, *args)

        monkeypatch.setattr(gind, name, counted)
    g = np.random.default_rng([61, n])
    u = np.linalg.qr(_complex(g, n))[0]
    repeated = u @ np.diag([2.0] * (n - 1) + [1.0]) @ u.conj().T
    mats = [np.zeros((n, n)), np.eye(n), np.ones((n, n)), repeated]
    mats += [_complex(g, n), _complex(g, n), 3.0 * _complex(g, n), 0.5 * _complex(g, n)]
    for label, pair in _stack_pairs(n).items():
        stack = np.array(mats[:3] + mats[4:5] if label in _SLOW else mats, dtype=np.complex128)
        got = gind_eval_many(pair, stack, _SMALL)
        assert len(got) == len(stack), label
        for res, a in zip(got, stack):
            _same_result(res, gind_eval(pair, a, _SMALL), label)
        _same_result(gind_eval_many(pair, stack[-1:], _SMALL)[0], got[-1], label)
        assert gind_eval_many(pair, stack[:0], _SMALL) == []
    if n >= 3:
        assert any(0 < size < len(mats) for size in sizes)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_gind_eval_many_rejects_a_non_finite_matrix_as_gind_eval_does(bad):
    stack = np.array([np.eye(2), [[bad, 0], [0, 1]]], dtype=np.complex128)
    for label, pair in _stack_pairs(2).items():
        with pytest.raises(NonFiniteInputError) as many:
            gind_eval_many(pair, stack, _SMALL)
        with pytest.raises(NonFiniteInputError) as one:
            gind_eval(pair, stack[1], _SMALL)
        assert str(many.value) == str(one.value), label


def test_gind_eval_many_takes_a_stack_of_square_matrices():
    pair = GInd(Lp(1), Lp(2))
    for shape in ((2, 2), (1, 2, 3), (1, 0, 0), (2, 2, 2, 2)):
        with pytest.raises(DimensionMismatchError):
            gind_eval_many(pair, np.zeros(shape))
    # a list of matrices is a stack
    mats = [np.eye(2), np.ones((2, 2))]
    assert [r.value for r in gind_eval_many(pair, mats)] == [gind_eval(pair, m).value for m in mats]


def _mixed_stack(g: np.random.Generator, n: int) -> np.ndarray:
    """The zero matrix, a rank-one C_x, a nonnegative matrix (whose row-phase
    start reaches its ceiling), the identity, a Hermitian matrix and two
    random ones."""
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    h = _complex(g, n)
    mats = [np.zeros((n, n)), np.repeat(x[:, None], n, axis=1), np.abs(_complex(g, n))]
    mats += [np.eye(n), h + h.conj().T, _complex(g, n), _complex(g, n)]
    return np.array(mats, dtype=np.complex128)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_searches_keep_every_matrix_bits(n, monkeypatch):
    # row i of a mixed stack is gind_eval at matrix i field for field, the
    # zero matrix beside moving ones included, on the power method and on
    # the polydisc search, whose stack runs every matrix in lockstep: one
    # call per vertex, fewer than its matrices make one at a time
    half = MaxOf((Lp(1), Scaled(2.0, Lp(INF))))
    weighted = WeightedLp((0.5, 2.0, 1.0, 1.5)[:n], 3)
    power = [GInd(Lp(3), Lp(1.5)), GInd(Lp(2), Lp(1)), GInd(weighted, half)]
    polydisc = [GInd(Lp(INF), Lp(1)), GInd(Lp(INF), Lp(1.5)), GInd(half, Lp(1))]
    searches = []
    real = gind.maximize_on_polydisc
    monkeypatch.setattr(
        gind, "maximize_on_polydisc", lambda *args: searches.append(1) or real(*args)
    )
    stack = _mixed_stack(np.random.default_rng([1913, n]), n)
    for pair in power + polydisc:
        searches.clear()
        got = gind_eval_many(pair, stack)
        together = len(searches)
        searches.clear()
        for res, a in zip(got, stack):
            _same_result(res, gind_eval(pair, a), f"{pair} n={n}")
        if pair in polydisc:
            assert 0 < together < len(searches), f"{pair} n={n}"

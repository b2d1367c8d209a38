import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from _oracles import (
    dense_gind_oracle,
    dense_sphere_max,
    dense_torus_max,
    linf_to_l2_closed_form,
    lp_batched,
)

from normlab import (
    EXACT_CLOSED_FORM,
    EXACT_VERTEX,
    LOWER_BOUND,
    EntrywiseMax,
    EntrywiseSum,
    GIndPair,
    Lp,
    MaxColSum,
    MaxOf,
    MaxRowSum,
    NonFiniteInputError,
    NormlabError,
    OptBudget,
    RandomStream,
    Scaled,
    Spectral,
    WeightedLp,
    chain_compare,
    default_budget,
    extract_pair,
    gind_eval,
    mnorm_eval,
    sample_matrix,
    sample_vector,
    vnorm_dual_eval,
    vnorm_eval,
)
from normlab import core, gind, sphere_opt

J2 = np.ones((2, 2), dtype=np.complex128)
B = OptBudget(multistarts=4, max_iters=300, samples=16, step_init=0.5, tol=1e-8, seed=5)


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
    budget = OptBudget(multistarts=2, max_iters=60, samples=4, step_init=0.5, tol=1e-8, seed=6)
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
    # the whole torus (or whole circles of it) maximizes most of them;
    # DFT/sqrt(n) into l2 is flat everywhere and below that bound, so it runs
    # the search, within 0.5 s a call
    perm = np.roll(np.eye(n), 1, axis=0)
    single = np.zeros((n, n), dtype=np.complex128)
    single[n - 1, 0] = 2.0 - 1.0j
    for domain in _linf_domains(n):
        r = _radii(domain, n)
        for codomain in _batch_codomains(n):
            pair = GIndPair(domain, codomain)
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
                assert res.evaluations == n
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


def test_skipped_vertices_never_change_the_result():
    # a vertex whose ceiling N2(|A_S| v_S) does not exceed the best value so
    # far cannot win, so the union equals the search of every vertex
    g = np.random.default_rng(43)
    skipped = 0
    for n in (3, 4):
        for domain in _polyhedral_domains(n):
            for codomain in (Lp(2), Lp(1.5)):
                a = _complex(g, n)
                verts = _vertices(domain, n)
                got = gind._polyhedral_search(codomain, a, verts)
                best, evals = None, 0
                for v in verts:
                    s = np.flatnonzero(v)
                    res = sphere_opt.maximize_on_polydisc(
                        lambda xs: np.asarray([vnorm_eval(codomain, a[:, s] @ x) for x in xs]),
                        v[s],
                        v[s] * gind._row_phases(a)[:, s],
                        vnorm_eval(codomain, np.abs(a[:, s]) @ v[s]),
                    )
                    evals += res.evaluations
                    best = res.value if best is None else max(best, res.value)
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
    """Rebind ``gind.maximize_on_polydisc`` so that each search appends
    [free phases, objective calls] to the returned list."""
    searches = []
    real = gind.maximize_on_polydisc

    def counting(objective_many, radii, starts, ceiling):
        entry = [len(radii) - 1, 0]
        searches.append(entry)

        def objective(xs):
            entry[1] += 1
            return objective_many(xs)

        return real(objective, radii, starts, ceiling)

    monkeypatch.setattr(gind, "maximize_on_polydisc", counting)
    return searches


def test_one_phase_searches_make_at_most_six_objective_calls(monkeypatch):
    # one free phase splits each live arc 16 ways: the starts, then five
    # rounds take the arc half-width from pi/4 to pi/262144, where the box
    # bound's excess 1/cos h - 1 is below the 1e-9 prune
    searches = _count_search_calls(monkeypatch)
    g = np.random.default_rng(1906)
    half = MaxOf((Lp(1), Scaled(2.0, Lp(INF))))
    cases = [(GIndPair(Lp(INF), codomain), 2) for codomain in (Lp(1), Scaled(2.0, Lp(2)))]
    cases += [(GIndPair(half, Lp(2)), 3), (GIndPair(half, Lp(1.5)), 4)]
    for pair, n in cases:
        for _ in range(10):
            gind_eval(pair, _complex(g, n))
    one_phase = [calls for d, calls in searches if d == 1]
    assert len(one_phase) == len(searches) and sum(calls > 1 for calls in one_phase) >= 30
    assert max(one_phase) <= 6


def test_searches_with_more_phases_still_halve():
    # two and three free phases halve every box: these counts and values
    # pin that search, so a change to its split shows here
    pair = GIndPair(Lp(INF), Lp(1))
    for n, evaluations, value in ((3, 2919, 6.284754042735348), (4, 51628, 9.13873685876921)):
        a = _complex(np.random.default_rng([19, n]), n)
        res = gind_eval(pair, a)
        assert (res.evaluations, res.value) == (evaluations, value), n


def test_linf_to_l2_matches_the_closed_form():
    # two columns into l2 have a closed form, so the oracle has no grid: the
    # search finds the maximum to its 1e-9 and never passes it
    g = np.random.default_rng(1907)
    for _ in range(240):
        a = _complex(g, 2)
        r = np.exp(g.uniform(-2.0, 2.0, 2))
        closed = linf_to_l2_closed_form(a, r)
        res = gind_eval(GIndPair(WeightedLp(tuple(1.0 / r), INF), Lp(2)), a)
        assert closed * (1 - 1e-9) <= res.value <= closed * (1 + 1e-12)


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
    # each start scores at most two rows beyond the seed pool
    g = np.random.default_rng(53)
    for n in (2, 3, 4):
        budget = OptBudget(multistarts=4 * n, max_iters=400, samples=16 * n, seed=n)
        for domain in _smooth_domains(n):
            for codomain in _batch_codomains(n):
                x = _complex(g, n)[0]
                a = np.outer(x, np.ones(n))
                pair = GIndPair(domain, codomain)
                res = gind_eval(pair, a, budget)
                want = vnorm_eval(codomain, x) * vnorm_dual_eval(domain, np.ones(n))
                assert res.value == pytest.approx(want, rel=1e-12)
                pool = sphere_opt.seed_pool(n, budget, gind._quality_seeds(a))
                assert res.evaluations <= len(pool) + 2 * budget.multistarts
                _check_witness(pair, a, res)


def test_zero_images_raise_no_warning():
    # every seed iterates; the zero matrix gives every start a zero image, and
    # a zero column gives e_2 one.  The values are those the sphere climb
    # found at this budget, or above
    budget = OptBudget(multistarts=1000, max_iters=400, samples=16, seed=3)
    a = np.array([[1.0, 2j, 0], [0, 0, 0], [0.5, -1.0, 0]])
    pairs = {
        GIndPair(Lp(3), Lp(1.5)): 2.866418596501418,
        GIndPair(WeightedLp((2.0, 0.5, 1.0), 1.5), Lp(INF)): 4.002602275264524,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair, climbed in pairs.items():
            first = np.eye(3, dtype=np.complex128)[0]
            res = gind_eval(pair, np.zeros((3, 3)), budget)
            assert res.value == 0.0
            assert res.witness.tobytes() == (first / vnorm_eval(pair.norm1, first)).tobytes()
            assert res.exactness == LOWER_BOUND
            res = gind_eval(pair, a, budget)
            assert res.value >= climbed
            assert res.value <= _column_bound(pair, a) * (1 + 1e-12)
            _check_witness(pair, a, res)


GOLDEN = Path(__file__).resolve().parent / "data" / "gind_ascent_golden.json"


def test_golden_l3_to_l15_evaluation_counts():
    # the power method is deterministic, so a convergence change shows up as
    # a count; the climb scored 6,536, 9,803 and 13,070 rows on these
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for n, evaluations in ((2, 358), (3, 635), (4, 1062)):
        want = golden[f"l3->l1.5 n={n}"]
        flat = [complex(float.fromhex(re), float.fromhex(im)) for re, im in want["matrix"]]
        a = np.array(flat).reshape(n, n)
        res = gind_eval(GIndPair(Lp(3), Lp(1.5)), a, default_budget(n, want["seed"]))
        assert res.evaluations == evaluations, n
        assert res.value > float.fromhex(want["value"]), n

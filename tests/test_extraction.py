import contextlib
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest

from normlab import (
    LOWER_BOUND,
    EntrywiseMax,
    EntrywiseSum,
    Extracted,
    GInd,
    GIndPair,
    Lp,
    MaxColSum,
    MaxOf,
    MaxRowSum,
    OptBudget,
    RandomStream,
    Scaled,
    Spectral,
    WeightedLp,
    alpha_identity_check,
    column_embed,
    column_replicate,
    default_budget,
    extract_norm1,
    extract_norm2,
    extract_pair,
    gind_eval,
    mat_apply,
    minimality_probe,
    mnorm_eval,
    sample_matrix,
    sample_vector,
    vnorm_eval,
)
from normlab.cli import run_command
from normlab.errors import DimensionMismatchError
from normlab.extraction import (
    _ROLE1_CACHE,
    DEFAULT_INNER_BUDGET,
    GAP_FOUND,
    NO_GAP_FOUND,
    _role1_ascent,
    clear_role1_cache,
    eval_role1,
    eval_role2,
)
from normlab.gind import concrete, concrete_pair
from normlab.vector_norms import vnorm_eval_many

INNER = OptBudget(multistarts=2, max_iters=30, samples=4, seed=9)
OUTER = OptBudget(multistarts=1, max_iters=30, samples=4, seed=10)


def test_column_embed_examples():
    assert np.allclose(column_embed([1, 2], 1), [[0, 1], [0, 2]])
    assert np.allclose(column_embed([0, 0], 0), np.zeros((2, 2)))
    # C_{x,j} acts as y -> y_j x
    got = mat_apply(column_embed([1, 2], 0), [3, 5])
    assert np.allclose(got, [3, 6])


def test_column_embed_range_check():
    with pytest.raises(DimensionMismatchError):
        column_embed([1, 2], 2)
    with pytest.raises(DimensionMismatchError):
        column_embed([1, 2], -1)


def test_column_replicate_examples():
    assert np.allclose(column_replicate([1, 2]), [[1, 1], [2, 2]])
    assert np.allclose(column_replicate([1, 0]), [[1, 1], [0, 0]])


def test_column_replicate_is_sum_of_embeddings():
    g = RandomStream(20).generator()
    for n in (2, 3, 4):
        x = sample_vector(g, n)
        total = sum(column_embed(x, j) for j in range(n))
        assert np.array_equal(column_replicate(x), total)


def test_extract_norm2_closed_forms():
    spec = extract_norm2(Spectral(), INNER)
    assert vnorm_eval(spec, [1, 0]) == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert vnorm_eval(extract_norm2(MaxColSum(), INNER), [1, 2]) == pytest.approx(3.0)
    assert vnorm_eval(extract_norm2(MaxRowSum(), INNER), [1, 2]) == pytest.approx(4.0)


def test_extract_norm1_closed_forms():
    assert vnorm_eval(extract_norm1(MaxColSum(), INNER), [1, 2]) == pytest.approx(
        3.0, rel=1e-9
    )
    assert vnorm_eval(extract_norm1(Spectral(), INNER), [1, 0]) == pytest.approx(
        math.sqrt(2.0), rel=1e-9
    )
    assert vnorm_eval(extract_norm1(EntrywiseSum(), INNER), [1, 2]) == pytest.approx(
        4.0, rel=1e-12
    )


@pytest.mark.parametrize("budget", [None, INNER])
def test_extract_pair_is_the_gind_of_both_roles(budget):
    for source in (Spectral(), EntrywiseSum(), Scaled(2.0, MaxColSum()), GInd(Lp(3), Lp(1.5))):
        pair = extract_pair(source, budget)
        assert pair == GInd(extract_norm1(source, budget), extract_norm2(source, budget))
        assert pair.norm1.budget == pair.norm2.budget == (budget or DEFAULT_INNER_BUDGET)


def test_extracted_norms_satisfy_axioms():
    clear_role1_cache()
    g = RandomStream(21).generator()
    for source in (MaxColSum(), EntrywiseSum()):
        pair = extract_pair(source, INNER)
        for spec in (pair.norm1, pair.norm2):
            assert vnorm_eval(spec, np.zeros(2)) == 0.0
            for _ in range(40):
                x, y = sample_vector(g, 2), sample_vector(g, 2)
                a = complex(g.standard_normal(), g.standard_normal())
                vx, vy = vnorm_eval(spec, x), vnorm_eval(spec, y)
                assert vx > 0
                assert abs(vnorm_eval(spec, a * x) - abs(a) * vx) <= 1e-6 * max(
                    1.0, abs(a) * vx
                )
                assert vnorm_eval(spec, x + y) <= (vx + vy) * (1 + 1e-6)


def test_spectral_extraction_is_sqrt_n_l2():
    g = RandomStream(22).generator()
    for n in (2, 3):
        pair = extract_pair(Spectral(), INNER)
        for _ in range(30):
            x = sample_vector(g, n)
            expected = math.sqrt(n) * float(np.linalg.norm(x))
            assert vnorm_eval(pair.norm2, x) == pytest.approx(expected, rel=1e-9)
            assert vnorm_eval(pair.norm1, x) == pytest.approx(expected, rel=1e-6)


def test_extracted_pair_coincides_for_induced_norms():
    g = RandomStream(24).generator()
    for source in (MaxColSum(), MaxRowSum(), Spectral()):
        for n in (2, 3):
            pair = extract_pair(source, INNER)
            for _ in range(25):
                x = sample_vector(g, n)
                v1 = vnorm_eval(pair.norm1, x)
                v2 = vnorm_eval(pair.norm2, x)
                assert v1 == pytest.approx(v2, rel=1e-6)


def test_upper_bound_law():
    # reconstruction can never exceed the source norm (for any norm at all)
    g = RandomStream(25).generator()
    sources = [
        EntrywiseSum(),
        EntrywiseMax(),
        MaxColSum(),
        MaxRowSum(),
        Spectral(),
        MaxOf((MaxColSum(), MaxRowSum())),
    ]
    for source in sources:
        pair = extract_pair(source, INNER)
        gpair = GIndPair(pair.norm1, pair.norm2)
        for _ in range(12):
            a = sample_matrix(g, 2)
            num = gind_eval(gpair, a, OUTER).value
            assert num <= mnorm_eval(source, a) * (1 + 1e-6)


def test_round_trip_for_induced_norms():
    g = RandomStream(26).generator()
    for source in (MaxColSum(), MaxRowSum(), Spectral()):
        for n in (2, 3):
            pair = extract_pair(source, INNER)
            gpair = GIndPair(pair.norm1, pair.norm2)
            for _ in range(10):
                a = sample_matrix(g, n)
                num = gind_eval(gpair, a, OUTER).value
                assert num == pytest.approx(mnorm_eval(source, a), rel=1e-6)


def test_alpha_identity_examples():
    rep = alpha_identity_check(GIndPair(Lp(1), Lp(1)), [1, 2], OUTER)
    assert rep.holds
    assert rep.lhs == pytest.approx(3.0, rel=1e-9)
    assert rep.rhs == pytest.approx(3.0, rel=1e-9)

    rep = alpha_identity_check(GIndPair(Lp(math.inf), Lp(2)), [1, 0], OUTER)
    assert rep.holds
    assert rep.lhs == pytest.approx(2.0, rel=1e-9)

    rep = alpha_identity_check(GIndPair(Lp(2), Lp(2)), [0, 0], OUTER)
    assert rep.holds
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_alpha_identity_random_pairs():
    g = RandomStream(27).generator()
    family = [Lp(1), Lp(2), Lp(math.inf), Scaled(2.0, Lp(2))]
    for n in (2, 3):
        for n1 in family:
            for n2 in family:
                for _ in range(3):
                    x = sample_vector(g, n)
                    rep = alpha_identity_check(GIndPair(n1, n2), x, OUTER)
                    assert rep.holds, (n1, n2, rep.lhs, rep.rhs)


def test_alpha_identity_checks_take_each_pair_once(monkeypatch):
    # every point's C_x in one gind_eval_many and the constant in one
    # sum_functional_alpha; each report is the lone check's formula, bit
    # for bit: the induced norm of C_x against alpha*(1) times the codomain
    # norm of x, a zero point included
    from normlab import extraction, gind

    g = RandomStream(28).generator()
    half = MaxOf((Lp(1), Scaled(2.0, Lp(math.inf))))
    family = [Lp(1), Lp(2), Lp(math.inf), Scaled(2.0, Lp(2)), half]
    for n in (2, 3):
        points = [sample_vector(g, n) for _ in range(3)] + [np.zeros(n)]
        for n1 in family:
            for n2 in family:
                pair = GIndPair(n1, n2)
                want = []
                for x in points:
                    lhs = gind_eval(pair, column_replicate(x), OUTER).value
                    want.append((lhs, gind.sum_functional_alpha(n1, n, OUTER) * vnorm_eval(n2, x)))
                calls = []
                for name in ("gind_eval_many", "sum_functional_alpha"):
                    real = getattr(extraction, name)
                    counted = lambda *a, real=real, name=name: calls.append(name) or real(*a)
                    monkeypatch.setattr(extraction, name, counted)
                reports = extraction.alpha_identity_checks(pair, points, OUTER)
                monkeypatch.undo()
                assert sorted(calls) == ["gind_eval_many", "sum_functional_alpha"]
                assert [(r.lhs, r.rhs) for r in reports] == want, (n1, n2)
                assert all(r.holds for r in reports), (n1, n2)
    with pytest.raises(DimensionMismatchError):
        extraction.alpha_identity_checks(GIndPair(Lp(1), Lp(1)), np.ones(3))


def test_role1_of_a_polyhedral_gind_source_reads_the_table_once(monkeypatch):
    # k rows resolve concrete's table once, one sum_functional_alpha, and
    # evaluate the plain norm it gives at every row, bit for bit as row by
    # row; a zero row reads 0.0
    from normlab import gind

    g = RandomStream(29).generator()
    half = MaxOf((Lp(1), Scaled(2.0, Lp(math.inf))))
    for source in (GInd(Lp(math.inf), Lp(1.5)), GInd(half, Lp(3))):
        for n in (2, 3):
            rows = np.array([sample_vector(g, n) for _ in range(5)] + [np.zeros(n)])
            plain = concrete(extract_norm1(source, INNER), n)
            want = [vnorm_eval(plain, x) for x in rows[:-1]] + [0.0]
            alphas = []
            real = gind.sum_functional_alpha
            counted = lambda *a: alphas.append(1) or real(*a)
            monkeypatch.setattr(gind, "sum_functional_alpha", counted)
            spec = extract_norm1(source, INNER)
            lone, many = vnorm_eval(spec, rows[0]), vnorm_eval_many(spec, rows)
            monkeypatch.undo()
            assert len(alphas) == 2
            assert [float(v).hex() for v in many] == [float(v).hex() for v in want]
            assert float(lone).hex() == float(want[0]).hex()
            assert [eval_role1(source, INNER, x) for x in rows] == many.tolist()


def test_probe_sigma_gap():
    clear_role1_cache()
    probe = minimality_probe(
        EntrywiseSum(), 2, 30,
        OptBudget(multistarts=2, max_iters=120, samples=4, seed=12),
        RandomStream(7),
        INNER,
    )
    assert probe.verdict == GAP_FOUND
    assert probe.max_gap_ratio == pytest.approx(math.sqrt(0.5), abs=1e-3)
    assert np.allclose(probe.witness, [[1, 1], [1, -1]])


def test_probe_witness_reproduces_ratio():
    clear_role1_cache()
    outer = OptBudget(multistarts=2, max_iters=120, samples=4, seed=12)
    probe = minimality_probe(EntrywiseSum(), 2, 10, outer, RandomStream(7), INNER)
    pair = extract_pair(EntrywiseSum(), INNER)
    num = gind_eval(GIndPair(pair.norm1, pair.norm2), probe.witness, outer).value
    den = mnorm_eval(EntrywiseSum(), probe.witness)
    assert num / den == pytest.approx(probe.max_gap_ratio, abs=1e-9)


def test_probe_maxcr_gap():
    probe = minimality_probe(
        MaxOf((MaxColSum(), MaxRowSum())), 2, 30,
        OptBudget(multistarts=2, max_iters=60, samples=4, seed=13),
        RandomStream(8),
        INNER,
    )
    assert probe.verdict == GAP_FOUND
    assert probe.max_gap_ratio == pytest.approx(0.5, abs=1e-3)
    assert np.allclose(probe.witness, [[1, 0], [1, 0]])


def test_probe_no_gap_for_induced():
    probe = minimality_probe(
        MaxColSum(), 2, 30,
        OptBudget(multistarts=2, max_iters=60, samples=4, seed=14),
        RandomStream(9),
        INNER,
    )
    assert probe.verdict == NO_GAP_FOUND
    assert probe.max_gap_ratio >= 1.0 - 1e-4


def test_gind_eval_without_a_budget_climbs_at_the_default_budget():
    # minimality_probe passes a missing budget on as None, which changes no
    # bits: the climb builds the same default budget itself
    pair = GInd(MaxOf((Lp(3), Scaled(0.5, Lp(1)))), Lp(1.5))
    a = sample_matrix(RandomStream(40).generator(), 2)
    got = gind_eval(pair, a, None)
    want = gind_eval(pair, a, default_budget(2))
    assert got.exactness == want.exactness == LOWER_BOUND
    assert got.value.hex() == want.value.hex()
    assert got.witness.tobytes() == want.witness.tobytes()
    assert got.evaluations == want.evaluations


def test_paper_demo_gap_probes_build_no_budget(monkeypatch):
    # paper-demos case 4 probes two catalog sources without a budget, and no
    # route their reconstructions take reads one
    def no_budget(*args, **kwargs):
        raise AssertionError("default budget built")

    for name, module in list(sys.modules.items()):
        if name.startswith("normlab") and hasattr(module, "default_budget"):
            monkeypatch.setattr(module, "default_budget", no_budget)
    rng = RandomStream(42)
    sigma = minimality_probe(EntrywiseSum(), 2, 25, rng=rng.child(3))
    maxcr = minimality_probe(MaxOf((MaxColSum(), MaxRowSum())), 2, 25, rng=rng.child(4))
    assert sigma.max_gap_ratio == pytest.approx(math.sqrt(0.5), abs=1e-3)
    assert maxcr.max_gap_ratio == pytest.approx(0.5, abs=1e-3)


def test_probe_trial_count_and_validation():
    with pytest.raises(DimensionMismatchError):
        minimality_probe(MaxColSum(), 2, 0, OUTER, RandomStream(0), INNER)
    probe = minimality_probe(
        MaxColSum(), 2, 5,
        OptBudget(multistarts=1, max_iters=30, samples=2, seed=15),
        RandomStream(10),
        INNER,
    )
    # identity, 4 single entries, ones, 2 padded probes, 5 random draws
    assert probe.trials == 13


def test_probe_witness_is_the_first_of_near_equal_ratios(tmp_path):
    # MaxColSum is induced, so every ratio is 1 up to rounding: all 53 lie in
    # [1 - 2**-53, 1 + 2**-52] and the witness must be probe 0, the identity
    report = tmp_path / "t23.json"
    argv = ["verify", "--suite", "theorem23", "--norm", "maxcolsum", "--dim", "3",
            "--seed", "11", "--trials", "40", "--report", str(report)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(argv) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    (case,) = [c for c in doc["cases"] if c["description"].startswith("minimality probe")]
    assert 1.0 - 2.0**-53 <= case["values"]["min_ratio"] <= 1.0 + 2.0**-52
    witness = np.array([[z["re"] + 1j * z["im"] for z in row] for row in case["witness"]["rows"]])
    assert np.array_equal(witness, np.eye(3))


# role 1 of the catalog at x = (3, -4i), n = 2: n||x||_inf = 8, ||x||_1 = 7, sqrt(n)||x||_2 = 5 sqrt(2)
ROLE1_HAND_VALUES = [
    (EntrywiseSum(), 8.0),
    (MaxRowSum(), 8.0),
    (MaxOf((MaxColSum(), MaxRowSum())), 8.0),
    (MaxOf((MaxRowSum(), MaxColSum())), 8.0),
    (EntrywiseMax(), 7.0),
    (MaxColSum(), 7.0),
    (Spectral(), 5.0 * math.sqrt(2.0)),
    (Scaled(3.0, MaxOf((MaxRowSum(), MaxColSum()))), 8.0),
    (Scaled(0.5, Scaled(2.0, Spectral())), 5.0 * math.sqrt(2.0)),
]


@pytest.mark.parametrize("source, expected", ROLE1_HAND_VALUES)
def test_role1_table_hand_values(source, expected):
    x = np.array([3.0, -4.0j])
    assert eval_role1(source, INNER, x) == pytest.approx(expected, rel=1e-15)
    assert eval_role1(source, INNER, np.zeros(2)) == 0.0


def test_role1_ascent_matches_the_table():
    # the climb stays the path for non-catalog sources; on the catalog it must
    # reach the closed form from below, at the default and a 12-iteration budget
    small = OptBudget(multistarts=1, max_iters=12, samples=2, seed=31)
    sources = [source for source, _ in ROLE1_HAND_VALUES]
    g = RandomStream(28).generator()
    for n in (2, 3, 4):
        for source in sources:
            for budget in (DEFAULT_INNER_BUDGET, small):
                x = sample_vector(g, n)
                table = eval_role1(source, budget, x)
                climbed = _role1_ascent(source, budget, x)
                assert table * (1 - 1e-9) <= climbed <= table * (1 + 1e-12), (source, n)


def test_role1_ascent_seeds_tiny_and_huge_points():
    # the climb's unit seed x / ||x||_2 is built from x scaled by a power of
    # two where ||x||_2 under- or overflows, so a subnormal x reads its value
    # at the unit point times its scale, without a warning
    clear_role1_cache()
    source = MaxOf((Spectral(), EntrywiseSum()))
    budget = OptBudget(multistarts=1, max_iters=20, samples=2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_role1(source, budget, [1, 0]) == 2.0
        assert eval_role1(source, budget, [1e-310, 0]) == 2e-310
        huge = eval_role1(source, budget, [1e300, 1e300])
        assert huge == 1e300 * eval_role1(source, budget, [1, 1])


def test_role1_cache_hits():
    clear_role1_cache()
    x = np.array([1.0 + 0.5j, -2.0], dtype=np.complex128)
    eval_role1(MaxColSum(), INNER, x)
    assert len(_ROLE1_CACHE) == 0  # the table answers without the climb
    source = MaxOf((EntrywiseMax(), MaxColSum()))
    v1 = eval_role1(source, INNER, x)
    assert len(_ROLE1_CACHE) == 1
    v2 = eval_role1(source, INNER, x)
    assert v1 == v2
    assert len(_ROLE1_CACHE) == 1


CATALOG = [
    EntrywiseSum(),
    EntrywiseMax(),
    MaxColSum(),
    MaxRowSum(),
    Spectral(),
    MaxOf((MaxColSum(), MaxRowSum())),
]


def _role1_reference(core, v):
    # the catalog's role-1 closed forms, float operation for float operation
    n = v.size
    if isinstance(core, (EntrywiseSum, MaxRowSum, MaxOf)):
        return n * float(np.abs(v).max())
    if isinstance(core, (EntrywiseMax, MaxColSum)):
        return float(np.abs(v).sum())
    return math.sqrt(n) * float(np.sqrt(np.vdot(v, v).real))


@pytest.mark.parametrize("core", CATALOG, ids=lambda s: type(s).__name__)
def test_concrete_pairs_match_the_extracted_roles(core):
    g = RandomStream(29).generator()
    for source in (core, Scaled(2.5, core), Scaled(0.5, Scaled(3.0, core))):
        for n in (1, 2, 3, 4):
            role1 = concrete(extract_norm1(source, INNER), n)
            role2 = concrete(extract_norm2(source, INNER), n)
            assert not isinstance(role1, Extracted) and not isinstance(role2, Extracted)
            for _ in range(8):
                x = sample_vector(g, n)
                want = eval_role1(source, INNER, x)
                assert vnorm_eval(role1, x) == want == _role1_reference(core, x)
                exact2 = eval_role2(source, INNER, x)
                assert vnorm_eval(role2, x) == pytest.approx(exact2, rel=1e-14, abs=0)


def test_concrete_leaves_other_specs_alone():
    for source in (
        MaxOf((EntrywiseMax(), MaxColSum())),
        MaxOf((MaxColSum(), MaxRowSum(), Spectral())),
        # a MaxOf domain with a smooth part has no exact dual
        GInd(MaxOf((Lp(3), Scaled(0.5, Lp(1)))), Lp(1.5)),
    ):
        for spec in (extract_norm1(source, INNER), extract_norm2(source, INNER)):
            assert concrete(spec, 2) is spec
    plain = Scaled(2.0, Lp(2))
    assert concrete(plain, 3) is plain


def _gind_sources(n: int):
    w = (2.0, 1.0, 0.5)[:n]
    return [
        GInd(Lp(3), Lp(1.5)),
        Scaled(2.0, GInd(Lp(1), Lp(2))),
        GInd(Scaled(0.5, WeightedLp(w, 3)), MaxOf((Lp(1), Scaled(2.0, Lp(math.inf))))),
        Scaled(0.5, GInd(Lp(2), Scaled(3.0, Lp(math.inf)))),
        GInd(Lp(math.inf), WeightedLp(w[::-1], 1.5)),
        # polyhedral domains, and a codomain without a batch form
        GInd(MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))), Lp(2)),
        Scaled(0.5, GInd(
            Scaled(3.0, MaxOf((Lp(math.inf), Scaled(0.5, Lp(1))))),
            MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))),
        )),
        GInd(Lp(3), extract_norm2(Spectral())),
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_gind_sources_have_closed_form_pairs(n):
    # role 1 is c alpha with c = alpha*(1): the matrix-sphere climb never gets
    # above it, and role 2 is N(C_x) itself
    g = RandomStream(31, (n,)).generator()
    for source in _gind_sources(n):
        role1 = concrete(extract_norm1(source, INNER), n)
        role2 = concrete(extract_norm2(source, INNER), n)
        assert not isinstance(role1, Extracted) and not isinstance(role2, Extracted)
        for _ in range(4):
            x = sample_vector(g, n)
            closed = vnorm_eval(role1, x)
            assert eval_role1(source, INNER, x) == closed, source
            assert closed >= _role1_ascent(source, INNER, x) * (1 - 1e-9), source
            want = eval_role2(source, INNER, x)
            assert vnorm_eval(role2, x) == pytest.approx(want, rel=1e-14), source


def test_an_extracted_gind_pair_takes_one_dual_per_evaluation(monkeypatch):
    # both roles of one GInd source share c = alpha*(1), so gind_eval on its
    # extracted pair makes one dual search per call, and (c alpha, c beta)
    # induce the source's own value
    from normlab import gind

    duals = []
    dual = gind.sum_functional_alpha
    monkeypatch.setattr(
        gind, "sum_functional_alpha", lambda *args: duals.append(args) or dual(*args)
    )
    source = GInd(MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))), Lp(2))
    m = sample_matrix(RandomStream(5).generator(), 3)
    got = gind_eval(extract_pair(source, INNER), m).value
    assert len(duals) == 1
    assert got == gind_eval(source, m).value


@pytest.mark.parametrize("n", [2, 3])
def test_concrete_pair_is_concrete_of_each_norm(n):
    for source in _gind_sources(n) + list(CATALOG):
        pair = extract_pair(source, INNER)
        want = GInd(concrete(pair.norm1, n), concrete(pair.norm2, n))
        assert concrete_pair(pair, n) == want, source
    plain = GInd(Lp(3), extract_norm2(Spectral()))
    assert concrete_pair(plain, 2) == GInd(Lp(3), concrete(plain.norm2, 2))
    smooth = extract_pair(GInd(MaxOf((Lp(3), Scaled(0.5, Lp(1)))), Lp(1.5)))
    assert concrete_pair(smooth, 2) is smooth


@pytest.mark.parametrize("first, second", [(3e-13, 1e-13), (2e7, 1e7)])
def test_role1_cache_never_answers_for_another_x(first, second):
    # a value cached at x must not answer for a nearby x: role 1 at (1e-13, 0)
    # is 1e-13, not the 3e-13 of (3e-13, 0).  A key rounded to 1e-12 merges
    # each pair, and an int64 key of x / 1e-12 overflows above about 9.2e6
    source = MaxOf((MaxColSum(), Scaled(2.0, EntrywiseMax())))
    fresh = []
    for x in ((first, 0.0), (second, 0.0)):
        clear_role1_cache()
        fresh.append(eval_role1(source, INNER, np.array(x, dtype=np.complex128)))
    clear_role1_cache()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [eval_role1(source, INNER, np.array(x, dtype=np.complex128))
               for x in ((first, 0.0), (second, 0.0))]
    assert got == fresh
    assert fresh[1] == pytest.approx(second, rel=1e-9)
    assert len(_ROLE1_CACHE) == 2

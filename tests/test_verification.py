import math
import sys

import numpy as np
import pytest

from normlab import (
    EntrywiseMax,
    EntrywiseSum,
    GIndPair,
    Lp,
    MaxColSum,
    MaxRowSum,
    RandomStream,
    Scaled,
    Spectral,
    default_budget,
    gind_eval,
    paper_demo_suite,
    verify_lemma21,
    verify_lemma22,
    verify_theorem23,
)
from normlab import core, extraction, sphere_opt
from normlab.errors import DimensionMismatchError
from normlab.extraction import minimality_probe
from normlab.verification import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    sample_test_matrices,
    sample_test_matrix,
)


def _statuses(report):
    return [c.status for c in report.cases]


def test_lemma21_dominated_pair_passes():
    report = verify_lemma21(
        GIndPair(Lp(math.inf), Lp(1)), 2, trials=120, rng=RandomStream(1)
    )
    assert report.passed
    products = report.cases[1]
    assert products.status == PASS
    assert products.values["worst_product_ratio"] <= 1.0 + 1e-9


def test_lemma21_undominated_pair_finds_violation():
    report = verify_lemma21(
        GIndPair(Lp(1), Lp(math.inf)), 2, trials=50, rng=RandomStream(2)
    )
    assert report.passed
    dominance, violation = report.cases
    assert dominance.values["dominated"] == 0.0
    assert violation.status == PASS
    assert violation.values["worst_product_ratio"] > 1.0 + 1e-9
    # the witness pair actually violates the product inequality
    a, b = violation.witness
    assert a.shape == (2, 2)
    assert b.shape == (2, 2)


def test_lemma21_equal_norms_trivially_pass():
    report = verify_lemma21(
        GIndPair(Lp(2), Lp(2)), 3, trials=60, rng=RandomStream(3)
    )
    assert report.passed


def test_lemma22_scaled_pair_is_equal():
    report = verify_lemma22(
        GIndPair(Scaled(3.0, Lp(math.inf)), Scaled(6.0, Lp(2))),
        GIndPair(Lp(math.inf), Scaled(2.0, Lp(2))),
        2,
        trials=60,
        rng=RandomStream(4),
    )
    assert report.passed
    assert report.cases[0].values["gamma_hat"] == pytest.approx(3.0, rel=1e-12)
    assert report.cases[1].values["proportional"] == 1.0
    agreement = report.cases[2]
    assert agreement.status == PASS
    assert agreement.values["verdict_scaled_and_equal"] == 1.0


def test_lemma22_distinct_pairs_differ_at_ones():
    report = verify_lemma22(
        GIndPair(Lp(math.inf), Scaled(2.0, Lp(2))),
        GIndPair(Lp(2), Scaled(2.0, Lp(2))),
        2,
        trials=60,
        rng=RandomStream(5),
    )
    assert report.passed
    assert report.cases[1].values["proportional"] == 0.0
    agreement = report.cases[2]
    assert agreement.status == PASS
    assert agreement.values["verdict_scaled_and_equal"] == 0.0
    # the identity (2*sqrt(2) vs 2) and the all-ones matrix (4*sqrt(2) vs 4)
    # tie exactly at rel = 1 - 1/sqrt(2); the witness is the first of them,
    # whichever one rounds higher
    assert agreement.values["gind_a"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert agreement.values["gind_b"] == pytest.approx(2.0, rel=1e-12)
    worst = agreement.values["worst_relative_difference"]
    assert worst == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-12)
    budget = default_budget(2)
    ones = np.ones((2, 2), dtype=np.complex128)
    va = gind_eval(GIndPair(Lp(math.inf), Scaled(2.0, Lp(2))), ones, budget).value
    vb = gind_eval(GIndPair(Lp(2), Scaled(2.0, Lp(2))), ones, budget).value
    assert va == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
    assert vb == pytest.approx(4.0, rel=1e-12)
    assert abs(va - vb) / va == pytest.approx(worst, rel=1e-12)


def test_lemma22_identical_pairs():
    pair = GIndPair(Lp(2), Lp(1))
    report = verify_lemma22(pair, pair, 2, trials=40, rng=RandomStream(6))
    assert report.passed
    assert report.cases[0].values["gamma_hat"] == pytest.approx(1.0, rel=1e-12)


def test_lemma22_rejects_zero_reference():
    with pytest.raises(DimensionMismatchError):
        verify_lemma22(
            GIndPair(Lp(1), Lp(1)),
            GIndPair(Lp(1), Lp(1)),
            2,
            reference=np.zeros(2),
        )


def test_theorem23_spectral_all_pass():
    report = verify_theorem23(Spectral(), 2, trials=15, rng=RandomStream(7))
    assert report.passed
    descriptions = [c.description for c in report.cases]
    assert any("round trip" in d for d in descriptions)
    assert any("coincides" in d for d in descriptions)
    for case in report.cases:
        assert case.status == PASS, case


def test_theorem23_entrywise_sum_reports_gap():
    report = verify_theorem23(EntrywiseSum(), 2, trials=15, rng=RandomStream(8))
    assert report.passed  # a gap is a finding, not a failure
    by_desc = {c.description: c for c in report.cases}
    probe = by_desc["minimality probe (gap flags possible non-minimality)"]
    assert probe.values["gap_found"] == 1.0
    skipped = [c for c in report.cases if "skipped" in c.description]
    assert skipped and skipped[0].status == INCONCLUSIVE


def test_theorem23_max_row_sum_n3_round_trip():
    report = verify_theorem23(MaxRowSum(), 3, trials=12, rng=RandomStream(9))
    assert report.passed
    by_desc = {c.description: c for c in report.cases}
    rt = by_desc["round trip: reconstruction matches the source norm"]
    assert rt.status == PASS
    assert rt.values["worst_roundtrip_deviation"] <= 1e-6


def test_suites_are_replayable():
    a = verify_lemma21(GIndPair(Lp(math.inf), Lp(1)), 2, trials=40, rng=RandomStream(11))
    b = verify_lemma21(GIndPair(Lp(math.inf), Lp(1)), 2, trials=40, rng=RandomStream(11))
    assert _statuses(a) == _statuses(b)
    for ca, cb in zip(a.cases, b.cases):
        assert ca.values == cb.values
        assert ca.description == cb.description


def test_paper_demo_suite_passes_and_replays():
    a = paper_demo_suite(42)
    assert a.passed
    assert len(a.cases) == 6
    b = paper_demo_suite(42)
    assert _statuses(a) == _statuses(b)
    for ca, cb in zip(a.cases, b.cases):
        assert ca.values == cb.values


def test_paper_demo_gap_probes_are_exact_at_seed_1355706853():
    # the climb once left the entrywise-sum ratio at 0.705544 on this seed,
    # below the true infimum sqrt(1/2), and the suite failed
    report = paper_demo_suite(1355706853)
    assert report.passed
    values = report.cases[3].values
    assert abs(values["entrywise_sum_ratio"] - math.sqrt(0.5)) <= 1e-9
    assert abs(values["max_col_row_ratio"] - 0.5) <= 1e-12


def test_paper_demos_evaluate_induced_norms_over_stacks(monkeypatch):
    # cases 2, 3 and 6 and the gap probes of case 4 take one gind_eval_many
    # per pair and list of matrices: 3 norms at 2 dimensions, 2 pairs, 4
    # chain pairs and 2 probes.  Case 5 checks each pair's two points at
    # each dimension in one alpha_identity_checks, 32 stacks of two C_x, and
    # no case evaluates a lone matrix
    from normlab import gind

    induced = _count_calls(monkeypatch, gind.gind_eval)
    induced_many = _count_calls(monkeypatch, gind.gind_eval_many)
    assert paper_demo_suite(42).passed
    assert induced == {}
    assert induced_many == {"normlab.verification": 12, "normlab.extraction": 2 + 32}


def test_paper_demos_work_counts(monkeypatch):
    # the suite's deterministic work, bounded by this version's counts: the
    # polydisc searches of one vertex run every matrix in lockstep (175
    # objective calls when each matrix searched alone), the power method
    # makes 80 norming-functional calls, one matrix at a time, and case 5
    # checks two points per call (78 gind_eval_many calls with one per
    # point)
    from normlab import gind

    objective_calls, kernel_calls = [], []
    search, kernel = gind.maximize_on_polydisc, gind.norming_functionals_many

    def counted_search(objective_many, *args):
        return search(lambda xs: objective_calls.append(1) or objective_many(xs), *args)

    monkeypatch.setattr(gind, "maximize_on_polydisc", counted_search)
    monkeypatch.setattr(
        gind, "norming_functionals_many", lambda *a: kernel_calls.append(1) or kernel(*a)
    )
    induced_many = _count_calls(monkeypatch, gind.gind_eval_many)
    assert paper_demo_suite(42).passed
    assert len(objective_calls) <= 10
    assert len(kernel_calls) <= 80
    assert sum(induced_many.values()) <= 46


def test_sample_test_matrix_is_the_two_call_form():
    # a rank-one draw takes the discarded matrix and both vectors in one
    # draw, with the bits and the stream state of drawing them in turn
    def two_calls(g, n):
        kind = int(g.integers(3))
        a = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)
        if kind == 1:
            return (a + a.conj().T) / 2.0
        if kind == 2:
            u, v = (
                (g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2.0) for _ in range(2)
            )
            return np.outer(u, v.conj())
        return a

    for n in (1, 2, 3, 4):
        g, h = np.random.default_rng([1914, n]), np.random.default_rng([1914, n])
        for _ in range(300):
            assert sample_test_matrix(g, n).tobytes() == two_calls(h, n).tobytes(), n
        assert g.bit_generator.state == h.bit_generator.state, n



def _test_matrix_in_parts(g, n) -> tuple[int, np.ndarray]:
    """(kind, matrix) of one test-matrix draw, each part drawn in its own call."""
    kind = int(g.integers(3))
    re, im = g.standard_normal((n, n)), g.standard_normal((n, n))
    a = (re + 1j * im) / np.sqrt(2.0)
    if kind == 1:
        return kind, (a + a.conj().T) / 2.0
    if kind == 2:
        u, v = ((g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2.0) for _ in range(2))
        return kind, np.outer(u, v.conj())
    return kind, a


def test_sample_test_matrices_are_the_two_call_forms():
    # each sample's kind and normals drawn in stream order, shaped at once:
    # the bits and the stream state of drawing each part in its own call
    for n in (1, 2, 3, 4, 7):
        for count in (0, 1, 2, 5, 400):
            g, h = np.random.default_rng([1917, n, count]), np.random.default_rng([1917, n, count])
            got = sample_test_matrices(g, n, count)
            want = [_test_matrix_in_parts(h, n) for _ in range(count)]
            assert got.shape == (count, n, n)
            assert [m.tobytes() for m in got] == [w.tobytes() for _, w in want], (n, count)
            assert g.bit_generator.state == h.bit_generator.state, (n, count)
            if count == 400:
                assert {kind for kind, _ in want} == {0, 1, 2}


def _dominated():
    return GIndPair(Lp(math.inf), Lp(1))


@pytest.mark.parametrize(
    "run",
    [
        lambda g: verify_lemma21(_dominated(), 2, trials=0),
        lambda g: verify_lemma21(_dominated(), 0, trials=5),
        lambda g: verify_lemma22(_dominated(), _dominated(), 2, trials=0),
        lambda g: verify_lemma22(_dominated(), _dominated(), 0, trials=5),
        lambda g: verify_theorem23(Spectral(), 0),
        lambda g: verify_theorem23(Spectral(), 2, trials=0),
        lambda g: minimality_probe(Spectral(), 0, 2),
        lambda g: minimality_probe(Spectral(), 2, 0),
        lambda g: sample_test_matrix(g, 0),
        lambda g: sample_test_matrices(g, 2, -1),
    ],
    ids=[
        "lemma21-trials", "lemma21-dim", "lemma22-trials", "lemma22-dim", "theorem23-dim",
        "theorem23-trials", "probe-dim", "probe-trials", "test-matrix-dim", "test-matrices-count",
    ],
)
def test_bad_sizes_are_rejected_before_drawing(run, monkeypatch):
    monkeypatch.setattr(RandomStream, "generator", lambda self: pytest.fail("drew first"))
    g = np.random.default_rng(0)
    state = g.bit_generator.state
    with pytest.raises(DimensionMismatchError):
        run(g)
    assert g.bit_generator.state == state


def test_sample_sets_are_shaped_at_once(monkeypatch):
    # every sample set is drawn in stream order and shaped as one stack:
    # one complex_normals per set, where one per sample made 593 calls in
    # the demos and 96 in this theorem23 run
    shaped = _count_calls(monkeypatch, core.complex_normals)
    assert paper_demo_suite(42).passed
    assert sum(shaped.values()) <= 16
    shaped.clear()
    assert verify_theorem23(Spectral(), 2, trials=6, rng=RandomStream(5)).passed
    assert sum(shaped.values()) <= 6


def test_lemma21_polydisc_work_counts(monkeypatch):
    # the deterministic work of lemma21 on l-inf -> l1 at n = 2, whose three
    # stacks of 300 take one polydisc search each: its objective calls and
    # the rows its searches score, their starts included, pinned exactly
    from normlab import gind

    calls, rows = [], []
    search = gind.maximize_on_polydisc

    def counted(objective_many, *args):
        found = search(lambda xs: calls.append(1) or objective_many(xs), *args)
        rows.extend(res.evaluations for res in found)
        return found

    monkeypatch.setattr(gind, "maximize_on_polydisc", counted)
    verify_lemma21(GIndPair(Lp(math.inf), Lp(1)), 2, trials=300)
    assert (len(calls), len(rows), sum(rows)) == (73, 900, 140_676)


def test_lemma_suites_evaluate_over_stacks(monkeypatch):
    # lemma21 evaluates the A's, the B's and the products each in one
    # gind_eval_many, and lemma22 each pair over its matrices in one; the
    # only lone gind_eval is lemma21's dominance check, at the identity
    from normlab import gind

    lone = _count_calls(monkeypatch, gind.gind_eval)
    many = _count_calls(monkeypatch, gind.gind_eval_many)
    assert verify_lemma21(_dominated(), 2, trials=300).passed
    assert lone == {"normlab.gind": 1}
    assert many.get("normlab.verification", 0) <= 3
    lone.clear()
    many.clear()
    pair_a = GIndPair(Scaled(3.0, Lp(math.inf)), Scaled(6.0, Lp(2)))
    pair_b = GIndPair(Lp(math.inf), Scaled(2.0, Lp(2)))
    assert verify_lemma22(pair_a, pair_b, 2, trials=200).passed
    assert lone == {}
    assert many.get("normlab.verification", 0) <= 2

def test_failures_would_carry_witnesses():
    # every fail case in any suite must attach a witness; exercise the
    # reporting path through the undominated lemma21 search where the
    # violation witness doubles as the certificate
    report = verify_lemma21(GIndPair(Lp(1), Lp(math.inf)), 2, trials=30, rng=RandomStream(12))
    for case in report.cases:
        if case.status == FAIL:
            assert case.witness is not None


def _count_calls(monkeypatch, fn) -> dict:
    """Rebind every normlab name bound to ``fn`` to a wrapper that counts its
    calls by the module that made them; returns module name -> calls."""
    calls: dict = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "normlab" or name.startswith("normlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:

                def counted(*args, _name=name, **kwargs):
                    calls[_name] = calls.get(_name, 0) + 1
                    return fn(*args, **kwargs)

                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "source, n, eigen_solves",
    [
        (Spectral(), 2, {"normlab.gind": 3}),
        (EntrywiseMax(), 2, {}),
        (MaxColSum(), 3, {}),
    ],
    ids=["spectral", "entrywise-max", "maxcolsum"],
)
def test_theorem23_exact_catalog_pairs_never_climb(source, n, eigen_solves, monkeypatch):
    # their extracted pairs are plain descriptors with an exact dispatch, so
    # no reconstruction or probe call may fall through to the hill climb.
    # Role 1 is resolved once per run, so no value goes through eval_role1;
    # spectral values solve for no eigenvector, so the only eigenvector
    # solves are the l2 -> l2 closed forms of the reconstruction, one
    # stacked solve for each list of probes: the 8 fixed and 2 x 6 random
    # ones, and no matrix by matrix
    climbs = _count_calls(monkeypatch, sphere_opt._climb)
    role1 = _count_calls(monkeypatch, extraction.eval_role1)
    eig = _count_calls(monkeypatch, core.hermitian_top_eig)
    stacked = _count_calls(monkeypatch, core.hermitian_top_eigenvectors)
    report = verify_theorem23(source, n, trials=6, rng=RandomStream(12))
    assert report.passed
    assert climbs == {}
    assert role1 == {}
    assert eig == {}
    assert stacked == eigen_solves


def test_theorem23_resolves_a_polyhedral_gind_pair_once(monkeypatch):
    # the table gives GInd(max(l1, 2 linf), l2) the pair (c alpha, c beta),
    # and c = alpha*(1) takes a polydisc search, so the run resolves both
    # roles once, with one c, and the reconstruction is the source's own
    # polydisc search
    from normlab import MaxOf, gind

    climbs = _count_calls(monkeypatch, sphere_opt._climb)
    duals = _count_calls(monkeypatch, gind.sum_functional_alpha)
    source = GIndPair(MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))), Lp(2))
    report = verify_theorem23(source, 2, trials=6, rng=RandomStream(12))
    assert report.passed
    values = {k: v for case in report.cases for k, v in case.values.items()}
    assert values["worst_ratio"] == 1.0
    assert values["gap_found"] == 0.0
    assert climbs == {}
    assert duals == {"normlab.gind": 1}


@pytest.mark.parametrize(
    "source, n, stacked",
    [(Spectral(), 2, 5), (EntrywiseMax(), 2, 4), (MaxColSum(), 3, 5)],
    ids=["spectral", "entrywise-max", "maxcolsum"],
)
def test_theorem23_and_the_probe_evaluate_the_source_over_stacks(source, n, stacked, monkeypatch):
    # N goes over stacks, never matrix by matrix: theorem23 takes the fixed,
    # upper-bound and probe denominators in one call each, and role 2 in one
    # call for the axiom checks and one for the "pair coincides" case, which
    # EntrywiseMax, not an algebra norm, skips; the probe takes one call.  So
    # does the reconstruction: one gind_eval_many per list of probes, and no
    # scalar gind_eval
    from normlab import gind, matrix_norms, minimality_probe

    scalar = _count_calls(monkeypatch, matrix_norms.mnorm_eval)
    many = _count_calls(monkeypatch, matrix_norms.mnorm_eval_many)
    induced = _count_calls(monkeypatch, gind.gind_eval)
    induced_many = _count_calls(monkeypatch, gind.gind_eval_many)
    assert verify_theorem23(source, n, trials=6, rng=RandomStream(12)).passed
    assert scalar == {}
    assert many == {"normlab.extraction": stacked}
    assert induced == {}
    assert induced_many == {"normlab.extraction": 3}
    many.clear()
    induced_many.clear()
    minimality_probe(source, n, 6, rng=RandomStream(12))
    assert scalar == {}
    assert many == {"normlab.extraction": 1}
    assert induced == {}
    assert induced_many == {"normlab.extraction": 1}


def test_theorem23_evaluates_a_gind_source_over_stacks(monkeypatch):
    # a GInd source's N is gind_eval_many over each stack, through
    # mnorm_eval_many (its deferred import reads the name from gind), and
    # the reconstruction one call per list of probes: no mnorm_eval, and
    # the only scalar gind_eval calls are Lemma 2.1's two dominance checks,
    # each at the identity.  gind_eval_many is read from gind 7 times: the
    # 5 stacks of N (the fixed, upper-bound and probe denominators, and role
    # 2 twice) and the 2 stacks of one of those checks
    from normlab import gind, matrix_norms

    scalar = _count_calls(monkeypatch, matrix_norms.mnorm_eval)
    induced = _count_calls(monkeypatch, gind.gind_eval)
    induced_many = _count_calls(monkeypatch, gind.gind_eval_many)
    source = GIndPair(Lp(3), Lp(1.5))
    assert verify_theorem23(source, 2, trials=6, rng=RandomStream(12)).passed
    assert scalar == {}
    assert induced == {"normlab.gind": 2}
    assert induced_many == {"normlab.gind": 7, "normlab.extraction": 3}

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import (
    Lp,
    MaxOf,
    RandomStream,
    Scaled,
    WeightedLp,
    dominance_check,
    split_scale,
    sample_vector,
    sum_functional_alpha,
    vnorm_dual_eval,
    vnorm_eval,
)
from normlab.errors import DimensionMismatchError, SpecValidationError
from normlab.vector_norms import has_batch_form, norming_functionals_many, vnorm_eval_many
from _oracles import dense_sphere_max


def test_lp_examples():
    assert vnorm_eval(Lp(2), [3, 4]) == pytest.approx(5.0)
    assert vnorm_eval(Lp(math.inf), [3, 4]) == pytest.approx(4.0)
    assert vnorm_eval(Lp(1), [3, 4]) == pytest.approx(7.0)


def test_scaled_example():
    assert vnorm_eval(Scaled(2.0, Lp(2)), [3, 4]) == pytest.approx(10.0)


def test_maxof_and_weighted():
    spec = MaxOf((Lp(1), Scaled(3.0, Lp(math.inf))))
    assert vnorm_eval(spec, [1, 2]) == pytest.approx(max(3.0, 6.0))
    assert vnorm_eval(WeightedLp((2.0, 1.0), 1), [1, 2]) == pytest.approx(4.0)


def test_invalid_specs_rejected():
    with pytest.raises(SpecValidationError):
        Lp(0.5)
    with pytest.raises(SpecValidationError):
        Scaled(0.0, Lp(2))
    with pytest.raises(SpecValidationError):
        MaxOf(())
    with pytest.raises(SpecValidationError):
        WeightedLp((1.0, -1.0), 2)


def test_weighted_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        vnorm_eval(WeightedLp((1.0, 2.0, 3.0), 2), [1, 2])


def _random_specs(n):
    return [
        Lp(1),
        Lp(1.3),
        Lp(2),
        Lp(3),
        Lp(math.inf),
        Scaled(0.7, Lp(2)),
        Scaled(4.0, Lp(1)),
        MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))),
        MaxOf((Lp(2), Lp(3))),
        WeightedLp(tuple(1.0 + 0.5 * j for j in range(n)), 2),
        WeightedLp(tuple(2.0 - 0.3 * j for j in range(n)), math.inf),
    ]


def test_norm_axioms_sampled():
    # ~1000 sampled points per spec across n = 2..4
    for n in (2, 3, 4):
        g = RandomStream(100 + n).generator()
        for spec in _random_specs(n):
            assert vnorm_eval(spec, np.zeros(n)) == 0.0
            for _ in range(334):
                x, y = sample_vector(g, n), sample_vector(g, n)
                a = complex(g.standard_normal(), g.standard_normal())
                vx, vy = vnorm_eval(spec, x), vnorm_eval(spec, y)
                assert vx > 0
                hom = abs(vnorm_eval(spec, a * x) - abs(a) * vx)
                assert hom <= 1e-12 * max(1.0, abs(a) * vx)
                tri = vnorm_eval(spec, x + y) - vx - vy
                assert tri <= 1e-12 * max(1.0, vx + vy)


def test_lp_chain():
    g = RandomStream(3).generator()
    for n in (2, 3, 4):
        for _ in range(200):
            x = sample_vector(g, n)
            vinf = vnorm_eval(Lp(math.inf), x)
            v2 = vnorm_eval(Lp(2), x)
            v1 = vnorm_eval(Lp(1), x)
            assert vinf <= v2 * (1 + 1e-12)
            assert v2 <= v1 * (1 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=4,
    ),
    st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
)
def test_lp_triangle_hypothesis(entries, p):
    x = np.asarray(entries, dtype=np.complex128)
    y = x[::-1].conj()
    lhs = vnorm_eval(Lp(p), x + y)
    rhs = vnorm_eval(Lp(p), x) + vnorm_eval(Lp(p), y)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


_BATCH_ENTRY = st.one_of(
    st.complex_numbers(max_magnitude=1e200, allow_nan=False, allow_infinity=False),
    st.sampled_from([0j, complex(1e-310, 0.0), complex(-0.0, 2.0)]),
)


@st.composite
def _batches(draw):
    """Rows of one dimension, plus a zero row, a row below the sphere
    scorer's 1e-300 cutoff and two non-finite rows."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_BATCH_ENTRY, min_size=n, max_size=n), min_size=1, max_size=6))
    rows += [[0j] * n, [1e-310j] * n, [complex(math.inf, 1.0)] * n]
    rows.append([complex(math.nan, 0.0)] + [1j] * (n - 1))
    return np.array(rows, dtype=np.complex128)


def _batch_specs(n):
    w = tuple(0.5 + 0.75 * i for i in range(n))
    return [
        Lp(1), Lp(1.5), Lp(2), Lp(3), Lp(math.inf),
        WeightedLp(w, 1), WeightedLp(w, 1.5), WeightedLp(w, 2), WeightedLp(w, math.inf),
        Scaled(2.5, Scaled(0.3, Lp(1.5))),
        MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))),
        Scaled(1.5, MaxOf((WeightedLp(w, 3), MaxOf((Lp(2), Scaled(0.5, Lp(1))))))),
    ]


def _reference_root(x: np.ndarray, squares) -> float:
    """sqrt(squares(x)), taken again of x / 2^e and scaled back where that
    sum is not a normal finite number, 2^e the smallest power of two above
    every real and imaginary part of x."""
    with np.errstate(over="ignore"):
        sq = squares(x)
    if sys.float_info.min <= sq <= sys.float_info.max:
        return math.sqrt(sq)
    parts = np.ascontiguousarray(x).view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1]
    root = math.sqrt(squares(np.ldexp(parts, -e).view(x.dtype)))
    try:
        return math.ldexp(root, e)
    except OverflowError:
        return math.inf


def _reference_value(spec, x) -> float:
    """The value of a descriptor of Lp and WeightedLp under Scaled and MaxOf
    at one vector, by scalar formulas: l2 the root of vdot's sum of squares,
    other p the sum over the peak-scaled moduli, WeightedLp the weighted
    moduli, and Scaled and MaxOf through Python arithmetic and built-in max."""
    v = np.asarray(x, dtype=np.complex128)
    if isinstance(spec, Scaled):
        return spec.gamma * _reference_value(spec.inner, v)
    if isinstance(spec, MaxOf):
        return max(_reference_value(part, v) for part in spec.parts)
    if isinstance(spec, Lp) and spec.p == 2.0:
        return _reference_root(v, lambda u: np.vdot(u, u).real)
    m = np.abs(v) if isinstance(spec, Lp) else np.abs(v) * np.asarray(spec.weights)
    if spec.p == math.inf:
        return float(m.max())
    if spec.p == 1.0:
        return float(m.sum())
    if spec.p == 2.0:
        return _reference_root(m, lambda u: np.sum(u * u))
    peak = float(m.max())
    if peak == 0.0:
        return 0.0
    return peak * float(np.sum((m / peak) ** spec.p) ** (1.0 / spec.p))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_batches())
def test_vnorm_eval_many_equals_vnorm_eval_row_by_row(rows):
    # both kernels against the scalar formulas, bit for bit
    with np.errstate(all="ignore"):
        for spec in _batch_specs(rows.shape[1]):
            assert has_batch_form(spec)
            many = vnorm_eval_many(spec, rows)
            for row, got in zip(rows, many):
                want = _reference_value(spec, row)
                assert _same(got, want) and _same(vnorm_eval(spec, row), want), (spec, row)


def test_l2_values_hold_for_finite_extreme_entries():
    # a sum of squares that is not a normal finite number is taken again of
    # the vector scaled by a power of two, so finite entries give the norm; a
    # normal sum keeps its bits, and a vector with an inf or NaN entry its
    # unscaled value.  No form warns: plain l2 sums with vdot, and the batch
    # and moduli forms square with numpy where an overflow is not reported
    w = (1.0, 2.0)
    rows = np.array([[1e200, 0], [1e-200, 0], [3e-320, 4e-320], [3, 4], [0, 0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, want in zip(rows, (1e200, 1e-200, 5e-320, 5.0, 0.0)):
            assert vnorm_eval(Lp(2), x) == want
        assert vnorm_eval(Lp(2), [3e200, 4e200j]) == pytest.approx(5e200, rel=1e-15)
        assert vnorm_eval(Lp(2), [1.5e308, 1.5e308]) == math.inf
        # vdot's own value, NaN for an inf entry as for a NaN one
        assert math.isnan(vnorm_eval(Lp(2), [math.inf, 1]))
        assert math.isnan(vnorm_eval(Lp(2), [math.nan, 1]))
        # a square that overflows, in the batch form and in the weighted one
        assert list(vnorm_eval_many(Lp(2), [[1e200, 0]])) == [1e200]
        assert list(vnorm_eval_many(Lp(2), [[1.5e308, 1.5e308]])) == [math.inf]
        assert list(vnorm_eval_many(WeightedLp(w, 2), [[1e200, 1e200]])) == [
            _reference_value(WeightedLp(w, 2), [1e200, 1e200])
        ]
        for x, want in zip(rows, (1e200, 1e-200, 5e-320, 5.0, 0.0)):
            assert vnorm_dual_eval(Lp(2), x) == want
        assert list(vnorm_eval_many(Lp(2), rows)) == [1e200, 1e-200, 5e-320, 5.0, 0.0]
        assert vnorm_eval_many(Lp(2), np.zeros((0, 2))).shape == (0,)
        assert vnorm_eval_many(WeightedLp(w, 2), np.zeros((0, 2))).shape == (0,)
        assert vnorm_eval(WeightedLp(w, 2), [1e200, 1e200]) == pytest.approx(math.sqrt(5) * 1e200, rel=1e-15)
        assert vnorm_eval(WeightedLp(w, 2), [0, 1e-200]) == 2e-200
        assert list(vnorm_eval_many(WeightedLp(w, 2), rows)) == [
            _reference_value(WeightedLp(w, 2), x) for x in rows
        ]
    g = np.random.default_rng(97)
    for n in (1, 2, 3, 4):
        scale = 10.0 ** g.uniform(-150, 150, (50, 1))
        normal = scale * (g.standard_normal((50, n)) + 1j * g.standard_normal((50, n)))
        for x, got in zip(normal, vnorm_eval_many(Lp(2), normal)):
            assert vnorm_eval(Lp(2), x) == got == float(np.sqrt(np.vdot(x, x).real))
            assert vnorm_eval(WeightedLp(w[:1] * n, 2), x) == float(np.sqrt(np.sum(np.abs(x) ** 2)))


def test_norming_functionals_of_subnormal_rows():
    # 1/|y_j| overflows on a subnormal entry: its phase is taken of the entry
    # scaled by 2^600, so the functional stays unit and attains the norm
    g = np.random.default_rng(61)
    for n in (1, 2, 3):
        rows = 1e-310 * (g.standard_normal((4, n)) + 1j * g.standard_normal((4, n)))
        rows[0, : n - 1] = 0.0  # zero entries, in a row that is not zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in _batch_specs(n):
                assert norming_functionals_many(spec, rows[:0])[1].shape == (0, n)
                vals, funcs = norming_functionals_many(spec, rows)
                assert vals == pytest.approx(vnorm_eval_many(spec, rows), rel=1e-12), spec
                maxof = isinstance(split_scale(spec)[1], MaxOf)
                for y, val, u in zip(rows, vals, funcs):
                    assert np.vdot(u, y).real == pytest.approx(val, rel=1e-9), spec
                    dual = vnorm_dual_eval(spec, u)
                    assert dual <= 1.0 + 1e-13 if maxof else dual == pytest.approx(1.0, rel=1e-13)


def test_vnorm_eval_many_rejects_what_it_cannot_batch():
    from normlab import Extracted, MaxColSum, OptBudget, Spectral

    spec = MaxOf((Lp(2), Extracted(2, MaxColSum(), OptBudget())))
    assert not has_batch_form(spec)
    with pytest.raises(SpecValidationError, match="not a vector norm descriptor"):
        vnorm_eval_many(Spectral(), np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        vnorm_eval_many(Lp(2), np.ones(3))
    with pytest.raises(DimensionMismatchError):
        vnorm_eval_many(WeightedLp((1.0, 2.0), 1), np.ones((2, 3)))
    with pytest.raises(SpecValidationError):
        norming_functionals_many(spec, np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        norming_functionals_many(Lp(2), np.ones(3))
    with pytest.raises(DimensionMismatchError):
        norming_functionals_many(WeightedLp((1.0, 2.0), 3), np.ones((2, 3)))


def test_vnorm_eval_many_evaluates_extracted_leaves():
    # role 2 is N over the stack of the C_x and role 1 a climb at each row
    # (its source is off the table), bit for bit the scalar role
    # evaluations, with a zero row and with no rows
    from normlab import EntrywiseMax, Extracted, MaxColSum, OptBudget, Spectral, extraction

    budget = OptBudget(multistarts=1, max_iters=12, samples=2, seed=7)
    off_table = MaxOf((EntrywiseMax(), MaxColSum()))
    role2 = MaxOf((Lp(2), Extracted(2, Spectral(), budget)))
    role1 = Scaled(2.0, Extracted(1, off_table, budget))
    g = np.random.default_rng(41)
    rows = g.standard_normal((3, 2)) + 1j * g.standard_normal((3, 2))
    rows[1] = 0.0
    extraction.clear_role1_cache()
    got2, got1 = vnorm_eval_many(role2, rows).tolist(), vnorm_eval_many(role1, rows).tolist()
    extraction.clear_role1_cache()
    assert got2 == [
        max(_reference_value(Lp(2), x), extraction.eval_role2(Spectral(), budget, x)) for x in rows
    ]
    assert got1 == [2.0 * extraction.eval_role1(off_table, budget, x) for x in rows]
    assert got2[1] == got1[1] == 0.0
    for spec, got in ((role2, got2), (role1, got1)):
        assert [vnorm_eval(spec, x) for x in rows] == got
        assert vnorm_eval_many(spec, rows[:0]).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_norming_functionals_are_unit_and_attain_the_norm(n):
    # Re <u, y> = N(y) and N*(u) = 1 (<= 1 under MaxOf, whose functional is a
    # part's); the values agree with vnorm_eval_many to a few ulps; a zero
    # row, and zero entries, get zero functionals without a warning
    g = np.random.default_rng([59, n])
    rows = g.standard_normal((6, n)) + 1j * g.standard_normal((6, n))
    rows[1, : n - 1] = 0.0
    rows[2] *= 1e-150
    rows[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in _batch_specs(n):
            vals, funcs = norming_functionals_many(spec, rows)
            want = vnorm_eval_many(spec, rows)
            assert np.all(np.abs(vals - want) <= 4 * np.spacing(want)), spec
            assert vals[3] == 0.0 and not funcs[3].any(), spec
            assert not funcs[1, : n - 1].any(), spec
            maxof = isinstance(split_scale(spec)[1], MaxOf)
            for y, val, u in zip(rows[[0, 1, 2, 4, 5]], vals[[0, 1, 2, 4, 5]], funcs[[0, 1, 2, 4, 5]]):
                assert np.vdot(u, y).real == pytest.approx(val, rel=1e-14), spec
                dual = vnorm_dual_eval(spec, u)
                if maxof:
                    assert dual <= 1.0 + 1e-13, spec
                else:
                    assert dual == pytest.approx(1.0, rel=1e-13), spec


def test_dual_examples():
    assert vnorm_dual_eval(Lp(1), [1, 2]) == pytest.approx(2.0)
    assert vnorm_dual_eval(Lp(2), [3, 4]) == pytest.approx(5.0)
    assert vnorm_dual_eval(Lp(math.inf), [1, 1, 1]) == pytest.approx(3.0)


def test_dual_is_hoelder_conjugate():
    g = RandomStream(17).generator()
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        q = math.inf if p == 1.0 else (1.0 if p == math.inf else p / (p - 1.0))
        for n in (2, 3):
            for _ in range(25):
                v = sample_vector(g, n)
                assert vnorm_dual_eval(Lp(p), v) == pytest.approx(
                    vnorm_eval(Lp(q), v), rel=1e-9
                )


def test_dual_cross_checked_by_dense_sampling():
    # lower-confirmation of the conjugate formula on the l_p sphere of C^2
    g = RandomStream(23).generator()
    for p in (1.0, 2.0, math.inf):
        for _ in range(4):
            v = sample_vector(g, 2)
            sampled = dense_sphere_max(
                lambda x: np.abs(np.conj(v) @ x), p, grid=220, rounds=3
            )
            exact = vnorm_dual_eval(Lp(p), v)
            assert sampled <= exact * (1 + 1e-9)
            assert exact == pytest.approx(sampled, rel=2e-5)


def test_dual_of_scaled_and_weighted():
    g = RandomStream(29).generator()
    for _ in range(20):
        v = sample_vector(g, 3)
        assert vnorm_dual_eval(Scaled(2.0, Lp(2)), v) == pytest.approx(
            0.5 * vnorm_dual_eval(Lp(2), v), rel=1e-12
        )
        w = (1.0, 2.0, 0.5)
        direct = vnorm_dual_eval(WeightedLp(w, 2), v)
        expected = vnorm_eval(Lp(2), np.asarray(v) / np.asarray(w))
        assert direct == pytest.approx(expected, rel=1e-9)


def test_dual_of_maxof_is_lower_bound_and_sane():
    # no closed form: sphere ascent must stay below both parts' duals
    spec = MaxOf((Lp(1), Lp(2)))
    v = np.array([1.0, 2.0], dtype=np.complex128)
    got = vnorm_dual_eval(spec, v)
    cap = min(vnorm_dual_eval(Lp(1), v), vnorm_dual_eval(Lp(2), v))
    assert got <= cap * (1 + 1e-9)
    assert got >= 0.9 * cap  # ascent should get close at n=2


# the ball of max(l1, 2 l-inf) is the hull of the polydiscs over the moduli
# with two entries 1/2 and the rest 0
_HALF_PAIRS = MaxOf((Lp(1), Scaled(2, Lp(math.inf))))


def test_dual_of_polyhedral_maxof_is_exact():
    # <v, x> peaks at moduli 1/2 on the two largest |v_j|
    g = np.random.default_rng(11)
    for n in (3, 4):
        for _ in range(5):
            v = sample_vector(g, n)
            top = np.sort(np.abs(v))[-2:]
            assert vnorm_dual_eval(_HALF_PAIRS, v) == pytest.approx(0.5 * top.sum(), rel=1e-12)


def test_dominance_of_polyhedral_maxof_is_exact():
    # sup ||x||_2 / max(||x||_1, 2||x||_inf) is attained at (1/2, 1/2, 0, ...)
    for n in (3, 4):
        report = dominance_check(Lp(2), _HALF_PAIRS, n)
        assert report.dominated
        assert report.max_ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_alpha_examples():
    assert sum_functional_alpha(Lp(1), 3) == pytest.approx(1.0)
    assert sum_functional_alpha(Lp(math.inf), 2) == pytest.approx(2.0)
    assert sum_functional_alpha(Lp(2), 4) == pytest.approx(2.0)


def test_alpha_power_law():
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        q = math.inf if p == 1.0 else (1.0 if p == math.inf else p / (p - 1.0))
        for n in (2, 3, 4):
            expected = n ** (1.0 / q) if q != math.inf else 1.0
            assert sum_functional_alpha(Lp(p), n) == pytest.approx(expected, rel=1e-9)


def test_dominance_linf_below_l1():
    report = dominance_check(Lp(math.inf), Lp(1), 2, samples=200, rng=RandomStream(1))
    assert report.dominated
    assert report.counterexample is None
    assert report.max_ratio <= 1.0 + 1e-9


def test_dominance_l1_above_linf():
    report = dominance_check(Lp(1), Lp(math.inf), 2, samples=200, rng=RandomStream(2))
    assert not report.dominated
    x = report.counterexample
    assert x is not None
    assert vnorm_eval(Lp(1), x) > vnorm_eval(Lp(math.inf), x) * (1 + 1e-9)
    assert report.max_ratio == pytest.approx(2.0, rel=1e-6)


def test_dominance_identical_norms():
    report = dominance_check(Lp(2), Lp(2), 3, samples=100, rng=RandomStream(3))
    assert report.dominated
    assert report.max_ratio == pytest.approx(1.0, abs=1e-9)


def test_dominance_scaled_margin():
    report = dominance_check(Lp(2), Scaled(1.01, Lp(2)), 2, samples=64, rng=RandomStream(4))
    assert report.dominated
    report = dominance_check(Scaled(1.01, Lp(2)), Lp(2), 2, samples=64, rng=RandomStream(5))
    assert not report.dominated

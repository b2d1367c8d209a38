import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import (
    KNOWN_NO,
    KNOWN_YES,
    UNKNOWN,
    EntrywiseMax,
    EntrywiseSum,
    GInd,
    Lp,
    MaxColSum,
    MaxOf,
    MaxRowSum,
    RandomStream,
    Scaled,
    Spectral,
    gind_eval,
    mnorm_eval,
    mnorm_is_algebra_candidate,
    sample_matrix,
    sample_vector,
)
from normlab.core import hermitian_top_eig, scaled_grams
from normlab.errors import DimensionMismatchError, NonFiniteInputError
from normlab.matrix_norms import mnorm_eval_many

A = [[1, 2], [3, 4]]


def test_closed_form_examples():
    assert mnorm_eval(EntrywiseSum(), A) == pytest.approx(10.0)
    assert mnorm_eval(EntrywiseMax(), A) == pytest.approx(4.0)
    assert mnorm_eval(MaxColSum(), A) == pytest.approx(6.0)
    assert mnorm_eval(MaxRowSum(), A) == pytest.approx(7.0)


def test_spectral_example():
    # sqrt of the larger root of l^2 - 30 l + 4 (char. polynomial of A^T A)
    expected = math.sqrt((30.0 + math.sqrt(884.0)) / 2.0)
    assert mnorm_eval(Spectral(), A) == pytest.approx(expected, rel=1e-9)
    assert mnorm_eval(Spectral(), A) == pytest.approx(5.4650, abs=5e-5)


def test_spectral_identity():
    assert mnorm_eval(Spectral(), np.eye(3)) == pytest.approx(1.0, abs=1e-10)


def test_spectral_matches_svd_oracle():
    g = RandomStream(31).generator()
    for n in (2, 3, 4):
        for _ in range(25):
            m = sample_matrix(g, n)
            expected = float(np.linalg.svd(m, compute_uv=False)[0])
            assert mnorm_eval(Spectral(), m) == pytest.approx(expected, rel=1e-8)


def test_spectral_of_extreme_magnitudes():
    # A is scaled by a power of two before A*A is formed, so neither
    # overflow nor underflow in A*A reaches the value, and no warning is
    # raised; a norm beyond the largest float is inf, as for the other norms
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mnorm_eval(Spectral(), [[1e200, 0], [0, 1]]) == 1e200
        assert mnorm_eval(Spectral(), [[1.7e308, 0], [0, 1j]]) == 1.7e308
        assert mnorm_eval(Spectral(), [[1e-320, 0], [0, 1e-310]]) == 1e-310
        assert mnorm_eval(Spectral(), np.full((2, 2), 1e308)) == math.inf
        a = np.array([[1.0 + 2.0j, -0.5], [0.25j, 3.0]])
        for scale in (1e-150, 1e150):
            assert mnorm_eval(Spectral(), scale * a) == pytest.approx(
                scale * np.linalg.norm(a, 2), rel=1e-14
            )


def test_spectral_value_is_the_eigen_solvers_bits():
    # the value path skips the eigenvector, not the solve: its bits are those
    # of the top eigenvalue hermitian_top_eig reports for the same Gram matrix
    g = RandomStream(43).generator()
    checked = 0
    for n in (1, 2, 3, 4):
        for _ in range(13):
            a = sample_matrix(g, n)
            u, v = sample_vector(g, n), sample_vector(g, n)
            for m in (
                a,
                (a + a.conj().T) / 2.0,
                np.outer(u, v.conj()),
                np.zeros((n, n), dtype=np.complex128),
                1e200 * a,
            ):
                h, e = scaled_grams(m[None])
                want = math.ldexp(math.sqrt(hermitian_top_eig(h[0]).eigenvalue), int(e[0]))
                assert mnorm_eval(Spectral(), m).hex() == want.hex()
                checked += 1
    assert checked >= 200
    for bad in (math.inf, -math.inf, math.nan, complex(0.0, math.inf)):
        m = np.eye(2, dtype=np.complex128)
        m[0, 1] = bad
        # rejected before A*A is formed, so no RuntimeWarning comes first
        with pytest.raises(NonFiniteInputError, match="finite"):
            mnorm_eval(Spectral(), m)


_STACK_ENTRY = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0j, complex(-0.0, 2.0), complex(1e-310, 0.0)]),
)


@st.composite
def _stacks(draw):
    """A stack of n x n matrices, n = 1..4: raw, Hermitian and rank-one
    draws, each times 1e-200, 1 or 1e200, and a zero matrix among them."""
    n = draw(st.integers(1, 4))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        m = np.array(draw(st.lists(_STACK_ENTRY, min_size=n * n, max_size=n * n)))
        m = m.astype(np.complex128).reshape(n, n)
        kind = draw(st.sampled_from(["raw", "hermitian", "rank-one"]))
        if kind == "hermitian":
            m = (m + m.conj().T) / 2.0
        elif kind == "rank-one":
            m = np.outer(m[:, 0], m[0].conj())
        mats.append(m * draw(st.sampled_from([1e-200, 1.0, 1e200])))
    mats.insert(draw(st.integers(0, len(mats))), np.zeros((n, n), dtype=np.complex128))
    return np.array(mats)


_STACK_SPECS = [
    EntrywiseSum(),
    EntrywiseMax(),
    MaxColSum(),
    MaxRowSum(),
    Spectral(),
    Scaled(0.3, Spectral()),
    Scaled(2.0, Scaled(0.75, MaxColSum())),
    MaxOf((MaxColSum(), MaxRowSum())),
    MaxOf((
        Scaled(2.0, EntrywiseMax()),
        Spectral(),
        MaxOf((EntrywiseSum(), Scaled(0.25, MaxRowSum()))),
    )),
    MaxOf((Spectral(), GInd(Lp(1), Lp(2)))),
    GInd(Lp(2), Scaled(2.0, Lp(2))),
    GInd(Lp(math.inf), Lp(1)),
]


def _reference_value(spec, m):
    """The value of spec at one matrix from per-class scalar formulas that
    share no array code with mnorm_eval_many: a reference for its stacked
    closed forms.  Spectral scales A by a power of two, forms one 2-D Gram
    and solves it alone (the zero matrix reads 0.0 unsolved); MaxOf keeps
    the first of equal or NaN values, as built-in max does."""
    if isinstance(spec, EntrywiseSum):
        return float(np.abs(m).sum())
    if isinstance(spec, EntrywiseMax):
        return float(np.abs(m).max())
    if isinstance(spec, MaxColSum):
        return float(np.abs(m).sum(axis=0).max())
    if isinstance(spec, MaxRowSum):
        return float(np.abs(m).sum(axis=1).max())
    if isinstance(spec, Spectral):
        parts = np.ascontiguousarray(m).view(np.float64)
        peak = float(np.abs(parts).max())
        if not math.isfinite(peak):
            raise NonFiniteInputError("eigen solve needs a finite matrix")
        e = math.frexp(peak)[1]
        b = np.ldexp(parts, -e).view(np.complex128)
        h = b.conj().T @ b
        lam = max(float(np.linalg.eigh(h)[0][-1]), 0.0) if h.any() else 0.0
        try:
            return math.ldexp(math.sqrt(lam), e)
        except OverflowError:
            return math.inf
    if isinstance(spec, Scaled):
        return spec.gamma * _reference_value(spec.inner, m)
    if isinstance(spec, MaxOf):
        return max(_reference_value(part, m) for part in spec.parts)
    if isinstance(spec, GInd):
        return gind_eval(spec, m).value
    raise AssertionError(spec)


def _hex_rows(spec, stack):
    """The reference value at every matrix of the stack, as hex strings."""
    return [_reference_value(spec, np.ascontiguousarray(m)).hex() for m in stack]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_stacks())
def test_mnorm_eval_many_equals_mnorm_eval_row_by_row(stack):
    for spec in _STACK_SPECS:
        many = mnorm_eval_many(spec, stack)
        assert many.shape == (len(stack),)
        assert [float(v).hex() for v in many] == _hex_rows(spec, stack), spec


def test_mnorm_eval_many_of_extreme_and_non_finite_stacks():
    # extreme magnitudes keep the scalar values, and spectral ones come
    # without a warning; a stack holding a non-finite matrix raises what
    # mnorm_eval raises for it, or gives the same inf or NaN in its row
    extreme = np.array(
        [[[1e200, 0], [0, 1]], [[1.7e308, 0], [0, 1j]], [[1e-320, 0], [0, 1e-310]],
         np.full((2, 2), 1e308), np.zeros((2, 2))],
        dtype=np.complex128,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (Spectral(), Scaled(0.3, Spectral())):
            many = mnorm_eval_many(spec, extreme)
            assert [float(v).hex() for v in many] == _hex_rows(spec, extreme)
    with np.errstate(over="ignore"):
        for spec in _STACK_SPECS[:9]:
            many = mnorm_eval_many(spec, extreme)
            assert [float(v).hex() for v in many] == _hex_rows(spec, extreme), spec
    for bad in (math.inf, -math.inf, math.nan, complex(0.0, math.inf)):
        stack = np.array([np.eye(2), np.ones((2, 2)), np.eye(2)], dtype=np.complex128)
        stack[1, 0, 1] = bad
        with np.errstate(invalid="ignore"):
            for spec in _STACK_SPECS:
                try:
                    want = _hex_rows(spec, stack)
                except NonFiniteInputError:
                    with pytest.raises(NonFiniteInputError, match="finite"):
                        mnorm_eval_many(spec, stack)
                else:
                    assert [float(v).hex() for v in mnorm_eval_many(spec, stack)] == want


def test_mnorm_eval_many_rejects_bad_shapes():
    for shape in ((2, 2), (3, 2, 3), (2, 0, 0), (1, 2, 2, 2), (3,)):
        with pytest.raises(DimensionMismatchError):
            mnorm_eval_many(MaxColSum(), np.ones(shape))
    for spec in _STACK_SPECS:
        assert mnorm_eval_many(spec, np.ones((0, 3, 3))).shape == (0,)


def test_spectral_sampled_lower_bound():
    g = RandomStream(37).generator()
    for n in (2, 3):
        for _ in range(10):
            m = sample_matrix(g, n)
            s = mnorm_eval(Spectral(), m)
            best = 0.0
            for _ in range(400):
                x = sample_vector(g, n)
                best = max(best, float(np.linalg.norm(m @ x) / np.linalg.norm(x)))
            assert best <= s * (1 + 1e-9)
            assert best >= 0.8 * s


def test_scaled_and_maxof():
    assert mnorm_eval(Scaled(2.0, EntrywiseMax()), A) == pytest.approx(8.0)
    spec = MaxOf((MaxColSum(), MaxRowSum()))
    assert mnorm_eval(spec, A) == pytest.approx(7.0)


def test_gind_spec_delegates():
    got = mnorm_eval(GInd(Lp(1), Lp(math.inf)), A)
    assert got == pytest.approx(4.0, rel=1e-9)  # entrywise max recovered


def test_submultiplicativity_catalog():
    specs = [
        EntrywiseSum(),
        MaxColSum(),
        MaxRowSum(),
        Spectral(),
        MaxOf((MaxColSum(), MaxRowSum())),
    ]
    g = RandomStream(41).generator()
    pairs = [(sample_matrix(g, 2), sample_matrix(g, 2)) for _ in range(10_000)]
    for spec in specs:
        for a, b in pairs:
            lhs = mnorm_eval(spec, a @ b)
            rhs = mnorm_eval(spec, a) * mnorm_eval(spec, b)
            assert lhs <= rhs * (1 + 1e-9)


def test_entrywise_max_violation_exists():
    j = np.ones((2, 2))
    assert mnorm_eval(EntrywiseMax(), j @ j) == pytest.approx(2.0)
    assert mnorm_eval(EntrywiseMax(), j) ** 2 == pytest.approx(1.0)


def test_entrywise_vs_aggregate_chain():
    g = RandomStream(43).generator()
    for n in (2, 3, 4):
        for _ in range(200):
            m = sample_matrix(g, n)
            em = mnorm_eval(EntrywiseMax(), m)
            es = mnorm_eval(EntrywiseSum(), m)
            for agg in (MaxColSum(), MaxRowSum()):
                v = mnorm_eval(agg, m)
                assert em <= v * (1 + 1e-12)
                assert v <= es * (1 + 1e-12)


def test_algebra_classification_catalog():
    assert mnorm_is_algebra_candidate(EntrywiseSum()) == KNOWN_YES
    assert mnorm_is_algebra_candidate(EntrywiseMax()) == KNOWN_NO
    assert mnorm_is_algebra_candidate(MaxColSum()) == KNOWN_YES
    assert mnorm_is_algebra_candidate(MaxRowSum()) == KNOWN_YES
    assert mnorm_is_algebra_candidate(Spectral()) == KNOWN_YES
    assert mnorm_is_algebra_candidate(MaxOf((MaxColSum(), MaxRowSum()))) == KNOWN_YES


def test_algebra_classification_gind():
    assert mnorm_is_algebra_candidate(GInd(Lp(math.inf), Lp(1))) == KNOWN_YES
    assert mnorm_is_algebra_candidate(GInd(Lp(1), Lp(math.inf))) == KNOWN_NO
    assert mnorm_is_algebra_candidate(GInd(Lp(2), Lp(2))) == KNOWN_YES


def test_algebra_classification_scaled():
    assert mnorm_is_algebra_candidate(Scaled(2.0, MaxColSum())) == KNOWN_YES
    assert mnorm_is_algebra_candidate(Scaled(0.5, MaxColSum())) == UNKNOWN


def test_matrix_norm_axioms_sampled():
    specs = [
        EntrywiseSum(),
        EntrywiseMax(),
        MaxColSum(),
        MaxRowSum(),
        Spectral(),
        Scaled(1.5, MaxColSum()),
        MaxOf((MaxColSum(), MaxRowSum())),
    ]
    g = RandomStream(47).generator()
    for n in (2, 3):
        for spec in specs:
            assert mnorm_eval(spec, np.zeros((n, n))) == 0.0
            for _ in range(60):
                x, y = sample_matrix(g, n), sample_matrix(g, n)
                a = complex(g.standard_normal(), g.standard_normal())
                vx, vy = mnorm_eval(spec, x), mnorm_eval(spec, y)
                assert vx > 0
                hom = abs(mnorm_eval(spec, a * x) - abs(a) * vx)
                assert hom <= 1e-9 * max(1.0, abs(a) * vx)
                tri = mnorm_eval(spec, x + y) - vx - vy
                assert tri <= 1e-9 * max(1.0, vx + vy)

"""Complex vectors and matrices, top eigenpairs, and seeded randomness.

Vectors and matrices are plain ``numpy`` arrays with dtype ``complex128``;
the helpers here validate shapes and keep every random draw reproducible.
Top eigenpairs come from one dense LAPACK solve, phase-aligned to a seeded
start vector so that they do not depend on LAPACK's phase convention.  The
solve takes a stack of matrices, and a lone matrix is a stack of one; top
eigenvalues alone come from the same solve, without the eigenvectors.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonConvergenceError, NonFiniteInputError


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-d complex vector of dimension >= 1."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    return v


# a modulus at or below 2^-1024 has no finite reciprocal
_NO_RECIPROCAL = 2.0 ** -1024


def phase_divisors(
    z: np.ndarray, nonzero: np.ndarray, mods: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(z', s) with z' / s the phase z / |z| of every nonzero entry of z, and
    s = 1 elsewhere; ``mods`` is |z| and ``nonzero`` the mask mods > 0.
    Both are z and |z| as they stand, except at an entry whose modulus has
    no finite reciprocal: that entry is scaled by 2^600, exactly, and s is
    the modulus of the scaled entry."""
    safe = np.where(nonzero, mods, 1.0)
    if safe.min(initial=1.0) > _NO_RECIPROCAL:
        return z, safe
    # only those entries are scaled, so that a large entry beside them cannot
    # overflow
    small = safe <= _NO_RECIPROCAL
    z = z.copy()
    z[small] *= 2.0 ** 600
    return z, np.where(nonzero, np.abs(z), 1.0)


def conj_phases(z: np.ndarray) -> np.ndarray:
    """conj(z_j) / |z_j| entrywise for a complex array, and 1 where z_j = 0:
    the unimodular w with w_j z_j = |z_j| (:func:`phase_divisors`)."""
    mods = np.abs(z)
    nonzero = mods > 0
    z, safe = phase_divisors(z, nonzero, mods)
    return np.where(nonzero, np.conj(z) / safe, 1.0)


def power_of_two_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x / 2^e, e) for a real or complex array x, with 2^e the smallest power
    of two above every real and imaginary part (e = 0 for a zero x and for
    an x with an inf or NaN entry).  The scaling is exact, and the scaled
    parts lie below 1, so its products and sums of squares neither overflow
    nor, for the largest part, underflow."""
    parts = np.ascontiguousarray(x).view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1]
    return np.ldexp(parts, -e).view(x.dtype), e


@np.errstate(over="ignore", invalid="ignore")
def row_vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """vdot(a_i, b_i) for every row of two (k, n) complex arrays, as one
    stacked row-times-column product.  It reproduces vdot's rounding
    wherever the result is finite; where a product overflows it gives inf or
    NaN, without a warning, and may read NaN where vdot reads inf."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def as_rows(x) -> np.ndarray:
    """Coerce to a 2-d complex array of vectors of dimension >= 1, one per row."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] < 1:
        raise DimensionMismatchError(f"expected a 2-d array of vectors, got shape {v.shape}")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce to a square 2-d complex matrix of dimension >= 1."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def mat_apply(a, x) -> np.ndarray:
    """Matrix-vector product with dimension checking."""
    m = as_matrix(a)
    v = as_vector(x)
    if m.shape[1] != v.shape[0]:
        raise DimensionMismatchError(
            f"cannot apply {m.shape} matrix to length-{v.shape[0]} vector"
        )
    return m @ v


@dataclass(frozen=True)
class RandomStream:
    """Deterministic random source addressed by (seed, path).

    Identical (seed, path) pairs produce identical draws on every platform.
    Concurrent tasks must never share one stream; derive a child per task
    with :meth:`child` instead.
    """

    seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "RandomStream":
        """Independent substream number ``index``."""
        return RandomStream(self.seed, self.path + (int(index),))

    def derive_seed(self) -> int:
        """64-bit integer usable as the seed of a nested budget."""
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return int(seq.generate_state(1, np.uint64)[0])


_SQRT2 = np.sqrt(2.0)


def complex_normals(parts: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians from real standard normals: ``parts[0]``
    holds the real parts and ``parts[1]`` the imaginary ones."""
    return (parts[0] + 1j * parts[1]) / _SQRT2


def check_sizes(n: int, count: int, least: int = 0) -> None:
    """Raise :class:`DimensionMismatchError` unless the dimension n >= 1 and
    the count, of samples or of trials, is at least ``least``."""
    if n < 1 or count < least:
        raise DimensionMismatchError(f"need n >= 1 and count >= {least}, got {n} and {count}")


def sample_vectors(g: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` standard complex Gaussian vectors of C^n as the rows of a
    (count, n) array, from one draw: each vector's real parts, then its
    imaginary parts, with the bits and the stream state of drawing each part
    of each vector in its own call."""
    check_sizes(n, count)
    return complex_normals(g.standard_normal((count, 2, n)).swapaxes(0, 1))


def sample_matrices(g: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` matrices with independent standard complex Gaussian entries
    as a (count, n, n) stack, from one draw, laid out as in
    :func:`sample_vectors`."""
    check_sizes(n, count)
    return complex_normals(g.standard_normal((count, 2, n, n)).swapaxes(0, 1))


def sample_vector(g: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussian vector: the one row of
    :func:`sample_vectors`."""
    return sample_vectors(g, n, 1)[0]


def sample_matrix(g: np.random.Generator, n: int) -> np.ndarray:
    """Matrix with independent standard complex Gaussian entries: the one
    matrix of :func:`sample_matrices`."""
    return sample_matrices(g, n, 1)[0]


@dataclass
class EigResult:
    """Largest eigenpair of a Hermitian PSD matrix.

    ``residual`` is ||H v - lambda v||_2 at the returned pair; ``iterations``
    is always 1 (one dense solve).
    """

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float


_HERMITIAN_TOL = 1e-12
# eigenvalues within this distance (relative to ||H||_2) of the top one span
# the top eigenspace
_TOP_CLUSTER = 1e-12

_START_CACHE: dict = {}


def scaled_grams(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B_i*B_i, e_i) for every matrix A_i of a (k, n, n) complex stack, as
    a stack of Gram matrices and an integer array: B_i = A_i / 2^e_i, so
    that A_i*A_i = 4^e_i B_i*B_i, where 2^e_i is the smallest power of two
    above every real and imaginary part of A_i (e_i = 0 for a zero matrix).
    Raises :class:`NonFiniteInputError` when any matrix has a non-finite
    entry, before forming any product; a lone matrix is a stack of one.

    B_i's parts lie below 1, so B_i*B_i cannot overflow where A_i*A_i
    would.  Scaling by a power of two is exact: wherever A_i*A_i neither
    overflows nor underflows, B_i*B_i is A_i*A_i / 4^e_i bit for bit.
    """
    parts = np.ascontiguousarray(stack).view(np.float64)
    peaks = np.abs(parts).max(axis=(1, 2))
    if not np.isfinite(peaks).all():
        raise NonFiniteInputError("eigen solve needs a finite matrix")
    e = np.frexp(peaks)[1]
    b = np.ldexp(parts, -e[:, None, None]).view(np.complex128)
    return b.conj().transpose(0, 2, 1) @ b, e


def _start_vector(rng: RandomStream, n: int) -> np.ndarray:
    """Deterministic unit start vector for (stream, n); cached, never mutated."""
    key = (rng.seed, rng.path, n)
    v = _START_CACHE.get(key)
    if v is None:
        g = rng.generator()
        v = sample_vector(g, n)
        v = v / np.sqrt(np.vdot(v, v).real)
        _START_CACHE[key] = v
    return v


def _eigh(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of every matrix of a (k, n, n) stack, the
    eigenvalues ascending, from one dense LAPACK solve (``np.linalg.eigh``),
    which reads one triangle of each matrix.  Raises
    :class:`NonFiniteInputError` when a matrix has a non-finite entry and
    :class:`NonConvergenceError` when the solve fails."""
    if not np.isfinite(hs).all():
        raise NonFiniteInputError("eigen solve needs a finite matrix")
    try:
        return np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigen solve failed: {exc}") from exc


def hermitian_top_eigenvalues(hs: np.ndarray) -> np.ndarray:
    """max(lambda_top, 0) of every matrix of a (k, n, n) stack of Gram
    matrices, without an eigenvector: the bits of
    ``hermitian_top_eig(h).eigenvalue`` for each, from one stacked solve;
    a zero matrix reads 0.0.  It does not check that H is Hermitian, and
    raises as :func:`hermitian_top_eig` does when a matrix has a non-finite
    entry or the solve fails.
    """
    # LAPACK solves each matrix on its own, so a zero one leaves the others' bits
    lams = np.where(hs.any(axis=(1, 2)), _eigh(hs)[0][:, -1], 0.0)
    return np.where(lams < 0.0, 0.0, lams)  # max(lam, 0.0), NaN and -0.0 kept


def _top_projection(start: np.ndarray, lams: list[float], vecs: np.ndarray) -> np.ndarray:
    """The unit projection of ``start`` onto the top eigenspace of a solve's
    ascending eigenvalues and eigenvectors: spanned by every eigenvector
    whose eigenvalue lies within 1e-12 ||H||_2 of the largest."""
    lam = lams[-1]
    top = vecs[:, bisect.bisect_left(lams, lam - _TOP_CLUSTER * max(lam, -lams[0])):]
    coeffs = start.dot(top.conj())
    weight = math.sqrt(np.vdot(coeffs, coeffs).real)
    return top.dot(coeffs / weight) if weight > 0.0 else vecs[:, -1]


def hermitian_top_eigenvectors(hs: np.ndarray, rng: RandomStream = RandomStream(0)) -> np.ndarray:
    """The eigenvector of :func:`hermitian_top_eig` for every matrix of a
    (k, n, n) stack of Gram matrices, bit for bit, as the rows of a (k, n)
    array, from one stacked solve; a zero matrix gets the start vector.
    Like :func:`hermitian_top_eigenvalues` it does not check that H is
    Hermitian, and it raises as that does.  Each projection onto a top
    eigenspace is :func:`hermitian_top_eig`'s, matrix by matrix: at a few
    matrices a stack it costs less than the array operations that would
    serve it.
    """
    start = _start_vector(rng, hs.shape[1])
    lams, vecs = _eigh(hs)
    out = np.empty(hs.shape[:2], dtype=np.complex128)
    # hermitian_top_eig does not solve a zero matrix
    for i, (live, row) in enumerate(zip(hs.any(axis=(1, 2)).tolist(), lams.tolist())):
        out[i] = _top_projection(start, row, vecs[i]) if live else start
    return out


def hermitian_top_eig(h, rng: RandomStream = RandomStream(0)) -> EigResult:
    """Largest eigenpair of a Hermitian PSD matrix by one dense solve.

    The caller supplies H = A*A (or any Hermitian PSD matrix).  The
    eigenvalues come from LAPACK (``np.linalg.eigh``); the zero matrix is
    not solved, its eigenvalue is 0.0 and its eigenvector the start vector.
    The eigenvector is the unit projection of the start vector of ``rng``
    onto the top eigenspace, spanned by every eigenvector whose eigenvalue
    lies within 1e-12 ||H||_2 of the largest, so the pair does not depend on
    LAPACK's phase convention and ``vdot(start, v)`` is real and positive.
    Its one caller is the power method's spectral seed in
    :mod:`normlab.gind`; the l2 -> l2 closed form takes the eigenvectors of
    a stack (:func:`hermitian_top_eigenvectors`) and a spectral norm value
    the eigenvalues (:func:`hermitian_top_eigenvalues`).

    Raises :class:`NonFiniteInputError` when H has a non-finite entry and
    :class:`NonConvergenceError` when the solve fails, and rejects matrices
    whose Hermitian deviation exceeds 1e-12 relative.
    """
    m = as_matrix(h)
    live = bool(m.any())
    if live:
        lams, vecs = _eigh(m[None])
    deviation = float(np.abs(m - m.conj().T).max())
    if deviation > _HERMITIAN_TOL * max(1.0, float(np.abs(m).max())):
        raise DimensionMismatchError(
            f"matrix is not Hermitian: deviation {deviation:.3e}"
        )
    start = _start_vector(rng, m.shape[0])
    if not live:
        return EigResult(0.0, start, 1, 0.0)
    lams = lams[0].tolist()
    lam = lams[-1]
    v = _top_projection(start, lams, vecs[0])
    r = m.dot(v) - lam * v
    return EigResult(max(lam, 0.0), v, 1, math.sqrt(np.vdot(r, r).real))

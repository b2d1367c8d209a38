"""Recover the two vector norms hiding inside a matrix norm.

Given a matrix norm N, the column-replication matrix C_x (every column
equal to x) yields ``||x||_2 = N(C_x)`` and
``||x||_1 = max{ N(C_{Ax}) : N(A) = 1 }``.  Role 2 is one evaluation of N,
exact wherever N's value is: for every source but a GInd whose value
:func:`~normlab.gind.gind_eval` climbs for (a MaxOf domain with a smooth
part), where it is a lower bound.  :func:`extract_pair` returns
the two as ``GInd(||.||_1, ||.||_2)``, the induced norm that the paper's
theorem says equals N when N is minimal.  For the catalog sources and GInd
sources with an l_p, weighted l_p or polyhedral domain (under any
``Scaled``) role 1 is exact, from the table of
:func:`~normlab.gind.concrete`; for every other source it comes from
matrix-sphere maximization and is a lower bound.

Evaluating that induced norm and comparing it to N probes whether N can sit
strictly above an induced norm.  The reconstruction is exact for Spectral,
EntrywiseMax and MaxColSum sources (their pairs are plain l_p norms with an
exact route in :func:`~normlab.gind.gind_eval`), and the pair of a GInd
source in the table is its own up to a common scale, so the reconstruction
runs the source's own computation; elsewhere it comes from numerical
maximization and can fall short, so a gap flags possible non-minimality
without certifying it, and its absence is evidence only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .budget import OptBudget
from .core import (
    RandomStream, as_rows, as_vector, check_sizes, conj_phases, power_of_two_scaled, sample_matrices
)
from .errors import DimensionMismatchError
from .gind import concrete, concrete_pair, gind_eval_many, sum_functional_alpha
from .matrix_norms import GInd, MatrixNormSpec, mnorm_eval, mnorm_eval_many
from .sphere_opt import maximize_on_matrix_sphere
from .vector_norms import Extracted, vnorm_eval_many

# budget of the role-1 matrix-sphere climb that non-catalog sources run for
# every point they are evaluated at, hence much smaller than an outer budget
DEFAULT_INNER_BUDGET = OptBudget(multistarts=2, max_iters=40, samples=6, seed=2024)


def column_embed(x, j: int) -> np.ndarray:
    """Matrix with x in column j (0-based) and zeros elsewhere."""
    v = as_vector(x)
    n = v.size
    if not 0 <= j < n:
        raise DimensionMismatchError(f"column index {j} out of range for dimension {n}")
    m = np.zeros((n, n), dtype=np.complex128)
    m[:, j] = v
    return m


def column_replicate(x) -> np.ndarray:
    """Matrix whose every column is x; equals the sum of all column embeddings."""
    v = as_vector(x)
    return np.repeat(v[:, None], v.size, axis=1)


def eval_role2(source: MatrixNormSpec, budget: OptBudget, x) -> float:
    """N(C_x), one :func:`~normlab.matrix_norms.mnorm_eval` at the given
    budget: exact wherever N's value is, so for every source but a GInd
    whose value :func:`~normlab.gind.gind_eval` climbs for (a MaxOf domain
    with a smooth part), where it is a lower bound."""
    return mnorm_eval(source, column_replicate(x), budget)


def eval_role2_many(source: MatrixNormSpec, budget: OptBudget, points) -> np.ndarray:
    """:func:`eval_role2` at every row of a 2-d array, bit for bit: N over
    the stack of the C_x (:func:`~normlab.matrix_norms.mnorm_eval_many`)."""
    v = as_rows(points)
    return mnorm_eval_many(source, np.repeat(v[:, :, None], v.shape[1], axis=2), budget)


_ROLE1_CACHE: dict = {}


def clear_role1_cache() -> None:
    _ROLE1_CACHE.clear()


def eval_role1(source: MatrixNormSpec, budget: OptBudget, x) -> float:
    """max{ N(C_{Ax}) : N(A) = 1 }: the one row of :func:`eval_role1_many`."""
    return float(eval_role1_many(source, budget, as_vector(x)[None])[0])


def eval_role1_many(source: MatrixNormSpec, budget: OptBudget, points) -> np.ndarray:
    """max{ N(C_{Ax}) : N(A) = 1 } at every row of a 2-d array, 0.0 at a
    zero row.  Exact for the catalog sources and GInd sources with an l_p,
    weighted l_p or polyhedral domain, under any ``Scaled``: the table of
    :func:`~normlab.gind.concrete` is read once, and the plain norm it gives
    is evaluated at every row in one call, without the cache or the climb.
    Every other source takes :func:`_role1_ascent` row by row, a lower bound
    at the given budget."""
    v = as_rows(points)
    spec = concrete(extract_norm1(source, budget), v.shape[1])
    live = v.any(axis=1)
    if isinstance(spec, Extracted):
        role1 = [_role1_ascent(source, budget, x) if on else 0.0 for x, on in zip(v, live.tolist())]
        return np.array(role1, dtype=np.float64)
    return np.where(live, vnorm_eval_many(spec, v), 0.0)


def _role1_ascent(source: MatrixNormSpec, budget: OptBudget, v: np.ndarray) -> float:
    """Role 1 of any source by matrix-sphere maximization, a lower bound.

    Results are cached by (source, budget, the bytes of x): the minimality
    probe revisits the same points many times, and only the very same x may
    reuse a value, since a nearby x can have a smaller role-1 norm.  Cached
    values are deterministic, so concurrent last-writer-wins insertion is
    benign.
    """
    n = v.size
    key = (source, budget, v.tobytes())
    hit = _ROLE1_CACHE.get(key)
    if hit is not None:
        return hit

    aligned_rows = np.tile(conj_phases(v), (n, 1))
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if norm < sys.float_info.min or not math.isfinite(norm):
        # the sum of squares of a tiny or huge x under- or overflowed
        scaled = power_of_two_scaled(v)[0]
        unit = scaled / np.linalg.norm(scaled)
    else:
        unit = v / norm
    informed = [
        np.ones((n, n), dtype=np.complex128),
        aligned_rows,  # every row conj-phased to x: sends x to l1(x) * ones
        np.outer(unit, unit.conj()),
    ]
    res = maximize_on_matrix_sphere(
        lambda b: mnorm_eval(source, column_replicate(b @ v), budget),
        source,
        n,
        budget,
        objective_convex=True,
        # N(C_{(aB)x}) = |a| N(C_{Bx}): source is a norm descriptor validated at construction
        objective_homogeneous=True,
        extra_seeds=informed,
    )
    _ROLE1_CACHE[key] = res.value
    return res.value


def extract_norm2(source: MatrixNormSpec, budget: OptBudget | None = None) -> Extracted:
    """Vector norm x -> N(C_x)."""
    return Extracted(role=2, source=source, budget=budget or DEFAULT_INNER_BUDGET)


def extract_norm1(source: MatrixNormSpec, budget: OptBudget | None = None) -> Extracted:
    """Vector norm x -> max{ N(C_{Ax}) : N(A) = 1 } (exact for the catalog,
    a lower bound elsewhere; see :func:`eval_role1`)."""
    return Extracted(role=1, source=source, budget=budget or DEFAULT_INNER_BUDGET)


def extract_pair(source: MatrixNormSpec, budget: OptBudget | None = None) -> GInd:
    """The pair of vector norms hiding inside N, as the induced norm they
    define: GInd(:func:`extract_norm1`, :func:`extract_norm2`), both at
    ``budget`` (default :data:`DEFAULT_INNER_BUDGET`).  For a minimal N that
    induced norm is N itself."""
    return GInd(extract_norm1(source, budget), extract_norm2(source, budget))


@dataclass
class AlphaIdentityReport:
    """Both sides of ||C_x||_{1,2} = alpha * ||x||_2 and the verdict."""

    lhs: float
    rhs: float
    holds: bool


_ALPHA_TOL = 1e-6


def alpha_identity_check(
    pair: GInd, x, budget: OptBudget | None = None
) -> AlphaIdentityReport:
    """Check the column-replication identity for a norm pair at x: the one
    report of :func:`alpha_identity_checks`."""
    return alpha_identity_checks(pair, as_vector(x)[None], budget)[0]


def alpha_identity_checks(
    pair: GInd, points, budget: OptBudget | None = None
) -> list[AlphaIdentityReport]:
    """Check the column-replication identity for a norm pair at every row x
    of a 2-d array.  lhs applies the induced norm to C_x, over the stack of
    every row's C_x in one :func:`~normlab.gind.gind_eval_many`; rhs
    multiplies the sum-functional constant of the domain norm, taken once,
    by the codomain norm of x."""
    v = as_rows(points)
    found = gind_eval_many(pair, np.repeat(v[:, :, None], v.shape[1], axis=2), budget)
    alpha = sum_functional_alpha(pair.norm1, v.shape[1], budget)
    reports = []
    for res, rhs in zip(found, (alpha * vnorm_eval_many(pair.norm2, v)).tolist()):
        holds = abs(res.value - rhs) <= _ALPHA_TOL * max(res.value, rhs) + 1e-12
        reports.append(AlphaIdentityReport(lhs=res.value, rhs=rhs, holds=holds))
    return reports


GAP_FOUND = "gap_found"
NO_GAP_FOUND = "no_gap_found"
_GAP_THRESHOLD = 1e-4
_WITNESS_TIE = 1e-12


@dataclass
class ProbeReport:
    """Minimality probe outcome.

    ``max_gap_ratio`` is the minimum of reconstruction/N over all tested
    matrices; a value below 1 - 1e-4 (``gap_found``) flags that N may sit
    strictly above the induced norm built from its own extracted pair, i.e.
    that N may not be minimal.  For Spectral, EntrywiseMax and MaxColSum
    sources the reconstruction is exact and runs no ascent, and for a GInd
    source with an l_p, weighted l_p or polyhedral domain it is the very
    computation that evaluates N, up to a common scale.  EntrywiseSum,
    MaxRowSum and max(MaxColSum, MaxRowSum) reconstruct through the
    deterministic polydisc search, which finds the maximum to 1e-9 relative
    but reports no upper bound; every other source's reconstruction is
    computed by an ascent.  A reconstruction that falls short drives the
    ratio below its true value, so neither verdict is a proof.  The witness
    is the first probe whose ratio lies within 1e-12 (relative) of the
    minimum, so rounding noise among equal ratios never picks it.
    """

    max_gap_ratio: float
    witness: np.ndarray
    trials: int
    verdict: str


def _fixed_probes(n: int) -> list[np.ndarray]:
    """The deterministic probes: identity, single entries, ones, and two
    classic rank/phase witnesses padded to size."""
    mats: list[np.ndarray] = [np.eye(n, dtype=np.complex128)]
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            mats.append(e)
    mats.append(np.ones((n, n), dtype=np.complex128))
    for block in ([[1, 1], [1, -1]], [[1, 0], [1, 0]]):
        m = np.zeros((n, n), dtype=np.complex128)
        if n >= 2:
            m[:2, :2] = np.asarray(block, dtype=np.complex128)
        else:
            m[0, 0] = 1.0
        mats.append(m)
    return mats


def _random_probes(n: int, trials: int, rng: RandomStream) -> list[np.ndarray]:
    """``trials`` complex Gaussian matrices drawn from ``rng`` in one call."""
    return list(sample_matrices(rng.generator(), n, trials))


def _probe_ratios(source, pair, mats, outer, inner) -> list[tuple[float, np.ndarray]]:
    """(reconstruction / N, A) for every probe A with N(A) >= 1e-14, in order;
    N at every probe in one :func:`~normlab.matrix_norms.mnorm_eval_many`,
    and the reconstruction at the kept ones in one
    :func:`~normlab.gind.gind_eval_many`."""
    dens = mnorm_eval_many(source, mats, inner).tolist()
    kept = [(m, den) for m, den in zip(mats, dens) if den >= 1e-14]
    if not kept:
        return []
    found = gind_eval_many(pair, [m for m, _ in kept], outer)
    return [(res.value / den, m) for (m, den), res in zip(kept, found)]


def minimality_probe(
    source: MatrixNormSpec,
    n: int,
    trials: int,
    budget: OptBudget | None = None,
    rng: RandomStream = RandomStream(0),
    inner_budget: OptBudget | None = None,
) -> ProbeReport:
    """Search for a matrix where the reconstructed induced norm drops below N.

    Evaluates r(A) = induced(extracted pair)(A) / N(A) on deterministic
    probes plus ``trials`` random matrices and reports the minimum ratio,
    with the lowest-index probe within 1e-12 (relative) of it as witness.
    """
    check_sizes(n, trials, 1)
    inner = inner_budget or DEFAULT_INNER_BUDGET
    # resolved once here, where gind_eval would resolve it for every matrix
    pair = concrete_pair(extract_pair(source, inner), n)
    mats = _fixed_probes(n) + _random_probes(n, trials, rng.child(3))
    return _probe_report(_probe_ratios(source, pair, mats, budget, inner))


def _probe_report(ratios: list[tuple[float, np.ndarray]]) -> ProbeReport:
    """The minimum ratio, its witness and the verdict."""
    best_ratio = min((ratio for ratio, _ in ratios), default=np.inf)
    near = best_ratio + _WITNESS_TIE * abs(best_ratio)
    best_witness = next((m for ratio, m in ratios if ratio <= near), None)
    verdict = GAP_FOUND if best_ratio < 1.0 - _GAP_THRESHOLD else NO_GAP_FOUND
    return ProbeReport(
        max_gap_ratio=float(best_ratio),
        witness=best_witness,
        trials=len(ratios),
        verdict=verdict,
    )

"""Declarative vector norms on C^n.

A norm is described by a small immutable tree (:class:`Lp`, :class:`Scaled`,
:class:`MaxOf`, :class:`WeightedLp`, :class:`Extracted`) and evaluated at
every row of an array by :func:`vnorm_eval_many`, of which :func:`vnorm_eval`
is the one-row case.  Keeping the descriptors a closed datatype lets the
optimizers dispatch on structure and lets documents round-trip exactly.

:class:`Scaled` and :class:`MaxOf` are structural combinators: the family
(vector or matrix) is decided by the leaves they wrap.

Descriptors built from Lp and WeightedLp under Scaled and MaxOf
(:func:`has_batch_form`) also have :func:`norming_functionals_many`, each
row's value and unit norming functional in one pass, which the power method
in ``gind`` steps on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .budget import OptBudget
from .core import as_rows, as_vector, phase_divisors, power_of_two_scaled, row_vdots
from .errors import DimensionMismatchError, SpecValidationError

if TYPE_CHECKING:  # matrix_norms imports this module; annotation only
    from .matrix_norms import MatrixNormSpec


@dataclass(frozen=True)
class Lp:
    """The l_p norm, 1 <= p <= inf."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise SpecValidationError(f"lp exponent must satisfy p >= 1, got {self.p}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class WeightedLp:
    """l_p norm of the entrywise-weighted vector (w_i x_i)."""

    weights: tuple[float, ...]
    p: float

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if not w or any(v <= 0 or not math.isfinite(v) for v in w):
            raise SpecValidationError("weights must be a nonempty tuple of positive reals")
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise SpecValidationError(f"lp exponent must satisfy p >= 1, got {self.p}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Scaled:
    """gamma times an inner norm, gamma > 0."""

    gamma: float
    inner: "NormSpec"

    def __post_init__(self):
        g = float(self.gamma)
        if not math.isfinite(g) or g <= 0:
            raise SpecValidationError(f"scale gamma must be positive, got {self.gamma}")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class MaxOf:
    """Pointwise maximum of a nonempty list of norms."""

    parts: tuple["NormSpec", ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise SpecValidationError("maxof needs at least one inner norm")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Extracted:
    """Vector norm recovered from a matrix norm N.

    role 2 evaluates N on the matrix whose every column is x, exact
    wherever N's value is (a GInd source whose value ``gind_eval`` climbs
    for, with a MaxOf domain with a smooth part, gives a lower bound), and
    :func:`vnorm_eval_many` takes N once over the stack of those matrices;
    role 1 evaluates sup{ N(C_{Ax}) : N(A) = 1 }.  For the catalog sources
    (EntrywiseSum, EntrywiseMax, MaxColSum, MaxRowSum, Spectral,
    max(MaxColSum, MaxRowSum)) and GInd sources with an l_p, weighted l_p
    or polyhedral domain, each under any Scaled, both roles equal plain
    descriptors at each dimension (:func:`normlab.gind.concrete`), so role 1
    is exact, :func:`vnorm_eval_many` evaluates the plain descriptor over
    all its rows, and ``gind_eval`` dispatches on the plain descriptors in
    their place.  For every other source role 1 comes from matrix-sphere
    maximization, one point at a time, a lower bound at the stored budget.
    ``extract_pair`` returns both roles of one source as a ``GInd``.
    """

    role: int
    source: "MatrixNormSpec"
    budget: OptBudget

    def __post_init__(self):
        if self.role not in (1, 2):
            raise SpecValidationError(f"extracted role must be 1 or 2, got {self.role}")


VectorNormSpec = Union[Lp, WeightedLp, Scaled, MaxOf, Extracted]

NormSpec = Union[VectorNormSpec, "MatrixNormSpec"]


def split_scale(spec):
    """Peel nested Scaled layers: returns (total gamma, core spec)."""
    gamma = 1.0
    while isinstance(spec, Scaled):
        gamma *= spec.gamma
        spec = spec.inner
    return gamma, spec


# the sums of squares whose square root is the l2 norm as they stand: the
# normal finite ones
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def _vdot_squares(v: np.ndarray) -> float:
    return np.vdot(v, v).real


@np.errstate(over="ignore")  # an overflowing sum is taken again, scaled
def _squares(m: np.ndarray):
    """The sum of squares of a vector of moduli, or of each row of an array."""
    return np.sum(m * m, axis=-1)


def _root_of_squares(x: np.ndarray, squares) -> float:
    """The l2 norm sqrt(squares(x)) of a 1-d array x.  Where that sum of
    squares is not a normal finite number, it is taken again of x / 2^e,
    with 2^e the smallest power of two above every real and imaginary part
    (:func:`~normlab.core.power_of_two_scaled`), and the root scaled back.  So a
    finite x neither overflows nor underflows, every normal sum keeps its
    bits, and an x with an inf or NaN entry (e = 0) keeps its plain value."""
    sq = squares(x)
    if _TINY <= sq <= _HUGE:
        return math.sqrt(sq)
    scaled, e = power_of_two_scaled(x)
    root = math.sqrt(squares(scaled))
    try:
        return math.ldexp(root, e)
    except OverflowError:  # the norm is above the largest float
        return math.inf


def _roots_of_squares(sq: np.ndarray, rows: np.ndarray, squares) -> np.ndarray:
    """Row-wise :func:`_root_of_squares`, given each row's sum of squares;
    only the rows whose sum is not normal and finite are taken again."""
    roots = np.sqrt(sq)
    if not (_TINY <= sq.min(initial=_HUGE) and sq.max(initial=_TINY) <= _HUGE):
        for i in np.flatnonzero(~((sq >= _TINY) & (sq <= _HUGE))):
            roots[i] = _root_of_squares(rows[i], squares)
    return roots


def lp_of_moduli(m: np.ndarray, p: float) -> np.ndarray:
    """The l_p norm of every row of a 2-d array of moduli."""
    if p == math.inf:
        return m.max(axis=1)
    if p == 1.0:
        return m.sum(axis=1)
    if p == 2.0:
        return _roots_of_squares(_squares(m), m, _squares)
    # scale out the peak so m**p cannot overflow for large p
    peak = m.max(axis=1)
    live = peak != 0.0  # NaN peaks stay live and propagate
    safe = np.where(live, peak, 1.0)[:, None]
    sums = ((m / safe) ** p).sum(axis=1)
    # the root of a Python float is libm's pow, cheaper than numpy's array
    # power, which can differ from it in the last bit
    root = np.array([s ** (1.0 / p) for s in sums.tolist()])
    return np.where(live, peak * root, 0.0)


def vnorm_eval(spec: VectorNormSpec, x) -> float:
    """Evaluate a vector norm descriptor at x: :func:`vnorm_eval_many` of
    the one-row array of x, which raises what it raises."""
    return float(vnorm_eval_many(spec, as_vector(x)[None])[0])


def has_batch_form(spec) -> bool:
    """True for Lp and WeightedLp under any tree of Scaled and MaxOf: the
    descriptors that have norming functionals
    (:func:`norming_functionals_many`) and are monotone in the moduli, which
    the power method and the polyhedral route of ``gind`` need.  False
    wherever an Extracted leaf sits."""
    if isinstance(spec, (Lp, WeightedLp)):
        return True
    if isinstance(spec, Scaled):
        return has_batch_form(spec.inner)
    if isinstance(spec, MaxOf):
        return all(map(has_batch_form, spec.parts))
    return False


def vnorm_eval_many(spec: VectorNormSpec, rows) -> np.ndarray:
    """Evaluate a vector norm descriptor at every row of a 2-d array.

    Exact for every kind except an Extracted norm that climbs: role 1 of a
    source off :func:`normlab.gind.concrete`'s table, and role 2 of a source
    whose own value climbs (a GInd with a MaxOf domain with a smooth part).
    Those report the lower bound produced by the stored optimization budget.
    Scaled and MaxOf recurse, MaxOf keeping the first part that attains the
    max.  Role 2 of an Extracted norm is N over the stack of every row's
    C_x (:func:`~normlab.extraction.eval_role2_many`), and role 1 reads
    :func:`normlab.gind.concrete`'s table once for the array
    (:func:`~normlab.extraction.eval_role1_many`), both through this
    function's import of ``extraction``.
    """
    v = as_rows(rows)
    if isinstance(spec, Lp):
        if spec.p == 2.0:
            # row_vdots reproduces vdot's rounding where its sum is normal and
            # finite; the other rows, which take vdot again, include those
            # where it gives NaN and vdot inf
            return _roots_of_squares(row_vdots(v, v).real, v, _vdot_squares)
        return lp_of_moduli(np.abs(v), spec.p)
    if isinstance(spec, WeightedLp):
        if len(spec.weights) != v.shape[1]:
            raise DimensionMismatchError(
                f"weighted norm has {len(spec.weights)} weights, vector has {v.shape[1]}"
            )
        return lp_of_moduli(np.abs(v) * np.asarray(spec.weights), spec.p)
    if isinstance(spec, Scaled):
        return spec.gamma * vnorm_eval_many(spec.inner, v)
    if isinstance(spec, MaxOf):
        # built-in max keeps the first of equal or unordered (NaN) values
        best = vnorm_eval_many(spec.parts[0], v)
        for part in spec.parts[1:]:
            vals = vnorm_eval_many(part, v)
            best = np.where(vals > best, vals, best)
        return best
    if isinstance(spec, Extracted):
        from . import extraction  # deferred: extraction sits above this module

        if spec.role == 2:
            return extraction.eval_role2_many(spec.source, spec.budget, v)
        return extraction.eval_role1_many(spec.source, spec.budget, v)
    raise SpecValidationError(f"not a vector norm descriptor: {spec!r}")


def _lp_functionals(v: np.ndarray, w, p: float):
    """Row-wise l_p values of the weighted moduli m = w |v| and the unit
    norming functionals phase(v) f, 0 on zero entries of v; ``w`` is None
    for plain l_p.  The moduli f are w for l1, w at the first largest m for
    l-inf, and w (r/rho)^(p-1) otherwise, with r = m / max(m) and
    rho = ||r||_p."""
    mods = np.abs(v)
    m = mods if w is None else mods * w
    if p == 1.0:
        vals, f = m.sum(axis=1), (1.0 if w is None else w)
    elif p == math.inf:
        rows, first = np.arange(len(m)), m.argmax(axis=1)
        vals, f = m[rows, first], np.zeros_like(m)
        f[rows, first] = 1.0 if w is None else w[first]
    else:
        # scale out the peak, as lp_of_moduli does, so r**p cannot overflow
        peak = m.max(axis=1)
        r = m / np.where(peak > 0.0, peak, 1.0)[:, None]
        s = r ** (p - 1.0)
        total = (s * r).sum(axis=1)  # >= 1 on a nonzero row, whose peak r is 1
        rho = total ** (1.0 / p)
        vals = peak * rho
        # (r/rho)^(p-1) = s rho / total, and s = 0 on a zero row
        f = s * (rho / np.maximum(total, 1.0))[:, None]
        if w is not None:
            f *= w
    v, safe = phase_divisors(v, mods > 0.0, mods)
    return vals, v * (f / safe)


def norming_functionals_many(spec: VectorNormSpec, rows) -> tuple[np.ndarray, np.ndarray]:
    """The value N(y) and a unit norming functional u of every row y, for a
    spec with :func:`has_batch_form`: Re <u, y> = N(y) and N*(u) = 1, or
    N*(u) <= 1 under MaxOf; a zero row gets u = 0.

    For l_p with 1 < p < inf, u = phase(y) (r/rho)^(p-1), with r the
    peak-scaled moduli and rho = ||r||_p; for l1 the phases, and for l-inf the
    phase at the first largest modulus, with 0 on zero entries throughout.
    WeightedLp applies its weights inside and outside, Scaled by gamma gives
    (gamma N, gamma u) and MaxOf the pair of its first part attaining the
    max.  The values take a vectorized root, so they may differ from
    :func:`vnorm_eval_many`'s in the last few bits.
    """
    v = as_rows(rows)
    if isinstance(spec, Lp):
        return _lp_functionals(v, None, spec.p)
    if isinstance(spec, WeightedLp):
        if len(spec.weights) != v.shape[1]:
            raise DimensionMismatchError(
                f"weighted norm has {len(spec.weights)} weights, vector has {v.shape[1]}"
            )
        return _lp_functionals(v, np.asarray(spec.weights), spec.p)
    if isinstance(spec, Scaled):
        vals, u = norming_functionals_many(spec.inner, v)
        return spec.gamma * vals, spec.gamma * u
    if isinstance(spec, MaxOf):
        vals, u = norming_functionals_many(spec.parts[0], v)
        for part in spec.parts[1:]:
            part_vals, part_u = norming_functionals_many(part, v)
            above = part_vals > vals
            vals = np.where(above, part_vals, vals)
            u = np.where(above[:, None], part_u, u)
        return vals, u
    raise SpecValidationError(f"no batch form for vector norm descriptor: {spec!r}")

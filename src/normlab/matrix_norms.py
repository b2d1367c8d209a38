"""Declarative matrix norms on M_n with closed-form evaluation.

The catalog covers the entrywise sum and max, the maximum column and row
sums, the spectral norm, and generalized induced norms built from two vector
norms.  ``Scaled`` and ``MaxOf`` from :mod:`normlab.vector_norms` compose
matrix norms the same way they compose vector norms.
Whether a norm is submultiplicative is decided in :mod:`normlab.gind`,
which imports this module (:func:`~normlab.gind.mnorm_is_algebra_candidate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .budget import OptBudget
from .core import as_matrix, hermitian_top_eigenvalue, scaled_gram
from .errors import SpecValidationError
from .vector_norms import (
    Extracted,
    Lp,
    MaxOf,
    Scaled,
    VectorNormSpec,
    WeightedLp,
    has_batch_form,
    split_scale,
    vnorm_dual_eval,
)


@dataclass(frozen=True)
class EntrywiseSum:
    """sum_ij |a_ij| (an algebra norm)."""


@dataclass(frozen=True)
class EntrywiseMax:
    """max_ij |a_ij| (not an algebra norm)."""


@dataclass(frozen=True)
class MaxColSum:
    """max_j sum_i |a_ij|, the l1-induced operator norm."""


@dataclass(frozen=True)
class MaxRowSum:
    """max_i sum_j |a_ij|, the linf-induced operator norm."""


@dataclass(frozen=True)
class Spectral:
    """sqrt of the largest eigenvalue of A*A, the l2-induced operator norm."""


@dataclass(frozen=True)
class GInd:
    """Generalized induced norm max{ ||Ax||_norm2 : ||x||_norm1 = 1 }.

    The one record of the induced norm of a pair of vector norms: the matrix
    norm descriptor, what :func:`~normlab.gind.gind_eval` evaluates, and
    what :func:`~normlab.extraction.extract_pair` returns.
    """

    norm1: VectorNormSpec
    norm2: VectorNormSpec


MatrixNormSpec = Union[
    EntrywiseSum, EntrywiseMax, MaxColSum, MaxRowSum, Spectral, GInd, Scaled, MaxOf
]

def mnorm_eval(spec: MatrixNormSpec, a, budget: OptBudget | None = None) -> float:
    """Evaluate a matrix norm descriptor at A.

    Closed forms throughout the catalog; Spectral is the square root of the
    top eigenvalue of A*A from one dense Hermitian solve that computes no
    eigenvector (:func:`~normlab.core.hermitian_top_eigenvalue`), with A
    scaled by a power of two first (:func:`~normlab.core.scaled_gram`), so
    that a finite A has a finite value; GInd delegates to
    the g-ind engine and reports that engine's (possibly lower-bound) value
    at ``budget``.
    """
    m = as_matrix(a)
    if isinstance(spec, EntrywiseSum):
        return float(np.abs(m).sum())
    if isinstance(spec, EntrywiseMax):
        return float(np.abs(m).max())
    if isinstance(spec, MaxColSum):
        return float(np.abs(m).sum(axis=0).max())
    if isinstance(spec, MaxRowSum):
        return float(np.abs(m).sum(axis=1).max())
    if isinstance(spec, Spectral):
        h, e = scaled_gram(m)
        try:
            return math.ldexp(math.sqrt(hermitian_top_eigenvalue(h)), e)
        except OverflowError:  # ||A||_2 of a finite A may exceed the largest float
            return math.inf
    if isinstance(spec, Scaled):
        return spec.gamma * mnorm_eval(spec.inner, m, budget)
    if isinstance(spec, MaxOf):
        return max(mnorm_eval(part, m, budget) for part in spec.parts)
    if isinstance(spec, GInd):
        from .gind import gind_eval

        return gind_eval(spec, m, budget).value
    raise SpecValidationError(f"not a matrix norm descriptor: {spec!r}")


_MAX_COL_ROW = frozenset({MaxColSum(), MaxRowSum()})


def concrete(spec, n: int):
    """The plain vector norm on C^n that an extracted catalog norm equals.

    For an ``Extracted`` norm of a catalog source (EntrywiseSum,
    EntrywiseMax, MaxColSum, MaxRowSum, Spectral, max(MaxColSum,
    MaxRowSum) or GInd(alpha, beta), under any ``Scaled``), returns:

    ==================  ===============  ===============
    source              role 1           role 2, N(C_x)
    ==================  ===============  ===============
    EntrywiseSum        n ||x||_inf      n ||x||_1
    EntrywiseMax        ||x||_1          ||x||_inf
    MaxColSum           ||x||_1          ||x||_1
    MaxRowSum, max      n ||x||_inf      n ||x||_inf
    Spectral            sqrt(n) ||x||_2  sqrt(n) ||x||_2
    GInd(alpha, beta)   c alpha(x)       c beta(x)
    ==================  ===============  ===============

    For role 1, N(A) = 1 bounds N(C_{Ax}) by the value in the table, and a
    phased single-entry matrix, a matrix of phases or a rank-one matrix
    attains it.  ``Scaled(gamma, N)`` multiplies role 2 by gamma and leaves
    role 1 unchanged.  Role 1 of the other catalog sources evaluates with
    the float operations of :func:`normlab.extraction.eval_role1`, bit for
    bit.

    The GInd row, with c = alpha*(1) the dual norm of the all-ones vector,
    applies when alpha's core is an Lp, or a WeightedLp with n weights, so
    that c is a closed form, and beta has a batch form.  C_x = x 1^T maps y
    to (sum_j y_j) x, so N(C_x) = beta(x) alpha*(1); role 1 is at most
    c ||A|| alpha(x) = c alpha(x) when N(A) = 1, and a rank-one A = y f*
    attains it, with f a norming functional of x for alpha.  The
    induced norm of (c alpha, c beta) is N again, whatever c.  Every other
    spec is returned unchanged.
    """
    if not isinstance(spec, Extracted):
        return spec
    gamma, core = split_scale(spec.source)
    if isinstance(core, MaxOf) and frozenset(core.parts) == _MAX_COL_ROW:
        core = MaxRowSum()  # n||x||_inf >= ||x||_1, so the row sum decides both roles
    if isinstance(core, EntrywiseSum):
        role1, role2 = Scaled(n, Lp(math.inf)), Scaled(n, Lp(1.0))
    elif isinstance(core, EntrywiseMax):
        role1, role2 = Lp(1.0), Lp(math.inf)
    elif isinstance(core, MaxColSum):
        role1 = role2 = Lp(1.0)
    elif isinstance(core, MaxRowSum):
        role1 = role2 = Scaled(n, Lp(math.inf))
    elif isinstance(core, Spectral):
        role1 = role2 = Scaled(math.sqrt(n), Lp(2.0))
    elif isinstance(core, GInd) and has_batch_form(core.norm2):
        alpha = split_scale(core.norm1)[1]
        if not (isinstance(alpha, Lp) or isinstance(alpha, WeightedLp) and len(alpha.weights) == n):
            return spec
        c = vnorm_dual_eval(core.norm1, np.ones(n, dtype=np.complex128))
        role1, role2 = Scaled(c, core.norm1), Scaled(c, core.norm2)
    else:
        return spec
    if spec.role == 1:
        return role1
    return role2 if gamma == 1.0 else Scaled(gamma, role2)

"""Declarative matrix norms on M_n with closed-form evaluation.

The catalog covers the entrywise sum and max, the maximum column and row
sums, the spectral norm, and generalized induced norms built from two vector
norms.  ``Scaled`` and ``MaxOf`` from :mod:`normlab.vector_norms` compose
matrix norms the same way they compose vector norms.
:func:`mnorm_eval_many` evaluates one descriptor at every matrix of a
stack, and :func:`mnorm_eval` is its stack of one.
Whether a norm is submultiplicative, and which plain vector norms its
extracted norms equal, are decided in :mod:`normlab.gind`, which imports
this module (:func:`~normlab.gind.mnorm_is_algebra_candidate`,
:func:`~normlab.gind.concrete`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .budget import OptBudget
from .core import as_matrix, hermitian_top_eigenvalues, scaled_grams
from .errors import DimensionMismatchError, SpecValidationError
from .vector_norms import MaxOf, Scaled, VectorNormSpec


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
    """Evaluate a matrix norm descriptor at A: :func:`mnorm_eval_many` of
    the stack of A alone, which raises what it raises."""
    return float(mnorm_eval_many(spec, as_matrix(a)[None], budget)[0])


def mnorm_eval_many(spec: MatrixNormSpec, stack, budget: OptBudget | None = None) -> np.ndarray:
    """Evaluate a matrix norm descriptor at every matrix of a (k, n, n) stack.

    The catalog takes its closed forms over the whole stack.  Spectral is
    the square root of the top eigenvalue of A*A, from one stacked Gram of
    the matrices scaled by powers of two (:func:`~normlab.core.scaled_grams`),
    so that a finite A has a finite value, and one stacked solve that reads
    no eigenvector (:func:`~normlab.core.hermitian_top_eigenvalues`); it
    raises :class:`~normlab.errors.NonFiniteInputError` when a matrix has a
    non-finite entry, where the other closed forms give inf or NaN.  Scaled
    and MaxOf recurse, MaxOf keeping the first part that attains the max.
    GInd takes the whole stack to :func:`~normlab.gind.gind_eval_many`, the
    g-ind engine's (possibly lower-bound) values at ``budget``, which picks
    its route once, through this function's import of ``gind`` (the module
    imports nothing else from it).
    """
    s = np.ascontiguousarray(stack, dtype=np.complex128)
    if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1] < 1:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {s.shape}")
    if isinstance(spec, EntrywiseSum):
        return np.abs(s).reshape(-1, s.shape[1] ** 2).sum(axis=1)
    if isinstance(spec, EntrywiseMax):
        return np.abs(s).max(axis=(1, 2))
    if isinstance(spec, MaxColSum):
        return np.abs(s).sum(axis=1).max(axis=1)
    if isinstance(spec, MaxRowSum):
        return np.abs(s).sum(axis=2).max(axis=1)
    if isinstance(spec, Spectral):
        h, e = scaled_grams(s)
        with np.errstate(over="ignore"):  # ||A||_2 may exceed the largest float
            return np.ldexp(np.sqrt(hermitian_top_eigenvalues(h)), e)
    if isinstance(spec, Scaled):
        return spec.gamma * mnorm_eval_many(spec.inner, s, budget)
    if isinstance(spec, MaxOf):
        # the first part wins ties and unordered (NaN) values, as built-in max
        best = mnorm_eval_many(spec.parts[0], s, budget)
        for part in spec.parts[1:]:
            vals = mnorm_eval_many(part, s, budget)
            best = np.where(vals > best, vals, best)
        return best
    if isinstance(spec, GInd):
        from .gind import gind_eval_many

        return np.array([res.value for res in gind_eval_many(spec, s, budget)], dtype=np.float64)
    raise SpecValidationError(f"not a matrix norm descriptor: {spec!r}")

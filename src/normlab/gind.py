"""Generalized induced norms and the four-norm comparison chain.

``gind_eval`` computes max{ ||Ax||_2 : ||x||_1 = 1 } for a pair of vector
norms.  Outer scale factors are peeled off exactly (scaling either norm by
gamma scales the induced value by 1/gamma resp. gamma), so proportional
pairs evaluate through the identical core computation.  l-inf-type domains
with a batch codomain go to the deterministic polydisc search; every other
pair goes to the sphere maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import ComputationResult, OptBudget, default_budget
from .core import RandomStream, as_matrix, hermitian_top_eig
from .errors import DimensionMismatchError, NonConvergenceError
from .matrix_norms import concrete
from .vector_norms import (
    Lp,
    VectorNormSpec,
    WeightedLp,
    has_batch_form,
    split_scale,
    vnorm_eval,
    vnorm_eval_many,
)
from .sphere_opt import maximize_on_polydisc, maximize_on_sphere

_SEED_RNG = RandomStream(0x91ED5EED)


@dataclass(frozen=True)
class GIndPair:
    """Domain-constraint norm and codomain norm of an induced construction."""

    norm1: VectorNormSpec
    norm2: VectorNormSpec


def _row_phases(m: np.ndarray) -> np.ndarray:
    """Row i holds the phases conj(a_ij)/|a_ij|, and 1 where a_ij = 0: the
    unimodular x that makes (Ax)_i = sum_j |a_ij|."""
    mods = np.abs(m)
    nonzero = mods > 0
    return np.where(nonzero, np.conj(m) / np.where(nonzero, mods, 1.0), 1.0).astype(np.complex128)


def _polydisc_radii(core, n: int) -> np.ndarray | None:
    """Radii r of the polydisc {|x_j| <= r_j} that is the unit ball of an
    l-inf or weighted l-inf core at dimension n, or None for other cores."""
    if isinstance(core, Lp) and core.p == math.inf:
        return np.ones(n)
    if isinstance(core, WeightedLp) and core.p == math.inf and len(core.weights) == n:
        return 1.0 / np.asarray(core.weights)
    return None


def _quality_seeds(m: np.ndarray) -> Iterator[np.ndarray]:
    """Deterministic starting points tailored to x -> ||Ax||.

    Per-row conjugate-phase vectors attain row-sum type maxima; the top
    right singular vector attains euclidean ones.  Seeding never affects
    soundness, only how quickly the ascent reaches the optimum.  A generator,
    so the eigen solve runs only when the ascent consumes the seeds.
    """
    mods = np.abs(m)
    phases = _row_phases(m)
    for i in range(m.shape[0]):
        if mods[i].max() > 0:
            yield phases[i]
    if mods.max() > 0:
        try:
            eig = hermitian_top_eig(m.conj().T @ m, tol=1e-9, max_iter=5000, rng=_SEED_RNG)
        except (NonConvergenceError, DimensionMismatchError):
            return  # no spectral seed; the ascent still runs from the others
        yield eig.eigenvector


def gind_eval(pair: GIndPair, a, budget: OptBudget | None = None) -> ComputationResult:
    """Evaluate the generalized induced norm of A for the given pair.

    Extracted norms of catalog sources are first replaced by the plain
    descriptors they equal at this dimension (:func:`concrete`).  A domain
    whose core is l-inf, or weighted l-inf with n weights, paired with a
    codomain that has a batch form, goes to the polydisc branch-and-bound
    (:func:`~normlab.sphere_opt.maximize_on_polydisc`).  It starts from the
    row-phase points, stops at once when one reaches N2(|A| r) (always for
    an l-inf codomain: the weighted max row sum), and otherwise finds the
    maximum to 1e-9 relative unless its bounded work runs out first.  It
    uses no random draws and no budget, and is labelled a lower bound.
    Everything else follows the sphere dispatch: l1-type domains are
    vertex-exact, l2-to-l2 problems use the top singular value, anything
    else is the ascent lower bound.  So the extracted pairs of Spectral
    (closed form), EntrywiseMax and MaxColSum (vertex) reconstruct their
    source exactly, and those of EntrywiseSum, MaxRowSum and
    max(MaxColSum, MaxRowSum), whose domain is n l-inf, by the polydisc
    search.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if budget is None:
        budget = default_budget(n)

    g1, core1 = split_scale(concrete(pair.norm1, n))
    g2, core2 = split_scale(concrete(pair.norm2, n))
    scale = g2 / g1

    radii = _polydisc_radii(core1, n)
    if radii is not None and has_batch_form(core2):
        # batch codomains are absolute and monotone, so N2(Ax) <= N2(|A| r)
        # on the polydisc, with equality for an l-inf codomain at a row start;
        # the search replays no scalar walk, so one product serves the batch
        ceiling = vnorm_eval(core2, np.abs(m) @ radii)
        res = maximize_on_polydisc(
            lambda xs: vnorm_eval_many(core2, xs @ m.T), radii, radii * _row_phases(m), ceiling
        )
    else:
        # the stacked product reproduces m @ x's rounding row by row
        objective_many = lambda xs: vnorm_eval_many(core2, (m @ xs[..., None])[..., 0])
        linear = m if isinstance(core2, Lp) and core2.p == 2.0 else None
        res = maximize_on_sphere(
            lambda x: vnorm_eval(core2, m @ x),
            core1,
            n,
            budget,
            linear_l2=linear,
            objective_convex=True,
            # N2(A(ax)) = |a| N2(Ax): core2 is a norm descriptor validated at construction
            objective_homogeneous=True,
            extra_seeds=_quality_seeds(m),
            objective_many=objective_many if has_batch_form(core2) else None,
        )
    witness = res.witness if g1 == 1.0 else res.witness / g1
    return ComputationResult(
        value=scale * res.value,
        witness=witness,
        exactness=res.exactness,
        evaluations=res.evaluations,
    )


@dataclass
class ChainReport:
    """The four operator norms drawn from a pair and their ordering.

    ``v12`` uses norm1 on the domain and norm2 on the codomain, and so on.
    ``chain_holds`` asserts v21 <= v11 <= v12 and v21 <= v22 <= v12 up to
    1e-9 relative slack; ``slack`` is the worst (most negative) margin.
    """

    v21: float
    v11: float
    v22: float
    v12: float
    chain_holds: bool
    slack: float


_CHAIN_SLACK = 1e-9


def chain_compare(pair: GIndPair, a, budget: OptBudget | None = None) -> ChainReport:
    """Compute all four domain/codomain combinations and check the chain.

    The chain is guaranteed only when norm1 <= norm2 pointwise; the
    computation runs regardless and reports what it finds.
    """
    m = as_matrix(a)
    v12 = gind_eval(pair, m, budget).value
    v21 = gind_eval(GIndPair(pair.norm2, pair.norm1), m, budget).value
    v11 = gind_eval(GIndPair(pair.norm1, pair.norm1), m, budget).value
    v22 = gind_eval(GIndPair(pair.norm2, pair.norm2), m, budget).value
    slack = min(v11 - v21, v12 - v11, v22 - v21, v12 - v22)
    holds = slack >= -_CHAIN_SLACK * max(1.0, v12)
    return ChainReport(v21=v21, v11=v11, v22=v22, v12=v12, chain_holds=holds, slack=slack)

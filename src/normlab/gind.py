"""Generalized induced norms and the four-norm comparison chain.

``gind_eval`` computes max{ ||Ax||_2 : ||x||_1 = 1 } for a pair of vector
norms.  Outer scale factors are peeled off exactly (scaling either norm by
gamma scales the induced value by 1/gamma resp. gamma), so proportional
pairs evaluate through the identical core computation.
"""

from __future__ import annotations

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
    has_batch_form,
    split_scale,
    vnorm_eval,
    vnorm_eval_many,
)
from .sphere_opt import maximize_on_sphere

_SEED_RNG = RandomStream(0x91ED5EED)


@dataclass(frozen=True)
class GIndPair:
    """Domain-constraint norm and codomain norm of an induced construction."""

    norm1: VectorNormSpec
    norm2: VectorNormSpec


def _quality_seeds(m: np.ndarray) -> Iterator[np.ndarray]:
    """Deterministic starting points tailored to x -> ||Ax||.

    Per-row conjugate-phase vectors attain row-sum type maxima; the top
    right singular vector attains euclidean ones.  Seeding never affects
    soundness, only how quickly the ascent reaches the optimum.  A generator,
    so the eigen solve runs only when the ascent consumes the seeds.
    """
    n = m.shape[0]
    mods = np.abs(m)
    for i in range(n):
        if mods[i].max() > 0:
            row = m[i]
            phases = np.where(mods[i] > 0, np.conj(row) / np.where(mods[i] > 0, mods[i], 1.0), 1.0)
            yield phases.astype(np.complex128)
    if mods.max() > 0:
        try:
            eig = hermitian_top_eig(m.conj().T @ m, tol=1e-9, max_iter=5000, rng=_SEED_RNG)
        except (NonConvergenceError, DimensionMismatchError):
            return  # no spectral seed; the ascent still runs from the others
        yield eig.eigenvector


def gind_eval(pair: GIndPair, a, budget: OptBudget | None = None) -> ComputationResult:
    """Evaluate the generalized induced norm of A for the given pair.

    Extracted norms of catalog sources are first replaced by the plain
    descriptors they equal at this dimension (:func:`concrete`).  Exactness
    then follows the sphere dispatch: l1-type domains are vertex-exact,
    l2-to-l2 problems use the top singular value, anything else is the
    ascent lower bound.  So the extracted pairs of Spectral (closed form),
    EntrywiseMax and MaxColSum (vertex) reconstruct their source exactly.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if budget is None:
        budget = default_budget(n)

    g1, core1 = split_scale(concrete(pair.norm1, n))
    g2, core2 = split_scale(concrete(pair.norm2, n))
    scale = g2 / g1

    objective = lambda x: vnorm_eval(core2, m @ x)
    # the stacked product reproduces m @ x's rounding row by row
    objective_many = lambda xs: vnorm_eval_many(core2, (m @ xs[..., None])[..., 0])
    linear = m if isinstance(core2, Lp) and core2.p == 2.0 else None
    res = maximize_on_sphere(
        objective,
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

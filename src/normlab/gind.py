"""Generalized induced norms and the four-norm comparison chain.

``gind_eval`` computes max{ ||Ax||_2 : ||x||_1 = 1 } for a pair of vector
norms.  Outer scale factors are peeled off exactly (scaling either norm by
gamma scales the induced value by 1/gamma resp. gamma), so proportional
pairs evaluate through the identical core computation.  With a batch
codomain, polyhedral domains (l1 and l-inf parts under Scaled and MaxOf) get
the best polydisc search over the vertices of the ball of moduli, and smooth
domains (an l_p or weighted l_p core, 1 < p < inf, other than l2 to l2) the
nonlinear power method; every other pair goes to the sphere maximizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import LOWER_BOUND, ComputationResult, OptBudget, default_budget
from .core import RandomStream, as_matrix, hermitian_top_eig, scaled_gram
from .errors import NonConvergenceError, NonFiniteInputError
from .matrix_norms import concrete
from .vector_norms import (
    Lp,
    MaxOf,
    Scaled,
    VectorNormSpec,
    WeightedLp,
    has_batch_form,
    norming_direction_many,
    split_scale,
    vnorm_eval,
    vnorm_eval_many,
)
from .sphere_opt import maximize_on_polydisc, maximize_on_sphere, seed_pool

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


def _moduli_constraints(spec, n: int, gamma: float = 1.0):
    """The ball of moduli {r >= 0 : N(r) <= 1} of gamma * spec at dimension n
    as linear constraints, or None unless spec is a tree of Scaled and MaxOf
    over l1 and l-inf parts (Lp, or WeightedLp with n weights).

    Returns ``(rows, caps)``: c.r <= 1 for each l1 part's row c, and
    r_j <= caps_j, the l-inf parts' caps folded per coordinate (inf where no
    l-inf part caps it).
    """
    if isinstance(spec, Scaled):
        return _moduli_constraints(spec.inner, n, gamma * spec.gamma)
    if isinstance(spec, MaxOf):
        rows, caps = [], np.full(n, math.inf)
        for part in spec.parts:
            found = _moduli_constraints(part, n, gamma)
            if found is None:
                return None
            rows += found[0]
            caps = np.minimum(caps, found[1])
        return rows, caps
    if isinstance(spec, Lp):
        w = np.full(n, gamma)
    elif isinstance(spec, WeightedLp) and len(spec.weights) == n:
        w = gamma * np.asarray(spec.weights)
    else:
        return None
    if spec.p == 1.0:
        return [w], np.full(n, math.inf)
    if spec.p == math.inf:
        return [], 1.0 / w
    return None


# relative tolerance of the vertex enumeration: for singular choices of
# tight constraints, feasibility, zero entries and dominance
_VERTEX_TOL = 1e-9


def _ball_vertices(core, rows, caps) -> list[np.ndarray]:
    """The maximal vertices v of the polytope {r >= 0, c.r <= 1, r <= caps},
    each scaled to N1(v) = 1 for the norm ``core`` it is the ball of moduli
    of; the zero vertex and dominated vertices are dropped.

    Without l1 rows the polytope is the box [0, caps], whose one maximal
    vertex, the caps themselves, is returned as is.  Otherwise every choice
    of n tight constraints among r_j = 0, r_j = caps_j and c.r = 1 is solved
    in one stacked call and the feasible solutions are kept.
    """
    n = caps.size
    if not rows:
        return [caps]
    eye = np.eye(n)
    capped = np.flatnonzero(np.isfinite(caps))
    faces = np.vstack([eye, eye[capped], np.array(rows)])
    rhs = np.concatenate([np.zeros(n), caps[capped], np.ones(len(rows))])
    picks = np.array(list(itertools.combinations(range(len(faces)), n)))
    systems = faces[picks]
    # drop singular choices; the determinant is compared to Hadamard's bound
    scale = np.prod(np.linalg.norm(systems, axis=2), axis=1)
    regular = np.abs(np.linalg.det(systems)) > _VERTEX_TOL * scale
    points = np.linalg.solve(systems[regular], rhs[picks[regular]][..., None])[..., 0]
    slack = _VERTEX_TOL * np.abs(points).max(axis=1)
    feasible = (
        (points >= -slack[:, None]).all(axis=1)
        & (points <= caps * (1.0 + _VERTEX_TOL)).all(axis=1)
        & (points @ faces[n + capped.size :].T <= 1.0 + _VERTEX_TOL).all(axis=1)
    )
    points = points[feasible]
    points = np.where(points > slack[feasible, None], points, 0.0)
    points = points[points.any(axis=1)]
    points = points / vnorm_eval_many(core, points)[:, None]
    # drop v when another vertex w >= v holds it: one strictly above it
    # somewhere (its polydisc holds v's), or an earlier copy of v
    tol = _VERTEX_TOL * points.max(axis=1)[:, None, None]
    above = (points[None] >= points[:, None] - tol).all(axis=2)
    strictly = (points[None] > points[:, None] + tol).any(axis=2)
    earlier = np.tri(len(points), k=-1, dtype=bool)
    return list(points[~(above & (strictly | earlier)).any(axis=1)])


def _polyhedral_search(core2, m: np.ndarray, vertices) -> ComputationResult:
    """max N2(Ax) over the union of the polydiscs {|x_j| <= v_j}: one
    :func:`~normlab.sphere_opt.maximize_on_polydisc` per vertex, on its
    support, from the row-phase points and with ceiling N2(|A_S| v_S); a
    vertex whose ceiling does not exceed the best value so far is skipped.
    The best value wins, ties to the lowest vertex; evaluations add up."""
    n = m.shape[0]
    phases, mods = _row_phases(m), np.abs(m)
    best, witness, evals = -math.inf, None, 0
    for v in vertices:
        # a full support keeps the matrix itself, so l-inf cores search
        # with the very arrays they always did
        cols = slice(None) if np.count_nonzero(v) == n else np.flatnonzero(v)
        ms, r = m[:, cols], v[cols]
        # batch codomains are absolute and monotone, so N2(Ax) <= N2(|A| r)
        # on the polydisc, with equality for an l-inf codomain at a row start
        ceiling = vnorm_eval(core2, mods[:, cols] @ r)
        if ceiling <= best:
            continue  # this polydisc cannot beat the best so far
        # the search replays no scalar walk, so one product serves the batch
        res = maximize_on_polydisc(
            lambda xs: vnorm_eval_many(core2, xs @ ms.T), r, r * phases[:, cols], ceiling
        )
        evals += res.evaluations
        if witness is None or res.value > best:
            best, witness = res.value, np.zeros(n, dtype=np.complex128)
            witness[cols] = res.witness
    return ComputationResult(best, witness, LOWER_BOUND, evals)


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
            eig = hermitian_top_eig(scaled_gram(m)[0], rng=_SEED_RNG)
        except NonConvergenceError:
            return  # no spectral seed; the ascent still runs from the others
        yield eig.eigenvector


def _power_search(core1, core2, m: np.ndarray, budget: OptBudget) -> ComputationResult:
    """max N2(Ax) on the unit sphere of an l_p or weighted l_p core with
    1 < p < inf, by the nonlinear power method with every start in lockstep.

    The starts are :func:`~normlab.sphere_opt.seed_pool`'s points with the
    :func:`_quality_seeds`, scaled onto the sphere and scored; the
    ``budget.multistarts`` best (ties to the lowest index) iterate.  A step
    takes y = Ax, the norming direction u of y for N2, z = A*u, and x' the
    norming point of z on the domain sphere: the norming direction of z for
    the dual core, scaled to N1(x') = 1.  Then N2(Ax') >= Re <u, Ax'> /
    N2*(u) = N1*(z) / N2*(u) >= Re <z, x> / N2*(u) = N2(Ax), so no step
    loses value.  A start moves
    only when N2(Ax') exceeds its value by a factor 1 + 1e-15, and retires
    when it does not, when its y or z is zero, or after ``budget.max_iters``
    steps.  The result is the best of every scored row, ties to the first,
    labelled a lower bound; ``evaluations`` counts the rows scored.
    """
    q = core1.p / (core1.p - 1.0)
    if isinstance(core1, Lp):
        dual = Lp(q)
    else:
        dual = WeightedLp(tuple(1.0 / w for w in core1.weights), q)
    image = lambda xs: (m @ xs[..., None])[..., 0]
    adjoint = m.conj().T

    pool = np.asarray(seed_pool(m.shape[0], budget, _quality_seeds(m)))
    points = pool / vnorm_eval_many(core1, pool)[:, None]
    images = image(points)
    vals = vnorm_eval_many(core2, images)
    evals = len(pool)
    k = int(np.argmax(vals))
    best, witness = vals[k], points[k]
    starts = np.argsort(-vals, kind="stable")[: budget.multistarts]
    y, val = images[starts], vals[starts]
    for _ in range(budget.max_iters):
        z = (adjoint @ norming_direction_many(core2, y)[..., None])[..., 0]
        live = z.any(axis=1)  # a zero y has a zero direction, so a zero z
        if not live.any():
            break
        x = norming_direction_many(dual, z[live])
        x /= vnorm_eval_many(core1, x)[:, None]
        y = image(x)
        got = vnorm_eval_many(core2, y)
        evals += len(x)
        k = int(np.argmax(got))
        if got[k] > best:
            best, witness = got[k], x[k]
        moved = got > val[live] * (1.0 + 1e-15)
        y, val = y[moved], got[moved]
    w = witness / vnorm_eval(core1, witness)
    return ComputationResult(vnorm_eval(core2, m @ w), w, LOWER_BOUND, evals)


def gind_eval(pair: GIndPair, a, budget: OptBudget | None = None) -> ComputationResult:
    """Evaluate the generalized induced norm of A for the given pair.

    Extracted norms of catalog sources are first replaced by the plain
    descriptors they equal at this dimension (:func:`concrete`).  Polyhedral
    domains, paired with a codomain that has a batch form, get the best
    polydisc search over the vertices of the ball of moduli.  A domain core
    of l1 and l-inf parts under Scaled and MaxOf, other than a plain or
    weighted l1 core, has a polytope for its ball of moduli
    {r >= 0 : N1(r) <= 1}, and its unit ball is the convex hull of the
    polydiscs {|x_j| <= v_j} over the polytope's vertices v, so the convex
    x -> N2(Ax) peaks in one of them.  Each maximal vertex gets a polydisc
    branch-and-bound (:func:`~normlab.sphere_opt.maximize_on_polydisc`) on
    its support; it stops at once when a row-phase start reaches N2(|A| v)
    (always for an l-inf codomain: the weighted max row sum), and otherwise
    finds its maximum to 1e-9 relative unless its bounded work runs out
    first.  An l-inf or weighted l-inf core is the one-vertex case.  The
    union uses no random draws and no budget, and is labelled a lower bound.
    An l_p or weighted l_p domain core with 1 < p < inf and a batch codomain,
    l2 to l2 excepted, gets the nonlinear power method from the best seeds
    of the sphere maximizer's pool (:func:`_power_search`), also a lower
    bound.  Everything else follows the sphere dispatch: l1-type domains are
    vertex-exact, l2-to-l2 problems use the top singular value, anything
    else (MaxOf domains with a smooth part, codomains without a batch form)
    is the ascent lower bound.  So the extracted pairs of Spectral
    (closed form), EntrywiseMax and MaxColSum (vertex) reconstruct their
    source exactly, and those of EntrywiseSum, MaxRowSum and
    max(MaxColSum, MaxRowSum), whose domain is n l-inf, by the polydisc
    search.  A matrix with an infinite or NaN entry raises
    :class:`~normlab.errors.NonFiniteInputError`.
    """
    m = as_matrix(a)
    if not np.isfinite(m).all():
        raise NonFiniteInputError("gind_eval needs a finite matrix")
    n = m.shape[0]
    if budget is None:
        budget = default_budget(n)

    g1, core1 = split_scale(concrete(pair.norm1, n))
    g2, core2 = split_scale(concrete(pair.norm2, n))
    scale = g2 / g1

    # plain and weighted l1 keep their exact vertex dispatch, l2 -> l2 its
    # closed form, and plain l_p cores with 1 < p < inf have no polytope for
    # a ball of moduli
    plain = isinstance(core1, (Lp, WeightedLp)) and core1.p != math.inf
    smooth = (
        plain
        and core1.p > 1.0
        and (isinstance(core1, Lp) or len(core1.weights) == n)
        and not (core1 == Lp(2.0) and core2 == Lp(2.0))
    )
    constraints = None if plain else _moduli_constraints(core1, n)
    if smooth and has_batch_form(core2):
        res = _power_search(core1, core2, m, budget)
    elif constraints is not None and has_batch_form(core2):
        res = _polyhedral_search(core2, m, _ball_vertices(core1, *constraints))
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

"""Generalized induced norms, the four-norm comparison chain and Lemma 2.1.

``gind_eval_many`` computes max{ ||Ax||_2 : ||x||_1 = 1 } for a pair of
vector norms, a :class:`~normlab.matrix_norms.GInd`, at every matrix of a
stack, and ``gind_eval`` is its stack of one.  Outer scale factors are
peeled off exactly (scaling either norm by gamma scales the induced value by
1/gamma resp. gamma), so proportional pairs evaluate through the identical
core computation.  The route is chosen by the two cores, in one place and
once per stack, and the routes take the stack as a whole where they can:

====================  ============================================  ====================
domain -> codomain    route                                         over the stack
====================  ============================================  ====================
l2 -> l2              top singular vector (:func:`_l2_closed_form`)  one solve for all
smooth l_p -> batch   nonlinear power method                        matrix by matrix
l1 -> any             best basis vertex (:func:`_vertex_search`)     one scoring call
polyhedral -> batch   polydisc search over the ball's vertices      lockstep per vertex
anything else         the sphere maximizer                          matrix by matrix
====================  ============================================  ====================

Only the sphere maximizer's climb reads a budget.

Every supremum of a norm ratio goes through ``gind_eval``: sup ||x||_a /
||x||_b is ||I||_{b -> a} (:func:`dominance_check`, which decides Lemma 2.1
in :func:`mnorm_is_algebra_candidate`), and the dual norm
(:func:`vnorm_dual_eval`), where it has no closed form, is the induced norm
of a one-row matrix into l1.  The table of extracted norms
(:func:`concrete`, and :func:`concrete_pair` for both roles at once) lives
here too: its GInd row scales by the dual norm of the all-ones vector, and
``gind_eval_many`` reads it before choosing a route.  So does the chain's
one rule (:func:`chain_report`), which :func:`chain_compare` and the paper
demos apply to the four values of :func:`chain_pairs`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import (
    EXACT_CLOSED_FORM,
    EXACT_VERTEX,
    LOWER_BOUND,
    ComputationResult,
    OptBudget,
)
from .core import (
    RandomStream,
    as_matrix,
    as_vector,
    conj_phases,
    hermitian_top_eig,
    hermitian_top_eigenvectors,
    power_of_two_scaled,
    row_vdots,
    scaled_grams,
)
from .errors import DimensionMismatchError, NonConvergenceError, NonFiniteInputError
from .matrix_norms import (
    EntrywiseMax,
    EntrywiseSum,
    GInd,
    MatrixNormSpec,
    MaxColSum,
    MaxRowSum,
    Spectral,
)
from .vector_norms import (
    Extracted,
    Lp,
    MaxOf,
    Scaled,
    VectorNormSpec,
    WeightedLp,
    has_batch_form,
    lp_of_moduli,
    norming_functionals_many,
    split_scale,
    vnorm_eval,
    vnorm_eval_many,
)
from .sphere_opt import maximize_on_polydisc, maximize_on_sphere

_SEED_RNG = RandomStream(0x91ED5EED)
# the power method's phase starts
_PHASE_RNG = RandomStream(0)
# the start of the l2 -> l2 eigen solve: a fixed stream, so that the closed
# form reads no budget
_L2_RNG = RandomStream(0).child(1)
_L2 = Lp(2.0)
# a matrix whose largest real or imaginary part exceeds this is evaluated
# scaled by a power of two.  Below it no route overflows with unweighted
# cores and n <= 2**10: every product a route forms is linear in A, a sum
# of at most n**2 terms |a_ij| |x_j| with |a_ij| at most sqrt(2) times the
# largest part and |x_j| <= sqrt(2) (at a polydisc apex of the l-inf ball;
# unit points and norming functionals of l_p cores have |x_j| <= 1), so it
# stays below 2**1000 * 2**21 < 2**1023.  The l2 kernels scale their own
# sums of squares.
_SCALE_ABOVE = 2.0**1000

# the earlier name of the pair descriptor, kept for callers that build it
GIndPair = GInd


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


def _two_column_l2(core2, ms: np.ndarray, cols: np.ndarray, r: np.ndarray) -> list:
    """max N2(A_S x) over |x_j| <= r_j for two columns and an l2 or weighted
    l2 codomain, for every matrix A_S of a (k, n, 2) stack, whose weighted
    columns are ``cols``, with its row of radii in the (k, 2) array ``r``.
    ||r_0 a_0 + r_1 e^{it} a_1||^2 = r_0^2 ||a_0||^2 +
    r_1^2 ||a_1||^2 + 2 r_0 r_1 Re(e^{it} <a_0, a_1>) peaks where the cross
    term is real and positive, at x = (r_0, r_1 phase(<a_1, a_0>)), phase 1
    for orthogonal columns.  The witnesses are scored in one
    :func:`vnorm_eval_many` call; one evaluation each."""
    phases = []
    for i, z in enumerate(row_vdots(cols[:, :, 1], cols[:, :, 0]).tolist()):
        if not math.isfinite(math.hypot(z.real, z.imag)):
            # the product or its modulus overflowed: only its phase is read,
            # which scaling each column by a power of two keeps
            a, b = (power_of_two_scaled(cols[i, :, j])[0] for j in (1, 0))
            z = complex(np.vdot(a, b))
        # Python's complex division, whose bits numpy's does not keep
        phases.append(z / abs(z) if z else 1.0)
    x = np.empty((len(ms), 2), dtype=np.complex128)
    x[:, 0] = r[:, 0]
    x[:, 1] = r[:, 1] * np.array(phases, dtype=np.complex128)
    vals = vnorm_eval_many(core2, (ms @ x[:, :, None])[:, :, 0])
    return [ComputationResult(v, w, LOWER_BOUND, 1) for v, w in zip(vals.tolist(), x)]


def _polydisc_search(core2, ms: np.ndarray, r: np.ndarray, starts: np.ndarray, ceilings) -> list:
    """:func:`~normlab.sphere_opt.maximize_on_polydisc` of x -> N2(A_S x)
    over |x_j| <= r_j, for every matrix A_S of a (k, n, c) stack with its
    start rows and ceiling, in one lockstep search.  The starts of the whole
    stack are scored in one :func:`vnorm_eval_many` call, and each matrix's
    search begins from its best start, ties to the first; one whose best
    start reaches its ceiling keeps it."""
    k, rows = starts.shape[:2]
    images = starts @ ms.transpose(0, 2, 1)
    vals = vnorm_eval_many(core2, images.reshape(k * rows, -1)).reshape(k, rows)
    found = [
        ComputationResult(float(vals[i, j]), starts[i, j], LOWER_BOUND, rows)
        for i, j in enumerate(vals.argmax(axis=1).tolist())
    ]
    return maximize_on_polydisc(functools.partial(vnorm_eval_many, core2), r, found, ceilings, ms)


def _polyhedral_search(core2, s: np.ndarray, vertices) -> list[ComputationResult]:
    """max N2(Ax) over the union of the polydiscs {|x_j| <= v_j}, for every
    matrix of a (k, n, n) stack, vertex by vertex on its support: with two
    coordinates and an l2 or weighted l2 codomain the closed form
    :func:`_two_column_l2`, otherwise :func:`_polydisc_search` from the
    row-phase points and with ceiling N2(|A_S| v_S), each over the matrices
    whose ceiling exceeds their best value so far; the others skip the
    vertex.  The ceilings, and the closed forms, of every vertex and matrix
    are each taken in one call.  The best value wins, ties to the lowest
    vertex; evaluations add up."""
    k, n = s.shape[:2]
    mods, phases = np.abs(s), None
    # the codomain's weights folded into the columns, when it is euclidean
    euclid = None
    if isinstance(core2, Lp) and core2.p == 2.0:
        euclid = s
    elif isinstance(core2, WeightedLp) and core2.p == 2.0 and len(core2.weights) == n:
        euclid = np.asarray(core2.weights)[:, None] * s
    supports = [np.flatnonzero(v) for v in vertices]
    # a full support keeps the matrices themselves, so l-inf cores search
    # with the very arrays they always did
    columns = [slice(None) if support.size == n else support for support in supports]
    # batch codomains are absolute and monotone, so N2(Ax) <= N2(|A| r) on
    # the polydisc, with equality for an l-inf codomain at a row start; the
    # ceilings of every vertex in one call
    products = [mods[:, :, cols] @ v[cols] for v, cols in zip(vertices, columns)]
    every = vnorm_eval_many(core2, np.concatenate(products)).reshape(len(vertices), k).tolist()
    # and, into l2, the closed forms of every two-coordinate vertex in one
    # call; a matrix that skips such a vertex leaves its result unread
    closed = {}
    pairs = [j for j, support in enumerate(supports) if support.size == 2]
    if euclid is not None and pairs:
        found = _two_column_l2(
            core2,
            np.concatenate([s[:, :, columns[j]] for j in pairs]),
            np.concatenate([euclid[:, :, supports[j]] for j in pairs]),
            np.repeat([vertices[j][columns[j]] for j in pairs], k, axis=0),
        )
        closed = {j: found[b * k : (b + 1) * k] for b, j in enumerate(pairs)}
    best, witness, evals = [-math.inf] * k, [None] * k, [0] * k
    for j, (v, cols, ceilings) in enumerate(zip(vertices, columns, every)):
        # the others cannot beat their best so far
        live = [i for i in range(k) if not ceilings[i] <= best[i]]
        if not live:
            continue
        if j in closed:
            found = [closed[j][i] for i in live]
        else:
            if phases is None:
                # row i is the unimodular x that makes (Ax)_i = sum_j |a_ij|
                phases = conj_phases(s)
            # every matrix live, as a lone one always is, takes views of the stack
            sel = slice(None) if len(live) == k else live
            r = v[cols]
            starts = r * phases[sel][:, :, cols]
            found = _polydisc_search(core2, s[sel][:, :, cols], r, starts, [ceilings[i] for i in live])
        for i, res in zip(live, found):
            evals[i] += res.evaluations
            if witness[i] is None or res.value > best[i]:
                best[i], witness[i] = res.value, np.zeros(n, dtype=np.complex128)
                witness[i][cols] = res.witness
    return [ComputationResult(b, w, LOWER_BOUND, e) for b, w, e in zip(best, witness, evals)]


def l1_vertices(core, n: int) -> np.ndarray | None:
    """The vertices e_j / w_j of the unit ball of an l1 or weighted-l1 core
    with n weights in C^n, as the rows of an array (w = 1 for plain l1),
    whose phase multiples are its extreme points; None for every other
    core."""
    if isinstance(core, Lp) and core.p == 1.0:
        return np.eye(n, dtype=np.complex128)
    if isinstance(core, WeightedLp) and core.p == 1.0 and len(core.weights) == n:
        return np.eye(n, dtype=np.complex128) / np.asarray(core.weights)[:, None]
    return None


def _vertex_search(core1, core2, s: np.ndarray, vertices: np.ndarray) -> list:
    """max N2(Ax) on an l1 or weighted-l1 sphere into any codomain, for
    every matrix of a (k, n, n) stack, the package's one vertex route.
    x -> N2(Ax) is convex, so its maximum over the ball sits at a phase
    multiple of a vertex, and absolute homogeneity drops the phase.  Every
    matrix's best vertex, ties to the lowest, from one
    :func:`vnorm_eval_many` call over all its columns, renormalized by N1
    and rescored; exact, n evaluations each."""
    k, n = s.shape[:2]
    vals = vnorm_eval_many(core2, np.swapaxes(s @ vertices.T, 1, 2).reshape(k * n, n))
    w = (vertices / vnorm_eval_many(core1, vertices)[:, None])[vals.reshape(k, n).argmax(axis=1)]
    got = vnorm_eval_many(core2, (s @ w[:, :, None])[:, :, 0])
    return [ComputationResult(v, x, EXACT_VERTEX, n) for v, x in zip(got.tolist(), w)]


def _l2_closed_form(s: np.ndarray) -> list[ComputationResult]:
    """max ||Ax||_2 on the l2 sphere for every matrix of a (k, n, n) stack:
    the top eigenvector of A*A from a fixed start, from one stacked scaled
    Gram and one stacked solve, rescaled so that l2 reads 1 at it, and
    ||Aw||_2; exact, one evaluation each."""
    v = hermitian_top_eigenvectors(scaled_grams(s)[0], _L2_RNG)
    # each v is a unit vector, so its sum of squares, as one stacked
    # row-times-column product, is vdot's and normal, and its root is
    # vnorm_eval's l2 value bit for bit
    w = v / np.sqrt((v.conj()[:, None, :] @ v[:, :, None])[:, 0, 0].real)[:, None]
    vals = vnorm_eval_many(_L2, (s @ w[:, :, None])[:, :, 0])
    return [ComputationResult(x, y, EXACT_CLOSED_FORM, 1) for x, y in zip(vals.tolist(), w)]


def _quality_seeds(m: np.ndarray) -> Iterator[np.ndarray]:
    """Deterministic starting points tailored to x -> ||Ax||.

    Per-row conjugate-phase vectors attain row-sum type maxima; the top
    right singular vector attains euclidean ones.  Seeding never affects
    soundness, only how quickly the ascent reaches the optimum.
    """
    mods = np.abs(m)
    phases = conj_phases(m)
    for i in range(m.shape[0]):
        if mods[i].max() > 0:
            yield phases[i]
    if mods.max() > 0:
        try:
            eig = hermitian_top_eig(scaled_grams(m[None])[0][0], rng=_SEED_RNG)
        except NonConvergenceError:
            return  # no spectral seed; the ascent still runs from the others
        yield eig.eigenvector


# the power method's step cap per start
_POWER_STEPS = 400


def _power_search(core1, core2, m: np.ndarray) -> ComputationResult:
    """max N2(Ax) on the unit sphere of an l_p or weighted l_p core with
    1 < p < inf, by the nonlinear power method (Boyd 1974, Higham 1992) with
    every start in lockstep.  It reads no budget.

    The starts are the basis vectors, the all-ones vector, n phase vectors
    from a fixed stream and the :func:`_quality_seeds`, scaled onto the
    sphere and scored, and every one of them iterates.  Scoring a point x
    gives N2(Ax) and a unit norming functional u of Ax for N2
    (:func:`~normlab.vector_norms.norming_functionals_many`).  A step takes
    z = A*u and x' the unit norming functional of z for the dual core, which
    lies on the domain sphere because the dual of the dual is the core, and
    scores x'.  Then N2(Ax') >= Re <u, Ax'> = Re <z, x'> = N1*(z) >=
    Re <z, x> = N2(Ax), so no step loses value.  A start moves
    only when N2(Ax') exceeds its value by a factor 1 + 1e-15, and retires
    when it does not (a zero y or z gives a zero x'), or after 400 steps.
    It also retires when it cannot catch the best at its present rate: from
    value ``prev`` to ``got`` with ``left`` of the 400 steps to go, when
    got (got/prev)**left < best (1 - 1e-12).  That assumes
    a start's gain per step does not grow, which holds near a fixed point,
    where the iteration contracts; a start that would have sped up is lost,
    and the result is still a lower bound.  The result is the best of every
    scored row, ties to the first, rescored with :func:`vnorm_eval` at the
    witness scaled onto the sphere and labelled a lower bound;
    ``evaluations`` counts the rows scored.
    """
    n = m.shape[0]
    q = _conjugate_exponent(core1.p)
    if isinstance(core1, Lp):
        dual = Lp(q)
    else:
        dual = WeightedLp(tuple(1.0 / w for w in core1.weights), q)
    mt, mc = m.T, m.conj()

    phases = np.exp(2j * np.pi * _PHASE_RNG.generator().random((n, n)))
    pool = np.vstack([np.eye(n, dtype=np.complex128), np.ones(n), phases, *_quality_seeds(m)])
    points = pool / vnorm_eval_many(core1, pool)[:, None]
    val, u = norming_functionals_many(core2, points @ mt)
    evals = len(pool)
    k = int(np.argmax(val))
    best, witness = val[k], points[k]
    for step in range(_POWER_STEPS):
        if not len(u):
            break
        x = norming_functionals_many(dual, u @ mc)[1]
        got, u = norming_functionals_many(core2, x @ mt)
        evals += len(x)
        k = int(np.argmax(got))
        if got[k] > best:
            best, witness = got[k], x[k]
        moved = got > val * (1.0 + 1e-15)
        if moved.any():
            # a start that keeps its last gain per step for the steps left
            # and still ends below the best cannot catch it
            left = _POWER_STEPS - step - 1
            up = got[moved]
            reach = np.log(up) + left * np.log(up / val[moved])
            moved[moved] = reach >= math.log(best * (1.0 - 1e-12))
        u, val = u[moved], got[moved]
    w = witness / vnorm_eval(core1, witness)
    return ComputationResult(vnorm_eval(core2, m @ w), w, LOWER_BOUND, evals)


def gind_eval_many(
    pair: GInd, stack, budget: OptBudget | None = None
) -> list[ComputationResult]:
    """Evaluate the generalized induced norm of every matrix of a (k, n, n)
    stack for the given pair, one result per matrix.

    Extracted norms of catalog sources are first replaced, once for the
    stack, by the plain descriptors they equal at this dimension
    (:func:`concrete_pair`), and outer scales are peeled off.  The cores
    pick one route for the whole stack, first match:

    ==========================  =============================  =====  ======  =========
    domain -> codomain core     route                          label  budget  the stack
    ==========================  =============================  =====  ======  =========
    l2 -> l2                    top eigenvector of A*A         exact  no      at once
    l_p, 1 < p < inf -> batch   :func:`_power_search`          lower  no      by matrix
    l1 -> any                   :func:`_vertex_search`         exact  no      at once
    polyhedral -> batch         :func:`_polyhedral_search`     lower  no      by vertex
    anything else               sphere maximizer               lower  yes     by matrix
    ==========================  =============================  =====  ======  =========

    "batch" is a codomain of Lp and WeightedLp parts under Scaled and MaxOf
    (:func:`has_batch_form`), which has norming functionals and is monotone
    in the moduli; l_p and l1 include WeightedLp cores with n weights;
    "polyhedral" is a tree of Scaled and MaxOf over l1 and l-inf parts, such
    as l-inf or max(l1, 2 l-inf).  The l2 closed form solves the
    eigenproblem of A*A from a fixed start (its top eigenvector is the
    maximizer) and makes one evaluation.  The polyhedral route scores each
    vertex's ceilings and starts over the stack, and the matrices search
    their polydiscs in lockstep, each from its best start, a matrix ending
    at once where that start reaches the ceiling.  So the extracted pairs of
    Spectral, EntrywiseMax and MaxColSum reconstruct their source exactly,
    those of EntrywiseSum, MaxRowSum and max(MaxColSum, MaxRowSum) by the
    polydisc search, and that of a GInd source with an l_p, weighted l_p or
    polyhedral domain by the source's own route, its pair up to a common
    scale.  Result i is ``gind_eval(pair, stack[i], budget)`` bit for bit.
    A matrix with a real or imaginary part above 2**1000 is evaluated over
    the power of two above its largest part and its value scaled back, inf
    above the largest float.  A stack with an infinite or NaN entry raises
    :class:`~normlab.errors.NonFiniteInputError`.
    """
    s = np.ascontiguousarray(stack, dtype=np.complex128)
    if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1] < 1:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {s.shape}")
    # one reduction checks every entry and finds the largest part
    parts = np.abs(s.view(np.float64))
    peak = parts.max(initial=0.0)
    if not math.isfinite(peak):
        raise NonFiniteInputError("gind_eval needs a finite matrix")
    if peak > _SCALE_ABOVE:
        # each matrix above the threshold is taken over 2**e, its parts
        # below 1, and its value scaled back: inf above the largest float
        peaks = parts.max(axis=(1, 2))
        shifts = np.where(peaks > _SCALE_ABOVE, np.frexp(peaks)[1], 0)
        scaled = np.ldexp(s.view(np.float64), -shifts[:, None, None]).view(s.dtype)
        found = gind_eval_many(pair, scaled, budget)
        with np.errstate(over="ignore"):
            values = np.ldexp([res.value for res in found], shifts).tolist()
        for res, value in zip(found, values):
            res.value = value
        return found
    n = s.shape[1]
    if not len(s):
        return []

    plain = concrete_pair(pair, n)
    g1, core1 = split_scale(plain.norm1)
    g2, core2 = split_scale(plain.norm2)
    batch = has_batch_form(core2)
    smooth = isinstance(core1, (Lp, WeightedLp)) and 1.0 < core1.p < math.inf
    if core1 == core2 == _L2:
        found = _l2_closed_form(s)
    elif batch and smooth and (isinstance(core1, Lp) or len(core1.weights) == n):
        found = [_power_search(core1, core2, m) for m in s]
    elif (vertices := l1_vertices(core1, n)) is not None:
        found = _vertex_search(core1, core2, s, vertices)
    elif batch and (constraints := _moduli_constraints(core1, n)) is not None:
        found = _polyhedral_search(core2, s, _ball_vertices(core1, *constraints))
    else:
        found = [
            maximize_on_sphere(
                lambda x, m=m: vnorm_eval(core2, m @ x),
                core1,
                n,
                budget,
                # N2(A(ax)) = |a| N2(Ax): core2 is a norm descriptor validated at construction
                objective_homogeneous=True,
                extra_seeds=_quality_seeds(m),
            )
            for m in s
        ]
    scale = g2 / g1
    return [
        ComputationResult(
            value=scale * res.value,
            witness=res.witness if g1 == 1.0 else res.witness / g1,
            exactness=res.exactness,
            evaluations=res.evaluations,
        )
        for res in found
    ]


def gind_eval(pair: GInd, a, budget: OptBudget | None = None) -> ComputationResult:
    """Evaluate the generalized induced norm of A for the given pair: the one
    result of :func:`gind_eval_many` for the stack of A alone, whose
    docstring gives the routes.  A matrix with an infinite or NaN entry
    raises :class:`~normlab.errors.NonFiniteInputError`."""
    return gind_eval_many(pair, as_matrix(a)[None], budget)[0]


def _conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def vnorm_dual_eval(spec: VectorNormSpec, v, budget: OptBudget | None = None) -> float:
    """max{ |<v, x>| : ||x||_spec = 1 } with <v, x> = sum conj(v_i) x_i.

    Closed form (the conjugate-exponent identity) for Lp and WeightedLp
    cores.  Otherwise |<v, x>| = ||Mx||_1 for the M whose row 0 is conj(v)
    and whose other rows are 0, so the dual is :func:`gind_eval` of M from
    the spec to l1 at the given budget: to 1e-9 relative for a polyhedral
    spec, a lower bound otherwise.
    """
    w = as_vector(v)
    gamma, core = split_scale(spec)
    if isinstance(core, Lp):
        return float(lp_of_moduli(np.abs(w)[None], _conjugate_exponent(core.p))[0]) / gamma
    if isinstance(core, WeightedLp):
        if len(core.weights) != w.size:
            raise DimensionMismatchError(
                f"weighted norm has {len(core.weights)} weights, vector has {w.size}"
            )
        q = _conjugate_exponent(core.p)
        return float(lp_of_moduli((np.abs(w) / np.asarray(core.weights))[None], q)[0]) / gamma

    n = w.size
    if budget is None:
        budget = OptBudget(multistarts=4, max_iters=200, samples=16 * n, seed=0)
    m = np.zeros((n, n), dtype=np.complex128)
    m[0] = np.conj(w)
    return gind_eval(GInd(spec, Lp(1.0)), m, budget).value


def sum_functional_alpha(
    spec: VectorNormSpec, n: int, budget: OptBudget | None = None
) -> float:
    """max{ |sum_j y_j| : ||y||_spec = 1 }, the dual norm of the all-ones vector."""
    return vnorm_dual_eval(spec, np.ones(n, dtype=np.complex128), budget)


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

    The GInd row, with alpha and beta first made plain themselves and
    c = alpha*(1) the dual norm of the all-ones vector
    (:func:`sum_functional_alpha`), applies when alpha's core is an Lp, a
    WeightedLp with n weights, or polyhedral (a tree of Scaled and MaxOf
    over l1 and l-inf parts), whatever beta.  Then c is exact: the
    conjugate-exponent closed form, or the polydisc search, whose row-phase
    start attains the ceiling.  C_x = x 1^T maps y to (sum_j y_j) x, so
    N(C_x) = beta(x) alpha*(1); role 1 is at most c ||A|| alpha(x) =
    c alpha(x) when N(A) = 1, and a rank-one A = y f* attains it, with f a
    norming functional of x for alpha.  The induced norm of
    (c alpha, c beta) is N again, whatever c.  Every other spec, a MaxOf
    domain with a smooth part among them, is returned unchanged.
    """
    if not isinstance(spec, Extracted):
        return spec
    roles = _extracted_roles(spec.source, n)
    return spec if roles is None else roles[spec.role - 1]


def concrete_pair(pair: GInd, n: int) -> GInd:
    """Both norms of a pair made plain by :func:`concrete`.  When both are
    extracted from one source, its table row is built once, so a GInd
    source's c = alpha*(1) is computed once for the two roles."""
    a, b = pair.norm1, pair.norm2
    if not (isinstance(a, Extracted) or isinstance(b, Extracted)):
        return pair
    if isinstance(a, Extracted) and isinstance(b, Extracted) and a.source == b.source:
        roles = _extracted_roles(a.source, n)
        return pair if roles is None else GInd(roles[a.role - 1], roles[b.role - 1])
    return GInd(concrete(a, n), concrete(b, n))


def _extracted_roles(source, n: int):
    """(role 1, role 2) of :func:`concrete`'s table for a source, or None
    when the table has no row for it."""
    gamma, core = split_scale(source)
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
    elif isinstance(core, GInd):
        plain = concrete_pair(core, n)
        a = split_scale(plain.norm1)[1]
        lp = isinstance(a, Lp) or isinstance(a, WeightedLp) and len(a.weights) == n
        if not (lp or _moduli_constraints(a, n) is not None):
            return None
        c = sum_functional_alpha(plain.norm1, n)
        role1, role2 = Scaled(c, plain.norm1), Scaled(c, plain.norm2)
    else:
        return None
    return role1, (role2 if gamma == 1.0 else Scaled(gamma, role2))


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


def chain_pairs(pair: GInd) -> tuple[GInd, GInd, GInd, GInd]:
    """The four pairs of :class:`ChainReport`'s values, in the order v21,
    v11, v22, v12."""
    a, b = pair.norm1, pair.norm2
    return GInd(b, a), GInd(a, a), GInd(b, b), pair


def chain_report(v21: float, v11: float, v22: float, v12: float) -> ChainReport:
    """The chain report of the four values: v21 <= v11 <= v12 and
    v21 <= v22 <= v12, each up to 1e-9 relative slack."""
    slack = min(v11 - v21, v12 - v11, v22 - v21, v12 - v22)
    holds = slack >= -_CHAIN_SLACK * max(1.0, v12)
    return ChainReport(v21=v21, v11=v11, v22=v22, v12=v12, chain_holds=holds, slack=slack)


def chain_compare(pair: GInd, a, budget: OptBudget | None = None) -> ChainReport:
    """Compute all four domain/codomain combinations and check the chain.

    The chain is guaranteed only when norm1 <= norm2 pointwise; the
    computation runs regardless and reports what it finds.
    """
    m = as_matrix(a)
    return chain_report(*(gind_eval(p, m, budget).value for p in chain_pairs(pair)))


@dataclass
class DominanceReport:
    """sup ||x||_a / ||x||_b as ``max_ratio``: :func:`gind_eval` of the
    identity from b to a, with ``samples_used`` its objective evaluations.

    ``dominated`` means max_ratio <= 1 + 1e-9.  Both are exact where
    ``gind_eval`` is (an l1-type b, a polyhedral b with an a of l_p parts,
    l2 against l2); elsewhere "dominated" is evidence, not proof.  A
    counterexample, present when not dominated, lies on the b-unit sphere:
    a hard certificate.
    """

    dominated: bool
    counterexample: np.ndarray | None
    samples_used: int
    max_ratio: float


_DOMINANCE_SLACK = 1e-9


def dominance_check(
    spec_a: VectorNormSpec,
    spec_b: VectorNormSpec,
    n: int,
    samples: int = 256,
    rng: RandomStream = RandomStream(0),
) -> DominanceReport:
    """Compare ||x||_a with ||x||_b on C^n by one :func:`gind_eval` of the
    identity from b to a, with ``samples`` seed points if it draws any."""
    budget = OptBudget(
        multistarts=3, max_iters=150, samples=samples, seed=rng.child(1).derive_seed()
    )
    res = gind_eval(GInd(spec_b, spec_a), np.eye(n, dtype=np.complex128), budget)
    dominated = res.value <= 1.0 + _DOMINANCE_SLACK
    return DominanceReport(
        dominated=dominated,
        counterexample=None if dominated else res.witness,
        samples_used=res.evaluations,
        max_ratio=res.value,
    )


KNOWN_YES = "known_yes"
KNOWN_NO = "known_no"
UNKNOWN = "unknown"


def mnorm_is_algebra_candidate(spec: MatrixNormSpec) -> str:
    """Classify whether the norm is submultiplicative.

    Catalog norms carry a known verdict.  A GInd norm is classified by
    Lemma 2.1 (submultiplicative iff norm1 <= norm2 pointwise), which
    :func:`dominance_check` tests at n = 2 and 3 only: exactly where
    ``gind_eval`` is exact (an l1-type norm2, a polyhedral norm2 with a
    norm1 of l_p parts, l2 against l2), and elsewhere its "yes" is
    high-confidence rather than proven.  A ratio inside the tolerance band
    yields ``unknown``.
    """
    if isinstance(spec, (EntrywiseSum, MaxColSum, MaxRowSum, Spectral)):
        return KNOWN_YES
    if isinstance(spec, EntrywiseMax):
        return KNOWN_NO
    if isinstance(spec, MaxOf):
        verdicts = {mnorm_is_algebra_candidate(p) for p in spec.parts}
        # a pointwise max of algebra norms is again an algebra norm
        return KNOWN_YES if verdicts == {KNOWN_YES} else UNKNOWN
    if isinstance(spec, Scaled):
        if spec.gamma >= 1.0 and mnorm_is_algebra_candidate(spec.inner) == KNOWN_YES:
            return KNOWN_YES
        return UNKNOWN
    if isinstance(spec, GInd):
        for n in (2, 3):
            report = dominance_check(
                spec.norm1, spec.norm2, n, samples=192, rng=RandomStream(0xD011, (n,))
            )
            if not report.dominated:
                return KNOWN_NO
            if report.max_ratio > 1.0 + 1e-12:
                return UNKNOWN  # inside the tolerance band: cannot call it
        return KNOWN_YES
    return UNKNOWN

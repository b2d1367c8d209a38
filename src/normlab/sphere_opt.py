"""Maximize absolutely homogeneous objectives over norm unit spheres.

Exact dispatch where the sphere has usable extreme-point structure (phase
multiples of the basis vectors for the l1 and weighted-l1 balls and of the
single-entry matrices for the entrywise-sum ball; the top eigenvector for l2
with a euclidean-of-linear objective), and one derivative-free multi-start
hill climb, :func:`_climb`, everywhere else.  The climb runs over one of two
search sets: the renormalized sphere itself, or, for convex objectives on an
entrywise-max ball, the torus of phase matrices exp(i theta)/gamma.  Ascent
results are honest lower bounds and are labeled as such.

:func:`maximize_on_polydisc` is the deterministic alternative for convex
objectives on a polydisc {|x_j| <= r_j}, the unit ball of an l-inf or
weighted l-inf norm: a branch-and-bound over the phase torus of its extreme
points that stops within 1e-9 (relative) of the maximum or at a fixed cap on
scored points, whichever comes first.  ``gind_eval`` uses it for polyhedral
domains with a batch codomain: the best polydisc search over the vertices of
the ball of moduli.  Smooth l_p domains with a batch codomain take the
nonlinear power method in ``gind`` instead, from the climb's own seed pool
(:func:`seed_pool`).  :func:`maximize_on_sphere` itself keeps the climb for
both.

The climb scores candidates in one of two ways.  When the caller gives a
batch form of the objective and the domain norm has one
(:func:`~normlab.vector_norms.has_batch_form`), as ``gind_eval`` does for
the pairs of plain descriptors it still climbs (MaxOf domains with a smooth
part), the starts run in lockstep: the climb scores the rest of each sweep
of every start in one call per round and walks each start's scores in
order.  Everything else
(other ``Extracted`` norms, the matrix sphere, the phase torus, callers' own
callables) climbs one start after another and scores lazily, one candidate
at a time, so no objective call is spent on a candidate the walk never
reaches.  Both take the same steps and return the same bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .budget import (
    EXACT_CLOSED_FORM,
    EXACT_VERTEX,
    LOWER_BOUND,
    ComputationResult,
    OptBudget,
    default_budget,
)
from .core import RandomStream, hermitian_top_eig, sample_matrix, sample_vector, scaled_gram
from .errors import HomogeneityError
from .matrix_norms import EntrywiseMax, EntrywiseSum, mnorm_eval
from .vector_norms import Lp, WeightedLp, has_batch_form, split_scale, vnorm_eval, vnorm_eval_many

_TINY = 1e-300
_GROWTH = 1.3
_DECAY = 0.7


def _check_homogeneity(objective, draw_point, g: np.random.Generator) -> int:
    """Probe objective(a x) = |a| objective(x) at 10 random (x, a) pairs."""
    for _ in range(10):
        x = draw_point(g)
        a = complex((0.3 + 2.7 * g.random()) * np.exp(2j * np.pi * g.random()))
        lhs = objective(a * x)
        rhs = abs(a) * objective(x)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
            raise HomogeneityError(
                f"objective is not absolutely homogeneous: f(ax)={lhs!r} vs |a|f(x)={rhs!r}"
            )
    return 20


def _rank_starts(values: Sequence[float], k: int) -> list[int]:
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return order[:k]


def _sphere_moves(x: np.ndarray, step: float):
    """Per-entry moves on the renormalized sphere, and the random moves' reach.

    Small phase rotations and modulus scalings are lossless along the
    sphere, which additive steps are not near polydisc corners; a zero entry
    gets four small injections instead.
    """
    scale = math.sqrt(np.vdot(x, x).real)
    inject = step * scale / math.sqrt(x.size)
    phase = complex(math.cos(step), math.sin(step))

    def entry_moves(entry):
        if entry == 0:
            return (inject, -inject, 1j * inject, -1j * inject)
        return (entry * phase, entry * phase.conjugate(), entry * (1.0 + step), entry / (1.0 + step))

    return entry_moves, step * scale


def _sphere_direction(g: np.random.Generator, shape) -> np.ndarray:
    re, im = g.standard_normal((2,) + shape)
    d = re + 1j * im
    return d / math.sqrt(np.vdot(d, d).real)


def _torus_moves(theta: np.ndarray, step: float):
    """Each phase moves by +-step; the random moves reach step * pi."""
    return (lambda t: (t + step, t - step)), step * np.pi


def _torus_direction(g: np.random.Generator, shape) -> np.ndarray:
    d = g.standard_normal(shape)
    return d / np.linalg.norm(d.ravel())


# (per-sweep moves, moves per entry, unit random direction, child-stream base
# of the starts)
_SPHERE = (_sphere_moves, 4, _sphere_direction, 100)
_TORUS = (_torus_moves, 2, _torus_direction, 200)


def _climb(evaluate, pool: list, move_set, budget: OptBudget, rng: RandomStream,
           evaluate_many=None):
    """Multi-start hill climb; returns (best value, best point, evaluations).

    ``evaluate(raw)`` scores a raw point as ``(value, point)`` on the search
    set, or returns None when the raw point has no image there; such points
    are neither scored nor counted.  The ``budget.multistarts`` best seeds
    are climbed, each from its own random stream.  Each sweep tries the move
    set's moves for every entry, all built from the entry's value at the
    start of its turn, plus two random directions in both signs; the other
    entries and the random moves always start from the current point.  A
    candidate is accepted when it beats the current value by a factor
    1 + 1e-15.  The step grows 1.3x after an improving sweep and decays 0.7x
    after a fully failed one; ``budget.max_iters`` caps scored candidates
    per start.  Ties across starts and seeds resolve to the lowest index,
    keeping results schedule-independent.

    Without ``evaluate_many`` each start climbs in turn and candidates are
    built and scored lazily, one at a time.  ``evaluate_many``, the array
    form of ``evaluate`` on the renormalized sphere (:func:`_on_sphere_many`),
    runs the starts in lockstep instead (:func:`_lockstep_climb`): it scores
    the rest of each sweep of every start in one call per round.  Both walk
    every start's sweeps in the same order, so the result and the
    evaluation count are the same bits either way.
    """
    if evaluate_many is not None:
        return _lockstep_climb(evaluate_many, pool, budget, rng)
    sweep_moves, per_entry, direction, stream_base = move_set
    seeds = [scored for scored in map(evaluate, pool) if scored is not None]
    if not seeds:
        raise HomogeneityError("no seed lies on the domain sphere")
    evals = len(seeds)

    best_val, best_x = -math.inf, None
    for idx in _rank_starts([v for v, _ in seeds], budget.multistarts):
        val, x = seeds[idx]
        g = rng.child(stream_base + idx).generator()
        step = budget.step_init
        used = 0
        while step >= budget.tol and used < budget.max_iters:
            entry_moves, reach = sweep_moves(x, step)
            offsets = [reach * direction(g, x.shape) for _ in range(2)]
            entries = x.size * per_entry
            improved = False
            for pos in range(entries + 2 * len(offsets)):
                if pos < entries:
                    k, j = divmod(pos, per_entry)
                    if j == 0:  # the entry's moves are fixed at the start of its turn
                        moves = entry_moves(x.flat[k])
                    raw = x.copy()
                    raw.flat[k] = moves[j]
                else:
                    r = pos - entries
                    raw = x - offsets[r // 2] if r % 2 else x + offsets[r // 2]
                scored = evaluate(raw)
                if scored is None:
                    continue
                used += 1
                if scored[0] > val * (1.0 + 1e-15):
                    val, x = scored
                    improved = True
                if used >= budget.max_iters:
                    break
            step *= _GROWTH if improved else _DECAY
        evals += used
        if val > best_val:
            best_val, best_x = val, x

    # include seeds that were not ascended from
    for val, x in seeds:
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x, evals


def _entry_moves_many(x: np.ndarray, step: np.ndarray, inject: np.ndarray) -> np.ndarray:
    """Every entry's :func:`_sphere_moves` moves for each row of x, (S, n, 4).

    Row i uses ``step[i]`` and ``inject[i]``.  The phase rotations are
    spelled out in real arithmetic: numpy's array complex multiply may fuse
    a product and a sum (FMA) and then differs in the last bit from the
    scalar ``np.complex128 * complex`` product the one-at-a-time walk uses.
    """
    cos = np.array([math.cos(t) for t in step.tolist()])[:, None]
    sin = np.array([math.sin(t) for t in step.tolist()])[:, None]
    grow = (1.0 + step)[:, None]
    a, b = x.real, x.imag
    moves = np.empty(x.shape + (4,), dtype=np.complex128)
    moves.real[..., 0] = a * cos - b * sin
    moves.imag[..., 0] = a * sin + b * cos
    moves.real[..., 1] = a * cos + b * sin
    moves.imag[..., 1] = b * cos - a * sin
    moves[..., 2] = x * grow
    moves[..., 3] = x / grow
    zero = x == 0
    if zero.any():  # (inject, -inject, 1j * inject, -1j * inject), zeros +0
        inj = np.broadcast_to(inject[:, None], x.shape)[zero]
        injections = np.zeros((inj.size, 4), dtype=np.complex128)
        injections.real[:, 0], injections.real[:, 1] = inj, -inj
        injections.imag[:, 2], injections.imag[:, 3] = inj, -inj
        moves[zero] = injections
    return moves


def _lockstep_climb(evaluate_many, pool: list, budget: OptBudget, rng: RandomStream):
    """:func:`_climb` over the renormalized sphere with every start in lockstep.

    ``evaluate_many(rows)`` maps a 2-d array of raw points to ``(ok, values,
    points)``, the array form of ``evaluate``.  Each round, every live start
    contributes the rest of its current sweep, built from its current point
    and cut at the candidates its budget has left; all rows are scored in
    one call.  Each start's segment is then walked as one candidate at a
    time would be: rows that are not ``ok`` are skipped uncounted, and the
    first row that beats the start's value is its move, after which its rest
    is rebuilt from the new point in the next round.  Because a segment never
    outruns the budget, the budget stop falls at a segment's end.  Each start
    draws its random directions from its own stream, banked a few sweeps at
    a time.
    """
    ok, vals, points = evaluate_many(np.asarray(pool))
    if not ok.any():
        raise HomogeneityError("no seed lies on the domain sphere")
    seed_vals, seed_points = vals[ok], points[ok]
    starts = _rank_starts(seed_vals.tolist(), budget.multistarts)
    stream_base = _SPHERE[3]
    n = seed_points.shape[1]
    entries = 4 * n
    size = entries + 4
    cols = np.arange(entries)
    lane = np.arange(size)

    val = seed_vals[starts]
    x = seed_points[starts]
    count = len(starts)
    step = np.full(count, budget.step_init)
    used = np.zeros(count, dtype=int)
    pos = np.zeros(count, dtype=int)
    improved = np.zeros(count, dtype=bool)
    inject = np.zeros(count)
    offsets = np.zeros((count, 2, n), dtype=np.complex128)
    moves = np.zeros((count, n, 4), dtype=np.complex128)
    gens = [rng.child(stream_base + idx).generator() for idx in starts]
    # per start, pairs of (re, im) normal draws for a few sweeps ahead
    banked = min(64, -(-budget.max_iters // size) + 1)
    bank = np.stack([g.standard_normal((banked, 2, 2, n)) for g in gens])
    drawn = np.zeros(count, dtype=int)

    live = np.flatnonzero(step >= budget.tol)
    opening = live
    while live.size:
        if opening.size:
            for i in opening[drawn[opening] == banked].tolist():
                bank[i] = gens[i].standard_normal((banked, 2, 2, n))
                drawn[i] = 0
            draws = bank[opening, drawn[opening]]
            drawn[opening] += 1
            d = draws[:, :, 0] + 1j * draws[:, :, 1]
            d = d / vnorm_eval_many(Lp(2.0), d.reshape(-1, n)).reshape(-1, 2, 1)
            reach = step[opening] * vnorm_eval_many(Lp(2.0), x[opening])
            inject[opening] = reach / math.sqrt(n)
            offsets[opening] = reach[:, None, None] * d
            pos[opening] = 0
            improved[opening] = False

        xl, lo = x[live], pos[live]
        fresh = _entry_moves_many(xl, step[live], inject[live])
        renew = (4 * np.arange(n) >= lo[:, None])[..., None]
        moves[live] = np.where(renew, fresh, moves[live])
        cands = np.empty((live.size, size, n), dtype=np.complex128)
        cands[:, :entries] = xl[:, None, :]
        cands[:, cols, cols // 4] = moves[live].reshape(live.size, entries)
        cands[:, entries::2] = xl[:, None, :] + offsets[live]
        cands[:, entries + 1 :: 2] = xl[:, None, :] - offsets[live]
        hi = np.minimum(size, lo + budget.max_iters - used[live])
        rows = cands[(lane >= lo[:, None]) & (lane < hi[:, None])]

        ok, vals, points = evaluate_many(rows)
        first_row = np.concatenate(([0], np.cumsum(hi - lo)))
        beats = ok & (vals > np.repeat(val[live] * (1.0 + 1e-15), hi - lo))
        marks = np.where(beats, np.arange(len(rows)), len(rows))
        accepted = np.minimum.reduceat(marks, first_row[:-1])
        hit = accepted < len(rows)
        stop = np.where(hit, accepted + 1, first_row[1:])
        counted = np.concatenate(([0], np.cumsum(ok)))
        used[live] += counted[stop] - counted[first_row[:-1]]
        pos[live] += stop - first_row[:-1]
        movers, at = live[hit], accepted[hit]
        val[movers], x[movers], improved[movers] = vals[at], points[at], True

        ended = live[(pos[live] >= size) | (used[live] >= budget.max_iters)]
        step[ended] *= np.where(improved[ended], _GROWTH, _DECAY)
        going = (step >= budget.tol) & (used < budget.max_iters)
        opening = ended[going[ended]]
        live = live[going[live]]

    best_val, best_x = -math.inf, None
    for v, point in zip(val.tolist(), x):
        if v > best_val:
            best_val, best_x = v, point
    # include seeds that were not ascended from
    for v, point in zip(seed_vals.tolist(), seed_points):
        if v > best_val:
            best_val, best_x = v, point
    return best_val, best_x, len(seed_vals) + int(used.sum())


# the polydisc search's pruning tolerance, its cap on scored rows (which
# bounds flat maxima), the rows per objective call (which bounds memory) and
# the tolerance of its ceiling test, all relative where not counts
_POLYDISC_TOL = 1e-9
_POLYDISC_CAP = 400_000
_POLYDISC_CHUNK = 2048
_CEILING_TOL = 1e-12


def maximize_on_polydisc(objective_many, radii, starts, ceiling: float) -> ComputationResult:
    """max{ f(x) : |x_j| <= r_j } by branch-and-bound on the phase torus.

    ``objective_many`` maps a 2-d array of points to the values of a convex,
    absolutely homogeneous f.  Convexity puts the maximum on the extreme
    points x_j = r_j exp(i theta_j), and homogeneity fixes theta_0 = 0.  The
    caller's ``starts`` (rows) are scored first; if the best reaches
    ``ceiling``, an upper bound on f over the polydisc, within 1e-12
    relative, the search ends there.  Otherwise each coordinate's circle
    starts as 4 arcs.  The arc [c - h, c + h] lies in the triangle with
    vertices exp(i(c -+ h)) and exp(ic)/cos h, so by convexity the largest
    value over a box's vertex combinations bounds f on the box, and its
    endpoint combinations are feasible points.  Boxes whose bound is within
    1e-9 (relative) of the best feasible value are dropped, and the rest
    split, until none is left or the row cap is reached.  With one free
    coordinate each live arc splits into 16 sub-arcs per round, so a search
    makes a handful of objective calls of a few hundred rows; with d >= 2
    free coordinates each box is halved in every coordinate, since a q-way
    split makes q**d children of a box and at d >= 2 costs more in rows than
    it saves in calls.

    The result is the best feasible point found and its value, labelled a
    lower bound; ``evaluations`` counts the rows scored, the caller's starts
    included.  No random draws: equal inputs give equal bits.
    """
    r = np.asarray(radii, dtype=np.float64)
    points = np.asarray(starts, dtype=np.complex128)
    vals = objective_many(points)
    k = int(np.argmax(vals))
    best, witness = float(vals[k]), points[k]
    evals = len(points)
    if best >= ceiling * (1.0 - _CEILING_TOL):
        return ComputationResult(best, witness, LOWER_BOUND, evals)

    d = r.size - 1
    # per free coordinate: 0 and 1 pick the arc ends c - h and c + h, 2 the apex
    choice = np.array(list(itertools.product(range(3), repeat=d)), dtype=int).reshape(3**d, d)
    ends = np.flatnonzero((choice < 2).all(axis=1))
    # each box splits into q parts per coordinate, centred at c + h((2j+1)/q - 1)
    q = 16 if d == 1 else 2
    parts = [(2 * j + 1) / q - 1.0 for j in range(q)]
    splits = np.array(list(itertools.product(parts, repeat=d))).reshape(q**d, d)
    h = np.pi / 4
    arcs = (2 * np.arange(4) + 1) * h
    centers = np.array(list(itertools.product(arcs, repeat=d))).reshape(4**d, d)
    per_box = len(choice)
    boxes_per_chunk = max(1, _POLYDISC_CHUNK // per_box)
    while len(centers) and evals + len(centers) * per_box <= _POLYDISC_CAP:
        # the vertices of the box centred at c are exp(ic) times the rows here
        turns = np.array([np.exp(-1j * h), np.exp(1j * h), 1.0 / math.cos(h)])
        offsets = turns[choice] * r[1:]
        uppers = np.empty(len(centers))
        for lo in range(0, len(centers), boxes_per_chunk):
            chunk = centers[lo : lo + boxes_per_chunk]
            rows = np.empty((len(chunk), per_box, d + 1), dtype=np.complex128)
            rows[..., 0] = r[0]
            rows[..., 1:] = np.exp(1j * chunk)[:, None, :] * offsets
            vals = objective_many(rows.reshape(-1, d + 1)).reshape(len(chunk), per_box)
            uppers[lo : lo + len(chunk)] = vals.max(axis=1)
            at_ends = vals[:, ends]
            k = int(np.argmax(at_ends))
            if at_ends.flat[k] > best:
                box, end = divmod(k, len(ends))
                best, witness = float(at_ends.flat[k]), rows[box, ends[end]].copy()
        evals += len(centers) * per_box
        live = centers[uppers > best * (1.0 + _POLYDISC_TOL)]
        centers = (live[:, None, :] + h * splits).reshape(len(live) * len(splits), d)
        h /= q
    return ComputationResult(best, witness, LOWER_BOUND, evals)


def _on_sphere(objective, domain_eval):
    """Scorer for :func:`_climb` over the renormalized sphere {domain_eval = 1}."""

    def evaluate(raw):
        dn = domain_eval(raw)
        if not math.isfinite(dn) or dn < _TINY:
            return None
        point = raw / dn
        return objective(point), point

    return evaluate


def _on_sphere_many(objective_many, domain_norm):
    """Array form of :func:`_on_sphere` for a domain descriptor with a batch
    form: rows map to ``(ok, values, points)``, where ``ok`` marks the rows
    with a point on the sphere and, on those rows, values and points equal
    :func:`_on_sphere`'s bit for bit; the other rows hold NaN and zeros."""

    def evaluate_many(rows):
        rows = np.asarray(rows, dtype=np.complex128)
        dn = vnorm_eval_many(domain_norm, rows)
        ok = (dn >= _TINY) & (dn < math.inf)
        if ok.all():  # the usual case; masking every batch costs gind-mix ~15%
            points = rows / dn[:, None]
            return ok, objective_many(points), points
        points = np.zeros_like(rows)
        points[ok] = rows[ok] / dn[ok, None]
        vals = np.full(len(rows), math.nan)
        vals[ok] = objective_many(points[ok])
        return ok, vals, points

    return evaluate_many


def _valid_seeds(extra_seeds: Iterable[np.ndarray], shape: tuple) -> list[np.ndarray]:
    """Caller-supplied seeds of the right shape that are not zero."""
    out = []
    for seed in extra_seeds:
        s = np.asarray(seed, dtype=np.complex128)
        if s.shape == shape and np.any(s != 0):
            out.append(s)
    return out


def seed_pool(n: int, budget: OptBudget, extra_seeds: Iterable[np.ndarray] = ()) -> list[np.ndarray]:
    """The starting points of a sphere search in C^n, unnormalized: the basis
    vectors, the all-ones vector, n random phase vectors, the nonzero
    ``extra_seeds`` of shape (n,) and ``budget.samples`` complex Gaussian
    draws, the random ones from stream 0 of ``budget.seed``."""
    g = RandomStream(budget.seed).child(0).generator()
    pool: list[np.ndarray] = list(np.eye(n, dtype=np.complex128))
    pool.append(np.ones(n, dtype=np.complex128))
    pool.extend(np.exp(2j * np.pi * g.random(n)) for _ in range(n))
    pool.extend(_valid_seeds(extra_seeds, (n,)))
    # one draw for every Gaussian seed: the bits and the stream state of
    # budget.samples sample_vector calls
    draws = g.standard_normal((budget.samples, 2, n))
    pool.extend((draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0))
    return pool


def _finish(objective, domain_eval, witness, exactness, evals) -> ComputationResult:
    dn = domain_eval(witness)
    w = witness / dn
    return ComputationResult(
        value=float(objective(w)), witness=w, exactness=exactness, evaluations=evals
    )


def _best_vertex(objective, domain_eval, verts, evals, gamma=1.0) -> ComputationResult:
    """Exact maximum of a convex objective over a ball whose extreme points
    are the phase multiples of ``verts / gamma``; ties go to the lowest index."""
    vals = [objective(v / gamma) for v in verts]
    j = max(range(len(verts)), key=lambda i: (vals[i], -i))
    return _finish(objective, domain_eval, verts[j], EXACT_VERTEX, evals + len(verts))


def maximize_on_sphere(
    objective: Callable[[np.ndarray], float],
    domain_norm,
    n: int,
    budget: OptBudget | None = None,
    *,
    linear_l2: np.ndarray | None = None,
    objective_convex: bool = True,
    objective_homogeneous: bool = False,
    extra_seeds: Iterable[np.ndarray] = (),
    use_dispatch: bool = True,
    objective_many: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ComputationResult:
    """max{ objective(x) : ||x||_domain = 1 } over x in C^n.

    l1 and weighted-l1 domains dispatch exactly to their vertices for convex
    objectives.  ``linear_l2``, when given, declares objective(x) =
    l2(linear_l2 @ x) and unlocks the closed form on l2-type domains.
    Everything else runs the hill climb over the renormalized sphere, seeded
    with the basis vectors, the all-ones vector, n random phase vectors, the
    caller's ``extra_seeds`` and ``budget.samples`` Gaussian draws, and is a
    lower bound.  ``objective_convex`` is a caller assertion enabling vertex
    dispatch.  ``objective_homogeneous`` is a caller assertion that
    objective(a x) = |a| objective(x); without it, absolute homogeneity is
    probed at 10 random points and a violation raises ``HomogeneityError``.
    The result's ``evaluations`` counts every objective call, including the
    probe's 20 when it runs.  ``objective_many``, when given, maps a 2-d
    array of points to their objective values, each equal to ``objective``
    of its row bit for bit; with a domain that has a batch form
    (:func:`~normlab.vector_norms.has_batch_form`) the climb then scores its
    candidates in batches, with the same result.
    """
    if budget is None:
        budget = default_budget(n)
    rng = RandomStream(budget.seed)
    evals = 0
    if not objective_homogeneous:
        evals = _check_homogeneity(
            objective, lambda g: sample_vector(g, n), rng.child(777).generator()
        )

    _, core = split_scale(domain_norm)
    domain_eval = functools.partial(vnorm_eval, domain_norm)
    eye = np.eye(n, dtype=np.complex128)
    dispatch = use_dispatch and objective_convex

    if dispatch and isinstance(core, Lp) and core.p == 1.0:
        return _best_vertex(objective, domain_eval, list(eye), evals)
    if dispatch and isinstance(core, WeightedLp) and core.p == 1.0 and len(core.weights) == n:
        verts = [eye[j] / w for j, w in enumerate(core.weights)]
        return _best_vertex(objective, domain_eval, verts, evals)
    if use_dispatch and linear_l2 is not None and isinstance(core, Lp) and core.p == 2.0:
        res = hermitian_top_eig(scaled_gram(linear_l2)[0], rng=rng.child(1))
        return _finish(objective, domain_eval, res.eigenvector, EXACT_CLOSED_FORM, evals + 1)

    pool = seed_pool(n, budget, extra_seeds)
    many = None
    if objective_many is not None and has_batch_form(domain_norm):
        many = _on_sphere_many(objective_many, domain_norm)
    val, x, climbed = _climb(_on_sphere(objective, domain_eval), pool, _SPHERE, budget, rng, many)
    return _finish(objective, domain_eval, x, LOWER_BOUND, evals + climbed)


def maximize_on_matrix_sphere(
    objective: Callable[[np.ndarray], float],
    domain_norm,
    n: int,
    budget: OptBudget | None = None,
    *,
    objective_convex: bool = True,
    objective_homogeneous: bool = False,
    extra_seeds: Iterable[np.ndarray] = (),
    use_dispatch: bool = True,
) -> ComputationResult:
    """max{ objective(A) : ||A||_domain = 1 } over A in M_n.

    Entrywise-sum domains dispatch exactly to single-entry vertices for
    convex objectives.  Entrywise-max domains run the hill climb over the
    phase matrices exp(i theta)/gamma, the ball's extreme points, seeded with
    theta = 0, the phases of caller seeds without zero entries and random
    phases; the plain seeds below are scored as well.  Everything else runs
    the hill climb over the renormalized sphere, seeded with the identity,
    all single-entry matrices, the all-ones matrix, the caller's
    ``extra_seeds`` and ``budget.samples`` Gaussian draws.  Both climbs give
    lower bounds.  ``objective_convex`` and ``objective_homogeneous`` are
    caller assertions with the same meaning as in
    :func:`maximize_on_sphere`: without the latter, absolute homogeneity is
    probed at 10 random matrices and a violation raises
    ``HomogeneityError``.  ``evaluations`` counts every objective call,
    including the probe's 20 when it runs.
    """
    if budget is None:
        budget = default_budget(n)
    rng = RandomStream(budget.seed)
    evals = 0
    if not objective_homogeneous:
        evals = _check_homogeneity(
            objective, lambda g: sample_matrix(g, n), rng.child(777).generator()
        )

    gamma, core = split_scale(domain_norm)
    domain_eval = functools.partial(mnorm_eval, domain_norm)
    dispatch = use_dispatch and objective_convex
    singles = list(np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n))

    if dispatch and isinstance(core, EntrywiseSum):
        return _best_vertex(objective, domain_eval, singles, evals, gamma)

    extras = _valid_seeds(extra_seeds, (n, n))
    pool = [np.eye(n, dtype=np.complex128), *singles, np.ones((n, n), dtype=np.complex128)]
    pool.extend(extras)
    on_sphere = _on_sphere(objective, domain_eval)
    g = rng.child(0).generator()

    if dispatch and isinstance(core, EntrywiseMax):
        thetas = [np.zeros((n, n))]
        thetas.extend(np.angle(s) for s in extras if np.all(np.abs(s) > 1e-12))
        thetas.extend(2.0 * np.pi * g.random((n, n)) for _ in range(max(2, budget.samples // 2)))
        val, theta, climbed = _climb(
            lambda th: (objective(np.exp(1j * th) / gamma), th), thetas, _TORUS, budget, rng
        )
        point = np.exp(1j * theta) / gamma
        # plain seeds cannot beat the torus for convex objectives, but keep
        # the monotone-improvement contract explicit
        for scored in map(on_sphere, pool):
            if scored is not None:
                climbed += 1
                if scored[0] > val:
                    val, point = scored
        return _finish(objective, domain_eval, point, LOWER_BOUND, evals + climbed)

    pool.extend(sample_matrix(g, n) for _ in range(budget.samples))
    val, x, climbed = _climb(on_sphere, pool, _SPHERE, budget, rng)
    return _finish(objective, domain_eval, x, LOWER_BOUND, evals + climbed)

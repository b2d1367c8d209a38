"""Maximize absolutely homogeneous objectives over norm unit spheres.

One body, :func:`_maximize`, behind two entry points that supply the shape:
:func:`maximize_on_sphere` over C^n and :func:`maximize_on_matrix_sphere`
over M_n.  Exact dispatch where the sphere has usable extreme-point
structure (phase multiples of the basis vectors for the l1 and weighted-l1
balls and of the single-entry matrices for the entrywise-sum ball), and one
derivative-free multi-start hill climb over the renormalized sphere,
:func:`_climb`, everywhere else, the entrywise-max ball included.  Ascent
results are honest lower bounds and are labeled as such.  The climb walks
its starts one after another and scores lazily, one candidate at a time.

:func:`maximize_on_polydisc` is the deterministic alternative for convex
objectives on a polydisc {|x_j| <= r_j}, the unit ball of an l-inf or
weighted l-inf norm: a branch-and-bound over the phase torus of its extreme
points that scores the corners each split's boxes share once, and stops
within 1e-9 (relative) of the maximum or at a fixed cap on scored points,
whichever comes first.  It takes a stack of matrices and runs the searches
of x -> f(Ax) for all of them in lockstep, with one objective call per
chunk.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable

import numpy as np

from .budget import (
    EXACT_VERTEX,
    LOWER_BOUND,
    ComputationResult,
    OptBudget,
    default_budget,
)
from .core import RandomStream, sample_matrices, sample_matrix, sample_vector, sample_vectors
from .errors import HomogeneityError
from .matrix_norms import EntrywiseSum, mnorm_eval
from .vector_norms import Lp, WeightedLp, split_scale, vnorm_eval

_TINY = 1e-300
# the climb's step schedule: its first relative step, the factors after an
# improving and a fully failed sweep, and the step below which a start stops
_STEP_INIT = 0.5
_GROWTH = 1.3
_DECAY = 0.7
_STEP_FLOOR = 1e-7


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


def _climb(evaluate, pool: Iterable[np.ndarray], budget: OptBudget, rng: RandomStream):
    """Multi-start hill climb on the renormalized sphere; returns (best
    value, best point, evaluations).

    ``evaluate(raw)`` scores a raw point as ``(value, point)`` on the
    sphere, or returns None when the raw point has no image there; such
    points are neither scored nor counted.  The ``budget.multistarts`` best
    seeds are climbed, start ``idx`` from child stream ``100 + idx``.  Each
    sweep tries the four :func:`_sphere_moves` of every entry, all built
    from the entry's value at the start of its turn, plus two random
    directions in both signs; the other entries and the random moves always
    start from the current point.  A candidate is accepted when it beats the
    current value by a factor 1 + 1e-15.  The step starts at 0.5, grows
    1.3x after an improving sweep and decays 0.7x after a fully failed one;
    ``budget.max_iters`` caps scored candidates per start, and a start also
    stops once its step decays below 1e-7, after 44 sweeps if none improves.
    Ties across starts and seeds resolve to the lowest index, keeping
    results schedule-independent.  The starts climb one after another, and
    candidates are built and scored lazily, one at a time, so no objective
    call is spent on a candidate the walk never reaches.
    """
    seeds = [scored for scored in map(evaluate, pool) if scored is not None]
    if not seeds:
        raise HomogeneityError("no seed lies on the domain sphere")
    evals = len(seeds)

    best_val, best_x = -math.inf, None
    starts = sorted(range(len(seeds)), key=lambda i: (-seeds[i][0], i))
    for idx in starts[: budget.multistarts]:
        val, x = seeds[idx]
        g = rng.child(100 + idx).generator()
        step = _STEP_INIT
        used = 0
        while step >= _STEP_FLOOR and used < budget.max_iters:
            entry_moves, reach = _sphere_moves(x, step)
            offsets = [reach * _sphere_direction(g, x.shape) for _ in range(2)]
            entries = x.size * 4
            improved = False
            for pos in range(entries + 2 * len(offsets)):
                if pos < entries:
                    k, j = divmod(pos, 4)
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


# the polydisc search's pruning tolerance, its cap on scored rows (which
# bounds flat maxima), the rows per objective call (which bounds memory) and
# the tolerance of its ceiling test, all relative where not counts
_POLYDISC_TOL = 1e-9
_POLYDISC_CAP = 400_000
_POLYDISC_CHUNK = 2048
_CEILING_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def _round_tables(d: int, t: int):
    """The tables of round t of a search in d free phases.  Round 0 splits
    one box of half-width pi 4 ways per coordinate; each later round splits
    boxes of half-width h, the one before's half-width over its q, 16 ways
    with one free phase and 2 ways with more.

    Per coordinate the children share 2q + 1 points: arc ends at even
    positions 0, 2, ..., 2q and the children's apexes at odd ones.  Returns
    the parent's grid of (2q+1)**d points as rows of per-coordinate
    positions, each child's 3**d grid points as flat indices into that grid
    (q**d rows), the grid points that are ends in every coordinate, the
    children's centres relative to their parent's, and the 2q + 1 points of
    a split arc relative to its centre on the unit circle: ends exp(ijh) at
    even j, apexes exp(ijh) / cos h at odd j, for j = -q..q and h = half / q.
    """
    half, q = np.pi, 4
    for _ in range(t):
        half, q = half / q, (16 if d == 1 else 2)
    grid = np.array(list(itertools.product(range(2 * q + 1), repeat=d)), dtype=np.intp)
    kids = np.array(list(itertools.product(range(q), repeat=d)), dtype=np.intp)
    corners = np.array(list(itertools.product(range(3), repeat=d)), dtype=np.intp)
    grid, kids, corners = (a.reshape(-1, d) for a in (grid, kids, corners))
    place = (2 * q + 1) ** np.arange(d - 1, -1, -1)
    children = (2 * kids[:, None, :] + corners[None]) @ place
    ends = np.flatnonzero((grid % 2 == 0).all(axis=1))
    h = half / q
    j = np.arange(-q, q + 1)
    turns = np.exp(1j * h * j) * np.where(j % 2, 1.0 / math.cos(h), 1.0)
    return grid, children, ends, half * ((2 * kids + 1) / q - 1.0), turns


def maximize_on_polydisc(objective_many, radii, starts, ceilings, maps) -> list:
    """max{ f(A_i x) : |x_j| <= r_j } by branch-and-bound on the phase torus,
    for every matrix A_i of a (k, m, c) stack ``maps``.

    ``objective_many`` maps a 2-d array of images A_i x to the values of a
    convex, absolutely homogeneous f.  Convexity puts the maximum on the
    extreme points x_j = r_j exp(i theta_j), and homogeneity fixes
    theta_0 = 0.  ``starts[i]`` is the best of the caller's starting points
    for A_i: its value, the point, and the rows the caller scored to find
    it.  If its value reaches ``ceilings[i]``, an upper bound on f(A_i x)
    over the polydisc, within 1e-12 relative, that search ends there and
    returns it.  Otherwise the boxes of phases are searched round by round.
    The arc [c - h, c + h] lies in the triangle with vertices exp(i(c -+ h))
    and exp(ic)/cos h, so by convexity the largest value over a box's 3**d
    vertex combinations bounds f on the box, and its endpoint combinations
    are feasible points.  Each round splits every live box q ways per
    coordinate; the q**d children share ends and apexes, 2q + 1 distinct
    points per coordinate, so the round scores the parent's (2q+1)**d grid
    once and takes each child's bound as the max over its 3**d grid points.
    The first round splits the whole torus, one box of half-width pi, 4
    ways; later rounds split 16 ways with one free coordinate, so a search
    makes a handful of objective calls, and 2 ways with d >= 2, where q**d
    children would cost more in rows than they save in calls.  Children
    whose bound is within 1e-9 (relative) of the best feasible value are
    dropped, the rest are the next round's parents, until none is left or
    the row cap is reached.

    The k searches run in lockstep: a round's split depends only on its
    number, each call of at most 2,048 rows takes one product per matrix and
    one objective call for all, and each search keeps its own best, witness,
    count and row cap, so result i has the bits of A_i's search alone, and a
    lone search is a stack of one.

    Result i is the best feasible point found for A_i and its value,
    labelled a lower bound; ``evaluations`` counts the rows scored, the
    caller's starts included.  No random draws: equal inputs give equal
    bits.
    """
    found = list(starts)
    d = len(radii) - 1
    runs = [
        _Run(i, res, d, maps[i].T)
        for i, (res, top) in enumerate(zip(found, ceilings))
        if not res.value >= top * (1.0 - _CEILING_TOL)
    ]
    r = np.asarray(radii, dtype=np.float64)
    axes, r_free = np.arange(d), r[1:, None]
    # every call's images, written piece by piece: a call takes at most
    # _POLYDISC_CHUNK rows, or one parent's grid, at most 9**d rows
    images = np.empty((max(_POLYDISC_CHUNK, 9**d), maps.shape[1]), dtype=np.complex128)

    def score(pieces, filled):
        """One objective call for the pieces' images, the first ``filled``
        rows of ``images``, one gather of their children's bounds, and each
        piece's (run, its parents lo:hi, their rows) best end point."""
        vals = objective_many(images[:filled]).reshape(-1, per_parent)
        tops = vals[:, children].max(axis=2)
        at_ends = vals[:, ends]
        at = 0
        for run, lo, hi, rows in pieces:
            own = slice(at, at + hi - lo)
            at = own.stop
            run.uppers[lo:hi] = tops[own]
            mine = at_ends[own]
            k = mine.argmax()
            if mine.flat[k] > run.best:
                parent, end = divmod(k, len(ends))
                run.best, run.witness = float(mine.flat[k]), rows[parent, ends[end]].copy()

    t = 0
    while runs:
        grid, children, ends, offsets, turns = _round_tables(d, t)
        per_parent = len(grid)
        turns = turns * r_free
        # every live run's parents in turn, scored in calls of at most ``step``
        step = max(1, _POLYDISC_CHUNK // per_parent)
        pieces, room, live_runs = [], step, []
        for run in runs:
            centers, lo = run.centers, 0
            # a search ends when no box is live or its round would pass the cap
            if not len(centers) or run.evals + len(centers) * per_parent > _POLYDISC_CAP:
                found[run.index] = ComputationResult(run.best, run.witness, LOWER_BOUND, run.evals)
                continue
            live_runs.append(run)
            run.uppers = np.empty((len(centers), len(children)))
            while lo < len(centers):
                hi = min(len(centers), lo + room)
                rows = np.empty((hi - lo, per_parent, d + 1), dtype=np.complex128)
                rows[..., 0] = r[0]
                rows[..., 1:] = (np.exp(1j * centers[lo:hi])[..., None] * turns)[:, axes, grid]
                at = (step - room) * per_parent
                out = images[at : at + (hi - lo) * per_parent]
                np.matmul(rows.reshape(-1, d + 1), run.map_t, out)
                pieces.append((run, lo, hi, rows))
                room -= hi - lo
                lo = hi
                if not room:
                    score(pieces, step * per_parent)
                    pieces, room = [], step
        if pieces:
            score(pieces, (step - room) * per_parent)
        runs = live_runs
        for run in runs:
            run.evals += len(run.centers) * per_parent
            live = run.uppers > run.best * (1.0 + _POLYDISC_TOL)
            run.centers = (run.centers[:, None, :] + offsets)[live]
        t += 1
    return found


class _Run:
    """One search of :func:`maximize_on_polydisc` and its state: its result's
    index, best, witness, rows scored, live boxes' centres, matrix transpose
    and, in the round under way, its children's bounds."""

    __slots__ = ("index", "best", "witness", "evals", "centers", "map_t", "uppers")

    def __init__(self, index: int, start: ComputationResult, d: int, map_t):
        self.index, self.map_t = index, map_t
        self.best, self.witness, self.evals = start.value, start.witness, start.evaluations
        self.centers = np.full((1, d), np.pi)


def _on_sphere(objective, domain_eval):
    """Scorer for :func:`_climb` over the renormalized sphere {domain_eval = 1}."""

    def evaluate(raw):
        dn = domain_eval(raw)
        if not math.isfinite(dn) or dn < _TINY:
            return None
        point = raw / dn
        return objective(point), point

    return evaluate


def _valid_seeds(extra_seeds: Iterable[np.ndarray], shape: tuple) -> list[np.ndarray]:
    """Caller-supplied seeds of the right shape that are not zero."""
    out = []
    for seed in extra_seeds:
        s = np.asarray(seed, dtype=np.complex128)
        if s.shape == shape and np.any(s != 0):
            out.append(s)
    return out


def seed_pool(n: int, budget: OptBudget, extra_seeds: Iterable[np.ndarray] = ()) -> np.ndarray:
    """The starting points of a sphere search in C^n, unnormalized, as the
    rows of one array: the basis vectors, the all-ones vector, n random phase
    vectors, the nonzero ``extra_seeds`` of shape (n,) and ``budget.samples``
    complex Gaussian draws, the random ones from stream 0 of
    ``budget.seed``."""
    g = RandomStream(budget.seed).child(0).generator()
    # one draw for the phase vectors: the bits and the stream state of n
    # g.random(n) calls
    phases = np.exp(2j * np.pi * g.random((n, n)))
    extras = _valid_seeds(extra_seeds, (n,))
    gaussians = sample_vectors(g, n, budget.samples)
    return np.vstack([np.eye(n, dtype=np.complex128), np.ones(n), phases, *extras, gaussians])


def _maximize(objective, domain_eval, sample, n, budget, homogeneous, vertices, gamma, pool):
    """The body of both entry points: the probe unless ``homogeneous``, then
    the best of ``vertices`` (scored at ``v / gamma``, ties to the lowest
    index) or, when that is None, the climb from ``pool(budget)``; the
    witness is renormalized by ``domain_eval`` and rescored.  Only the climb
    reads the budget, so only the climb builds the default one, whose seed
    is 0."""
    rng = RandomStream(0 if budget is None else budget.seed)
    evals = 0
    if not homogeneous:
        evals = _check_homogeneity(objective, lambda g: sample(g, n), rng.child(777).generator())
    if vertices is not None:
        vals = [objective(v / gamma) for v in vertices]
        witness = vertices[max(range(len(vertices)), key=lambda i: (vals[i], -i))]
        exactness, evals = EXACT_VERTEX, evals + len(vertices)
    else:
        budget = budget or default_budget(n)
        _, witness, climbed = _climb(_on_sphere(objective, domain_eval), pool(budget), budget, rng)
        exactness, evals = LOWER_BOUND, evals + climbed
    w = witness / domain_eval(witness)
    return ComputationResult(float(objective(w)), w, exactness, evals)


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


def maximize_on_sphere(
    objective: Callable[[np.ndarray], float],
    domain_norm,
    n: int,
    budget: OptBudget | None = None,
    *,
    objective_convex: bool = True,
    objective_homogeneous: bool = False,
    extra_seeds: Iterable[np.ndarray] = (),
) -> ComputationResult:
    """max{ objective(x) : ||x||_domain = 1 } over x in C^n.

    l1 and weighted-l1 domains dispatch exactly to their vertices for convex
    objectives.  Everything else runs the hill climb over the renormalized
    sphere, seeded with the basis vectors, the all-ones vector, n random
    phase vectors, the caller's ``extra_seeds`` and ``budget.samples``
    Gaussian draws, and is a lower bound.  ``objective_convex`` is a caller
    assertion enabling vertex dispatch; ``objective_convex=False`` sends
    l1-type domains to the climb.  ``objective_homogeneous`` is a caller
    assertion that objective(a x) = |a| objective(x); without it, absolute
    homogeneity is probed at 10 random points and a violation raises
    ``HomogeneityError``.
    The result's ``evaluations`` counts every objective call, including the
    probe's 20 when it runs.
    """
    vertices = l1_vertices(split_scale(domain_norm)[1], n) if objective_convex else None
    return _maximize(
        objective, functools.partial(vnorm_eval, domain_norm), sample_vector, n, budget,
        objective_homogeneous, vertices, 1.0, lambda b: seed_pool(n, b, extra_seeds),
    )


def maximize_on_matrix_sphere(
    objective: Callable[[np.ndarray], float],
    domain_norm,
    n: int,
    budget: OptBudget | None = None,
    *,
    objective_convex: bool = True,
    objective_homogeneous: bool = False,
    extra_seeds: Iterable[np.ndarray] = (),
) -> ComputationResult:
    """max{ objective(A) : ||A||_domain = 1 } over A in M_n.

    Entrywise-sum domains dispatch exactly to single-entry vertices for
    convex objectives.  Every other domain, the entrywise-max ball included,
    runs the hill climb over the renormalized sphere, seeded with the
    identity, all single-entry matrices, the all-ones matrix, the caller's
    ``extra_seeds`` and ``budget.samples`` Gaussian draws, and gives a lower
    bound.  ``objective_convex`` and ``objective_homogeneous`` are caller
    assertions with the same meaning as in :func:`maximize_on_sphere`:
    without the latter, absolute homogeneity is probed at 10 random matrices
    and a violation raises ``HomogeneityError``.  ``evaluations`` counts
    every objective call, including the probe's 20 when it runs.
    """
    gamma, core = split_scale(domain_norm)
    singles = list(np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n))

    def pool(b):
        g = RandomStream(b.seed).child(0).generator()
        eye, ones = np.eye(n, dtype=np.complex128), np.ones((n, n), dtype=np.complex128)
        extras = _valid_seeds(extra_seeds, (n, n))
        return [eye, *singles, ones, *extras, *sample_matrices(g, n, b.samples)]

    vertices = singles if objective_convex and isinstance(core, EntrywiseSum) else None
    return _maximize(
        objective, functools.partial(mnorm_eval, domain_norm), sample_matrix, n, budget,
        objective_homogeneous, vertices, gamma, pool,
    )

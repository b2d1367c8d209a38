"""Property suites that pin the norm-comparison lemmas to machine checks.

Every suite is replayable from (suite name, seed) and reports three-valued
statuses (a tolerance-band miss is "inconclusive", never "fail").  The
suites compose public operations of the other modules, with one exception:
:func:`verify_theorem23` builds the minimality probe from the private
pieces of :mod:`normlab.extraction` (its probe matrices, ratios and
report), so that the fixed probes' ratios serve both its upper-bound case
and its probe.

Every sample set is drawn in stream order and shaped as one stack
(:func:`sample_test_matrices`, :func:`~normlab.core.sample_vectors`).  The
paper demos draw each case's matrices first and evaluate each induced norm
over the list in one :func:`~normlab.gind.gind_eval_many` call: case 2 one
per norm and dimension, case 3 its two pairs over the 30 draws and the
all-ones matrix, then whether any draw breaks the domination, case 5 each
pair's two points at each dimension, all drawn at once and checked a pair
at a time in one :func:`~normlab.extraction.alpha_identity_checks` (one call
over the stack of their C_x), and case 6 the four pairs of
:func:`~normlab.gind.chain_pairs` over its 15 draws, judged draw by draw by
:func:`~normlab.gind.chain_report`, the rule of
:func:`~normlab.gind.chain_compare`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .budget import OptBudget
from .core import RandomStream, check_sizes, complex_normals, sample_vectors
from .errors import DimensionMismatchError
from .extraction import (
    _WITNESS_TIE,
    _fixed_probes,
    _probe_ratios,
    _probe_report,
    _random_probes,
    GAP_FOUND,
    NO_GAP_FOUND,
    alpha_identity_checks,
    column_embed,
    column_replicate,
    eval_role2_many,
    extract_pair,
    minimality_probe,
)
from .gind import (
    KNOWN_YES,
    chain_pairs,
    chain_report,
    concrete_pair,
    dominance_check,
    gind_eval_many,
    mnorm_is_algebra_candidate,
)
from .matrix_norms import (
    EntrywiseMax,
    EntrywiseSum,
    GInd,
    MatrixNormSpec,
    MaxColSum,
    MaxRowSum,
    Spectral,
    mnorm_eval,
    mnorm_eval_many,
)
from .vector_norms import Lp, MaxOf, Scaled, has_batch_form, vnorm_eval, vnorm_eval_many

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CaseResult:
    description: str
    status: str
    values: dict[str, float] = field(default_factory=dict)
    witness: np.ndarray | list[np.ndarray] | None = None

    def __post_init__(self):
        self.values = {k: float(v) for k, v in self.values.items()}


@dataclass
class SuiteReport:
    """Replayable record of one property suite run."""

    suite_name: str
    seed: int
    cases: list[CaseResult]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.cases)


def sample_test_matrices(g: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` random matrices as a (count, n, n) stack, each a raw
    Gaussian, Hermitian-symmetrized, or rank-one draw.

    Rank-one draws have a single nonzero singular value and symmetrized ones
    real eigenvalues: two structured families beside the generic draw.  Each
    sample draws its kind, a matrix's real then imaginary parts, and for a
    rank-one kind those of u and then v, whose u v* replaces the matrix.  The
    draws go into one buffer in stream order, and the stack is shaped from
    it at once, with the bits and the stream state of one call per part.
    """
    check_sizes(n, count)
    # each sample's normals as rows of n: the matrix's real rows, its
    # imaginary rows, then the real and imaginary parts of u and of v; every
    # sample's u and v are shaped, so those a sample does not draw read 0
    flat = np.zeros((count, (2 * n + 4) * n))
    raw = flat.reshape(count, 2 * n + 4, n)
    kinds = np.empty(count, dtype=np.int64)
    for i in range(count):
        kinds[i] = kind = g.integers(3)
        g.standard_normal(out=flat[i] if kind == 2 else flat[i, : 2 * n * n])
    re, im = [*range(n), 2 * n, 2 * n + 2], [*range(n, 2 * n), 2 * n + 1, 2 * n + 3]
    z = complex_normals(raw[:, [re, im]].swapaxes(0, 1))
    a, u, v = z[:, :n], z[:, n, :, None], z[:, n + 1, None, :]
    kinds = kinds[:, None, None]
    sym = np.where(kinds == 1, (a + a.conj().swapaxes(1, 2)) / 2.0, a)
    return np.where(kinds == 2, u * v.conj(), sym)


def sample_test_matrix(g: np.random.Generator, n: int) -> np.ndarray:
    """Random matrix: raw Gaussian, Hermitian-symmetrized, or rank-one; the
    one matrix of :func:`sample_test_matrices`."""
    return sample_test_matrices(g, n, 1)[0]


# the budgets the suites run when given none, each run with its own seed;
# ``verify``'s --budget-* flags override their fields
SUITE_BUDGET = OptBudget(multistarts=3, max_iters=80, samples=8)
THEOREM23_BUDGET = OptBudget(multistarts=3, max_iters=40, samples=4)


def _suite_budget(seed: int, base: OptBudget = SUITE_BUDGET) -> OptBudget:
    return dataclasses.replace(base, seed=seed)


_SLACK = 1e-9
_BAND = 1e-6


def verify_lemma21(
    pair: GInd,
    n: int = 2,
    trials: int = 300,
    rng: RandomStream = RandomStream(0),
    budget: OptBudget | None = None,
) -> SuiteReport:
    """Submultiplicativity of the induced norm iff norm1 <= norm2 pointwise.

    When dominance holds, random products must respect the product bound;
    when it fails, a concrete product violation is hunted down starting from
    column replications of the dominance counterexample.  Every matrix is
    drawn first, and :func:`~normlab.gind.gind_eval_many` takes the A's, the
    B's and the products, or the candidates and then, one A at a time, its
    products with every candidate.
    """
    check_sizes(n, trials, 1)
    start = time.perf_counter()
    budget = budget or _suite_budget(rng.child(9).derive_seed())
    cases: list[CaseResult] = []

    dom = dominance_check(pair.norm1, pair.norm2, n, samples=256, rng=rng.child(0))
    cases.append(
        CaseResult(
            description="pointwise dominance of the domain norm by the codomain norm",
            status=PASS,
            values={"dominated": float(dom.dominated), "max_ratio": dom.max_ratio},
            witness=dom.counterexample,
        )
    )

    norms = lambda mats: [res.value for res in gind_eval_many(pair, mats, budget)]
    g = rng.child(1).generator()
    if dom.dominated:
        draws = sample_test_matrices(g, n, 2 * trials)
        a, b = draws[0::2], draws[1::2]
        worst = 0.0
        worst_pair = None
        for i, (na, nb, nab) in enumerate(zip(norms(a), norms(b), norms(a @ b))):
            if na * nb < 1e-12:
                continue
            ratio = nab / (na * nb)
            if ratio > worst:
                worst, worst_pair = ratio, [a[i], b[i]]
        if worst <= 1.0 + _SLACK:
            status = PASS
        elif worst <= 1.0 + _BAND:
            status = INCONCLUSIVE
        else:
            status = FAIL  # dominated yet violated: a true logic violation
        cases.append(
            CaseResult(
                description=f"submultiplicativity on {trials} random products",
                status=status,
                values={"worst_product_ratio": worst},
                witness=worst_pair if status != PASS else None,
            )
        )
    else:
        x0 = dom.counterexample
        embeds = [column_embed(x0, j) for j in range(n)]
        fixed = np.array([column_replicate(x0), *embeds, np.eye(n), np.ones((n, n))], dtype=complex)
        candidates = np.concatenate([fixed, sample_test_matrices(g, n, 8)])
        single = norms(candidates)
        found = None
        best = 0.0
        # the first product above the bound ends the hunt
        for a, na in zip(candidates, single):
            for b, nb, nab in zip(candidates, single, norms(a @ candidates)):
                if na * nb < 1e-12:
                    continue
                ratio = nab / (na * nb)
                if ratio > best:
                    best, found = ratio, [a, b]
                if ratio > 1.0 + _SLACK:
                    break
            if best > 1.0 + _SLACK:
                break
        status = PASS if best > 1.0 + _SLACK else INCONCLUSIVE
        cases.append(
            CaseResult(
                description="product violation witness for the non-dominated pair",
                status=status,
                values={"worst_product_ratio": best},
                witness=found,
            )
        )

    return SuiteReport("lemma21", rng.seed, cases, time.perf_counter() - start)


def verify_lemma22(
    pair_a: GInd,
    pair_b: GInd,
    n: int = 2,
    trials: int = 200,
    rng: RandomStream = RandomStream(0),
    budget: OptBudget | None = None,
    reference: np.ndarray | None = None,
) -> SuiteReport:
    """Two pairs induce the same norm iff they are a common rescaling.

    Estimates the scale from a reference point, tests proportionality of
    both slots at random points, and cross-checks induced values on random
    matrices.  "fail" is reserved for the inconsistent combination of
    proportional norms and a differing induced value.  Points and matrices
    are drawn first; each slot goes over the points in one
    :func:`vnorm_eval_many`, each pair over the matrices in one
    :func:`~normlab.gind.gind_eval_many`.
    """
    check_sizes(n, trials, 1)
    start = time.perf_counter()
    budget = budget or _suite_budget(rng.child(9).derive_seed())
    cases: list[CaseResult] = []
    # a slot with an extracted norm (no batch form) may read a lower bound
    slots = (pair_a.norm1, pair_a.norm2, pair_b.norm1, pair_b.norm2)
    tol = _SLACK if all(map(has_batch_form, slots)) else _BAND

    ref = np.ones(n, dtype=np.complex128) if reference is None else np.asarray(
        reference, dtype=np.complex128
    )
    if not np.any(ref):
        raise DimensionMismatchError("reference point must be nonzero")
    denom = vnorm_eval(pair_b.norm1, ref)
    gamma_hat = vnorm_eval(pair_a.norm1, ref) / denom
    cases.append(
        CaseResult(
            description="scale estimate from the reference point",
            status=PASS,
            values={"gamma_hat": gamma_hat},
        )
    )

    points = sample_vectors(rng.child(1).generator(), n, trials)
    worst_dev = 0.0
    for sa, sb in ((pair_a.norm1, pair_b.norm1), (pair_a.norm2, pair_b.norm2)):
        values = zip(vnorm_eval_many(sa, points).tolist(), vnorm_eval_many(sb, points).tolist())
        for va, vb in values:
            worst_dev = max(worst_dev, abs(va - gamma_hat * vb) / max(1.0, abs(va)))
    proportional = worst_dev <= tol
    cases.append(
        CaseResult(
            description=f"slot-wise proportionality at {trials} random points",
            status=PASS,
            values={"proportional": float(proportional), "worst_deviation": worst_dev},
        )
    )

    drawn = sample_test_matrices(rng.child(2).generator(), n, max(1, trials // 4))
    mats = np.concatenate([np.eye(n)[None], np.ones((1, n, n)), drawn])
    scored = []
    found = zip(gind_eval_many(pair_a, mats, budget), gind_eval_many(pair_b, mats, budget))
    for m, (ra, rb) in zip(mats, found):
        va, vb = ra.value, rb.value
        scored.append((abs(va - vb) / max(1.0, va, vb), m, va, vb))
    worst_diff = max(rel for rel, *_ in scored)
    diff_witness = None
    values_at_witness: dict[str, float] = {}
    if worst_diff > 0.0:
        # the first matrix within rounding of the worst, so that an exact tie
        # does not go to whichever matrix happens to round higher
        near = worst_diff - _WITNESS_TIE * worst_diff
        _, diff_witness, va, vb = next(s for s in scored if s[0] >= near)
        values_at_witness = {"gind_a": va, "gind_b": vb}
    gind_equal = worst_diff <= tol

    if proportional and gind_equal:
        verdict, status = "scaled_and_equal", PASS
    elif not proportional and not gind_equal:
        verdict, status = "not_scaled_and_unequal", PASS
    elif not proportional and gind_equal:
        # sampling cannot certify equality of the induced norms, only fail
        # to separate them
        verdict, status = "unseparated", INCONCLUSIVE
    else:
        verdict, status = "inconsistent", FAIL
    cases.append(
        CaseResult(
            description="induced-value agreement across random matrices",
            status=status,
            values={
                "worst_relative_difference": worst_diff,
                "verdict_scaled_and_equal": float(verdict == "scaled_and_equal"),
                **values_at_witness,
            },
            witness=diff_witness if verdict in ("not_scaled_and_unequal", "inconsistent") else None,
        )
    )

    return SuiteReport("lemma22", rng.seed, cases, time.perf_counter() - start)


def _reduced(budget: OptBudget) -> OptBudget:
    return OptBudget(
        multistarts=max(1, budget.multistarts // 8),
        max_iters=max(15, budget.max_iters // 16),
        samples=max(2, budget.samples // 32),
        seed=budget.seed,
    )


def _roles_at(norm1, source, inner: OptBudget, points) -> tuple[list[float], list[float]]:
    """The resolved role 1 and role 2 = N(C_x) at every point, one
    :func:`vnorm_eval_many` and one
    :func:`~normlab.extraction.eval_role2_many`."""
    v = np.array(points)
    return vnorm_eval_many(norm1, v).tolist(), eval_role2_many(source, inner, v).tolist()


def _worst_axiom_deviation(values: list[float], scales: list[float]) -> float:
    """The worst homogeneity or triangle deviation over the draws, from a
    norm's values at (x, y, a x, x + y) for each draw in turn and the |a|."""
    worst = 0.0
    for i, scale in enumerate(scales):
        vx, vy, vax, vsum = values[4 * i : 4 * i + 4]
        dev = abs(vax - scale * vx) / max(1.0, vx)
        dev = max(dev, (vsum - vx - vy) / max(1.0, vx + vy))
        worst = max(worst, dev)
    return worst


def verify_theorem23(
    source: MatrixNormSpec,
    n: int = 2,
    trials: int = 40,
    budget: OptBudget | None = None,
    rng: RandomStream = RandomStream(0),
) -> SuiteReport:
    """Extraction round trip, upper-bound law, and minimality probe for N.

    The reconstructed induced norm can never exceed N (any overshoot beyond
    tolerance is an optimizer bug, hence "fail"); the round trip and the
    norm1-equals-norm2 check are asserted only when the probe finds no gap,
    since both are consequences of minimality.

    Both roles are resolved once per run, through
    :func:`~normlab.gind.concrete_pair`: for the sources in its table that
    is the plain descriptor :func:`~normlab.extraction.eval_role1`
    evaluates, bit for bit, and for every other source the extracted norm
    itself.  The reconstruction evaluates the resolved pair, which
    ``gind_eval`` would otherwise resolve again for every matrix.  The axiom
    and norm1-equals-norm2 checks keep role 2 the direct N(C_x), never the
    table's entry, so that the latter compares the table with N and not
    with itself.  Every point of a check is drawn first; N is then
    evaluated over the stack of their C_x in one call, and so is role 1
    where it has a batch form, as N is over each list of probe matrices
    (:func:`~normlab.matrix_norms.mnorm_eval_many`).
    """
    check_sizes(n, trials, 1)
    start = time.perf_counter()
    outer = budget or _suite_budget(rng.child(9).derive_seed(), THEOREM23_BUDGET)
    inner = _reduced(outer)
    cases: list[CaseResult] = []

    pair = extract_pair(source, inner)
    plain = concrete_pair(pair, n)
    norm1 = plain.norm1

    # the raw draws of x and y, then of |a| and arg a, interleave; the
    # points are shaped from them at once
    g = rng.child(0).generator()
    raw = np.empty((12, 4 * n))
    mod_phase = np.empty((12, 2))
    for i in range(12):
        g.standard_normal(out=raw[i])
        g.random(out=mod_phase[i])
    x, y = complex_normals(raw.reshape(12, 2, 2, n).transpose(2, 1, 0, 3))
    a = (0.3 + 2.7 * mod_phase[:, :1]) * np.exp(2j * np.pi * mod_phase[:, 1:])
    points = np.stack([x, y, a * x, x + y], axis=1).reshape(48, n)
    # Python's abs: numpy's complex modulus may differ in the last bit
    scales = [abs(z) for z in a[:, 0].tolist()]
    role1, role2 = _roles_at(norm1, source, inner, points)
    worst_axiom_1 = _worst_axiom_deviation(role1, scales)
    worst_axiom_2 = _worst_axiom_deviation(role2, scales)
    if worst_axiom_2 > _BAND:
        axiom_status = FAIL  # role 2 is N's own value, exact but for a climbing GInd
    elif worst_axiom_1 > _BAND:
        axiom_status = INCONCLUSIVE  # lower-bound slot: optimizer deficiency
    else:
        axiom_status = PASS
    cases.append(
        CaseResult(
            description="extracted norms satisfy the norm axioms (sampled)",
            status=axiom_status,
            values={
                "worst_deviation_norm1": worst_axiom_1,
                "worst_deviation_norm2": worst_axiom_2,
            },
        )
    )

    # the minimality probe below starts from the same deterministic probes,
    # so their ratios are computed once and serve both
    fixed = _probe_ratios(source, plain, _fixed_probes(n), outer, inner)
    drawn = _random_probes(n, trials, rng.child(1))
    ratios = fixed + _probe_ratios(source, plain, drawn, outer, inner)
    worst_ratio = 0.0
    worst_witness = None
    for r, m in ratios:
        if r > worst_ratio:
            worst_ratio, worst_witness = r, m
    upper_ok = worst_ratio <= 1.0 + _BAND
    cases.append(
        CaseResult(
            description="reconstruction never exceeds the source norm",
            status=PASS if upper_ok else FAIL,
            values={"worst_ratio": worst_ratio},
            witness=None if upper_ok else worst_witness,
        )
    )

    # what minimality_probe(source, n, trials, outer, rng.child(2), inner)
    # returns, with the fixed probes' ratios from above
    drawn = _random_probes(n, trials, rng.child(2).child(3))
    probe = _probe_report(fixed + _probe_ratios(source, plain, drawn, outer, inner))
    cases.append(
        CaseResult(
            description="minimality probe (gap flags possible non-minimality)",
            status=PASS,
            values={
                "min_ratio": probe.max_gap_ratio,
                "gap_found": float(probe.verdict == GAP_FOUND),
            },
            witness=probe.witness,
        )
    )

    if probe.verdict == NO_GAP_FOUND:
        worst_rt = max(abs(1.0 - r) for r, _ in ratios)
        status = PASS if worst_rt <= _BAND else INCONCLUSIVE
        cases.append(
            CaseResult(
                description="round trip: reconstruction matches the source norm",
                status=status,
                values={"worst_roundtrip_deviation": worst_rt},
            )
        )
    else:
        cases.append(
            CaseResult(
                description="round trip skipped: probe found a gap",
                status=INCONCLUSIVE,
                values={"min_ratio": probe.max_gap_ratio},
            )
        )

    if mnorm_is_algebra_candidate(source) == KNOWN_YES and probe.verdict == NO_GAP_FOUND:
        points = sample_vectors(rng.child(3).generator(), n, 60)
        worst_eq = 0.0
        for v1, v2 in zip(*_roles_at(norm1, source, inner, points)):
            worst_eq = max(worst_eq, abs(v1 - v2) / max(1.0, v1, v2))
        cases.append(
            CaseResult(
                description="extracted pair coincides for the algebra norm",
                status=PASS if worst_eq <= _BAND else INCONCLUSIVE,
                values={"worst_equality_deviation": worst_eq},
            )
        )

    return SuiteReport("theorem23", rng.seed, cases, time.perf_counter() - start)


def paper_demo_suite(seed: int) -> SuiteReport:
    """Six demonstration cases over the norm catalog at n = 2 and 3."""
    start = time.perf_counter()
    rng = RandomStream(seed)
    cases: list[CaseResult] = []
    ones2 = np.ones((2, 2), dtype=np.complex128)

    # 1: entrywise sum is submultiplicative, entrywise max is not
    g = rng.child(0).generator()
    draws = sample_test_matrices(g, 2, 400)
    a, b = draws[0::2], draws[1::2]
    sigma = [mnorm_eval_many(EntrywiseSum(), m).tolist() for m in (a @ b, a, b)]
    sigma_ok = not any(ab > na * nb * (1.0 + _SLACK) for ab, na, nb in zip(*sigma))
    m_lhs = mnorm_eval(EntrywiseMax(), ones2 @ ones2)
    m_rhs = mnorm_eval(EntrywiseMax(), ones2) ** 2
    cases.append(
        CaseResult(
            description="entrywise sum submultiplicative; entrywise max violated at the all-ones matrix",
            status=PASS if sigma_ok and m_lhs > m_rhs + 0.5 else FAIL,
            values={"max_norm_of_square": m_lhs, "square_of_max_norm": m_rhs},
            witness=ones2,
        )
    )

    # 2: closed-form recoveries of the three induced norms
    worst = 0.0
    induced = ((1.0, MaxColSum()), (np.inf, MaxRowSum()), (2.0, Spectral()))
    for dim in (2, 3):
        g2 = rng.child(10 + dim).generator()
        mats = sample_test_matrices(g2, dim, 15)
        for p, closed in induced:
            wants = mnorm_eval_many(closed, mats).tolist()
            for res, want in zip(gind_eval_many(GInd(Lp(p), Lp(p)), mats), wants):
                worst = max(worst, abs(res.value - want) / max(1.0, want))
    cases.append(
        CaseResult(
            description="column/row/euclidean operator norms recovered as induced norms",
            status=PASS if worst <= _BAND else (INCONCLUSIVE if worst <= 1e-4 else FAIL),
            values={"worst_relative_error": worst},
        )
    )

    # 3: a looser domain norm dominates, strictly at the all-ones matrix
    pair_tight = GInd(Lp(2.0), Scaled(2.0, Lp(2.0)))
    pair_loose = GInd(Lp(np.inf), Scaled(2.0, Lp(2.0)))
    g3 = rng.child(2).generator()
    # the 30 draws and, last, the all-ones matrix
    mats = np.concatenate([sample_test_matrices(g3, 2, 30), ones2[None]])
    tight = [res.value for res in gind_eval_many(pair_tight, mats)]
    loose = [res.value for res in gind_eval_many(pair_loose, mats)]
    dominated = all(t <= s * (1.0 + _BAND) for t, s in zip(tight[:-1], loose[:-1]))
    tight_j, loose_j = tight[-1], loose[-1]
    strict = loose_j > tight_j * (1.0 + 1e-3)
    cases.append(
        CaseResult(
            description="loosening the domain norm enlarges the induced norm, strictly at the all-ones matrix",
            status=PASS if dominated and strict else FAIL,
            values={"tight_at_ones": tight_j, "loose_at_ones": loose_j},
            witness=ones2,
        )
    )

    # 4: non-minimality probes for the entrywise sum and max(col,row)
    probe_sigma = minimality_probe(EntrywiseSum(), 2, 25, rng=rng.child(3))
    probe_maxcr = minimality_probe(MaxOf((MaxColSum(), MaxRowSum())), 2, 25, rng=rng.child(4))
    ok4 = (
        probe_sigma.verdict == GAP_FOUND
        and abs(probe_sigma.max_gap_ratio - np.sqrt(0.5)) <= 1e-3
        and probe_maxcr.verdict == GAP_FOUND
        and abs(probe_maxcr.max_gap_ratio - 0.5) <= 1e-3
    )
    cases.append(
        CaseResult(
            description="gap probes: entrywise sum and max(col,row) both sit above induced norms",
            status=PASS if ok4 else FAIL,
            values={
                "entrywise_sum_ratio": probe_sigma.max_gap_ratio,
                "max_col_row_ratio": probe_maxcr.max_gap_ratio,
            },
            witness=[probe_sigma.witness, probe_maxcr.witness],
        )
    )

    # 5: column-replication identity, each pair's two points in one check
    family = [Lp(1.0), Lp(2.0), Lp(np.inf), Scaled(2.0, Lp(2.0))]
    ok5 = True
    for dim in (2, 3):
        # g5 draws nothing else, so every pair's points are drawn at once
        points = sample_vectors(rng.child(30 + dim).generator(), dim, 2 * len(family) ** 2)
        for i, (n1, n2) in enumerate((n1, n2) for n1 in family for n2 in family):
            reports = alpha_identity_checks(GInd(n1, n2), points[2 * i : 2 * i + 2])
            ok5 = ok5 and all(rep.holds for rep in reports)
    cases.append(
        CaseResult(
            description="column replication scales the codomain norm by the sum-functional constant",
            status=PASS if ok5 else FAIL,
            values={"pairs_checked": float(len(family) ** 2 * 2)},
        )
    )

    # 6: the four-norm chain for a dominated pair
    g6 = rng.child(5).generator()
    mats = sample_test_matrices(g6, 2, 15)
    # chain_compare at every draw, each of the four pairs over the stack
    values = [gind_eval_many(p, mats) for p in chain_pairs(GInd(Lp(np.inf), Lp(1.0)))]
    ok6 = True
    worst_slack = np.inf
    for found in zip(*values):
        rep = chain_report(*(res.value for res in found))
        ok6 = ok6 and rep.chain_holds
        worst_slack = min(worst_slack, rep.slack)
    cases.append(
        CaseResult(
            description="mixed-domain operator norms interleave for a dominated pair",
            status=PASS if ok6 else FAIL,
            values={"worst_slack": worst_slack},
        )
    )

    return SuiteReport("paper-demos", seed, cases, time.perf_counter() - start)

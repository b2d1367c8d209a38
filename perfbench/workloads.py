"""The benchmark's workloads: inputs made from a seed, passes, output checks.

A workload is a fixed list of public-API calls (one *pass*).  A pass is run
cold (right after ``clear_caches()``) and then warm (the same calls
again in the same process).  Every output is checked against references the
benchmark computes itself; a failed check is counted, never raised.

* ``demo-suite`` runs ``normlab verify --suite paper-demos`` through
  ``normlab.cli.run_command``, the command users run most.  The cold pass is
  dominated by nested role-1 extraction (``matrix_norms`` and the
  ``sphere_opt`` matrix ascent); the warm pass reads the role-1 cache that
  the cold pass filled.
* ``t23-catalog`` runs ``normlab verify --suite theorem23`` for Spectral at
  n=2, EntrywiseMax at n=2 and MaxColSum at n=3: extraction paths the demo
  suite never takes (Spectral as the inner objective, where the eigen solver
  in ``core`` dominates; the EntrywiseMax phase climb; n = 3).
* ``gind-mix`` calls ``gind_eval`` at the CLI default budget on exact-dispatch
  and ascent pairs, and ``mnorm_eval`` on the catalog norms, for n = 2, 3, 4.
  It makes no extraction calls, so it bypasses the role-1 cache (cold and
  warm passes do the same work) and loads the vector sphere maximizer and the
  norm kernels.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import normlab
from hostspeed import PassClock
from normlab import cli, core, extraction

# theorem23 source norms: Spectral exercises the eigen solver inside the inner
# objective, EntrywiseMax the phase-climb branch, MaxColSum the n = 3 path
T23_CASES = (("spectral", 2), ("entrywise-max", 2), ("maxcolsum", 3))
T23_TRIALS = 6
GAP_RATIO_TOL = 1e-3
_ELAPSED_LINE = re.compile(r'^\s*"elapsed": .*$', re.MULTILINE)

# passes per measuring process: at least min_cold cold passes, each followed
# by warm_per_cold warm passes.  The host's speed drifts by several percent
# within a second, so cold_s and warm_s are medians over several passes.  A
# demo-suite cold pass alone takes over half a minute, a t23-catalog one about
# 15 s; the run's time budget leaves room for one, resp. two.  gind-mix's nine
# passes hold the 100 ascent calls that its p90 latency needs.
PASSES = {
    "demo-suite": {"min_cold": 1, "warm_per_cold": 5},
    "t23-catalog": {"min_cold": 2, "warm_per_cold": 4},
    "gind-mix": {"min_cold": 3, "warm_per_cold": 2},
}

GIND_DIMS = (2, 3, 4)
EXACT_MATRICES_PER_DIM = 4
EVAL_MATRICES_PER_DIM = 4


@dataclass
class Checks:
    """Output checks attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(1.0, abs(want))


def _complex_matrix(g: np.random.Generator, n: int) -> np.ndarray:
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# demo-suite and t23-catalog: verify commands through the CLI


class VerifyCommands:
    """``verify`` commands run through ``normlab.cli.run_command``.

    Every report is checked: exit code 0, no failed case, the workload's own
    value checks, and the report byte-identical to the first pass's apart from
    the elapsed time (the warm pass must replay the cold pass exactly).
    """

    latency_kinds = ()

    def __init__(self, commands, check_values=None):
        self.commands = commands  # (label, argv, report path)
        self.check_values = check_values  # (label, report doc, checks) -> None
        self.first_reports: dict[str, str] = {}

    @property
    def kinds(self) -> list[str]:
        return ["command"] * len(self.commands)

    def run_pass(self, checks: Checks) -> PassClock:
        """Run every command once, timed."""
        with PassClock() as clock:
            for label, argv, report in self.commands:
                if os.path.exists(report):
                    os.remove(report)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = clock.call(cli.run_command, argv)
                self._check(label, code, report, checks)
        return clock

    def _check(self, label: str, code: int, report: str, checks: Checks) -> None:
        checks.check(code == 0, f"{label}: exit code {code}")
        try:
            with open(report, "r", encoding="utf-8") as fh:
                text = fh.read()
            doc = json.loads(text)
        except (OSError, ValueError) as exc:
            checks.check(False, f"{label}: no readable report ({exc})")
            return
        failed = [c["description"] for c in doc["cases"] if c["status"] == "fail"]
        checks.check(not failed, f"{label}: failed cases {failed}")
        if self.check_values is not None:
            self.check_values(label, doc, checks)
        replay = _ELAPSED_LINE.sub("", text)
        first = self.first_reports.setdefault(label, replay)
        checks.check(replay == first, f"{label}: report differs from the first pass")


def demo_suite(seed: int, scratch_dir: str) -> VerifyCommands:
    """``verify --suite paper-demos`` once per pass."""
    suite_seed = int(np.random.default_rng([seed, 6]).integers(0, 2**31))
    report = os.path.join(scratch_dir, "paper-demos.json")
    argv = ["verify", "--suite", "paper-demos", "--seed", str(suite_seed), "--report", report]
    return VerifyCommands([("paper-demos", argv, report)], _check_gap_ratios)


def _check_gap_ratios(label: str, doc: dict, checks: Checks) -> None:
    """The gap probes find the paper's ratios: sqrt(1/2) for the entrywise
    sum and 1/2 for max(col, row)."""
    values = {}
    for case in doc["cases"]:
        values.update(case["values"])
    for key, want in (("entrywise_sum_ratio", math.sqrt(0.5)), ("max_col_row_ratio", 0.5)):
        got = values.get(key)
        checks.check(
            got is not None and abs(got - want) <= GAP_RATIO_TOL,
            f"{label}: {key} {got!r} is not within {GAP_RATIO_TOL:g} of {want:.6f}",
        )


def t23_catalog(seed: int, scratch_dir: str) -> VerifyCommands:
    """Three ``verify --suite theorem23`` commands per pass."""
    g = np.random.default_rng([seed, 23])
    commands = []
    for (norm, dim), suite_seed in zip(T23_CASES, g.integers(0, 2**31, size=len(T23_CASES))):
        report = os.path.join(scratch_dir, f"t23-{norm}-n{dim}.json")
        argv = [
            "verify", "--suite", "theorem23", "--norm", norm, "--dim", str(dim),
            "--seed", str(int(suite_seed)), "--trials", str(T23_TRIALS),
            "--report", report,
        ]
        commands.append((f"{norm} n={dim}", argv, report))
    return VerifyCommands(commands)


# ---------------------------------------------------------------------------
# gind-mix


def _lp(p: float):
    return lambda x: float(np.linalg.norm(x, p))


def _weighted_l1(w: np.ndarray):
    return lambda x: float(np.sum(w * np.abs(x)))


def _max_l1_2linf(x) -> float:
    return max(float(np.linalg.norm(x, 1)), 2.0 * float(np.linalg.norm(x, np.inf)))


@dataclass
class Call:
    """One public-API call with what the benchmark needs to check it."""

    kind: str  # "exact", "ascent" or "eval"
    label: str
    run: object  # zero-argument callable making the call
    check: object  # (result, checks) -> None


def _column_norms(a: np.ndarray, norm2) -> np.ndarray:
    return np.array([norm2(a[:, j]) for j in range(a.shape[1])])


def _gind_checks(label, a, norm1, norm2, exactness, reference=None, rel=1e-9,
                 upper_dual=None):
    """Checks of a gind_eval result against references built from numpy.

    Witness: norm1(w) = 1 and norm2(A w) = value.  Exact calls: value matches
    ``reference``.  Ascent calls: value lies between a feasible-point lower
    bound (basis vectors and the all-ones vector, scaled onto the sphere) and
    the upper bound norm1_dual((norm2(a_j))_j).
    """
    n = a.shape[0]

    def check(result, checks: Checks) -> None:
        value = float(result.value)
        w = np.asarray(result.witness)
        checks.check(result.exactness == exactness, f"{label}: exactness {result.exactness}")
        checks.check(_close(norm1(w), 1.0, 1e-9), f"{label}: witness off the unit sphere")
        checks.check(_close(norm2(a @ w), value, 1e-9), f"{label}: witness does not reproduce value")
        if reference is not None:
            want = reference()
            checks.check(_close(value, want, rel), f"{label}: {value!r} != reference {want!r}")
        if upper_dual is not None:
            points = [np.eye(n, dtype=np.complex128)[j] for j in range(n)]
            points.append(np.ones(n, dtype=np.complex128))
            lower = max(norm2(a @ x) / norm1(x) for x in points)
            upper = upper_dual(_column_norms(a, norm2))
            checks.check(
                lower * (1.0 - 1e-9) <= value <= upper * (1.0 + 1e-9),
                f"{label}: {value!r} outside [{lower!r}, {upper!r}]",
            )

    return check


def _eval_check(label, value_ref, rel):
    def check(result, checks: Checks) -> None:
        want = value_ref()
        checks.check(_close(float(result), want, rel), f"{label}: {result!r} != numpy {want!r}")

    return check


class GIndMix:
    """gind_eval on exact and ascent pairs plus catalog mnorm_eval calls."""

    latency_kinds = ("exact", "ascent")

    def __init__(self, seed: int, scratch_dir: str):
        from normlab import GIndPair, Lp, MaxOf, Scaled, WeightedLp

        g = np.random.default_rng([seed, 7])
        inf = math.inf
        self.calls: list[Call] = []
        for n in GIND_DIMS:
            budget = normlab.default_budget(n, int(g.integers(0, 2**31)))

            def gind_call(kind, label, pair, a, check, budget=budget):
                self.calls.append(
                    Call(kind, label, lambda: normlab.gind_eval(pair, a, budget), check)
                )

            # ascent pairs: no exact dispatch applies, results are lower bounds
            a = _complex_matrix(g, n)
            gind_call(
                "ascent", f"linf->l1 n={n}", GIndPair(Lp(inf), Lp(1)), a,
                _gind_checks(f"linf->l1 n={n}", a, _lp(inf), _lp(1), "lower_bound",
                             upper_dual=lambda c: float(np.sum(c))),
            )
            a = _complex_matrix(g, n)
            gind_call(
                "ascent", f"l3->l1.5 n={n}", GIndPair(Lp(3), Lp(1.5)), a,
                _gind_checks(f"l3->l1.5 n={n}", a, _lp(3), _lp(1.5), "lower_bound",
                             upper_dual=lambda c: float(np.linalg.norm(c, 1.5))),
            )
            a = _complex_matrix(g, n)
            gind_call(
                "ascent", f"linf->linf n={n}", GIndPair(Lp(inf), Lp(inf)), a,
                _gind_checks(f"linf->linf n={n}", a, _lp(inf), _lp(inf), "lower_bound",
                             reference=lambda a=a: float(np.abs(a).sum(axis=1).max()),
                             rel=1e-6, upper_dual=lambda c: float(np.sum(c))),
            )
            a = _complex_matrix(g, n)
            gind_call(
                "ascent", f"max(l1,2linf)->l2 n={n}",
                GIndPair(MaxOf((Lp(1), Scaled(2.0, Lp(inf)))), Lp(2)), a,
                _gind_checks(f"max(l1,2linf)->l2 n={n}", a, _max_l1_2linf, _lp(2),
                             "lower_bound",
                             # the domain norm dominates l1 and 2*linf, so its
                             # dual is below the duals of both
                             upper_dual=lambda c: min(float(np.max(c)), 0.5 * float(np.sum(c)))),
            )

            # exact dispatch: vertex enumeration and the closed form
            for _ in range(EXACT_MATRICES_PER_DIM):
                a = _complex_matrix(g, n)
                w = g.uniform(0.5, 2.0, size=n)
                gamma = float(g.uniform(0.5, 3.0))
                gind_call(
                    "exact", f"l1->l2 n={n}", GIndPair(Lp(1), Lp(2)), a,
                    _gind_checks(f"l1->l2 n={n}", a, _lp(1), _lp(2), "exact_vertex",
                                 reference=lambda a=a: float(np.linalg.norm(a, axis=0).max()),
                                 rel=1e-12),
                )
                gind_call(
                    "exact", f"wl1->l2 n={n}", GIndPair(WeightedLp(tuple(w), 1), Lp(2)), a,
                    _gind_checks(f"wl1->l2 n={n}", a, _weighted_l1(w), _lp(2), "exact_vertex",
                                 reference=lambda a=a, w=w: float((np.linalg.norm(a, axis=0) / w).max()),
                                 rel=1e-12),
                )
                gind_call(
                    "exact", f"l2->scaled l2 n={n}", GIndPair(Lp(2), Scaled(gamma, Lp(2))), a,
                    _gind_checks(f"l2->scaled l2 n={n}", a, _lp(2),
                                 lambda x, gamma=gamma: gamma * float(np.linalg.norm(x)),
                                 "exact_closed_form",
                                 reference=lambda a=a, gamma=gamma: gamma * float(np.linalg.norm(a, 2)),
                                 rel=1e-8),
                )

            # catalog norms against numpy
            catalog = (
                ("sigma", normlab.EntrywiseSum(), lambda a: float(np.abs(a).sum()), 1e-12),
                ("entrywise-max", normlab.EntrywiseMax(), lambda a: float(np.abs(a).max()), 1e-12),
                ("maxcolsum", normlab.MaxColSum(), lambda a: float(np.linalg.norm(a, 1)), 1e-12),
                ("maxrowsum", normlab.MaxRowSum(), lambda a: float(np.linalg.norm(a, inf)), 1e-12),
                ("spectral", normlab.Spectral(), lambda a: float(np.linalg.norm(a, 2)), 1e-8),
            )
            for _ in range(EVAL_MATRICES_PER_DIM):
                a = _complex_matrix(g, n)
                for label, spec, ref, rel in catalog:
                    self.calls.append(
                        Call(
                            "eval", f"{label} n={n}",
                            lambda spec=spec, a=a: normlab.mnorm_eval(spec, a),
                            _eval_check(f"{label} n={n}", lambda ref=ref, a=a: ref(a), rel),
                        )
                    )
        self.first_values: list = [None] * len(self.calls)

    @property
    def kinds(self) -> list[str]:
        return [call.kind for call in self.calls]

    def run_pass(self, checks: Checks) -> PassClock:
        """Make every call once, timed."""
        with PassClock() as clock:
            for index, call in enumerate(self.calls):
                result = clock.call(call.run)
                call.check(result, checks)
                value = float(result if call.kind == "eval" else result.value)
                if self.first_values[index] is None:
                    self.first_values[index] = value
                checks.check(
                    value == self.first_values[index],
                    f"{call.label}: value changed between passes",
                )
        return clock


BY_NAME = {
    "demo-suite": demo_suite,
    "t23-catalog": t23_catalog,
    "gind-mix": GIndMix,
}


def build(name: str, seed: int, scratch_dir: str):
    return BY_NAME[name](seed, scratch_dir)


def clear_caches() -> None:
    """Empty the role-1 cache and the eigen solver's start vectors, so every
    cold pass starts from the state a fresh process starts from."""
    extraction.clear_role1_cache()
    core._START_CACHE.clear()

"""Every report kind encodes to fixed golden bytes.

The files in ``tests/data/reports/`` were written by the per-kind encoders
that ``formats.report_to_doc`` replaced, from the inputs built here: results
constructed by hand for the library-only kinds, and ``run_command`` on one
fixed 2x2 matrix for the kinds the CLI writes.  Suite reports carry a wall
time, so ``elapsed`` is fixed in constructed reports and zeroed in CLI ones.

The ``t23-*`` files are ``verify --suite theorem23`` on the three sources of
the benchmark's t23-catalog workload at two seeds, written by the code in
which every spectral value still computed an eigenvector and every role-1
value resolved its extracted norm afresh; they pin that neither shortcut
moves a report byte.  Those on ``sigma``, ``maxcr`` and GInd(l3, l1.5), and
the ``paper-demos-*`` files, were written by the code that still evaluated
the source norm one matrix at a time; they pin that evaluating it over
stacks moves no report byte either.  The ``lemma21-*`` files (a dominated
pair at n = 2 and 3, and a non-dominated pair, which takes the
product-violation hunt) and the ``lemma22-*`` files (a proportional and a
non-proportional pair) were written by the code that still drew every
sample and evaluated every induced norm one at a time.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from normlab import DominanceReport, formats
from normlab.cli import run_command
from normlab.extraction import AlphaIdentityReport, ProbeReport
from normlab.verification import CaseResult, SuiteReport

GOLDEN = Path(__file__).resolve().parent / "data" / "reports"
MATRIX = "1+2i,-2\n0.5i,3\n"

_W = np.array([[1 + 2j, 0.5], [-0.25j, 3.0]])
_SUITE = SuiteReport(
    "paper-demos",
    42,
    [
        CaseResult("array witness", "pass", {"ratio": np.float64(0.5), "top": math.inf}, _W),
        CaseResult("witness list with a gap", "fail", {"one": 1.0}, [_W, None, _W.T]),
        CaseResult("no witness", "inconclusive"),
    ],
    1.25,
)

# file stem -> (kind, result, settings)
CONSTRUCTED = {
    "suite-report": ("suite-report", _SUITE, None),
    "suite-report-settings": ("suite-report", _SUITE, {"dim": 3, "seed": 42}),
    "minimality-probe": (
        "minimality-probe",
        ProbeReport(np.float64(1 / math.sqrt(2)), _W, np.int64(17), "gap_found"),
        {"dim": 2, "seed": 7},
    ),
    "dominance-report": (
        "dominance-report",
        DominanceReport(False, np.array([1.0, -1j]), 32, 1.5),
        None,
    ),
    "dominance-report-none": ("dominance-report", DominanceReport(True, None, 64, 0.75), None),
    "alpha-identity": ("alpha-identity", AlphaIdentityReport(2.0, 2.0000000001, True), None),
}

# file stem -> argv; each runs with --matrix MATRIX (when it takes one) and --report
CLI = {
    "computation": ["gind", "--norm1", "l1", "--norm2", "l2"],
    "computation-ascent": ["gind", "--norm1", "linf", "--norm2", "l2", "--budget-multistarts", "2"],
    "norm-value": ["eval", "--norm", "maxcolsum"],
    "chain-report": ["chain", "--norm1", "linf", "--norm2", "l1"],
    "extraction": ["extract", "--norm", "maxrowsum", "--dim", "2"],
    "suite-report-cli": [
        "verify", "--suite", "lemma21", "--trials", "4", "--seed", "3",
        "--budget-max-iters", "60",
    ],
}
for _seed in (5, 2718):
    for _norm, _dim in (("spectral", 2), ("entrywise-max", 2), ("maxcolsum", 3)):
        CLI[f"t23-{_norm}-n{_dim}-seed{_seed}"] = [
            "verify", "--suite", "theorem23", "--norm", _norm, "--dim", str(_dim),
            "--seed", str(_seed), "--trials", "6",
        ]
_G31 = '{"kind": "gind", "norm1": {"kind": "lp", "p": 3}, "norm2": {"kind": "lp", "p": 1.5}}'
for _name, _norm, _dim in (
    ("sigma", "sigma", 2),
    ("maxcr", "maxcr", 3),
    ("gind-l3-l1.5", _G31, 2),
    ("gind-l3-l1.5", _G31, 3),
):
    CLI[f"t23-{_name}-n{_dim}-seed5"] = [
        "verify", "--suite", "theorem23", "--norm", _norm, "--dim", str(_dim),
        "--seed", "5", "--trials", "6",
    ]
for _stem, _pairs in (
    ("lemma21-dominated", ["--norm1", "linf", "--norm2", "l1"]),
    ("lemma21-undominated", ["--norm1", "l1", "--norm2", "linf"]),
    ("lemma22-proportional", []),
    ("lemma22-unproportional", ["--norm1", "l2", "--norm2", "l1", "--norm3", "linf", "--norm4", "l1"]),
):
    for _dim in (2, 3) if _stem == "lemma21-dominated" else (2,):
        CLI[f"{_stem}-n{_dim}-seed11"] = [
            "verify", "--suite", _stem.split("-")[0], *_pairs, "--dim", str(_dim),
            "--seed", "11", "--trials", "40",
        ]
for _seed in (0, 42, 10101, *range(9000, 9010)):
    CLI[f"paper-demos-seed{_seed}"] = ["verify", "--suite", "paper-demos", "--seed", str(_seed)]

_ELAPSED = re.compile(r'("elapsed": )[^,\n]+')


def cli_report(stem: str, tmp_path) -> str:
    """The report ``run_command`` writes for ``CLI[stem]``, elapsed zeroed."""
    argv = list(CLI[stem])
    if argv[0] in ("gind", "eval", "chain"):
        matrix = tmp_path / "a.csv"
        matrix.write_text(MATRIX)
        argv += ["--matrix", str(matrix)]
    out = tmp_path / f"{stem}.json"
    assert run_command(argv + ["--report", str(out)]) == 0
    return _ELAPSED.sub(r"\g<1>0.0", out.read_text(encoding="utf-8"))


def _golden(stem: str) -> str:
    return (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", sorted(CONSTRUCTED))
def test_constructed_report_bytes(stem):
    kind, result, settings = CONSTRUCTED[stem]
    if kind == "suite-report":
        doc = formats.suite_report_to_doc(result, settings)
    else:
        doc = formats.report_to_doc(kind, result, settings)
    assert formats.dumps_report(doc) == _golden(stem)


@pytest.mark.parametrize("stem", sorted(CLI))
def test_cli_report_bytes(stem, tmp_path, capsys):
    assert cli_report(stem, tmp_path) == _golden(stem)

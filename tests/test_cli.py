import contextlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from normlab import cli, default_budget
from normlab.cli import run_command


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,2\n3,4\n")
    return str(path)


def test_eval_spectral(matrix_file, capsys):
    code = run_command(["eval", "--norm", "spectral", "--matrix", matrix_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "5.464985704" in out
    assert "budget:" in out  # defaults are printed in the header


def test_eval_with_inline_json(matrix_file, capsys):
    code = run_command(
        ["eval", "--norm", '{"kind":"maxcolsum"}', "--matrix", matrix_file]
    )
    assert code == 0
    assert "norm value: 6" in capsys.readouterr().out


def test_gind_command(matrix_file, capsys):
    code = run_command(
        ["gind", "--norm1", "l1", "--norm2", "linf", "--matrix", matrix_file]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "value: 4" in out
    assert "exact_vertex" in out


def test_gind_command_on_an_inner_product_without_a_finite_modulus(tmp_path, capsys):
    # the two columns' inner product has finite parts and a modulus above
    # the largest float; the value is 1.3e154 (sqrt(2) + 1)
    path = tmp_path / "big.csv"
    path.write_text("1.3e154+1.3e154i,1.3e154\n0,0\n")
    code = run_command(["gind", "--norm1", "linf", "--norm2", "l2", "--matrix", str(path)])
    assert code == 0
    assert "value: 3.138477631" in capsys.readouterr().out


def test_gind_command_on_an_overflowing_inner_product(tmp_path, capsys):
    # the two columns' inner product overflows, in vdot too; the value is
    # 2e160
    path = tmp_path / "big.csv"
    path.write_text("1e160,1e160\n0,0\n")
    code = run_command(["gind", "--norm1", "linf", "--norm2", "l2", "--matrix", str(path)])
    assert code == 0
    assert "value: 2e+160" in capsys.readouterr().out


def test_chain_command(matrix_file, capsys):
    code = run_command(
        ["chain", "--norm1", "linf", "--norm2", "l1", "--matrix", matrix_file]
    )
    assert code == 0
    assert "chain holds: True" in capsys.readouterr().out


def test_usage_error_exit_2(matrix_file, capsys):
    assert run_command(["eval", "--matrix", matrix_file]) == 2  # missing --norm
    assert run_command(["nonsense"]) == 2
    assert run_command(["eval", "--norm", '{"kind":"nope"}', "--matrix", matrix_file]) == 2
    assert run_command(["eval", "--norm", "spectral", "--matrix", "/does/not/exist"]) == 2


_GIND_OF_SPECTRAL = '{"kind":"gind","norm1":{"kind":"spectral"},"norm2":{"kind":"lp","p":1}}'
_SCALED_L1 = '{"kind":"scaled","gamma":2,"inner":{"kind":"lp","p":1}}'
_MAXOF_MIXED = '{"kind":"maxof","inner":[{"kind":"lp","p":1},{"kind":"sigma"}]}'


@pytest.mark.parametrize(
    "argv, option",
    [
        (["eval", "--norm", "l2"], "--norm"),
        (["eval", "--norm", _SCALED_L1], "--norm"),
        (["eval", "--norm", _GIND_OF_SPECTRAL], "--norm"),
        (["extract", "--norm", "l2"], "--norm"),
        (["probe-minimality", "--norm", "l1", "--trials", "2"], "--norm"),
        (["verify", "--suite", "theorem23", "--norm", "linf", "--trials", "2"], "--norm"),
        (["gind", "--norm1", "spectral", "--norm2", "l1"], "--norm1"),
        (["gind", "--norm1", "l1", "--norm2", _MAXOF_MIXED], "--norm2"),
        (["chain", "--norm1", "l1", "--norm2", "sigma"], "--norm2"),
        (["verify", "--suite", "lemma21", "--norm1", "spectral", "--trials", "2"], "--norm1"),
        (["verify", "--suite", "lemma22", "--norm4", "maxcolsum", "--trials", "2"], "--norm4"),
    ],
)
def test_norm_of_the_wrong_family_exit_2_before_any_output(argv, option, matrix_file, capsys):
    # eval, extract, probe-minimality and theorem23 take a matrix norm, gind,
    # chain and the lemma suites vector norms; the family is checked when the
    # norm is resolved, so nothing reaches stdout
    if argv[0] in ("eval", "gind", "chain"):
        argv = argv + ["--matrix", matrix_file]
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{option} needs a" in err


def test_norms_of_the_right_family_pass_the_check(matrix_file, capsys):
    gind_matrix = '{"kind":"gind","norm1":{"kind":"lp","p":1},"norm2":' + _SCALED_L1 + "}"
    maxof = '{"kind":"maxof","inner":[{"kind":"spectral"},{"kind":"scaled","gamma":2,"inner":{"kind":"sigma"}}]}'
    for norm in (gind_matrix, maxof):
        assert run_command(["eval", "--norm", norm, "--matrix", matrix_file]) == 0
    assert run_command(["gind", "--norm1", _SCALED_L1, "--norm2", "l2", "--matrix", matrix_file]) == 0


# the documents the short names stood for when they were JSON text
_SHORT_NAME_DOCUMENTS = {
    "sigma": '{"kind": "sigma"}',
    "entrywise-max": '{"kind": "entrywise-max"}',
    "maxcolsum": '{"kind": "maxcolsum"}',
    "maxrowsum": '{"kind": "maxrowsum"}',
    "spectral": '{"kind": "spectral"}',
    "maxcr": '{"kind": "maxof", "inner": [{"kind": "maxcolsum"}, {"kind": "maxrowsum"}]}',
    "l1": '{"kind": "lp", "p": 1}',
    "l2": '{"kind": "lp", "p": 2}',
    "linf": '{"kind": "lp", "p": "inf"}',
}


@pytest.mark.parametrize("name", sorted(_SHORT_NAME_DOCUMENTS))
def test_a_short_name_reports_as_its_document(name, matrix_file, tmp_path, capsys):
    assert set(cli._SHORTHAND) == set(_SHORT_NAME_DOCUMENTS)
    reports = []
    for norm in (name, _SHORT_NAME_DOCUMENTS[name]):
        path = tmp_path / "report.json"
        if name in ("l1", "l2", "linf"):
            argv = ["gind", "--norm1", norm, "--norm2", norm]
        else:
            argv = ["eval", "--norm", norm]
        assert run_command(argv + ["--matrix", matrix_file, "--report", str(path)]) == 0
        reports.append(path.read_text())
    assert reports[0] == reports[1]


def test_bad_matrix_document_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert run_command(["eval", "--norm", "sigma", "--matrix", str(bad)]) == 2


def test_non_finite_matrix_exit_2(tmp_path, capsys):
    for name, text in (
        ("nan.json", '{"rows": [[NaN, 1], [0, 1]]}'),
        ("inf.json", '{"rows": [[1, 0], [0, {"re": 0, "im": 1e400}]]}'),
        ("huge.csv", "1,2\n3,1e400\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        assert run_command(["eval", "--norm", "sigma", "--matrix", str(path)]) == 2
        assert "finite" in capsys.readouterr().err


def test_zero_budget_flag_exit_2(matrix_file, capsys):
    # a zero reaches OptBudget validation instead of silently becoming the default
    argv = ["gind", "--norm1", "linf", "--norm2", "l1", "--matrix", matrix_file]
    assert run_command(argv + ["--budget-multistarts", "0"]) == 2
    assert run_command(argv + ["--budget-samples", "0"]) == 2
    assert run_command(["verify", "--suite", "lemma21", "--budget-max-iters", "0"]) == 2


def test_paper_demos_rejects_budget_flags(capsys):
    code = run_command(["verify", "--suite", "paper-demos", "--budget-max-iters", "60"])
    assert code == 2
    assert "paper-demos" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, given, stray",
    [
        ("lemma21", ["--norm", '{"kind":"nope"}', "--norm3", "sigma"], "--norm, --norm3"),
        ("lemma21", ["--norm4", "l1"], "--norm4"),
        ("lemma22", ["--norm", "spectral"], "--norm"),
        ("theorem23", ["--norm1", "l1"], "--norm1"),
        ("theorem23", ["--norm2", "l1", "--norm3", "l2"], "--norm2, --norm3"),
        ("paper-demos", ["--norm", "spectral"], "--norm"),
        ("paper-demos", ["--norm1", "l1", "--norm2", "l2"], "--norm1, --norm2"),
        ("paper-demos", ["--dim", "3", "--budget-samples", "4"], "--trials, --dim, --budget-samples"),
    ],
)
def test_verify_rejects_norm_options_its_suite_does_not_read(suite, given, stray, capsys):
    # theorem23 reads --norm, lemma21 --norm1 and --norm2, lemma22 also
    # --norm3 and --norm4, and the three read --trials, --dim and --budget-*;
    # paper-demos reads none of them, so the --trials below is named after
    # its norms: any other is a usage error, named before anything runs,
    # even when it would not parse
    assert run_command(["verify", "--suite", suite, "--trials", "2", *given]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--suite {suite} does not read {stray}" in err


def test_paper_demos_header_offers_no_override(monkeypatch, tmp_path, capsys):
    from normlab import cli
    from normlab.verification import SuiteReport

    monkeypatch.setattr(cli, "paper_demo_suite", lambda seed: SuiteReport("paper-demos", seed, [], 0.0))
    out_path = tmp_path / "demos.json"
    # the suite runs at its own n = 2 and 3, so no dim is shown or recorded
    argv = ["verify", "--suite", "paper-demos", "--seed", "9", "--report", str(out_path)]
    assert run_command(argv) == 0
    out = capsys.readouterr().out
    assert "dim and budget: fixed by the suite" in out
    assert "--budget" not in out
    assert "dim=" not in out
    settings = json.loads(out_path.read_text())["settings"]
    assert "budget" not in settings
    assert settings == {"seed": 9}


def test_theorem23_runs_the_requested_trials(monkeypatch, capsys):
    # and on the spectral norm when --norm is not given
    from normlab import MaxColSum, Spectral, cli
    from normlab.verification import SuiteReport

    seen = []

    def stub(source, n, trials, budget, rng):
        seen.append((source, trials))
        return SuiteReport("theorem23", 0, [], 0.0)

    monkeypatch.setattr(cli, "verify_theorem23", stub)
    argv = ["verify", "--suite", "theorem23", "--dim", "2", "--trials", "100"]
    assert run_command(argv + ["--norm", "maxcolsum"]) == 0
    assert run_command(argv) == 0
    assert seen == [(MaxColSum(), 100), (Spectral(), 100)]


def test_step_schedule_flags_are_usage_errors_exit_2(matrix_file, capsys):
    # the climb's step schedule is fixed in sphere_opt, not a budget field
    argv = ["gind", "--norm1", "linf", "--norm2", "l1", "--matrix", matrix_file]
    for flag, value in (("--budget-step-init", "0.5"), ("--budget-tol", "1e-8")):
        assert run_command(argv + [flag, value]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_dimension_below_one_exit_2(capsys):
    for dim in ("0", "-1"):
        assert run_command(["extract", "--norm", "maxrowsum", "--dim", dim]) == 2
        assert run_command(["probe-minimality", "--norm", "sigma", "--dim", dim]) == 2
    assert "dimension must be at least 1" in capsys.readouterr().err


def test_negative_seed_exit_2(matrix_file, capsys):
    assert run_command(["verify", "--suite", "lemma21", "--seed", "-1", "--trials", "2"]) == 2
    assert run_command(["gind", "--norm1", "l1", "--norm2", "l2", "--seed", "-5", "--matrix", matrix_file]) == 2
    assert capsys.readouterr().err.count("seed must be at least 0") == 2
    budget = {"multistarts": 2, "max_iters": 40, "samples": 6, "step_init": 0.5, "tol": 1e-8, "seed": -1}
    norm = json.dumps({"kind": "extracted", "role": 1, "source": {"kind": "sigma"}, "budget": budget})
    assert run_command(["eval", "--norm", norm, "--matrix", matrix_file]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_document_field_of_wrong_type_exit_2(matrix_file, tmp_path, capsys):
    for norm in (
        '{"kind":"scaled","gamma":"abc","inner":{"kind":"lp","p":2}}',
        '{"kind":"scaled","gamma":null,"inner":{"kind":"lp","p":2}}',
        '{"kind":"weighted-lp","weights":["a",1],"p":2}',
    ):
        assert run_command(["extract", "--norm", norm]) == 2
    cells = tmp_path / "bool.json"
    cells.write_text('{"rows": [[true, 1], [0, 1]]}')
    assert run_command(["eval", "--norm", "sigma", "--matrix", str(cells)]) == 2
    assert capsys.readouterr().err.count("expected a number") == 4


def test_trials_below_one_exit_2(capsys):
    assert run_command(["verify", "--suite", "lemma21", "--trials", "0"]) == 2
    assert run_command(["verify", "--suite", "lemma22", "--trials", "-1"]) == 2
    assert run_command(["probe-minimality", "--norm", "sigma", "--trials", "0"]) == 2
    assert capsys.readouterr().err.count("trial count must be at least 1") == 3


def test_huge_spectral_value_is_finite(tmp_path, capsys):
    # A*A of this matrix overflows; A is scaled by a power of two before it
    # is formed, so the value is exact and no overflow warning is raised
    path = tmp_path / "huge.csv"
    path.write_text("1e200,0\n0,1\n")
    out_path = tmp_path / "value.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(
            ["eval", "--norm", "spectral", "--matrix", str(path), "--report", str(out_path)]
        )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out_path.read_text())["value"] == 1e200


def test_eigen_solver_failure_exit_3(matrix_file, monkeypatch, capsys):
    def failing(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    assert run_command(["eval", "--norm", "spectral", "--matrix", matrix_file]) == 3
    assert "eigen solve failed" in capsys.readouterr().err


def test_probe_minimality_report(matrix_file, tmp_path, capsys):
    out_path = tmp_path / "probe.json"
    code = run_command(
        [
            "probe-minimality", "--norm", "sigma", "--dim", "2",
            "--trials", "20", "--seed", "7", "--report", str(out_path),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "gap_found" in stdout
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "gap_found"
    assert doc["max_gap_ratio"] == pytest.approx(0.7071, abs=1e-3)
    rows = doc["witness"]["rows"]
    assert rows[0][0]["re"] == pytest.approx(1.0)
    assert rows[1][1]["re"] == pytest.approx(-1.0)


def test_matrix_commands_size_their_budget_by_the_matrix(tmp_path, monkeypatch, capsys):
    # default_budget(4) from the loaded matrix; these commands take no --dim
    path = tmp_path / "a4.csv"
    path.write_text("\n".join(",".join(f"{i - 2 * j}" for j in range(4)) for i in range(4)) + "\n")
    budgets = []
    for name in ("mnorm_eval", "gind_eval", "chain_compare"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real: budgets.append(a[-1]) or real(*a))
    l3, l15 = '{"kind":"lp","p":3}', '{"kind":"lp","p":1.5}'
    commands = (
        ["eval", "--norm", "spectral"],
        ["gind", "--norm1", l3, "--norm2", l15],
        ["chain", "--norm1", l3, "--norm2", l15],
    )
    for argv in commands:
        assert run_command(argv + ["--matrix", str(path)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "dim=4 " in header
        assert header.endswith("budget: multistarts=32 max_iters=400 samples=256"), header
        assert run_command(argv + ["--matrix", str(path), "--dim", "3"]) == 2
        assert "unrecognized arguments: --dim" in capsys.readouterr().err
    assert budgets == [default_budget(4)] * 3
    assert run_command(["gind", "--norm1", l3, "--norm2", l15, "--matrix", str(path),
                        "--budget-multistarts", "3"]) == 0
    assert "multistarts=3 max_iters=400 samples=256" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, want",
    [
        (["extract", "--norm", "maxrowsum"], "multistarts=2 max_iters=40 samples=4"),
        (["probe-minimality", "--norm", "spectral", "--trials", "1"],
         "multistarts=2 max_iters=120 samples=4"),
        (["verify", "--suite", "lemma21", "--trials", "1"], "multistarts=3 max_iters=80 samples=4"),
        (["verify", "--suite", "lemma22", "--trials", "1"], "multistarts=3 max_iters=80 samples=4"),
        (["verify", "--suite", "theorem23", "--trials", "1"],
         "multistarts=3 max_iters=40 samples=4"),
    ],
    ids=["extract", "probe-minimality", "lemma21", "lemma22", "theorem23"],
)
def test_budget_flags_override_the_commands_own_defaults(argv, want, capsys):
    assert run_command(argv + ["--budget-samples", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("budget: " + want)


def test_extract_command(capsys):
    code = run_command(["extract", "--norm", "maxrowsum", "--dim", "2", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "norm1" in out and "norm2" in out


def test_verify_lemma21_exit_codes(capsys):
    code = run_command(
        ["verify", "--suite", "lemma21", "--dim", "2", "--trials", "40", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "suite lemma21: PASS" in out


def test_verify_report_schema(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code = run_command(
        [
            "verify", "--suite", "lemma22", "--dim", "2", "--trials", "30",
            "--seed", "5", "--budget-max-iters", "60", "--report", str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["kind"] == "suite-report"
    assert doc["passed"] is True
    assert doc["settings"]["budget"]["max_iters"] == 60
    assert doc["settings"]["seed"] == 5


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "normlab", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "probe-minimality" in proc.stdout


GIND_L3_L15 = '{"kind": "gind", "norm1": {"kind": "lp", "p": 3}, "norm2": {"kind": "lp", "p": 1.5}}'
# GInd(max(l1, 2 linf), l2), a polyhedral domain
GIND_POLY_L2 = (
    '{"kind": "gind", "norm1": {"kind": "maxof", "inner": [{"kind": "lp", "p": 1}, '
    '{"kind": "scaled", "gamma": 2, "inner": {"kind": "lp", "p": "inf"}}]}, '
    '"norm2": {"kind": "lp", "p": 2}}'
)


def test_default_runs_never_climb(monkeypatch, capsys):
    # no suite or CLI default reaches the sphere hill climb: the catalog and
    # g-ind sources of l_p and polyhedral domains have exact pairs, and gind pairs
    # take vertex, closed-form, polydisc or power-method routes, so
    # paper-demos builds no budget
    from normlab import sphere_opt

    def no_climb(*args, **kwargs):
        raise AssertionError("sphere climb reached")

    monkeypatch.setattr(sphere_opt, "_climb", no_climb)
    for argv in (
        *(["verify", "--suite", "paper-demos", "--seed", s] for s in ("0", "7", "42", "404", "10101")),
        ["verify", "--suite", "lemma21", "--trials", "20"],
        ["verify", "--suite", "lemma22", "--trials", "20"],
        ["verify", "--suite", "theorem23", "--trials", "20"],
        ["verify", "--suite", "theorem23", "--norm", GIND_L3_L15, "--trials", "20"],
        *(["verify", "--suite", "theorem23", "--norm", GIND_POLY_L2, "--trials", "20", "--dim", d]
          for d in ("2", "3")),
        ["probe-minimality", "--norm", "sigma", "--trials", "5"],
    ):
        assert run_command(argv) == 0, argv


def _parse(parser, argv):
    """(exit code, stdout, stderr) of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# each command with its required arguments
_REQUIRED = {
    "eval": ["--norm", "l1", "--matrix", "a.csv"],
    "gind": ["--norm1", "l1", "--norm2", "l2", "--matrix", "a.csv"],
    "chain": ["--norm1", "l1", "--norm2", "l2", "--matrix", "a.csv"],
    "extract": ["--norm", "l1"],
    "probe-minimality": ["--norm", "l1"],
    "verify": ["--suite", "lemma21"],
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_one_command_parser_reads_as_the_full_parser(command, monkeypatch):
    # run_command builds only the subcommand named first; its help, its own
    # errors and the top-level usage in errors after it match the full parser
    monkeypatch.setenv("COLUMNS", "80")
    full, one = cli.build_parser(), cli.build_parser(command)
    for argv in ([command, "-h"], [command], [command, *_REQUIRED[command], "--bogus"]):
        want = _parse(full, argv)
        assert want[0] is not None and want[1] + want[2]
        assert _parse(one, argv) == want


def test_help_and_usage_errors_use_the_full_parser(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_command(["-h"]) == 0
    listing = capsys.readouterr().out
    for command in cli._COMMANDS:
        assert f"\n    {command} " in listing
    for argv, message in (
        ([], "the following arguments are required: command"),
        (["nonsense"], "argument command: invalid choice"),
        (["verify"], "normlab verify: error: the following arguments are required: --suite"),
    ):
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err == _parse(cli.build_parser(), argv)[2]
        assert message in err

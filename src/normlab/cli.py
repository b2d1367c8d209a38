"""Command-line surface.

Subcommands: eval, gind, extract, probe-minimality, chain, verify.  Exit
codes: 0 success, 1 mathematical failure with witness, 2 usage or document
error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import formats
from .budget import OptBudget, default_budget
from .core import RandomStream
from .errors import NonConvergenceError, NormlabError, SpecValidationError
from .extraction import DEFAULT_INNER_BUDGET, extract_pair, minimality_probe
from .gind import chain_compare, gind_eval
from .matrix_norms import EntrywiseMax, EntrywiseSum, GInd, MaxColSum, MaxRowSum, Spectral, mnorm_eval
from .vector_norms import Extracted, Lp, MaxOf, Scaled, WeightedLp, vnorm_eval
from .verification import (
    SUITE_BUDGET,
    THEOREM23_BUDGET,
    paper_demo_suite,
    verify_lemma21,
    verify_lemma22,
    verify_theorem23,
)

# the names a norm option takes in place of a norm-spec document
_SHORTHAND = {
    "sigma": EntrywiseSum(),
    "entrywise-max": EntrywiseMax(),
    "maxcolsum": MaxColSum(),
    "maxrowsum": MaxRowSum(),
    "spectral": Spectral(),
    "maxcr": MaxOf((MaxColSum(), MaxRowSum())),
    "l1": Lp(1.0),
    "l2": Lp(2.0),
    "linf": Lp(float("inf")),
}


def _in_family(spec, matrix: bool) -> bool:
    """Whether every leaf of ``spec`` under Scaled and MaxOf is a matrix
    norm (``matrix``) or a vector norm, with vector norms inside a GInd and
    a matrix norm as an extracted norm's source."""
    if isinstance(spec, Scaled):
        return _in_family(spec.inner, matrix)
    if isinstance(spec, MaxOf):
        return all(_in_family(part, matrix) for part in spec.parts)
    if isinstance(spec, GInd):
        return matrix and _in_family(spec.norm1, False) and _in_family(spec.norm2, False)
    if isinstance(spec, Extracted):
        return not matrix and _in_family(spec.source, True)
    return isinstance(spec, (Lp, WeightedLp)) != matrix


def _resolve_norm(text: str, option: str, matrix: bool):
    """Shorthand name, inline JSON, or @file containing JSON, of a matrix
    norm (``matrix``) or a vector norm; a norm of the other family is
    rejected here, before the command prints anything, naming ``--option``."""
    if text in _SHORTHAND:
        spec = _SHORTHAND[text]
    elif text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            spec = formats.parse_norm_spec(fh.read())
    else:
        spec = formats.parse_norm_spec(text)
    if not _in_family(spec, matrix):
        family = "matrix" if matrix else "vector"
        raise SpecValidationError(f"--{option} needs a {family} norm, got {text!r}")
    return spec


def _pair_from(args, first: str, second: str, defaults=(None, None)) -> GInd:
    """The GInd of two vector-norm options, each its default when not given."""
    texts = (getattr(args, first), getattr(args, second))
    return GInd(*(
        default if text is None else _resolve_norm(text, option, matrix=False)
        for text, option, default in zip(texts, (first, second), defaults)
    ))


def _count(what: str, least: int = 1):
    """Argparse type for an integer n >= ``least``; ``what`` names it in errors."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"{what} must be at least {least}, got {n}")
        return n

    return parse


# one --budget-* flag per OptBudget field; --seed sets the budget's seed
_BUDGET_FIELDS = tuple(f.name for f in dataclasses.fields(OptBudget) if f.name != "seed")
_BUDGET_HELP = {
    "multistarts": "caps the ascent starts per search",
    "max_iters": "caps the scored points per start",
    "samples": "sets the random seed points drawn per search",
}


def _add_common(sub: argparse.ArgumentParser, dim: bool = True) -> None:
    if dim:  # eval, gind and chain take n from the loaded matrix instead
        sub.add_argument(
            "--dim", type=_count("dimension"), default=2, help="matrix dimension n (default 2)"
        )
    sub.add_argument(
        "--seed", type=_count("seed", 0), default=0, help="root random seed, >= 0 (default 0)"
    )
    sub.add_argument("--report", metavar="PATH", help="write a JSON report document")
    for name in _BUDGET_FIELDS:
        flag = "--budget-" + name.replace("_", "-")
        sub.add_argument(flag, type=int, default=None, metavar="N", help=_BUDGET_HELP[name])


def _budget_from(args, base: OptBudget | None = None) -> OptBudget:
    """Each --budget-* flag given, else the field of ``base``, the budget
    the command uses without flags (default: ``default_budget(args.dim)``);
    a given value reaches ``OptBudget`` validation even when it is zero."""
    if base is None:
        base = default_budget(args.dim, args.seed)
    fields = {}
    for name in _BUDGET_FIELDS:
        value = getattr(args, f"budget_{name}")
        fields[name] = getattr(base, name) if value is None else value
    return OptBudget(seed=args.seed, **fields)


def _explicit_budget(args) -> OptBudget | None:
    """For ``verify``: None unless the user set at least one --budget-* flag,
    and then the suite's own budget with the given fields overridden."""
    if all(getattr(args, name) is None for name in _BUDGET_OPTIONS):
        return None
    return _budget_from(args, THEOREM23_BUDGET if args.suite == "theorem23" else SUITE_BUDGET)


def _header(args, budget: OptBudget) -> dict:
    return {
        "dim": args.dim,
        "seed": args.seed,
        "budget": budget,
    }


def _describe(budget: OptBudget | None) -> str:
    if budget is None:
        return "suite defaults (override with --budget-*)"
    return " ".join(f"{name}={getattr(budget, name)}" for name in _BUDGET_FIELDS)


def _print_header(command: str, args, budget: OptBudget | None) -> None:
    print(
        f"normlab {command} | dim={args.dim} seed={args.seed} "
        f"budget: {_describe(budget)}"
    )


def _write_report(args, doc: dict) -> None:
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(formats.dumps_report(doc))


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--norm", required=True, help="norm spec (name, JSON, or @file)")
    p.add_argument("--matrix", required=True, help="CSV or JSON matrix file")
    _add_common(p, dim=False)


def _pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--norm1", required=True, help="domain vector norm")
    p.add_argument("--norm2", required=True, help="codomain vector norm")
    p.add_argument("--matrix", required=True)
    _add_common(p, dim=False)


def _extract_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--norm", required=True)
    _add_common(p)


def _probe_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--norm", required=True)
    p.add_argument("--trials", type=_count("trial count"), default=100)
    _add_common(p)


# the options each verify suite reads besides --seed and --report; giving
# any other is a usage error.  paper-demos runs at its own n = 2 and 3, its
# own trial counts and no budget
_BUDGET_OPTIONS = tuple("budget_" + name for name in _BUDGET_FIELDS)
_SAMPLING = ("trials", "dim", *_BUDGET_OPTIONS)
_VERIFY_OPTIONS = ("norm", "norm1", "norm2", "norm3", "norm4", *_SAMPLING)
_SUITE_OPTIONS = {
    "lemma21": ("norm1", "norm2", *_SAMPLING),
    "lemma22": ("norm1", "norm2", "norm3", "norm4", *_SAMPLING),
    "theorem23": ("norm", *_SAMPLING),
    "paper-demos": (),
}


def _stray_options(args) -> list[str]:
    """The options given to ``verify`` that its suite does not read."""
    given = (name for name in _VERIFY_OPTIONS if getattr(args, name) is not None)
    reads = _SUITE_OPTIONS[args.suite]
    return ["--" + name.replace("_", "-") for name in given if name not in reads]


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--suite",
        required=True,
        choices=["lemma21", "lemma22", "theorem23", "paper-demos"],
    )
    p.add_argument("--trials", type=_count("trial count"), help="random trials (default 200)")
    p.add_argument("--norm", default=None, help="source norm for theorem23 (default spectral)")
    p.add_argument("--norm1", default=None, help="pair A domain norm")
    p.add_argument("--norm2", default=None, help="pair A codomain norm")
    p.add_argument("--norm3", default=None, help="pair B domain norm (lemma22)")
    p.add_argument("--norm4", default=None, help="pair B codomain norm (lemma22)")
    _add_common(p)
    p.set_defaults(dim=None)  # None until given, so paper-demos can reject it


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``normlab`` parser, or, given a subcommand name, a parser that
    builds only that subcommand.  Its usage line still names all six, so
    the subcommand's help and every error read as in the full parser."""
    parser = argparse.ArgumentParser(
        prog="normlab",
        description="Numerical laboratory for matrix norms on n x n complex matrices.",
    )
    # the full parser keeps metavar None: its "required" error names the
    # argument "command", which a parser given a command never reports
    subs = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name, (text, add_arguments, _) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(subs.add_parser(name, help=text))
    return parser


def _cmd_eval(args) -> int:
    spec = _resolve_norm(args.norm, "norm", matrix=True)
    matrix = formats.load_matrix(args.matrix)
    args.dim = matrix.shape[0]
    budget = _budget_from(args)
    _print_header("eval", args, budget)
    value = mnorm_eval(spec, matrix, budget)
    print(f"norm value: {value:.10g}")
    doc = formats.report_to_doc(
        "norm-value", settings=_header(args, budget), norm=spec, value=value
    )
    _write_report(args, doc)
    return 0


def _cmd_gind(args) -> int:
    pair = _pair_from(args, "norm1", "norm2")
    matrix = formats.load_matrix(args.matrix)
    args.dim = matrix.shape[0]
    budget = _budget_from(args)
    _print_header("gind", args, budget)
    result = gind_eval(pair, matrix, budget)
    print(f"value: {result.value:.10g}  exactness: {result.exactness}  evaluations: {result.evaluations}")
    doc = formats.report_to_doc(
        "computation", result, _header(args, budget), norm1=pair.norm1, norm2=pair.norm2
    )
    _write_report(args, doc)
    return 0


def _cmd_chain(args) -> int:
    pair = _pair_from(args, "norm1", "norm2")
    matrix = formats.load_matrix(args.matrix)
    args.dim = matrix.shape[0]
    budget = _budget_from(args)
    _print_header("chain", args, budget)
    report = chain_compare(pair, matrix, budget)
    print(f"v21={report.v21:.10g} v11={report.v11:.10g} v22={report.v22:.10g} v12={report.v12:.10g}")
    print(f"chain holds: {report.chain_holds} (slack {report.slack:.3e})")
    _write_report(args, formats.report_to_doc("chain-report", report, _header(args, budget)))
    return 0


def _cmd_extract(args) -> int:
    source = _resolve_norm(args.norm, "norm", matrix=True)
    inner = _budget_from(args, dataclasses.replace(DEFAULT_INNER_BUDGET, seed=args.seed))
    _print_header("extract", args, inner)
    n = args.dim
    pair = extract_pair(source, inner)
    probes = [np.eye(n, dtype=np.complex128)[0], np.ones(n, dtype=np.complex128),
              np.arange(1, n + 1).astype(np.complex128)]
    labels = ["e1", "ones", "ramp"]
    rows = []
    print(f"{'point':>6s} {'norm1 (sup form)':>18s} {'norm2 (column form)':>20s}")
    for label, x in zip(labels, probes):
        v1 = vnorm_eval(pair.norm1, x)
        v2 = vnorm_eval(pair.norm2, x)
        rows.append({"point": label, "norm1": v1, "norm2": v2})
        print(f"{label:>6s} {v1:18.10g} {v2:20.10g}")
    doc = formats.report_to_doc(
        "extraction", settings=_header(args, inner),
        source=source, norm1=pair.norm1, norm2=pair.norm2, evaluations=rows,
    )
    _write_report(args, doc)
    return 0


def _cmd_probe(args) -> int:
    source = _resolve_norm(args.norm, "norm", matrix=True)
    # moderate default: catalog sources with an exact extracted pair
    # (spectral, entrywise-max, maxcolsum) run no outer search, the other
    # catalog sources run a polydisc search per probe matrix, a GInd source
    # with an l_p, weighted l_p or polyhedral domain its own route, none of
    # which reads the budget, and any other source runs an ascent per probe
    # matrix, each point of which runs a role-1 climb
    outer = _budget_from(args, OptBudget(multistarts=2, max_iters=120, samples=6, seed=args.seed))
    _print_header("probe-minimality", args, outer)
    report = minimality_probe(
        source, args.dim, args.trials, outer, RandomStream(args.seed)
    )
    print(f"verdict: {report.verdict}  min ratio: {report.max_gap_ratio:.6f}  matrices tested: {report.trials}")
    if report.witness is not None:
        print("witness:")
        for row in report.witness:
            print("  " + "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row))
    _write_report(args, formats.report_to_doc("minimality-probe", report, _header(args, outer)))
    return 0


def _cmd_verify(args) -> int:
    args.trials = 200 if args.trials is None else args.trials
    args.dim = 2 if args.dim is None else args.dim
    budget = _explicit_budget(args)
    rng = RandomStream(args.seed)
    # the suite's norms are resolved before anything is printed
    if args.suite == "paper-demos":
        run = functools.partial(paper_demo_suite, args.seed)
    elif args.suite == "lemma21":
        pair = _pair_from(args, "norm1", "norm2", (Lp(float("inf")), Lp(1.0)))
        run = functools.partial(verify_lemma21, pair, args.dim, args.trials, rng, budget)
    elif args.suite == "lemma22":
        pair_a = _pair_from(
            args, "norm1", "norm2", (Scaled(3.0, Lp(float("inf"))), Scaled(6.0, Lp(2.0)))
        )
        pair_b = _pair_from(args, "norm3", "norm4", (Lp(float("inf")), Scaled(2.0, Lp(2.0))))
        run = functools.partial(verify_lemma22, pair_a, pair_b, args.dim, args.trials, rng, budget)
    else:
        source = _resolve_norm("spectral" if args.norm is None else args.norm, "norm", matrix=True)
        run = functools.partial(verify_theorem23, source, args.dim, args.trials, budget, rng=rng)

    settings = {"seed": args.seed}
    if args.suite == "paper-demos":
        print(f"normlab verify paper-demos | seed={args.seed} dim and budget: fixed by the suite")
    else:
        _print_header(f"verify {args.suite}", args, budget)
        settings["dim"] = args.dim
    if budget is not None:
        settings["budget"] = budget
    report = run()

    for case in report.cases:
        shown = ", ".join(f"{k}={v:.6g}" for k, v in sorted(case.values.items()))
        print(f"[{case.status:>12s}] {case.description}" + (f" ({shown})" if shown else ""))
    print(f"suite {report.suite_name}: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.cases)} cases, {report.elapsed:.2f}s)")
    _write_report(args, formats.suite_report_to_doc(report, settings))
    return 0 if report.passed else 1


# subcommand -> (help, the function that adds its arguments, its runner)
_COMMANDS = {
    "eval": ("evaluate a matrix norm on a matrix file", _eval_args, _cmd_eval),
    "gind": ("generalized induced norm of a matrix", _pair_args, _cmd_gind),
    "chain": ("the four mixed operator norms of a pair", _pair_args, _cmd_chain),
    "extract": ("recover the vector-norm pair of a matrix norm", _extract_args, _cmd_extract),
    "probe-minimality": ("search for a reconstruction gap", _probe_args, _cmd_probe),
    "verify": ("run a property suite", _verify_args, _cmd_verify),
}


def run_command(argv) -> int:
    # a command named first needs only its own arguments; anything else
    # (no command, an unknown one, -h) gets the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and (stray := _stray_options(args)):
            parser.error(f"--suite {args.suite} does not read {', '.join(stray)}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command][2](args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NormlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

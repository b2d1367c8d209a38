"""normlab benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {demo-suite,t23-catalog,gind-mix} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in fresh single-threaded child processes
(``perfbench/worker.py``) with the BLAS thread count pinned to 1; the load is
closed-loop, one client waiting for each answer.  A pass is the workload's
fixed list of public-API calls (see ``perfbench/workloads.py``).  Times are
reference seconds: wall seconds scaled for the host's speed drift (see
``perfbench/hostspeed.py``); the raw wall seconds are in the notes.

``--trace 0`` measures, untraced:

* ``setup_s``: importing ``normlab`` and building the inputs in a fresh
  process, the median over SETUP_PROCESSES + 1 processes;
* ``cold_s``: a pass right after the role-1 cache was emptied;
* ``warm_s``: the same pass repeated in the same process;
* ``peak_rss_mb``: peak resident memory of the measuring process.

The measuring process runs rounds of one cold pass and the workload's warm
passes until ``--seconds`` of calls were measured; ``cold_s`` and ``warm_s``
add up each call's median over the cold, resp. warm, passes.  It also prints
the workload's own metrics (``demo_cold_s``, ``t23_s``, the ``gind_*``
latencies, ...) and ``fail_frac`` as lines before the result.

``--trace 1`` runs one cold and one warm pass in a fresh untraced process,
then in two fresh traced processes at once.  It reports per-layer calls, self
time (wall seconds) and deterministic counts from the first traced process,
and the tracing overhead as its time over the untraced time.  Every count
that differs between the two traced processes is a failed determinism check.
Spans are written to ``.perfbench/trace-<workload>-seed<N>.jsonl``.

Every output is checked.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; lines
before it name the machine and give notes (per-kind latency percentiles, raw
wall seconds, the deterministic counts).  The exit code is 1 when a check
failed and 2 when the benchmark could not run.

On some seeds demo-suite fails a check: ``verify --suite paper-demos``
fails its own gap-probe case (for example with ``--seed 404``).  The run then
reports ``"correct": false`` and exits with code 1.

Seeds 1 to 760, 1001 and 2001 were used while the benchmark was written; to check
a claim on fresh inputs, run with seeds above 3000.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH_DIR))
from hostspeed import machine  # noqa: E402
from tracer import KERNELS, LAYERS, SPANS  # noqa: E402

WORKLOADS = ("demo-suite", "t23-catalog", "gind-mix")
SETUP_PROCESSES = 8  # plus the measuring process itself
DEADLINE_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# extra per-layer counts beyond calls and self time, by wrapped function
LAYER_COUNTS = {
    "core.hermitian_top_eig": ("iters",),
    "sphere_opt.maximize_on_sphere": ("evals", "vertex", "closed_form", "ascent"),
    "sphere_opt.maximize_on_matrix_sphere": ("evals", "vertex", "phase", "ascent"),
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def run_workers(deadline: float, mode: str, args, scratch: Path, spans: list) -> list[dict]:
    """Run one worker per entry of ``spans`` at once and return their results.

    Each worker gets its own scratch directory; an entry of ``spans`` is the
    path the worker writes its spans to, or None.
    """
    if deadline - time.monotonic() <= 0:
        raise BenchError("out of time before a worker could start")
    procs = []
    try:
        for index, span_path in enumerate(spans):
            own = scratch / f"{mode}-{index}"
            own.mkdir(parents=True, exist_ok=True)
            argv = [
                sys.executable, str(BENCH_DIR / "worker.py"), mode, args.workload,
                str(args.seed), str(args.seconds), str(own),
            ]
            if span_path is not None:
                argv.append(str(span_path))
            procs.append(
                subprocess.Popen(
                    argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True,
                )
            )
        outputs = []
        for proc in procs:
            remaining = max(deadline - time.monotonic(), 0.01)
            try:
                outputs.append(proc.communicate(timeout=remaining))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    results = []
    for proc, (stdout, stderr) in zip(procs, outputs):
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{stderr[-2000:]}")
        lines = stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} worker printed no result:\n{stderr[-2000:]}")
        results.append(json.loads(lines[-1]))
    return results


def run_worker(deadline: float, mode: str, args, scratch: Path) -> dict:
    return run_workers(deadline, mode, args, scratch, [None])[0]


def typical_pass(passes: list) -> float:
    """Seconds of a pass made of each call's median time over the passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def kind_times(result: dict, kind: str) -> list:
    """Seconds of every call of one kind, over all passes."""
    kinds = result["kinds"]
    return [p[j] for p in result["cold"] + result["warm"] for j, k in enumerate(kinds) if k == kind]


def p50_p90_ms(times: list) -> tuple[float, float]:
    deciles = statistics.quantiles([1e3 * t for t in times], n=10, method="inclusive")
    return deciles[4], deciles[8]


def workload_metrics(workload: str, metrics: dict, timed: dict) -> dict:
    """The end-to-end metrics under the names users know for this workload."""
    named = {"setup_s": metrics["setup_s"]}
    if workload == "demo-suite":
        named["demo_cold_s"] = metrics["cold_s"]
        named["demo_warm_s"] = metrics["warm_s"]
    elif workload == "t23-catalog":
        named["t23_s"] = metrics["cold_s"]
    else:
        exact, ascent, evals = (kind_times(timed, k) for k in ("exact", "ascent", "eval"))
        gind = exact + ascent
        named["gind_calls_per_s"] = (len(gind) / sum(gind), "1/s")
        for kind, times in (("exact", exact), ("ascent", ascent)):
            p50, p90 = p50_p90_ms(times)
            named[f"gind_{kind}_p50_ms"] = (p50, "ms")
            named[f"gind_{kind}_p90_ms"] = (p90, "ms")
        named["eval_calls_per_s"] = (len(evals) / sum(evals), "1/s")
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    return named


def busy_s(result: dict) -> float:
    return sum(sum(p) for p in result["cold"] + result["warm"])


def end_to_end(deadline: float, args, scratch: Path) -> tuple[dict, dict]:
    setups = [run_worker(deadline, "setup", args, scratch) for _ in range(SETUP_PROCESSES)]
    timed = run_worker(deadline, "timed", args, scratch)
    setups.append(timed)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "cold_s": (typical_pass(timed["cold"]), "s"),
        "warm_s": (typical_pass(timed["warm"]), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_samples": len(setups),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups),
        "cold_passes": len(timed["cold"]),
        "warm_passes": len(timed["warm"]),
        "cold_wall_s": typical_pass(timed["cold_wall"]),
        "warm_wall_s": typical_pass(timed["warm_wall"]),
        "host_chunk_ms": 1e3 * statistics.median(timed["chunks"]),
        "calls_timed": {
            kind: timed["kinds"].count(kind) * (len(timed["cold"]) + len(timed["warm"]))
            for kind in sorted(set(timed["kinds"]))
        },
    }
    named = workload_metrics(args.workload, metrics, timed)
    return metrics, {"notes": notes, "named": named, "checks": [timed]}


def compare_counts(first: dict, second: dict) -> dict:
    """Checks that two traced processes of the same seed made the same counts."""
    names = sorted(set(first) | set(second))
    mismatched = [k for k in names if first.get(k) != second.get(k)]
    return {
        "attempted": len(names),
        "failed": len(mismatched),
        "messages": [f"count {k} differs between two traced runs: {first.get(k)} vs {second.get(k)}"
                     for k in mismatched[:20]],
    }


def per_layer(deadline: float, args, scratch: Path) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    plain = run_worker(deadline, "fixed", args, scratch)
    # two traced processes at once, one per core: the second repeats the
    # first's counts, or the program is not deterministic
    first, second = run_workers(deadline, "traced", args, scratch, [spans, None])
    counts = first["counts"]
    determinism = compare_counts(counts, second["counts"])

    self_s = first["self_s"]
    metrics: dict = {}
    for module, fn in KERNELS + SPANS:
        name = f"{module}.{fn}"
        metrics[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for extra in LAYER_COUNTS.get(name, ()):
            metrics[f"{name}.{extra}"] = (counts.get(f"{name}.{extra}", 0), "count")
    role1_calls = counts.get("extraction.eval_role1.calls", 0)
    hits = counts.get("extraction.eval_role1.hits", 0)
    metrics["extraction.eval_role1.hits"] = (hits, "count")
    metrics["extraction.eval_role1.hit_ratio"] = (hits / role1_calls if role1_calls else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    metrics["trace.overhead"] = (busy_s(first) / busy_s(plain), "ratio")

    traced_self = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    notes = {
        "untraced_s": busy_s(plain),
        "traced_s": busy_s(first),
        "self_share": {
            layer: round(self_s.get(layer, 0.0) / traced_self, 4) for layer in LAYERS
        } if traced_self > 0 else {},
        "counts": counts,
        "determinism": "counts compared with a second traced process",
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, {"notes": notes, "named": {}, "checks": [plain, first, second, determinism]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "normlab" / "__init__.py").is_file():
        print(f"error: no normlab sources under {SRC}; run from a normlab checkout",
              file=sys.stderr)
        return 2

    # workers inherit the pin; numpy reads it once, at import
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    deadline = time.monotonic() + DEADLINE_S
    scratch = OUT_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(deadline, args, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = detail["checks"]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    # passes repeat the same calls, and with them the same failures
    for message in dict.fromkeys(m for c in checks for m in c["messages"]):
        print(f"check failed: {message}", file=sys.stderr)

    print(f"# machine {json.dumps(machine())}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# notes {json.dumps(detail['notes'], sort_keys=True)}")
    for name, (value, unit) in {**detail["named"], **metrics}.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'fail_frac':48s} {failed / max(attempted, 1):>16.6g} ratio ({failed} of {attempted} checks)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One fresh benchmark process: set up, run passes, print one JSON line.

Started by ``perfbench/run.py`` with the workload's sources on PYTHONPATH:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SCRATCH_DIR [SPANS_PATH]

MODE is ``setup`` (import and build inputs only), ``timed`` (rounds of one
cold pass and the workload's warm passes, see ``workloads.PASSES``, until
SECONDS of calls were measured), ``fixed`` (one cold and one warm pass) or
``traced`` (``fixed`` under the span tracer, spans written to SPANS_PATH).
Pass timings are reported per call, so the caller can take each call's
median over passes.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports normlab and numpy: part of set-up)
import hostspeed  # noqa: E402

# latency percentiles need ten samples beyond p90 in each latency kind
MIN_CLASS_CALLS = 100


def main(argv) -> int:
    mode, name, seed, seconds, scratch = argv[:5]
    seed, seconds = int(seed), float(seconds)
    workload = workloads.build(name, seed, scratch)
    setup_wall_s = time.perf_counter() - _T0
    out = {
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_wall_s * hostspeed.scale([hostspeed.chunk() for _ in range(25)]),
    }
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    checks = workloads.Checks()
    kinds = workload.kinds
    passes = workloads.PASSES[name] if mode == "timed" else {"min_cold": 1, "warm_per_cold": 1}
    cold, warm = [], []
    measured = 0.0
    while True:
        workloads.clear_caches()
        cold.append(workload.run_pass(checks))
        measured += sum(cold[-1].wall)
        for _ in range(passes["warm_per_cold"]):
            warm.append(workload.run_pass(checks))
            measured += sum(warm[-1].wall)
        if mode != "timed":
            break
        per_kind = min((kinds.count(k) for k in workload.latency_kinds), default=MIN_CLASS_CALLS)
        enough_calls = (len(cold) + len(warm)) * per_kind >= MIN_CLASS_CALLS
        if len(cold) >= passes["min_cold"] and measured >= seconds and enough_calls:
            break

    if tracer is not None:
        tracer.uninstall()
        out["counts"] = tracer.deterministic_counts()
        out["self_s"] = tracer.self_times()
        if len(argv) > 5:
            header = {"workload": name, "seed": seed, "machine": hostspeed.machine()}
            tracer.write_spans(argv[5], header)

    out.update(
        {
            "kinds": kinds,
            "latency_kinds": workload.latency_kinds,
            "cold": hostspeed.scaled(cold),
            "warm": hostspeed.scaled(warm),
            "cold_wall": [p.wall for p in cold],
            "warm_wall": [p.wall for p in warm],
            "chunks": [c for p in cold + warm for c in p.chunks],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "messages": checks.messages,
        }
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

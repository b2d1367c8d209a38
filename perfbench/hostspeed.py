"""Time calls in reference seconds, correcting for the host's speed drift.

On a shared host the speed of one core drifts over minutes by tens of
percent, at times by a factor of two, which swamps the differences a
benchmark has to resolve.  While a pass runs, an interval timer samples the
host's speed: every SAMPLE_EVERY_S a SIGALRM handler runs a fixed reference
loop (``chunk``), a Python loop over small complex numpy operations, the mix
of interpreter and tiny-array work that dominates normlab's kernels, and
independent of normlab's code.  The handler runs between bytecodes of
whatever is executing, and its seconds are subtracted from the call it
interrupted.  The seconds of a run's cold passes are then scaled by
``REFERENCE_CHUNK_S / median(chunk seconds sampled during them)``, and those
of its warm passes the same way, so a run made while the host was slow is not
reported as slow, and a change to normlab moves the scaled time as it moves
the raw time.  The raw wall seconds are reported alongside.

One chunk is noisy: alone on the host, the median of 8 consecutive chunks
spreads by about 8% (quartile distance over median), so a factor is taken
over all the samples of a kind of pass, never over one short call.
"""

from __future__ import annotations

import gc
import os
import platform
import signal
import statistics
import time

import numpy as np

# chunk seconds on the 2-core Intel Xeon host the benchmark was tuned on, at
# its usual speed; scaled seconds are seconds on that host
REFERENCE_CHUNK_S = 0.0022
CHUNK_STEPS = 250
SAMPLE_EVERY_S = 0.1

_A = np.array(
    [[1 + 2j, 0.5 - 1j, 0.2], [0.3j, 2.0, -1j], [0.1, 0.2 + 0.2j, 1.0]], dtype=np.complex128
)


def chunk() -> float:
    """Seconds taken by one run of the fixed reference loop.

    The garbage collector is off while it runs: a collection started by the
    loop's allocations would scan normlab's heap, and its seconds would be
    subtracted from normlab's call.  The allocations still count towards the
    next collection, which then runs inside the call and is timed with it.
    """
    x = np.array([1.0, 0.5j, 0.25], dtype=np.complex128)
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CHUNK_STEPS):
            y = _A @ x
            s = float(np.abs(y).sum()) + float(np.sqrt(np.vdot(y, y).real))
            x = y / s
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scale(chunks: list[float]) -> float:
    """Factor turning wall seconds into reference seconds."""
    return REFERENCE_CHUNK_S / statistics.median(chunks)


def scaled(passes: list["PassClock"]) -> list[list[float]]:
    """Each call's seconds, per pass, in reference seconds, scaled by the
    host speed sampled over all the passes."""
    factor = scale([c for p in passes for c in p.chunks])
    return [[seconds * factor for seconds in p.wall] for p in passes]


class PassClock:
    """Times the calls of one pass while sampling the host speed.

    Use as a context manager around the pass; the interval timer runs only
    inside it.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.chunks: list[float] = []
        self._chunk_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        took = chunk()
        self.chunks.append(took)
        self._chunk_s += took

    def __enter__(self) -> "PassClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.chunks:  # a pass shorter than one sampling interval
            self.chunks.append(chunk())

    def call(self, fn, *args):
        """Call fn(*args), record its wall seconds, and return its result."""
        sampled = self._chunk_s
        start = time.perf_counter()
        result = fn(*args)
        self.wall.append(time.perf_counter() - start - (self._chunk_s - sampled))
        return result


def machine() -> dict:
    """The host a result was measured on."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }

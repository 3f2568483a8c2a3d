"""Host-speed calibration for the untraced timings.

On a shared host the same code runs up to a third slower for minutes at a
time, and every timing moves with it. A fixed calibration pass is timed
alongside the workload, and each reported time is multiplied by the square
root of NOMINAL_S over the run's mean pass time. NOMINAL_S is the pass time
on a quiet 2-vCPU machine of the kind the benchmark was defined on.

The root, not the full ratio: the workloads feel about half of the slowdown
that the pass feels. Over two sets of ten runs of each workload, the
least-squares slope of log time per unit on log pass time was 0.23-0.67,
0.46 on average. In those runs the spread of time per unit over ten seeds
was at most 10.5% unscaled, 8.9% scaled by the full ratio and 6.8% scaled
by its root.

The pass holds the kinds of work the workloads do, in roughly equal parts: an
interpreter loop, BLAS matrix products, a run of small numpy operations, a
stream through 16 MB and FFTs. It runs in a process of its own (this file,
run as a script), so its memory stays out of the measured process's peak RSS.
The measured process waits while a pass runs, so the two never compete.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.027
EXPONENT = 0.5


def _arrays() -> dict:
    rng = np.random.default_rng(0)
    return {
        "big": rng.standard_normal((256, 256)).astype(np.float32),
        "small": rng.standard_normal((16, 64)).astype(np.float32),
        "small_w": rng.standard_normal((64, 64)).astype(np.float32),
        "stream": rng.standard_normal(4_000_000).astype(np.float32),
        "frames": rng.standard_normal((400, 2048)),
    }


def calibration_pass(a: dict) -> None:
    s = 0
    for i in range(100_000):
        s += i * i
    x = a["big"]
    for _ in range(20):
        x = np.tanh((x @ a["big"]) * 0.05)
    x = a["small"]
    for _ in range(800):
        x = np.tanh((x @ a["small_w"]) * 0.1) + 0.01
    a["stream"] * 1.0001 + 0.5
    np.fft.rfft(a["frames"], axis=1)


def serve() -> None:
    """Answers each stdin line ``<seconds>`` with ``<passes> <elapsed>``: as
    many passes as fit in ``seconds``, at least one, after one untimed pass
    that brings the arrays back into cache. Ends at end of input."""
    a = _arrays()
    for line in sys.stdin:
        calibration_pass(a)
        n, t0 = 0, time.perf_counter()
        while not n or time.perf_counter() - t0 < float(line):
            calibration_pass(a)
            n += 1
        print(n, time.perf_counter() - t0, flush=True)


class Calibrator:
    """Times calibration passes in a child process and keeps their total."""

    def __init__(self):
        self.passes, self.seconds = 0, 0.0
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self, seconds: float) -> None:
        self._proc.stdin.write(f"{seconds}\n")
        self._proc.stdin.flush()
        n, elapsed = self._proc.stdout.readline().split()
        self.passes += int(n)
        self.seconds += float(elapsed)

    def slowdown(self) -> float:
        """The mean pass time so far over NOMINAL_S."""
        return self.seconds / self.passes / NOMINAL_S

    def scale(self) -> float:
        """The factor that brings a time measured so far to nominal speed."""
        return self.slowdown() ** -EXPONENT

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()

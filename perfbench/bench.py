"""One workload in this process: ``prepare`` writes its inputs, ``measure``
times it and writes a JSON result.

run.py starts this file as a child process for each step, so the inputs'
generation never counts toward the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import statistics
import time
from pathlib import Path

import hdrs
import numpy as np

from calibrate import Calibrator
from tracing import COUNTER_NAMES, TRACED, Tracer
from workloads import WORKLOADS, FirstForward, SetupDone

# Set-up-only calls per untraced run, for a median set-up time: at least
# MIN_PROBES, and more while they take under PROBE_SECONDS in all.
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 3, 100, 1.0

# Calibration after each round: CAL_SHARE of the round's time, at least
# CAL_MIN_S (see calibrate.py).
CAL_SHARE, CAL_MIN_S = 0.1, 0.2


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": f"{blas.get('name')}-{blas.get('version')}", "blas_threads": "unknown"}
    # OpenBLAS as bundled in numpy wheels; other BLAS builds report "unknown"
    for lib in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(cdll, symbol):
                env["blas_threads"] = getattr(cdll, symbol)()
                return env
    return env


def probe_setups(wl, d: Path, seed: int, hook: FirstForward) -> tuple:
    """Times the top call up to its first model.forward, repeatedly."""
    times, errors = [], []
    start = time.perf_counter()
    while len(times) + len(errors) < MIN_PROBES or (
            time.perf_counter() - start < PROBE_SECONDS
            and len(times) + len(errors) < MAX_PROBES):
        hook.reset(abort=True)
        t0 = time.perf_counter()
        try:
            wl.probe(d, seed)
            errors.append("set-up probe never reached model.forward")
        except SetupDone:
            times.append(hook.at - t0)
        except Exception as e:  # reported as a failed probe
            errors.append(f"set-up probe: {type(e).__name__}: {e}")
    return times, errors


def measure(name: str, d: Path, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    hook = FirstForward()
    hook.install()
    with Calibrator() as cal:
        cal.run(CAL_MIN_S)
        setups, errors = ([], []) if traced else probe_setups(wl, d, seed, hook)
        plain, with_trace, summaries = [], [], []
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            plain.append(wl.round(d, seed, hook))
            cal.run(max(CAL_MIN_S, CAL_SHARE * (plain[-1].setup_s + plain[-1].work_s)))
            if traced:
                tracer = Tracer(wl.markers)
                with_trace.append(wl.round(d, seed, hook, tracer))
                summaries.append(tracer.summary())
    hook.uninstall()

    rounds = plain + with_trace
    # A failed set-up probe fails the run through ``errors``; operations are
    # the rounds' restored files, train steps, utterances and records.
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        errors += r.errors
    setups += [r.setup_s for r in plain]
    # one round's wall time per part, at the nominal host speed
    scale = cal.scale()
    units = plain[0].units
    times = {k: scale * statistics.mean(r.parts[k] for r in plain) for k in plain[0].parts}
    out = {
        "workload": name, "rounds": len(plain), "attempted": attempted, "failed": failed,
        "errors": errors[:20], "env": environment(),
        "host_slowdown": cal.slowdown(),
        "per_unit_s": sum(times.values()) / units,
        "round_per_unit_s": [r.work_s / r.units for r in plain],
        "setup_s": scale * statistics.median(setups),
        "setup_samples": len(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "figures": wl.figures(times, units),
    }
    if traced:
        out["trace"] = trace_metrics(plain, with_trace, summaries, errors)
    return out


def trace_metrics(plain: list, with_trace: list, summaries: list, errors: list) -> dict:
    """Per-round medians of self times; calls and counters from the first
    traced round, which later traced rounds must repeat exactly."""
    first = summaries[0]
    for s in summaries[1:]:
        if s["calls"] != first["calls"] or s["counters"] != first["counters"]:
            errors.append("work counters differ between traced rounds")
    m = {}
    for fn in TRACED:
        m[f"{fn}.calls"] = first["calls"].get(fn, 0)
        m[f"{fn}.self_s"] = statistics.median(s["self_s"].get(fn, 0.0) for s in summaries)
    for c in COUNTER_NAMES:
        m[c] = first["counters"].get(c, 0)
    m["trace.overhead_share"] = (statistics.mean(r.work_s for r in with_trace)
                                 / statistics.mean(r.work_s for r in plain) - 1.0)
    m["trace.residual_share"] = statistics.median(
        sum(o["residual_s"] for o in s["ops"]) / sum(o["wall_s"] for o in s["ops"])
        for s in summaries)
    m["trace.spans"] = first["spans"]
    return {"metrics": m, "ops": first["ops"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("step", choices=("prepare", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args()
    src = Path.cwd().resolve() / "src"
    if Path(hdrs.__file__).resolve().parents[1] != src:
        raise SystemExit(f"hdrs imported from {hdrs.__file__}, not from {src}")
    if args.step == "prepare":
        WORKLOADS[args.workload].prepare(args.dir, args.seed)
        return
    result = measure(args.workload, args.dir, args.seed, args.seconds, bool(args.trace))
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()

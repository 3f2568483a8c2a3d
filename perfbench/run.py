"""Benchmark entry point. From the root of a checkout:

    python3 perfbench/run.py --workload restore --seed 1 --seconds 25 --trace 0

A run generates the workload's inputs from the seed in a child process, then
runs the workload alone in a second child for about ``--seconds`` and checks
its outputs. It prints a table, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload all``
makes one run per workload in turn. Exits 1 if an output check failed and 2
if a run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
TIME_LIMIT_S = 170  # one run, both children included
# BLAS runs on one thread. On a shared 2-vCPU host a second BLAS thread waits
# whenever the host takes its vCPU away: two threads ran restore from 0.21 to
# 0.44 s/s in turns of minutes, where one thread held 0.22-0.28.
BLAS_THREADS = 1
WORKLOADS = ("restore", "train_paper", "train_drill", "corpus")
FIGURES = {  # README names and units of each workload's own measurements
    "restore_rtf": "s/s",
    "train_items_per_s": "1/s",
    "simulate_s_per_utt": "s",
    "evaluate_s_per_record": "s",
}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def run_child(args: list, env: dict, log: Path, deadline: float) -> None:
    with open(log, "ab") as out:
        proc = subprocess.Popen([sys.executable, str(HERE / "bench.py")] + args,
                                stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"bench.py {args[0]} ran past the {TIME_LIMIT_S} s limit")
    if rc != 0:
        tail = log.read_text(errors="replace").splitlines()[-15:]
        raise RuntimeError(f"bench.py {args[0]} exited {rc}:\n" + "\n".join(tail))


def metrics_of(result: dict, traced: bool) -> dict:
    if not traced:
        return {
            "time_per_unit": {"value": result["per_unit_s"], "unit": "s/unit"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    m = {k: {"value": v, "unit": unit_of(k)} for k, v in result["trace"]["metrics"].items()}
    for k, unit in FIGURES.items():
        m[k] = {"value": result["figures"].get(k, 0.0), "unit": unit}
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def print_table(workload: str, result: dict, env: dict, args) -> None:
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={result['rounds']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("  time_per_unit by round: "
          + " ".join(f"{v:.5g}" for v in result["round_per_unit_s"])
          + f" s/unit as measured; calibration pass {result['host_slowdown']:.4g}x nominal")
    for k, v in result["figures"].items():
        print(f"  {k:<24} {v:12.6g} {FIGURES[k]}")
    print(f"  {'setup_s':<24} {result['setup_s']:12.6g} s "
          f"(median of {result['setup_samples']})")
    print(f"  {'peak_rss_mb':<24} {result['peak_rss_mb']:12.6g} MB")
    print(f"  {'fail_ratio':<24} {result['failed']:>7d} / {result['attempted']}")
    for e in result["errors"]:
        print(f"  check failed: {e}")
    if not args.trace:
        return
    m = result["trace"]["metrics"]
    total = sum(m[k] for k in m if k.endswith(".self_s"))
    print(f"  {'function':<30} {'calls':>8} {'self_s':>10} {'share':>7}  (per traced round)")
    for k in m:
        if k.endswith(".self_s") and m[k.replace(".self_s", ".calls")]:
            fn = k[:-len(".self_s")]
            print(f"  {fn:<30} {m[fn + '.calls']:>8d} {m[k]:10.4f} {m[k] / total:7.1%}")
    for k, v in m.items():
        if not (k.endswith(".self_s") or k.endswith(".calls")):
            print(f"  {k:<40} {v:>16.6g}")
    ops = result["trace"]["ops"]
    for kind in dict.fromkeys(o["kind"] for o in ops):
        sel = [o for o in ops if o["kind"] == kind]
        wall = sum(o["wall_s"] for o in sel)
        layer = sum(o["layer_self_s"] for o in sel)
        print(f"  ops {kind:<28} n={len(sel):<4d} wall {wall:9.4f} s = layer self "
              f"{layer:9.4f} + top-level residual {wall - layer:8.4f}")


def run_one(workload: str, args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    work = HERE / ".work" / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "child.log"
    common = ["--workload", workload, "--seed", str(args.seed), "--dir", str(work)]
    try:
        run_child(["prepare"] + common, env, log, deadline)
        run_child(["measure"] + common + ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace),
                                          "--result", str(work / "result.json")],
                  env, log, deadline)
        result = json.loads((work / "result.json").read_text())
    except RuntimeError as e:
        print(f"error: {workload}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = {"nproc": nproc, **result["env"], "commit": git_commit()}
    print_table(workload, result, info, args)
    correct = result["failed"] == 0 and not result["errors"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics_of(result, bool(args.trace))}), flush=True)
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "hdrs" / "__init__.py").is_file():
        print(f"error: no src/hdrs under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())

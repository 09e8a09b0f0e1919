"""Benchmark driver for irrlangevin.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sim_single_chain, sim_many_chains, oracle_dense, acceptance,
or ``all`` to run every workload in turn.  Each workload runs in a process
of its own (``workload.py``), one at a time, so its peak RSS is its own.
The package is imported from this checkout's ``src/``, BLAS threads are
pinned to the CPUs this process may use, and glibc's mmap threshold is
fixed so that peak RSS does not depend on allocator history.  The last
stdout line is the JSON result; per-run sidecars (provenance, op times,
failures, spans) are written to ``perfbench/out/``.  See
perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_single_chain", "sim_many_chains", "oracle_dense", "acceptance")
WORKLOAD_TIMEOUT_S = 178
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def workload_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    # A fixed glibc mmap threshold returns every freed array above 1 MiB to
    # the OS at once.  With the default dynamic threshold, the oracle_dense
    # peak RSS jumped between 488 and 508 MB across identical runs.
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_one(name: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=workload_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"workload {name} exceeded {WORKLOAD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"workload {name} exited with code {proc.returncode}")
    lines = out.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="irrlangevin benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "irrlangevin" / "__init__.py").is_file():
        sys.exit(f"no irrlangevin sources under {ROOT / 'src'}; run from a "
                 "checkout of the repository")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"no BENCHMARK.json at {ROOT}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print(f"# workload {name}")
        results[name] = run_one(name, args)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

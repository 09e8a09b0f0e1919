"""One benchmark workload, run in a process of its own by ``run.py``.

Usage (normally through run.py, which pins BLAS threads and PYTHONPATH):

    workload.py --workload NAME --seed N --seconds S --trace 0|1
    workload.py --workload NAME --seed N --probe NAME   (RSS probe, one op)

The timed phase runs whole cycles of the workload's op list until
``--seconds`` have passed, so every run times the same mix of ops.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` cycles alternate traced and untraced (traced first, in a fresh
process), the per-layer metrics come from the traced cycles and the tracing
overhead from comparing the two.  Every op's output is checked; an
exception or a failed check counts as a failed op and the run goes on.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402  (the interpreter start above is part of set-up)
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import irrlangevin  # noqa: E402
from acceptance import Acceptance  # noqa: E402
from oracle import OracleDense  # noqa: E402
from sims import ManyChains, SingleChain  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = {w.name: w for w in (SingleChain(), ManyChains(), OracleDense(),
                                 Acceptance())}
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile


def peak_rss_mb(children: bool) -> float:
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if children:
        mb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return mb


def timed_phase(wl, state, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    untraced = NullTracer()
    op_times, failures = [], []
    cycle_s = {True: [], False: []}
    first = None
    op_id = 0
    traced_turn = trace
    start = time.perf_counter()
    while True:
        tr = tracer if traced_turn else untraced
        carry = {}
        c0 = time.perf_counter()
        for op in wl.cycle(state):
            inputs = wl.inputs(op, op_id, state, tr)
            t0 = time.perf_counter()
            try:
                with tr.span("op", op_id=op_id):
                    result = wl.run(inputs, carry, tr)
                elapsed = time.perf_counter() - t0
                problems = wl.check(op, result, state)
            except Exception:
                problems = [traceback.format_exc(limit=6)]
                result = None
            op_times.append(math.inf if problems else elapsed)
            failures += [f"op {op_id} ({op}): {msg}" for msg in problems]
            if op_id == 0:
                first = (op, result)
            op_id += 1
        cycle_s[traced_turn].append(time.perf_counter() - c0)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or (cycle_s[True] and cycle_s[False])):
            break
        traced_turn = trace and not traced_turn
    return {"op_times": op_times, "failures": failures, "cycle_s": cycle_s,
            "tracer": tracer, "first": first}


def replay(wl, state, first) -> list[str]:
    """RNG contract: rerunning op 0 with its seed must reproduce it bit for bit."""
    op, expected = first
    if expected is None:
        return ["replay skipped: op 0 failed"]
    try:
        again = wl.run(wl.inputs(op, 0, state, NullTracer()), {}, NullTracer())
    except Exception:
        return [f"replay of op 0 ({op}) raised: {traceback.format_exc(limit=6)}"]
    return [] if wl.same(expected, again) else [
        f"replay of op 0 ({op}) is not bit-identical"]


def tail(op_times):
    """Highest percentile with at least TAIL_BEYOND ops beyond it, or None."""
    n = len(op_times)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(op_times)
    rank = n - TAIL_BEYOND  # ops at or below the reported value
    return ordered[rank - 1], 100.0 * rank / n, n


def probe_metrics(wl, seed) -> dict:
    out = {}
    for probe, metric in wl.probes.items():
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
             "--seed", str(seed), "--probe", probe],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"probe {probe} failed: {proc.stderr[-2000:]}")
        out[metric] = json.loads(proc.stdout.splitlines()[-1])["growth_mb"]
    return out


def high_water_mb() -> float:
    """Peak RSS of this process image (VmHWM).

    Unlike ``ru_maxrss``, which Linux carries across exec from the forking
    parent, VmHWM starts afresh at exec, so a probe's baseline is its own.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_probe(wl, seed, probe) -> None:
    """Peak-RSS growth of one op in a fresh process, unmasked by earlier peaks."""
    state = {"seed": seed}
    null = NullTracer()
    inputs = wl.inputs(wl.probe_op(probe), 0, state, null)
    before = high_water_mb()
    wl.run(inputs, {}, null)
    print(json.dumps({"growth_mb": high_water_mb() - before}))


def git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                          cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "irrlangevin": irrlangevin.__version__,
        "git_describe": git_describe(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {var: os.environ.get(var) for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
    }


def emit(metrics: dict, spec_metrics: list, extra: dict, counts: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec_metrics}
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for name, unit in units.items():
        value = metrics.get(name, 0)  # a layer this workload does not run reads 0
        if isinstance(value, float) and not math.isfinite(value):
            value = None  # only when ops failed; "correct" is false then
        out[name] = {"value": value, "unit": unit}
        print(f"{name:<44} {value!r:>24} {unit}")
    for name, (value, note) in extra.items():
        print(f"{name:<44} {value!r:>24} {note}")
    print(json.dumps({**counts, "metrics": out}))


def run_workload(args) -> int:
    imported = time.monotonic()
    spawned = _STARTED if args.spawned_at is None else args.spawned_at
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    # set-up = interpreter start and imports, then preparation; each is
    # repeated (imports in fresh interpreters) and the median taken
    import_s = [imported - spawned]
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import workload"], cwd=HERE,
                       check=True, timeout=CHILD_TIMEOUT_S)
        import_s.append(time.perf_counter() - t0)
    prep_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.prepare(args.seed)
        prep_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(prep_s)

    phase = timed_phase(wl, state, args.seconds, bool(args.trace))
    op_times = phase["op_times"]
    replay_failures = replay(wl, state, phase["first"]) if wl.replays else []
    failures = phase["failures"] + replay_failures
    attempted = len(op_times) + int(wl.replays)
    failed = sum(math.isinf(t) for t in op_times) + len(replay_failures)
    counts = {"correct": failed == 0, "attempted": attempted, "failed": failed}

    extra = {"failed_frac": (failed / attempted, "fraction")}
    sidecar = {"workload": wl.name, "provenance": provenance(args.seed),
               "setup_import_s": import_s, "setup_prepare_s": prep_s,
               "cycle_s": phase["cycle_s"], "op_times_s": op_times,
               "failures": failures[:50]}

    if args.trace:
        tracer = phase["tracer"]
        metrics = wl.layer_metrics(tracer, state)
        metrics.update(probe_metrics(wl, args.seed))
        traced = statistics.median(phase["cycle_s"][True])
        plain = statistics.median(phase["cycle_s"][False])
        extra["trace_overhead"] = (traced / plain - 1.0,
                                   "fraction of the untraced cycle wall time")
        spec_metrics = spec["per_layer"]
        (OUT / f"{wl.name}-seed{args.seed}-spans.json").write_text(
            json.dumps(tracer.to_json()))
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(children=wl.ops_in_children),
        }
        # printed but not gated: see "Why wall times are not gated" in README
        extra["wall_s"] = (statistics.median(phase["cycle_s"][False]),
                           "s, median cycle")
        extra["op_p50_s"] = (statistics.median(op_times), "s")
        tail_at = tail(op_times)
        if tail_at is not None:
            value, pct, n = tail_at
            extra["op_tail_s"] = (value, f"s at p{pct:.2f} of {n} ops "
                                         f"({TAIL_BEYOND} ops beyond)")
        spec_metrics = spec["end_to_end"]
    sidecar.update(metrics=metrics, extra=extra, **counts)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(sidecar, indent=1, default=str))
    emit(metrics, spec_metrics, extra, counts)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", default=None)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the driver started this process")
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(irrlangevin.__file__).resolve().parents:
        sys.exit(f"irrlangevin imported from {irrlangevin.__file__}, not from {src}")
    if args.probe is not None:
        run_probe(WORKLOADS[args.workload], args.seed, args.probe)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

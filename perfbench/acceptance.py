"""Acceptance workload: ``reproduce-benchmark`` in a fresh process per op.

The acceptance matrix caches its shared systems per process, so each op
starts a new interpreter and pays for them, as a user running the release
gate does.  The traced op runs ``--only Ck`` for C1 ... C10 in that order
inside one fresh process (``acceptance_child.py``), so each shared system is
paid for by the same criterion as in a full run.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

from tracer import duration

OUT = Path(__file__).resolve().parent / "out"
CHILD = Path(__file__).resolve().parent / "acceptance_child.py"
CRITERIA = tuple(f"C{i}" for i in range(1, 11))
CHILD_TIMEOUT_S = 170
CLI = ("import sys; from irrlangevin.cli import run_command; "
       "sys.exit(run_command(sys.argv[1:]))")


def _failed_rows(path: Path) -> list[str]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        return [f"{path.name}: no rows"]
    return [f"{r['criterion']} {r['case']}: failed" for r in rows
            if r["passed"] != "True"]


class Acceptance:
    name = "acceptance"
    replays = False
    ops_in_children = True
    probes = {}

    def prepare(self, seed):
        # the acceptance matrix pins its own seed bank; nothing to generate
        OUT.mkdir(exist_ok=True)
        return {"seed": seed}

    def cycle(self, state):
        return ["reproduce-benchmark"]

    def inputs(self, op, op_id, state, tracer):
        return op

    def run(self, op, carry, tracer):
        if tracer.enabled:
            return self._run_traced(tracer)
        path = OUT / "acceptance_summary.csv"
        proc = subprocess.run(
            [sys.executable, "-c", CLI, "reproduce-benchmark", "--output", str(path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
        return [("all", proc.returncode, path, proc.stderr)]

    def _run_traced(self, tracer):
        spans_path = OUT / "acceptance_child_spans.json"
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(OUT), str(spans_path), *CRITERIA],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"traced acceptance child exited "
                               f"{proc.returncode}: {proc.stderr[-2000:]}")
        out = []
        for rec in json.loads(spans_path.read_text()):
            tracer.add(f"benchmark.{rec['criterion']}", rec["start"], rec["end"])
            out.append((rec["criterion"], rec["exit_code"], Path(rec["csv"]), ""))
        return out

    def check(self, op, result, state):
        failures = []
        for criterion, code, path, stderr in result:
            if code != 0:
                failures.append(f"{criterion}: exit code {code} {stderr[-500:]}")
            failures += _failed_rows(path)
        return failures

    def layer_metrics(self, tracer, state):
        return {f"benchmark.{c}_s": duration(tracer.named(f"benchmark.{c}")[0])
                for c in CRITERIA}

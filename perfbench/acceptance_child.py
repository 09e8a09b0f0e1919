"""Run ``reproduce-benchmark --only Ck`` for each named criterion in one process.

Usage: acceptance_child.py OUT_DIR SPANS_JSON C1 C2 ...

Criteria run in the order given, so systems the acceptance matrix caches
per process are built by the same criterion as in a full run.  Writes one
record per criterion (start, end, exit code, CSV path) to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path

from irrlangevin.cli import run_command


def main(argv):
    out_dir, spans_path, criteria = Path(argv[0]), Path(argv[1]), argv[2:]
    records = []
    for name in criteria:
        path = out_dir / f"acceptance_{name}.csv"
        start = time.perf_counter()
        code = run_command(["reproduce-benchmark", "--only", name,
                            "--output", str(path)])
        end = time.perf_counter()
        records.append({"criterion": name, "start": start, "end": end,
                        "exit_code": code, "csv": str(path)})
    spans_path.write_text(json.dumps(records))


if __name__ == "__main__":
    main(sys.argv[1:])

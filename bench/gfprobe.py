"""Field-layer timings on the public ``gf`` API, each field in a fresh process.

A per-call span around ``Field.add`` would cost more than the addition
itself, so the field layer is timed here instead of by the tracer.  For
each field a new process creates it and times:

* ``tables_s``: the first ``mul`` and ``add`` on the new field, which is
  where the lazily built log, negation and addition tables are paid for;
* ``add_ns`` / ``mul_ns``: nanoseconds per call over a fixed list of
  seeded operand pairs, median of several repetitions, tables warm.

    python3 bench/gfprobe.py            # every probe, one process per field
    python3 bench/gfprobe.py --field q729
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

# label: (p, extension degree, timed operations)
FIELDS = {
    "q13": (13, 1, ("add",)),
    "q169": (13, 2, ("add", "mul")),
    "q729": (3, 6, ("add",)),
    "q15625": (5, 6, ("add", "mul")),
}
PAIRS = 20_000
REPEATS = 5


def probe(label: str) -> dict:
    """Runs inside the fresh process."""
    workloads.import_package()
    from transverse import gf

    p, m, ops = FIELDS[label]
    base = gf.field_create(p)
    field = base if m == 1 else gf.extension_field(base, m)
    q = field.order
    rng = random.Random(q)
    start = time.perf_counter()
    field.mul(q - 1, q - 2)
    field.add(q - 1, q - 2)
    result = {"pid": os.getpid(), "tables_s": time.perf_counter() - start}
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(PAIRS)]
    for op in ops:
        fn = getattr(field, op)
        runs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            runs.append(time.perf_counter() - start)
        result[f"{op}_ns"] = statistics.median(runs) / PAIRS * 1e9
    return result


def measure(timeout: float = 120.0) -> dict:
    """Every probe in its own process: per-layer metrics and raw results."""
    metrics = {}
    raw = {}
    for label, (_, m, ops) in FIELDS.items():
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--field", label],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"gf probe {label} failed:\n{proc.stderr}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        raw[label] = got
        if m > 1:
            metrics[f"gf.tables_s.{label}"] = got["tables_s"]
        for op in ops:
            metrics[f"gf.{op}_ns.{label}"] = got[f"{op}_ns"]
    return {"metrics": metrics, "raw": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--field", choices=sorted(FIELDS))
    args = parser.parse_args(argv)
    if args.field:
        print(json.dumps(probe(args.field)))
    else:
        print(json.dumps(measure(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

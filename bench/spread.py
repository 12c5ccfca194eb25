"""Every end-to-end metric of the chosen workloads, over runs with several seeds.

    python3 bench/spread.py                                   # listed workloads, seed 0
    python3 bench/spread.py --workloads emptiness --seeds 1-10

Runs ``run.py`` once per workload and seed and prints, for each metric,
its unit, the median over the runs and, with two runs or more, the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in ``BENCHMARK.json``.  ``failed_frac`` is failed case
runs over attempted ones.  A benchmark is steady when each share sits
well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from record_expected import parse_seeds

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: those in BENCHMARK.json")
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or ",".join(w["name"] for w in spec["workloads"])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for workload in names.split(","):
        values, units, correct = {}, {}, []
        for seed in seeds:
            result = run_once(workload, seed, seconds)
            correct.append(result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            values.setdefault("failed_frac", []).append(
                result["failed"] / result["attempted"]
            )
            units["failed_frac"] = "ratio"
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
                  file=sys.stderr, flush=True)
        print(f"{workload}: {len(seeds)} run(s), correct in {sum(correct)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"  {name:16s} {med:12.6g} {units[name]:6s}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f"  iqr/median {(q3 - q1) / abs(med):.4f}"
            if name in bounds:
                line += f"  bound {bounds[name]}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the expected digest of every case, for the seeds given.

    python3 bench/record_expected.py --workload flags --seeds 0-31

Runs one pass in this process with the recording caps (the capped flags
cases get the enumeration budget they need) and adds the digests to
``expected/<workload>.json``.  Seeds already recorded are left alone: a
digest is a statement about the commit it was recorded from, so it is
never rewritten.  The census does not depend on the seed and is recorded
once, under ``"*"``.
"""

from __future__ import annotations

import argparse
import json
import sys

import worker
import workloads


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="0")
    args = parser.parse_args(argv)

    workloads.import_package()
    path = workloads.EXPECTED / f"{args.workload}.json"
    table = {}
    if path.is_file():
        table = json.loads(path.read_text(encoding="utf-8"))["digests"]
    seeds = parse_seeds(args.seeds)
    if workloads.seed_independent(args.workload):
        seeds = seeds[:1]
    for seed in seeds:
        key = "*" if workloads.seed_independent(args.workload) else str(seed)
        if key in table:
            continue
        cases = workloads.build_cases(args.workload, seed, recording=True)
        records, pass_s = worker.run_pass(cases)
        bad = [r for r in records if r["error"] or r["problems"]]
        if bad:
            print(f"seed {seed}: not recorded, failing cases: {bad}", file=sys.stderr)
            return 1
        table[key] = {r["id"]: r["digest"] for r in records}
        print(f"seed {key}: {len(records)} cases in {pass_s:.1f} s", file=sys.stderr)
    workloads.EXPECTED.mkdir(exist_ok=True)
    ordered = dict(sorted(table.items(), key=lambda kv: (kv[0] != "*", len(kv[0]), kv[0])))
    path.write_text(
        json.dumps({"workload": args.workload, "digests": ordered}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Desk-scale audit battery.

Counts the bad loci of the CLI's fixed fixtures exhaustively, compares
each exact count against the printed bound, and writes one JSON report per
experiment plus a combined CSV.  Exit status 2 flags a bound violation,
which would be a theorem bug, not a data point.
"""

import argparse
import json
import pathlib
import sys

from transverse import audit, cli, search


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="audit-out", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nmax", type=int, default=6,
                    help="inequality grid: largest ambient dimension")
    ap.add_argument("--dmax", type=int, default=5,
                    help="inequality grid: largest degree")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    reports = cli.battery(args.seed)
    failed = [r for r in reports if not r.passed()]
    for i, rep in enumerate(reports):
        path = out / f"{i:02d}-{rep.experiment}-{rep.params['n']}-{rep.params['q']}.json"
        path.write_text(json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"{rep.experiment:28s} observed {rep.observed:6d}  "
              f"bound {rep.bound:6d}  {rep.verdict}")

    audit.write_reports_csv(reports, out / "summary.csv")

    grid = cli.inequality_grid(args.nmax, args.dmax)
    ineq = search.check_inequality_lemmas(grid)
    (out / "inequalities.json").write_text(
        json.dumps(ineq, indent=2, sort_keys=True) + "\n"
    )
    print(f"{'inequality-lemmas':28s} grid {len(grid):6d}  "
          f"counterexamples {len(ineq['counterexamples']):4d}  "
          f"{'pass' if ineq['ok'] else 'fail'}")

    if failed or not ineq["ok"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

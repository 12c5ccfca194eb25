"""Coincidence sweep: transverse against very transverse on smooth quadrics.

For a smooth quadric surface the two predicates agree on every line; this
script samples random smooth quadrics in P^3 and checks the equivalence on
the full line population with the certified very-transverse decision.
Mismatches would be library bugs.
"""

import argparse
import random
import sys
import time

from transverse import certify, gf, locus, poly, projgeom


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=5, help="field order (prime)")
    ap.add_argument("--samples", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    field = gf.field_create(args.q)
    rng = random.Random(args.seed)
    vrng = random.Random(args.seed + 1)
    lines = list(projgeom.all_lines(3, field))
    print(f"{len(lines)} lines in P^3(F_{args.q})")

    mismatches = 0
    started = time.perf_counter()
    for i in range(args.samples):
        while True:
            terms = {}
            for exps in poly.monomials_of_degree(4, 2):
                terms[exps] = rng.randrange(field.order)
            G = poly.Form(field, 4, 2, terms)
            if not G.is_zero() and certify.ensure_smooth(locus.Hypersurface(G)):
                break
        X = locus.Hypersurface(G)
        transverse = 0
        for L in lines:
            t = certify.is_transverse(X, L)
            vt = certify.is_very_transverse(X, L, rng=vrng)
            if vt != t:
                mismatches += 1
                print(f"MISMATCH {poly.format_form(G)} on "
                      f"{projgeom.format_subspace(L)}: "
                      f"transverse={t} very-transverse={vt}")
            transverse += t
        print(f"quadric {i}: {poly.format_form(G)}  "
              f"transverse {transverse}/{len(lines)}")
    elapsed = time.perf_counter() - started
    print(f"{args.samples} quadrics, {mismatches} mismatches, {elapsed:.1f}s")
    return 0 if mismatches == 0 else 2


if __name__ == "__main__":
    sys.exit(main())

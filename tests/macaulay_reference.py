"""The dict-row Macaulay builders that certify._macaulay_plan replaced,
kept verbatim (up to module prefixes) as the reference for the plan's
scattered blocks: the rows of the degree-N Macaulay matrix, generator by
generator and multiplier by multiplier, and Macaulay's square submatrix as
a set of (generator, multiplier) keys."""

import functools
import math

from transverse import poly


@functools.lru_cache(maxsize=32)
def _row_index(nvars: int, N: int, deg: int):
    """Column of every product: one dict per multiplier of degree N - deg,
    from the exponent vectors of degree deg to the column of their product
    among the degree-N monomials.

    Cached because a run reuses few shapes (at most 17 keys in one pass of
    any benchmark workload); a table is smaller than the matrix it fills.
    """
    cols = {m: i for i, m in enumerate(poly.monomials_of_degree(nvars, N))}
    exps = list(poly.monomials_of_degree(nvars, deg))
    return tuple(
        {e: cols[tuple(a + b for a, b in zip(e, mult))] for e in exps}
        for mult in poly.monomials_of_degree(nvars, N - deg)
    )


def _macaulay_rows(gens, nvars: int, N: int, square, inside: bool):
    """The rows of the degree-N Macaulay matrix whose (generator,
    multiplier) key is in ``square`` (inside) or not."""
    ncols = math.comb(N + nvars - 1, nvars - 1)
    return [
        _row(g, index, ncols)
        for j, g in enumerate(gens)
        if g.degree <= N
        for k, index in enumerate(_row_index(nvars, N, g.degree))
        if ((j, k) in square) == inside
    ]


def _square_keys(degs, nvars: int, N: int):
    """Macaulay's square submatrix at N >= N*, for generators of the degrees
    degs, as the (generator, multiplier) indices of its rows: with top the
    nvars generators of largest degree d_0, ..., d_(nvars-1), the degree-N
    monomial x^a gets the one row (x^a / x_i^(d_i)) * top[i], for the first
    i with a_i >= d_i.  Such an i exists because sum(d_i - 1) < N* <= N.

    The rows are a subset of the full matrix's, so full rank here proves
    spanning; a singular square matrix (a nonempty scheme, or a vanishing
    extraneous factor) proves nothing.
    """
    top = sorted(range(len(degs)), key=lambda j: degs[j], reverse=True)[:nvars]
    tops = [degs[j] for j in top]
    return {
        (j, k)
        for i, j in enumerate(top)
        for k, mult in enumerate(poly.monomials_of_degree(nvars, N - tops[i]))
        if all(b < d for b, d in zip(mult[:i], tops))
    }


def _row(g, index, ncols: int):
    """The coefficients of one multiple of g, placed by its column index."""
    row = [0] * ncols
    for e, c in g.terms.items():
        row[index[e]] = c
    return row

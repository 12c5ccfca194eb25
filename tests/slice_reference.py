"""The slice basis that certify._section_basis replaced, kept verbatim (up
to module prefixes) as the reference for its differential tests: each
level's hyperplane is eliminated by linalg.kernel, and its kernel basis is
multiplied into the basis so far."""

import random

from transverse import gf, linalg


def _slice_basis(E: gf.Field, nvars: int, levels: int, rng: random.Random):
    """The rows of ``levels`` random hyperplanes over E, and the basis of
    their intersection in nvars coordinates.  Level l's row has nvars - l
    codes, in the coordinates of the level before, redrawn while zero; the
    levels' linalg.kernel bases are composed, so a form restricted to the
    basis is, coefficient for coefficient, what _slice_by gives level by
    level."""
    slices, basis = [], None
    for level in range(levels):
        while True:
            row = tuple(rng.randrange(E.order) for _ in range(nvars - level))
            if any(row):
                break
        slices.append(row)
        W = linalg.kernel(E, [row], nvars - level)
        basis = W if basis is None else _compose(E, W, basis)
    return tuple(slices), basis


def _compose(E: gf.Field, A, B) -> list:
    """The matrix product A . B of two lists of rows of codes in E."""
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for c, b in zip(row, B):
            if c:
                acc = E.add_scaled(acc, c, b)
        out.append(acc)
    return out

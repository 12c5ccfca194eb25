import itertools
import random

import numpy as np
import pytest

from transverse import gf, linalg


def _random_row(F, n, rng):
    # about a third of the entries are zero
    return [rng.randrange(F.order) if rng.random() < 0.67 else 0 for _ in range(n)]


@pytest.mark.parametrize("p, m", [(2, 1), (13, 1), (2, 6), (13, 2), (5, 6), (2, 17)])
def test_add_scaled_matches_scalar_arithmetic(p, m):
    F = gf.field_create(p, m)
    rng = random.Random(F.order)
    for _ in range(300):
        n = rng.randrange(0, 9)
        xs, ys = _random_row(F, n, rng), _random_row(F, n, rng)
        c = rng.choice([0, 1, rng.randrange(F.order)])
        if c and n:
            # make one entry cancel: x + c*y == 0
            y = rng.randrange(1, F.order)
            i = rng.randrange(n)
            xs[i], ys[i] = F.neg(F.mul(c, y)), y
        want = [F.add(x, F.mul(c, y)) for x, y in zip(xs, ys)]
        assert F.add_scaled(xs, c, ys) == want
        assert F.add_scaled(tuple(xs), c, tuple(ys)) == want
    if F.order > 1 << 16:
        assert F._exp is None  # the digit path, not the tables


@pytest.mark.parametrize("p", [2, 3, 13, 101])
def test_rank_generic_matches_numpy(p):
    F = gf.field_create(p)
    rng = random.Random(p)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = [_random_row(F, ncols, rng) for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            # rank deficient: one row a combination of two others
            a, b = rng.randrange(nrows), rng.randrange(nrows)
            c = rng.randrange(p)
            rows[rng.randrange(nrows)] = F.add_scaled(rows[a], c, rows[b])
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        want = linalg._rank_np(p, rows, ncols, None)
        assert linalg._rank_generic(F, [list(r) for r in rows], ncols, None) == want
        stop = rng.randrange(1, 4)
        assert linalg._rank_generic(
            F, [list(r) for r in rows], ncols, stop
        ) == linalg._rank_np(p, rows, ncols, stop)


def test_rank_np_matches_generic_near_prime_limit():
    # delayed reduction lets entries grow by (p-1)^2 per pivot; tall matrices
    # with many pivots at the largest prime the numpy path takes
    p = 1_048_573
    assert p < linalg._NP_PRIME_LIMIT
    F = gf.field_create(p)
    rng = np.random.default_rng(p)
    for trial in range(16):
        ncols = int(rng.integers(20, 50))
        nrows = int(rng.integers(ncols, 3 * ncols))
        k = ncols if trial % 2 else int(rng.integers(1, ncols))
        A = rng.integers(0, p, (nrows, k)) * (rng.random((nrows, k)) < 0.7)
        B = rng.integers(0, p, (k, ncols))
        rows = [r for r in (A @ B % p).tolist() if any(r)]
        want = linalg._rank_generic(F, [list(r) for r in rows], ncols, None)
        assert want <= k
        assert linalg._rank_np(p, rows, ncols, None) == want
        stop = int(rng.integers(1, ncols + 1))
        assert linalg._rank_np(p, rows, ncols, stop) == linalg._rank_generic(
            F, [list(r) for r in rows], ncols, stop
        )


def test_kernel_over_extension_field():
    F = gf.field_create(13, 2)
    rng = random.Random(169)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 8)
        rows = [_random_row(F, ncols, rng) for _ in range(nrows)]
        if nrows > 1:
            rows[-1] = F.add_scaled(rows[0], rng.randrange(F.order), rows[-2])
        basis = linalg.kernel(F, rows, ncols)
        assert len(basis) == ncols - linalg.rank(F, rows, ncols)
        for y in basis:
            for row in rows:
                acc = 0
                for a, b in zip(row, y):
                    acc = F.add(acc, F.mul(a, b))
                assert acc == 0
        if basis:
            assert linalg.rank(F, basis, ncols) == len(basis)


@pytest.mark.parametrize("p, m", [(13, 1), (13, 2), (2, 6), (3, 11)])
def test_polynomial_product_and_division(p, m):
    F = gf.field_create(p, m)
    rng = random.Random(F.order)

    def rand_poly(deg):
        return linalg.u_trim([rng.randrange(F.order) for _ in range(deg)] + [rng.randrange(1, F.order)])

    for _ in range(60):
        a, b = rand_poly(rng.randrange(0, 7)), rand_poly(rng.randrange(0, 4))
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = F.add(prod[i + j], F.mul(x, y))
        assert linalg.u_mul(F, a, b) == linalg.u_trim(prod)
        quo, rem = linalg.u_divmod(F, a, b)
        assert len(rem) < len(b)
        assert linalg.u_add(F, linalg.u_mul(F, quo, b), rem) == linalg.u_trim(a)


@pytest.mark.parametrize("p, m", [(2, 6), (2, 7), (13, 1), (13, 2), (3, 4)])
def test_interpolate_hits_the_values(p, m):
    F = gf.field_create(p, m)
    rng = random.Random(F.order)
    for n in (1, 2, 4, 5, min(F.order, 65)):
        for _ in range(5):
            ys = _random_row(F, n, rng)
            f = linalg.u_interpolate(F, ys)
            assert len(f) == n
            assert [linalg.u_eval(F, f, x) for x in range(n)] == ys


def _lagrange_basis(F, n):
    """The cached-basis interpolation that u_interpolate replaced: each
    basis polynomial multiplied out in full, O(n^3) per (F, n)."""
    out = []
    for j in range(n):
        num, den = [1], 1
        for i in range(n):
            if i != j:
                num = linalg.u_mul(F, num, [F.neg(i), 1])
                den = F.mul(den, F.sub(j, i))
        out.append(linalg.u_scale(F, num, F.inv(den)))
    return out


def test_interpolate_matches_the_lagrange_basis():
    # every n from 1 to 71, spread over a prime field and three extensions
    # (the reference is cubic in n, so each n runs in one field)
    fields = [gf.field_create(p, m) for p, m in [(73, 1), (2, 7), (3, 4), (13, 2)]]
    rng = random.Random("barycentric")
    for n in range(1, 72):
        F = fields[n % len(fields)]
        ys = _random_row(F, n, rng)
        want = [0] * n
        for y, row in zip(ys, _lagrange_basis(F, n)):
            want = F.add_scaled(want, y, row)
        assert linalg.u_interpolate(F, ys) == want, (F.order, n)


def _leibniz_det(F, rows):
    """Sum over permutations of signed products of entries."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1
        for i, j in enumerate(perm):
            term = F.mul(term, rows[i][j])
        total = F.sub(total, term) if inversions % 2 else F.add(total, term)
    return total


@pytest.mark.parametrize("p, m", [(2, 1), (5, 1), (2, 3), (3, 2), (5, 6)])
def test_det_matches_leibniz_expansion(p, m):
    F = gf.field_create(p, m)
    rng = random.Random(f"det/{F.order}")
    assert linalg.det(F, []) == 1
    for _ in range(60):
        n = rng.randrange(1, 6)
        rows = [_random_row(F, n, rng) for _ in range(n)]
        if rng.random() < 0.2:
            rows[-1] = list(rows[0])  # singular
        assert linalg.det(F, rows) == _leibniz_det(F, rows)

"""Exact arithmetic kernels shared across the package.

Univariate polynomials are plain lists/tuples of integer codes in ascending
power order with no trailing zeros; the zero polynomial is the empty tuple.
Routines that need field arithmetic take the field object first and go
through its integer-code methods (add, mul, inv, ...), so this module does
not import the field implementation.  Row updates x + c*y, in elimination
and in polynomial multiplication and division, go through the field's one
row kernel, ``F.add_scaled``.

Gaussian elimination has a vectorised numpy path for prime fields and a
generic path for extension fields; matrices are lists of rows of codes.
The numpy path delays modular reduction: each pivot reduces only its
column and its row, and the trailing entries of the rows below grow by at
most (p-1)^2 per pivot, so after k pivots they stay below
p + k(p-1)^2 < 2^63 for p < 2^20 and k < 2^22 (asserted; the Macaulay
matrix cap keeps k far below).
"""

from __future__ import annotations

import functools
import random

import numpy as np

# ---------------------------------------------------------------------------
# univariate polynomials over a field object


def u_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def u_deg(cs):
    return len(cs) - 1


def u_add(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(F.add(x, y))
    return u_trim(out)


def u_sub(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(F.sub(x, y))
    return u_trim(out)


def u_scale(F, a, c):
    if c == 0:
        return []
    return u_trim([F.mul(x, c) for x in a])


def u_mul(F, a, b):
    if not a or not b:
        return []
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + n] = F.add_scaled(out[i : i + n], x, b)
    return u_trim(out)


def u_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = u_trim(a)
    n = len(b) - 1
    if len(a) <= n:
        return [], a
    q = [0] * (len(a) - n)
    inv_lead = F.inv(b[-1])
    neg_low = [F.neg(y) for y in b[:-1]]
    for k in range(len(q) - 1, -1, -1):
        top = a.pop()
        if top:
            c = F.mul(top, inv_lead)
            q[k] = c
            a[k:] = F.add_scaled(a[k:], c, neg_low)
    return u_trim(q), u_trim(a)


def u_mod(F, a, b):
    return u_divmod(F, a, b)[1]


def u_monic(F, a):
    if not a:
        return []
    if a[-1] == 1:
        return list(a)
    return u_scale(F, a, F.inv(a[-1]))


def u_gcd(F, a, b):
    """Monic gcd; gcd with the zero polynomial is the other one made monic."""
    a, b = u_trim(a), u_trim(b)
    while b:
        a, b = b, u_mod(F, a, b)
    return u_monic(F, a)


def u_eval(F, a, x):
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def u_deriv(F, a):
    out = []
    for i in range(1, len(a)):
        out.append(F.mul_int(a[i], i))
    return u_trim(out)


def u_squarefree(F, a):
    """Whether gcd(a, a') = 1, i.e. a has no repeated root over the closure.

    A positive-degree a with a' = 0 is a p-th power (F is perfect) and has
    gcd(a, 0) = monic a, so it is refused; nonzero constants pass and the
    zero polynomial does not."""
    return len(u_gcd(F, a, u_deriv(F, a))) == 1


@functools.lru_cache(maxsize=16)
def _interpolation_nodes(F, n):
    """M(t) = prod (t - i) over the node codes i < n, and the barycentric
    weights w_j = 1 / M'(j) = 1 / prod_{i != j} (j - i): O(n) state."""
    M = [1]
    for i in range(n):
        M = u_mul(F, M, [F.neg(i), 1])
    dM = u_deriv(F, M)
    return tuple(M), tuple(F.inv(u_eval(F, dM, j)) for j in range(n))


def u_interpolate(F, ys):
    """The polynomial of degree < n = len(ys) (n <= |F|) taking the value
    ys[j] at the node with code j, as its n coefficients, untrimmed.

    Barycentric form: the sum of ys[j] w_j M(t) / (t - j), each quotient
    one synthetic division of M.  Only M and the weights are cached per
    (F, n), since callers reuse a few.  When n <= p every node and every
    coefficient of M is a prime-field constant, whose code is its residue,
    so the divisions run in integers mod p."""
    n = len(ys)
    M, weights = _interpolation_nodes(F, n)
    p, add, mul = F.p, F.add, F.mul
    out = [0] * n
    for j, (y, w) in enumerate(zip(ys, weights)):
        if y:
            quo = [1] * n  # M is monic, so the top coefficient stays 1
            if n <= p:
                for k in range(n - 1, 0, -1):
                    quo[k - 1] = (M[k] + j * quo[k]) % p
            else:
                for k in range(n - 1, 0, -1):
                    quo[k - 1] = add(M[k], mul(j, quo[k]))
            out = F.add_scaled(out, mul(y, w), quo)
    return out


def u_powmod(F, base, e, mod):
    """base**e reduced mod ``mod``; e is a nonnegative (possibly huge) int."""
    if len(mod) <= 1:
        return []
    result = [1]
    b = u_mod(F, base, mod)
    while e:
        if e & 1:
            result = u_mod(F, u_mul(F, result, b), mod)
        e >>= 1
        if e:
            b = u_mod(F, u_mul(F, b, b), mod)
    return result


def _split_into_roots(F, g, rng):
    """Roots of g, a monic nonconstant product of distinct linear factors."""
    d = u_deg(g)
    if d <= 0:
        return []
    if d == 1:
        return [F.neg(g[0])]
    q = F.order
    for _ in range(64):
        if F.p == 2:
            # trace splitter: sum of (c x)^(2^i) takes values 0/1 on roots
            c = rng.randrange(1, q)
            term = u_mod(F, [0, c], g)
            tr = list(term)
            for _ in range(F.m - 1):
                term = u_mod(F, u_mul(F, term, term), g)
                tr = u_add(F, tr, term)
            h = u_gcd(F, tr, g)
        else:
            a = rng.randrange(q)
            h = u_powmod(F, [a, 1], (q - 1) // 2, g)
            h = u_sub(F, h, [1])
            h = u_gcd(F, h, g)
        if 0 < u_deg(h) < d:
            rest = u_divmod(F, g, h)[0]
            return _split_into_roots(F, h, rng) + _split_into_roots(F, rest, rng)
    raise RuntimeError("root splitting failed to make progress")


def u_distinct_roots(F, a, seed=0):
    """Distinct roots of ``a`` lying in F itself, sorted by code.

    Computed through gcd with x^|F| - x, then recursive random splitting;
    no exhaustive scan of the field.
    """
    a = u_trim(a)
    if not a:
        raise ValueError("root extraction from the zero polynomial")
    if u_deg(a) == 0:
        return []
    xq = u_powmod(F, [0, 1], F.order, a)
    g = u_gcd(F, u_sub(F, xq, [0, 1]), a)
    if u_deg(g) <= 0:
        return []
    rng = random.Random((seed, F.p, F.m, tuple(a)).__hash__())
    return sorted(_split_into_roots(F, g, rng))


def u_roots_with_multiplicity(F, a, seed=0):
    roots = u_distinct_roots(F, a, seed)
    out = []
    for r in roots:
        lin = [F.neg(r), 1]
        m = 0
        rest = list(a)
        while True:
            quo, rem = u_divmod(F, rest, lin)
            if rem:
                break
            m += 1
            rest = quo
        out.append((r, m))
    return out


# ---------------------------------------------------------------------------
# Gaussian elimination

_NP_PRIME_LIMIT = 1 << 20


def rank(F, rows, ncols=None, stop_at=None):
    """Rank of the matrix; stops early once ``stop_at`` is reached."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    if F.m == 1 and F.p < _NP_PRIME_LIMIT:
        return _rank_np(F.p, rows, ncols, stop_at)
    return _rank_generic(F, [list(r) for r in rows], ncols, stop_at)


def _rank_np(p, rows, ncols, stop_at):
    # delayed reduction (module docstring): entries stay below p + k(p-1)^2
    arr = np.array(rows, dtype=np.int64) % p
    r = 0
    nrows = arr.shape[0]
    assert p + min(nrows, ncols) * (p - 1) ** 2 < 1 << 63, "int64 overflow"
    for col in range(ncols):
        if r == nrows:
            break
        column = arr[r:, col] % p
        nz = np.flatnonzero(column)
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            arr[[r, piv]] = arr[[piv, r]]
        # reduce the pivot row before scaling it, or the product overflows
        inv = pow(int(column[nz[0]]), p - 2, p)
        head = arr[r, col + 1 :] % p * inv % p
        below = nz[1:]
        if below.size:
            # the old row r, now at piv, has a zero in this column
            arr[r + below, col + 1 :] += np.outer(p - column[below], head)
        r += 1
        if stop_at is not None and r >= stop_at:
            return r
    return r


def _rank_generic(F, rows, ncols, stop_at):
    r = 0
    nrows = len(rows)
    for col in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][col])
        if inv != 1:
            rows[r] = [F.mul(inv, x) for x in rows[r]]
        rr = rows[r]
        for i in range(r + 1, nrows):
            c = rows[i][col]
            if c:
                rows[i] = F.add_scaled(rows[i], F.neg(c), rr)
        r += 1
        if stop_at is not None and r >= stop_at:
            return r
    return r


def det(F, rows):
    """Determinant of a square matrix, by elimination; the empty matrix
    has determinant 1."""
    rows = [list(r) for r in rows]
    n = len(rows)
    acc = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            acc = F.neg(acc)
        rr = rows[col]
        acc = F.mul(acc, rr[col])
        scale = F.neg(F.inv(rr[col]))
        for i in range(col + 1, n):
            c = rows[i][col]
            if c:
                rows[i] = F.add_scaled(rows[i], F.mul(c, scale), rr)
    return acc


def rref(F, rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][col])
        if inv != 1:
            rows[r] = [F.mul(inv, x) for x in rows[r]]
        rr = rows[r]
        for i in range(len(rows)):
            c = rows[i][col]
            if c and i != r:
                rows[i] = F.add_scaled(rows[i], F.neg(c), rr)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    rows = [r_ for r_ in rows if any(r_)]
    return [tuple(r_) for r_ in rows], pivots


def kernel(F, rows, ncols):
    """Basis of the right null space {y : M y = 0}, rows of length ncols."""
    red, pivots = rref(F, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            # pivot row i reads: y[pc] + sum over free cols of coeff*y[free]
            vec[pc] = F.neg(red[i][fc])
        basis.append(tuple(vec))
    return basis

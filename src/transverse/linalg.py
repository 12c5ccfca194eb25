"""Exact arithmetic kernels shared across the package.

Univariate polynomials are plain lists/tuples of integer codes in ascending
power order with no trailing zeros; the zero polynomial is the empty tuple.
Routines that need field arithmetic take the field object first and go
through its integer-code methods (add, mul, inv, ...), so this module does
not import the field implementation.  Row updates x + c*y, in elimination
and in polynomial multiplication and division, go through the field's one
row kernel, ``F.add_scaled``.

Gaussian elimination is one echelon form per representation, a numpy
path for primes p < _NP_PRIME_LIMIT and rows of more than _NP_MIN_COLS
columns (below that, numpy's per-call cost outweighs its speed), and a
generic one on ``F.add_scaled`` for every other input; matrices are lists
of rows of codes.  A form holds one normalized pivot row per pivot column
and takes rows in blocks, each reduced against the rows it holds, so an
elimination can continue with more rows; ``rank``, ``det``, ``rref`` and
``kernel`` are views of it.
The numpy path delays modular reduction: each pivot reduces only its
column and the rows it clears, which grow by at most (p-1)^2 per pivot, so
after k pivots every entry stays below p + k(p-1)^2 (asserted).  That
bound picks the element type, the narrowest that keeps the arithmetic
exact (delayed reduction in the smallest machine word, as in FFLAS-FFPACK:
Dumas, Giorgi and Pernet, ACM TOMS 35, 2008): int32 when p + ncols(p-1)^2
< 2^31, int64 otherwise.  NP_MAX_PIVOTS is the most pivots k for which the
int64 bound holds for every p.

Two batched kernels run one computation over a stack of inputs in the
field's array view, ``F.arrays()``, in lockstep with no per-input Python
loop: ``u_squarefree_many``, a Euclid on f and f' for many polynomials, and
``full_rank_many``, forward elimination of many matrices.  Both are
fraction-free, each update a*x - b*y with no inverse (Bareiss, Math. Comp.
22, 1968; Brown, J. ACM 18, 1971), so they run in every representation of
the view.
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


def u_squarefree_many(F, f):
    """``u_squarefree`` of each row of f, an (S, d+1) code array of
    polynomials in ascending power order, as an (S,) bool array.

    A fraction-free Euclid on A = f and B = f', all rows in lockstep in the
    field's array view.  Each is stored from its formal degree down, so its
    leading coefficient is column 0.  A step first swaps A and B where deg
    A < deg B; then a B with a zero lead is shifted, and otherwise A becomes
    lc(B)*A - lc(A)*B, which cancels its lead, and is shifted.  Every step
    lowers deg A + deg B, 2d - 1 at the start, by one, and B runs out (deg
    -1) once A is the gcd; so after 2d - 1 steps the gcd is a nonzero
    constant exactly when one of A and B is, the other being zero or
    constant.  No inverse is taken, and the state is O(S*d) codes.
    """
    V = F.arrays()
    S, n = f.shape
    d = n - 1
    zero = np.zeros_like(f[:, :1])
    A = f[:, ::-1]
    B = V.mul(f[:, :0:-1], V.array([i % F.p for i in range(d, 0, -1)]))
    B = np.concatenate([B, zero], axis=1)
    dA, dB = np.full(S, d), np.full(S, d - 1)
    neg_one = F.neg(1)
    for _ in range(2 * d - 1):
        swap = dA < dB
        A, B = np.where(swap[:, None], B, A), np.where(swap[:, None], A, B)
        dA, dB = np.where(swap, dB, dA), np.where(swap, dA, dB)
        live = dB >= 0
        lead_zero = B[:, 0] == 0
        cut, wait = live & ~lead_zero, live & lead_zero
        rest = V.add(
            V.mul(B[:, :1], A[:, 1:]), V.mul(V.mul(neg_one, A[:, :1]), B[:, 1:])
        )
        A = np.where(cut[:, None], np.concatenate([rest, zero], axis=1), A)
        B = np.where(wait[:, None], np.concatenate([B[:, 1:], zero], axis=1), B)
        dA, dB = dA - cut, dB - wait

    def nonzero_constant(P, deg):
        nz = P != 0
        return (deg >= 0) & (nz.sum(axis=1) == 1) & nz[np.arange(S), np.maximum(deg, 0)]

    return nonzero_constant(A, dA) | nonzero_constant(B, dB)


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
    one synthetic division of M through the field's add and mul.  Only M
    and the weights are cached per (F, n), since callers reuse a few."""
    n = len(ys)
    M, weights = _interpolation_nodes(F, n)
    add, mul = F.add, F.mul
    out = [0] * n
    for j, (y, w) in enumerate(zip(ys, weights)):
        if y:
            quo = [1] * n  # M is monic, so the top coefficient stays 1
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


# ---------------------------------------------------------------------------
# Gaussian elimination

_NP_PRIME_LIMIT = 1 << 20
_NP_MIN_COLS = 12
_INT32_BOUND = 1 << 31
NP_MAX_PIVOTS = ((1 << 63) - 1 - _NP_PRIME_LIMIT) // (_NP_PRIME_LIMIT - 1) ** 2


def echelon(F, ncols):
    """An empty echelon form for rows of length ncols over F."""
    if F.m == 1 and F.p < _NP_PRIME_LIMIT and ncols > _NP_MIN_COLS:
        return _NpEchelon(F, ncols)
    return _Echelon(F, ncols)


class _Echelon:
    """The generic echelon form.  ``det`` is the product of the pivots with
    a sign per row swap: the determinant if one square block was added."""

    dtype = None  # blocks are rows of codes in any integer type

    def __init__(self, F, ncols):
        self.F, self.ncols = F, ncols
        self.held = {}  # pivot column -> its pivot row
        self.det = 1

    def rows(self):
        """The pivot rows in column order, as tuples of codes."""
        return [tuple(map(int, self.held[c])) for c in sorted(self.held)]

    def extend(self, rows, stop_at=None):
        """Add a block of rows and return the rank.  A column with a held
        pivot row is cleared with it in every block row; a new one takes its
        pivot from the block.  At rank ``stop_at`` the rest is dropped."""
        F, held = self.F, self.held
        rows = rows.tolist() if isinstance(rows, np.ndarray) else list(map(list, rows))
        r = 0
        for col in range(self.ncols):
            if stop_at is not None and len(held) >= stop_at:
                break
            h, todo = held.get(col), rows
            if h is None:
                piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                c = rows[r][col]
                self.det = F.mul(self.det, c if piv == r else F.neg(c))
                scaled = F.add_scaled([0] * self.ncols, F.inv(c), rows[r])
                h = held[col] = rows[r] = scaled
                r += 1
                todo = rows[r:]
            for row in todo:
                if row[col]:
                    row[:] = F.add_scaled(row, F.neg(row[col]), h)
        return len(held)


class _NpEchelon(_Echelon):
    """Each pivot row is written back into its block's array, reduced once
    the block is done, and held as a view of it.  The element type
    ``dtype`` is the narrowest that keeps the delayed reduction exact for
    ncols pivots: int32 when p + ncols(p-1)^2 < _INT32_BOUND, int64
    otherwise.  A block given as an array of that type is eliminated in
    place: its caller builds it in ``dtype`` and gives it up, and no copy
    is made.

    A clearing step writes its products into one workspace per block.  The
    rows it clears are updated through a slice when they form a dense run,
    at least 3/4 of the rows from the first to the last (the others take a
    zero multiple), and through a fancy index otherwise.  The flags
    benchmark's Macaulay eliminations have both: about 3/5 of their steps
    are dense runs (95-97% of the range nonzero), the rest a tenth to a
    quarter of it, and either path alone is slower there.
    """

    def __init__(self, F, ncols):
        super().__init__(F, ncols)
        small = F.p + ncols * (F.p - 1) ** 2 < _INT32_BOUND
        self.dtype = np.dtype(np.int32 if small else np.int64)

    def extend(self, rows, stop_at=None):
        p, held, ncols = self.F.p, self.held, self.ncols
        if isinstance(rows, np.ndarray) and rows.dtype == self.dtype:
            arr = rows.reshape(len(rows), ncols)
            arr %= p
        else:
            arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols) % p
            arr = arr.astype(self.dtype, copy=False)
        k = min(len(held) + len(arr), ncols)
        assert p + k * (p - 1) ** 2 <= np.iinfo(self.dtype).max, "overflow"
        work = np.empty(arr.size, dtype=self.dtype)  # every product, in turn
        r = 0
        for col in range(ncols):
            if stop_at is not None and len(held) >= stop_at:
                break
            h = held.get(col)
            if h is not None:
                top = 0
            elif r < len(arr):
                top = r
            else:
                continue
            # each row x becomes x + (-x[col] mod p) h
            column = -arr[top:, col] % p
            nz = column.nonzero()[0]
            if h is None:
                if nz.size == 0:
                    continue
                piv = r + int(nz[0])
                if piv != r:
                    arr[[r, piv]] = arr[[piv, r]]
                c = p - int(column[nz[0]])
                self.det = self.det * (c if piv == r else p - c) % p
                # reduce the pivot row before scaling it, or the product overflows
                arr[r, col:] = arr[r, col:] % p * pow(c, p - 2, p) % p
                h = held[col] = arr[r]
                # the old row r, now at piv, has a zero in this column
                column[nz[0]] = column[0]
                column, nz, top, r = column[1:], nz[1:] - 1, r + 1, r + 1
            if nz.size == 0:
                continue
            lo, hi = int(nz[0]), int(nz[-1]) + 1
            width = ncols - col
            if 4 * nz.size >= 3 * (hi - lo):  # a dense run: through a slice
                prod = work[: (hi - lo) * width].reshape(hi - lo, width)
                np.multiply(column[lo:hi, None], h[col:], out=prod)
                arr[top + lo : top + hi, col:] += prod
            else:
                prod = work[: nz.size * width].reshape(nz.size, width)
                np.multiply(column[nz, None], h[col:], out=prod)
                arr[top + nz, col:] += prod
        arr[:r] %= p  # new pivot rows that held ones cleared, for later blocks
        return len(held)


def rank(F, rows, ncols=None, stop_at=None, form=None):
    """Rank of the matrix; stops early once ``stop_at`` is reached.  Given an
    echelon ``form``, the rows extend it and the rank counts all it holds."""
    if form is None:
        if len(rows) == 0:
            return 0
        form = echelon(F, len(rows[0]) if ncols is None else ncols)
    return form.extend(rows, stop_at)


def full_rank_many(F, M):
    """Whether each matrix of M, an (S, R, C) code array with R >= C, has
    rank C, as an (S,) bool array.

    Fraction-free forward elimination, all matrices in lockstep in the
    field's array view: in column c every matrix takes its first nonzero
    row from row c down as the pivot, swaps it to row c, and the rows below
    become pivot*row - lead*pivot_row.  A column with no pivot there leaves
    its first c + 1 columns in the span of c coordinates, so the matrix is
    rank-deficient.  No inverse is taken.
    """
    V = F.arrays()
    S, R, C = M.shape
    M = M.copy()
    every = np.arange(S)
    ok = np.ones(S, dtype=bool)
    neg_one = F.neg(1)
    for c in range(C):
        nz = M[:, c:, c] != 0
        ok &= nz.any(axis=1)
        piv = c + nz.argmax(axis=1)
        top = M[every, piv]
        M[every, piv] = M[:, c]
        M[:, c] = top
        below = M[:, c + 1 :, c:]
        M[:, c + 1 :, c:] = V.add(
            V.mul(top[:, c, None, None], below),
            V.mul(V.mul(neg_one, below[:, :, :1]), top[:, None, c:]),
        )
    return ok


def det(F, rows):
    """Determinant of a square matrix; the empty matrix has determinant 1."""
    form = echelon(F, len(rows))
    return form.det if form.extend(rows) == len(rows) else 0


def rref(F, rows):
    """Reduced row echelon form; returns (rows, pivot column indices).  The
    pivot rows are fed back from the last, each cleared by those held."""
    if len(rows) == 0:
        return [], []
    form = echelon(F, len(rows[0]))
    form.extend(rows)
    reduced = echelon(F, form.ncols)
    for row in reversed(form.rows()):
        reduced.extend([row])
    return reduced.rows(), sorted(reduced.held)


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

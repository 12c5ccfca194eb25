import itertools
import random

import numpy as np
import pytest

import echelon_reference as ref
from transverse import certify, gf, linalg, poly


def _random_row(F, n, rng):
    # about a third of the entries are zero
    return [rng.randrange(F.order) if rng.random() < 0.67 else 0 for _ in range(n)]


# ---------------------------------------------------------------------------
# The one-shot eliminations the echelon forms replaced, kept verbatim as
# references for the differential tests below.


def _rank(F, rows, ncols=None, stop_at=None):
    """Rank of the matrix; stops early once ``stop_at`` is reached."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    if F.m == 1 and F.p < linalg._NP_PRIME_LIMIT:
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


def _det(F, rows):
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


def _rref(F, rows):
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


# ---------------------------------------------------------------------------


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


def _both_forms(F, ncols):
    """A numpy and a generic echelon form over the prime field F."""
    return linalg._NpEchelon(F, ncols), linalg._Echelon(F, ncols)


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
        want = _rank_np(p, rows, ncols, None)
        assert _rank_generic(F, [list(r) for r in rows], ncols, None) == want
        assert [form.extend(rows) for form in _both_forms(F, ncols)] == [want] * 2
        stop = rng.randrange(1, 4)
        want = _rank_np(p, rows, ncols, stop)
        assert _rank_generic(F, [list(r) for r in rows], ncols, stop) == want
        assert [form.extend(rows, stop) for form in _both_forms(F, ncols)] == [want] * 2


def test_rank_np_matches_generic_near_prime_limit():
    # delayed reduction lets entries grow by (p-1)^2 per pivot; tall matrices
    # with many pivots at the largest prime the numpy path takes, fed in two
    # blocks so the second is also cleared by the held rows of the first
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
        want = _rank_generic(F, [list(r) for r in rows], ncols, None)
        assert want <= k
        assert _rank_np(p, rows, ncols, None) == want
        cut = int(rng.integers(0, len(rows)))
        for form in _both_forms(F, ncols):
            form.extend(rows[:cut])
            assert form.extend(rows[cut:]) == want
            assert linalg.rref(F, form.rows()) == _rref(F, rows)
        stop = int(rng.integers(1, ncols + 1))
        want = _rank_generic(F, [list(r) for r in rows], ncols, stop)
        assert _rank_np(p, rows, ncols, stop) == want
        assert linalg.rank(F, rows, ncols, stop) == want


# F_1048583 is above linalg._NP_PRIME_LIMIT, so it takes the generic form,
# like the extension fields F_4, F_9 and F_169
DIFFERENTIAL_FIELDS = [
    (2, 1), (13, 1), (101, 1), (1_048_573, 1), (1_048_583, 1), (2, 2), (3, 2), (13, 2),
]


def _random_matrix(F, nrows, ncols, rng):
    rows = [_random_row(F, ncols, rng) for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:
        # rank deficient: one row a combination of two others
        rows[-1] = F.add_scaled(rows[0], rng.randrange(F.order), rows[1])
    if nrows > 1 and rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [0] * ncols
    return rows


# The differential tests draw matrices of fewer than 8 columns, below the
# column count at which echelon turns to numpy.  Each runs three times: once
# as echelon chooses by size, once with that count lowered to 0, so that
# every prime field below the limit also takes the numpy form through every
# view, and once more with the int32 bound lowered to 0, so that the numpy
# form works in int64 where it would pick int32.


def _representations(F, monkeypatch):
    """Yield three times, the last two with numpy chosen for every prime
    field below the limit, in the element type echelon picks and then in
    int64, and check which form and type echelon returns each time."""
    for min_cols, bound in ((None, None), (0, None), (0, 0)):
        with monkeypatch.context() as patch:
            if min_cols is not None:
                patch.setattr(linalg, "_NP_MIN_COLS", min_cols)
            if bound is not None:
                patch.setattr(linalg, "_INT32_BOUND", bound)
            uses_np = min_cols == 0 and F.m == 1 and F.p < linalg._NP_PRIME_LIMIT
            form = linalg.echelon(F, 1)
            assert isinstance(form, linalg._NpEchelon) == uses_np
            if uses_np:
                small = bound is None and F.p + (F.p - 1) ** 2 < 1 << 31
                assert form.dtype == (np.int32 if small else np.int64)
            yield


@pytest.mark.parametrize("p, m", DIFFERENTIAL_FIELDS)
def test_views_match_the_one_shot_references(p, m, monkeypatch):
    F = gf.field_create(p, m)
    for _ in _representations(F, monkeypatch):
        rng = random.Random(f"views/{F.order}")
        assert linalg.det(F, []) == _det(F, []) == 1
        for _ in range(150):
            nrows, ncols = rng.randrange(0, 8), rng.randrange(1, 8)
            rows = _random_matrix(F, nrows, ncols, rng)
            assert linalg.rank(F, rows, ncols) == _rank(F, rows, ncols)
            stop = rng.randrange(1, 5)
            assert linalg.rank(F, rows, ncols, stop) == _rank(F, rows, ncols, stop)
            red, pivots = linalg.rref(F, rows)
            assert (red, pivots) == _rref(F, rows)
            assert all(type(x) is int for row in red for x in row)
            basis = linalg.kernel(F, rows, ncols)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "rref", _rref)
                assert basis == linalg.kernel(F, rows, ncols)
            assert all(type(x) is int for row in basis for x in row)
            # square: the first rows, padded when short, often with a swap
            n = min(ncols, 6)
            square = [row[:n] for row in rows[:n]]
            square += _random_matrix(F, n - len(square), n, rng)
            if n > 1 and rng.random() < 0.5:
                square[0] = [0] + square[0][1:]
            assert linalg.det(F, square) == _det(F, square)


@pytest.mark.parametrize("p, m", DIFFERENTIAL_FIELDS)
def test_extending_a_form_matches_the_one_shot_rank(p, m, monkeypatch):
    F = gf.field_create(p, m)
    for _ in _representations(F, monkeypatch):
        rng = random.Random(f"extend/{F.order}")
        stopped_in_first = 0
        for _ in range(150):
            nrows, ncols = rng.randrange(1, 10), rng.randrange(1, 8)
            rows = _random_matrix(F, nrows, ncols, rng)
            cut = rng.randrange(nrows + 1)
            stop = rng.choice([None, rng.randrange(1, ncols + 1)])
            form = linalg.echelon(F, ncols)
            first = linalg.rank(F, rows[:cut], ncols, stop, form=form)
            want = _rank(F, rows, ncols, stop)
            assert linalg.rank(F, rows[cut:], ncols, stop, form=form) == want
            if stop is not None and first >= stop:
                stopped_in_first += 1
                assert first == want == stop
            elif stop is None:
                # the held rows span all the rows, each normalized at its pivot
                assert linalg.rref(F, form.rows()) == _rref(F, rows)
                assert sorted(form.held) == _rref(F, rows)[1]
                for row, c in zip(form.rows(), sorted(form.held)):
                    assert row[c] == 1 and not any(row[:c])
        assert stopped_in_first > 0


@pytest.mark.parametrize("p", [13, 83])
def test_representation_is_chosen_by_column_count(p):
    # small prime-field eliminations stay generic, where numpy's per-call
    # cost outweighs its speed; every view agrees on both sides of the line
    F = gf.field_create(p)
    cut = linalg._NP_MIN_COLS
    assert type(linalg.echelon(F, cut)) is linalg._Echelon
    assert type(linalg.echelon(F, cut + 1)) is linalg._NpEchelon
    assert type(linalg.echelon(gf.field_create(p, 2), cut + 1)) is linalg._Echelon
    rng = random.Random(f"cut/{p}")
    for ncols in (cut - 1, cut, cut + 1, cut + 2):
        for trial in range(12):
            nrows = rng.choice([1, 2, ncols // 2, ncols, ncols + 3])
            rows = _random_matrix(F, nrows, ncols, rng)
            generic, numpy_form = linalg._Echelon(F, ncols), linalg._NpEchelon(F, ncols)
            want = _rank(F, rows, ncols)
            assert generic.extend(rows) == numpy_form.extend(rows) == want
            assert generic.rows() == numpy_form.rows()
            assert linalg.rank(F, rows, ncols) == want
            assert linalg.rref(F, rows) == _rref(F, rows)
            basis = linalg.kernel(F, rows, ncols)
            assert len(basis) == ncols - want
            for y in basis:
                assert all(_dot(F, row, y) == 0 for row in rows)
            square = _random_matrix(F, ncols, ncols, rng)
            if trial % 3 == 0:
                square[-1] = F.add_scaled(square[0], 1, square[1])  # singular
            assert linalg.det(F, square) == _det(F, square)


# ---------------------------------------------------------------------------
# The prime path against the int64 form it replaced (echelon_reference): the
# same held rows, rank after every block and det, in either element type.


def _against_the_reference(F, ncols, blocks, stop=None):
    """Feed the blocks to a numpy form and to the reference; each block goes
    to the numpy form as an array of its element type, so it is eliminated
    in place, and to the reference as an int64 copy.  Returns the form and
    its rank after each block."""
    form, old = linalg._NpEchelon(F, ncols), ref.NpEchelonReference(F, ncols)
    ranks = []
    for block in blocks:
        block = np.asarray(block, dtype=np.int64).reshape(len(block), ncols)
        ranks.append(form.extend(block.astype(form.dtype), stop))
        assert ranks[-1] == old.extend(block.copy(), stop)
        assert form.rows() == old.rows() and form.det == old.det
    return form, ranks


def test_singular_quintic_square_and_continuation_match_the_reference():
    # a quintic surface over F_83 drawn as flags seed 1 draws its first: the
    # Macaulay square of its partials at N* = 13 is singular (rank 559 of
    # 560), and its 320 other rows continue the elimination to full rank
    F = gf.field_create(83)
    rng = random.Random("flags/1")
    terms = {e: rng.randrange(83) for e in poly.monomials_of_degree(4, 5)}
    gens = poly.form_partials(poly.Form(F, 4, 5, terms))
    degs = tuple(g.degree for g in gens)
    assert certify._macaulay_bound(degs, 3) == 13
    V = F.arrays()
    coefs = [poly.coefficients(g, V) for g in gens]
    blocks = []
    for height, parts in certify._macaulay_plan(4, 13, degs, True):
        block = np.zeros((height, 560), dtype=np.int64)
        for j, rows, cols in parts:
            block[rows[:, None], cols] = coefs[j]
        blocks.append(block)
    assert [len(b) for b in blocks] == [560, 320]
    form, ranks = _against_the_reference(F, 560, blocks)
    assert form.dtype == np.int32
    assert ranks == [559, 560]
    assert certify._macaulay_spans(gens, F, 4, 13)


@pytest.mark.parametrize(
    "p, ncols, dtype",
    [
        (2, 40, np.int32),
        (83, 60, np.int32),
        (1_048_573, 30, np.int64),
        # p + ncols(p-1)^2 is just below 2^31 at 50 columns, just above at 51
        (6_553, 50, np.int32),
        (6_553, 51, np.int64),
    ],
)
def test_random_blocks_match_the_reference(p, ncols, dtype):
    F = gf.field_create(p)
    assert linalg.echelon(F, ncols).dtype == dtype
    rng = random.Random(f"reference/{p}/{ncols}")
    stopped = 0
    for trial in range(12):
        # sparse, medium and dense rows in turn: the rows a column clears
        # are few and scattered, or a dense run
        density = (0.05, 0.3, 1.0)[trial % 3]
        seen, blocks = [], []
        for _ in range(rng.randrange(1, 5)):
            block = []
            for _ in range(rng.randrange(0, ncols)):
                kind = rng.random()
                if kind < 0.1:
                    row = [0] * ncols
                elif kind < 0.3 and len(seen) > 1:
                    # dependent: a combination of two rows, maybe of an
                    # earlier block
                    a, b = rng.sample(seen, 2)
                    row = F.add_scaled(a, rng.randrange(p), b)
                else:
                    row = [rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
                block.append(row)
            seen += block
            blocks.append(block)
        stop = rng.choice([None, None, rng.randrange(1, ncols + 1)])
        form, _ = _against_the_reference(F, ncols, blocks, stop)
        assert form.dtype == dtype
        stopped += stop is not None and len(form.held) == stop
    assert stopped


def test_lists_and_other_integer_arrays_are_converted():
    # a block that is not an array of the form's type is copied into one,
    # reduced mod p first: the caller's rows are left as they were
    F = gf.field_create(83)
    rng = random.Random("convert")
    rows = [[rng.randrange(3 * 83) for _ in range(20)] for _ in range(15)]
    want = _rank(F, [[x % 83 for x in row] for row in rows])
    for given in (rows, np.array(rows, dtype=np.int64), np.array(rows, dtype=np.int16)):
        before = np.array(given).copy()
        form = linalg._NpEchelon(F, 20)
        assert form.dtype == np.int32
        assert form.extend(given) == want
        assert (np.array(given) == before).all()


def _dot(F, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


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


# ---------------------------------------------------------------------------
# The batched kernels against the scalar references u_squarefree and rank,
# over every representation of the array view: int64 primes, xor tables in
# characteristic 2, Zech tables in odd extensions, object arrays past 2^31
# and past the tables at 2^16.

BATCH_FIELDS = [
    (13, 1), (1_048_583, 1), (2, 2), (2, 3), (3, 2), (13, 2), (7, 3),
    (2_147_483_659, 1), (2, 17),
]


def _squarefree_cases(F, d, rng):
    """Polynomials of formal degree d (d + 1 codes, ascending): random ones,
    zero top coefficients, planted squares h^2 * k, p-th powers (f' = 0)
    and the zero polynomial."""
    p = F.p

    def rand(n, top=True):
        f = [rng.randrange(F.order) for _ in range(n)]
        if top and n:
            f[-1] = rng.randrange(1, F.order)
        return f

    cases = [rand(d + 1) for _ in range(12)]
    cases += [rand(d) + [0] for _ in range(6)]
    cases.append(rand(1) + [0] * d)  # a constant, maybe zero
    cases.append([0] * (d + 1))
    if d >= 2:
        for _ in range(6):
            h = rand(2)
            f = linalg.u_mul(F, linalg.u_mul(F, h, h), rand(d - 1))
            cases.append(f + [0] * (d + 1 - len(f)))
    if d >= p:
        for _ in range(4):
            cases.append([rng.randrange(F.order) if i % p == 0 else 0 for i in range(d + 1)])
    return cases


@pytest.mark.parametrize("p, m", BATCH_FIELDS)
def test_squarefree_many_matches_u_squarefree(p, m):
    F = gf.field_create(p, m)
    V = F.arrays()
    rng = random.Random(f"squarefree/{F.order}")
    seen = set()
    for d in range(0, 9):
        cases = _squarefree_cases(F, d, rng)
        got = linalg.u_squarefree_many(F, V.array(cases)).tolist()
        want = [linalg.u_squarefree(F, linalg.u_trim(f)) for f in cases]
        assert got == want, (d, [f for f, g, w in zip(cases, got, want) if g != w])
        seen.update(want)
    assert seen == {True, False}


def test_squarefree_many_covers_p_dividing_the_degree():
    # deg f = p, 2p: f' drops below d - 1 or vanishes, in F_5 and F_4
    for F in (gf.field_create(5), gf.field_create(2, 2)):
        V = F.arrays()
        rng = random.Random(F.order)
        for d in (F.p, 2 * F.p, 3 * F.p):
            cases = _squarefree_cases(F, d, rng)
            got = linalg.u_squarefree_many(F, V.array(cases)).tolist()
            assert got == [linalg.u_squarefree(F, linalg.u_trim(f)) for f in cases]


def _rank_cases(F, R, C, rng):
    """R x C matrices: random, a repeated row, a zero column, a row that is
    a combination of two others, and a column that is one of two others."""
    out = []
    for kind in range(10):
        M = [_random_row(F, C, rng) for _ in range(R)]
        if kind == 1 and R > 1:
            M[-1] = list(M[0])
        elif kind == 2:
            j = rng.randrange(C)
            for row in M:
                row[j] = 0
        elif kind == 3 and R > 2:
            M[rng.randrange(2, R)] = F.add_scaled(M[0], rng.randrange(F.order), M[1])
        elif kind == 4 and C > 2:
            c = rng.randrange(F.order)
            for row in M:
                row[-1] = F.add(row[0], F.mul(c, row[1]))
        elif kind == 5:
            M = [[rng.randrange(F.order) for _ in range(C)] for _ in range(R)]
        out.append(M)
    return out


@pytest.mark.parametrize("p, m", BATCH_FIELDS)
def test_full_rank_many_matches_rank(p, m):
    F = gf.field_create(p, m)
    V = F.arrays()
    rng = random.Random(f"full-rank/{F.order}")
    seen = set()
    for R, C in [(1, 1), (2, 2), (3, 3), (4, 2), (5, 5), (7, 4), (6, 6), (9, 3)]:
        cases = _rank_cases(F, R, C, rng)
        got = linalg.full_rank_many(F, V.array(cases)).tolist()
        want = [linalg.rank(F, M, C) == C for M in cases]
        assert got == want, (R, C)
        seen.update(want)
    assert seen == {True, False}

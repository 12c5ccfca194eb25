"""Restriction over the rows' field: substitute_rows(F, rows, E) against
the coefficient lift it replaced, the dimension bounds built on it, and the
restriction kernel, batched and one span at a time, against the dict
product it replaced."""

import contextlib
import functools
import io
import math
import pathlib
import random

import pytest

import slice_reference as slices_ref
from transverse import audit, certify, cli, config, gf, linalg, locus, poly, projgeom
from transverse import search
from transverse.certify import DimensionCertificate


# ---------------------------------------------------------------------------
# The coefficient lift and the lifted-scheme dimension bounds that
# substitute_rows(F, rows, E) replaced, kept verbatim (up to module
# prefixes) as references for the differential tests below.


def form_lift(F: poly.Form, E: gf.Field) -> poly.Form:
    """F with its coefficients embedded in the extension E of its field."""
    if E == F.field:
        return F
    return poly.Form(
        E,
        F.nvars,
        F.degree,
        {e: gf.embed_code(F.field, E, c) for e, c in F.terms.items()},
    )


def _lift_scheme(S: locus.SchemeSpec, E: gf.Field) -> locus.SchemeSpec:
    if E == S.field:
        return S
    return locus.SchemeSpec(E, S.nvars, [form_lift(g, E) for g in S.gens])


def _slice_by(S: locus.SchemeSpec, row) -> locus.SchemeSpec:
    rows = linalg.kernel(S.field, [list(row)], S.nvars)
    return locus.SchemeSpec(
        S.field, S.nvars - 1, [poly.substitute_rows(g, rows) for g in S.gens]
    )


def ref_dim_upper_bound(S, t, rng):
    if t < -1:
        raise ValueError("dimension bound below -1 is meaningless")
    if t == -1:
        verdict = "at-most" if certify.macaulay_is_empty(S) else "undetermined"
        return DimensionCertificate(S, -1, verdict)
    if t >= S.ambient:
        return DimensionCertificate(S, t, "at-most")
    E = gf.extension_with(S.field, certify._LV_MIN_FIELD)
    lifted = _lift_scheme(S, E)
    for attempt in range(1, certify._LV_RETRIES + 1):
        cur = lifted
        slices = []
        for _ in range(t + 1):
            while True:
                row = tuple(rng.randrange(E.order) for _ in range(cur.nvars))
                if any(row):
                    break
            slices.append(row)
            cur = _slice_by(cur, row)
        if certify.macaulay_is_empty(cur):
            return DimensionCertificate(S, t, "at-most", tuple(slices), attempt)
    return DimensionCertificate(S, t, "undetermined", (), certify._LV_RETRIES)


def ref_dim_at_most_exact(S, t):
    if t < -1:
        raise ValueError("dimension bound below -1 is meaningless")
    if t == -1:
        return certify.macaulay_is_empty(S)
    if t >= S.ambient:
        return True
    n = S.ambient
    E = gf.extension_with(S.field, n * certify._bezout_component_bound(S) + 1)
    branch = E.order
    work = 1
    for _ in range(t + 1):
        work *= branch
        if work > certify._EXACT_BRANCH_BUDGET:
            raise config.SearchInfeasibleError(
                f"exact dimension scan needs about {branch}^{t + 1} emptiness "
                f"tests, over the {certify._EXACT_BRANCH_BUDGET} budget"
            )
    lifted = _lift_scheme(S, E)
    return _ref_exact_scan(lifted, t, E)


def _ref_exact_scan(S, t, E):
    if certify.macaulay_is_empty(S):
        return True
    if t == -1:
        return False
    for c in range(E.order):
        if _ref_exact_scan(_slice_by(S, certify._moment_row(E, S.nvars, c)), t - 1, E):
            return True
    return False


# ---------------------------------------------------------------------------

# (base field, extension degree over it): F_13 -> F_169, F_4 -> F_64,
# F_3 -> F_81, F_9 -> F_729
LIFTS = [((13, 1), 2), ((2, 2), 3), ((3, 1), 4), ((3, 2), 3)]


def _ids(lift):
    (p, m), k = lift
    return f"F{p**m}-F{p**(m * k)}"


def random_form(field, nvars, degree, rng, density=0.6):
    mons = list(poly.monomials_of_degree(nvars, degree))
    while True:
        terms = {m: rng.randrange(field.order) for m in mons if rng.random() < density}
        G = poly.Form(field, nvars, degree, terms)
        if not G.is_zero():
            return G


def random_rows(E, k, nvars, rng):
    rows = [[rng.randrange(E.order) for _ in range(nvars)] for _ in range(k)]
    shape = rng.randrange(4)
    if shape == 1 and k > 1:
        # a dependent last row: c times the first
        c = rng.randrange(E.order)
        rows[-1] = [E.mul(c, x) for x in rows[0]]
    elif shape == 2:
        for row in rows:
            row[0] = 0  # a zero column
    return rows


@pytest.mark.parametrize("lift", LIFTS, ids=_ids)
def test_substitution_over_the_rows_field_matches_the_lift(lift):
    (p, m), k = lift
    F = gf.field_create(p, m)
    E = gf.extension_field(F, k)
    rng = random.Random(f"lift/{F.order}/{E.order}")
    for trial in range(40):
        nvars = 2 + trial % 3
        f = random_form(F, nvars, rng.randrange(0, 4), rng)
        rows = random_rows(E, rng.randrange(1, nvars + 1), nvars, rng)
        got = poly.substitute_rows(f, rows, E)
        assert got == poly.substitute_rows(form_lift(f, E), rows)
        assert (got.field, got.nvars, got.degree) == (E, len(rows), f.degree)
        # rows over F itself: E defaults to F's field, and naming it changes
        # nothing
        base = [[rng.randrange(F.order) for _ in range(nvars)] for _ in rows]
        assert poly.substitute_rows(f, base) == poly.substitute_rows(f, base, F)
        assert poly.substitute_rows(f, base).field == F


@pytest.mark.parametrize("lift", LIFTS, ids=_ids)
def test_slices_match_the_lifted_scheme(lift):
    (p, m), k = lift
    F = gf.field_create(p, m)
    E = gf.extension_field(F, k)
    rng = random.Random(f"slice/{F.order}/{E.order}")
    for trial in range(10):
        nvars = 3 + trial % 2
        S = locus.SchemeSpec(
            F, nvars, [random_form(F, nvars, rng.randrange(1, 3), rng) for _ in range(2)]
        )
        lifted = _lift_scheme(S, E)
        row = [0] * nvars
        while not any(row):
            row = [rng.randrange(E.order) for _ in range(nvars)]
        got = certify._slice_by(S, row, E)
        want = _slice_by(lifted, row)
        assert (got.field, got.nvars, got.gens) == (want.field, want.nvars, want.gens)
        # a second slice starts from a scheme already over E
        row = row[1:]
        assert certify._slice_by(got, row, E).gens == _slice_by(want, row).gens


@pytest.mark.parametrize("field", [(13, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_composed_slices_match_level_by_level(field):
    # _random_slices restricts each generator once, at the composed basis of
    # _slice_basis; the reference substitutes the levels away one at a time
    # from the lifted scheme, on the same rng stream
    F = gf.field_create(*field)
    E = gf.extension_with(F, certify._LV_MIN_FIELD)
    rng = random.Random(f"composed/{F.order}")
    for trial in range(6):
        nvars = 3 + trial % 3
        gens = [random_form(F, nvars, rng.randrange(1, 4), rng) for _ in range(3)]
        S = locus.SchemeSpec(F, nvars, gens)
        t = rng.randrange(nvars - 1)
        ours, theirs = random.Random(trial), random.Random(trial)
        slices, got = certify._random_slices(S, t, ours)
        cur, want = _lift_scheme(S, E), []
        for _ in range(t + 1):
            row = (0,)
            while not any(row):
                row = tuple(theirs.randrange(E.order) for _ in range(cur.nvars))
            want.append(row)
            cur = _slice_by(cur, row)
        assert slices == tuple(want)
        assert (got.field, got.nvars, got.gens) == (cur.field, cur.nvars, cur.gens)
        assert ours.getstate() == theirs.getstate()


# the fields the slice bases are compared over: tables of both
# characteristics, table-less primes, and a prime past 2^20
SECTION_FIELDS = [(2, 1), (3, 1), (2, 2), (13, 1), (13, 2), (5, 3), (1048583, 1)]


class _Scripted:
    """An rng whose randrange hands out prepared codes, in order."""

    def __init__(self, codes):
        self.codes = iter(codes)

    def randrange(self, order):
        return next(self.codes)


def _leading_zero_rows(E, nvars, levels, rng):
    """Nonzero rows level by level, each with a run of leading zeros, so
    the pivots fall past column 0, and with zeros inside."""
    rows = []
    for level in range(levels):
        width = nvars - level
        lead = rng.randrange(width)
        row = [0] * lead + [rng.randrange(1, E.order)]
        for _ in range(width - lead - 1):
            row.append(rng.randrange(E.order) if rng.random() < 0.6 else 0)
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("field", SECTION_FIELDS, ids=lambda f: f"F{f[0] ** f[1]}")
def test_section_basis_matches_the_composed_kernels(field):
    # _slice_basis against the per-level linalg.kernel and matrix product it
    # replaced: on the same rng stream, and on scripted rows whose pivots
    # fall past column 0 (an all-zero row first, which both redraw)
    E = gf.field_create(*field)
    rng = random.Random(f"section/{E.order}")
    for nvars in range(2, 9):
        for levels in range(1, nvars):
            ours, theirs = random.Random(nvars * levels), random.Random(nvars * levels)
            got = certify._slice_basis(E, nvars, levels, ours)
            want = slices_ref._slice_basis(E, nvars, levels, theirs)
            assert got[0] == want[0]
            assert got[1] == [list(v) for v in want[1]]
            assert ours.getstate() == theirs.getstate()
            rows = _leading_zero_rows(E, nvars, levels, rng)
            codes = [0] * nvars + [c for row in rows for c in row]
            got = certify._slice_basis(E, nvars, levels, _Scripted(codes))
            want = slices_ref._slice_basis(E, nvars, levels, _Scripted(codes))
            assert got[0] == want[0] == tuple(rows)
            assert got[1] == [list(v) for v in want[1]]


@pytest.mark.parametrize("field", SECTION_FIELDS, ids=lambda f: f"F{f[0] ** f[1]}")
def test_one_row_slice_is_the_kernel_slice(field):
    # _slice_by against substitution at linalg.kernel's basis of its row,
    # on rows whose pivot falls past column 0
    E = gf.field_create(*field)
    rng = random.Random(f"one-row/{E.order}")
    for nvars in range(2, 9):
        S = locus.SchemeSpec(E, nvars, [random_form(E, nvars, 2, rng) for _ in range(2)])
        for _ in range(3):
            (row,) = _leading_zero_rows(E, nvars, 1, rng)
            assert certify._slice_by(S, row, E).gens == _slice_by(S, row).gens


def test_wide_slice_basis_needs_no_elimination_and_bounded_work(monkeypatch):
    # 400 variables and 398 levels, the Las-Vegas slice of a point on a
    # 400-variable hypersurface: no kernel, no row operation, and at most
    # levels x nvars x basis rows + levels multiplications
    E = gf.extension_with(gf.field_create(5, 1), certify._LV_MIN_FIELD)
    nvars, levels = 400, 398

    def refuse(*args):
        raise AssertionError("the slice basis needs no elimination")

    monkeypatch.setattr(linalg, "kernel", refuse)
    monkeypatch.setattr(E, "add_scaled", refuse)
    muls, mul = [0], E.mul

    def counted(a, b):
        muls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(E, "mul", counted)
    slices, basis = certify._slice_basis(E, nvars, levels, random.Random(0))
    rows = nvars - levels
    assert len(slices) == levels and len(basis) == rows
    assert 0 < muls[0] <= levels * nvars * rows + levels


def seeded_schemes(F, rng):
    """Two-generator schemes in P^2 and P^3 of every dimension from -1 to 1,
    and a line in P^3."""
    out = []
    for nvars in (3, 4):
        for _ in range(3):
            degs = [rng.randrange(1, 3) for _ in range(nvars - 1)]
            out.append(
                locus.SchemeSpec(F, nvars, [random_form(F, nvars, d, rng) for d in degs])
            )
    out.append(locus.SchemeSpec(F, 4, [random_form(F, 4, 1, rng) for _ in range(2)]))
    return out


@pytest.mark.parametrize("lift", LIFTS, ids=_ids)
def test_dimension_bounds_match_the_lifted_path(lift):
    (p, m), _ = lift
    F = gf.field_create(p, m)
    rng = random.Random(f"dimension/{F.order}")
    verdicts, exact = set(), set()
    for i, S in enumerate(seeded_schemes(F, rng)):
        for t in range(-1, S.ambient):
            ours, theirs = random.Random(i), random.Random(i)
            got = certify.dim_upper_bound(S, t, ours)
            want = ref_dim_upper_bound(S, t, theirs)
            assert got.scheme is S
            assert got.to_dict() == want.to_dict()  # verdict, retries_used, slices
            assert ours.getstate() == theirs.getstate()  # the same rng draws
            verdicts.add(got.verdict)
            try:
                want = ref_dim_at_most_exact(S, t)
            except config.SearchInfeasibleError:
                with pytest.raises(config.SearchInfeasibleError):
                    certify.dim_at_most_exact(S, t)
                continue
            assert certify.dim_at_most_exact(S, t) == want
            exact.add(want)
    assert verdicts == {"at-most", "undetermined"}
    assert exact == {True, False}


# ---------------------------------------------------------------------------
# The dict-product restriction, kept verbatim (up to module prefixes) as the
# reference of the restriction kernel's differential test below.


def _mul_terms(fld: gf.Field, a: dict, b: dict) -> dict:
    """Product of two raw term maps (exponent tuple -> nonzero code)."""
    add, mul = fld.add, fld.mul
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = add(out.get(e, 0), mul(c1, c2))
    return {e: c for e, c in out.items() if c}


def substitute_rows(F: poly.Form, rows, E: gf.Field | None = None) -> poly.Form:
    fld = F.field if E is None else E
    emb = functools.partial(gf.embed_code, F.field, fld)
    B = list(rows)
    k = len(B)
    if any(len(r) != F.nvars for r in B):
        raise ValueError("parametrization rows must have nvars columns")
    unit = [tuple(1 if t == i else 0 for t in range(k)) for i in range(k)]
    lin = [{unit[i]: B[i][j] for i in range(k) if B[i][j]} for j in range(F.nvars)]
    const = (0,) * k
    powers = [[{const: 1}] for _ in range(F.nvars)]
    acc: dict = {}
    for exps, c in F.terms.items():
        term = {const: emb(c)}
        for j, e in enumerate(exps):
            if e:
                pw = powers[j]
                while len(pw) <= e:
                    pw.append(_mul_terms(fld, pw[-1], lin[j]))
                term = _mul_terms(fld, term, pw[e])
        for m, v in term.items():
            acc[m] = fld.add(acc.get(m, 0), v)
    return poly.Form(fld, k, F.degree, acc)


def kernel_forms(kernel_out, forms, k, E):
    """The kernel's coefficient rows as forms, one list per form."""
    return [
        [poly.array_form(E, k, G.degree, row) for row in coefs]
        for G, coefs in zip(forms, kernel_out)
    ]


def no_dict_product(monkeypatch):
    """Make the library's term-map product raise, so a restriction that
    still multiplied term maps would fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a restriction multiplied term maps")

    monkeypatch.setattr(poly, "_mul_terms", refuse)


# (base field, extension degree) per array-view representation: int64
# residues for F_13 and the prime 2^31 - 1, Zech gathers for F_169 and F_243
# (from F_13 and F_3), xor for F_4 and F_256 (from F_2), objects for the
# prime 2^31 + 11; F_2, F_3 and F_4 have at most d elements from degree 2, 3
# and 4 on, and are lifted; F_64 from F_4 embeds codes that are not constants
RESTRICTION_FIELDS = [
    ((13, 1), 1), ((2147483647, 1), 1), ((13, 1), 2), ((3, 1), 5), ((2, 2), 1),
    ((2, 1), 8), ((2147483659, 1), 1), ((2, 1), 1), ((3, 1), 1), ((2, 2), 3),
]


@pytest.mark.parametrize("lift", RESTRICTION_FIELDS, ids=_ids)
def test_restriction_kernel_matches_substitute_rows(lift, monkeypatch):
    (p, m), ext = lift
    F = gf.field_create(p, m)
    E = gf.extension_field(F, ext)
    rng = random.Random(f"restrict/{F.order}/{E.order}")
    nvars = 4
    no_dict_product(monkeypatch)
    for k in range(1, 6):
        for d in range(1, 7):
            forms = [
                random_form(F, nvars, d, rng),
                random_form(F, nvars, d, rng, density=0.15),
                random_form(F, nvars, d - 1, rng),  # another degree, same call
                poly.Form(F, nvars, d, {}),
            ]
            bases = [random_rows(E, k, nvars, rng) for _ in range(3)]
            # a zero row, and for k = 1 the zero span
            bases.append([[0] * nvars] + random_rows(E, k - 1, nvars, rng))
            got = kernel_forms(poly.restrict_many(forms, bases, E), forms, k, E)
            want = [[substitute_rows(G, B, E) for B in bases] for G in forms]
            assert got == want, (k, d)
            # one span at a time, through the kernel's one-span face
            single = [[poly.substitute_rows(G, B, E) for B in bases] for G in forms]
            assert single == want, (k, d)


# N = C(d + k - 1, k - 1) lattice points is 325 for k = 3 at degree 24 and 301
# for k = 2 at degree 300: both past N^2 = 2^16, where the kernel once refused
# its inverse matrix; F_2 has no 301 distinct nodes and is lifted to F_512
PAST_THE_OLD_BOUND = [
    pytest.param((13, 1), 2, 3, 24, 4, id="F169-k3-d24"),
    pytest.param((13, 1), 2, 2, 300, 3, id="F169-k2-d300"),
    pytest.param((2, 1), 1, 2, 300, 3, id="F2-k2-d300"),
]


@pytest.mark.parametrize("field, ext, k, d, nvars", PAST_THE_OLD_BOUND)
def test_restriction_kernel_needs_no_bound_on_the_lattice(field, ext, k, d, nvars, monkeypatch):
    F = gf.field_create(*field)
    E = gf.extension_field(F, ext)
    rng = random.Random(f"restrict/past/{F.order}/{k}/{d}")
    no_dict_product(monkeypatch)
    # sparse forms, so the dict-product reference stays fast
    fermat = {tuple(d * (i == j) for i in range(nvars)): 1 for j in range(nvars)}
    forms = [
        random_form(F, nvars, d, rng, density=40 / math.comb(d + nvars - 1, nvars - 1)),
        poly.Form(F, nvars, d, fermat),
    ]
    bases = [random_rows(E, k, nvars, rng) for _ in range(2)]
    got = kernel_forms(poly.restrict_many(forms, bases, E), forms, k, E)
    assert got == [[substitute_rows(G, B, E) for B in bases] for G in forms]


FIXTURE = pathlib.Path(__file__).resolve().parents[1] / "bench/fixtures/fermat_cubic_f13.txt"


def test_no_restriction_path_multiplies_term_maps(monkeypatch):
    # every restriction goes through the kernel: single spans, Las-Vegas
    # slices, the exact scan, the census with its tangent witnesses and the
    # flag search all run with the term-map product refused
    F = gf.field_create(13)
    X = locus.Hypersurface(poly.parse_form(F, "x0^3 + x1^3 + x2^3 + x3^3"))
    witnesses = []
    tangency_witnesses = audit._tangency_witnesses

    def recorded(*args):
        out = tangency_witnesses(*args)
        witnesses.extend(out)
        return out

    monkeypatch.setattr(audit, "_tangency_witnesses", recorded)
    no_dict_product(monkeypatch)
    secant = projgeom.subspace_from_rows(F, [(1, 0, 0, 0), (0, 1, 0, 0)])
    # X restricts to t^3 on a line through (1, -1, 0, 0) in its tangent plane
    tangent = projgeom.subspace_from_rows(F, [(1, 12, 0, 0), (0, 0, 1, 0)])
    plane = projgeom.subspace_from_rows(F, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
    assert certify.is_transverse(X, secant)
    assert not certify.is_transverse(X, tangent)
    assert certify.is_transverse(X, plane)
    curve = locus.SchemeSpec(F, 3, [poly.parse_form(F, "x0^2 + x1*x2")])
    points = locus.SchemeSpec(F, 3, [*curve.gens, poly.parse_form(F, "x0 + 2*x1 + 3*x2")])
    rng = random.Random(0)
    assert certify.dim_upper_bound(curve, 1, rng).holds()
    assert certify.dim_upper_bound(points, 0, rng).holds()
    assert not certify.dim_at_most_exact(curve, 0)
    assert certify.dim_at_most_exact(points, 0)
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["count", "superspaces", "--r", "1", "--input", str(FIXTURE)]
        assert cli.main(argv) == 0
    assert any(witnesses)
    assert search.find_very_transverse_flag(X, 1, seed=0).succeeded()

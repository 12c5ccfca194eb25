"""Exact and Las-Vegas certification: emptiness, dimension, smoothness,
reducedness, transversality.

Emptiness over the algebraic closure is decided by a Macaulay rank test:
the degree-N piece of the ideal spans every degree-N form for some N up to
the classical effective bound N* = (sum of the r+1 largest generator
degrees) - r exactly when the scheme is empty.  Spanning at N implies
spanning at N+1, so every yes/no question (smoothness, the Las-Vegas
slices, the exact scan) takes one build, at N*; only is_empty_projective,
which reports its N, climbs from the top generator degree to the smallest
N that spans.  At N >= N*, Macaulay's square submatrix is eliminated
first (Macaulay 1902; Cox, Little and O'Shea, Using Algebraic Geometry,
ch. 3): each degree-N monomial gets one row, a multiple of one of the
nvars generators of largest degree.  Its rows are a subset of the full
matrix's, so full rank proves spanning; a singular square matrix (a
nonempty scheme, or a vanishing extraneous factor) falls through: only the
other rows are scattered, they continue its echelon form, and the full
matrix's rank alone decides a negative answer.  One cached plan per
shape places the rows, square block first, for one scheme and for a
census stack of squares alike (_macaulay_plan).

Dimension upper bounds come in two strengths.  dim_upper_bound slices by
random hyperplanes over an extension with at least 64 elements: if t+1
slices kill the scheme, its dimension is at most t (sound
unconditionally); after R failures it reports undetermined.
dim_at_most_exact replaces randomness by a scan over the one-parameter
family sum_j c^j x_j of hyperplanes: a point kills at most n parameter
values (Vandermonde), and a positive-dimensional component is contained in
at most n family members, so over a field with more than n * B elements
(B a Bezout bound on the total component count) the scan is complete in
both directions.  A Las-Vegas attempt restricts its generators once, over
the extension, to the intersection of its t+1 hyperplanes, read off the
rows by back substitution (_section_basis): no lifted scheme is built.

Every restriction goes through poly.restrict_many, the one restriction
kernel, and one call takes all the forms a caller restricts to one basis
or stack: a Las-Vegas attempt, a step of the exact scan, a census chunk,
a pass of the line certificates.

Smoothness of a section is emptiness of its Jacobian scheme; reducedness
is the Jacobian dimension dropping below divisor dimension.  Both reuse
the machinery above and keep an exact binary-form fast path for lines.
Reducedness is first tried by a one-sided line certificate: if G on a
random line is nonzero of degree d and squarefree, G is squarefree (a
factor h^2 would survive on the line unless the line lies in V(h), where G
vanishes); G on the line is interpolated, so no section form is built.
One kernel evaluates the lines of many spans at once in numpy (the
field's array view in gf) and tests all their restrictions for
squarefreeness in one batched Euclid (linalg.u_squarefree_many), and every
first-hit scan over sections certifies them through it in growing chunks
(reduced_sections).  A hyperplane census needs no random line: a line ell
of the plane Pi = span(e0, e1, e2) on which G is nonzero and squarefree
proves every hyperplane section through ell proper and reduced, since an
improper or non-reduced section would leave G on ell zero or with a
repeated root.  hyperplane_section_counts tests every line of Pi exactly,
and only the hyperplanes through the other lines, and those containing
Pi, go through reduced_sections; in P^2 the lines are the hyperplanes, so
the test is the census.
When p does not divide d = deg G, the Euler relation d*G = sum x_i d_iG
puts G in the ideal of its partials, so the Jacobian scheme is generated
by the nonzero partials alone (G is kept when p | d), and N* =
nvars*(d-2)+1 for the partials.  A Macaulay matrix of more than
_MAX_MACAULAY_ENTRIES entries raises CapExceededError before any row is
built; the size checked is the full matrix's, even when the square
submatrix alone would fit.

Very-transversality is decided by one attempt loop (_las_vegas): a chunk
of subspaces is tested for transversality once, then each attempt draws
the pending subspaces' Las-Vegas slices of their tangency loci, as
dim_upper_bound draws them, restricts X and its contractions to them,
and decides the sliced loci's emptiness exactly: one locus by
macaulay_is_empty, more by their square and then full Macaulay matrices
eliminated as stacks (linalg.full_rank_many).  A nonempty slice stays
pending for the next attempt.  A subspace the loop leaves open is settled
by one more run of it, then by the exact scan of its tangency locus.  A
superspace census sends the loop only what no smooth rational hyperplane
section certifies (pencil_certificates): the sections through a pencil's
axis are decided as one stack, and each covers every candidate inside it.

Points over an extension E are swept along normalized prefixes of
P^(n-1)(E), with a gcd chain of the specialized generators in the last
variable.  In P^2 the prefixes come from elimination (Cox, Little and
O'Shea, Ideals, Varieties, and Algorithms, ch. 3): every point (1, a, z)
of V(g1, g2) is a root a of the resultant R(a) = Res_z(g1, g2)(1, a),
taken with formal degrees, so only the roots of R and the prefix (0, 1)
need a gcd chain.  R has degree at most D = d1*d2 and is interpolated
from D + 1 Sylvester determinants.  Pairs are tried lowest degrees first,
past those with R = 0 (a common factor).  The full sweep runs instead
when E has at most D elements, when every pair has R = 0, or when the
elimination would cost at least as many field operations as the sweep.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import config, gf, linalg, locus, poly, projgeom

_LV_MIN_FIELD = 64
_LV_RETRIES = 8
_EXACT_BRANCH_BUDGET = 250_000
_WITNESS_KMAX = 6
# largest chunk of sections per line certificate kernel call in
# reduced_sections: the kernel's arrays grow with it, its fixed cost is paid
# once per chunk
_SECTION_CHUNK = 256
# subspaces very_transverse_verdicts holds at once, with their sliced
# tangency loci; a full chunk's square Macaulay matrices of the census fit
# one full_rank_many call, and so do its misses' full matrices.  On the
# benchmark fixture's 183 lines a chunk of 32 peaks at about 0.8 MiB of
# working set against 0.4 MiB at 16, and takes about 29 ms against 35 ms
_VERDICT_CHUNK = 32
# candidates pencil_certificates holds at once, with their transversality
# and coordinates; the pencils and their members' verdicts carry over
_PENCIL_CHUNK = 4096
# Largest rows x columns of a Macaulay matrix, refused before any row is
# built.  Its square root bounds the pivots of the elimination, which the
# numpy path of linalg must accept.
_MAX_MACAULAY_ENTRIES = 10_000_000
assert math.isqrt(_MAX_MACAULAY_ENTRIES) <= linalg.NP_MAX_PIVOTS


# ---------------------------------------------------------------------------
# point enumeration


def _points_over(S: locus.SchemeSpec, E: gf.Field):
    """Normalized coordinate tuples of S(E), by root-finding in the last
    coordinate along normalized prefixes of P^(n-1)(E).

    Every prefix is swept, except in P^2 with at least two nonzero
    generators, where _resultant_prefixes picks the few worth a gcd chain.
    The enum cap is charged for the whole prefix pool either way, so a
    refusal does not depend on which prefixes are visited.
    """
    n = S.ambient
    gens = S.nonzero_gens()
    if not gens:
        raise ValueError("scheme with no nonzero generators is the whole space")
    out = []
    if n == 0:
        pt = (1,)
        if S.vanishes_at_codes(pt, E):
            out.append(pt)
        return out
    config.current_caps().check_enum(
        projgeom.count_points(n - 1, E) + 1, "scheme point sweep"
    )
    # the point with all coordinates but the last equal to zero
    last = (0,) * n + (1,)
    if S.vanishes_at_codes(last, E):
        out.append(last)
    prefixes = _resultant_prefixes(gens, E) if n == 2 else None
    if prefixes is None:
        prefixes = projgeom.enumerate_point_codes(n - 1, E)
    for prefix in prefixes:
        g = None
        dead = False
        for gen in gens:
            spec = poly.form_specialize_last(gen, prefix, E)
            if not spec:
                continue
            g = spec if g is None else linalg.u_gcd(E, g, spec)
            if len(g) == 1:
                dead = True
                break
        if dead:
            continue
        if g is None:
            # every generator vanishes along this affine line
            for z in range(E.order):
                out.append(prefix + (z,))
            continue
        for z in linalg.u_distinct_roots(E, g):
            out.append(prefix + (z,))
    return out


def _resultant_prefixes(gens, E: gf.Field):
    """The prefixes of P^1(E) that a P^2 sweep must visit, by elimination;
    None when the full sweep is to be run instead.

    Generators are paired in order of degree (ties by position), lowest
    first.  For a pair g1, g2 of degrees d1, d2, R(a) = Res_z(g1(1, a, z),
    g2(1, a, z)) is taken with formal z-degrees d1 and d2, so it vanishes
    at every a with a point (1, a, z) on the scheme, and has degree at most
    D = d1*d2.  It is interpolated from Sylvester determinants at the D + 1
    nodes with codes 0..D.  The first pair with R != 0 gives the
    candidates: (1, a) for the roots a of R in E, and (0, 1).  A pair with
    R = 0 shares a factor, and the next pair is tried.  The full sweep runs
    instead when E has at most D elements, or when the elimination's count
    of field operations, (D + 1)(d1 + d2)^3 summed over the pairs tried,
    is not below the sweep's, |P^1(E)| times the sum of the generator
    degrees.
    """
    gens = sorted(gens, key=lambda g: g.degree)
    sweep = (E.order + 1) * sum(g.degree for g in gens)
    spent = 0
    for g1, g2 in itertools.combinations(gens, 2):
        d1, d2 = g1.degree, g2.degree
        D = d1 * d2
        spent += (D + 1) * (d1 + d2) ** 3
        if E.order <= D or spent >= sweep:
            return None
        values = []
        for a in range(D + 1):
            f1 = poly.form_specialize_last(g1, (1, a), E)
            f2 = poly.form_specialize_last(g2, (1, a), E)
            f1 += [0] * (d1 + 1 - len(f1))
            f2 += [0] * (d2 + 1 - len(f2))
            sylvester = [[0] * i + f1 + [0] * (d2 - 1 - i) for i in range(d2)]
            sylvester += [[0] * i + f2 + [0] * (d1 - 1 - i) for i in range(d1)]
            values.append(linalg.det(E, sylvester))
        if any(values):
            R = linalg.u_interpolate(E, values)
            return [(1, a) for a in linalg.u_distinct_roots(E, R)] + [(0, 1)]
    return None


def _residue_degree(coords, E: gf.Field, base_m: int, k: int) -> int:
    """Smallest j dividing k with all coordinates in F_{q^j}, q = p^base_m."""
    for j in range(1, k):
        if k % j:
            continue
        s = base_m * j
        if all(E.frob_power(c, s) == c for c in coords):
            return j
    return k


def _points_by_residue_degree(S: locus.SchemeSpec, kmax: int):
    """(E, sorted coordinate tuples of residue degree k) for E = F_{q^k},
    k = 1..kmax, lazily.  A point rational over F_{q^j} also lives in every
    F_{q^(j*i)}; the filter keeps it only at its exact degree, and starts
    after the first nonempty block, as no point has a smaller degree."""
    base = S.field
    seen = False
    for k in range(1, kmax + 1):
        E = gf.extension_field(base, k)
        pts = _points_over(S, E)
        if seen:
            pts = [c for c in pts if _residue_degree(c, E, base.m, k) == k]
        seen = seen or bool(pts)
        yield E, sorted(pts)


def scheme_points_upto(S: locus.SchemeSpec, kmax: int):
    """Every geometric point of residue degree <= kmax, each exactly once:
    never again in an extension.  Conjugate points of the same closed
    point are distinct entries."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    sweep = _points_by_residue_degree(S, kmax)
    return [projgeom.ProjectivePoint(E, c) for E, pts in sweep for c in pts]


# ---------------------------------------------------------------------------
# emptiness


@dataclass(frozen=True)
class EmptinessCertificate:
    scheme: locus.SchemeSpec
    degree_N: int
    verdict: str  # "empty" | "nonempty" | "inconclusive"
    witness: projgeom.ProjectivePoint | None = None

    def to_dict(self):
        d = {"verdict": self.verdict, "macaulay_degree": self.degree_N}
        if self.witness is not None:
            d["witness"] = projgeom.format_point(self.witness)
            d["witness_field_degree"] = self.witness.field.m // self.scheme.field.m
        return d


def _macaulay_spans(gens, fld: gf.Field, nvars: int, N: int) -> bool:
    """Whether degree-N multiples of the generators span all degree-N forms.

    The rows are scattered from the generators' coefficient rows by the
    plan's blocks, each built in the echelon form's element type so that
    it is eliminated in place: at N >= N*, a singular square block is
    continued by the other rows alone.
    """
    degs = tuple(g.degree for g in gens)
    nrows, ncols = _macaulay_size(degs, nvars, N)
    if nrows < ncols:
        return False
    if nrows * ncols > _MAX_MACAULAY_ENTRIES:
        raise config.CapExceededError(
            f"Macaulay matrix {nrows} x {ncols} exceeds cap "
            f"{_MAX_MACAULAY_ENTRIES} entries"
        )
    square = len(gens) >= nvars and N >= _macaulay_bound(degs, nvars - 1)
    V = fld.arrays()
    coefs = [poly.coefficients(g, V) for g in gens]
    form = linalg.echelon(fld, ncols)
    dtype = V.dtype if form.dtype is None else form.dtype
    for height, parts in _macaulay_plan(nvars, N, degs, square):
        block = np.zeros((height, ncols), dtype=dtype)
        for j, rows, cols in parts:
            block[rows[:, None], cols] = coefs[j]
        if linalg.rank(fld, block, stop_at=ncols, form=form) == ncols:
            return True
    return False


def _macaulay_size(degs, nvars: int, N: int):
    """Rows and columns of the degree-N Macaulay matrix of generators of the
    degrees degs."""
    ncols = math.comb(N + nvars - 1, nvars - 1)
    nrows = sum(math.comb(N - d + nvars - 1, nvars - 1) for d in degs if d <= N)
    return nrows, ncols


@functools.lru_cache(maxsize=32)
def _macaulay_plan(nvars: int, N: int, degs: tuple, square: bool) -> tuple:
    """Where the coefficient rows of generators of the degrees degs go in
    the degree-N Macaulay matrix: blocks (height, parts), a part (j, rows,
    cols) putting the multiples of generator j, by each multiplier in
    monomials_of_degree order, at the block's rows ``rows``, with each
    product's columns ``cols``.

    With ``square`` (N >= N*, at least nvars generators) the first block is
    Macaulay's square submatrix: with top the nvars generators of largest
    degree d_0, ..., d_(nvars-1), ties by position, the degree-N monomial
    x^a gets the one row (x^a / x_i^(d_i)) * top[i], for the first i with
    a_i >= d_i, which exists because sum(d_i - 1) < N* <= N.  The other
    rows form the last block, the only one without ``square``.
    """
    top = sorted(range(len(degs)), key=lambda j: degs[j], reverse=True)[:nvars]
    tops = np.array([degs[j] for j in top])
    place = {j: i for i, j in enumerate(top)} if square else {}
    first = {}  # per multiplier degree, for the square: see _first_full
    parts, heights = ([], []), [0, 0]
    for j, d in enumerate(degs):
        if d > N:
            continue
        cols = poly.product_index(nvars, N - d, d)
        inside = np.zeros(len(cols), dtype=bool)
        if j in place:
            if d not in first:
                first[d] = _first_full(poly.monomial_factors(nvars, N - d), tops)
            inside[:] = first[d] >= place[j]
        for b, sel in enumerate((inside, ~inside)):
            rows = np.arange(heights[b], heights[b] + int(sel.sum()))
            if len(rows):
                parts[b].append((j, rows, cols if sel.all() else cols[sel]))
                heights[b] += len(rows)
    plan = tuple(zip(heights, map(tuple, parts)))
    return plan if square else plan[1:]


def _first_full(factors: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """The first variable k in which each multiplier, a row of
    poly.monomial_factors, has exponent at least tops[k] (all >= 1), or
    len(tops) if none: the multiplier times top[i] is a square row when this
    is at least i.  The factors are ascending, so the exponent of k reaches
    tops[k] where a factor k is followed by tops[k] - 1 more of them."""
    deg = factors.shape[1]
    end = np.arange(deg) + tops[factors] - 1
    full = (end < deg) & (np.take_along_axis(factors, np.minimum(end, deg - 1), axis=1) == factors)
    return np.where(full, factors, len(tops)).min(axis=1, initial=len(tops))


def _macaulay_bound(degs, ambient: int) -> int:
    """The effective bound N*: the sum of the ambient + 1 largest of the
    generator degrees degs, minus the ambient dimension."""
    return sum(sorted(degs, reverse=True)[: ambient + 1]) - ambient


def macaulay_is_empty(S: locus.SchemeSpec) -> bool:
    """Exact emptiness over the algebraic closure, from one Macaulay build
    at the effective bound N* (spanning at N implies spanning at N + 1).

    A unit generator makes the scheme empty; at most as many generators
    as the ambient dimension leave it nonempty.
    """
    gens = S.nonzero_gens()
    if any(g.degree == 0 for g in gens):
        return True
    if len(gens) <= S.ambient:
        return False
    N = _macaulay_bound([g.degree for g in gens], S.ambient)
    return _macaulay_spans(gens, S.field, S.nvars, N)


def is_empty_projective(S: locus.SchemeSpec) -> EmptinessCertificate:
    """Certified emptiness of S over the algebraic closure.

    Fewer generators than ambient-dimension-plus-one forces a nonempty
    scheme; otherwise the Macaulay test decides, trying N from the top
    generator degree up so the N reported is the smallest that spans.
    Nonempty verdicts carry an enumerated witness when one exists at low
    residue degree.
    """
    gens = S.nonzero_gens()
    r = S.ambient
    if any(g.degree == 0 for g in gens):
        return EmptinessCertificate(S, 0, "empty")
    if not gens:
        # the zero ideal cuts out the whole space
        origin = projgeom.ProjectivePoint(S.field, (1,) + (0,) * r)
        return EmptinessCertificate(S, 0, "nonempty", witness=origin)
    few_gens = len(gens) <= r
    N = 0
    if not few_gens:
        N = _macaulay_bound([g.degree for g in gens], r)
        for M in range(max(g.degree for g in gens), N + 1):
            if _macaulay_spans(gens, S.field, S.nvars, M):
                return EmptinessCertificate(S, M, "empty")
    witness = _hunt_witness(S)
    if witness is not None:
        return EmptinessCertificate(S, N, "nonempty", witness=witness)
    if not few_gens:
        # nonemptiness is certain, but no point was exhibited in budget
        return EmptinessCertificate(S, N, "inconclusive")
    return EmptinessCertificate(S, N, "nonempty")


def _hunt_witness(S: locus.SchemeSpec):
    """First point of minimal residue degree within field and enum caps."""
    try:
        for E, pts in _points_by_residue_degree(S, _WITNESS_KMAX):
            if pts:
                return projgeom.ProjectivePoint(E, pts[0])
    except config.CapExceededError:
        pass
    return None


# ---------------------------------------------------------------------------
# dimension


@dataclass(frozen=True)
class DimensionCertificate:
    scheme: locus.SchemeSpec
    bound: int
    verdict: str  # "at-most" | "undetermined"
    slices: tuple = ()
    retries_used: int = 0

    def holds(self) -> bool:
        return self.verdict == "at-most"

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "bound": self.bound,
            "retries_used": self.retries_used,
            "slices": [list(s) for s in self.slices],
        }


def _slice_by(S: locus.SchemeSpec, row, E: gf.Field) -> locus.SchemeSpec:
    """Intersect with the hyperplane row . x = 0 (row over E, an extension
    of S's field), rewritten over E at the row's _section_basis (one
    variable fewer), so downstream rank tests shrink.  Any basis works;
    emptiness and dimension do not see the change of coordinates."""
    basis = _section_basis(E, S.nvars, [row])
    return locus.SchemeSpec(E, S.nvars - 1, poly.restrict(S.gens, [basis], E)[0])


def dim_upper_bound(
    S: locus.SchemeSpec, t: int, rng: random.Random
) -> DimensionCertificate:
    """Las-Vegas certificate that dim S <= t; never certifies falsely.

    Slices by t+1 random hyperplanes over an extension with >= 64
    elements, restricting each generator once to their intersection, so
    the emptiness test runs in t+1 fewer variables; emptiness of the sliced
    scheme is exact, so "at-most" is sound.  "undetermined" carries no
    information.  Each recorded slice is a coefficient row in the coordinates of its own
    level, not of the original ambient space.
    """
    if t < -1:
        raise ValueError("dimension bound below -1 is meaningless")
    if t == -1:
        verdict = "at-most" if macaulay_is_empty(S) else "undetermined"
        return DimensionCertificate(S, -1, verdict)
    if t >= S.ambient:
        return DimensionCertificate(S, t, "at-most")
    for attempt in range(1, _LV_RETRIES + 1):
        slices, cur = _random_slices(S, t, rng)
        if macaulay_is_empty(cur):
            return DimensionCertificate(S, t, "at-most", slices, attempt)
    return DimensionCertificate(S, t, "undetermined", (), _LV_RETRIES)


def _random_slices(S: locus.SchemeSpec, t: int, rng: random.Random):
    """One Las-Vegas attempt's t + 1 random hyperplanes over the extension
    E of S's field with at least _LV_MIN_FIELD elements: the rows drawn, and
    the sliced scheme over E, every generator restricted by one kernel call
    at the composed basis (_slice_basis)."""
    E = gf.extension_with(S.field, _LV_MIN_FIELD)
    slices, basis = _slice_basis(E, S.nvars, t + 1, rng)
    return slices, locus.SchemeSpec(E, len(basis), poly.restrict(S.gens, [basis], E)[0])


def _slice_basis(E: gf.Field, nvars: int, levels: int, rng: random.Random):
    """The rows of ``levels`` random hyperplanes over E, and the basis of
    their intersection in nvars coordinates.  Level l's row has nvars - l
    codes, in the coordinates of the level before, redrawn while zero.  The
    basis is _section_basis of the rows, so a form restricted to it is,
    coefficient for coefficient, what _slice_by gives level by level."""
    slices = []
    for level in range(levels):
        while True:
            row = tuple(rng.randrange(E.order) for _ in range(nvars - level))
            if any(row):
                break
        slices.append(row)
    return tuple(slices), _section_basis(E, nvars, slices)


def _section_basis(E: gf.Field, nvars: int, rows) -> list:
    """The basis in nvars coordinates of the intersection of hyperplanes
    over E given level by level, each row nonzero and in the coordinates
    the rows before it leave.  A row eliminates the coordinate of its first
    nonzero entry, linalg.kernel's pivot; each coordinate left gives one
    basis row, in order: the unit vector there, completed on the eliminated
    coordinates by back substitution from the last row.  This is the
    product of the levels' kernel bases, in at most levels x nvars x basis
    rows multiplications, without an elimination."""
    alive, pivots = list(range(nvars)), []
    for row in rows:
        p = next(i for i, c in enumerate(row) if c)
        pivots.append((p, alive.pop(p)))
    basis = [[int(y == x) for y in range(nvars)] for x in alive]
    for row, (p, x) in zip(reversed(rows), reversed(pivots)):
        alive.insert(p, x)  # the coordinates of row; vec[x] is still 0
        scale = E.neg(E.inv(row[p]))
        for vec in basis:
            acc = 0
            for c, y in zip(row, alive):
                if c and vec[y]:
                    acc = E.add(acc, E.mul(c, vec[y]))
            vec[x] = E.mul(scale, acc)
    return basis


def _bezout_component_bound(S: locus.SchemeSpec) -> int:
    degs = sorted((g.degree for g in S.nonzero_gens()), reverse=True)
    return math.prod(degs[: S.ambient])


def _moment_row(E: gf.Field, nvars: int, c: int):
    return [E.pow(c, j) for j in range(nvars)]


def dim_at_most_exact(S: locus.SchemeSpec, t: int) -> bool:
    """Deterministic, exact decision of dim S <= t.

    Scans the hyperplane family sum_j c^j x_j over a field chosen large
    enough that, whenever dim S <= t, some member meets every
    top-dimensional component properly; a chain of t+1 such slices ending
    empty certifies the bound, and exhausting the family refutes it.
    Raises SearchInfeasibleError when the scan tree exceeds the budget.
    """
    if t < -1:
        raise ValueError("dimension bound below -1 is meaningless")
    if t == -1:
        return macaulay_is_empty(S)
    if t >= S.ambient:
        return True
    n = S.ambient
    E = gf.extension_with(S.field, n * _bezout_component_bound(S) + 1)
    branch = E.order
    if branch ** (t + 1) > _EXACT_BRANCH_BUDGET:
        raise config.SearchInfeasibleError(
            f"exact dimension scan needs about {branch}^{t + 1} emptiness "
            f"tests, over the {_EXACT_BRANCH_BUDGET} budget"
        )
    return _exact_scan(S, t, E)


def _exact_scan(S: locus.SchemeSpec, t: int, E: gf.Field) -> bool:
    # emptiness over the closure does not depend on the field, so S is
    # asked over its own field; every slice is taken over E
    if macaulay_is_empty(S):
        return True
    if t == -1:
        return False
    # slicing by substitution keeps every deeper emptiness test in a
    # smaller ring; family completeness is unaffected because the member
    # count n*B+1 only shrinks with the ambient dimension
    for c in range(E.order):
        if _exact_scan(_slice_by(S, _moment_row(E, S.nvars, c), E), t - 1, E):
            return True
    return False


# ---------------------------------------------------------------------------
# smoothness and reducedness of sections


def jacobian_scheme(G: poly.Form) -> locus.SchemeSpec:
    """The scheme of G and its partials, generated by the nonzero partials
    alone when p does not divide deg G (Euler: deg(G) * G = sum x_i d_iG),
    and by G alone exactly when every partial vanishes."""
    gens = [g for g in poly.form_partials(G) if not g.is_zero()]
    if not gens or G.degree % G.field.p == 0:
        gens.insert(0, G)
    return locus.SchemeSpec(G.field, G.nvars, gens)


def is_smooth_form(G: poly.Form) -> bool:
    """Whether V(G) is smooth over the closure (empty V allowed, P^0 too)."""
    if G.is_zero():
        raise config.NotProperError("zero form does not cut a hypersurface")
    if G.degree <= 1:
        return True  # a unit cuts out the empty scheme, a linear form a hyperplane
    if G.nvars == 1:
        return True  # nonzero form in one variable never vanishes on P^0
    if G.nvars == 2:
        return poly.binary_squarefree(G)
    return macaulay_is_empty(jacobian_scheme(G))


def _line_certificates(G: poly.Form, spans, rng: random.Random) -> list:
    """One-sided certificates that G (of degree d >= 1) on the span of each
    list of rows is nonzero and squarefree; a False carries no information.

    For each span in turn, and each of its rows, a coefficient of a and
    then one of b are drawn, uniform over the smallest extension E of G's
    field with at least max(64, d+1) elements; a + t*b is then a random
    line of the span.  The spans' rows are padded with zero rows to one
    length, and their codes embedded in E once per distinct code.  The
    spans go in passes of the restriction kernel's width: each pass builds
    its (a, b) stack and reads f(t) = G(a + t*b) straight from
    poly.restrict_many, whose coefficient order puts t^0 first.  A span is
    certified when deg f = d and gcd(f, f') = 1, the latter for every span
    of the pass at once by linalg.u_squarefree_many, or by the scalar
    linalg.u_squarefree when the call holds one span: is_reduced_form's
    call, and the first chunk of every scan through reduced_sections.  A
    cubic over F_169 takes about 13 us in u_squarefree against 115-136 us
    in u_squarefree_many.
    """
    d, F, nvars = G.degree, G.field, G.nvars
    E = gf.extension_with(F, max(_LV_MIN_FIELD, d + 1))
    V, q = E.arrays(), E.order
    k = max(len(rows) for rows in spans)
    draws, bases = [], []
    for rows in spans:
        pad = k - len(rows)
        draw = [[rng.randrange(q), rng.randrange(q)] for _ in rows]
        draws.append(draw + [[0, 0]] * pad)
        bases.append(list(rows) + [[0] * nvars] * pad)
    codes = np.array(bases, dtype=np.int64)
    distinct, at = np.unique(codes, return_inverse=True)
    images = V.array([gf.embed_code(F, E, c) for c in distinct.tolist()])
    bases = images[at.reshape(codes.shape)]  # (S, k, nvars)
    width = poly.kernel_width(d + 1, nvars, poly.exponents_needed([G]), 1)
    out = []
    for s in range(0, len(spans), width):
        # (2, S, k, nvars): row i of each span scaled by its a and b coefficients
        scaled = V.mul(
            V.array(draws[s : s + width]).transpose(2, 0, 1)[..., None],
            bases[s : s + width],
        )
        ab = scaled[:, :, 0]
        for i in range(1, k):
            ab = V.add(ab, scaled[:, :, i])
        del scaled
        (f,) = poly.restrict_many([G], ab.transpose(1, 0, 2), E)  # (S, d + 1)
        if len(spans) == 1:
            coeffs = f[0].tolist()
            return [coeffs[-1] != 0 and linalg.u_squarefree(E, coeffs)]
        out += ((f[:, -1] != 0) & linalg.u_squarefree_many(E, f)).tolist()
    return out


def is_reduced_form(G: poly.Form, rng: random.Random | None = None) -> bool:
    """Whether the form G is squarefree, i.e. cuts a reduced hypersurface.

    From three variables on, the line certificate is tried first on the
    whole space.  When it misses: vanishing of every partial derivative
    makes G a p-th power (perfect coefficient field), hence non-reduced;
    otherwise G is squarefree exactly when its Jacobian scheme has
    dimension at most nvars - 3 (singular locus smaller than a divisor),
    tried Las-Vegas first, then decided by the exact scan.
    """
    if G.is_zero():
        raise config.NotProperError("zero form does not cut a hypersurface")
    if G.degree == 0:
        return True
    if G.nvars == 1:
        # u0^d: reduced only for d = 1
        return G.degree == 1
    if G.nvars == 2:
        return poly.binary_squarefree(G)
    rng = rng or random.Random(0)
    identity = [[int(i == j) for j in range(G.nvars)] for i in range(G.nvars)]
    if _line_certificates(G, [identity], rng)[0]:
        return True
    J = jacobian_scheme(G)
    if J.gens == (G,):
        return False  # every partial vanishes
    t = G.nvars - 3  # divisor dimension minus one, in P^(nvars-1)
    if dim_upper_bound(J, t, rng=rng).holds():
        return True
    return dim_at_most_exact(J, t)


def is_reduced_section(
    X: locus.Hypersurface,
    H: projgeom.LinearSubspace,
    rng: random.Random | None = None,
) -> bool:
    """Whether X cap H is proper and cut by a squarefree restriction; raises
    NotProperError when H lies in X.  One span through reduced_sections, so
    it draws exactly what a lone line certificate and its fallback draw.
    """
    ((_, verdict),) = reduced_sections(X, [H], rng)
    if verdict is None:
        raise config.NotProperError("the subspace lies inside the hypersurface")
    return verdict


def reduced_sections(
    X: locus.Hypersurface, subspaces, rng: random.Random | None = None
):
    """For each subspace H of X's ambient space, in order, the pair (H,
    verdict): whether X cap H is cut by a squarefree restriction, True,
    False, or None when H lies in X.  On a line this is transversality.

    The subspaces are taken in chunks of 1, 2, 4, ... up to _SECTION_CHUNK,
    one line certificate kernel call each, so the draws of a whole chunk
    come first: a first-hit scan certifies one span before its first
    answer, and a census reaches full chunks after eight calls.  The
    misses' section forms are built by one restriction kernel call
    (poly.restrict): a zero form is improper, and any other is decided by
    is_reduced_form on the same rng, in chunk order.  A
    CapExceededError from the subspaces is raised after the verdicts of
    those taken before it, so a first-hit scan answers within the cap.
    """
    rng = rng or random.Random(0)
    subspaces, size, capped = iter(subspaces), 1, None
    while capped is None:
        chunk = []
        try:
            for H in itertools.islice(subspaces, size):
                if H.ambient != X.ambient or H.field != X.field:
                    raise ValueError("subspace and hypersurface do not match")
                chunk.append(H)
        except config.CapExceededError as exc:
            capped = exc
        if not chunk:
            break
        size = min(2 * size, _SECTION_CHUNK)
        hits = _line_certificates(X.form, [H.basis for H in chunk], rng)
        missed = [H for H, hit in zip(chunk, hits) if not hit]
        sections = iter(poly.restrict([X.form], [H.basis for H in missed], X.field))
        for H, hit in zip(chunk, hits):
            if hit:
                yield H, True
                continue
            (G,) = next(sections)
            yield H, None if G.is_zero() else is_reduced_form(G, rng=rng)
    if capped is not None:
        raise capped


def hyperplane_section_counts(
    X: locus.Hypersurface, rng: random.Random | None = None
) -> tuple:
    """How many hyperplane sections of X are improper, and how many proper
    but not reduced, certified a pencil at a time.

    Fix the plane Pi = span(e0, e1, e2).  The hyperplane of the normalized
    dual point w with u = w[:3] nonzero meets Pi in the line of dual point
    u, and the pencil of hyperplanes through that line is the q^(n-2)
    points (u, c), c in F_q^(n-2).  Call the line transverse when X.form on
    it is nonzero and squarefree (poly.binary_squarefree_many).  If X cap H is
    improper, X.form on the line is zero; if X.form on H is h^2 k with h
    non-constant, it is zero or divisible by the square of h on the line.
    So a transverse line proves every section of its pencil proper and
    reduced: none is built and nothing is drawn from rng.  X.form is
    restricted to Pi, then to the lines of Pi by one restriction kernel
    call and one stacked binary test per chunk of _SECTION_CHUNK lines.

    In P^2, Pi is the whole space and each line its own pencil, so the
    binary test is the verdict.  From P^3 on, the hyperplanes through the
    other lines and the |P^(n-3)| hyperplanes containing Pi are built and
    decided by reduced_sections on rng.
    """
    n, F = X.ambient, X.field
    if n < 2:
        raise ValueError("a hyperplane census needs ambient dimension >= 2")
    plane = [[int(i == j) for j in range(n + 1)] for i in range(3)]
    ((G,),) = poly.restrict([X.form], [plane], F)
    failed, improper = [], 0  # the lines that certify nothing, and the zero ones
    lines = projgeom.enumerate_point_codes(2, F)
    while chunk := list(itertools.islice(lines, _SECTION_CHUNK)):
        bases = [projgeom.hyperplane(F, u).basis for u in chunk]
        (coefs,) = poly.restrict_many([G], bases, F)
        passed = poly.binary_squarefree_many(F, coefs).tolist()
        failed += [u for u, ok in zip(chunk, passed) if not ok]
        improper += int((coefs == 0).all(axis=1).sum())
    if n == 2:
        return improper, len(failed) - improper

    def fallbacks():
        for u in failed:
            for c in itertools.product(range(F.order), repeat=n - 2):
                yield projgeom.hyperplane(F, u + c)
        for w in projgeom.enumerate_point_codes(n - 3, F):
            yield projgeom.hyperplane(F, (0, 0, 0) + w)

    verdicts = collections.Counter(
        v for _, v in reduced_sections(X, fallbacks(), rng)
    )
    return verdicts[None], verdicts[False]


# ---------------------------------------------------------------------------
# transversality


def ensure_smooth(X: locus.Hypersurface) -> bool:
    """Certified smoothness of X itself, cached on the hypersurface."""
    got = X.cache.get("smooth")
    if got is None:
        got = X.cache["smooth"] = is_smooth_form(X.form)
    return got


def is_transverse(X: locus.Hypersurface, H: projgeom.LinearSubspace) -> bool:
    """Whether H misses Sing(X) and meets X in a smooth section.

    An improper section (H inside X) reports False rather than raising;
    for a point this reduces to not lying on X.
    """
    if H.ambient != X.ambient or H.field != X.field:
        raise ValueError("subspace and hypersurface do not match")
    # a point of H cap Sing(X) zeroes the section and all its partials, so
    # a smooth section already misses Sing(X)
    G = poly.substitute_rows(X.form, H.basis)
    return not G.is_zero() and is_smooth_form(G)


def classify_very_transverse(
    X: locus.Hypersurface, H: projgeom.LinearSubspace, rng: random.Random
) -> tuple:
    """First step of the very-transverse decision: (verdict, method) of
    the attempt loop on H alone (_classify_many); a loop that misses leaves
    "undetermined" for settle_very_transverse, never a rejection."""
    return _classify_many(X, [H], rng)[0]


def settle_very_transverse(
    X: locus.Hypersurface, H: projgeom.LinearSubspace, rng: random.Random
) -> str:
    """Second step, for a transverse H that classification left open: one
    more run of the attempt loop, then the exact dimension scan of H's
    tangency locus.  "yes" and "no" are certified, and "undetermined"
    means the scan is over its budget."""
    if _las_vegas(X, [H], rng)[0]:
        return "yes"
    T = locus.tangency_locus(X, H)
    try:
        return "yes" if dim_at_most_exact(T, X.ambient - H.dim - 2) else "no"
    except config.SearchInfeasibleError:
        return "undetermined"


def decide_very_transverse(
    X: locus.Hypersurface, H: projgeom.LinearSubspace, rng: random.Random
) -> tuple:
    """The certified very-transverse decision: (verdict, method), "yes" or
    "no" by classify_very_transverse, then by settle_very_transverse on the
    same rng when it is left open (method "exact").  Raises
    SearchInfeasibleError when the exact scan is over its budget."""
    return _decided(X, H, classify_very_transverse(X, H, rng), rng)


def very_transverse_verdicts(X: locus.Hypersurface, subspaces, rng: random.Random):
    """For each subspace E of X's ambient space, in order, (E, verdict,
    method) with decide_very_transverse's certified verdict: the subspaces
    are classified _VERDICT_CHUNK at a time (_classify_many), and each one
    left open is settled on the same rng, in chunk order.  The verdicts do
    not depend on _VERDICT_CHUNK; the rng stream does."""
    subspaces = iter(subspaces)
    while chunk := list(itertools.islice(subspaces, _VERDICT_CHUNK)):
        for E, classified in zip(chunk, _classify_many(X, chunk, rng)):
            yield (E, *_decided(X, E, classified, rng))


def pencil_certificates(X: locus.Hypersurface, H: projgeom.LinearSubspace, candidates):
    """For each r-plane E through H, r = dim H + 1, in order, (E, K): a
    rational hyperplane K through E with a smooth section of the smooth X,
    when E is transverse and a pencil finds one, else None.  K is tangent
    to X nowhere and the Gauss map of X is finite, so E is very transverse.

    A pencil is the hyperplanes through an axis of codimension 2 holding
    H.  With a, b spanning the axis's annihilator, the member through E =
    H + v is (b . v) a - (a . v) b, or every member when that is zero.  The
    members pending candidates need are decided once each, by _empty_loci
    on the section's Jacobian.  A new axis holds the first candidate in no
    tangent member, and a new pencil that certifies nothing ends the
    search; chunks of _PENCIL_CHUNK candidates try the old pencils first.  Every K is None, and nothing is built, when r = n - 1 or a
    section's Jacobian Macaulay matrix exceeds _MAX_MACAULAY_ENTRIES or
    poly.KERNEL_ELEMENTS.
    """
    if not ensure_smooth(X):
        raise ValueError("pencil certificates are defined for smooth X only")
    n, F, d = X.ambient, X.field, X.degree
    # the Jacobian of a section: its partials, and itself when p | d, or when
    # no partial is left (jacobian_scheme)
    degs = [d - 1] * n + [d] * (d % F.p == 0)
    size = math.prod(_macaulay_size(degs, n, _macaulay_bound(degs, n - 1)))
    candidates = iter(candidates)
    if H.dim + 2 >= n or size > min(_MAX_MACAULAY_ENTRIES, poly.KERNEL_ELEMENTS):
        yield from ((E, None) for E in candidates)
        return
    V, partials = F.arrays(), poly.form_partials(X.form)
    held = [next(i for i, c in enumerate(row) if c) for row in H.basis]
    members, axes = {}, []  # members: K's basis -> (w, K, or None if tangent)

    def dots(C, w):
        return functools.reduce(V.add, V.mul(C, V.array(w)).T)

    def add_axis(chunk, C):
        # the annihilator of the first candidate in no tangent member, read
        # off its reduced rows; b sums its basis, favouring no coordinate
        eligible = np.ones(len(C), dtype=bool)
        for w, K in members.values():
            if K is None:
                eligible &= dots(C, w) != 0
        if not eligible.any():
            return False
        rows = chunk[int(eligible.argmax())].basis
        lead = {next(i for i, c in enumerate(row) if c): row for row in rows}
        ker = [[F.neg(lead[i][f]) if i in lead else int(i == f) for i in range(n + 1)]
               for f in range(n + 1) if f not in lead]
        axes.append((ker[0], [functools.reduce(F.add, col) for col in zip(*ker)]))
        return True

    def pencil(a, b, C, pending, out):
        s, t = dots(C[pending], b), dots(C[pending], a)
        vals, at = np.unique(s, return_inverse=True)
        inv = V.array([F.inv(x) if x else 0 for x in vals.tolist()])[at]
        ratio = V.mul(V.mul(t, F.neg(1)), inv).astype(np.int64)
        # the member a + ratio * b, F.order for b, -1 for every member
        at = np.where(s != 0, ratio, np.where(t != 0, F.order, -1)).tolist()
        ws = {x: b if x == F.order else [F.add(ai, F.mul(x, bi)) for ai, bi in zip(a, b)]
              for x in set(at) - {-1}}
        Ks = {x: projgeom.hyperplane(F, w) for x, w in ws.items()}
        new = [x for x, K in Ks.items() if K.basis not in members]
        bases = [Ks[x].basis for x in new]
        sections = _restricted_contractions(X, partials, bases, bases, F) if new else []
        loci = [(n, gens if len(gens) == 1 or len(degs) > n else gens[1:]) for gens in sections]
        for x, smooth in zip(new, _empty_loci(F, loci)):
            members[Ks[x].basis] = (ws[x], Ks[x] if smooth else None)
        found = {x: members[K.basis][1] for x, K in Ks.items()}
        found[-1] = next((K for K in found.values() if K is not None), None)
        for i, x in zip(pending, at):
            out[i] = found[x]
        return any(out[i] is not None for i in pending)

    while chunk := list(itertools.islice(candidates, _PENCIL_CHUNK)):
        B = V.array([E.basis for E in chunk])
        C = B[(B[:, :, held] == 0).all(axis=2)]  # v: E's reduced row zero on H's pivots
        out = [None] * len(chunk)
        pending = [i for i, ok in enumerate(_transverse_many(X, chunk)) if ok]
        for k in itertools.count():
            fresh = k == len(axes)
            if not pending or fresh and not add_axis(chunk, C):
                break
            if not pencil(*axes[k], C, pending, out) and fresh:
                break
            pending = [i for i in pending if out[i] is None]
        yield from zip(chunk, out)


def _decided(X, H, classified: tuple, rng: random.Random) -> tuple:
    """The (verdict, method) classified, settled when it is left open."""
    verdict, method = classified
    if verdict == "undetermined":
        verdict, method = settle_very_transverse(X, H, rng), "exact"
    if verdict == "undetermined":
        raise config.SearchInfeasibleError(
            "very-transversality undecided: the exact scan is over its budget"
        )
    return verdict, method


def _classify_many(X: locus.Hypersurface, subspaces, rng: random.Random) -> list:
    """classify_very_transverse of each subspace: transversality once for
    all (_transverse_many), the whole answer for a hyperplane ("direct"),
    then the attempt loop on the transverse rest ("las-vegas")."""
    if not ensure_smooth(X):
        raise ValueError("very-transversality is defined for smooth X only")
    transverse = _transverse_many(X, subspaces)
    opened = [
        i for i, E in enumerate(subspaces) if transverse[i] and E.dim < X.ambient - 1
    ]
    empty = dict(zip(opened, _las_vegas(X, [subspaces[i] for i in opened], rng)))
    return [
        ("no", "not-transverse") if not transverse[i]
        else ("yes", "direct") if i not in empty
        else ("yes" if empty[i] else "undetermined", "las-vegas")
        for i in range(len(subspaces))
    ]


def _las_vegas(X: locus.Hypersurface, subspaces, rng: random.Random) -> list:
    """For each transverse subspace H below hyperplane dimension, whether
    up to _LV_RETRIES attempts certify dim tangency_locus(X, H) <= n - dim
    H - 2; a False carries no information.  Each attempt slices the
    pending subspaces' loci (_sliced_tangency_loci) and decides their
    emptiness exactly (_empty_loci); a nonempty slice stays pending.  On
    one subspace this is dim_upper_bound's loop, draw for draw."""
    empty = [False] * len(subspaces)
    pending = list(range(len(subspaces)))
    for _ in range(_LV_RETRIES):
        if not pending:
            break
        E, loci = _sliced_tangency_loci(X, [subspaces[i] for i in pending], rng)
        hits = _empty_loci(E, loci)
        for i, hit in zip(pending, hits):
            empty[i] = hit
        pending = [i for i, hit in zip(pending, hits) if not hit]
    return empty


def _transverse_many(X: locus.Hypersurface, subspaces) -> list:
    """is_transverse of each subspace.  Two lines or more have X's form
    restricted to them at once (poly.restrict_many) and tested together by
    poly.binary_squarefree_many; the rest go through is_transverse."""
    for H in subspaces:
        if H.ambient != X.ambient or H.field != X.field:
            raise ValueError("subspace and hypersurface do not match")
    known = {}
    lines = [i for i, H in enumerate(subspaces) if H.dim == 1]
    if len(lines) > 1:
        bases = [subspaces[i].basis for i in lines]
        (f,) = poly.restrict_many([X.form], bases, X.field)
        known = dict(zip(lines, poly.binary_squarefree_many(X.field, f).tolist()))
    return [
        known[i] if i in known else is_transverse(X, H) for i, H in enumerate(subspaces)
    ]


def _sliced_tangency_loci(X: locus.Hypersurface, subspaces, rng: random.Random):
    """One Las-Vegas attempt: the slice field E and, for each subspace H
    below hyperplane dimension, in order, (k, gens): the generators of
    locus.tangency_locus(X, H), in its order, restricted to the k = dim H +
    2 dimensional section of n - dim H - 1 random hyperplanes over E, as
    pairs (degree, coefficient row of E's view in monomials order).

    Each slice basis is drawn by _slice_basis, as dim_upper_bound draws an
    attempt.  A subspace alone in its dimension has X and its contractions
    (locus.contractions) restricted to its basis.  For more, X and its
    partials are restricted once for all their bases (poly.restrict_many),
    and the contraction by a basis row v is sum v_i (d_iF restricted),
    dropped where sum v_i d_iF is zero, as tangency_locus drops it.
    """
    F, nvars = X.field, X.ambient + 1
    E = gf.extension_with(F, _LV_MIN_FIELD)
    bases = [_slice_basis(E, nvars, X.ambient - H.dim - 1, rng)[1] for H in subspaces]
    groups, out = {}, [None] * len(subspaces)
    for i, H in enumerate(subspaces):
        groups.setdefault(len(H.basis), []).append(i)
    for i in (idx[0] for idx in groups.values() if len(idx) == 1):
        forms = [X.form, *locus.contractions(X, subspaces[i].basis)]
        restricted = poly.restrict_many(forms, [bases[i]], E)
        out[i] = (len(bases[i]), [(G.degree, R[0]) for G, R in zip(forms, restricted)])
    groups = [idx for idx in groups.values() if len(idx) > 1]
    partials = poly.form_partials(X.form) if groups else None
    for idx in groups:
        Hs, Bs = [subspaces[i].basis for i in idx], [bases[i] for i in idx]
        for i, gens in zip(idx, _restricted_contractions(X, partials, Hs, Bs, E)):
            out[i] = (len(bases[i]), gens)
    return E, out


def _restricted_contractions(X: locus.Hypersurface, partials, rows, bases, E: gf.Field):
    """For each s, (degree, row) pairs of X's form and its contractions by
    the rows of rows[s], restricted to bases[s] over E: sum v_i (d_iF
    restricted) from one restrict_many call of X and its ``partials``,
    dropped where sum v_i d_iF is zero, as locus.contractions drops it."""
    F, d, VF, VE = X.field, X.degree, X.field.arrays(), E.arrays()
    restricted = poly.restrict_many([X.form, *partials], bases, E)
    D = np.stack([poly.coefficients(g, VF) for g in partials])
    emb = functools.partial(gf.embed_code, F, E)
    HF = VF.array(rows)  # (S, size, nvars)
    HE = VE.array([[[emb(c) for c in v] for v in H] for H in rows])
    ambient = contracted = None
    for i, (Di, Ri) in enumerate(zip(D, restricted[1:])):
        a = VF.mul(HF[:, :, i, None], Di)  # (S, size, columns of D)
        c = VE.mul(HE[:, :, i, None], Ri[:, None, :])  # (S, size, N)
        ambient = a if ambient is None else VF.add(ambient, a)
        contracted = c if contracted is None else VE.add(contracted, c)
    keep = (ambient != 0).any(axis=2).tolist()
    return [
        [(d, restricted[0][s])]
        + [(d - 1, g) for g, kept in zip(contracted[s], keep[s]) if kept]
        for s in range(len(rows))
    ]


def _locus_scheme(E: gf.Field, k: int, gens) -> locus.SchemeSpec:
    """The scheme over E in k variables of (degree, coefficient row)
    generators, as _sliced_tangency_loci gives them."""
    return locus.SchemeSpec(E, k, [poly.array_form(E, k, d, row) for d, row in gens])


def _empty_loci(E: gf.Field, loci) -> list:
    """macaulay_is_empty of the scheme of each (k, gens) of
    _sliced_tangency_loci: a lone locus by macaulay_is_empty itself, more
    by their square Macaulay submatrices stacked (_square_spans_many) and
    the misses' full matrices stacked (_empty_many)."""
    if len(loci) == 1:
        return [macaulay_is_empty(_locus_scheme(E, *loci[0]))]
    empty = _square_spans_many(E, loci)
    missed = [s for s, hit in enumerate(empty) if not hit]
    for s, verdict in zip(missed, _empty_many(E, [loci[s] for s in missed])):
        empty[s] = verdict
    return empty


def _square_spans_many(E: gf.Field, loci) -> list:
    """For each (k, gens) of _sliced_tangency_loci, whether Macaulay's
    square submatrix at N* has full rank, which proves the scheme empty; a
    False, also where no stack holds it, carries no information."""
    return [bool(v) for v in _macaulay_many(E, loci, full=False)]


def _empty_many(E: gf.Field, loci) -> list:
    """macaulay_is_empty of the scheme of each (k, gens) of
    _sliced_tangency_loci, by the full rank of its degree-N* Macaulay
    matrix, the stacked ones decided together; one no stack holds is built
    and asked of macaulay_is_empty."""
    out = _macaulay_many(E, loci, full=True)
    return [
        macaulay_is_empty(_locus_scheme(E, *locus_)) if v is None else v
        for locus_, v in zip(loci, out)
    ]


def _macaulay_many(E: gf.Field, loci, full: bool) -> list:
    """For each (k, gens) of _sliced_tangency_loci, whether its degree-N*
    Macaulay matrix (with ``full``) or Macaulay's square submatrix (without)
    has full rank, or None where no stack holds it.

    A unit generator gives True with ``full``, fewer nonzero generators
    than variables False, and each None without.  A full matrix over
    _MAX_MACAULAY_ENTRIES, or a matrix of more than poly.KERNEL_ELEMENTS
    codes, gives None.  The rest are grouped by variables, N* and nonzero
    generator degrees, scattered from the coefficient rows by the blocks of
    _macaulay_plan, and eliminated by linalg.full_rank_many in stacks of at
    most poly.KERNEL_ELEMENTS codes.
    """
    out = [None] * len(loci)
    groups = {}
    for i, (k, gens) in enumerate(loci):
        gens = [(d, row) for d, row in gens if (row != 0).any()]
        degs = tuple(d for d, _ in gens)
        if len(gens) < k or 0 in degs:
            out[i] = 0 in degs if full else None
            continue
        N = _macaulay_bound(degs, k - 1)
        nrows, ncols = _macaulay_size(degs, k, N)
        codes = (nrows if full else ncols) * ncols
        if nrows * ncols > _MAX_MACAULAY_ENTRIES or codes > poly.KERNEL_ELEMENTS:
            continue
        groups.setdefault((k, N, degs), []).append((i, [row for _, row in gens]))
    V = E.arrays()
    for (k, N, degs), members in groups.items():
        blocks = _macaulay_plan(k, N, degs, True)[: 2 if full else 1]
        nrows, ncols = sum(h for h, _ in blocks), blocks[0][0]
        step = poly.KERNEL_ELEMENTS // (nrows * ncols)
        for s in range(0, len(members), step):
            part = members[s : s + step]
            stack = np.zeros((len(part), nrows, ncols), dtype=V.dtype)
            offset = 0
            for height, parts in blocks:
                for j, rows, cols in parts:
                    coefs = np.stack([gens[j] for _, gens in part])
                    stack[:, offset + rows[:, None], cols] = coefs[:, None, :]
                offset += height
            for (i, _), hit in zip(part, linalg.full_rank_many(E, stack).tolist()):
                out[i] = hit
    return out


def is_very_transverse(
    X: locus.Hypersurface,
    H: projgeom.LinearSubspace,
    rng: random.Random | None = None,
) -> bool:
    """Whether H extends to a transverse hyperplane inside its tangency cone.

    For hyperplanes this is plain transversality.  For smaller r it adds
    the requirement that the locus of X-points whose tangent hyperplane
    contains H has dimension at most n - r - 2.  Both answers are
    certified: a Las-Vegas miss is settled by the exact scan, and an
    exact scan over its budget raises SearchInfeasibleError.
    """
    if rng is None:
        rng = random.Random(0)
    return decide_very_transverse(X, H, rng)[0] == "yes"

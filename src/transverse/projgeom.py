"""Projective points, canonical linear subspaces, duality and pencils.

Points are normalized so the first nonzero coordinate is 1; subspaces are
stored as reduced-row-echelon bases over the base field, so equality of
either is plain tuple equality.  All enumerations run in one fixed
lexicographic order to keep audit counts reproducible.

Subspaces live over the base field only; points may live over any
extension in the same tower.  Enumeration of r-planes is always anchored:
either a pencil through a fixed (r-1)-plane, or the aggregation of those
pencils over a point orbit (used for the full line sets in low dimension).
"""

from __future__ import annotations

import itertools

from . import config, gf, linalg


class ProjectivePoint:
    """A point of P^n, coords normalized to leading coefficient one."""

    __slots__ = ("field", "coords")

    def __init__(self, field: gf.Field, coords):
        codes = list(coords)
        if not any(codes):
            raise ValueError("the zero vector is not a projective point")
        lead = next(i for i, c in enumerate(codes) if c)
        if codes[lead] != 1:
            inv = field.inv(codes[lead])
            codes = [field.mul(inv, c) for c in codes]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", tuple(codes))

    def __setattr__(self, *a):
        raise AttributeError("ProjectivePoint is immutable")

    @property
    def ambient(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field.key, self.coords))

    def __repr__(self):
        return "[" + ":".join(self.field.format(c) for c in self.coords) + "]"


class LinearSubspace:
    """An r-plane in P^n over the base field, canonical RREF basis."""

    __slots__ = ("field", "basis")

    def __init__(self, field: gf.Field, basis):
        rows = tuple(tuple(int(c) for c in row) for row in basis)
        if not rows:
            raise ValueError("a subspace needs at least one basis row")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", rows)

    @classmethod
    def _built(cls, field: gf.Field, basis: tuple):
        """A subspace from an RREF basis the library has just built: a
        nonempty tuple of tuples of int codes.  Nothing is checked, and
        the tuple is kept, not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", basis)
        return self

    def __setattr__(self, *a):
        raise AttributeError("LinearSubspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    @property
    def ambient(self) -> int:
        return len(self.basis[0]) - 1

    def __eq__(self, other):
        return (
            isinstance(other, LinearSubspace)
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field.key, self.basis))

    def __repr__(self):
        return format_subspace(self)


def subspace_from_rows(field: gf.Field, rows) -> LinearSubspace:
    """Canonical subspace spanned by the rows; idempotent on RREF input."""
    raw = [tuple(row) for row in rows]
    if not raw:
        raise ValueError("no rows given")
    if len({len(r) for r in raw}) != 1:
        raise ValueError("rows of inconsistent length")
    basis, _ = linalg.rref(field, raw)
    if not basis:
        raise ValueError("rows span only the zero vector")
    return LinearSubspace(field, basis)


def point_subspace(P: ProjectivePoint) -> LinearSubspace:
    """The 0-plane at a base-field point."""
    return LinearSubspace(P.field, [P.coords])


def enumerate_point_codes(n: int, field: gf.Field):
    """Normalized coordinate tuples of P^n(field), lexicographic by leading
    index then by suffix; the raw-code twin of enumerate_points.

    Each point yielded is charged against max_enum, so a scan that stops
    at its first hit pays only for what it visits; the point after the
    cap raises CapExceededError.  Exhaustive scans check their pool first.
    """
    Q = field.order
    cap = config.current_caps().max_enum
    visited = 0
    for lead in range(n + 1):
        prefix = (0,) * lead + (1,)
        for suffix in itertools.product(range(Q), repeat=n - lead):
            visited += 1
            if visited > cap:
                raise config.CapExceededError(
                    f"projective point enumeration passed the cap of {cap} points"
                )
            yield prefix + suffix


def enumerate_points(n: int, field: gf.Field):
    """Every point of P^n(field) exactly once, deterministic order."""
    for coords in enumerate_point_codes(n, field):
        yield ProjectivePoint(field, coords)


def count_points(n: int, field: gf.Field) -> int:
    Q = field.order
    return (Q ** (n + 1) - 1) // (Q - 1)


def enumerate_superspaces(H: LinearSubspace, r: int):
    """All r-planes containing H, for r = dim(H) + 1; each exactly once.

    Cosets of H in the ambient space have unique representatives supported
    on H's non-pivot columns, so the pencil is indexed by the points of a
    projective space of dimension n - r.  Each r-plane's RREF basis is
    written down directly (_superspace_stream): no elimination is run.
    """
    n = H.ambient
    if r != H.dim + 1:
        raise ValueError(f"can only extend dim {H.dim} by one, asked for {r}")
    if r > n:
        raise ValueError(f"no {r}-planes in P^{n}")
    pivots = [next(i for i, c in enumerate(row) if c) for row in H.basis]
    free = [j for j in range(n + 1) if j not in pivots]
    return _superspace_stream(H, pivots, free)


def _superspace_stream(H, pivots, free):
    """The RREF basis of H + vec for each normalized vec on the free columns.
    vec's leading 1 sits at a free column f and vec is zero on H's pivots,
    so clearing H's rows in column f (row - row[f] * vec) leaves every pivot
    column a unit column; the rows, ordered by pivot, are the RREF basis."""
    F, n = H.field, H.ambient
    for rep in enumerate_point_codes(len(free) - 1, F):
        vec = [0] * (n + 1)
        for j, c in zip(free, rep):
            vec[j] = c
        f = free[next(i for i, c in enumerate(rep) if c)]
        rows = [
            tuple(F.add_scaled(row, F.neg(row[f]), vec)) if row[f] else row
            for row in H.basis
        ]
        at = sum(p < f for p in pivots)
        rows.insert(at, tuple(vec))
        yield LinearSubspace._built(F, tuple(rows))


def all_lines(n: int, field: gf.Field):
    """Every line of P^n(field), by aggregating the pencils through each
    point and keeping the first appearance.  A line's first point in
    enumeration order is the first row of its RREF basis, so the pencil
    member kept at P is the one whose basis starts with P."""
    config.current_caps().check_enum(
        count_points(n, field) * count_points(n - 1, field), "line enumeration"
    )
    for P in enumerate_points(n, field):
        for L in enumerate_superspaces(point_subspace(P), 1):
            if L.basis[0] == P.coords:
                yield L


def count_lines(n: int, field: gf.Field) -> int:
    """(number of points) * (pencil size) / (points per line), exact."""
    q = field.order
    num = count_points(n, field) * count_points(n - 1, field)
    return num // (q + 1)


def hyperplane(field: gf.Field, w) -> LinearSubspace:
    """The hyperplane sum w_i x_i = 0 of the nonzero dual vector w.  With f
    the last index where w_f != 0, the rows e_k - (w_k / w_f) e_f for
    k != f are already the reduced row echelon basis."""
    f = max(i for i, c in enumerate(w) if c)
    scale = field.neg(field.inv(w[f]))
    rows = []
    for k, c in enumerate(w):
        if k != f:
            row = [0] * len(w)
            row[k] = 1
            row[f] = field.mul(c, scale)
            rows.append(tuple(row))
    return LinearSubspace._built(field, tuple(rows))


def all_hyperplanes(n: int, field: gf.Field):
    """Every hyperplane of P^n(field) exactly once, the hyperplane of each
    normalized dual point w; order follows enumerate_point_codes."""
    for w in enumerate_point_codes(n, field):
        yield hyperplane(field, w)


def dual(H: LinearSubspace) -> LinearSubspace:
    """The annihilator of H in the dual projective space."""
    n = H.ambient
    ker = linalg.kernel(H.field, H.basis, n + 1)
    if not ker:
        raise ValueError("the whole space has empty dual")
    return subspace_from_rows(H.field, ker)


def subspace_le(A: LinearSubspace, B: LinearSubspace) -> bool:
    """Whether A is contained in B."""
    if A.field != B.field or A.ambient != B.ambient:
        raise ValueError("subspaces not in one ambient space")
    rows = list(B.basis) + list(A.basis)
    return linalg.rank(A.field, rows) == len(B.basis)


def subspace_point(H: LinearSubspace, u, field: gf.Field) -> ProjectivePoint:
    """The point u . basis of H, for parameter coordinates u over ``field``
    (H's field or an extension of it)."""
    vec = [0] * (H.ambient + 1)
    for c, row in zip(u, H.basis):
        vec = field.add_scaled(vec, c, [gf.embed_code(H.field, field, x) for x in row])
    return ProjectivePoint(field, vec)


# ---------------------------------------------------------------------------
# text forms: rows separated by ';', entries by ','


def format_subspace(H: LinearSubspace) -> str:
    return "; ".join(
        ",".join(H.field.format(c) for c in row) for row in H.basis
    )


def format_point(P: ProjectivePoint) -> str:
    return ",".join(P.field.format(c) for c in P.coords)

"""Root multiplicities and points of subspaces, which the library computes
no longer, kept (up to module prefixes) as references for the tests that
enumerate or divide out points."""

from transverse import gf, linalg, projgeom


def u_roots_with_multiplicity(F, a, seed=0):
    """The distinct roots of ``a`` in F, sorted by code, each with its
    multiplicity, by dividing out (x - r) until a remainder appears."""
    roots = linalg.u_distinct_roots(F, a, seed)
    out = []
    for r in roots:
        lin = [F.neg(r), 1]
        m = 0
        rest = list(a)
        while True:
            quo, rem = linalg.u_divmod(F, rest, lin)
            if rem:
                break
            m += 1
            rest = quo
        out.append((r, m))
    return out


def subspace_contains(H: projgeom.LinearSubspace, P: projgeom.ProjectivePoint) -> bool:
    """Whether P (possibly over an extension) lies on H."""
    src, tgt = H.field, P.field
    if src.p != tgt.p or tgt.m % src.m != 0:
        raise ValueError("point field is not an extension of the subspace field")
    if P.ambient != H.ambient:
        raise ValueError("ambient dimension mismatch")
    emb = [tuple(gf.embed_code(src, tgt, c) for c in row) for row in H.basis]
    return linalg.rank(tgt, emb + [P.coords]) == len(H.basis)


def subspace_points(H: projgeom.LinearSubspace, ext: gf.Field | None = None):
    """The points of H over an extension (by default over its own field)."""
    field = ext or H.field
    if field.p != H.field.p or field.m % H.field.m != 0:
        raise ValueError("not an extension of the subspace field")
    for u in projgeom.enumerate_point_codes(H.dim, field):
        yield projgeom.subspace_point(H, u, field)

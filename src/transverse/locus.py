"""Hypersurfaces, their Gauss map, and the loci used by the search routines.

A Hypersurface wraps one nonzero form of degree >= 1 with its cached
gradient.  A SchemeSpec is nothing but a list of homogeneous generators in
a fixed ambient space; emptiness and dimension questions about it are
answered by `certify`, enumeration by `audit`.

The Frobenius-twisted 2x2 minors of the gradient detect points whose
tangent hyperplane is rational over the base field: the gradient vector v
and its coordinate-wise q-th power are proportional exactly when all the
minors v_i v_j^q - v_i^q v_j vanish.  The membership tests below evaluate
those minors as scalars; the full minor form is only materialized when a
SchemeSpec needs it as a generator.
"""

from __future__ import annotations

from . import gf, poly, projgeom


class Hypersurface:
    """V(F) in P^n for a single nonzero form F of degree >= 1."""

    def __init__(self, form: poly.Form):
        if form.is_zero():
            raise ValueError("a hypersurface needs a nonzero form")
        if form.degree < 1:
            raise ValueError("a hypersurface needs degree >= 1")
        self.form = form
        self.field = form.field
        self.ambient = form.nvars - 1
        self.degree = form.degree
        self.partials = tuple(poly.form_partials(form))
        self.cache: dict = {}  # certification results attach here

    def __eq__(self, other):
        return isinstance(other, Hypersurface) and self.form == other.form

    def __hash__(self):
        return hash(self.form)

    def __repr__(self):
        return f"V({poly.format_form(self.form)})"


class SchemeSpec:
    """Closed subscheme of P^n given by explicit homogeneous generators."""

    def __init__(self, field: gf.Field, nvars: int, gens):
        gens = tuple(gens)
        if not gens:
            raise ValueError("a scheme spec needs at least one generator")
        for g in gens:
            if g.field != field or g.nvars != nvars:
                raise ValueError("generators must share field and ambient")
        self.field = field
        self.nvars = nvars
        self.ambient = nvars - 1
        self.gens = gens

    def nonzero_gens(self):
        return tuple(g for g in self.gens if not g.is_zero())

    def vanishes_at_codes(self, codes, E: gf.Field) -> bool:
        return all(
            poly.form_eval_codes(g, codes, E) == 0 for g in self.nonzero_gens()
        )

    def __repr__(self):
        return "Scheme{" + "; ".join(poly.format_form(g) for g in self.gens) + "}"


def gauss_image(X: Hypersurface, P: projgeom.ProjectivePoint):
    """Tangent hyperplane at P as a point of the dual space.

    Returns None when the whole gradient vanishes at P, i.e. when P is a
    singular point of X (or X has identically vanishing partials).
    """
    E = P.field
    if len(P.coords) != X.ambient + 1:
        raise ValueError("point not in the ambient space of X")
    grad = [poly.form_eval_codes(g, P.coords, E) for g in X.partials]
    if not any(grad):
        return None
    return projgeom.ProjectivePoint(E, grad)


def singular_scheme(X: Hypersurface) -> SchemeSpec:
    """Generators of Sing(X): the form itself plus its nonzero partials.

    The form is kept even when the gradient already cuts it out, because
    the Euler relation linking F to its partials fails when the
    characteristic divides the degree.
    """
    gens = [X.form] + [g for g in X.partials if not g.is_zero()]
    return SchemeSpec(X.field, X.ambient + 1, gens)


def frobenius_minor(X: Hypersurface, i: int, j: int) -> poly.Form:
    """The form F_i F_j^q - F_i^q F_j, q the order of the base field.

    Vanishes at P exactly when the (i, j) coordinates of the gradient and
    its q-th power are proportional; degree (d-1)(q+1) when nonzero.
    """
    n = X.ambient
    if not 0 <= i < j <= n:
        raise ValueError(f"need 0 <= i < j <= {n}")
    q = X.field.order
    d = X.degree
    zero = poly.Form(X.field, n + 1, (d - 1) * (q + 1), {})
    a, b = X.partials[i], X.partials[j]
    if a.is_zero() or b.is_zero():
        return zero
    return a * poly.form_pow(b, q) - poly.form_pow(a, q) * b


def in_rational_tangency_locus(X: Hypersurface, P: projgeom.ProjectivePoint) -> bool:
    """Whether every Frobenius-twisted gradient minor vanishes at P.

    Equivalent to: P is singular on X, or the tangent hyperplane at P is
    defined over the base field of X.  P itself need not lie on X.
    """
    E = P.field
    base = X.field
    if E.p != base.p or E.m % base.m != 0:
        raise ValueError("point field is not an extension of the base field")
    grad = [poly.form_eval_codes(g, P.coords, E) for g in X.partials]
    s = base.m  # v -> v^q is the s-fold p-power Frobenius on E
    frob = [E.frob_power(v, s) for v in grad]
    n = len(grad)
    for i in range(n):
        if grad[i] == 0:
            continue
        for j in range(n):
            if i != j and E.mul(grad[i], frob[j]) != E.mul(frob[i], grad[j]):
                return False
        return True  # one nonzero row position checked against all others
    return True  # zero gradient: every minor vanishes


def tangency_locus(X: Hypersurface, H: projgeom.LinearSubspace) -> SchemeSpec:
    """Points of X whose (embedded) tangent hyperplane contains all of H.

    Generators: the form of X plus one gradient contraction per basis row
    of H.  For smooth X this cuts out exactly the locus where the tangent
    hyperplane contains H; singular points of X always belong.
    """
    if H.field != X.field:
        raise ValueError("subspace must be over the base field of X")
    if H.ambient != X.ambient:
        raise ValueError("ambient dimension mismatch")
    n = X.ambient
    gens = [X.form]
    for row in H.basis:
        acc = poly.Form(X.field, n + 1, max(X.degree - 1, 0), {})
        for c, g in zip(row, X.partials):
            if c and not g.is_zero():
                acc = acc + g.scale(X.field.element(c))
        if not acc.is_zero():
            gens.append(acc)
    return SchemeSpec(X.field, n + 1, gens)

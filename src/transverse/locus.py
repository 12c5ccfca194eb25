"""Hypersurfaces and the tangency loci used by the search routines.

A Hypersurface wraps one nonzero form of degree >= 1.  A SchemeSpec is
nothing but a list of homogeneous generators in a fixed ambient space;
emptiness, dimension and point enumeration questions about it are
answered by `certify`.  Both refuse a form of degree above
config.MAX_FORM_DEGREE or in more than config.MAX_NVARS variables.
"""

from __future__ import annotations

from . import config, gf, poly, projgeom


class Hypersurface:
    """V(F) in P^n for a single nonzero form F of degree >= 1."""

    def __init__(self, form: poly.Form):
        if form.is_zero():
            raise ValueError("a hypersurface needs a nonzero form")
        if form.degree < 1:
            raise ValueError("a hypersurface needs degree >= 1")
        config.check_nvars(form.nvars)
        config.check_form_degree(form.degree)
        self.form = form
        self.field = form.field
        self.ambient = form.nvars - 1
        self.degree = form.degree
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
        config.check_nvars(nvars)
        config.check_form_degree(max(g.degree for g in gens))
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


def tangency_locus(X: Hypersurface, H: projgeom.LinearSubspace) -> SchemeSpec:
    """Points of X whose (embedded) tangent hyperplane contains all of H.

    Generators: the form of X plus the nonzero gradient contractions by the
    basis rows of H (contractions).  For smooth X this cuts out exactly the
    locus where the tangent hyperplane contains H; singular points of X
    always belong.
    """
    if H.field != X.field:
        raise ValueError("subspace must be over the base field of X")
    if H.ambient != X.ambient:
        raise ValueError("ambient dimension mismatch")
    return SchemeSpec(X.field, X.ambient + 1, [X.form, *contractions(X, H.basis)])


def contractions(X: Hypersurface, rows) -> list:
    """The gradient contractions sum_i v_i dF/dx_i of X's form F by each
    row v of codes, in order, each built in one pass over the terms of F
    and the nonzero entries of v; zero contractions are dropped."""
    fld = X.field
    out = []
    for row in rows:
        support = [(i, v) for i, v in enumerate(row) if v]
        terms: dict = {}
        for exps, c in X.form.terms.items():
            for i, v in support:
                e = exps[i]
                if e:
                    ne = exps[:i] + (e - 1,) + exps[i + 1 :]
                    term = fld.mul(v, fld.mul_int(c, e))
                    terms[ne] = fld.add(terms.get(ne, 0), term)
        terms = {e: c for e, c in terms.items() if c}
        g = poly.Form._built(fld, X.ambient + 1, X.degree - 1, terms)
        if not g.is_zero():
            out.append(g)
    return out

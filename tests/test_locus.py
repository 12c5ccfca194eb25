import random

import pytest

from transverse import config, gf, locus, poly, projgeom as pg
from transverse.locus import Hypersurface, SchemeSpec


F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F9 = gf.field_create(3, 2)
F169 = gf.field_create(13, 2)


def surf(field, text, nvars=None):
    return Hypersurface(poly.parse_form(field, text, nvars=nvars))


def points_on(X):
    for P in pg.enumerate_points(X.ambient, X.field):
        if poly.form_eval_codes(X.form, P.coords, X.field) == 0:
            yield P


class TestTangencyLocus:
    def test_whole_space_cuts_singular_locus(self):
        X = surf(F5, "x1^2*x2 - x0^3")
        whole = pg.subspace_from_rows(
            F5, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        T = locus.tangency_locus(X, whole)
        # Sing(X): the form plus its nonzero partials
        partials = poly.form_partials(X.form)
        S = SchemeSpec(F5, 3, [X.form] + [g for g in partials if not g.is_zero()])
        for P in pg.enumerate_points(2, F5):
            assert T.vanishes_at_codes(P.coords, F5) == S.vanishes_at_codes(
                P.coords, F5
            )

    def test_quadric_point_polar(self):
        X = surf(F5, "x0^2 + x1^2 + x2^2 + x3^2")
        P0 = pg.ProjectivePoint(F5, (1, 2, 0, 0))
        assert poly.form_eval_codes(X.form, P0.coords, F5) == 0
        # pick a point off the quadric instead
        P0 = pg.ProjectivePoint(F5, (1, 1, 0, 0))
        assert poly.form_eval_codes(X.form, P0.coords, F5) != 0
        T = locus.tangency_locus(X, pg.point_subspace(P0))
        hits = [
            P
            for P in pg.enumerate_points(3, F5)
            if T.vanishes_at_codes(P.coords, F5)
        ]
        assert 0 < len(hits) <= 2 * (5 + 1)
        # hits are exactly the smooth points whose tangent plane passes
        # through P0
        partials = poly.form_partials(X.form)
        for P in points_on(X):
            g = [poly.form_eval_codes(d, P.coords, F5) for d in partials]
            assert any(g)  # smooth quadric
            contains = sum(F5.mul(a, b) for a, b in zip(g, P0.coords)) % 5 == 0
            want = any(Q == P for Q in hits)
            assert contains == want

    def test_tangency_gens_shape(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3 + x3^3")
        H = pg.subspace_from_rows(F5, [(1, 0, 0, 0), (0, 1, 0, 0)])
        T = locus.tangency_locus(X, H)
        assert len(T.gens) == 3  # F plus one contraction per basis row
        assert T.gens[0] == X.form
        assert all(g.degree == 2 for g in T.gens[1:])


def contraction_reference(X, row):
    """sum_i v_i * dF/dx_i on term maps, summed coefficient by coefficient,
    with zero sums dropped: the construction the one-pass contraction
    replaced."""
    fld = X.field
    acc = {}
    for v, part in zip(row, poly.form_partials(X.form)):
        for e, c in part.terms.items():
            acc[e] = fld.add(acc.get(e, 0), fld.mul(v, c))
    terms = {e: c for e, c in acc.items() if c}
    return poly.Form(fld, X.ambient + 1, X.degree - 1, terms)


def random_subspace(field, nvars, k, rng, first=None):
    """A subspace of k rows, the first of them `first` when given."""
    while True:
        rows = [[rng.randrange(field.order) for _ in range(nvars)] for _ in range(k)]
        if first is not None:
            rows[0] = list(first)
        try:
            H = pg.subspace_from_rows(field, rows)
        except ValueError:
            continue
        if len(H.basis) == k:
            return H


@pytest.mark.parametrize(
    "field",
    [F2, F3, F5, F4, F9, F169],
    ids=lambda f: f"F{f.order}",
)
def test_one_pass_contraction_matches_the_partials(field):
    rng = random.Random(field.order)
    vanished = 0
    for nvars in (3, 4):
        for degree in range(1, 6):
            monos = list(poly.monomials_of_degree(nvars, degree))
            # x0 only to powers divisible by p: dF/dx0 vanishes, and so does
            # the contraction with the row e_0
            frob = [e for e in monos if e[0] % field.p == 0]
            for pool, first in ((monos, None), (frob, (1,) + (0,) * (nvars - 1))):
                terms = {e: rng.randrange(field.order) for e in pool}
                if not any(terms.values()):
                    continue
                X = Hypersurface(poly.Form(field, nvars, degree, terms))
                for k in range(1, nvars + 1):
                    H = random_subspace(field, nvars, k, rng, first)
                    contractions = [contraction_reference(X, row) for row in H.basis]
                    vanished += sum(g.is_zero() for g in contractions)
                    want = (X.form, *(g for g in contractions if not g.is_zero()))
                    got = locus.tangency_locus(X, H).gens
                    assert got == want, (poly.format_form(X.form), H.basis)
    assert vanished > 0


class TestTangencyAlongHyperplanes:
    """T(H) for a hyperplane H: the smooth points whose tangent is H."""

    def test_conic_tangent_at_vertex(self):
        X = surf(F5, "x0*x2 - x1^2")
        H = pg.subspace_from_rows(F5, [(0, 1, 0), (0, 0, 1)])  # x0 = 0
        T = locus.tangency_locus(X, H)
        touched = [
            P.coords
            for P in pg.enumerate_points(2, F5)
            if T.vanishes_at_codes(P.coords, F5)
        ]
        assert touched == [(0, 0, 1)]

    def test_char3_fermat_cubic_everywhere_singular_signal(self):
        # every partial of x0^3 + x1^3 + x2^3 vanishes in characteristic 3
        X = surf(F3, "x0^3 + x1^3 + x2^3")
        for H in pg.all_hyperplanes(2, F3):
            assert locus.tangency_locus(X, H).gens == (X.form,)

    def test_each_tangent_line_touches_smooth_conic_once(self):
        X = surf(F7, "x0^2 + x1^2 + x2^2")
        pts = list(points_on(X))
        assert len(pts) == 7 + 1
        pairs = [
            (H, P)
            for H in pg.all_hyperplanes(2, F7)
            for P in pts
            if locus.tangency_locus(X, H).vanishes_at_codes(P.coords, F7)
        ]
        assert sorted(P.coords for _, P in pairs) == sorted(P.coords for P in pts)
        assert len({H for H, _ in pairs}) == len(pairs)

    def test_singular_point_always_included(self):
        X = surf(F5, "x1^2*x2 - x0^3")
        cusp = (0, 0, 1)
        for H in pg.all_hyperplanes(2, F5):
            assert locus.tangency_locus(X, H).vanishes_at_codes(cusp, F5)
        for P in pg.enumerate_points(2, F5):
            T = locus.tangency_locus(X, pg.point_subspace(P))
            assert T.vanishes_at_codes(cusp, F5)

    def test_points_lie_on_their_own_polar(self):
        # Euler: sum x_i d_iF = deg(F) * F, so P in X has P in T(X, P),
        # also when p divides the degree
        for field, text in (
            (F5, "x0^2 + x1^2 + x2^2"),
            (F5, "x1^2*x2 - x0^3"),
            (F3, "x0^3 + x0*x1^2 + x2^3"),
            (F7, "x0^3 + 2*x1^3 + 3*x2^3 + x0*x1*x2"),
        ):
            X = surf(field, text)
            pts = list(points_on(X))
            assert pts, text
            for P in pts:
                T = locus.tangency_locus(X, pg.point_subspace(P))
                assert T.vanishes_at_codes(P.coords, field), (text, P)

    def test_ambient_mismatch(self):
        X = surf(F5, "x0*x2 - x1^2")
        H = pg.subspace_from_rows(F5, [(1, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(ValueError, match="ambient"):
            locus.tangency_locus(X, H)

    def test_field_mismatch(self):
        X = surf(F5, "x0*x2 - x1^2")
        F25 = gf.extension_field(F5, 2)
        H = pg.subspace_from_rows(F25, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(ValueError, match="base field"):
            locus.tangency_locus(X, H)


class TestDegreeCap:
    def test_hypersurface_and_scheme_refuse_degree_over_cap(self, monkeypatch):
        cap = config.MAX_FORM_DEGREE
        big = poly.Form(F5, 3, cap + 1, {(cap + 1, 0, 0): 1})
        line = poly.parse_form(F5, "x1", 3)
        with pytest.raises(config.CapExceededError, match="form degree"):
            Hypersurface(big)
        with pytest.raises(config.CapExceededError, match="form degree"):
            SchemeSpec(F5, 3, [line, big])
        monkeypatch.setattr(config, "MAX_FORM_DEGREE", cap + 1)
        assert Hypersurface(big).degree == cap + 1
        assert SchemeSpec(F5, 3, [line, big]).gens[1] == big

    def test_hypersurface_and_scheme_refuse_too_many_variables(self):
        n = config.MAX_NVARS + 1
        wide = poly.Form(F5, n, 1, {(1,) + (0,) * (n - 1): 1})
        with pytest.raises(config.CapExceededError, match="variables exceed"):
            Hypersurface(wide)
        with pytest.raises(config.CapExceededError, match="variables exceed"):
            SchemeSpec(F5, n, [wide])
        top = config.MAX_NVARS
        edge = poly.Form(F5, top, 1, {(1,) + (0,) * (top - 1): 1})
        assert Hypersurface(edge).ambient == top - 1
        assert SchemeSpec(F5, top, [edge]).ambient == top - 1

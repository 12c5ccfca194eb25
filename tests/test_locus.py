import random

import pytest

from transverse import gf, locus, poly, projgeom as pg
from transverse.locus import Hypersurface


F3 = gf.field_create(3)
F5 = gf.field_create(5)
F7 = gf.field_create(7)


def surf(field, text, nvars=None):
    return Hypersurface(poly.parse_form(field, text, nvars=nvars))


def points_on(X, field=None):
    E = field or X.field
    for P in pg.enumerate_points(X.ambient, E):
        if poly.form_eval_codes(X.form, P.coords, E) == 0:
            yield P


class TestGauss:
    def test_conic_tangent_at_vertex(self):
        X = surf(F5, "x0*x2 - x1^2")
        P = pg.ProjectivePoint(F5, (0, 0, 1))
        assert locus.gauss_image(X, P) == pg.ProjectivePoint(F5, (1, 0, 0))

    def test_char3_fermat_cubic_everywhere_singular_signal(self):
        X = surf(F3, "x0^3 + x1^3 + x2^3")
        for P in pg.enumerate_points(2, F3):
            assert locus.gauss_image(X, P) is None

    def test_gauss_injective_on_smooth_conic(self):
        X = surf(F7, "x0^2 + x1^2 + x2^2")
        pts = list(points_on(X))
        assert 0 < len(pts) <= 57
        images = [locus.gauss_image(X, P) for P in pts]
        assert None not in images
        assert len(set(images)) == len(images)

    def test_ambient_mismatch(self):
        X = surf(F5, "x0*x2 - x1^2")
        with pytest.raises(ValueError):
            locus.gauss_image(X, pg.ProjectivePoint(F5, (1, 0, 0, 0)))


class TestSingularScheme:
    def test_smooth_fermat_cubic_no_singular_points(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3")
        S = locus.singular_scheme(X)
        for k in (1, 2):
            E = gf.extension_field(F5, k)
            for P in pg.enumerate_points(2, E):
                assert not S.vanishes_at_codes(P.coords, E)

    def test_double_line_is_singular_along_line(self):
        X = surf(F5, "x0^2*x1", nvars=3)
        S = locus.singular_scheme(X)
        line = pg.subspace_from_rows(F5, [(0, 1, 0), (0, 0, 1)])
        for P in pg.subspace_points(line):
            assert S.vanishes_at_codes(P.coords, F5)

    def test_cuspidal_cubic_singular_point(self):
        X = surf(F5, "x1^2*x2 - x0^3")
        S = locus.singular_scheme(X)
        sing = [
            P.coords
            for P in pg.enumerate_points(2, F5)
            if S.vanishes_at_codes(P.coords, F5)
        ]
        assert sing == [(0, 0, 1)]

    def test_char_degeneration_keeps_form(self):
        X = surf(F3, "x0^3 + x1^3 + x2^3")
        S = locus.singular_scheme(X)
        assert S.gens == (X.form,)  # all partials vanish identically


class TestFrobeniusMinor:
    def test_diagonal_quadric_f5(self):
        X = surf(F5, "x0^2 + x1^2 + x2^2")
        D = locus.frobenius_minor(X, 0, 1)
        want = poly.parse_form(F5, "4*x0*x1^5 - 4*x0^5*x1", nvars=3)
        assert D == want

    def test_degree_formula(self):
        X = surf(F3, "x0^3 + x1^2*x2", nvars=3)
        D = locus.frobenius_minor(X, 1, 2)
        assert not D.is_zero()
        assert D.degree == (3 - 1) * (3 + 1)

    def test_vanishing_partial_gives_zero_form(self):
        X = surf(F3, "x0^3 + x1^3 + x2^3")
        D = locus.frobenius_minor(X, 0, 1)
        assert D.is_zero()

    def test_index_validation(self):
        X = surf(F5, "x0^2 + x1^2 + x2^2")
        with pytest.raises(ValueError):
            locus.frobenius_minor(X, 1, 1)

    def test_minor_form_agrees_with_scalar_test(self):
        X = surf(F5, "x0*x2 - x1^2")
        F25 = gf.extension_field(F5, 2)
        minors = [
            locus.frobenius_minor(X, i, j)
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        for P in pg.enumerate_points(2, F25):
            by_forms = all(
                poly.form_eval_codes(D, P.coords, F25) == 0 for D in minors
            )
            assert by_forms == locus.in_rational_tangency_locus(X, P)


class TestRationalTangency:
    def test_rational_smooth_points_included(self):
        X = surf(F5, "x0*x2 - x1^2")
        for P in points_on(X):
            assert locus.in_rational_tangency_locus(X, P)

    def test_conic_over_f25_some_points_excluded(self):
        X = surf(F5, "x0*x2 - x1^2")
        F25 = gf.extension_field(F5, 2)
        flags = [
            locus.in_rational_tangency_locus(X, P) for P in points_on(X, F25)
        ]
        assert len(flags) == 26
        assert any(flags) and not all(flags)

    def test_singular_point_always_included(self):
        X = surf(F5, "x1^2*x2 - x0^3")
        assert locus.in_rational_tangency_locus(X, pg.ProjectivePoint(F5, (0, 0, 1)))

    def test_matches_gauss_subfield_characterization(self):
        rng = random.Random(41)
        for q, F in ((3, F3), (5, F5)):
            for _ in range(6):
                d = rng.randrange(1, 4)
                terms = {
                    e: rng.randrange(q)
                    for e in poly.monomials_of_degree(3, d)
                    if rng.random() < 0.7
                }
                form = poly.Form(F, 3, d, terms)
                if form.is_zero():
                    continue
                X = Hypersurface(form)
                for k in (1, 2):
                    E = gf.extension_field(F, k)
                    for P in points_on(X, E):
                        g = locus.gauss_image(X, P)
                        if g is None:
                            expect = True
                        else:
                            expect = all(
                                gf.in_subfield(E.element(c), 1, q=q)
                                for c in g.coords
                            )
                        assert locus.in_rational_tangency_locus(X, P) == expect


class TestTangencyLocus:
    def test_whole_space_cuts_singular_locus(self):
        X = surf(F5, "x1^2*x2 - x0^3")
        whole = pg.subspace_from_rows(
            F5, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        T = locus.tangency_locus(X, whole)
        S = locus.singular_scheme(X)
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
        for P in points_on(X):
            g = locus.gauss_image(X, P)
            contains = (
                sum(F5.mul(a, b) for a, b in zip(g.coords, P0.coords)) % 5 == 0
            )
            want = any(Q == P for Q in hits)
            assert contains == want

    def test_tangency_gens_shape(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3 + x3^3")
        H = pg.subspace_from_rows(F5, [(1, 0, 0, 0), (0, 1, 0, 0)])
        T = locus.tangency_locus(X, H)
        assert len(T.gens) == 3  # F plus one contraction per basis row
        assert T.gens[0] == X.form
        assert all(g.degree == 2 for g in T.gens[1:])


class TestIrreduciblePlaneCurveMinor:
    def test_some_minor_survives_on_curve(self):
        # a geometrically irreducible conic: some twisted minor must be
        # nonvanishing somewhere on the curve over a small extension
        for q, F in ((3, F3), (5, F5)):
            X = surf(F, "x0*x2 - x1^2")
            E = gf.extension_field(F, 2)
            witnesses = [
                P
                for P in points_on(X, E)
                if not locus.in_rational_tangency_locus(X, P)
            ]
            assert witnesses

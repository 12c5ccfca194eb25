import collections
import itertools
import json
import random

import pytest

import macaulay_reference as ref
import point_reference as points
from transverse import audit, certify, config, gf, linalg, locus, poly, projgeom as pg
from transverse import cli, search
from transverse.audit import (
    BOUNDS,
    AuditReport,
    BoundFormula,
    CurveFixture,
    audit_space_filling,
    bad_hyperplane_weight,
    bound_bad_hyperplanes,
    count_bad_hyperplanes,
    count_bad_superspaces,
    count_nontransverse_lines,
    separation_search,
)
from transverse.locus import Hypersurface

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F13 = gf.field_create(13)


def surf(field, text, nvars=None):
    return Hypersurface(poly.parse_form(field, text, nvars=nvars))


def points_on(X, field):
    for P in pg.enumerate_points(X.ambient, field):
        if poly.form_eval_codes(X.form, P.coords, field) == 0:
            yield P


def must_not_run(*_args, **_kwargs):
    raise AssertionError("certification ran before the cheap argument checks")


class TestBoundFormulas:
    def test_arithmetic_examples(self):
        assert BOUNDS["reduced-curve-lines"].value(d=2, q=5) == 18
        assert BOUNDS["irreducible-curve-lines"].value(d=3, q=7) == 56
        assert BOUNDS["bad-hyperplanes"].value(d=2, t=2, q=5) == 7
        assert BOUNDS["bad-hyperplanes"].value(d=2, t=0, q=5) == 73
        assert BOUNDS["tangent-superspaces"].value(n=3, d=3, q=13, r=1) == 84
        assert BOUNDS["dual-contained-superspaces"].value(n=3, d=3) == 12
        assert BOUNDS["bad-superspaces"].value(n=3, d=3, q=13, r=1) == 96

    def test_missing_parameter_is_an_error(self):
        with pytest.raises(ValueError):
            BOUNDS["reduced-curve-lines"].value(d=2)

    def test_none_parameters_are_dropped(self):
        assert BOUNDS["reduced-curve-lines"].value(d=2, q=5, r=None, t=None) == 18

    def test_only_arithmetic_evaluates(self):
        evil = BoundFormula("x", "__import__", "not a formula")
        with pytest.raises(ValueError):
            evil.value()
        with pytest.raises(ValueError):
            BoundFormula("y", "d(q)", "call").value(d=1, q=1)

    def test_weight_endpoints(self):
        # endpoint values of the quadratic weight, d = 4
        assert bad_hyperplane_weight(4, 0) == 12
        assert bad_hyperplane_weight(4, 4) == 6
        for d in range(1, 8):
            assert max(bad_hyperplane_weight(d, s) for s in range(d + 1)) == d * (d - 1)

    def test_bound_bad_hyperplanes_validates(self):
        assert bound_bad_hyperplanes(2, 2, 5) == 7
        with pytest.raises(ValueError):
            bound_bad_hyperplanes(2, 3, 5)
        with pytest.raises(ValueError):
            bound_bad_hyperplanes(0, 0, 5)
        with pytest.raises(ValueError):
            bound_bad_hyperplanes(2, 0, 1)


class TestCurveFixture:
    def test_product_and_counters(self):
        C = CurveFixture.from_strings(F7, ["x0", "x1", "x0 + x1"])
        assert C.form == poly.parse_form(F7, "x0^2*x1 + x0*x1^2", 3)
        assert (C.degree, C.ell, C.t) == (3, 3, 3)
        assert C.degrees == (1, 1, 1)

    def test_mixed_degrees(self):
        C = CurveFixture.from_strings(F5, ["x0", "x0*x2 + 4*x1^2"])
        assert (C.degree, C.ell, C.t) == (3, 2, 1)

    def test_proportional_factors_rejected(self):
        with pytest.raises(ValueError):
            CurveFixture.from_strings(F5, ["x0", "2*x0"])

    def test_non_ternary_rejected(self):
        with pytest.raises(ValueError):
            CurveFixture([poly.parse_form(F5, "x0*x1", 4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CurveFixture([])


class TestNontransverseLines:
    def test_smooth_conic_exact_count(self):
        """Six tangents at the six rational points, nothing else."""
        C = CurveFixture.from_strings(F5, ["x0*x2 + 4*x1^2"])
        rep = count_nontransverse_lines(C, seed=0)
        assert rep.observed == 6
        assert rep.bound == 18
        assert rep.passed()
        assert rep.extras == {"pool": 31, "improper": 0, "not_squarefree": 6}
        # one irreducible factor: the sharper component bound rides along
        assert [s.bound for s in rep.subreports] == [12]
        assert rep.subreports[0].observed == 6
        # independent oracle: one tangent per rational curve point
        on_curve = sum(
            1
            for P in pg.enumerate_point_codes(2, F5)
            if poly.form_eval_codes(C.form, P, F5) == 0
        )
        assert rep.observed == on_curve == F5.order + 1

    def test_conic_agrees_with_transversality_predicate(self):
        C = CurveFixture.from_strings(F5, ["x0*x2 + 4*x1^2"])
        X = Hypersurface(C.form)
        via_predicate = sum(
            1 for L in pg.all_lines(2, F5) if not certify.is_transverse(X, L)
        )
        assert via_predicate == count_nontransverse_lines(C).observed

    def test_cuspidal_cubic(self):
        """8 lines through the cusp plus 7 tangents at the smooth points."""
        C = CurveFixture.from_strings(F7, ["x1^2*x2 - x0^3"])
        rep = count_nontransverse_lines(C, seed=0)
        assert rep.observed == 15
        assert rep.subreports[0].bound == 56
        assert rep.passed()
        cusp = pg.ProjectivePoint(F7, (0, 0, 1))
        through_cusp = 0
        elsewhere = 0
        for L in pg.all_lines(2, F7):
            G = poly.substitute_rows(C.form, L.basis)
            if G.is_zero() or not poly.binary_squarefree(G):
                if points.subspace_contains(L, cusp):
                    through_cusp += 1
                else:
                    elsewhere += 1
        assert through_cusp == 8
        assert elsewhere == 7

    def test_three_concurrent_lines_exact(self):
        C = CurveFixture.from_strings(F7, ["x0", "x1", "x0 + x1"])
        rep = count_nontransverse_lines(C, seed=0)
        assert rep.observed == F7.order + 1
        assert rep.bound == 72
        # the components themselves are the improper sections
        assert rep.extras["improper"] == 3
        assert rep.extras["not_squarefree"] == 5
        assert rep.subreports == ()

    def test_existence_margin_above_gate(self):
        # q = 5 >= (3/2) d (d-1) = 3: a transverse line must remain
        C = CurveFixture.from_strings(F5, ["x0*x2 + 4*x1^2"])
        rep = count_nontransverse_lines(C)
        assert rep.extras["pool"] - rep.observed >= 1

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            count_nontransverse_lines(CurveFixture.from_strings(F5, ["x0"]))

    def test_square_factor_rejected(self):
        # a squared factor slips past the pairwise check but not the
        # squarefreeness gate
        with pytest.raises(ValueError):
            count_nontransverse_lines(CurveFixture.from_strings(F5, ["x0^2", "x1"]))

    def test_census_refuses_its_pool_before_any_line(self, monkeypatch):
        # 31 lines of P^2(F_5) against a cap of 30
        C = CurveFixture.from_strings(F5, ["x0*x2 + 4*x1^2"])
        for name in ("is_reduced_form", "hyperplane_section_counts"):
            monkeypatch.setattr(certify, name, must_not_run)
        with config.caps_scope(config.Caps(max_enum=30)):
            with pytest.raises(config.CapExceededError, match="31"):
                count_nontransverse_lines(C, seed=0)


def brute_line_census(C):
    """The line census by definition, the reference for
    count_nontransverse_lines: every binary section built and decided."""
    extras = {"pool": 0, "improper": 0, "not_squarefree": 0}
    for L in pg.all_lines(2, C.field):
        extras["pool"] += 1
        G = poly.substitute_rows(C.form, L.basis)
        if G.is_zero():
            extras["improper"] += 1
        elif not poly.binary_squarefree(G):
            extras["not_squarefree"] += 1
    return extras


# the battery's conic, cusp and three lines, then a cubic over F_4 and a
# conic with a secant line over F_9
LINE_CENSUS_FIXTURES = [
    ((5, 1), ["x0*x2 - x1^2"]),
    ((7, 1), ["x1^2*x2 - x0^3"]),
    ((7, 1), ["x0", "x1", "x0 + x1"]),
    ((2, 2), ["x0^3 + x1^3 + (t)*x2^3"]),
    ((3, 2), ["x0*x2 - x1^2", "x0 + (t)*x1 + x2"]),
]


class TestNontransverseLinesAgainstBrute:
    @pytest.mark.parametrize("field, texts", LINE_CENSUS_FIXTURES)
    def test_census_matches_the_line_by_line_loop(self, field, texts):
        C = CurveFixture.from_strings(gf.field_create(*field), texts)
        want = brute_line_census(C)
        assert want["improper"] + want["not_squarefree"] > 0
        for seed in range(4):
            assert count_nontransverse_lines(C, seed=seed).extras == want, seed


class TestBadHyperplanes:
    def test_two_planes_exact(self):
        """Both components improper, q-1 more through the double line."""
        X = surf(F5, "x0*x1", nvars=4)
        rep = count_bad_hyperplanes(X, t=2, seed=0)
        assert rep.observed == 6
        assert rep.bound == 7
        assert rep.passed()
        assert rep.extras == {"pool": 156, "improper": 2, "nonreduced": 4}
        assert rep.params == {"n": 3, "d": 2, "q": 5, "r": 2, "t": 2}

    def test_two_planes_nonreduced_sections_identified(self):
        # a section is non-reduced exactly for the hyperplanes a x0 + b x1
        # other than the two components
        X = surf(F5, "x0*x1", nvars=4)
        bad = []
        for H in pg.all_hyperplanes(3, F5):
            G = poly.substitute_rows(X.form, H.basis)
            if not G.is_zero() and not certify.is_reduced_form(G):
                bad.append(pg.dual(H))
        assert len(bad) == 4
        for W in bad:
            row = W.basis[0]
            assert row[2] == 0 and row[3] == 0

    def test_smooth_quadric_sections_all_reduced(self):
        """Tangent sections are two distinct rulings, so nothing here is
        non-reduced in odd characteristic; the bound is slack."""
        X = surf(F5, "x0*x3 + 4*x1*x2")
        rep = count_bad_hyperplanes(X, t=0, seed=0)
        assert rep.observed == 0
        assert rep.bound == 73
        assert rep.extras["improper"] == 0
        assert rep.extras["nonreduced"] == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            count_bad_hyperplanes(surf(F5, "x0^2*x1", nvars=3), t=0)
        with pytest.raises(ValueError):
            count_bad_hyperplanes(surf(F5, "x0*x1", nvars=4), t=3)
        with pytest.raises(ValueError):
            count_bad_hyperplanes(surf(F5, "x0*x1", nvars=2), t=2)

    def test_deterministic_for_fixed_seed(self):
        X = surf(F5, "x0*x1", nvars=4)
        a = count_bad_hyperplanes(X, t=2, seed=7).to_dict()
        b = count_bad_hyperplanes(X, t=2, seed=7).to_dict()
        a["runtime_ms"] = b["runtime_ms"] = 0
        assert a == b


    @pytest.mark.parametrize("t", [-1, 3])
    def test_bad_t_rejected_before_certification(self, t, monkeypatch):
        monkeypatch.setattr(certify, "is_reduced_form", must_not_run)
        with pytest.raises(ValueError, match="hyperplane-component count"):
            count_bad_hyperplanes(surf(F5, "x0*x1", nvars=4), t=t)

    def test_census_refuses_its_pool_before_any_section(self, monkeypatch):
        # 156 hyperplanes of P^3(F_5) against a cap of 100
        X = surf(F5, "x0^3 + x1^3 + x2^3 + x3^3")
        for name in (
            "is_reduced_section",
            "reduced_sections",
            "_line_certificates",
            "hyperplane_section_counts",
        ):
            monkeypatch.setattr(certify, name, must_not_run)
        with config.caps_scope(config.Caps(max_enum=100)):
            with pytest.raises(config.CapExceededError, match="156"):
                count_bad_hyperplanes(X, t=0, seed=0)


# (field, form, hyperplane components, improper, nonreduced): unions of
# planes, whose section by a hyperplane through the line shared by two
# components is non-reduced; P^3(F_9) has 820 hyperplanes, more than one
# chunk of certify.reduced_sections
CENSUS_FIXTURES = [
    ((5, 1), "x0*x1", 2, 2, 4),
    ((2, 2), "x0^2*x1 + (t)*x0*x1^2", 3, 3, 2),
    ((3, 2), "x0*x1*x2", 3, 3, 24),
]


# (field, form, nvars, hyperplane components, improper, nonreduced) for the
# pencils of certify.hyperplane_section_counts through the lines of the plane
# x3 = ... = 0: a Fermat cubic with tangent lines there; a quadric cone and
# the plane x3 = 0, which contains the plane; a cone whose form has a double
# root on every line there; a cubic cut by each of x0, x1 and x2 = 0 in a
# triple line; a quartic threefold, a hyperplane and a Fermat cubic
PENCIL_FIXTURES = [
    ((7, 1), "x0^3 + x1^3 + x2^3 + x3^3", 4, 0, 0, 0),
    ((5, 1), "x0^2*x3 + x1^2*x3 + x2^2*x3 + x3^3", 4, 1, 1, 0),
    ((7, 1), "x0^2*x3 + x1^2*x2", 4, 0, 0, 10),
    ((11, 1), "x0*x1*x2 + x3^3", 4, 0, 0, 3),
    ((5, 1), "x0^4 + x0*x1^3 + x0*x2^3 + x0*x3^3 + x0*x4^3", 5, 1, 1, 0),
]


def brute_census(X):
    """The census by building every section and deciding it directly."""
    extras = {"pool": 0, "improper": 0, "nonreduced": 0}
    for H in pg.all_hyperplanes(X.ambient, X.field):
        extras["pool"] += 1
        G = poly.substitute_rows(X.form, H.basis)
        if G.is_zero():
            extras["improper"] += 1
        elif not certify.is_reduced_form(G):
            extras["nonreduced"] += 1
    return extras


class TestBadHyperplanesAgainstBrute:
    @pytest.mark.parametrize("field, text, t, improper, nonreduced", CENSUS_FIXTURES)
    def test_census_matches_the_section_by_section_loop(
        self, field, text, t, improper, nonreduced
    ):
        X = surf(gf.field_create(*field), text, nvars=4)
        want = brute_census(X)
        assert (want["improper"], want["nonreduced"]) == (improper, nonreduced)
        for seed in range(4):
            assert count_bad_hyperplanes(X, t=t, seed=seed).extras == want, seed

    def test_a_pool_spans_several_chunks(self):
        assert pg.count_points(3, gf.field_create(3, 2)) > 3 * certify._SECTION_CHUNK

    @pytest.mark.parametrize(
        "field, text, nvars, t, improper, nonreduced", PENCIL_FIXTURES
    )
    def test_pencil_census_matches_the_section_by_section_loop(
        self, field, text, nvars, t, improper, nonreduced
    ):
        X = surf(gf.field_create(*field), text, nvars=nvars)
        want = brute_census(X)
        assert (want["improper"], want["nonreduced"]) == (improper, nonreduced)
        for seed in range(4):
            assert count_bad_hyperplanes(X, t=t, seed=seed).extras == want, seed


def fallbacks(monkeypatch, X, seed=0):
    """The hyperplanes that certify.hyperplane_section_counts hands to
    reduced_sections on X, and whether it draws exactly what
    reduced_sections draws on them alone."""
    real = certify.reduced_sections
    seen = []

    def recorded(X_, subspaces, rng):
        subspaces = list(subspaces)
        seen.extend(subspaces)
        return real(X_, subspaces, rng)

    monkeypatch.setattr(certify, "reduced_sections", recorded)
    rng = random.Random(seed)
    certify.hyperplane_section_counts(X, rng)
    alone = random.Random(seed)
    for _ in real(X, seen, alone):
        pass
    return seen, rng.getstate() == alone.getstate()


class TestPencilCensus:
    def test_the_bench_fixture_falls_back_on_118_hyperplanes(self, monkeypatch):
        # bench/fixtures/fermat_cubic_f13.txt: 174 of the 183 lines of the
        # plane x3 = 0 are transverse, which certifies 174 * 13 of the 2,380
        # hyperplanes; 9 * 13 go through the other 9 lines, 1 contains the plane
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        seen, same_draws = fallbacks(monkeypatch, X)
        assert len(seen) == len(set(seen)) == 118
        assert same_draws
        pencils = collections.Counter(pg.dual(H).basis[0][:3] for H in seen)
        assert pencils.pop((0, 0, 0)) == 1
        assert sorted(pencils.values()) == [13] * 9

    def test_every_hyperplane_falls_back_when_no_line_is_transverse(
        self, monkeypatch
    ):
        X = surf(gf.field_create(3, 2), "x0^2*x3 + x1^2*x2")
        seen, same_draws = fallbacks(monkeypatch, X)
        assert len(seen) == 820
        assert set(seen) == set(pg.all_hyperplanes(3, X.field))
        assert same_draws

    def test_a_line_census_is_decided_by_its_binary_tests(self, monkeypatch):
        monkeypatch.setattr(certify, "reduced_sections", must_not_run)
        for field, texts in LINE_CENSUS_FIXTURES:
            C = CurveFixture.from_strings(gf.field_create(*field), texts)
            rng = random.Random(0)
            state = rng.getstate()
            got = certify.hyperplane_section_counts(Hypersurface(C.form), rng)
            assert rng.getstate() == state
            want = brute_line_census(C)
            assert got == (want["improper"], want["not_squarefree"])


class TestBadSuperspaces:
    def test_cubic_surface_pencil_of_lines(self):
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        P = pg.subspace_from_rows(F13, [(1, 0, 0, 0)])
        rep = count_bad_superspaces(X, P, 1, seed=0)
        assert rep.observed == 9
        assert rep.bound == 96
        assert rep.passed()
        tangent, dual = rep.subreports
        assert (tangent.observed, tangent.bound) == (9, 84)
        assert (dual.observed, dual.bound) == (0, 12)
        assert rep.extras["pool"] == 183
        assert rep.extras["transverse"] == 174
        # every tangent line contains a tangency point found by the scan
        assert rep.extras["witnessed_tangents"] == rep.extras["tangent"]
        assert rep.extras["witness_points"] == 9

    def test_cubic_surface_planes_through_line(self):
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        L = pg.subspace_from_rows(F13, [(1, 0, 0, 0), (0, 1, 0, 0)])
        rep = count_bad_superspaces(X, L, 2, seed=0)
        tangent, dual = rep.subreports
        assert rep.extras["pool"] == 14
        assert (tangent.observed, tangent.bound) == (3, 12)
        assert dual.observed == 0
        assert rep.extras["witnessed_tangents"] == 3
        # existence with margin: the gate (n-r) d (d-1)^r = 6 <= q = 13
        assert rep.extras["pool"] - rep.observed >= 1

    def test_smooth_quadric_informational(self):
        """d = 2 sits outside the d >= 3 hypotheses but the counts still
        respect the formulas; the tangent lines through an outer point
        sweep the polar section, one per rational point of it."""
        X = surf(F5, "x0*x3 + 4*x1*x2")
        P = None
        for cand in pg.enumerate_points(3, F5):
            H = pg.point_subspace(cand)
            if certify.is_very_transverse(X, H):
                P = H
                break
        rep = count_bad_superspaces(X, P, 1, seed=0)
        tangent, dual = rep.subreports
        assert (tangent.observed, tangent.bound) == (6, 12)
        assert dual.observed == 0
        pt = pg.ProjectivePoint(F5, P.basis[0])
        polar = [
            poly.form_eval_codes(g, pt.coords, F5) for g in poly.form_partials(X.form)
        ]
        on_polar_and_X = 0
        for coords in pg.enumerate_point_codes(3, F5):
            if poly.form_eval_codes(X.form, coords, F5) != 0:
                continue
            dot = 0
            for a, b in zip(polar, coords):
                dot = F5.add(dot, F5.mul(a, b))
            if dot == 0:
                on_polar_and_X += 1
        assert tangent.observed == on_polar_and_X

    def test_rejects_bad_input(self):
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        P = pg.subspace_from_rows(F13, [(1, 0, 0, 0)])
        with pytest.raises(ValueError):
            count_bad_superspaces(X, P, 2)  # dim mismatch
        with pytest.raises(ValueError):
            count_bad_superspaces(surf(F5, "x1^2*x2 - x0^3"), P, 1)
        on_X = pg.subspace_from_rows(F13, [(1, 12, 0, 0)])
        with pytest.raises(ValueError):
            count_bad_superspaces(X, on_X, 1)


    @pytest.mark.parametrize("r, basis", [
        (0, [(1, 0, 0, 0)]),
        (3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]),
        (2, [(1, 0, 0, 0)]),
    ])
    def test_bad_r_rejected_before_certification(self, r, basis, monkeypatch):
        monkeypatch.setattr(certify, "ensure_smooth", must_not_run)
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        with pytest.raises(ValueError, match="r must lie|H_prev must have"):
            count_bad_superspaces(X, pg.subspace_from_rows(F13, basis), r)


def in_rational_join_locus(H_prev, P):
    """Reference for the witness hunt: whether P lies on some base-field
    r-plane through H_prev (r = dim H_prev + 1), by the rank of the rows
    of H_prev together with P and its coordinate-wise q-th power."""
    base, E = H_prev.field, P.field
    rows = [tuple(gf.embed_code(base, E, c) for c in row) for row in H_prev.basis]
    rows.append(P.coords)
    rows.append(tuple(E.frob_power(c, base.m) for c in P.coords))
    r = H_prev.dim + 1
    return linalg.rank(E, rows, stop_at=r + 2) <= r + 1


class TestRationalJoinReference:
    def test_base_field_points_always_in(self):
        H0 = pg.point_subspace(pg.ProjectivePoint(F3, (1, 0, 0)))
        for P in pg.enumerate_points(2, F3):
            assert in_rational_join_locus(H0, P)

    def test_points_of_anchor_always_in(self):
        F9 = gf.extension_field(F3, 2)
        L = pg.subspace_from_rows(F3, [(1, 0, 0, 2), (0, 1, 1, 0)])
        for P in points.subspace_points(L, F9):
            assert in_rational_join_locus(L, P)

    def test_non_rational_line_excluded(self):
        F9 = gf.extension_field(F3, 2)
        H0 = pg.point_subspace(pg.ProjectivePoint(F3, (1, 0, 0)))
        P = pg.ProjectivePoint(F9, (0, 3, 1))
        assert not in_rational_join_locus(H0, P)

    def test_superspace_points_lie_in_join(self):
        F9 = gf.extension_field(F3, 2)
        H0 = pg.point_subspace(pg.ProjectivePoint(F3, (1, 2, 0)))
        for L in pg.enumerate_superspaces(H0, 1):
            for P in points.subspace_points(L, F9):
                assert in_rational_join_locus(H0, P)

    def test_join_locus_meets_conic_in_few_points(self):
        # each base-field line meets a smooth conic in at most 2 points,
        # and there are q+1 lines through the anchor
        for q, F in ((3, F3), (5, F5)):
            X = surf(F, "x0*x2 - x1^2")
            E = gf.extension_field(F, 2)
            H0 = pg.point_subspace(pg.ProjectivePoint(F, (1, 0, 0)))
            hits = [P for P in points_on(X, E) if in_rational_join_locus(H0, P)]
            assert len(hits) <= 2 * (q + 1)


WITNESS_SURFACES = [
    (5, "x0^3 + x1^3 + x2^3 + x3^3"),
    (5, "x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2"),
    (7, "x0^3 + x1^3 + x2^3 + x3^3"),
    (7, "x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^2*x0"),
    (13, "x0^3 + x1^3 + x2^3 + x3^3"),
    (13, "x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^2*x0"),
]


class TestWitnessPool:
    @pytest.mark.parametrize("kmax", [1, 2])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("p, text", WITNESS_SURFACES)
    def test_per_superspace_pool_matches_global_sweep(self, p, text, r, kmax):
        F = gf.field_create(p)
        X = surf(F, text)
        assert certify.ensure_smooth(X)
        H = search.find_very_transverse_flag(X, r - 1, seed=0).found.top
        T = locus.tangency_locus(X, H)
        reference = {
            P for P in certify.scheme_points_upto(T, kmax)
            if in_rational_join_locus(H, P)
        }
        superspaces = list(pg.enumerate_superspaces(H, r))
        own = audit._tangency_witnesses(X, H, superspaces, kmax)
        pool = [P for pts in own for P in pts]
        assert len(pool) == len(set(pool))
        assert set(pool) == reference
        assert reference
        # only tangent superspaces carry witnesses, which is why the audit
        # hunts on its tangent candidates alone
        for E, pts in zip(superspaces, own):
            assert not pts or not certify.is_transverse(X, E)
            assert all(points.subspace_contains(E, P) for P in pts)

    def test_pool_empty_when_global_sweep_over_caps(self):
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        H = pg.subspace_from_rows(F13, [(1, 0, 0, 0)])
        # |P^2(F_169)| + 1 = 28,732 points would be swept at kmax = 2
        with config.caps_scope(config.Caps(max_enum=28_731)):
            rep = count_bad_superspaces(X, H, 1, seed=0)
        assert rep.extras["witness_points"] == 0
        assert rep.extras["witnessed_tangents"] is None
        assert rep.extras["tangent"] == 9


class TestSpaceFilling:
    def test_plane_over_f2(self):
        rep = audit_space_filling(2, 2, 2)
        assert rep.observed == 0
        assert rep.bound == 0
        assert rep.passed()
        # 7 linear + 63 quadratic forms up to scalars
        assert rep.extras["forms_scanned"] == 70
        assert rep.extras["points"] == 7
        assert rep.extras["witness_degree"] == 3
        assert rep.extras["witness_fills"] is True

    def test_line_over_f2(self):
        rep = audit_space_filling(1, 2, 2)
        assert rep.observed == 0
        assert rep.extras["forms_scanned"] == 10
        assert rep.extras["witness"] == "x0^2*x1 + x0*x1^2"

    def test_plane_over_f3(self):
        rep = audit_space_filling(2, 3, 2)
        assert rep.observed == 0
        assert rep.extras["forms_scanned"] == 13 + 364

    def test_dmax_is_capped_at_q(self):
        full = audit_space_filling(1, 2, 5)
        assert full.params["d"] == 2
        assert full.extras["forms_scanned"] == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            audit_space_filling(0, 2, 2)
        with pytest.raises(ValueError):
            audit_space_filling(1, 2, 0)
        with pytest.raises(ValueError):
            audit_space_filling(1, 6, 2)  # 6 is not a prime power


class TestSeparationSearch:
    def test_smoke_smooth_cubics(self):
        rep = separation_search(3, 3, 3, 2, r=1, seed=2)
        assert rep["verdict"] == "observational"
        assert rep["smooth_sampled"] == 3
        assert rep["observed"] == len(rep["separations"])
        assert rep["bound"] is None

    def test_smooth_quadrics_never_separate(self):
        rep = separation_search(3, 3, 2, 3, r=1, seed=4)
        assert rep["smooth_sampled"] == 3
        assert rep["observed"] == 0

    def test_hyperplanes_never_separate(self):
        rep = separation_search(2, 3, 3, 2, r=2, seed=5)
        assert rep["observed"] == 0

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            separation_search(1, 4, 3, 2, r=2)
        with pytest.raises(ValueError):
            separation_search(0, 3, 3, 2)


class TestReportsAndWriters:
    def test_schema_keys_exact(self):
        rep = audit_space_filling(1, 2, 2)
        d = rep.to_dict()
        assert set(d) == {
            "experiment", "params", "observed", "bound", "bound_formula",
            "citation", "verdict", "runtime_ms", "seed",
        }
        assert set(d["params"]) == {"n", "d", "q", "r", "t"}

    def test_json_writer_flattens_subreports(self):
        C = CurveFixture.from_strings(F5, ["x0*x2 + 4*x1^2"])
        rep = count_nontransverse_lines(C, seed=0)
        data = audit.flatten_reports([rep])
        assert [d["experiment"] for d in data] == [
            "nontransverse-lines",
            "nontransverse-lines-irreducible",
        ]

    def test_reports_reproducible_up_to_runtime(self, tmp_path):
        C = CurveFixture.from_strings(F5, ["x0*x2 + 4*x1^2"])
        runs = []
        for _ in range(2):
            data = audit.flatten_reports([count_nontransverse_lines(C, seed=3)])
            for d in data:
                d["runtime_ms"] = 0
            runs.append(json.dumps(data, sort_keys=True))
        assert runs[0] == runs[1]

    def test_csv_writer_mirrors_fields(self, tmp_path):
        # counting reports and plain-dict reports go through the CLI writer
        runs = [
            (["space-filling", "--n", "1", "--q", "2", "--d", "2"],
             "space-filling,1,2,2,,"),
            (["separation", "--samples", "1", "--n", "2", "--d", "2", "--q", "2"],
             "separation-search,2,2,2,1,,"),
        ]
        out = tmp_path / "r.csv"
        for argv, row in runs:
            assert cli.main(["audit", *argv, "--format", "csv", "--out", str(out)]) == 0
            lines = out.read_text().strip().splitlines()
            assert lines[0] == (
                "experiment,n,d,q,r,t,observed,bound,bound_formula,citation,"
                "verdict,runtime_ms,seed"
            )
            assert len(lines) == 2
            assert lines[1].startswith(row)

    def test_plain_dicts_pass_through(self):
        sep = separation_search(1, 2, 2, 2, r=1, seed=0)
        flat = audit.flatten_reports([sep])
        assert flat[0]["experiment"] == "separation-search"


# ---------------------------------------------------------------------------
# The superspace census against the loop it replaced: one certified
# decide_very_transverse per candidate, kept verbatim from count_bad_superspaces.


def loop_superspace_extras(X, H_prev, r, seed):
    rng = random.Random(seed)
    assert certify.is_very_transverse(X, H_prev, rng=rng)
    tangent = []
    transverse = 0
    dual_contained = 0
    for E in pg.enumerate_superspaces(H_prev, r):
        verdict, method = certify.decide_very_transverse(X, E, rng)
        if method == "not-transverse":
            tangent.append(E)
            continue
        transverse += 1
        if verdict == "no":
            dual_contained += 1

    own_points = audit._tangency_witnesses(X, H_prev, tangent, audit._WITNESS_KMAX)
    witnessed = None
    if any(own_points):
        witnessed = 0
        for E, pts in zip(tangent, own_points):
            T = locus.tangency_locus(X, E)
            witnessed += any(T.vanishes_at_codes(P.coords, P.field) for P in pts)
    return {
        "pool": pg.count_points(X.ambient - r, X.field),
        "transverse": transverse,
        "tangent": len(tangent),
        "dual_contained": dual_contained,
        "witness_points": sum(map(len, own_points)),
        "witnessed_tangents": witnessed,
    }


def smooth_cubic(field, nvars, rng):
    mons = list(poly.monomials_of_degree(nvars, 3))
    while True:
        X = Hypersurface(poly.Form(field, nvars, 3, {m: rng.randrange(field.order) for m in mons}))
        if not X.form.is_zero() and certify.ensure_smooth(X):
            return X


def very_transverse_anchor(X, r):
    """The first very transverse (r-1)-plane in the pencils of points, then
    of lines through the first such point."""
    H = None
    for P in pg.enumerate_points(X.ambient, X.field):
        H = pg.point_subspace(P)
        if certify.is_very_transverse(X, H):
            break
    if r == 2:
        H = next(L for L in pg.enumerate_superspaces(H, 1) if certify.is_very_transverse(X, L))
    return H


# (field, number of variables, r): cubic surfaces, then a cubic threefold whose
# slices are taken at t = 1 (lines through a point) and t = 0 (planes through a line)
SUPERSPACE_CENSUS_CASES = [
    ((2, 2), 4, 1), ((5, 1), 4, 1), ((7, 1), 4, 1), ((3, 2), 4, 1), ((13, 1), 4, 1),
    ((5, 1), 5, 1), ((5, 1), 5, 2),
]


def census_stream(X, P, seed):
    """very_transverse_verdicts of every line through P, drawn as the
    census drew before its pencil stage: after the anchor's own decision."""
    rng = random.Random(seed)
    assert certify.is_very_transverse(X, P, rng=rng)
    return list(certify.very_transverse_verdicts(X, pg.enumerate_superspaces(P, 1), rng))


class TestBadSuperspacesAgainstTheLoop:
    @pytest.mark.parametrize("field, nvars, r", SUPERSPACE_CENSUS_CASES)
    def test_census_matches_the_candidate_by_candidate_loop(self, field, nvars, r):
        F = gf.field_create(*field)
        X = smooth_cubic(F, nvars, random.Random(f"superspaces/{F.order}/{nvars}"))
        H = very_transverse_anchor(X, r)
        for seed in range(4):
            want = loop_superspace_extras(X, H, r, seed)
            assert count_bad_superspaces(X, H, r, seed=seed).extras == want, seed

    def test_fermat_census_matches_the_loop(self):
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        P = pg.subspace_from_rows(F13, [(1, 0, 0, 0)])
        for seed in range(4):
            want = loop_superspace_extras(X, P, 1, seed)
            assert count_bad_superspaces(X, P, 1, seed=seed).extras == want, seed

    # the loop's stacks on the bench fixture: the census certifies its lines
    # by hyperplane sections (TestPencilCertificates), so these tests drive
    # very_transverse_verdicts on all 183 lines, on the census's rng stream
    def test_square_hits_skip_the_scalar_elimination(self, monkeypatch):
        # neither the square hits nor the misses of a stack reach
        # macaulay_is_empty: the misses are decided by the batch, and each
        # batched verdict is macaulay_is_empty's on the same scheme.  A locus
        # is known by its generators' coefficients, in the order of
        # poly.monomials_of_degree, whether as arrays or as a built scheme
        tested, batched, asked, attempts = [], [], [], []
        square, batch, single = (
            certify._square_spans_many, certify._empty_many, certify.macaulay_is_empty
        )
        sliced_loci = certify._sliced_tangency_loci

        def sliced_tangency_loci(X, subspaces, rng):
            attempts.append([E.basis for E in subspaces if E.dim == 1])
            return sliced_loci(X, subspaces, rng)

        def square_spans_many(E, loci):
            hits = square(E, loci)
            for (_, gens), hit in zip(loci, hits):
                tested.append((tuple((d, tuple(row.tolist())) for d, row in gens), hit))
            return hits

        def empty_many(E, loci):
            verdicts = batch(E, loci)
            batched.extend(
                (certify._locus_scheme(E, *locus_), v) for locus_, v in zip(loci, verdicts)
            )
            return verdicts

        def macaulay_is_empty(S):
            asked.append(scheme_key(S))
            return single(S)

        monkeypatch.setattr(certify, "_square_spans_many", square_spans_many)
        monkeypatch.setattr(certify, "_empty_many", empty_many)
        monkeypatch.setattr(certify, "macaulay_is_empty", macaulay_is_empty)
        monkeypatch.setattr(certify, "_sliced_tangency_loci", sliced_tangency_loci)
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        P = pg.subspace_from_rows(F13, [(1, 0, 0, 0)])
        census_stream(X, P, 0)
        asked = set(asked)
        misses = [S for S, hit in tested if not hit]
        assert len({B for lines in attempts for B in lines}) == 174  # every transverse line
        # every locus of a stack of two or more is square-tested once; a lone
        # one, a retry after a nonempty slice, goes to macaulay_is_empty
        assert len(tested) == sum(len(lines) for lines in attempts if len(lines) > 1)
        assert misses and [scheme_key(S) for S, _ in batched] == misses
        assert not any(S in asked for S, _ in tested)
        for S, verdict in batched:
            assert verdict == single(S)

    def test_census_runs_no_rref_and_no_scalar_emptiness_on_its_slices(self, monkeypatch):
        # the candidates' bases are written down, not eliminated, and every
        # sliced locus of a stack of two or more is decided in the stack
        rrefs, asked, sliced, stacked = [], [], [], []
        rref, square, single = linalg.rref, certify._square_spans_many, certify.macaulay_is_empty
        sliced_loci = certify._sliced_tangency_loci

        def sliced_tangency_loci(X, subspaces, rng):
            stacked.append(len(subspaces) if len(subspaces) > 1 else 0)
            return sliced_loci(X, subspaces, rng)

        def counted_rref(F, rows):
            rrefs.append(rows)
            return rref(F, rows)

        def square_spans_many(E, loci):
            sliced.extend(scheme_key(certify._locus_scheme(E, *locus_)) for locus_ in loci)
            return square(E, loci)

        def macaulay_is_empty(S):
            asked.append(scheme_key(S))
            return single(S)

        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        P = pg.subspace_from_rows(F13, [(1, 0, 0, 0)])
        monkeypatch.setattr(linalg, "rref", counted_rref)
        monkeypatch.setattr(certify, "_square_spans_many", square_spans_many)
        monkeypatch.setattr(certify, "macaulay_is_empty", macaulay_is_empty)
        monkeypatch.setattr(certify, "_sliced_tangency_loci", sliced_tangency_loci)
        for seed in range(3):
            report = count_bad_superspaces(X, P, 1, seed=seed)
            assert report.extras["pool"] == 183
        for recorded in (asked, sliced, stacked):
            recorded.clear()
        for seed in range(3):
            assert len(census_stream(X, P, seed)) == 183
        assert not rrefs
        assert len(sliced) == sum(stacked) >= 3 * 174 and not set(sliced) & set(asked)


# ---------------------------------------------------------------------------
# The pencil stage in front of the loop: a rational hyperplane with a smooth
# section certifies every candidate inside it, and the rest go to the loop.


F4 = gf.field_create(2, 2)
FERMAT = "x0^3 + x1^3 + x2^3 + x3^3"
E0 = (1, 0, 0, 0)


def pencil_stage(X, H, r):
    return list(certify.pencil_certificates(X, H, pg.enumerate_superspaces(H, r)))


def record_sections(monkeypatch):
    """The section bases the stage decides, recorded as it restricts them
    over X's field (the loop's slices are over an extension in these
    fixtures, whose fields have fewer than 64 elements)."""
    decided = []
    contract = certify._restricted_contractions

    def restricted_contractions(X, partials, rows, bases, E):
        if E == X.field:
            decided.extend(bases)
        return contract(X, partials, rows, bases, E)

    monkeypatch.setattr(certify, "_restricted_contractions", restricted_contractions)
    return decided


def record_slices(monkeypatch):
    """The candidates (subspaces of dimension at least 1) the loop slices."""
    sliced = []
    slicer = certify._sliced_tangency_loci

    def sliced_tangency_loci(X, subspaces, rng):
        sliced.extend(E.basis for E in subspaces if E.dim > 0)
        return slicer(X, subspaces, rng)

    monkeypatch.setattr(certify, "_sliced_tangency_loci", sliced_tangency_loci)
    return sliced


def assert_certificates_hold(X, H, staged):
    # a certificate is a hyperplane through H and its candidate with a smooth
    # section, and its candidate is transverse
    smooth = {}
    for E, K in staged:
        if K is not None:
            assert K.dim == X.ambient - 1
            assert pg.subspace_le(H, K) and pg.subspace_le(E, K)
            if K.basis not in smooth:
                smooth[K.basis] = certify.is_transverse(X, K)
            assert smooth[K.basis] and certify.is_transverse(X, E)


# (field, form, r): a quadric surface and the quadric with nucleus e0 in P^4
# over F_4, where p | d (a plane section's partials meet at its nucleus, so
# only the section form makes its Jacobian empty), and a plane of P^3 and a
# hyperplane of P^4 over F_5, of degree 1
STAGE_CASES = [
    ((2, 2), "x0*x1 + x2*x3", 1),
    ((2, 2), "x0^2 + x1*x2 + x3*x4", 1),
    ((2, 2), "x0^2 + x1*x2 + x3*x4", 2),
    ((5, 1), "x0 + x1 + 2*x2 + x3", 1),
    ((5, 1), "x0 + x1 + 2*x2 + x3 + x4", 2),
]


class TestPencilCertificates:
    @pytest.mark.parametrize("field, text, r", STAGE_CASES)
    def test_certificates_hold_and_the_census_matches_the_loop(
        self, field, text, r, monkeypatch
    ):
        X = surf(gf.field_create(*field), text)
        H = very_transverse_anchor(X, r)
        decided = record_sections(monkeypatch)
        staged = pencil_stage(X, H, r)
        assert_certificates_hold(X, H, staged)
        # one section per hyperplane through H at most, which max_enum covers
        pool = pg.count_points(X.ambient - r, X.field)
        assert len(decided) == len(set(decided)) <= pool
        for seed in range(2):
            want = loop_superspace_extras(X, H, r, seed)
            assert count_bad_superspaces(X, H, r, seed=seed).extras == want, seed
        if X.degree == 1:
            # every candidate is transverse and very transverse both ways
            assert all(K is not None for _, K in staged)
            assert want["transverse"] == pool and want["dual_contained"] == 0
        if r == 2 and X.degree == 2:
            # the plane through the nucleus: transverse, and no hyperplane
            # section through it is smooth
            assert want["dual_contained"] == 1

    @pytest.mark.parametrize("field, nvars, r", SUPERSPACE_CENSUS_CASES)
    def test_certificates_hold_on_the_census_cases(self, field, nvars, r):
        F = gf.field_create(*field)
        X = smooth_cubic(F, nvars, random.Random(f"superspaces/{F.order}/{nvars}"))
        H = very_transverse_anchor(X, r)
        staged = pencil_stage(X, H, r)
        assert_certificates_hold(X, H, staged)
        assert any(K is not None for _, K in staged)

    def test_the_bench_fixture_takes_two_pencils_and_no_slice(self, monkeypatch):
        X, P = surf(F13, FERMAT), pg.subspace_from_rows(F13, [E0])
        decided = record_sections(monkeypatch)
        staged = pencil_stage(X, P, 1)
        assert len(decided) <= 2 * (13 + 1)
        assert sum(K is not None for _, K in staged) == 174  # every transverse line
        sliced = record_slices(monkeypatch)
        for seed in range(2):
            assert count_bad_superspaces(X, P, 1, seed=seed).extras["transverse"] == 174
        assert not sliced

    def test_a_p_dividing_d_section_keeps_its_form(self, monkeypatch):
        # the conic sections of x0*x1 + x2*x3 over F_4 have partials with a
        # common zero, the nucleus; only the section form rules it out
        X = surf(F4, "x0*x1 + x2*x3")
        H = very_transverse_anchor(X, 1)
        sliced = record_slices(monkeypatch)
        report = count_bad_superspaces(X, H, 1, seed=0)
        assert report.extras["transverse"] == 16 and not sliced

    def test_the_fallback_reaches_the_loop(self, monkeypatch):
        # no smooth hyperplane section certifies 2 of these 7 lines
        X = smooth_cubic(F2, 4, random.Random("left/2/4/2"))
        H = very_transverse_anchor(X, 1)
        staged = pencil_stage(X, H, 1)
        left = [E.basis for E, K in staged if K is None and certify.is_transverse(X, E)]
        assert len(staged) == 7 and len(left) == 2
        sliced = record_slices(monkeypatch)
        for seed in range(4):
            want = loop_superspace_extras(X, H, 1, seed)
            sliced.clear()
            assert count_bad_superspaces(X, H, 1, seed=seed).extras == want, seed
            assert set(sliced) == set(left)

    def test_the_first_pencil_certifies_every_candidate_in_a_smooth_member(self, monkeypatch):
        # only the first pencil is decided: later sections read as singular,
        # which certifies nothing.  Its axis is the first candidate, a
        # transverse line; every other line lies in one member, the plane it
        # spans with the axis, and the axis in all of them
        X, P = surf(F13, FERMAT), pg.subspace_from_rows(F13, [E0])
        lines = list(pg.enumerate_superspaces(P, 1))
        axis = lines[0]
        assert certify.is_transverse(X, axis)
        empty, calls = certify._empty_loci, []

        def empty_loci(E, loci):
            calls.append(len(loci))
            return empty(E, loci) if len(calls) == 1 else [False] * len(loci)

        monkeypatch.setattr(certify, "_empty_loci", empty_loci)
        staged = certify.pencil_certificates(X, P, iter(lines))
        got = {E.basis: K is not None for E, K in staged}
        want = {
            L.basis: certify.is_transverse(X, L)
            and certify.is_transverse(X, pg.subspace_from_rows(F13, axis.basis + L.basis))
            for L in lines[1:]
        }
        want[axis.basis] = any(want.values())
        assert len(calls) >= 2 and got == want and got[axis.basis]

    def test_chunks_reuse_the_pencils(self, monkeypatch):
        X, P = surf(F13, FERMAT), pg.subspace_from_rows(F13, [E0])
        monkeypatch.setattr(certify, "_PENCIL_CHUNK", 16)
        decided = record_sections(monkeypatch)
        staged = pencil_stage(X, P, 1)
        assert_certificates_hold(X, P, staged)
        assert sum(K is not None for _, K in staged) == 174
        assert len(decided) == len(set(decided)) <= 183

    def test_a_section_over_the_kernel_cap_is_not_built(self, monkeypatch):
        # a plane section's Jacobian Macaulay matrix of a cubic surface is
        # 18 x 15: under a cap of 200 codes no section is built, every line
        # goes to the loop, and nothing raises that the loop would not
        F = gf.field_create(5)
        X = smooth_cubic(F, 4, random.Random(f"superspaces/{F.order}/4"))
        H = very_transverse_anchor(X, 1)
        want = [count_bad_superspaces(X, H, 1, seed=s).extras for s in range(2)]
        monkeypatch.setattr(poly, "KERNEL_ELEMENTS", 200)
        decided, sliced = record_sections(monkeypatch), record_slices(monkeypatch)
        assert all(K is None for _, K in pencil_stage(X, H, 1))
        got = [count_bad_superspaces(X, H, 1, seed=s).extras for s in range(2)]
        assert got == want and not decided
        assert len(set(sliced)) == want[0]["transverse"]


# ---------------------------------------------------------------------------
# The census chunk path against the one it replaced: sliced tangency loci
# built as SchemeSpecs by _random_slices and their squares read from them,
# kept verbatim from certify (up to module prefixes, and the Macaulay helpers
# now taking degrees), recording its sliced schemes and square hits.  Its
# slices are substituted away one level at a time, and its squares are built
# by the dict-row Macaulay builders (macaulay_reference).


def ref_random_slices(S, t, rng):
    E = gf.extension_with(S.field, certify._LV_MIN_FIELD)
    cur, slices = S, []
    for _ in range(t + 1):
        while True:
            row = tuple(rng.randrange(E.order) for _ in range(cur.nvars))
            if any(row):
                break
        slices.append(row)
        cur = certify._slice_by(cur, row, E)
    return tuple(slices), cur


def ref_very_transverse_verdicts(X, subspaces, rng, record):
    if not certify.ensure_smooth(X):
        raise ValueError("very-transversality is defined for smooth X only")
    subspaces = iter(subspaces)
    while chunk := list(itertools.islice(subspaces, certify._VERDICT_CHUNK)):
        transverse = [certify.is_transverse(X, E) for E in chunk]
        sliced = {
            i: ref_random_slices(
                locus.tangency_locus(X, E), X.ambient - E.dim - 2, rng
            )[1]
            for i, E in enumerate(chunk)
            if transverse[i] and E.dim < X.ambient - 1
        }
        hits = dict(zip(sliced, ref_square_spans_many(list(sliced.values()))))
        record += [(scheme_key(sliced[i]), hits[i]) for i in sliced]
        for i, E in enumerate(chunk):
            if not transverse[i]:
                yield E, "no", "not-transverse"
            elif i not in sliced:
                yield E, "yes", "direct"
            elif hits[i] or certify.macaulay_is_empty(sliced[i]):
                yield E, "yes", "las-vegas"
            else:
                yield (E, *certify.decide_very_transverse(X, E, rng))


def ref_square_spans_many(schemes) -> list:
    out = [False] * len(schemes)
    groups = {}
    for i, S in enumerate(schemes):
        gens = S.nonzero_gens()
        if len(gens) < S.nvars or any(g.degree == 0 for g in gens):
            continue
        degs = [g.degree for g in gens]
        N = certify._macaulay_bound(degs, S.ambient)
        nrows, ncols = certify._macaulay_size(degs, S.nvars, N)
        if (
            nrows * ncols > certify._MAX_MACAULAY_ENTRIES
            or ncols * ncols > poly.KERNEL_ELEMENTS
        ):
            continue
        key = (S.field, S.nvars, N, tuple(degs))
        groups.setdefault(key, []).append(i)
    for (E, nvars, N, degs), members in groups.items():
        square = ref._square_keys(degs, nvars, N)
        step = poly.KERNEL_ELEMENTS // len(square) ** 2
        for s in range(0, len(members), step):
            part = members[s : s + step]
            stack = E.arrays().array([
                ref._macaulay_rows(
                    schemes[i].nonzero_gens(), nvars, N, square, True
                )
                for i in part
            ])
            for i, hit in zip(part, linalg.full_rank_many(E, stack).tolist()):
                out[i] = hit
    return out


def scheme_key(S):
    """The generators' degrees and coefficients, in monomials_of_degree order."""
    return tuple(
        (g.degree, tuple(g.terms.get(m, 0) for m in poly.monomials(S.nvars, g.degree)))
        for g in S.gens
    )


# (field, number of variables, r): a cubic threefold over F_5 whose lines
# through a point take two slice levels each, and whose planes through a line
# are transverse by is_transverse; a cubic surface over F_3, too small a field
# for the batched transversality; one over F_4, in xor
CHUNK_PATH_CASES = [((5, 1), 5, 1), ((5, 1), 5, 2), ((3, 1), 4, 1), ((2, 2), 4, 1)]


class TestChunkPathAgainstTheSchemePath:
    @pytest.mark.parametrize("field, nvars, r", CHUNK_PATH_CASES)
    def test_same_slices_hits_verdicts_and_stream(self, field, nvars, r, monkeypatch):
        F = gf.field_create(*field)
        X = smooth_cubic(F, nvars, random.Random(f"chunks/{F.order}/{nvars}"))
        H = very_transverse_anchor(X, r)
        tested = []
        batch = certify._square_spans_many

        def square_spans_many(E, loci):
            hits = batch(E, loci)
            for (k, gens), hit in zip(loci, hits):
                S = certify._locus_scheme(E, k, gens)
                tested.append((scheme_key(S), hit))
            return hits

        monkeypatch.setattr(certify, "_square_spans_many", square_spans_many)
        methods = set()
        for seed in range(2):
            tested.clear()
            record = []
            ours, theirs = random.Random(seed), random.Random(seed)
            got = list(certify.very_transverse_verdicts(
                X, pg.enumerate_superspaces(H, r), ours
            ))
            want = list(ref_very_transverse_verdicts(
                X, pg.enumerate_superspaces(H, r), theirs, record
            ))
            assert got == want
            assert tested == record  # the sliced coefficients and the hits
            assert ours.getstate() == theirs.getstate()
            methods.update(m for _, _, m in got)
        assert {"not-transverse", "las-vegas"} <= methods
        assert any(hit for _, hit in tested)

    def test_a_contraction_zero_before_restriction_is_dropped(self):
        # on x0^2 + x1*x2 + x3*x4 over F_4 the contraction by e0 is d0F = 0,
        # so tangency_locus drops it for every line through e0; the batched
        # loci must drop it too
        F = gf.field_create(2, 2)
        X = Hypersurface(poly.parse_form(F, "x0^2 + x1*x2 + x3*x4"))
        assert certify.ensure_smooth(X)
        e0 = pg.point_subspace(pg.ProjectivePoint(F, (1, 0, 0, 0, 0)))
        lines = list(pg.enumerate_superspaces(e0, 1))
        ours, theirs = random.Random(0), random.Random(0)
        E, loci = certify._sliced_tangency_loci(X, lines, ours)
        got = [scheme_key(certify._locus_scheme(E, *locus_)) for locus_ in loci]
        want = [
            scheme_key(ref_random_slices(locus.tangency_locus(X, L), 1, theirs)[1])
            for L in lines
        ]
        assert got == want
        assert ours.getstate() == theirs.getstate()
        assert {len(key) for key in got} == {2}  # X and one contraction

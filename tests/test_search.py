import json
import random

import pytest

from transverse import certify, config, gf, linalg, locus, poly, projgeom as pg, search
from transverse.locus import Hypersurface
from transverse.search import (
    Flag,
    check_inequality_lemmas,
    find_reduced_hyperplane,
    find_reduced_plane_section_chain,
    find_transverse_line_reduced,
    find_very_transverse_flag,
    required_q,
)

F3 = gf.field_create(3)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F9 = gf.field_create(3, 2)
F13 = gf.field_create(13)


def surf(field, text, nvars=None):
    return Hypersurface(poly.parse_form(field, text, nvars=nvars))


class TestFirstHitCaps:
    def test_flag_level_zero_returns_at_first_point_under_a_small_cap(self):
        # P^3(F_5) has 156 points, more than the cap, but the level-0 scan
        # stops at the first one; the point it visits is charged
        X = surf(F5, "x0^3 + x1^3 + x2^3 + x3^3")
        with config.caps_scope(config.Caps(max_enum=50)):
            out = find_very_transverse_flag(X, 0, seed=0)
        first = pg.ProjectivePoint(F5, (1, 0, 0, 0))
        assert out.found.levels[0] == pg.point_subspace(first)
        assert out.tested == 1
        with config.caps_scope(config.Caps(max_enum=0)):
            with pytest.raises(config.CapExceededError, match="point enumeration"):
                find_very_transverse_flag(X, 0, seed=0)


class TestRequiredQ:
    def test_worked_thresholds(self):
        assert required_q(3, 3, 1) == 12
        assert required_q(5, 3, mode="reduced-line") == 9
        assert required_q(4, 3, mode="reduced-hyperplane") == 3
        assert required_q(3, 4, mode="reduced-hyperplane") == 13

    def test_point_case_collapses_to_nd(self):
        assert required_q(4, 3, 0) == 12
        assert required_q(6, 5, 0) == 30

    def test_small_degree_constants(self):
        assert required_q(4, 2, 2) == 2
        assert required_q(4, 1, 2) == 1

    def test_reduced_line_ceiling_is_exact(self):
        for d in range(2, 9):
            assert required_q(2, d, mode="reduced-line") == 3 * d * (d - 1) // 2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            required_q(3, 3, 1, mode="nonsense")
        with pytest.raises(ValueError):
            required_q(3, 3, 3)  # r out of range
        with pytest.raises(ValueError):
            required_q(3, 0, 1)
        with pytest.raises(ValueError):
            required_q(2, 3, mode="reduced-hyperplane")


class TestReducedHyperplane:
    def test_two_planes_admit_reduced_section(self):
        X = surf(F5, "x0*x1", nvars=4)
        out = find_reduced_hyperplane(X, seed=0)
        assert out.succeeded()
        assert certify.is_reduced_section(X, out.found)
        assert out.found.dim == 2
        assert out.gate["satisfied"]

    def test_q_equal_d_guarantee_in_p4(self):
        X = surf(F3, "x0*x1*x2", nvars=5)
        out = find_reduced_hyperplane(X, seed=0)
        assert out.gate["threshold"] == 3
        assert out.gate["satisfied"]
        assert out.succeeded()
        assert certify.is_reduced_section(X, out.found)

    def test_deterministic(self):
        X = surf(F5, "x0*x1", nvars=4)
        a = find_reduced_hyperplane(X, seed=4)
        b = find_reduced_hyperplane(X, seed=4)
        assert a.found.basis == b.found.basis
        assert a.tested == b.tested

    def test_rejects_bad_input(self):
        # p-th power: non-reduced is detected by the vanishing gradient
        with pytest.raises(ValueError):
            find_reduced_hyperplane(surf(F5, "x0^5 + x1^5", nvars=4))
        with pytest.raises(ValueError):
            find_reduced_hyperplane(surf(F5, "x0", nvars=4))
        with pytest.raises(ValueError):
            find_reduced_hyperplane(surf(F5, "x0*x1", nvars=3))


class TestPlaneChain:
    def test_quadric_chain_to_plane(self):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        out = find_reduced_plane_section_chain(Q, 2, seed=0)
        assert out.succeeded()
        T = out.found
        assert T.dim == 2
        assert [H.dim for H in out.chain] == [2]
        assert certify.is_reduced_section(Q, T)

    def test_two_step_chain_in_p4(self):
        X = surf(F9, "x0*x1*x2", nvars=5)
        out = find_reduced_plane_section_chain(X, 2, seed=0)
        assert out.succeeded()
        assert [H.dim for H in out.chain] == [3, 2]
        assert pg.subspace_le(out.chain[1], out.chain[0])
        assert certify.is_reduced_section(X, out.found)

    def test_single_step_matches_hyperplane_search(self):
        X = surf(F5, "x0*x1", nvars=4)
        chain = find_reduced_plane_section_chain(X, 2, seed=1)
        single = find_reduced_hyperplane(X, seed=1)
        assert chain.found.basis == single.found.basis

    def test_target_range_validated(self):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        with pytest.raises(ValueError):
            find_reduced_plane_section_chain(Q, 1)
        with pytest.raises(ValueError):
            find_reduced_plane_section_chain(Q, 3)


class TestTransverseLine:
    def test_conic_line_found_quickly(self):
        C = surf(F5, "x0*x2 + 4*x1^2")
        out = find_transverse_line_reduced(C, seed=0)
        assert out.succeeded()
        assert certify.is_transverse(C, out.found)
        assert out.gate["satisfied"]  # q = 5 >= ceil(3/2 * 2) = 3

    def test_three_concurrent_lines_over_f9(self):
        X = surf(F9, "x0^2*x1 + x0*x1^2", nvars=3)
        assert certify.is_reduced_form(X.form)
        out = find_transverse_line_reduced(X, seed=0)
        assert out.gate["threshold"] == 9
        assert out.gate["satisfied"]
        assert out.succeeded()
        L = out.found
        assert certify.is_transverse(X, L)
        # the returned line misses the common point of the three lines
        common = pg.ProjectivePoint(F9, (0, 0, 1))
        assert common not in pg.subspace_points(L)

    def test_two_planes_line_meets_two_distinct_points(self):
        X = surf(F7, "x0*x1", nvars=4)
        out = find_transverse_line_reduced(X, seed=0)
        L = out.found
        G = certify.section_form(X, L)
        assert G.degree == 2
        assert poly.binary_squarefree(G)
        assert certify.is_transverse(X, L)

    def test_degree_one_returns_line_off_hyperplane(self):
        X = surf(F5, "x0 + 2*x1", nvars=4)
        out = find_transverse_line_reduced(X)
        assert out.succeeded()
        assert certify.is_transverse(X, out.found)

    @pytest.mark.parametrize("field", [F5, gf.field_create(2, 2), F9], ids=str)
    def test_lines_of_plane_match_the_kernel_of_each_dual_point(self, field):
        # reference: the kernel of each normalized dual point, lifted to the
        # ambient space through the plane's basis, in enumeration order
        rng = random.Random(3)
        while True:
            rows = [[rng.randrange(field.order) for _ in range(5)] for _ in range(3)]
            if linalg.rank(field, rows) == 3:
                break
        T = pg.subspace_from_rows(field, rows)
        ref = [
            pg.subspace_from_rows(field, search._ambient_rows(
                field, linalg.kernel(field, [list(w)], 3), T.basis))
            for w in pg.enumerate_point_codes(2, field)
        ]
        assert list(search._lines_of_plane(T)) == ref

    def test_deterministic(self):
        C = surf(F5, "x0*x2 + 4*x1^2")
        a = find_transverse_line_reduced(C, seed=9)
        b = find_transverse_line_reduced(C, seed=9)
        assert a.found.basis == b.found.basis


class TestVeryTransverseFlag:
    def test_cubic_surface_over_f13(self):
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        out = find_very_transverse_flag(X, 1, seed=0)
        assert out.gate["threshold"] == 12
        assert out.gate["satisfied"]
        flag = out.found
        assert isinstance(flag, Flag)
        assert [H.dim for H in flag.levels] == [0, 1]
        L = flag.top
        assert certify.is_transverse(X, L)
        assert certify.is_very_transverse(X, L)

    def test_quadric_full_flag_any_q(self):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        out = find_very_transverse_flag(Q, 2, seed=0)
        assert out.succeeded()
        assert [H.dim for H in out.found.levels] == [0, 1, 2]
        assert out.gate["caveat"] == "outside stated hypothesis"
        for H in out.found.levels:
            assert certify.is_transverse(Q, H)

    def test_r_zero_returns_point_off(self):
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        out = find_very_transverse_flag(X, 0, seed=0)
        P = out.found.levels[0]
        assert P.dim == 0
        codes = next(iter(pg.subspace_points(P))).coords
        assert poly.form_eval_codes(X.form, codes, F13) != 0

    def test_level_zero_gate_is_the_point_threshold(self):
        out = find_very_transverse_flag(surf(F7, "x0^3 + x1^3 + x2^3"), 0, seed=0)
        assert out.gate["threshold"] == 2 * 3
        assert out.gate["satisfied"]
        assert out.succeeded()

    def test_level_zero_below_gate_still_finds_a_point(self):
        # q = 5 < 2*3: no guarantee claimed, but the cubic does not contain
        # every rational point, so a point off it still turns up
        out = find_very_transverse_flag(surf(F5, "x0^3 + x1^3 + x2^3"), 0, seed=0)
        assert out.gate["threshold"] == 6
        assert not out.gate["satisfied"]
        assert out.succeeded()

    def test_level_zero_exhausts_a_plane_filling_curve(self):
        # a smooth quartic through all 7 points of P^2(F_2): below the gate
        # (2 < 2*4) the scan runs out of points without a violation
        F2 = gf.field_create(2)
        X = surf(F2, "x0^3*x2 + x0^2*x1^2 + x0*x1^3 + x0*x2^3 + x1^2*x2^2 + x1*x2^3")
        assert all(
            poly.form_eval_codes(X.form, P.coords, F2) == 0
            for P in pg.enumerate_points(2, F2)
        )
        out = find_very_transverse_flag(X, 0, seed=0)
        assert out.found is None
        assert out.note == "level 0 exhausted"
        assert out.tested == pg.count_points(2, F2)
        assert not out.gate["satisfied"]

    def test_nesting_and_certificates(self):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        flag = find_very_transverse_flag(Q, 2, seed=3).found
        for s in range(1, 3):
            assert pg.subspace_le(flag.levels[s - 1], flag.levels[s])
        assert [c["dim"] for c in flag.certificates] == [0, 1, 2]
        # the hyperplane level only ever claims plain transversality
        assert flag.certificates[-1]["predicate"] == "transverse"
        assert flag.certificates[1]["predicate"] == "very-transverse"

    def test_singular_target_rejected(self):
        with pytest.raises(ValueError):
            find_very_transverse_flag(surf(F5, "x1^2*x2 - x0^3"), 1)

    def test_below_gate_is_best_effort(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3 + x3^3")
        out = find_very_transverse_flag(X, 1, seed=0)
        assert not out.gate["satisfied"]
        if out.succeeded():
            assert certify.is_very_transverse(X, out.found.top)

    def test_explicit_caps_reach_certification(self):
        # F_13 is within 2^5, but the Las-Vegas slices need F_169
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        small = config.Caps(max_field_bits=5)
        with pytest.raises(config.CapExceededError, match=r"13\^2 exceeds 2\^5"):
            find_very_transverse_flag(X, 2, seed=0, caps=small)
        assert config.current_caps() is not small

    def test_deterministic(self):
        X = surf(F13, "x0^3 + x1^3 + x2^3 + x3^3")
        a = find_very_transverse_flag(X, 1, seed=5)
        b = find_very_transverse_flag(X, 1, seed=5)
        assert [H.basis for H in a.found.levels] == [H.basis for H in b.found.levels]


class TestInequalityLemmas:
    def test_worked_points(self):
        rep = check_inequality_lemmas([(4, 3, 2, 24), (3, 3, 1, 12)])
        assert rep["ok"]
        c0 = rep["points"][0]["checks"]["pool-dominates-bad"]
        assert (c0["lhs"], c0["rhs"]) == (576, 300)
        c1 = rep["points"][1]["checks"]["plane-level"]
        assert (c1["lhs"], c1["rhs"]) == (157, 90)

    def test_descent_threshold_arithmetic(self):
        # the step-(r-1) threshold derived from the step-r gate
        assert required_q(5, 3, 1) == 24
        rep = check_inequality_lemmas([(5, 3, 2, 36)])
        c = rep["points"][0]["checks"]["gate-descends"]
        assert c["rhs"] == 24
        assert c["holds"]

    def test_tight_hyperplane_case(self):
        rep = check_inequality_lemmas([(6, 5, 5, 5120)])
        c = rep["points"][0]["checks"]["hyperplane-level"]
        assert (c["lhs"], c["rhs"], c["holds"]) == (5121, 5120, True)

    def test_aggregate_pool_inequality(self):
        # pool 24^2+24+1 against tangent 300 plus dual-contained 24
        rep = check_inequality_lemmas([(4, 3, 2, 24)])
        c = rep["points"][0]["checks"]["full-pool-beats-bad"]
        assert (c["lhs"], c["rhs"], c["holds"]) == (601, 324, True)

    def test_broad_grid_has_no_counterexamples(self):
        qs = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 64, 81, 125, 169,
              625, 5120, 5121)
        grid = [
            (n, d, r, q)
            for n in range(2, 8)
            for d in range(2, 7)
            for r in range(n)
            for q in qs
        ]
        rep = check_inequality_lemmas(grid)
        assert rep["ok"], rep["counterexamples"][:3]

    def test_degree_two_points_skip_checks(self):
        rep = check_inequality_lemmas([(3, 2, 1, 2)])
        assert rep["points"][0]["checks"] == {}
        assert rep["ok"]

    def test_junk_grid_rejected(self):
        with pytest.raises(ValueError):
            check_inequality_lemmas([(3, 3, 5, 7)])


class TestOutcomeSerialization:
    def test_every_kind_serializes_to_json(self):
        C = surf(F5, "x0*x2 + 4*x1^2")
        X = surf(F5, "x0*x1", nvars=4)
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        outs = [
            find_reduced_hyperplane(X, seed=0),
            find_reduced_plane_section_chain(Q, 2, seed=0),
            find_transverse_line_reduced(C, seed=0),
            find_very_transverse_flag(Q, 2, seed=0),
        ]
        for out in outs:
            blob = json.dumps(out.to_dict())
            assert json.loads(blob)["kind"] == out.kind

    def test_flag_round_trip_fields(self):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        d = find_very_transverse_flag(Q, 1, seed=0).to_dict()
        assert d["found"]["levels"][0].count(",") == 3
        assert d["gate"]["mode"] == "very-transverse"
        assert "steps" in d

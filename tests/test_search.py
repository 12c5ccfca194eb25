import collections
import itertools
import json
import random

import pytest

import point_reference as points
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

    def test_reduced_hyperplane_scan_is_charged_only_for_what_it_visits(self):
        # the first reduced hyperplane is the 4th, inside the scan's third
        # chunk (spans 4 to 7); the three hyperplanes after it are not charged
        X = surf(F3, "x0^3 + 2*x0*x3^2 + x1^2*x2")
        out = find_reduced_hyperplane(X, seed=0)
        assert out.tested == 4
        with config.caps_scope(config.Caps(max_enum=4)):
            assert find_reduced_hyperplane(X, seed=0).found == out.found
        with config.caps_scope(config.Caps(max_enum=3)):
            with pytest.raises(config.CapExceededError, match="point enumeration"):
                find_reduced_hyperplane(X, seed=0)


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
        assert common not in points.subspace_points(L)

    def test_two_planes_line_meets_two_distinct_points(self):
        X = surf(F7, "x0*x1", nvars=4)
        out = find_transverse_line_reduced(X, seed=0)
        L = out.found
        G = poly.substitute_rows(X.form, L.basis)
        assert G.degree == 2
        assert poly.binary_squarefree(G)
        assert certify.is_transverse(X, L)

    def test_degree_one_returns_line_off_hyperplane(self):
        X = surf(F5, "x0 + 2*x1", nvars=4)
        out = find_transverse_line_reduced(X)
        assert out.succeeded()
        assert certify.is_transverse(X, out.found)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("field", [F5, gf.field_create(2, 2), F9], ids=str)
    def test_hyperplanes_of_match_the_kernel_of_each_dual_point(self, field, dim):
        # reference: the kernel of each normalized dual point, lifted to the
        # ambient space through T's basis, in enumeration order; subspaces
        # compare by basis, so the helper's rows are already the RREF basis
        rng = random.Random(3)
        while True:
            rows = [[rng.randrange(field.order) for _ in range(6)]
                    for _ in range(dim + 1)]
            if linalg.rank(field, rows) == dim + 1:
                break
        T = pg.subspace_from_rows(field, rows)
        ref = [
            pg.subspace_from_rows(field, _ref_ambient_rows(
                field, linalg.kernel(field, [list(w)], dim + 1), T.basis))
            for w in pg.enumerate_point_codes(dim, field)
        ]
        assert list(search._hyperplanes_of(T)) == ref

    def test_deterministic(self):
        C = surf(F5, "x0*x2 + 4*x1^2")
        a = find_transverse_line_reduced(C, seed=9)
        b = find_transverse_line_reduced(C, seed=9)
        assert a.found.basis == b.found.basis


# ---------------------------------------------------------------------------
# The reduced descent as it stood when each level built its section as a new
# Hypersurface and searched it with find_reduced_hyperplane, kept verbatim
# as the reference for the differential tests below.


def _ref_require_reduced_input(X, rng):
    if X.degree < 2:
        raise ValueError("search needs degree at least 2")
    if not certify.is_reduced_form(X.form, rng=rng):
        raise ValueError("hypersurface must be reduced")


def _ref_find_reduced_hyperplane(X, seed=None):
    rng = random.Random(0 if seed is None else seed)
    n = X.ambient
    if n < 3:
        raise ValueError("hyperplane search needs ambient dimension >= 3")
    _ref_require_reduced_input(X, rng)
    gate = search.gate_status(
        "reduced-hyperplane",
        required_q(n, X.degree, mode="reduced-hyperplane"),
        X.field.order,
    )
    tested = 0
    rej = {"improper": 0, "not_reduced": 0}
    for H in pg.all_hyperplanes(n, X.field):
        tested += 1
        try:
            if certify.is_reduced_section(X, H, rng=rng):
                return search.SearchOutcome("hyperplane", H, tested, rej, gate, seed)
            rej["not_reduced"] += 1
        except config.NotProperError:
            rej["improper"] += 1
    if gate["satisfied"]:
        raise config.TheoremViolationError(
            "no reduced hyperplane section although "
            f"q = {X.field.order} >= {gate['threshold']}"
        )
    return search.SearchOutcome("hyperplane", None, tested, rej, gate, seed)


def _ref_ambient_rows(field, rows, basis):
    width = len(basis[0])
    out = []
    for row in rows:
        acc = [0] * width
        for c, brow in zip(row, basis):
            if c:
                acc = field.add_scaled(acc, c, brow)
        out.append(acc)
    return out


def _ref_find_reduced_plane_section_chain(X, r, seed=None):
    n = X.ambient
    if not 2 <= r <= n - 1:
        raise ValueError("need 2 <= r <= n-1")
    rng = random.Random(0 if seed is None else seed)
    _ref_require_reduced_input(X, rng)
    gate = search.gate_status(
        "reduced-chain",
        required_q(n, X.degree, mode="reduced-line"),
        X.field.order,
    )
    current = X
    basis = tuple(
        tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n + 1)
    )
    chain = []
    tested = 0
    rej = {"improper": 0, "not_reduced": 0}
    while current.ambient > r:
        inner = _ref_find_reduced_hyperplane(current, seed=seed)
        tested += inner.tested
        for k in rej:
            rej[k] += inner.rejections.get(k, 0)
        if not inner.succeeded():
            return search.SearchOutcome(
                "plane-chain", None, tested, rej, gate, seed,
                chain=tuple(chain),
                note=f"stalled in ambient dimension {current.ambient}",
            )
        H = inner.found
        basis = tuple(
            tuple(row) for row in _ref_ambient_rows(X.field, H.basis, basis)
        )
        chain.append(pg.subspace_from_rows(X.field, [list(b) for b in basis]))
        current = locus.Hypersurface(poly.substitute_rows(current.form, H.basis))
    T = chain[-1]
    if not certify.is_reduced_section(X, T, rng=rng):
        raise RuntimeError("chain section failed direct re-certification")
    return search.SearchOutcome(
        "plane-chain", T, tested, rej, gate, seed, chain=tuple(chain)
    )


def _ref_lines_of_plane(T):
    F = T.field
    for H in pg.all_hyperplanes(2, F):
        yield pg.subspace_from_rows(F, _ref_ambient_rows(F, H.basis, T.basis))


def _ref_find_transverse_line_reduced(X, seed=None):
    n = X.ambient
    if n < 2:
        raise ValueError("lines need ambient dimension >= 2")
    gate = search.gate_status(
        "reduced-line",
        required_q(n, X.degree, mode="reduced-line"),
        X.field.order,
    )
    tested = 0
    rej = {"not_transverse": 0}
    if X.degree == 1:
        for L in pg.all_lines(n, X.field):
            tested += 1
            if certify.is_transverse(X, L):
                return search.SearchOutcome("line", L, tested, rej, gate, seed)
            rej["not_transverse"] += 1
        raise config.TheoremViolationError("hyperplane with no transverse line")
    rng = random.Random(0 if seed is None else seed)
    _ref_require_reduced_input(X, rng)
    chain = ()
    if n == 2:
        candidates = pg.all_lines(2, X.field)
    else:
        descent = _ref_find_reduced_plane_section_chain(X, 2, seed=seed)
        tested += descent.tested
        if not descent.succeeded():
            return search.SearchOutcome(
                "line", None, tested, rej, gate, seed,
                note="no reduced plane section reached: " + descent.note,
            )
        chain = descent.chain
        candidates = _ref_lines_of_plane(descent.found)
    for L in candidates:
        tested += 1
        if certify.is_transverse(X, L):
            return search.SearchOutcome("line", L, tested, rej, gate, seed, chain=chain)
        rej["not_transverse"] += 1
    if gate["satisfied"]:
        raise config.TheoremViolationError(
            f"no transverse line although q = {X.field.order} "
            f">= {gate['threshold']}"
        )
    return search.SearchOutcome("line", None, tested, rej, gate, seed, chain=chain)


NEW = (
    find_transverse_line_reduced,
    find_reduced_hyperplane,
    find_reduced_plane_section_chain,
)
REF = (
    _ref_find_transverse_line_reduced,
    _ref_find_reduced_hyperplane,
    _ref_find_reduced_plane_section_chain,
)


def _verdicts(searches, X, r, seed):
    """to_dict() of each reduced search on X (the line search, then the
    hyperplane and chain searches from P^3 on), or the type and message of
    the error it raised."""
    line, hyperplane, chain = searches
    calls = [(line, (X, seed))]
    if X.ambient >= 3:
        calls += [(hyperplane, (X, seed)), (chain, (X, r, seed))]
    out = []
    for fn, args in calls:
        try:
            out.append(fn(*args).to_dict())
        except (ValueError, config.TheoremViolationError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


FERMAT_THREEFOLD = "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"


class TestReducedDescentMatchesReference:
    @pytest.mark.parametrize("p, m, text, nvars, r, seed", [
        (3, 2, "x0*x1*x2 + (t)*x3^3 + x4^2*x0", 5, 2, 1729),
        (7, 1, FERMAT_THREEFOLD, 5, 2, 1729),
        (2, 2, "x0*x1*x2", 6, 2, 0),
        (2, 2, "x0^2*x1 + x2^3 + x3*x4*x5", 6, 3, 3),
        (5, 1, "x0*x1*x2 + x3*x4*x5", 7, 2, 1),
        (5, 1, "x0*x1 + x2*x3 + x4*x5 + x6^2", 7, 3, 2),
        (7, 1, "x0*x1*x2*x3", 6, 2, 5),
        (3, 2, "x0*x1 + x2^2", 5, 2, 0),
        (5, 1, "x0^3 + x1^3 + x2^3 + x0*x1*x2", 3, 2, 4),
        (5, 1, "x0^5 + x1^5", 5, 2, 0),  # a p-th power: refused
        # a plane holding the first 9 lines: degree 1 scans every line of
        # P^3, and the reduced descent refuses it
        (3, 2, "x2", 4, 2, 1729),
    ])
    def test_outcomes_match(self, p, m, text, nvars, r, seed):
        X = surf(gf.field_create(p, m), text, nvars=nvars)
        assert _verdicts(NEW, X, r, seed) == _verdicts(REF, X, r, seed)

    def test_a_candidate_is_rejected_on_each_level(self):
        X = surf(F9, "x0*x1*x2 + (t)*x3^3 + x4^2*x0")
        top = find_reduced_hyperplane(X, seed=1729)
        assert (top.tested, top.rejections["not_reduced"]) == (2, 1)
        out = find_reduced_plane_section_chain(X, 2, seed=1729)
        assert [H.dim for H in out.chain] == [3, 2]
        assert out.tested == 4
        assert out.rejections == {"improper": 0, "not_reduced": 2}

    def test_stall_below_the_top_level(self):
        # x0^15 plus the product of the 15 linear forms of P^3(F_2) in
        # x1..x4: the first hyperplane x0 = 0 has that product as its
        # reduced section, which contains every hyperplane of it
        F2 = gf.field_create(2)
        G = poly.parse_form(F2, "x0^15", nvars=5)
        prod = poly.parse_form(F2, "1", nvars=5)
        for w in itertools.product(range(2), repeat=4):
            if any(w):
                text = " + ".join(f"x{i + 1}" for i, c in enumerate(w) if c)
                prod = prod * poly.parse_form(F2, text, nvars=5)
        X = Hypersurface(G + prod)
        got = _verdicts(NEW, X, 2, 0)
        assert got == _verdicts(REF, X, 2, 0)
        assert got[2]["note"] == "stalled in ambient dimension 3"
        assert got[2]["rejections"] == {"improper": 15, "not_reduced": 0}

    def test_exhausted_level_above_its_gate_raises_the_same_error(
        self, monkeypatch
    ):
        # every candidate below the top level is refused, uncertified; over
        # F_7 the reduced-hyperplane gate of P^3, d(d-1)+1 = 7, is met.  The
        # reference sees the same refusals through is_reduced_section
        real = certify.reduced_sections

        def refuse_below_top(X, subspaces, rng=None):
            for H in subspaces:
                if H.dim >= 3:
                    yield from real(X, [H], rng)
                else:
                    yield H, False

        monkeypatch.setattr(certify, "reduced_sections", refuse_below_top)
        X = surf(F7, FERMAT_THREEFOLD)
        got = _verdicts(NEW, X, 2, 0)
        assert got == _verdicts(REF, X, 2, 0)
        error = ("TheoremViolationError",
                 "no reduced hyperplane section although q = 7 >= 7")
        assert got[0] == got[2] == error

    def test_x_is_certified_once_and_each_level_once(self, monkeypatch):
        calls = collections.Counter()
        for name in ("is_reduced_form", "reduced_sections"):
            real = getattr(certify, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(certify, name, counted)
        out = find_transverse_line_reduced(surf(F7, FERMAT_THREEFOLD), seed=0)
        assert len(out.chain) == 2
        # one scan per level: two hyperplanes, then the lines of the plane
        assert calls == {"is_reduced_form": 1, "reduced_sections": 3}


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
        codes = next(iter(points.subspace_points(P))).coords
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

    def test_wide_quadric_restricts_once_per_attempt(self, monkeypatch):
        # r = 0 on a 200-variable quadric: a point's tangency locus is cut by
        # 198 hyperplanes per Las-Vegas attempt, and its generators, X and
        # the point's one contraction, are restricted by one kernel call, at
        # the composed slice basis; restricting level by level made 198
        # restrictions per generator and took minutes, and restricting all
        # 200 partials would make 201 forms a call
        X = surf(F5, " + ".join(f"x{i}^2" for i in range(200)))
        restrictions, attempts = [], []
        restrict, slices = poly.restrict_many, certify._slice_basis

        def counted_restrict(forms, bases, E):
            restrictions.append((len(forms), len(bases), len(bases[0])))
            return restrict(forms, bases, E)

        def counted_slices(E, nvars, levels, rng):
            attempts.append((nvars, levels))
            return slices(E, nvars, levels, rng)

        monkeypatch.setattr(poly, "restrict_many", counted_restrict)
        monkeypatch.setattr(certify, "_slice_basis", counted_slices)
        out = find_very_transverse_flag(X, 0, seed=0)
        assert out.succeeded()
        assert attempts and set(attempts) == {(200, 198)}
        # is_transverse restricts X once to each point tested, and every
        # attempt restricts all its generators in one call, to the
        # 2-dimensional slice
        assert len(restrictions) == out.tested + len(attempts)
        assert restrictions.count((1, 1, 1)) == out.tested
        assert [c for c in restrictions if c[2] == 2] == [(2, 1, 2)] * len(attempts)

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
        with pytest.raises(ValueError):
            search.inequality_counterexamples(iter([(3, 3, 5, 7)]))

    def test_streamed_counterexamples_match_the_rows(self, monkeypatch):
        row_of = search._inequality_row

        def failing_descent(*point):
            # a transcription error to report: the descent check fails
            row = row_of(*point)
            if "gate-descends" in row["checks"]:
                row["checks"]["gate-descends"]["holds"] = False
            return row

        monkeypatch.setattr(search, "_inequality_row", failing_descent)
        grid = [(n, d, r, q) for n in range(2, 6) for d in range(2, 5)
                for r in range(n) for q in (2, 9, 64, 200)]
        bad = check_inequality_lemmas(grid)["counterexamples"]
        assert bad and all(c["check"] == "gate-descends" for c in bad)
        assert search.inequality_counterexamples(iter(grid)) == bad


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

import collections
import functools
import importlib.util
import itertools
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import macaulay_reference as ref
import point_reference as points
import very_transverse_reference as vt_ref
from transverse import audit, certify, config, gf, linalg, locus, poly, projgeom as pg
from transverse import search
from transverse.certify import (
    classify_very_transverse,
    decide_very_transverse,
    dim_at_most_exact,
    dim_upper_bound,
    ensure_smooth,
    is_empty_projective,
    is_reduced_form,
    is_reduced_section,
    is_transverse,
    is_very_transverse,
    macaulay_is_empty,
    scheme_points_upto,
    settle_very_transverse,
)
from transverse.locus import Hypersurface, SchemeSpec

F3 = gf.field_create(3)
F5 = gf.field_create(5)
BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def forms(field, texts, nvars):
    return [poly.parse_form(field, s, nvars=nvars) for s in texts]


def scheme(field, texts, nvars):
    return SchemeSpec(field, nvars, forms(field, texts, nvars))


def surf(field, text, nvars=None):
    return Hypersurface(poly.parse_form(field, text, nvars=nvars))


def singular_scheme(X):
    """Sing(X): the form plus its nonzero partials."""
    gens = [X.form] + [g for g in poly.form_partials(X.form) if not g.is_zero()]
    return SchemeSpec(X.field, X.ambient + 1, gens)


@functools.lru_cache(maxsize=None)
def product_columns(nvars, N, deg):
    """For each multiplier of degree N - deg, the column of its product
    with each exponent vector of degree deg."""
    cols = {m: i for i, m in enumerate(poly.monomials_of_degree(nvars, N))}
    exps = list(poly.monomials_of_degree(nvars, deg))
    return [
        {e: cols[tuple(a + b for a, b in zip(e, mult))] for e in exps}
        for mult in poly.monomials_of_degree(nvars, N - deg)
    ]


def full_matrix_spans(gens, field, nvars, N):
    """The reference Macaulay test: every degree-N multiple of every
    generator in one matrix, built here from the exponent vectors."""
    ncols = math.comb(N + nvars - 1, nvars - 1)
    rows = []
    for g in gens:
        if g.degree > N:
            continue
        for index in product_columns(nvars, N, g.degree):
            row = [0] * ncols
            for e, c in g.terms.items():
                row[index[e]] = c
            rows.append(row)
    if len(rows) < ncols:
        return False
    return linalg.rank(field, rows, ncols=ncols) == ncols


def ladder_degree(S):
    """The reference emptiness test: the smallest N from the top generator
    degree to the bound N* (the r+1 largest degrees summed, minus r) whose
    full matrix spans, or None when none does."""
    gens = S.nonzero_gens()
    if any(g.degree == 0 for g in gens):
        return 0
    if len(gens) <= S.ambient:
        return None
    degs = sorted((g.degree for g in gens), reverse=True)
    n_star = sum(degs[: S.ambient + 1]) - S.ambient
    for N in range(degs[0], n_star + 1):
        if full_matrix_spans(gens, S.field, S.nvars, N):
            return N
    return None


def ladder_is_empty(S):
    return ladder_degree(S) is not None


def line_through(field, a, b):
    return pg.subspace_from_rows(field, [list(a), list(b)])


def random_form_through(field, nvars, degree, point, rng):
    """Random form of given degree vanishing at the normalized point."""
    lead = point.coords.index(1)
    mons = list(poly.monomials_of_degree(nvars, degree))
    while True:
        terms = {m: rng.randrange(field.order) for m in mons}
        total = 0
        for exps, c in terms.items():
            if not c:
                continue
            v = c
            for code, e in zip(point.coords, exps):
                if e:
                    v = 0 if code == 0 else field.mul(v, field.pow(code, e))
            total = field.add(total, v)
        fix = tuple(degree if i == lead else 0 for i in range(nvars))
        terms[fix] = field.sub(terms.get(fix, 0), total)
        f = poly.Form(field, nvars, degree, {m: c for m, c in terms.items() if c})
        if not f.is_zero():
            return f


class TestSchemePoints:
    def test_two_coordinate_cuts_leave_one_point(self):
        S = scheme(F5, ["x0", "x1"], 3)
        pts = scheme_points_upto(S, 2)
        assert pts == [pg.ProjectivePoint(F5, (0, 0, 1))]

    def test_nonsplit_conic_has_conjugate_degree_two_points(self):
        S = scheme(F3, ["x0^2 + x1^2"], 2)
        assert scheme_points_upto(S, 1) == []
        pts = scheme_points_upto(S, 2)
        assert len(pts) == 2
        E = pts[0].field
        assert E.order == 9
        # conjugate pair: Frobenius swaps the two representatives
        a, b = pts
        assert tuple(E.frob_power(c, F3.m) for c in a.coords) == b.coords

    def test_rational_points_not_rereported_at_higher_level(self):
        S = scheme(F3, ["x0^2 - x1^2"], 2)  # splits into two rational points
        pts1 = scheme_points_upto(S, 1)
        pts3 = scheme_points_upto(S, 3)
        assert len(pts1) == 2
        assert len(pts3) == 2
        assert all(p.field == F3 for p in pts3)

    def test_smooth_cubic_jacobian_has_no_points_at_all(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3")
        assert scheme_points_upto(singular_scheme(X), 3) == []

    def test_point_counts_match_direct_enumeration(self):
        S = scheme(F5, ["x0*x1 + x2^2"], 3)
        for k in (1, 2):
            E = gf.extension_field(F5, k)
            direct = sum(
                1 for P in pg.enumerate_points(2, E)
                if S.vanishes_at_codes(P.coords, E)
            )
            swept = sum(
                1 for P in scheme_points_upto(S, k)
                if P.field.m <= E.m
            )
            assert swept == direct

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            scheme_points_upto(scheme(F5, ["x0"], 2), 0)


def reference_hunt_witness(S):
    """The witness hunt as it stood before it shared the residue-degree
    sweep with scheme_points_upto, kept verbatim as the reference."""
    for k in range(1, certify._WITNESS_KMAX + 1):
        if not config.current_caps().field_order_ok(S.field.p, S.field.m * k):
            return None
        E = gf.extension_field(S.field, k)
        try:
            pts = certify._points_over(S, E)
        except config.CapExceededError:
            return None
        if pts:
            return pg.ProjectivePoint(E, min(pts))
    return None


def bench_emptiness_schemes(seed):
    """The schemes of the benchmark's emptiness corpus at a seed, read
    off each case's bound default argument."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return [case.compute.__defaults__[0] for case in module.build_cases("emptiness", seed)]
    finally:
        del sys.modules[spec.name]


class TestWitnessHunt:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_reference_on_the_emptiness_corpus(self, seed):
        for S in bench_emptiness_schemes(seed):
            assert certify._hunt_witness(S) == reference_hunt_witness(S), S

    @pytest.mark.parametrize(
        "field, texts, nvars, degree",
        [
            (F3, ["x0^2 + x1^2"], 2, 2),
            (gf.field_create(2), ["x0^2 + x0*x1 + x1^2"], 2, 2),
            (F3, ["x0^3 - x0*x1^2 - x1^3"], 2, 3),
            (F3, ["x2", "x0^3 - x0*x1^2 - x1^3"], 3, 3),
            (F5, ["x0^2 - 2*x1^2", "x2^3 - 2*x1^3"], 3, 2),
        ],
    )
    def test_first_points_of_higher_residue_degree(self, field, texts, nvars, degree):
        S = scheme(field, texts, nvars)
        got = certify._hunt_witness(S)
        assert got == reference_hunt_witness(S)
        assert got.field.m == field.m * degree

    def test_refuses_like_the_reference_past_the_field_cap(self):
        S = scheme(F3, ["x0^3 - x0*x1^2 - x1^3"], 2)
        for bits in (3, 4, 5):
            with config.caps_scope(config.Caps(max_field_bits=bits)):
                assert certify._hunt_witness(S) == reference_hunt_witness(S)
        with config.caps_scope(config.Caps(max_field_bits=4)):
            assert certify._hunt_witness(S) is None


def prefix_sweep(S, E):
    """The reference sweep: a gcd chain in the last variable at every
    normalized prefix of P^(n-1)(E), sorted."""
    gens = S.nonzero_gens()
    last = (0,) * S.ambient + (1,)
    out = [last] if S.vanishes_at_codes(last, E) else []
    for prefix in pg.enumerate_point_codes(S.ambient - 1, E):
        g = None
        for gen in gens:
            spec = poly.form_specialize_last(gen, prefix, E)
            if spec:
                g = spec if g is None else linalg.u_gcd(E, g, spec)
        if g is None:
            out.extend(prefix + (z,) for z in range(E.order))
        else:
            out.extend(prefix + (z,) for z in linalg.u_distinct_roots(E, g))
    return sorted(out)


def sweep_path(S, E):
    """Which way _points_over sweeps the P^2 scheme S over E, judged by
    the pair of lowest degrees."""
    gens = S.nonzero_gens()
    if certify._resultant_prefixes(gens, E) is not None:
        return "elimination"
    g1, g2 = sorted(gens, key=lambda g: g.degree)[:2]
    d1, d2 = g1.degree, g2.degree
    D = d1 * d2
    sweep = (E.order + 1) * sum(g.degree for g in gens)
    cheap = (D + 1) * (d1 + d2) ** 3 < sweep
    if E.order <= D:
        return "small field" if cheap else "small field, cost"
    return "common factor" if cheap else "cost"


class TestEliminationSweep:
    """In P^2 the sweep visits only the roots of one resultant (and the
    prefix (0, 1)); it must find exactly the points of the full sweep,
    as must the P^1 sweep."""

    @staticmethod
    def seeded_schemes(F, rng):
        # P^1, swept in full
        yield SchemeSpec(F, 2, [random_form(F, 2, d, rng) for d in (2, 3)])
        # random pairs and triples
        for _ in range(2):
            degrees = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 4))]
            yield SchemeSpec(F, 3, [random_form(F, 3, d, rng) for d in degrees])
        # generators sharing a factor in x2, so R = 0 for their pair: the
        # full sweep for two of them, the next pair for a third
        h = poly.Form(F, 3, 1, {**random_form(F, 3, 1, rng).terms, (0, 0, 1): 1})
        gens = [h * random_form(F, 3, 1, rng), h * random_form(F, 3, 1, rng)]
        yield SchemeSpec(F, 3, gens)
        yield SchemeSpec(F, 3, gens + [random_form(F, 3, 3, rng)])
        # generators without the last variable
        x0 = poly.parse_form(F, "x0", 3)
        yield SchemeSpec(F, 3, [x0, random_form(F, 3, 2, rng)])
        binary = random_form(F, 2, 2, rng)
        without_x2 = poly.Form(F, 3, 2, {e + (0,): c for e, c in binary.terms.items()})
        yield SchemeSpec(F, 3, [without_x2, random_form(F, 3, 2, rng)])
        # many generators: over the smallest fields only the node count
        # stops the elimination
        gens = [random_form(F, 3, 1, rng), random_form(F, 3, 2, rng)]
        gens += [random_form(F, 3, 3, rng) for _ in range(9)]
        yield SchemeSpec(F, 3, gens)
        # a planted point on x0 = 0
        P = pg.ProjectivePoint(F, (0, 1, rng.randrange(F.order)))
        gens = [random_form_through(F, 3, d, P, rng) for d in (1, 2, 2)]
        yield SchemeSpec(F, 3, gens)

    def test_matches_the_prefix_sweep(self):
        paths = set()
        on_x0_zero = 0
        for p, m in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
            F = gf.field_create(p, m)
            rng = random.Random(f"elimination/{F.order}")
            for k in range(1, 5):
                E = gf.extension_field(F, k)
                for S in self.seeded_schemes(F, rng):
                    got = sorted(certify._points_over(S, E))
                    assert got == prefix_sweep(S, E), (S, E)
                    if S.ambient == 2:
                        paths.add(sweep_path(S, E))
                    on_x0_zero += sum(1 for pt in got if pt[0] == 0)
        assert paths == {
            "elimination",
            "small field",
            "small field, cost",
            "common factor",
            "cost",
        }
        assert on_x0_zero > 0

    def test_common_factor_passes_to_the_next_pair(self):
        E = gf.extension_field(F5, 4)
        shared = scheme(F5, ["x0*x1 + x1*x2", "x0^2 + x0*x2"], 3)
        assert certify._resultant_prefixes(shared.gens, E) is None
        cubic = poly.parse_form(F5, "x0^3 + 2*x1^3 - x2^3", 3)
        S = SchemeSpec(F5, 3, [*shared.gens, cubic])
        assert certify._resultant_prefixes(S.gens, E) is not None
        got = sorted(certify._points_over(S, E))
        assert got == prefix_sweep(S, E) and got

    def test_refusal_is_charged_on_the_whole_prefix_pool(self):
        S = scheme(F5, ["x0 + x2", "x1^2 - x2^2"], 3)
        E = gf.extension_field(F5, 3)
        prefixes = certify._resultant_prefixes(S.nonzero_gens(), E)
        assert prefixes is not None and len(prefixes) <= 3
        with config.caps_scope(config.Caps(max_enum=pg.count_points(1, E))):
            with pytest.raises(config.CapExceededError):
                certify._points_over(S, E)
            with pytest.raises(config.CapExceededError):
                scheme_points_upto(S, 3)
        with config.caps_scope(config.Caps(max_enum=pg.count_points(1, E) + 1)):
            assert len(certify._points_over(S, E)) == 2

    def test_high_degree_pair_takes_the_full_sweep(self, monkeypatch):
        F = gf.field_create(5, 4)
        rng = random.Random("cost fallback")
        S = SchemeSpec(F5, 3, [random_form(F5, 3, 5, rng) for _ in range(2)])
        assert sweep_path(S, F) == "cost" and F.order > 25

        def no_interpolation(*args):
            raise AssertionError("the cost fallback must not interpolate")

        monkeypatch.setattr(certify.linalg, "u_interpolate", no_interpolation)
        assert sorted(certify._points_over(S, F)) == prefix_sweep(S, F)


class TestMacaulay:
    def test_coordinate_ideal_empty_at_degree_one(self):
        S = scheme(F5, ["x0", "x1", "x2"], 3)
        assert macaulay_is_empty(S) is True
        assert is_empty_projective(S).degree_N == 1

    def test_pairwise_products_nonempty(self):
        S = scheme(F5, ["x0*x1", "x0*x2", "x1*x2"], 3)
        assert not macaulay_is_empty(S)

    def test_unit_generator_short_circuits(self):
        one = poly.Form(F5, 3, 0, {(0, 0, 0): 1})
        assert macaulay_is_empty(SchemeSpec(F5, 3, [one])) is True
        assert is_empty_projective(SchemeSpec(F5, 3, [one])).degree_N == 0

    def test_too_few_generators_never_empty(self):
        assert macaulay_is_empty(scheme(F5, ["x0", "x1"], 3)) is False

    def test_fermat_jacobian_empty_iff_char_allows(self):
        gens5 = ["3*x0^2", "3*x1^2", "3*x2^2"]
        assert macaulay_is_empty(scheme(F5, gens5, 3))
        # in characteristic 3 the same surface degenerates
        X3 = surf(F3, "x0^3 + x1^3 + x2^3")
        assert not macaulay_is_empty(singular_scheme(X3))

    def test_planted_point_always_detected_nonempty(self):
        rng = random.Random(20260822)
        for trial in range(12):
            coords = [rng.randrange(5) for _ in range(3)]
            while not any(coords):
                coords = [rng.randrange(5) for _ in range(3)]
            P = pg.ProjectivePoint(F5, tuple(coords))
            gens = [
                random_form_through(F5, 3, rng.randrange(1, 4), P, rng)
                for _ in range(rng.randrange(3, 6))
            ]
            S = SchemeSpec(F5, 3, gens)
            assert not macaulay_is_empty(S)

    def test_agreement_with_enumeration_on_random_schemes(self):
        rng = random.Random(7)
        mons2 = list(poly.monomials_of_degree(3, 2))
        for trial in range(25):
            gens = []
            for _ in range(3):
                terms = {m: rng.randrange(5) for m in mons2}
                f = poly.Form(F5, 3, 2, {m: c for m, c in terms.items() if c})
                if not f.is_zero():
                    gens.append(f)
            if len(gens) < 3:
                continue
            S = SchemeSpec(F5, 3, gens)
            if macaulay_is_empty(S):
                assert scheme_points_upto(S, 2) == []
            # nonempty verdicts may only witness at higher degree; the
            # converse direction is covered by the planted-point test


class TestSingleBuildAgainstLadder:
    """macaulay_is_empty builds once at N*; the ladder over every N up to N*
    and is_empty_projective must give the same verdict."""

    @staticmethod
    def check(S):
        empty = macaulay_is_empty(S)
        assert empty == ladder_is_empty(S), S
        # the witness hunt is capped: only the verdict is compared here
        with config.caps_scope(config.Caps(max_enum=2_000)):
            assert empty == (is_empty_projective(S).verdict == "empty"), S
        return empty

    def test_random_schemes(self):
        verdicts = set()
        for p, k in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
            field = gf.field_create(p, k)
            rng = random.Random(f"ladder/{field.order}")
            for nvars in (2, 3, 4):
                for _ in range(6):
                    gens = []
                    for _ in range(rng.randrange(nvars, nvars + 3)):
                        deg = rng.randrange(1, 4)
                        mons = poly.monomials_of_degree(nvars, deg)
                        terms = {m: rng.randrange(field.order) for m in mons}
                        gens.append(poly.Form(field, nvars, deg, terms))
                    verdicts.add(self.check(SchemeSpec(field, nvars, gens)))
        assert verdicts == {True, False}

    def test_jacobian_schemes(self):
        divides = set()
        for p in (2, 3, 5):
            F = gf.field_create(p)
            rng = random.Random(f"ladder-jacobian/{p}")
            for nvars in (3, 4):
                for degree in (2, 3, 4):
                    mons = list(poly.monomials_of_degree(nvars, degree))
                    for _ in range(4):
                        terms = {m: rng.randrange(p) for m in mons}
                        G = poly.Form(F, nvars, degree, terms)
                        if G.is_zero():
                            continue
                        self.check(certify.jacobian_scheme(G))
                        divides.add(degree % p == 0)
        assert divides == {True, False}


class TestSquareSubmatrix:
    """Macaulay's square submatrix is eliminated first at N*; a singular
    one falls through to the full matrix, so every verdict and every
    reported degree must equal the full-matrix reference's."""

    # F_1048583 is above linalg._NP_PRIME_LIMIT, so it takes the generic
    # elimination, like the extension fields F_4, F_9 and F_169
    FIELDS = [(2, 1), (5, 1), (83, 1), (1048583, 1), (2, 2), (3, 2), (13, 2)]

    @pytest.mark.parametrize("p, m", FIELDS)
    def test_matches_the_full_matrix_reference(self, p, m):
        assert (p > linalg._NP_PRIME_LIMIT) == (p == 1048583)
        field = gf.field_create(p, m)
        rng = random.Random(f"square/{field.order}")
        verdicts = set()
        for nvars in (2, 3, 4):
            max_deg = 3 if nvars < 4 else 2
            for extra in (0, 1, 2):  # square and overdetermined systems
                for planted in (False, True):
                    point = None
                    if planted:
                        coords = [rng.randrange(field.order) for _ in range(nvars)]
                        coords[rng.randrange(nvars)] = 1
                        point = pg.ProjectivePoint(field, tuple(coords))
                    gens = []
                    for _ in range(nvars + extra):
                        deg = rng.randrange(1, max_deg + 1)
                        if point is None:
                            gens.append(random_form(field, nvars, deg, rng))
                        else:
                            gens.append(random_form_through(field, nvars, deg, point, rng))
                    S = SchemeSpec(field, nvars, gens)
                    want = ladder_degree(S)
                    assert macaulay_is_empty(S) == (want is not None), S
                    if planted:
                        assert want is None, S
                    with config.caps_scope(config.Caps(max_enum=2_000)):
                        cert = is_empty_projective(S)
                    assert (cert.verdict == "empty") == (want is not None), S
                    if want is not None:
                        assert cert.degree_N == want, S
                    verdicts.add(want is not None)
        assert verdicts == {True, False}

    def test_singular_square_falls_through_to_the_full_matrix(self, monkeypatch):
        # top = (x0*x1, x0^2): at N* = 3 the square rows x0^2*x1, x0*x1^2,
        # x0^3, x0^2*x1 miss x1^3, which only the multiples of x1 reach
        S = scheme(F5, ["x0*x1", "x0^2", "x1"], 2)
        gens = S.nonzero_gens()
        degs = [g.degree for g in gens]
        assert certify._macaulay_bound(degs, 1) == 3
        square = ref._square_keys(degs, 2, 3)
        assert square == {(0, 0), (0, 1), (1, 0), (1, 1)}
        # the plan's square block holds those keys' rows, and its other
        # block the three multiples of x1 only
        (_, inside), (_, outside) = certify._macaulay_plan(2, 3, tuple(degs), True)
        placed = [[(j, rows.tolist()) for j, rows, _ in b] for b in (inside, outside)]
        assert placed == [[(0, [0, 1]), (1, [2, 3])], [(2, [0, 1, 2])]]
        assert full_matrix_spans(gens, F5, 2, 3)
        assert macaulay_is_empty(S) is True
        # the miss continues the square echelon form with the three
        # multiples of x1 only: every row is scattered and eliminated once
        steps, rank = [], linalg.rank

        def traced_rank(F, rows, *args, **kwargs):
            steps.append(np.asarray(rows).tolist())
            return rank(F, rows, *args, **kwargs)

        monkeypatch.setattr(linalg, "rank", traced_rank)
        assert certify._macaulay_spans(gens, F5, 2, 3) is True
        assert [len(rows) for rows in steps] == [4, 3]
        assert steps[0] == ref._macaulay_rows(gens, 2, 3, square, True)
        assert steps[1] == ref._macaulay_rows(gens, 2, 3, square, False)
        assert rank(F5, steps[0], ncols=4) == 3
        assert rank(F5, steps[0] + steps[1], ncols=4) == 4
        assert is_empty_projective(S).degree_N == ladder_degree(S) == 2

    def test_refusal_is_computed_on_the_full_matrix(self, monkeypatch):
        # N* = 22 in P^3: the square submatrix is 2,300 x 2,300 (5.3e6
        # entries, under the cap) but the full matrix has 5,747 rows
        S = scheme(F5, ["x0^7", "x1^6", "x2^6", "x3^6", "x0 + x1 + x2 + x3"], 4)
        assert 2300 * 2300 < certify._MAX_MACAULAY_ENTRIES < 5747 * 2300

        def no_rows(*_args):
            raise AssertionError("a row was planned")

        monkeypatch.setattr(certify, "_macaulay_plan", no_rows)
        with pytest.raises(config.CapExceededError, match="5747 x 2300"):
            macaulay_is_empty(S)


class TestMacaulayPlan:
    """The blocks _macaulay_spans scatters from the plan against the
    dict-row builders the plan replaced (macaulay_reference), row for row:
    at N >= N* the square block and then the other rows, below it every
    row in one block."""

    # F_5 in the prime-field array view, F_4 and F_169 in table views
    FIELDS = [(5, 1), (2, 2), (13, 2)]
    # (nvars, generator degrees): ties among the top degrees, inside the
    # top and across its cut, and generators of degree above N for N < N*
    CASES = [
        (1, (2,)),
        (1, (3, 2, 3)),
        (2, (2, 2, 2)),
        (2, (3, 1, 3, 2)),
        (2, (1, 2)),
        (3, (2, 2, 1, 2)),
        (3, (3, 2, 2, 2)),
        (3, (1, 1, 1)),
        (4, (2, 1, 2, 2, 1)),
        (4, (2, 2, 2, 2)),
        (5, (1, 2, 1, 2, 1, 2)),
        (5, (2, 1, 1, 1, 1)),
    ]

    @pytest.mark.parametrize("p, m", FIELDS)
    def test_blocks_match_the_reference_rows(self, p, m, monkeypatch):
        field = gf.field_create(p, m)
        rng = random.Random(f"plan/{field.order}")
        blocks, seen = [], set()

        def recorded_rank(F, rows, **_kw):
            blocks.append(np.asarray(rows).tolist())
            return 0  # never full: every block is scattered

        monkeypatch.setattr(linalg, "rank", recorded_rank)
        for nvars, degs in self.CASES:
            gens = [random_form(field, nvars, d, rng) for d in degs]
            top = certify._macaulay_bound(degs, nvars - 1)
            for N in range(1, top + 2):
                blocks.clear()
                assert certify._macaulay_spans(gens, field, nvars, N) is False
                ncols = math.comb(N + nvars - 1, nvars - 1)
                if len(gens) >= nvars and N >= top:
                    square = ref._square_keys(degs, nvars, N)
                    want = [ref._macaulay_rows(gens, nvars, N, square, True)]
                    want.append(ref._macaulay_rows(gens, nvars, N, square, False))
                    assert len(want[0]) == ncols
                    seen.add("square")
                else:
                    want = [ref._macaulay_rows(gens, nvars, N, set(), False)]
                if sum(map(len, want)) < ncols:
                    want = []  # refused before any row is scattered
                assert blocks == want, (nvars, degs, N)
                if want and max(degs) > N:
                    seen.add("above N")
                if len(want) == 2 and want[1]:
                    seen.add("other rows")
        assert seen == {"square", "above N", "other rows"}

    # (nvars, N, generator degrees): the Jacobian schemes of the benchmark's
    # quintic and quartic surfaces and cubic threefolds at N*, a 200-variable
    # quadric's at N* = 1, and a 200-variable scheme at N = 2 below its N*.
    # A code of the exponents in base N + 1, in place of the closed-form
    # rank, would overflow int64 at 200 variables.
    SHAPES = [
        (4, 13, (4, 4, 4, 4)),
        (4, 9, (3, 3, 3, 3)),
        (5, 6, (2, 2, 2, 2, 2)),
        (200, 1, (1,) * 200),
        (200, 2, (1, 1, 2)),
    ]

    @pytest.mark.parametrize("nvars, N, degs", SHAPES)
    def test_plan_matches_the_reference_at_corpus_and_wide_shapes(self, nvars, N, degs):
        square = len(degs) >= nvars and N >= certify._macaulay_bound(degs, nvars - 1)
        keys = ref._square_keys(degs, nvars, N) if square else set()
        plan = certify._macaulay_plan(nvars, N, degs, square)
        assert len(plan) == (2 if square else 1)
        for (height, parts), inside in zip(plan, (True, False) if square else (False,)):
            want, top = [], 0
            for j, d in enumerate(degs):
                index = ref._row_index(nvars, N, d)
                cols = [list(index[k].values()) for k in range(len(index)) if ((j, k) in keys) == inside]
                if cols:
                    want.append((j, list(range(top, top + len(cols))), cols))
                    top += len(cols)
            assert height == top
            assert [(j, rows.tolist(), cols.tolist()) for j, rows, cols in parts] == want

    @pytest.mark.parametrize("nvars, N, deg", [(200, 2, 0), (1, 4, 2), (3, 0, 0)])
    def test_product_columns_match_the_reference(self, nvars, N, deg):
        # the shapes no plan above reaches: multipliers or products of
        # degree 0, and one variable, where the rank has no term
        want = [list(index.values()) for index in ref._row_index(nvars, N, deg)]
        assert poly.product_index(nvars, N - deg, deg).tolist() == want


class TestEmptinessCertificate:
    def test_empty_scheme_certificate(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3")
        cert = is_empty_projective(singular_scheme(X))
        assert cert.verdict == "empty"
        assert cert.witness is None
        assert cert.to_dict()["verdict"] == "empty"

    def test_nonempty_carries_vanishing_witness(self):
        S = scheme(F5, ["x0*x1", "x0*x2", "x1*x2"], 3)
        cert = is_empty_projective(S)
        assert cert.verdict == "nonempty"
        W = cert.witness
        assert W is not None
        assert S.vanishes_at_codes(W.coords, W.field)

    def test_few_generators_nonempty_without_macaulay(self):
        cert = is_empty_projective(scheme(F5, ["x0", "x1"], 3))
        assert cert.verdict == "nonempty"
        assert cert.witness == pg.ProjectivePoint(F5, (0, 0, 1))

    def test_zero_ideal_is_whole_space(self):
        z = poly.Form(F5, 3, 1, {})
        cert = is_empty_projective(SchemeSpec(F5, 3, [z]))
        assert cert.verdict == "nonempty"
        assert cert.witness is not None

    def test_irrational_witness_found_in_extension(self):
        # scheme with no rational points but conjugate points of degree 2
        S = scheme(F3, ["x0^2 + x1^2", "x2"], 3)
        cert = is_empty_projective(S)
        assert cert.verdict == "nonempty"
        assert cert.witness.field.order == 9


class TestDimension:
    def test_line_in_p3(self):
        L = scheme(F5, ["x0", "x1"], 4)
        assert not dim_at_most_exact(L, 0)
        assert dim_at_most_exact(L, 1)
        assert dim_upper_bound(L, 1, rng=random.Random(2)).holds()

    def test_lv_never_certifies_below_true_dimension(self):
        L = scheme(F5, ["x0", "x1"], 4)
        for seed in range(10):
            assert not dim_upper_bound(L, 0, rng=random.Random(seed)).holds()

    def test_finite_point_sets_are_dimension_zero(self):
        two = scheme(F5, ["x0*x1", "x2"], 3)
        assert dim_at_most_exact(two, 0)
        assert not dim_at_most_exact(two, -1)
        cert = dim_upper_bound(two, 0, rng=random.Random(5))
        assert cert.holds()
        assert cert.retries_used >= 1

    def test_empty_scheme_dimension_minus_one(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3")
        J = singular_scheme(X)
        assert dim_at_most_exact(J, -1)
        assert dim_upper_bound(J, -1, rng=random.Random(0)).holds()

    def test_hypersurface_dimension_exact(self):
        Q = scheme(F5, ["x0*x1 + x2^2"], 3)
        assert dim_at_most_exact(Q, 1)
        assert not dim_at_most_exact(Q, 0)

    def test_monotone_in_t(self):
        S = scheme(F5, ["x0*x1", "x2"], 3)
        held = False
        for t in range(-1, 3):
            now = dim_at_most_exact(S, t)
            assert now or not held
            held = held or now

    def test_lv_at_most_implies_exact_at_most(self):
        rng = random.Random(99)
        mons = list(poly.monomials_of_degree(3, 2))
        for trial in range(10):
            gens = []
            for _ in range(2):
                terms = {m: rng.randrange(5) for m in mons}
                f = poly.Form(F5, 3, 2, {m: c for m, c in terms.items() if c})
                if not f.is_zero():
                    gens.append(f)
            if not gens:
                continue
            S = SchemeSpec(F5, 3, gens)
            for t in (0, 1):
                if dim_upper_bound(S, t, rng=random.Random(trial)).holds():
                    assert dim_at_most_exact(S, t)

    def test_budget_guard_raises(self):
        big = scheme(F5, ["x0^7 + x1^7", "x1^7 + x2^7", "x2^7 + x3^7"], 5)
        with pytest.raises(config.SearchInfeasibleError):
            dim_at_most_exact(big, 2)

    def test_certificate_to_dict(self):
        S = scheme(F5, ["x0", "x1", "x2"], 3)
        cert = dim_upper_bound(S, -1, rng=random.Random(1))
        d = cert.to_dict()
        assert d["verdict"] == "at-most"
        assert d["bound"] == -1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            dim_at_most_exact(scheme(F5, ["x0"], 2), -2)
        with pytest.raises(ValueError):
            dim_upper_bound(scheme(F5, ["x0"], 2), -2, rng=random.Random(0))


class TestJacobianScheme:
    """certify.jacobian_scheme is the singular scheme of V(G)."""

    def test_smooth_fermat_cubic_no_singular_points(self):
        S = certify.jacobian_scheme(poly.parse_form(F5, "x0^3 + x1^3 + x2^3"))
        for k in (1, 2):
            E = gf.extension_field(F5, k)
            for P in pg.enumerate_points(2, E):
                assert not S.vanishes_at_codes(P.coords, E)

    def test_double_line_is_singular_along_line(self):
        S = certify.jacobian_scheme(poly.parse_form(F5, "x0^2*x1", nvars=3))
        line = pg.subspace_from_rows(F5, [(0, 1, 0), (0, 0, 1)])
        for P in points.subspace_points(line):
            assert S.vanishes_at_codes(P.coords, F5)

    def test_cuspidal_cubic_singular_point(self):
        S = certify.jacobian_scheme(poly.parse_form(F5, "x1^2*x2 - x0^3"))
        sing = [
            P.coords
            for P in pg.enumerate_points(2, F5)
            if S.vanishes_at_codes(P.coords, F5)
        ]
        assert sing == [(0, 0, 1)]

    def test_char_degeneration_keeps_form(self):
        G = poly.parse_form(F3, "x0^3 + x1^3 + x2^3")
        assert certify.jacobian_scheme(G).gens == (G,)  # all partials vanish

    def test_form_kept_exactly_when_p_divides_degree(self):
        for field, text in (
            (F3, "x0^3 + x0*x1^2 + x2^3"),
            (F5, "x0^3 + x0*x1^2 + x2^3"),
        ):
            G = poly.parse_form(field, text)
            gens = certify.jacobian_scheme(G).gens
            partials = [g for g in poly.form_partials(G) if not g.is_zero()]
            if G.degree % field.p == 0:
                assert gens == (G, *partials)
            else:
                assert gens == tuple(partials)


class TestSmoothness:
    def test_conic_secant_and_tangent(self):
        X = surf(F5, "x0*x2 + 4*x1^2")
        secant = line_through(F5, (1, 0, 0), (0, 0, 1))
        tangent = line_through(F5, (1, 0, 0), (0, 1, 0))
        assert is_transverse(X, secant)
        assert not is_transverse(X, tangent)

    def test_subspace_inside_hypersurface_not_proper(self):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        ruling = line_through(F5, (1, 0, 0, 0), (0, 1, 0, 0))
        assert poly.substitute_rows(Q.form, ruling.basis).is_zero()
        assert is_transverse(Q, ruling) is False

    def test_whole_space_section_is_smoothness_of_x(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3")
        whole = pg.subspace_from_rows(
            F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        assert is_transverse(X, whole)
        assert ensure_smooth(X)
        X3 = surf(F3, "x0^3 + x1^3 + x2^3")
        assert not ensure_smooth(X3)

    def test_smoothness_cached_on_hypersurface(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3")
        assert "smooth" not in X.cache
        ensure_smooth(X)
        assert X.cache["smooth"] is True

    def test_cuspidal_cubic_detected_singular(self):
        C = surf(F5, "x1^2*x2 - x0^3")
        assert not ensure_smooth(C)

    def test_line_sections_agree_with_binary_squarefree(self):
        X = surf(
            F5,
            "x0^3 + 4*x0^2*x1 + 2*x0*x1^2 + 3*x0*x2^2"
            " + 3*x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3",
        )
        assert ensure_smooth(X)
        for L in pg.all_lines(2, F5):
            G = poly.substitute_rows(X.form, L.basis)
            assert is_transverse(X, L) == poly.binary_squarefree(G)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_smoothness_matches_singular_scheme(self, p):
        # ensure_smooth and is_smooth_form against the Macaulay test on
        # the singular scheme: the form plus its nonzero partials
        F = gf.field_create(p)
        rng = random.Random(f"smooth/{p}")
        for nvars in (1, 2, 3):
            for degree in (1, 2, 3, 4):
                mons = list(poly.monomials_of_degree(nvars, degree))
                for _ in range(60):
                    terms = {m: rng.randrange(p) for m in mons if rng.random() < 0.5}
                    G = poly.Form(F, nvars, degree, terms)
                    if G.is_zero():
                        continue
                    gens = [G] + [g for g in poly.form_partials(G) if not g.is_zero()]
                    S = SchemeSpec(F, nvars, gens)
                    old = ladder_is_empty(S)
                    assert certify.is_smooth_form(G) == old, poly.format_form(G)
                    assert ensure_smooth(Hypersurface(G)) == old

    def test_hyperplanes_are_smooth(self):
        F3 = gf.field_create(3)
        for field in (F3, F5):
            for text, nvars in (("x0", 3), ("x1 + x2", 3), ("x0 + 2*x1", 4)):
                G = poly.parse_form(field, text, nvars=nvars)
                assert certify.is_smooth_form(G), text
                assert ensure_smooth(Hypersurface(G)), text

    def test_euler_single_build_matches_full_jacobian_ladder(self):
        # one Macaulay build at the bound on the Euler-reduced Jacobian
        # against the ladder N = d..N* on the form and all its partials
        checked = divisible = 0
        for p in (2, 3, 5, 7):
            F = gf.field_create(p)
            rng = random.Random(f"euler/{p}")
            for nvars in (3, 4):
                for degree in (2, 3, 4):
                    mons = list(poly.monomials_of_degree(nvars, degree))
                    for _ in range(20):
                        terms = {m: rng.randrange(p) for m in mons if rng.random() < 0.5}
                        G = poly.Form(F, nvars, degree, terms)
                        if G.is_zero():
                            continue
                        gens = [G] + [g for g in poly.form_partials(G) if not g.is_zero()]
                        S = SchemeSpec(F, nvars, gens)
                        full = ladder_is_empty(S)
                        assert certify.is_smooth_form(G) == full, poly.format_form(G)
                        checked += 1
                        divisible += degree % p == 0
        assert divisible and checked - divisible

    def test_oversized_macaulay_matrix_refused_before_building(self, monkeypatch):
        # smoothness of a quartic fourfold needs an 18,018 x 8,568 matrix
        G = poly.parse_form(F5, "x0^4 + x1^4 + x2^4 + x3^4 + x4^4 + x5^4")

        def no_rows(*_args):
            raise AssertionError("a row was planned")

        monkeypatch.setattr(certify, "_macaulay_plan", no_rows)
        with pytest.raises(config.CapExceededError, match="18018 x 8568"):
            certify.is_smooth_form(G)

    def test_point_sections(self):
        X = surf(F5, "x0*x2 + 4*x1^2")
        on = pg.point_subspace(pg.ProjectivePoint(F5, (1, 0, 0)))
        off = pg.point_subspace(pg.ProjectivePoint(F5, (1, 1, 0)))
        assert poly.substitute_rows(X.form, on.basis).is_zero()
        assert is_transverse(X, on) is False
        assert is_transverse(X, off)

    def test_wide_quadric_is_smooth(self):
        # 1,500 variables: past the recursion limit of a monomial generator
        # that recursed once per variable
        G = poly.parse_form(F5, " + ".join(f"x{i}^2" for i in range(1500)))
        certify._macaulay_plan.cache_clear()
        poly.product_index.cache_clear()
        assert certify.is_smooth_form(G)
        # the 1,500 partials share one product index, of (nvars, a, b) =
        # (1500, 0, 1): an index per generator took minutes
        assert poly.product_index.cache_info().misses == 1


class TestReducedness:
    def test_binary_forms(self):
        u01 = poly.parse_form(F5, "x0*x1")
        usq = poly.parse_form(F5, "x0^2*x1")
        assert is_reduced_form(u01)
        assert not is_reduced_form(usq)

    def test_linear_forms_reduced(self):
        for text, nvars in (("2*x0", 3), ("x1 + x2", 3), ("x0 + 2*x3", 4), ("3*x2", 4)):
            assert is_reduced_form(poly.parse_form(F5, text, nvars=nvars)), text

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_euler_reduced_jacobian_keeps_reducedness(self, p, monkeypatch):
        F = gf.field_create(p)
        rng = random.Random(f"reduced/{p}")
        cases = []
        for nvars in (3, 4):
            for degree in (2, 3, 4):
                mons = list(poly.monomials_of_degree(nvars, degree))
                for _ in range(12):
                    terms = {m: rng.randrange(p) for m in mons if rng.random() < 0.5}
                    G = poly.Form(F, nvars, degree, terms)
                    if not G.is_zero():
                        cases.append(G)
        got = [is_reduced_form(G, rng=random.Random(0)) for G in cases]

        def full_jacobian(G):
            partials = [g for g in poly.form_partials(G) if not g.is_zero()]
            return SchemeSpec(G.field, G.nvars, [G] + partials)

        monkeypatch.setattr(certify, "jacobian_scheme", full_jacobian)
        assert got == [is_reduced_form(G, rng=random.Random(0)) for G in cases]

    def test_pth_power_not_reduced(self):
        G = poly.parse_form(F5, "x0^5 + x1^5 + x2^5")
        assert not is_reduced_form(G)

    def test_cone_matches_binary_verdict(self):
        rng = random.Random(13)
        for trial in range(8):
            coeffs = [rng.randrange(5) for _ in range(4)]
            if not any(coeffs[1:]):
                coeffs[-1] = 1
            terms2 = {
                (3 - i, i): c for i, c in enumerate(coeffs) if c
            }
            binary = poly.Form(F5, 2, 3, terms2)
            cone = poly.Form(
                F5, 3, 3, {(a, b, 0): c for (a, b), c in terms2.items()}
            )
            assert is_reduced_form(cone, rng=random.Random(trial)) == (
                poly.binary_squarefree(binary)
            )

    def test_two_plane_sections(self):
        W = surf(F5, "x0*x1", nvars=4)
        transversal = pg.subspace_from_rows(
            F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        )
        pinch = pg.subspace_from_rows(
            F5, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert is_reduced_section(W, transversal)
        assert not is_reduced_section(W, pinch)

    def test_plane_inside_not_proper(self):
        W = surf(F5, "x0*x1", nvars=4)
        inside = pg.subspace_from_rows(
            F5, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        with pytest.raises(config.NotProperError):
            is_reduced_section(W, inside)

    def test_smooth_surface_reduced(self):
        G = poly.parse_form(F5, "x0^3 + x1^3 + x2^3 + x3^3")
        assert is_reduced_form(G)

    def test_rescue_by_plane_section_when_chain_misses(self, monkeypatch):
        # force the Las-Vegas chain to miss; the line certificate must still
        # certify this reduced form, since the exact scan in five variables
        # over F_3 is past its budget
        G = poly.parse_form(F3, "x0^2*x1 + x2^2*x3 + x4^3", nvars=5)
        undecided = certify.DimensionCertificate(None, 0, "undetermined")
        monkeypatch.setattr(
            certify, "dim_upper_bound", lambda *a, **k: undecided
        )
        assert is_reduced_form(G, rng=random.Random(5))

    def test_square_factor_refusal_is_honest(self, monkeypatch):
        # same forced miss, but with a square factor no line can certify:
        # the only honest outcomes are False or a refusal, never True
        L = poly.parse_form(F3, "x0 + x1", nvars=5)
        Q = poly.parse_form(F3, "x2^2 + x3*x4", nvars=5)
        G = L * L * Q
        undecided = certify.DimensionCertificate(None, 0, "undetermined")
        monkeypatch.setattr(
            certify, "dim_upper_bound", lambda *a, **k: undecided
        )
        with pytest.raises(config.SearchInfeasibleError):
            is_reduced_form(G, rng=random.Random(5))


LINE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]


def random_form(field, nvars, degree, rng, density=0.6):
    mons = list(poly.monomials_of_degree(nvars, degree))
    while True:
        terms = {
            m: rng.randrange(field.order) for m in mons if rng.random() < density
        }
        G = poly.Form(field, nvars, degree, terms)
        if not G.is_zero():
            return G


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def line_certifies(G, seed=0):
    return certify._line_certificates(G, [identity(G.nvars)], random.Random(seed))[0]


def never_certify(G, spans, rng):
    return [False] * len(spans)


class TestLineCertificate:
    @pytest.mark.parametrize("p, m", LINE_FIELDS)
    def test_never_certifies_a_square_factor(self, p, m):
        # h^2 * k (with p | d among them) and p-th powers, each on several
        # random lines: a square factor survives on every line
        F = gf.field_create(p, m)
        rng = random.Random(f"square/{p}/{m}")
        checked = divisible = 0
        for nvars in (3, 4):
            for degree in (2, 3, 4):
                for hdeg in range(1, degree // 2 + 1):
                    for _ in range(6):
                        h = random_form(F, nvars, hdeg, rng)
                        k = random_form(F, nvars, degree - 2 * hdeg, rng)
                        G = h * h * k
                        if G.is_zero():
                            continue
                        for seed in range(3):
                            assert not line_certifies(G, seed), poly.format_form(G)
                        checked += 1
                        divisible += degree % p == 0
            for hdeg in (1, 2):
                h = random_form(F, nvars, hdeg, rng)
                G = h
                for _ in range(p - 1):
                    G = G * h
                for seed in range(3):
                    assert not line_certifies(G, seed), poly.format_form(G)
                checked += 1
                divisible += 1
        assert checked > 40 and divisible

    def test_degree_drop_is_not_certified(self):
        # a = (1, 1, 0) and b = (0, 1, 0) on x0^2 (x1 + x2): f(t) = 1 + t is
        # squarefree, but the square x0^2 hides in the root at infinity
        class Scripted:
            def __init__(self, draws):
                self.draws = iter(draws)

            def randrange(self, _n):
                return next(self.draws)

        G = poly.parse_form(F5, "x0^2*x1 + x0^2*x2")
        draws = [1, 0, 1, 1, 0, 0]  # (a_i, b_i) for each identity row
        assert certify._line_certificates(G, [identity(3)], Scripted(draws)) == [False]

    @pytest.mark.parametrize("p, m", LINE_FIELDS)
    def test_agrees_with_jacobian_chain_when_it_fires(self, p, m, monkeypatch):
        F = gf.field_create(p, m)
        rng = random.Random(f"line/{p}/{m}")
        cases = [
            random_form(F, nvars, degree, rng)
            for nvars in (3, 4)
            for degree in (2, 3, 4)
            for _ in range(6)
        ]
        fired = [G for G in cases if line_certifies(G)]
        monkeypatch.setattr(certify, "_line_certificates", never_certify)
        for G in fired:
            assert is_reduced_form(G, rng=random.Random(0)), poly.format_form(G)
        assert len(fired) >= len(cases) // 2

    @pytest.mark.parametrize("p", [5, 7])
    def test_section_hits_are_proper_and_reduced(self, p, monkeypatch):
        # over the span of a subspace's basis: a hit proves the section
        # nonzero and squarefree, checked on the built section form
        F = gf.field_create(p)
        rng = random.Random(f"section/{p}")
        X = Hypersurface(random_form(F, 4, 3, rng))
        origin = pg.point_subspace(pg.ProjectivePoint(F, (1, 0, 0, 0)))
        subspaces = [*pg.all_hyperplanes(3, F), *pg.enumerate_superspaces(origin, 1)]
        hits = [
            poly.substitute_rows(X.form, H.basis)
            for H in subspaces
            if certify._line_certificates(X.form, [H.basis], random.Random(1))[0]
        ]
        # every line through a singular point meets it with multiplicity 2
        W = surf(F, "x0*x1^2 + x2^3", nvars=4)
        for L in pg.enumerate_superspaces(origin, 1):
            hit = certify._line_certificates(W.form, [L.basis], random.Random(2))
            assert hit == [False]
        monkeypatch.setattr(certify, "_line_certificates", never_certify)
        for G in hits:
            assert not G.is_zero()
            assert is_reduced_form(G, rng=random.Random(0)), poly.format_form(G)
        assert len(hits) > p**3

    def test_degree_past_the_floor_picks_a_larger_field(self, monkeypatch):
        # degree 64 over F_2 needs 65 interpolation nodes, one more than
        # the 64-element floor: the certificate works in F_128
        F2 = gf.field_create(2)
        orders = []
        real = gf.extension_with

        def spy(F, at_least):
            E = real(F, at_least)
            orders.append(E.order)
            return E

        monkeypatch.setattr(gf, "extension_with", spy)
        binary = poly.parse_form(F2, "x0^64 + x0*x1^63", nvars=2)
        assert poly.binary_squarefree(binary)
        cone = poly.parse_form(F2, "x0^64 + x0*x1^63", nvars=3)
        assert line_certifies(cone)
        h = poly.parse_form(F2, "x0 + x1 + x2")
        k = poly.parse_form(F2, "x0^62 + x1^61*x2 + x2^62")
        for seed in range(3):
            assert not line_certifies(h * h * k, seed)
        assert orders == [128] * 4
        assert line_certifies(poly.parse_form(F2, "x0^2*x1 + x1^2*x2 + x2^2*x0"))
        assert orders[-1] == 64


# The scalar certificate the kernel replaced, kept verbatim as the reference
# of the differential test below.
_LV_MIN_FIELD = certify._LV_MIN_FIELD
_extension_with = gf.extension_with


def _line_certificate(G: poly.Form, rows, rng: random.Random) -> bool:
    """One-sided certificate that G on the span of ``rows`` is nonzero and
    squarefree; False carries no information.  On a random line a + t*b of
    the span over an extension with at least max(64, d+1) elements, f(t) =
    G(a + t*b), interpolated at t = 0..d, must have degree d and
    gcd(f, f') = 1."""
    d = G.degree
    E = _extension_with(G.field, max(_LV_MIN_FIELD, d + 1))
    a = b = [0] * G.nvars
    for row in rows:
        row = [gf.embed_code(G.field, E, c) for c in row]
        a = E.add_scaled(a, rng.randrange(E.order), row)
        b = E.add_scaled(b, rng.randrange(E.order), row)
    f = linalg.u_interpolate(
        E, [poly.form_eval_codes(G, E.add_scaled(a, c, b), E) for c in range(d + 1)]
    )
    return f[-1] != 0 and linalg.u_squarefree(E, f)


# E = F_64 by xor, F_64 from F_4, F_81 (nodes 3 and 4 of d = 4 are not
# prime-field constants), F_81 from F_9, F_343 and F_169 (Zech gathers), then
# fields that are their own E: int64 residues, int64 near 2^20, objects past
# 2^31 and past the tables at 2^17
KERNEL_FIELDS = [
    (2, 1), (2, 2), (3, 1), (3, 2), (7, 1), (13, 1), (67, 1), (1048583, 1),
    (2147483659, 1), (2, 17),
]


def kernel_cases(F, d, rng):
    """Forms of degree d in 4 variables, reduced and not, and spans: lines,
    planes, the whole space, and a line inside V(x0)."""
    x0 = poly.Form(F, 4, 1, {(1, 0, 0, 0): 1})
    fermat = {tuple(d * (i == j) for i in range(4)): 1 for j in range(4)}
    cases = [
        random_form(F, 4, d, rng),
        random_form(F, 4, d, rng, density=0.2),
        poly.Form(F, 4, d, fermat),
        x0 * random_form(F, 4, d - 1, rng),
    ]
    if d >= 2:
        h = random_form(F, 4, 1, rng)
        cases.append(h * h * random_form(F, 4, d - 2, rng))

    def row(first=None):
        r = [rng.randrange(F.order) for _ in range(4)]
        return r if first is None else [first] + r[1:]

    spans = [[row(), row()], [row(), row(), row()], identity(4), [row(0), row(0)]]
    return cases, spans


class TestLineCertificateKernel:
    @pytest.mark.parametrize("p, m", KERNEL_FIELDS)
    def test_matches_the_scalar_certificate_draw_for_draw(self, p, m, monkeypatch):
        F = gf.field_create(p, m)
        rng = random.Random(f"kernel/{p}/{m}")
        verdicts = set()
        # a call with one span tests its interpolant with the scalar
        # u_squarefree, a call with more with u_squarefree_many
        batched = []
        squarefree_many = linalg.u_squarefree_many

        def recorded(E, f):
            batched.append(len(f))
            return squarefree_many(E, f)

        monkeypatch.setattr(linalg, "u_squarefree_many", recorded)
        # a product in F_(2^17) is 40 us of digit arithmetic: degree 3 there
        for d in range(1, 6 if F.order <= 1 << 16 else 4):
            cases, spans = kernel_cases(F, d, rng)
            for G in cases:
                for seed in range(2):
                    ref_rng, rng_ = random.Random(seed), random.Random(seed)
                    want = [_line_certificate(G, rows, ref_rng) for rows in spans]
                    batched.clear()
                    got = certify._line_certificates(G, spans, rng_)
                    assert got == want, (d, poly.format_form(G), seed)
                    assert rng_.random() == ref_rng.random()
                    assert sum(batched) == len(spans)
                    # one span per call draws the same stream
                    batched.clear()
                    rng_ = random.Random(seed)
                    assert [
                        certify._line_certificates(G, [rows], rng_)[0] for rows in spans
                    ] == want
                    assert batched == []
                    verdicts.update(want)
        assert verdicts == {True, False}

    def test_high_degree_matches_within_a_bounded_working_set(self):
        # the 57 lines of P^2 over F_7 take several passes at 201 nodes; every
        # power up to x^200 of all their points at once would hold about 55 MB
        F = gf.field_create(7)
        G = poly.parse_form(F, "x0^200 + x1^200 + x2^200")
        spans = [L.basis for L in pg.all_lines(2, F)]
        ref_rng, rng = random.Random(0), random.Random(0)
        want = [_line_certificate(G, rows, ref_rng) for rows in spans]
        assert set(want) == {True, False}
        tracemalloc.start()
        try:
            got = certify._line_certificates(G, spans, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert rng.random() == ref_rng.random()
        assert peak < 1 << 20


class TestVeryTransverseVerdicts:
    # the benchmark's fixture, bench/fixtures/fermat_cubic_f13.txt
    X = surf(gf.field_create(13), "x0^3 + x1^3 + x2^3 + x3^3")
    P = pg.subspace_from_rows(gf.field_create(13), [(1, 0, 0, 0)])

    def test_holds_a_bounded_chunk_within_a_bounded_working_set(self, monkeypatch):
        # all 183 lines through P at once would hold about 4 MB of sliced
        # schemes and Macaulay matrices, 64 at a time about 1.6 MB; the peak
        # reads about 425 KiB at 16 a chunk and 813 KiB at 32
        sizes = []
        full_rank_many = linalg.full_rank_many

        def recorded(F, M):
            sizes.append(M.size)
            return full_rank_many(F, M)

        monkeypatch.setattr(linalg, "full_rank_many", recorded)
        drawn = 0

        def pool():
            nonlocal drawn
            for E in pg.enumerate_superspaces(self.P, 1):
                drawn += 1
                yield E

        # field tables and row indices are built once, outside the trace
        warm = certify.very_transverse_verdicts(
            self.X, pg.enumerate_superspaces(self.P, 1), random.Random(1)
        )
        list(itertools.islice(warm, certify._VERDICT_CHUNK))
        yielded = 0
        tracemalloc.start()
        try:
            for _ in certify.very_transverse_verdicts(self.X, pool(), random.Random(0)):
                yielded += 1
                assert drawn - yielded < certify._VERDICT_CHUNK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert yielded == drawn == 183
        assert sizes and max(sizes) <= poly.KERNEL_ELEMENTS
        assert peak < 1 << 20

    def test_square_stacks_are_split_within_the_kernel_bound(self, monkeypatch):
        monkeypatch.setattr(poly, "KERNEL_ELEMENTS", 3 * 21 * 21)
        sizes = []
        full_rank_many = linalg.full_rank_many

        def recorded(F, M):
            sizes.append(M.shape)
            return full_rank_many(F, M)

        monkeypatch.setattr(linalg, "full_rank_many", recorded)
        verdicts = certify.very_transverse_verdicts(
            self.X, pg.enumerate_superspaces(self.P, 1), random.Random(0)
        )
        got = [(v, m) for _, v, m in verdicts]
        rng = random.Random(0)
        want = [
            certify.decide_very_transverse(self.X, E, rng)[0]
            for E in pg.enumerate_superspaces(self.P, 1)
        ]
        assert [v for v, _ in got] == want
        assert {m for _, m in got} == {"not-transverse", "las-vegas"}
        assert max(sizes) == (3, 21, 21)


class TestSectionScanChunks:
    # the benchmark's fixture, bench/fixtures/fermat_cubic_f13.txt
    X = surf(gf.field_create(13), "x0^3 + x1^3 + x2^3 + x3^3")

    def chunks(self, monkeypatch, X=X):
        """len(spans) of every kernel call on X's own form, by rows per span:
        4 for X itself, 3 for its hyperplanes, 2 for lines."""
        sizes = {}
        real = certify._line_certificates

        def recorded(G, spans, rng):
            if G == X.form:
                sizes.setdefault(len(spans[0]), []).append(len(spans))
            return real(G, spans, rng)

        monkeypatch.setattr(certify, "_line_certificates", recorded)
        return sizes

    def test_each_level_of_a_first_hit_scan_starts_with_one_span(self, monkeypatch):
        sizes = self.chunks(monkeypatch)
        out = search.find_transverse_line_reduced(self.X, seed=1729)
        assert out.succeeded()
        assert sizes.keys() == {4, 3, 2}
        for got in sizes.values():
            assert got == [2**i for i in range(len(got))]

    def test_a_census_grows_its_chunks_to_the_cap(self, monkeypatch):
        # a cone on which no line of the census plane is transverse, so every
        # one of the 820 hyperplanes of P^3(F_9) is decided by reduced_sections
        X = surf(gf.field_create(3, 2), "x0^2*x3 + x1^2*x2")
        sizes = self.chunks(monkeypatch, X)
        audit.count_bad_hyperplanes(X, t=0, seed=1729)
        pool = pg.count_points(3, X.field)
        assert pool > 3 * certify._SECTION_CHUNK
        assert certify._SECTION_CHUNK == 256
        doubling = [2**i for i in range(8)]
        full, rest = divmod(pool - sum(doubling), 256)
        assert sizes[3] == doubling + [256] * full + [rest]
        assert sizes[4] == [1]


class TestTransversality:
    def test_conic_bad_lines_are_exactly_the_tangents(self):
        X = surf(F5, "x0*x2 + 4*x1^2")
        lines = list(pg.all_lines(2, F5))
        assert len(lines) == 31
        bad = [L for L in lines if not is_transverse(X, L)]
        assert len(bad) == 6
        # each bad line is tangent: section is a square, not identically zero
        for L in bad:
            G = poly.substitute_rows(X.form, L.basis)
            assert not G.is_zero()
            assert not poly.binary_squarefree(G)

    def test_lines_through_cusp_never_transverse(self):
        C = surf(F5, "x1^2*x2 - x0^3")
        cusp = pg.ProjectivePoint(F5, (0, 0, 1))
        through = line_through(F5, (0, 0, 1), (1, 0, 0))
        away = line_through(F5, (1, 1, 1), (0, 1, 3))
        assert not is_transverse(C, through)
        assert cusp not in points.subspace_points(away)

    def test_degree_one_always_transverse_off_nothing(self):
        H = surf(F5, "x0 + x1 + x2")
        for L in list(pg.all_lines(2, F5))[:10]:
            G = poly.substitute_rows(H.form, L.basis)
            if G.is_zero():
                assert not is_transverse(H, L)
            else:
                assert is_transverse(H, L)

    def test_point_transversality_is_membership(self):
        X = surf(F5, "x0*x2 + 4*x1^2")
        on = pg.point_subspace(pg.ProjectivePoint(F5, (1, 0, 0)))
        off = pg.point_subspace(pg.ProjectivePoint(F5, (1, 1, 0)))
        assert not is_transverse(X, on)
        assert is_transverse(X, off)

    def test_singular_point_membership_blocks(self):
        C = surf(F5, "x1^2*x2 - x0^3")
        # a point off C is fine even though C is singular elsewhere
        off = pg.point_subspace(pg.ProjectivePoint(F5, (1, 1, 0)))
        assert is_transverse(C, off)
        on_smooth = pg.point_subspace(pg.ProjectivePoint(F5, (1, 1, 1)))
        assert not is_transverse(C, on_smooth)

    def test_smooth_sections_miss_singular_locus(self):
        # reference: Sing(X) plus the linear equations of H is empty
        rng = random.Random(31)
        cases = [
            surf(F5, "x1^2*x2 - x0^3"),
            surf(F5, "x0*x1*x2"),
            surf(F3, "x0^3 + x1^3 + x2^3 + x3^3"),
            surf(F3, "x0*x1 + x2^2", nvars=4),
        ]
        for field, nvars, d in ((F5, 3, 3), (F3, 4, 3), (F3, 4, 2)):
            # no monomial divisible by x_last^(d-1): singular at [0:...:0:1]
            mons = [m for m in poly.monomials_of_degree(nvars, d) if m[-1] < d - 1]
            terms = {m: rng.randrange(field.order) for m in mons}
            cases.append(Hypersurface(poly.Form(field, nvars, d, terms)))
        checked = 0
        for X in cases:
            assert not ensure_smooth(X)
            n, fld = X.ambient, X.field
            sing = singular_scheme(X)
            subspaces = [pg.point_subspace(P) for P in pg.enumerate_points(n, fld)]
            subspaces += list(pg.all_lines(n, fld))
            if n > 2:
                subspaces += list(pg.all_hyperplanes(n, fld))
            for H in subspaces:
                if not is_transverse(X, H):
                    continue
                cut = [
                    poly.Form(
                        fld, n + 1, 1,
                        {tuple(int(j == i) for j in range(n + 1)): c
                         for i, c in enumerate(row) if c},
                    )
                    for row in pg.dual(H).basis
                ]
                aug = SchemeSpec(fld, n + 1, list(sing.gens) + cut)
                assert len(aug.nonzero_gens()) > aug.ambient
                assert macaulay_is_empty(aug), (X, pg.format_subspace(H))
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("field", [(2, 1), (3, 1)])
    def test_batched_lines_match_is_transverse(self, field, monkeypatch):
        # _transverse_many restricts every line at once, over F_2 and F_3
        # too, whose degrees 2..4 reach past their sizes: the restriction
        # kernel lifts such a field
        F = gf.field_create(*field)
        rng = random.Random(f"transverse-many/{F.order}")
        single = []

        def one_at_a_time(X, H):
            single.append(H)
            return is_transverse(X, H)

        monkeypatch.setattr(certify, "is_transverse", one_at_a_time)
        verdicts, batched = set(), 0
        for n in (2, 3):
            lines = list(pg.all_lines(n, F))
            for d in range(2, 5):
                for _ in range(2):
                    X = Hypersurface(random_form(F, n + 1, d, rng))
                    single.clear()
                    got = certify._transverse_many(X, lines)
                    batched += len(lines) - len(single)
                    assert got == [is_transverse(X, L) for L in lines], (n, d)
                    verdicts.update(got)
        assert verdicts == {True, False}
        assert batched

    def test_mismatched_inputs_rejected(self):
        X = surf(F5, "x0*x2 + 4*x1^2")
        L = line_through(F3, (1, 0, 0), (0, 0, 1))
        with pytest.raises(ValueError):
            is_transverse(X, L)


def _lv_never_holds(E, loci):
    """The attempt loop's emptiness test, forced to miss every slice."""
    return [False] * len(loci)


class TestVeryTransverse:
    def test_hyperplane_case_reduces_to_transverse(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3")
        for L in list(pg.all_lines(2, F5))[:12]:
            assert is_very_transverse(X, L) == is_transverse(X, L)

    def test_quadric_surface_coincidence(self):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        lines = list(pg.all_lines(3, F5))
        assert len(lines) == 806
        t_count = sum(1 for L in lines if is_transverse(Q, L))
        vt_count = sum(
            1 for L in lines if is_very_transverse(Q, L, rng=random.Random(1))
        )
        assert t_count == 650
        assert vt_count == t_count

    def test_exact_mode_agrees_on_sample(self):
        # every Las-Vegas acceptance agrees with the exact scan
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        rng = random.Random(4)
        lines = list(pg.all_lines(3, F5))
        accepted = 0
        for L in rng.sample(lines, 12):
            verdict, how = classify_very_transverse(Q, L, random.Random(0))
            if (verdict, how) == ("yes", "las-vegas"):
                accepted += 1
                T = locus.tangency_locus(Q, L)
                assert dim_at_most_exact(T, Q.ambient - L.dim - 2)
        assert accepted > 0

    def test_las_vegas_miss_is_settled_exactly(self, monkeypatch):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        L = next(L for L in pg.all_lines(3, F5) if is_transverse(Q, L))
        monkeypatch.setattr(certify, "_empty_loci", _lv_never_holds)
        assert is_very_transverse(Q, L)
        assert decide_very_transverse(Q, L, random.Random(0)) == ("yes", "exact")

    def test_classify_then_settle(self, monkeypatch):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        lines = list(pg.all_lines(3, F5))
        tangent = next(L for L in lines if not is_transverse(Q, L))
        L = next(L for L in lines if is_transverse(Q, L))
        for step in (classify_very_transverse, decide_very_transverse):
            assert step(Q, tangent, random.Random(0)) == ("no", "not-transverse")
        plane = next(H for H in pg.all_hyperplanes(3, F5) if is_transverse(Q, H))
        assert classify_very_transverse(Q, plane, random.Random(0)) == (
            "yes", "direct",
        )
        monkeypatch.setattr(certify, "_empty_loci", _lv_never_holds)
        assert classify_very_transverse(Q, L, random.Random(0)) == (
            "undetermined", "las-vegas",
        )
        assert settle_very_transverse(Q, L, random.Random(0)) == "yes"
        assert decide_very_transverse(Q, L, random.Random(0)) == ("yes", "exact")

    def test_over_budget_scan_raises(self, monkeypatch):
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        L = next(L for L in pg.all_lines(3, F5) if is_transverse(Q, L))

        def over_budget(S, t):
            raise config.SearchInfeasibleError("over budget")

        monkeypatch.setattr(certify, "_empty_loci", _lv_never_holds)
        monkeypatch.setattr(certify, "dim_at_most_exact", over_budget)
        assert classify_very_transverse(Q, L, random.Random(0)) == (
            "undetermined", "las-vegas",
        )
        assert settle_very_transverse(Q, L, random.Random(0)) == "undetermined"
        with pytest.raises(config.SearchInfeasibleError):
            decide_very_transverse(Q, L, random.Random(0))
        with pytest.raises(config.SearchInfeasibleError):
            is_very_transverse(Q, L)

    def test_very_transverse_implies_transverse(self):
        X = surf(F5, "x0^3 + x1^3 + x2^3 + x3^3")
        rng = random.Random(8)
        lines = list(pg.all_lines(3, F5))
        for L in rng.sample(lines, 25):
            if is_very_transverse(X, L, rng=random.Random(2)):
                assert is_transverse(X, L)

    def test_singular_x_rejected(self):
        C = surf(F5, "x1^2*x2 - x0^3")
        L = line_through(F5, (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError):
            is_very_transverse(C, L)


# ---------------------------------------------------------------------------
# The one attempt loop against the scheme path it replaced
# (very_transverse_reference): the same verdict, method and rng state after
# every call, and none of the loop's calls reaches dim_upper_bound or builds
# a tangency locus outside the exact scan.


def smooth_form(field, nvars, degree, rng):
    mons = list(poly.monomials_of_degree(nvars, degree))
    while True:
        G = poly.Form(field, nvars, degree, {m: rng.randrange(field.order) for m in mons})
        if not G.is_zero() and ensure_smooth(Hypersurface(G)):
            return Hypersurface(G)


def dim_upper_bound_drawing_every_attempt(S, t, rng):
    """dim_upper_bound forced to miss: every attempt drawn, none decided."""
    for _ in range(certify._LV_RETRIES):
        certify._random_slices(S, t, rng)
    return certify.DimensionCertificate(S, t, "undetermined", (), certify._LV_RETRIES)


def points_lines_and_planes(X, per_level):
    """The first points, the first lines through the first transverse
    point, and the first planes through the first transverse line."""
    first = itertools.islice(pg.enumerate_points(X.ambient, X.field), per_level)
    points = [pg.point_subspace(P) for P in first]
    P = next(H for H in points if is_transverse(X, H))
    lines = list(itertools.islice(pg.enumerate_superspaces(P, 1), per_level))
    L = next(H for H in lines if is_transverse(X, H))
    return points + lines + list(itertools.islice(pg.enumerate_superspaces(L, 2), per_level))


class TestOneAttemptLoopAgainstTheSchemePath:
    def assert_same_decisions(self, X, subspaces, monkeypatch, seed=0):
        """Classify (and settle what is left open) each subspace on both
        paths, one rng each; the counts of methods and verdicts seen."""
        calls = collections.Counter()
        lv, tangency = certify.dim_upper_bound, locus.tangency_locus

        def counted_lv(S, t, rng):
            calls["dim_upper_bound"] += 1
            return lv(S, t, rng)

        def counted_tangency(X, H):
            calls["tangency_locus"] += 1
            return tangency(X, H)

        monkeypatch.setattr(certify, "dim_upper_bound", counted_lv)
        monkeypatch.setattr(locus, "tangency_locus", counted_tangency)
        ours, theirs = random.Random(seed), random.Random(seed)
        seen = collections.Counter()
        for H in subspaces:
            before = calls.copy()
            got = classify_very_transverse(X, H, ours)
            assert calls == before  # the loop alone
            assert got == vt_ref.classify_very_transverse(X, H, theirs), pg.format_subspace(H)
            assert ours.getstate() == theirs.getstate()
            seen[got] += 1
            if got[0] == "undetermined":
                before = calls.copy()
                got = settle_very_transverse(X, H, ours)
                # the loop, then the exact scan of the tangency locus
                added = calls - before
                assert not added["dim_upper_bound"] and added["tangency_locus"] <= 1
                assert got == vt_ref.settle_very_transverse(X, H, theirs)
                assert ours.getstate() == theirs.getstate()
                seen[got, "exact"] += 1
        return seen

    @pytest.mark.parametrize("field", [(2, 2), (5, 1), (13, 1)])
    @pytest.mark.parametrize("nvars", [4, 5])
    def test_points_lines_and_planes_of_cubics(self, field, nvars, monkeypatch):
        F = gf.field_create(*field)
        X = smooth_form(F, nvars, 3, random.Random(f"one-loop/{F.order}/{nvars}"))
        seen = self.assert_same_decisions(X, points_lines_and_planes(X, 12), monkeypatch)
        assert seen[("no", "not-transverse")] and seen[("yes", "las-vegas")]
        if nvars == 4:
            assert seen[("yes", "direct")]  # the planes of P^3 are hyperplanes

    def test_points_and_lines_of_a_quintic_surface_over_f83(self, monkeypatch):
        F = gf.field_create(83)
        X = smooth_form(F, 4, 5, random.Random("one-loop/quintic"))
        seen = self.assert_same_decisions(X, points_lines_and_planes(X, 4)[:8], monkeypatch)
        assert seen[("yes", "las-vegas")]

    def test_a_true_miss_is_settled_alike(self, monkeypatch):
        # every tangent line of the conic x0^2 + x1*x2 over F_4 passes through
        # its nucleus e0, whose contraction d0F is zero: e0 is transverse, its
        # tangency locus is the whole conic, and every attempt of both paths
        # misses before the exact scan refutes the bound
        X = surf(gf.field_create(2, 2), "x0^2 + x1*x2")
        e0 = pg.point_subspace(pg.ProjectivePoint(X.field, (1, 0, 0)))
        seen = self.assert_same_decisions(X, [e0], monkeypatch)
        assert seen == {("undetermined", "las-vegas"): 1, ("no", "exact"): 1}

    def test_a_forced_miss_is_settled_alike(self, monkeypatch):
        # every slice of the loop is taken as nonempty, and the reference's
        # dim_upper_bound draws all its attempts and decides none of them
        monkeypatch.setattr(certify, "_empty_loci", _lv_never_holds)
        monkeypatch.setattr(certify, "dim_upper_bound", dim_upper_bound_drawing_every_attempt)
        Q = surf(F5, "x0*x3 + 4*x1*x2")
        lines = [L for L in itertools.islice(pg.all_lines(3, F5), 40) if is_transverse(Q, L)][:3]
        ours, theirs = random.Random(3), random.Random(3)
        for L in lines:
            assert classify_very_transverse(Q, L, ours) == ("undetermined", "las-vegas")
            assert vt_ref.classify_very_transverse(Q, L, theirs) == ("undetermined", "las-vegas")
            assert ours.getstate() == theirs.getstate()
            assert settle_very_transverse(Q, L, ours) == "yes"
            assert vt_ref.settle_very_transverse(Q, L, theirs) == "yes"
            assert ours.getstate() == theirs.getstate()


class TestNoRestartInTheCensus:
    # the benchmark's fixture, bench/fixtures/fermat_cubic_f13.txt
    X = surf(gf.field_create(13), "x0^3 + x1^3 + x2^3 + x3^3")
    P = pg.subspace_from_rows(gf.field_create(13), [(1, 0, 0, 0)])

    def test_a_miss_goes_on_to_its_next_attempt(self, monkeypatch):
        # the first three attempts take every slice as nonempty: the first
        # chunk's lines stay pending for a fourth, and none is tested for
        # transversality again or drawn from attempt 1 again
        lines = list(pg.enumerate_superspaces(self.P, 1))
        want = list(certify.very_transverse_verdicts(self.X, lines, random.Random(0)))
        transversality, single, sliced, draws = [], [], [], []
        many, one = certify._transverse_many, certify.is_transverse
        slicer, drawer, empty = (
            certify._sliced_tangency_loci, certify._slice_basis, certify._empty_loci
        )

        def transverse_many(X, subspaces):
            transversality.extend(H.basis for H in subspaces)
            return many(X, subspaces)

        def is_transverse_(X, H):
            single.append(H.basis)
            return one(X, H)

        def sliced_tangency_loci(X, subspaces, rng):
            sliced.append([H.basis for H in subspaces])
            return slicer(X, subspaces, rng)

        def slice_basis(E, nvars, levels, rng):
            draws.append(levels)
            return drawer(E, nvars, levels, rng)

        def empty_loci(E, loci):
            return [False] * len(loci) if len(sliced) <= 3 else empty(E, loci)

        monkeypatch.setattr(certify, "_transverse_many", transverse_many)
        monkeypatch.setattr(certify, "is_transverse", is_transverse_)
        monkeypatch.setattr(certify, "_sliced_tangency_loci", sliced_tangency_loci)
        monkeypatch.setattr(certify, "_slice_basis", slice_basis)
        monkeypatch.setattr(certify, "_empty_loci", empty_loci)
        got = list(certify.very_transverse_verdicts(self.X, lines, random.Random(0)))
        assert [v for _, v, _ in got] == [v for _, v, _ in want]
        assert sorted(transversality) == sorted(H.basis for H in lines)  # each once
        assert not single  # every chunk's lines are tested together
        # every draw is one subspace's attempt in the loop
        assert len(draws) == sum(map(len, sliced))
        first = [H.basis for H, _, m in got[: certify._VERDICT_CHUNK] if m != "not-transverse"]
        assert sliced[0] == sliced[1] == sliced[2] == sliced[3] == first  # attempts 1 to 4
        per_line = collections.Counter(B for attempt in sliced for B in attempt)
        assert max(per_line.values()) <= certify._LV_RETRIES

"""Acceptance gate: one test per promised behavior, run against the public
API exactly as a user would.

Each criterion is a single test function; with -v the test report shows one
pass/fail line per criterion, and each test also prints a one-line summary
with the measured numbers (visible with -s or on failure).  All counts are
exact; the only tolerances are the pinned wall-clock budgets and minimum
case counts below.
"""

import random
import time

import pytest

import point_reference as points
from transverse import audit, certify, config, gf, linalg, locus, poly, projgeom, search

# pinned budgets (seconds) and case-count floors
BUDGET_CONIC = 1.0
BUDGET_LINES = 60.0
BUDGET_FLAGS = 300.0
BUDGET_FILLING = 1.0
BUDGET_QUADRICS = 600.0
MIN_CUBIC_CURVES = 50
MIN_CUBIC_SURFACES = 10
MIN_REDUCED_P4 = 20
MIN_RANDOM_SCHEMES = 500
MIN_PLANTED = 100
MIN_QUADRICS = 100
MIN_PROPERTY_CASES = 1000

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F9 = gf.field_create(3, 2)
F11 = gf.field_create(11)
F13 = gf.field_create(13)


def report(num, name, detail):
    print(f"[criterion {num:02d}] PASS {name}: {detail}")


def rand_form(field, nvars, degree, rng, sparsity=1.0):
    terms = {}
    for exps in poly.monomials_of_degree(nvars, degree):
        if rng.random() <= sparsity:
            terms[exps] = rng.randrange(field.order)
    return poly.Form(field, nvars, degree, terms)


def sample_reduced(field, nvars, degree, rng, vrng):
    while True:
        G = rand_form(field, nvars, degree, rng)
        if not G.is_zero() and certify.is_reduced_form(G, rng=vrng):
            return G


def sample_smooth(field, nvars, degree, rng):
    while True:
        G = rand_form(field, nvars, degree, rng)
        if not G.is_zero() and certify.ensure_smooth(locus.Hypersurface(G)):
            return G


def test_criterion_01_conic_exact_count():
    started = time.perf_counter()
    conic = audit.CurveFixture.from_strings(F5, ["x0*x2 - x1^2"])
    rep = audit.count_nontransverse_lines(conic, seed=0)
    elapsed = time.perf_counter() - started
    assert rep.extras["pool"] == 31
    assert rep.observed == 6
    assert rep.bound == 18
    assert rep.passed()
    assert elapsed < BUDGET_CONIC
    report(1, "conic exact count", f"6 of 31 lines non-transverse, 6 <= 18, {elapsed:.2f}s")


def geometric_points_of_cubic_section(X, L):
    """Distinct geometric points of X cap L for a line L, counted through
    root extraction of the restricted binary form over F_{q^6}."""
    G = poly.substitute_rows(X.form, L.basis)
    assert not G.is_zero(), "section is improper"
    inf_mult, f = poly.binary_dehomogenize(G)
    if inf_mult > 1:
        return 0, inf_mult  # repeated point at infinity
    count = inf_mult
    worst = inf_mult
    if len(f) > 1:
        E = gf.extension_field(X.field, 6)
        lifted = [gf.embed_code(X.field, E, c) for c in f]
        roots = points.u_roots_with_multiplicity(E, lifted)
        count += len(roots)
        worst = max([worst] + [m for _, m in roots])
    return count, worst


def test_criterion_02_transverse_line_existence():
    started = time.perf_counter()
    rng = random.Random(202)
    vrng = random.Random(203)
    checked = 0
    for field in (F9, F11):
        for _ in range(MIN_CUBIC_CURVES // 2):
            X = locus.Hypersurface(sample_reduced(field, 3, 3, rng, vrng))
            out = search.find_transverse_line_reduced(X, seed=7)
            assert out.succeeded(), poly.format_form(X.form)
            count, worst_mult = geometric_points_of_cubic_section(X, out.found)
            assert count == 3 and worst_mult == 1, poly.format_form(X.form)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= MIN_CUBIC_CURVES
    assert elapsed < BUDGET_LINES
    report(2, "transverse lines on reduced cubics",
           f"{checked} fixtures over F_9/F_11, all sections 3 distinct points, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def cubic_surface_flags():
    """Criteria 3 and 4 share these runs: random smooth cubic surfaces over
    F_13 with their r=2 flags and the exhaustive tangent-line census around
    the chosen very transverse point."""
    started = time.perf_counter()
    rng = random.Random(303)
    fixtures = []
    for _ in range(MIN_CUBIC_SURFACES):
        X = locus.Hypersurface(sample_smooth(F13, 4, 3, rng))
        out = search.find_very_transverse_flag(X, 2, seed=11)
        census = audit.count_bad_superspaces(X, out.found.levels[0], 1, seed=11)
        fixtures.append((X, out, census))
    return fixtures, time.perf_counter() - started


def test_criterion_03_very_transverse_flags(cubic_surface_flags):
    fixtures, elapsed = cubic_surface_flags
    vrng = random.Random(304)
    for X, out, _census in fixtures:
        assert out.succeeded(), poly.format_form(X.form)
        for s, H in enumerate(out.found.levels):
            if s == X.ambient - 1:
                assert certify.is_transverse(X, H)
            else:
                assert certify.is_very_transverse(X, H, rng=vrng)
    assert len(fixtures) >= MIN_CUBIC_SURFACES
    assert elapsed < BUDGET_FLAGS
    report(3, "very transverse flags on cubic surfaces",
           f"{len(fixtures)} smooth cubics over F_13, all r=2 flags certified exactly, {elapsed:.1f}s")


def test_criterion_04_tangency_count_bound(cubic_surface_flags):
    fixtures, _elapsed = cubic_surface_flags
    counts = []
    for X, _out, census in fixtures:
        tangent = census.subreports[0]
        assert tangent.bound == 84
        assert tangent.observed <= 84
        counts.append(tangent.observed)
    report(4, "tangent lines through the flag point",
           f"exact counts {counts} all <= 84")


def test_criterion_05_reduced_hyperplane_sections():
    rng = random.Random(505)
    vrng = random.Random(506)
    succeeded = 0
    builders = (
        lambda: rand_form(F3, 5, 3, rng),
        lambda: rand_form(F3, 5, 2, rng) * rand_form(F3, 5, 1, rng),
        lambda: rand_form(F3, 5, 1, rng)
        * rand_form(F3, 5, 1, rng)
        * rand_form(F3, 5, 1, rng),
    )
    while succeeded < MIN_REDUCED_P4:
        G = builders[succeeded % 3]()
        if G.is_zero():
            continue
        try:
            if not certify.is_reduced_form(G, rng=vrng):
                continue
        except config.SearchInfeasibleError:
            continue  # unverifiable candidates make no fixture
        X = locus.Hypersurface(G)
        out = search.find_reduced_hyperplane(X, seed=13)
        assert out.succeeded(), poly.format_form(G)
        assert certify.is_reduced_section(X, out.found, rng=vrng)
        succeeded += 1
    report(5, "reduced hyperplane sections in P^4(F_3)",
           f"{succeeded} reduced cubics (irreducible and fixture-built products), zero failures")


def test_criterion_06_bad_hyperplane_exact():
    observed = {}
    for q in (3, 5, 7):
        field = gf.field_create(q)
        X = locus.Hypersurface(poly.parse_form(field, "x0*x1", 4))
        rep = audit.count_bad_hyperplanes(X, 2, seed=0)
        assert rep.observed == q + 1, q
        assert rep.bound == q + 2, q
        observed[q] = rep.observed
    report(6, "bad hyperplanes of the two-plane quadric",
           f"exact counts {observed} each q+1 <= q+2")


def test_criterion_07_space_filling_floor():
    started = time.perf_counter()
    rep = audit.audit_space_filling(2, 2, 2)
    elapsed = time.perf_counter() - started
    assert rep.observed == 0
    assert rep.extras["forms_scanned"] == 70  # 7 linear + 63 quadratic
    assert rep.extras["witness_fills"] is True
    assert rep.extras["witness_degree"] == 3  # q + 1
    assert elapsed < BUDGET_FILLING
    report(7, "space-filling degree floor in P^2(F_2)",
           f"63 quadratics all miss a point, degree-3 witness fills, {elapsed:.2f}s")


def plant_rational(field, nvars, rng):
    """Generators vanishing at a random rational point, by subtracting the
    evaluation against the normalized leading coordinate."""
    coords = [0] * nvars
    while not any(coords):
        coords = [rng.randrange(field.order) for _ in range(nvars)]
    P = projgeom.ProjectivePoint(field, coords)
    lead = next(i for i, c in enumerate(P.coords) if c)
    gens = []
    for _ in range(rng.choice([3, 4]) if nvars == 3 else 2):
        d = rng.choice([2, 3])
        G = rand_form(field, nvars, d, rng)
        val = poly.form_eval_codes(G, P.coords, field)
        unit = tuple(d if i == lead else 0 for i in range(nvars))
        corr = dict(G.terms)
        corr[unit] = field.sub(corr.get(unit, 0), val)
        gens.append(poly.Form(field, nvars, d, corr))
    return locus.SchemeSpec(field, nvars, gens), P.coords, field


def plant_quadratic(field, rng):
    """Generators over the base field vanishing at a random point of P^2
    rational only over the quadratic extension, through the kernel of the
    evaluation map on monomials."""
    E = gf.extension_field(field, 2)
    p = field.p
    while True:
        coords = [rng.randrange(E.order) for _ in range(3)]
        if any(c >= p for c in coords):  # genuinely outside the base field
            break
    P = projgeom.ProjectivePoint(E, coords)
    gens = []
    for d in (2, 3, 3):
        mons = list(poly.monomials_of_degree(3, d))
        evals = [poly.form_eval_codes(poly.Form(field, 3, d, {m: 1}), P.coords, E)
                 for m in mons]
        rows = [[e % p for e in evals], [e // p for e in evals]]
        basis = linalg.kernel(field, rows, len(mons))
        vec = [0] * len(mons)
        while not any(vec):
            vec = [0] * len(mons)
            for b in basis:
                c = rng.randrange(field.order)
                vec = [field.add(v, field.mul(c, x)) for v, x in zip(vec, b)]
        gens.append(poly.Form(field, 3, d, dict(zip(mons, vec))))
    return locus.SchemeSpec(field, 3, gens), P.coords, E


def test_criterion_08_emptiness_cross_validation():
    rng = random.Random(808)
    fields = [F2, F3, F5]
    random_checked = 0
    empties = 0
    while random_checked < MIN_RANDOM_SCHEMES:
        field = fields[random_checked % 3]
        nvars = 2 if random_checked % 2 else 3
        gens = [
            rand_form(field, nvars, rng.choice([1, 2, 3]), rng)
            for _ in range(rng.choice([1, 2, 3, 4]))
        ]
        try:
            S = locus.SchemeSpec(field, nvars, gens)
        except ValueError:
            continue
        cert = certify.is_empty_projective(S)
        if cert.verdict == "empty":
            empties += 1
            assert not certify.scheme_points_upto(S, 6), S
        elif cert.witness is not None:
            E = cert.witness.field
            assert S.vanishes_at_codes(cert.witness.coords, E), S
        random_checked += 1
    planted_checked = 0
    while planted_checked < MIN_PLANTED:
        field = fields[planted_checked % 3]
        if planted_checked % 2:
            S, coords, E = plant_quadratic(field, rng)
        else:
            S, coords, E = plant_rational(field, 3, rng)
        assert S.vanishes_at_codes(coords, E)
        cert = certify.is_empty_projective(S)
        assert cert.verdict == "nonempty", (cert.verdict, S)
        assert cert.witness is not None
        assert S.vanishes_at_codes(cert.witness.coords, cert.witness.field)
        planted_checked += 1
    report(8, "emptiness certificates vs enumeration",
           f"{random_checked} random schemes ({empties} empty, all oracle-confirmed to degree 6), "
           f"{planted_checked} planted witnesses never missed")


def test_criterion_09_quadric_coincidence():
    started = time.perf_counter()
    rng = random.Random(909)
    vrng = random.Random(910)
    lines = list(projgeom.all_lines(3, F5))
    assert len(lines) == 806
    for i in range(MIN_QUADRICS):
        X = locus.Hypersurface(sample_smooth(F5, 4, 2, rng))
        for L in lines:
            t = certify.is_transverse(X, L)
            vt = certify.is_very_transverse(X, L, rng=vrng)
            assert vt == t, (poly.format_form(X.form), projgeom.format_subspace(L))
    elapsed = time.perf_counter() - started
    assert elapsed < BUDGET_QUADRICS
    report(9, "transverse = very transverse on smooth quadrics",
           f"{MIN_QUADRICS} quadrics x 806 lines, zero mismatches, {elapsed:.0f}s")


def test_criterion_10_inequality_lemmas():
    grid = sorted(
        {
            (n, d, r, q)
            for n in range(2, 7)
            for d in range(2, 6)
            for r in range(n)
            for q in (
                (n - r) * d * (d - 1) ** r,
                (n - r) * d * (d - 1) ** r + 1,
                (n - r) * d * (d - 1) ** r + 7,
            )
        }
    )
    result = search.check_inequality_lemmas(grid)
    assert result["ok"], result["counterexamples"][:3]
    seen = {name for row in result["points"] for name in row["checks"]}
    assert seen == {
        "pool-dominates-bad",
        "full-pool-beats-bad",
        "gate-descends",
        "deep-levels",
        "plane-level",
        "hyperplane-level",
    }
    report(10, "inequality lemmas on the full grid",
           f"{len(grid)} grid points, all six checks exercised, zero counterexamples")


def property_euler_relation(cases):
    rng = random.Random(1111)
    fields = [F2, F3, F5, F7, F9]
    for i in range(cases):
        field = fields[i % 5]
        nvars = 2 + i % 3
        degree = 1 + i % 4
        F = rand_form(field, nvars, degree, rng, sparsity=0.7)
        total = poly.Form(field, nvars, degree, {})
        for v, part in enumerate(poly.form_partials(F)):
            xi = poly.Form(
                field, nvars, 1,
                {tuple(1 if j == v else 0 for j in range(nvars)): 1},
            )
            total = total + xi * part
        scalar = degree % field.p
        scaled = poly.Form(
            field, nvars, degree,
            {e: field.mul(scalar, c) for e, c in F.terms.items()},
        )
        assert total == scaled, (i, poly.format_form(F))


def property_frobenius_subfield(cases):
    rng = random.Random(2222)
    bases = [F2, F3, F5, F9]
    images = {}
    for i in range(cases):
        base = bases[i % 4]
        k = 2 + i % 2
        E = gf.extension_field(base, k)
        q, s = base.order, base.m  # x -> x^q is the s-th power of x -> x^p
        a = rng.randrange(E.order)
        b = rng.randrange(E.order)
        image = a
        for _ in range(k):
            image = E.frob_power(image, s)
        assert image == a, (i, q, k)
        frob_sum = E.add(E.frob_power(a, s), E.frob_power(b, s))
        assert E.frob_power(E.add(a, b), s) == frob_sum
        for j in range(1, k + 1):
            if k % j:
                continue
            # the subfield of order q^j is the embedded image of F_{q^j}
            if (E, j) not in images:
                sub = gf.extension_field(base, j)
                images[E, j] = {gf.embed_code(sub, E, c) for c in sub.elements()}
            fixed = a
            for _ in range(j):
                fixed = E.frob_power(fixed, s)
            assert (a in images[E, j]) == (fixed == a), (i, j)


def random_subspace(field, n, rng, max_dim=None):
    top = n if max_dim is None else min(max_dim, n)
    k = rng.randrange(top + 1)
    while True:
        rows = [
            [rng.randrange(field.order) for _ in range(n + 1)]
            for _ in range(k + 1)
        ]
        red, _ = linalg.rref(field, rows)
        red = [r for r in red if any(r)]
        if red:
            return projgeom.subspace_from_rows(field, red)


def property_duality_involution(cases):
    rng = random.Random(3333)
    fields = [F2, F3, F5, F7]
    for i in range(cases):
        field = fields[i % 4]
        n = 1 + i % 4
        H = random_subspace(field, n, rng, max_dim=n - 1)
        W = projgeom.dual(H)
        assert H.dim + W.dim == n - 1, i
        assert projgeom.dual(W) == H, i


def property_rref_canonical(cases):
    rng = random.Random(4444)
    fields = [F2, F3, F5, F7]
    for i in range(cases):
        field = fields[i % 4]
        n = 1 + i % 4
        H = random_subspace(field, n, rng)
        k = len(H.basis)
        while True:
            M = [[rng.randrange(field.order) for _ in range(k)] for _ in range(k)]
            if linalg.rank(field, [list(r) for r in M], ncols=k) == k:
                break
        mixed = []
        for row in M:
            acc = [0] * (n + 1)
            for c, brow in zip(row, H.basis):
                for j, b in enumerate(brow):
                    acc[j] = field.add(acc[j], field.mul(c, b))
            mixed.append(acc)
        assert projgeom.subspace_from_rows(field, mixed) == H, i


def property_restriction_evaluation(cases):
    rng = random.Random(5555)
    fields = [F2, F3, F5, F7]
    for i in range(cases):
        field = fields[i % 4]
        n = 2 + i % 3
        F = rand_form(field, n + 1, 1 + i % 3, rng, sparsity=0.8)
        H = random_subspace(field, n, rng)
        G = poly.substitute_rows(F, H.basis)
        t = [0] * len(H.basis)
        while not any(t):
            t = [rng.randrange(field.order) for _ in range(len(H.basis))]
        point = [0] * (n + 1)
        for c, brow in zip(t, H.basis):
            for j, b in enumerate(brow):
                point[j] = field.add(point[j], field.mul(c, b))
        assert poly.form_eval_codes(F, point, field) == poly.form_eval_codes(
            G, t, field
        ), i


def test_criterion_11_property_suites():
    cases = MIN_PROPERTY_CASES
    property_euler_relation(cases)
    property_frobenius_subfield(cases)
    property_duality_involution(cases)
    property_rref_canonical(cases)
    property_restriction_evaluation(cases)
    report(11, "algebra property suites",
           f"5 properties x {cases} randomized cases, fixed seeds, all pass")

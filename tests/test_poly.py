import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import point_reference as points
from transverse import config, gf, linalg, poly, projgeom as pg
from transverse.poly import Form


F3 = gf.field_create(3)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)
F169 = gf.field_create(13, 2)


def span5(*rows):
    """The subspace of P^n(F_5) spanned by the rows."""
    return pg.subspace_from_rows(F5, rows)


class TestUnivariate:
    def test_trim_and_degree(self):
        assert linalg.u_trim([1, 2, 0, 0]) == [1, 2]
        assert linalg.u_deg([]) == -1
        assert linalg.u_deg([3]) == 0

    def test_gcd_basic(self):
        # gcd(x^2 - 1, x - 1) over F_5
        assert linalg.u_gcd(F5, [4, 0, 1], [4, 1]) == [4, 1]

    def test_gcd_with_zero_is_monic_argument(self):
        f = [2, 4]
        assert linalg.u_gcd(F5, f, []) == linalg.u_monic(F5, f)
        assert linalg.u_gcd(F5, [], f) == linalg.u_monic(F5, f)

    def test_gcd_planted_common_factor(self):
        rng = random.Random(7)
        for _ in range(20):
            h = [rng.randrange(7) for _ in range(3)] + [1]
            f = linalg.u_mul(F7, [rng.randrange(7) for _ in range(2)] + [1], h)
            g = linalg.u_mul(F7, [rng.randrange(7) for _ in range(2)] + [3], h)
            d = linalg.u_gcd(F7, f, g)
            assert not linalg.u_mod(F7, d, h) or not linalg.u_mod(F7, h, d)
            assert not linalg.u_mod(F7, f, d) and not linalg.u_mod(F7, g, d)

    def test_squarefree_basic(self):
        x, x1 = [0, 1], [1, 1]
        assert linalg.u_squarefree(F3, linalg.u_mul(F3, x, x1))
        x2 = linalg.u_mul(F3, x, x)
        assert not linalg.u_squarefree(F3, linalg.u_mul(F3, x2, x1))

    def test_squarefree_vanishing_derivative(self):
        # x^3 - c over F_3 is a cube
        for c in range(3):
            assert not linalg.u_squarefree(F3, [(-c) % 3, 0, 0, 1])

    def test_squarefree_zero_rejected(self):
        assert not linalg.u_squarefree(F3, [])

    def test_squarefree_constant_and_linear(self):
        assert linalg.u_squarefree(F3, [2])
        assert linalg.u_squarefree(F3, [1, 1])

    def test_roots_x2_plus_1_over_f3(self):
        f = [1, 0, 1]
        assert points.u_roots_with_multiplicity(F3, f) == []
        roots = points.u_roots_with_multiplicity(F9, f)  # constants keep codes
        assert len(roots) == 2
        (r1, m1), (r2, m2) = roots
        assert m1 == m2 == 1
        assert F9.add(r1, r2) == 0

    def test_roots_match_exhaustive_scan(self):
        rng = random.Random(11)
        for _ in range(15):
            deg = rng.randrange(1, 7)
            f = [rng.randrange(5) for _ in range(deg)] + [1]
            for k in (1, 2, 3):
                E = gf.extension_field(F5, k)
                lifted = [gf.embed_code(F5, E, c) for c in f]
                found = dict(points.u_roots_with_multiplicity(E, lifted))
                brute = {
                    c for c in E.elements() if linalg.u_eval(E, lifted, c) == 0
                }
                assert set(found) == brute
                for r, m in found.items():
                    # divide out (x - r) exactly m times
                    g = list(lifted)
                    cnt = 0
                    while True:
                        q, rem = linalg.u_divmod(E, g, [E.neg(r), 1])
                        if rem:
                            break
                        g = q
                        cnt += 1
                    assert cnt == m

    def test_roots_multiplicity(self):
        f = linalg.u_mul(F5, linalg.u_mul(F5, [1, 1], [1, 1]), [2, 1])
        assert dict(points.u_roots_with_multiplicity(F5, f)) == {4: 2, 3: 1}

    def test_squarefree_iff_no_repeated_roots_in_splitting_sweep(self):
        rng = random.Random(3)
        for F in (F3, F5, F9):
            for _ in range(10):
                deg = rng.randrange(1, 7)
                f = [rng.randrange(F.order) for _ in range(deg)] + [1]
                sweep_mults = []
                for k in range(1, deg + 1):
                    if not config.current_caps().field_order_ok(F.p, F.m * k):
                        continue
                    E = gf.extension_field(F, k)
                    lifted = [gf.embed_code(F, E, c) for c in f]
                    sweep_mults.extend(
                        m for _, m in points.u_roots_with_multiplicity(E, lifted)
                    )
                # degree <= 6 splits completely by k = 6
                if max(sweep_mults, default=1) >= 2:
                    assert not linalg.u_squarefree(F, f)
                else:
                    assert linalg.u_squarefree(F, f)


class TestForm:
    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            Form(F5, 2, 2, {(1, 0): 1})

    def test_public_construction_still_validates(self):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Form(F5, 3, 2, {(1, 1): 1})
        with pytest.raises(ValueError, match="bad exponent vector"):
            Form(F5, 2, 2, {(3, -1): 1})
        with pytest.raises(ValueError, match="form declares 3"):
            Form(F5, 3, 3, {(1, 1, 0): 1})
        with pytest.raises(ValueError, match="homogeneous"):
            poly.parse_form(F5, "x0^2 + x1")

    def test_library_built_forms_skip_validation(self, monkeypatch):
        # restriction, the restriction kernel's sections, partials, products,
        # sums and tangency loci build their forms through Form._built; each
        # must equal the validated form of the same terms, with no zero codes
        from transverse import locus

        f = poly.parse_form(F5, "x0^3 + 2*x0*x1*x2 + 4*x2^3 + x1^2*x2")
        X = locus.Hypersurface(f)
        scaled = [(4, 0, 0), (0, 4, 0), (0, 0, 4)]  # f(4x) = 64 f = 4 f
        line, plane = span5((1, 2, 0), (0, 1, 3)), span5((1, 0, 0), (0, 1, 1))

        def refuse(*_args, **_kwargs):
            raise AssertionError("a library-built form was validated again")

        monkeypatch.setattr(Form, "__init__", refuse)
        sections = [G for (G,) in poly.restrict([f], [line.basis, plane.basis], F5)]
        cancelled = f + poly.substitute_rows(f, scaled)
        built = [
            poly.substitute_rows(f, line.basis),
            *sections,
            *poly.form_partials(f),
            f * f,
            f + f,
            cancelled,
            *locus.tangency_locus(X, line).gens,
        ]
        monkeypatch.undo()
        assert cancelled.is_zero()
        assert sections == [built[0], poly.substitute_rows(f, plane.basis)]
        for G in built:
            assert all(G.terms.values())
            assert Form(G.field, G.nvars, G.degree, G.terms) == G

    def test_zero_coeffs_dropped(self):
        f = Form(F5, 2, 2, {(2, 0): 0, (1, 1): 3})
        assert f.terms == {(1, 1): 3}

    def test_eval_fermat_cubic(self):
        f = poly.parse_form(F7, "x0^3 + x1^3 + x2^3")
        assert poly.form_eval_codes(f, [1, F7.neg(1), 0], F7) == 0
        assert poly.form_eval_codes(f, [0, 0, 0], F7) == 0

    def test_eval_scaling_homogeneity(self):
        rng = random.Random(5)
        for _ in range(20):
            d = rng.randrange(1, 5)
            terms = {}
            for exps in poly.monomials_of_degree(3, d):
                terms[exps] = rng.randrange(5)
            f = Form(F5, 3, d, terms)
            pt = [rng.randrange(5) for _ in range(3)]
            lam = rng.randrange(1, 5)
            lhs = poly.form_eval_codes(f, [(lam * x) % 5 for x in pt], F5)
            rhs = F5.mul(pow(lam, d, 5), poly.form_eval_codes(f, pt, F5))
            assert lhs == rhs

    def test_eval_in_extension(self):
        f = poly.parse_form(F3, "x0^2 + x1^2")
        i = points.u_roots_with_multiplicity(F9, [1, 0, 1])[0][0]
        assert poly.form_eval_codes(f, [i, 1], F9) == 0

    def test_eval_dimension_mismatch(self):
        f = poly.parse_form(F5, "x0^2 + x1^2")
        with pytest.raises(ValueError):
            poly.form_eval_codes(f, [1, 2, 3], F5)

    def test_partials_fermat(self):
        f = poly.parse_form(F7, "x0^3 + x1^3 + x2^3")
        parts = poly.form_partials(f)
        assert parts[0] == poly.parse_form(F7, "3*x0^2", nvars=3)
        assert parts[1] == poly.parse_form(F7, "3*x1^2", nvars=3)
        assert parts[2] == poly.parse_form(F7, "3*x2^2", nvars=3)

    def test_partials_char_divides(self):
        f = poly.parse_form(F3, "x0^3 + x1^3 + x2^3")
        assert all(g.is_zero() for g in poly.form_partials(f))

    def test_euler_identity(self):
        rng = random.Random(9)
        for _ in range(20):
            d = rng.randrange(1, 5)
            terms = {
                exps: rng.randrange(5)
                for exps in poly.monomials_of_degree(3, d)
            }
            f = Form(F5, 3, d, terms)
            parts = poly.form_partials(f)
            acc = Form(F5, 3, d, {})
            x = [
                Form(F5, 3, 1, {tuple(1 if j == i else 0 for j in range(3)): 1})
                for i in range(3)
            ]
            for i in range(3):
                acc = acc + x[i] * parts[i]
            assert acc == Form(F5, 3, d, {e: c * d % 5 for e, c in f.terms.items()})

    def test_partials_match_the_loop_over_every_variable(self):
        # random forms, terms whose exponent p divides (their partial drops
        # the term), and the wide diagonal quadric, against the nvars x terms
        # loop form_partials replaced
        F13 = gf.field_create(13)
        forms = [
            poly.parse_form(F5, "x0^5*x1 + 2*x1^5*x2 + x0*x1*x2^4 + 3*x2^6"),
            poly.parse_form(F9, "x0^3*x1 + (t+1)*x1^3*x2 + x2^4", nvars=3),
            poly.parse_form(F13, "x0^13*x1 + x1^14 + 5*x0*x1^13"),
            Form(F5, 1500, 2, {tuple(2 * (j == i) for j in range(1500)): 1 for i in range(1500)}),
        ]
        rng = random.Random("partials")
        for fld in (F5, F9, F13):
            for _ in range(20):
                nvars, d = rng.randrange(1, 6), rng.randrange(0, 8)
                mons = list(poly.monomials_of_degree(nvars, d))
                picked = rng.sample(mons, min(len(mons), rng.randrange(1, 10)))
                forms.append(Form(fld, nvars, d, {m: rng.randrange(fld.order) for m in picked}))
        for f in forms:
            got, want = poly.form_partials(f), loop_form_partials(f)
            assert got == want
            assert [poly.format_form(g) for g in got] == [poly.format_form(g) for g in want]

    def test_restrict_conic_to_lines(self):
        f = poly.parse_form(F5, "x0*x2 - x1^2")
        g = poly.substitute_rows(f, span5((1, 0, 0), (0, 1, 0)).basis)
        assert g.nvars == 2 and g.degree == 2
        assert g.terms == {(0, 2): 4}
        h = poly.substitute_rows(f, span5((1, 0, 0), (0, 0, 1)).basis)
        assert h.terms == {(1, 1): 1}

    def test_restrict_eval_compatibility(self):
        rng = random.Random(13)
        for _ in range(100):
            d = rng.randrange(1, 4)
            f = Form(
                F5,
                4,
                d,
                {e: rng.randrange(5) for e in poly.monomials_of_degree(4, d)},
            )
            rows = [
                [rng.randrange(5) for _ in range(4)],
                [rng.randrange(5) for _ in range(4)],
            ]
            red, _ = linalg.rref(F5, [tuple(r) for r in rows])
            basis = [r for r in red if any(r)]
            if len(basis) < 2:
                continue
            g = poly.substitute_rows(f, span5(*rows).basis)
            u = [rng.randrange(5) for _ in range(2)]
            pt = [0, 0, 0, 0]
            for i in range(2):
                for j in range(4):
                    pt[j] = F5.add(pt[j], F5.mul(u[i], basis[i][j]))
            assert poly.form_eval_codes(g, u, F5) == poly.form_eval_codes(f, pt, F5)

    @pytest.mark.parametrize("field", [F5, F9, F169], ids=lambda f: f"F{f.order}")
    def test_substitute_rows_matches_evaluation(self, field):
        # F(u . B) from the kernel equals F evaluated at the point u . B
        rng = random.Random(field.order)
        q = field.order
        for trial in range(24):
            k = 1 + trial % 3
            d = rng.randrange(1, 4)
            f = Form(
                field, 4, d,
                {e: rng.randrange(q) for e in poly.monomials_of_degree(4, d)},
            )
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(k)]
            if trial % 4 == 1 and k > 1:
                # a dependent last row: c times the first row
                c = rng.randrange(q)
                rows[-1] = [field.mul(c, x) for x in rows[0]]
            g = poly.substitute_rows(f, rows)
            assert (g.field, g.nvars, g.degree) == (field, k, d)
            for _ in range(5):
                u = [rng.randrange(q) for _ in range(k)]
                pt = [0] * 4
                for i in range(k):
                    for j in range(4):
                        pt[j] = field.add(pt[j], field.mul(u[i], rows[i][j]))
                assert poly.form_eval_codes(g, u, field) == poly.form_eval_codes(
                    f, pt, field
                )
        # x0 * h vanishes on every parametrization with a zero first column
        h = Form(
            field, 4, 2,
            {e: rng.randrange(q) for e in poly.monomials_of_degree(4, 2)},
        )
        f = Form(field, 4, 1, {(1, 0, 0, 0): 1}) * h
        for k in (1, 2, 3):
            rows = [[0] + [rng.randrange(q) for _ in range(3)] for _ in range(k)]
            g = poly.substitute_rows(f, rows)
            assert g.is_zero() and (g.nvars, g.degree) == (k, 3)

    def test_restrict_whole_space_is_identity(self):
        f = poly.parse_form(F5, "x0^2 + 2*x1*x2")
        g = poly.substitute_rows(f, span5((1, 0, 0), (0, 1, 0), (0, 0, 1)).basis)
        assert g == f

    def test_restrict_zero_iff_contained(self):
        # x0*x1 vanishes on the line {x0=0} spanned by e1, e2
        f = poly.parse_form(F5, "x0*x1", nvars=3)
        g = poly.substitute_rows(f, span5((0, 1, 0), (0, 0, 1)).basis)
        assert g.is_zero() and g.degree == 2

    def test_square_is_the_freshman_dream_in_characteristic_2(self):
        F2 = gf.field_create(2)
        f = poly.parse_form(F2, "x0 + x1")
        assert f * f == poly.parse_form(F2, "x0^2 + x1^2")

    def test_pth_power_by_multiplication_is_frobenius(self):
        f = poly.parse_form(F5, "x0 + 2*x1")
        g = f
        for _ in range(4):
            g = g * f
        assert g.degree == 5
        assert g.terms == {(5, 0): 1, (0, 5): 2}

    def test_parse_refuses_degree_over_cap(self, monkeypatch):
        cap = config.MAX_FORM_DEGREE
        assert poly.parse_form(F5, f"x0^{cap} + x1^{cap}").degree == cap
        with pytest.raises(config.CapExceededError, match="form degree"):
            poly.parse_form(F5, f"x0^{cap + 1} + x1^{cap + 1}")
        monkeypatch.setattr(config, "MAX_FORM_DEGREE", 3)
        with pytest.raises(config.CapExceededError):
            poly.parse_form(F5, "x0^2*x1^2")

    def test_parse_refuses_variables_over_the_bound(self):
        top = config.MAX_NVARS - 1
        assert poly.parse_form(F5, f"x0 + x{top}").nvars == config.MAX_NVARS
        with pytest.raises(config.CapExceededError, match="variables"):
            poly.parse_form(F5, f"x0 + x{top + 1}")
        with pytest.raises(config.CapExceededError, match="variables"):
            poly.parse_form(F5, "x0 + x999999999")
        with pytest.raises(config.CapExceededError, match="variables"):
            poly.parse_form(F5, "x0 + x1", nvars=config.MAX_NVARS + 1)

    def test_monomials_match_the_recursive_generator(self):
        def recursive(nvars, degree):
            """The generator as it was, one call per variable."""
            if nvars == 1:
                yield (degree,)
                return
            for first in range(degree, -1, -1):
                for rest in recursive(nvars - 1, degree - first):
                    yield (first,) + rest

        for nvars in range(1, 7):
            for degree in range(7):
                got = list(poly.monomials_of_degree(nvars, degree))
                assert got == list(recursive(nvars, degree)), (nvars, degree)

    def test_monomials_of_many_variables(self):
        # past the interpreter's recursion limit
        lines = list(poly.monomials_of_degree(1500, 1))
        assert len(lines) == 1500 and lines[0][0] == 1 and lines[-1][-1] == 1

    def test_factors_and_product_index_follow_the_monomial_order(self):
        for nvars in range(1, 6):
            for a in range(5):
                factors = poly.monomial_factors(nvars, a)
                assert not factors.flags.writeable
                assert [tuple(map(list(f).count, range(nvars))) for f in factors.tolist()] == list(
                    poly.monomials(nvars, a)
                )
                for b in range(4):
                    index = poly.monomial_index(nvars, a + b)
                    want = [
                        [index[tuple(map(sum, zip(m, e)))] for e in poly.monomials(nvars, b)]
                        for m in poly.monomials(nvars, a)
                    ]
                    assert poly.product_index(nvars, a, b).tolist() == want, (nvars, a, b)

    def test_binary_squarefree(self):
        g = poly.parse_form(F5, "x0*x1")
        assert poly.binary_squarefree(g)
        assert not poly.binary_squarefree(poly.parse_form(F5, "x1^2"))
        assert not poly.binary_squarefree(poly.parse_form(F5, "x0^2*x1"))
        assert poly.binary_squarefree(poly.parse_form(F5, "x0^2 - x1^2"))
        # x0^2*x1 + x0*x1^2 = x0*x1*(x0+x1): simple root at infinity, f = x^2+x
        m, f = poly.binary_dehomogenize(poly.parse_form(F5, "x0^2*x1 + x0*x1^2"))
        assert m == 1 and f == (0, 1, 1)

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (13, 1), (13, 2)])
    def test_stacked_binary_test_matches_binary_squarefree(self, field):
        # every binary form of degree <= 3 over the small fields; random ones
        # of degree <= 6 over F_13 and F_169, with the zero row and rows zero
        # at one end or both (a root at [1:0], [0:1], or both) planted
        F = gf.field_create(*field)
        rng = random.Random(f"binary/{F.order}")
        for d in range(7 if F.order > 4 else 4):
            if F.order <= 4:
                rows = list(itertools.product(range(F.order), repeat=d + 1))
            else:
                rows = [[rng.randrange(F.order) for _ in range(d + 1)] for _ in range(300)]
                for row in rows[:150]:
                    for end in rng.choice([[0], [d], [0, d], list(range(d + 1))]):
                        row[end] = 0
                rows.append([0] * (d + 1))
                # x0^2 * x1 * g and x0 * x1^2 * g: zero at both ends and never
                # squarefree
                for _ in range(20 if d >= 3 else 0):
                    g = [rng.randrange(F.order) for _ in range(d - 2)]
                    rows += [[0] + g + [0, 0], [0, 0] + g + [0]]
            f = F.arrays().array(rows)
            want = []
            for row in rows:
                g = poly.array_form(F, 2, d, np.array(row))
                want.append(not g.is_zero() and poly.binary_squarefree(g))
            got = poly.binary_squarefree_many(F, f)
            assert got.dtype == bool and got.tolist() == want, d
            if d >= 1:
                assert set(want) == {True, False}
            if d >= 3:  # x0*x1*h, squarefree or not, through the scalar test
                ends = [w for row, w in zip(rows, want) if row[0] == row[-1] == 0 and any(row)]
                assert set(ends) == {True, False}


class TestGrammar:
    def test_parse_examples(self):
        f = poly.parse_form(F9, "x0^3 + 2*x1^2*x2 - (t+1)*x2^3")
        assert f.degree == 3 and f.nvars == 3
        assert f.terms[(3, 0, 0)] == 1
        assert f.terms[(0, 2, 1)] == F9.encode([2])
        assert f.terms[(0, 0, 3)] == F9.neg(F9.encode([1, 1]))

    def test_parse_round_trip(self):
        rng = random.Random(17)
        for F in (F5, F9):
            for _ in range(25):
                d = rng.randrange(1, 4)
                terms = {
                    e: rng.randrange(F.order)
                    for e in poly.monomials_of_degree(3, d)
                    if rng.random() < 0.6
                }
                f = Form(F, 3, d, terms)
                if f.is_zero():
                    continue
                assert poly.parse_form(F, poly.format_form(f), nvars=3) == f

    def test_parse_rejects_inhomogeneous(self):
        with pytest.raises(ValueError, match="homogeneous"):
            poly.parse_form(F5, "x0^2 + x1")

    def test_parse_rejects_bare_t(self):
        with pytest.raises(ValueError, match="parenthesize"):
            poly.parse_form(F9, "t*x0")

    def test_parse_refuses_t_coefficient_over_a_prime_field(self):
        # read as 0, (t)*x0^2 + x1^2 would parse as the double line x1^2
        with pytest.raises(ValueError, match="extension"):
            poly.parse_form(gf.field_create(13), "(t)*x0^2 + x1^2")

    def test_parse_rejects_out_of_range_var(self):
        with pytest.raises(ValueError, match="out of range"):
            poly.parse_form(F5, "x3^2", nvars=3)

    def test_parse_repeated_variable_multiplies(self):
        f = poly.parse_form(F5, "x0*x0")
        assert f.nvars == 1 and f.terms == {(2,): 1}

    def test_format_zero(self):
        assert poly.format_form(Form(F5, 2, 3, {})) == "0"


class TestElementGrammar:
    def test_parse_format_round_trip_exhaustive(self):
        for F in (F9, F8, F5):
            for c in F.elements():
                assert poly.parse_element(F, F.format(c)) == c

    def test_parse_examples(self):
        assert F9.decode(poly.parse_element(F9, "2*t+1")) == (1, 2)
        assert poly.parse_element(F9, "t^2") == poly.parse_element(F9, "2")  # t^2 = -1
        assert F9.decode(poly.parse_element(F9, " t + t ")) == (0, 2)
        assert poly.parse_element(F5, "7") == 2
        assert poly.parse_element(F5, "-1") == 4

    def test_parse_rejects_garbage(self):
        for bad in ("", "t+", "^2", "x", "2**t", "t^"):
            with pytest.raises(poly.ParseError):
                poly.parse_element(F9, bad)

    def test_parse_refuses_t_over_a_prime_field(self):
        # t has no meaning in F_p; reading it as 0 would drop terms silently
        for bad in ("t", "t+1", "2*t^2"):
            with pytest.raises(poly.ParseError, match="extension"):
                poly.parse_element(gf.field_create(13), bad)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_partials_lower_degree(d, pt, seed):
    rng = random.Random(seed)
    terms = {e: rng.randrange(5) for e in poly.monomials_of_degree(3, d)}
    f = Form(F5, 3, d, terms)
    for g in poly.form_partials(f):
        assert g.degree == max(d - 1, 0)
        assert g.is_zero() or all(sum(e) == d - 1 for e in g.terms)


def loop_form_partials(F):
    """form_partials as it was: every variable, then every term."""
    out = []
    fld = F.field
    deg = max(F.degree - 1, 0)
    for i in range(F.nvars):
        terms = {}
        for exps, c in F.terms.items():
            e = exps[i]
            if e == 0:
                continue
            coef = fld.mul_int(c, e)
            if coef == 0:
                continue
            terms[exps[:i] + (e - 1,) + exps[i + 1 :]] = coef
        out.append(Form._built(fld, F.nvars, deg, terms))
    return out

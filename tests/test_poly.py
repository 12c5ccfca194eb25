import random

import pytest
from hypothesis import given, settings, strategies as st

from transverse import config, gf, linalg, poly, projgeom as pg
from transverse.poly import Form


F3 = gf.field_create(3)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)
F169 = gf.field_create(13, 2)


F4 = gf.field_create(2, 2)
F25 = gf.field_create(5, 2)


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
        assert linalg.u_roots_with_multiplicity(F3, f) == []
        roots = linalg.u_roots_with_multiplicity(F9, f)  # constants keep codes
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
                found = dict(linalg.u_roots_with_multiplicity(E, lifted))
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
        assert dict(linalg.u_roots_with_multiplicity(F5, f)) == {4: 2, 3: 1}

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
                        m for _, m in linalg.u_roots_with_multiplicity(E, lifted)
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
        i = linalg.u_roots_with_multiplicity(F9, [1, 0, 1])[0][0]
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
            assert acc == f.scale(d % 5)

    @pytest.mark.parametrize("field", [F4, F9, F25], ids=repr)
    def test_scale_by_every_code(self, field):
        # codes outside the prime subfield scale too (t has code p)
        f = Form(field, 2, 2, {(2, 0): 1, (1, 1): field.order - 1, (0, 2): field.p})
        for c in range(field.order):
            want = {e: field.mul(v, c) for e, v in f.terms.items()}
            assert f.scale(c) == Form(field, 2, 2, want), c
        for bad in (-1, field.order):
            with pytest.raises(ValueError):
                f.scale(bad)

    def test_restrict_conic_to_lines(self):
        f = poly.parse_form(F5, "x0*x2 - x1^2")
        g = poly.restrict_to_subspace(f, span5((1, 0, 0), (0, 1, 0)))
        assert g.nvars == 2 and g.degree == 2
        assert g.terms == {(0, 2): 4}
        h = poly.restrict_to_subspace(f, span5((1, 0, 0), (0, 0, 1)))
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
            g = poly.restrict_to_subspace(f, span5(*rows))
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
        g = poly.restrict_to_subspace(f, span5((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert g == f

    def test_restrict_zero_iff_contained(self):
        # x0*x1 vanishes on the line {x0=0} spanned by e1, e2
        f = poly.parse_form(F5, "x0*x1", nvars=3)
        g = poly.restrict_to_subspace(f, span5((0, 1, 0), (0, 0, 1)))
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

    def test_parse_refuses_degree_over_cap(self):
        cap = config.current_caps().max_form_degree
        assert poly.parse_form(F5, f"x0^{cap} + x1^{cap}").degree == cap
        with pytest.raises(config.CapExceededError, match="form degree"):
            poly.parse_form(F5, f"x0^{cap + 1} + x1^{cap + 1}")
        with config.caps_scope(config.Caps(max_form_degree=3)):
            with pytest.raises(config.CapExceededError):
                poly.parse_form(F5, "x0^2*x1^2")

    def test_binary_squarefree(self):
        g = poly.parse_form(F5, "x0*x1")
        assert poly.binary_squarefree(g)
        assert not poly.binary_squarefree(poly.parse_form(F5, "x1^2"))
        assert not poly.binary_squarefree(poly.parse_form(F5, "x0^2*x1"))
        assert poly.binary_squarefree(poly.parse_form(F5, "x0^2 - x1^2"))
        # x0^2*x1 + x0*x1^2 = x0*x1*(x0+x1): simple root at infinity, f = x^2+x
        m, f = poly.binary_dehomogenize(poly.parse_form(F5, "x0^2*x1 + x0*x1^2"))
        assert m == 1 and f == (0, 1, 1)


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

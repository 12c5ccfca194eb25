import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from transverse import config, gf


F4 = gf.field_create(2, 2)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)
F16 = gf.field_create(2, 4)
F25 = gf.field_create(5, 2)
F169 = gf.field_create(13, 2)
F729 = gf.field_create(3, 6)
F15625 = gf.field_create(5, 6)


def test_canonical_moduli():
    assert F9.modulus == (1, 0, 1)
    assert F4.modulus == (1, 1, 1)
    assert F8.modulus == (1, 1, 0, 1)
    assert F16.modulus == (1, 1, 0, 0, 1)


def _poly_rem(p, a, b):
    """Remainder of a by the monic b, coefficient lists low degree first."""
    a = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        for j, bj in enumerate(b):
            a[i + j] = (a[i + j] - c * bj) % p
    return a[: len(b) - 1]


@pytest.mark.parametrize("F", [F4, F8, F9, F16, F25, F169, F729, F15625], ids=repr)
def test_modulus_is_monic_irreducible_of_degree_m(F):
    g = F.modulus
    assert len(g) == F.m + 1 and g[-1] == 1
    # no monic factor of degree 1..m/2, by trial division
    for k in range(1, F.m // 2 + 1):
        for v in range(F.p**k):
            low = [(v // F.p**i) % F.p for i in range(k)]
            assert any(_poly_rem(F.p, g, low + [1])), (g, low)


def test_prime_field_modulus_is_t():
    assert gf.field_create(7).modulus == (0, 1)


def test_nonprime_p_rejected():
    with pytest.raises(ValueError, match="prime"):
        gf.field_create(6, 1)


def test_field_cap_enforced():
    with pytest.raises(config.CapExceededError):
        gf.field_create(2, 41)


def test_registry_returns_same_object():
    assert gf.field_create(3, 2) is F9


def test_a_registered_field_skips_the_primality_test(monkeypatch):
    big = gf.field_create(2147483659)
    tested = []
    real = gf.is_prime
    monkeypatch.setattr(gf, "is_prime", lambda n: tested.append(n) or real(n))
    assert gf.field_create(2147483659) is big
    assert tested == []
    # a float key hashes like the registered int, and is still refused
    with pytest.raises(ValueError, match="not prime"):
        gf.field_create(2147483659.0)
    with pytest.raises(ValueError, match="not prime"):
        gf.field_create(2147483661)
    assert tested == [2147483661]


def test_a_registered_field_is_refused_under_a_smaller_cap():
    assert gf.field_create(13, 2) is F169
    with config.caps_scope(config.Caps(max_field_bits=7)):
        with pytest.raises(config.CapExceededError, match="13\\^2"):
            gf.field_create(13, 2)
        with pytest.raises(config.CapExceededError):
            gf.extension_field(gf.field_create(13), 2)
    assert gf.field_create(13, 2) is F169


def test_frobenius_on_f9_generator():
    assert F9.frob_power(3, 1) == F9.encode([0, 2])  # t^3 = 2t


def test_frobenius_fixes_prime_subfield():
    for c in range(3):
        assert F9.frob_power(c, 1) == c


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (5, 2), (3, 5), (257, 2)])
def test_frobenius_is_the_p_th_power(p, m):
    # F_{257^2} has more than 2^16 elements, so it has no tables
    F = gf.field_create(p, m)
    assert all(F.frob(a) == F.pow(a, p) for a in range(F.order))


def test_frobenius_is_additive_and_multiplicative():
    for a in F25.elements():
        for b in (1, 7, 13, 24):
            fa = F25.frob(a)
            fb = F25.frob(b)
            assert F25.frob(F25.add(a, b)) == F25.add(fa, fb)
            assert F25.frob(F25.mul(a, b)) == F25.mul(fa, fb)


def test_embedding_image_satisfies_source_modulus():
    x = gf.embed_code(F4, F16, 2)
    assert F16.add(F16.add(F16.mul(x, x), x), 1) == 0


def test_embedding_is_a_ring_hom():
    F64 = gf.field_create(2, 6)
    for a in F8.elements():
        for b in F8.elements():
            ia = gf.embed_code(F8, F64, a)
            ib = gf.embed_code(F8, F64, b)
            assert F64.add(ia, ib) == gf.embed_code(F8, F64, F8.add(a, b))
            assert F64.mul(ia, ib) == gf.embed_code(F8, F64, F8.mul(a, b))


def test_embedding_tower_compatibility():
    # two-step and one-step routes into F_{2^12} must agree, in both
    # creation orders relative to the intermediate
    top = gf.field_create(2, 12)
    mid = gf.field_create(2, 6)
    for src in (F4, F8):
        for c in src.elements():
            assert gf.embed_code(mid, top, gf.embed_code(src, mid, c)) == (
                gf.embed_code(src, top, c)
            )


def test_embedding_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="divide"):
        gf.embed_code(F4, F8, 2)


def test_embedding_char_mismatch_rejected():
    with pytest.raises(ValueError, match="characteristic"):
        gf.embed_code(F4, F9, 2)


def test_in_subfield_matches_embedded_image():
    # the image of F_8 in F_64 is the fixed field of x -> x^(2^3)
    F64 = gf.field_create(2, 6)
    image = {gf.embed_code(F8, F64, c) for c in F8.elements()}
    for c in F64.elements():
        assert (F64.frob_power(c, 3) == c) == (c in image)


def test_in_subfield_with_prime_power_base():
    F81 = gf.field_create(3, 4)
    # F_9 inside F_81, the fixed field of x -> x^9: exactly 9 elements
    fixed = [c for c in F81.elements() if F81.frob_power(c, 2) == c]
    assert len(fixed) == 9


def test_code_ops():
    a = F9.encode([0, 1])  # t
    assert F9.add(a, 1) == F9.encode([1, 1])
    assert F9.mul(a, 2) == F9.encode([0, 2])
    assert F9.sub(a, a) == 0
    assert F9.div(a, a) == 1
    assert F9.pow(a, 0) == 1
    assert F9.pow(a, F9.order - 1) == 1
    assert F9.pow(a, -1) == F9.div(1, a) == F9.inv(a)
    assert F9.neg(F9.neg(a)) == a


def test_frob_power_reduces_mod_degree():
    for F in (F8, F9, F25):
        for a in F.elements():
            assert F.frob_power(a, F.m) == a
            assert F.frob_power(a, F.m + 1) == F.frob(a)
            assert F.frob(F.frob_power(a, -1)) == a


def test_mul_int_is_repeated_addition():
    for F in (F8, F9, F25):
        for a in F.elements():
            acc = 0
            for k in range(2 * F.p + 1):
                assert F.mul_int(a, k) == acc
                assert F.mul_int(a, -k) == F.neg(acc)
                acc = F.add(acc, a)


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        F9.div(1, 0)


def test_inverse_exhaustive_small_fields():
    for F in (F4, F8, F9, F16, F25, gf.field_create(7), gf.field_create(3, 5)):
        for c in range(1, F.order):
            assert F.mul(c, F.inv(c)) == 1


def _digit_reference(F, a, b, sign):
    """a + sign*b computed digit by digit on the base-p codes."""
    p = F.p
    return F.encode([(x + sign * y) % p for x, y in zip(F.decode(a), F.decode(b))])


def test_no_table_path_matches_table_path():
    # the routines that serve fields beyond the table limit agree with the
    # tables on a table-backed field of odd characteristic ...
    F = gf.field_create(3, 7)
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F._digitwise(a, b, 1) == F.add(a, b)
        assert F._digitwise(a, b, -1) == F.sub(a, b)
        assert F._mul_general(a, b) == F.mul(a, b)
        assert F._pow_general(a, b) == F.pow(a, b)
    # ... and, past the limit, satisfy the axioms and the digit reference
    for big in (gf.field_create(2, 17), gf.field_create(3, 11)):
        assert big.order > 1 << 16
        for _ in range(40):
            a, b, c = (rng.randrange(1, big.order) for _ in range(3))
            assert big.add(a, b) == _digit_reference(big, a, b, 1)
            assert big.sub(a, b) == _digit_reference(big, a, b, -1)
            assert big.neg(a) == _digit_reference(big, 0, a, -1)
            assert big.add(a, big.neg(a)) == 0
            assert big.mul(a, big.inv(a)) == 1
            assert big.mul(big.add(a, b), c) == big.add(big.mul(a, c), big.mul(b, c))
        assert big._exp is None
        a = 12345
        assert big.pow(a, big.order - 1) == 1
        assert big.frob_power(a, big.m) == a


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (13, 2), (3, 6), (3, 7), (5, 6)])
def test_zech_arithmetic_matches_digits(p, m):
    # exhaustive up to q = 729, 50,000 seeded pairs above; a + (-a) == 0 is
    # the case where the Zech table holds its sentinel
    F = gf.field_create(p, m)
    q = F.order
    for a in range(q):
        assert F.neg(a) == _digit_reference(F, 0, a, -1)
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, a) == 0
    if q <= 729:
        pairs = ((a, b) for a in range(q) for b in range(q))
    else:
        rng = random.Random(q)
        pairs = ((rng.randrange(q), rng.randrange(q)) for _ in range(50_000))
    weights = [p**i for i in range(m)]
    digits = [F.decode(c) for c in range(q)]
    for a, b in pairs:
        da, db = digits[a], digits[b]
        assert F.add(a, b) == sum(w * ((x + y) % p) for w, x, y in zip(weights, da, db))
        assert F.sub(a, b) == sum(w * ((x - y) % p) for w, x, y in zip(weights, da, db))


def _tables_by_mul_general(F):
    """exp, log and zech as q - 1 products by the generator, each through
    the table-free multiplication; zech[n] = log(1 + g^n), -1 for zero."""
    q, p = F.order, F.p
    g = F._find_generator()
    exp, log = [0] * (2 * (q - 1)), [0] * q
    acc = 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = acc
        log[acc] = i
        acc = F._mul_general(acc, g)
    if p == 2:
        return exp, log, None
    zech = []
    for n in range(q - 1):
        digits = list(F.decode(exp[n]))
        digits[0] = (digits[0] + 1) % p
        c1 = F.encode(digits)
        zech.append(log[c1] if c1 else -1)
    return exp, log, zech + zech


def _extension_fields_up_to(qmax):
    for p in range(2, math.isqrt(qmax) + 1):
        if gf.is_prime(p):
            m = 2
            while p**m <= qmax:
                yield p, m
                m += 1


@pytest.mark.parametrize(
    "p, m", list(_extension_fields_up_to(4096)) + [(5, 6)]
)
def test_tables_match_products_by_the_generator(p, m):
    F = gf.field_create(p, m)
    assert F._ensure_tables()
    exp, log, zech = _tables_by_mul_general(F)
    assert F._exp == exp
    assert F._log == log
    assert F._zech == zech
    assert [F.decode(c) for c in F.elements()] == [
        tuple(c // p**i % p for i in range(m)) for c in range(F.order)
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([F9, F8, F25, F169, F729, F15625]),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
def test_field_axioms(F, a, b, c):
    a %= F.order
    b %= F.order
    c %= F.order
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(a, b) == F.add(a, F.neg(b))
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


def test_extension_field_degrees():
    E = gf.extension_field(F9, 3)
    assert (E.p, E.m) == (3, 6)
    assert gf.extension_field(gf.field_create(5), 2) is F25


# one field per array representation: int64 residues (small, near 2^20, just
# below 2^31), log/exp gathers adding by XOR and by the Zech table, and
# object arrays past 2^31 and past 2^16
ARRAY_FIELDS = [
    (13, 1), (1048583, 1), (2147483647, 1), (2, 2), (2, 6), (3, 4), (13, 2),
    (7, 3), (5, 6), (2147483659, 1), (2, 17),
]


@pytest.mark.parametrize("p, m", ARRAY_FIELDS)
def test_array_view_matches_scalar_arithmetic(p, m):
    F = gf.field_create(p, m)
    V = F.arrays()
    assert F.arrays() is V
    rng = random.Random(f"arrays/{p}/{m}")
    codes = [0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(40)]
    a = V.array(codes)
    b = V.array(codes[::-1])
    assert V.add(a, b).tolist() == [F.add(x, y) for x, y in zip(codes, codes[::-1])]
    assert V.mul(a, b).tolist() == [F.mul(x, y) for x, y in zip(codes, codes[::-1])]
    assert V.add(a, V.array([F.neg(x) for x in codes])).tolist() == [0] * len(codes)
    # every pair by broadcasting, and a Python int on either side
    col = V.array(codes[:6]).reshape(6, 1)
    assert V.add(col, a).tolist() == [[F.add(x, y) for y in codes] for x in codes[:6]]
    assert V.mul(col, a).tolist() == [[F.mul(x, y) for y in codes] for x in codes[:6]]
    for c in codes[:4]:
        assert V.mul(c, a).tolist() == [F.mul(c, y) for y in codes]
        assert V.add(a, c).tolist() == [F.add(y, c) for y in codes]


def test_array_view_is_built_on_first_use_only():
    F = gf.Field(19, 2, gf._canonical_modulus(19, 2))  # fresh, outside the registry
    assert F._ensure_tables() and F.mul(2, 3) == 6
    assert F._arrays is None
    V = F.arrays()
    assert F._arrays is V and V.add(V.array([18]), 1).tolist() == [0]

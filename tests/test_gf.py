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


def test_prime_field_modulus_is_t():
    assert gf.field_create(7).modulus == (0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        gf.field_create(2, 2, modulus=(1, 0, 1))  # t^2+1 = (t+1)^2 over GF(2)


def test_nonmonic_modulus_rejected():
    with pytest.raises(ValueError, match="monic"):
        gf.field_create(3, 2, modulus=(1, 0, 2))


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError, match="degree"):
        gf.field_create(3, 2, modulus=(1, 0, 0, 1))


def test_nonprime_p_rejected():
    with pytest.raises(ValueError, match="prime"):
        gf.field_create(6, 1)


def test_field_cap_enforced():
    with pytest.raises(config.CapExceededError):
        gf.field_create(2, 41)


def test_registry_returns_same_object():
    assert gf.field_create(3, 2) is F9
    assert gf.field_create(3, 2, modulus=(1, 0, 1)) is F9


def test_frobenius_on_f9_generator():
    t = F9.element(3)
    assert gf.frobenius_q(t, 3).code == F9.encode([0, 2])  # t^3 = 2t


def test_frobenius_fixes_prime_subfield():
    for c in range(3):
        assert gf.frobenius_q(F9.const(c), 3) == F9.const(c)


def test_frobenius_rejects_non_p_power():
    with pytest.raises(ValueError):
        gf.frobenius_q(F9.element(3), 2)


def test_frobenius_is_additive_and_multiplicative():
    for a in F25.elements():
        for b in (1, 7, 13, 24):
            fa = F25.frob(a)
            fb = F25.frob(b)
            assert F25.frob(F25.add(a, b)) == F25.add(fa, fb)
            assert F25.frob(F25.mul(a, b)) == F25.mul(fa, fb)


def test_embedding_image_satisfies_source_modulus():
    x = gf.embed(F4.element(2), F16)
    assert (x * x + x + 1).code == 0


def test_embedding_is_a_ring_hom():
    for a in F8.elements():
        for b in F8.elements():
            ia = gf.embed(F8.element(a), gf.field_create(2, 6))
            ib = gf.embed(F8.element(b), gf.field_create(2, 6))
            s = gf.embed(F8.element(F8.add(a, b)), gf.field_create(2, 6))
            m = gf.embed(F8.element(F8.mul(a, b)), gf.field_create(2, 6))
            assert ia + ib == s
            assert ia * ib == m


def test_embedding_tower_compatibility():
    # two-step and one-step routes into F_{2^12} must agree, in both
    # creation orders relative to the intermediate
    top = gf.field_create(2, 12)
    mid = gf.field_create(2, 6)
    for c in F4.elements():
        assert gf.embed(gf.embed(F4.element(c), mid), top) == gf.embed(
            F4.element(c), top
        )
    for c in F8.elements():
        assert gf.embed(gf.embed(F8.element(c), mid), top) == gf.embed(
            F8.element(c), top
        )


def test_embedding_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="divide"):
        gf.embed(F4.element(2), F8)


def test_embedding_char_mismatch_rejected():
    with pytest.raises(ValueError, match="characteristic"):
        gf.embed(F4.element(2), F9)


def test_in_subfield_matches_embedded_image():
    F64 = gf.field_create(2, 6)
    image = {gf.embed(F8.element(c), F64).code for c in F8.elements()}
    for c in F64.elements():
        assert gf.in_subfield(F64.element(c), 3) == (c in image)


def test_in_subfield_with_prime_power_base():
    F81 = gf.field_create(3, 4)
    # F_{9^1} inside F_81: exactly 9 elements
    fixed = [c for c in F81.elements() if gf.in_subfield(F81.element(c), 1, q=9)]
    assert len(fixed) == 9


def test_in_subfield_rejects_non_subfield():
    with pytest.raises(ValueError):
        gf.in_subfield(F8.element(3), 2)  # F_4 is not inside F_8


def test_parse_format_round_trip_exhaustive():
    for F in (F9, F8, gf.field_create(5)):
        for c in F.elements():
            e = F.element(c)
            assert F.parse(F.format(e)) == e


def test_parse_examples():
    assert F9.parse("2*t+1").coeffs == (1, 2)
    assert F9.parse("t^2").code == F9.parse("2").code  # t^2 = -1 = 2
    assert F9.parse(" t + t ").coeffs == (0, 2)
    assert gf.field_create(5).parse("7").code == 2
    assert gf.field_create(5).parse("-1").code == 4


def test_parse_rejects_garbage():
    for bad in ("", "t+", "^2", "x", "2**t", "t^"):
        with pytest.raises(ValueError):
            F9.parse(bad)


def test_element_ops_and_int_coercion():
    a = F9.element(3)
    assert a + 1 == F9.element(4)
    assert 1 + a == F9.element(4)
    assert a * 2 == F9.element(6)
    assert (a - a).code == 0
    assert a / a == F9.one()
    assert a**0 == F9.one()
    assert a ** (F9.order - 1) == F9.one()
    assert a**-1 == F9.one() / a
    assert -(-a) == a


def test_mixed_field_ops_rejected():
    with pytest.raises(ValueError):
        F9.element(1) + F4.element(1)


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        F9.one() / F9.zero()


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

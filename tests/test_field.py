"""Field construction, arithmetic, characters and square roots."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups.field import (
    FIPS_BINARY_MODULI,
    FieldSpec,
    absolute_trace,
    element_order,
    embed,
    parse_element,
    parse_field,
    quadratic_character,
    quadratic_extension,
    square_root,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 101]


def test_elements_are_lazy():
    assert next(FieldSpec(2 ** 61 - 1).elements()).lift() == 0


def test_square_root_huge_prime_one_mod_four():
    # Tonelli-Shanks over p = 1 mod 4 searches the canonical element order
    # for a nonresidue
    f = FieldSpec(2 ** 64 + 13)
    assert f.p % 4 == 1
    for k in (3, 2 ** 40 + 7, f.p - 5):
        a = f(k) * f(k)
        r, s = square_root(a)
        assert r * r == a and s * s == a and r == -s


def test_prime_field_basics(F13):
    assert F13.q == 13 and F13.char == 13
    a, b = F13(7), F13(9)
    assert (a + b).lift() == 3
    assert (a * b).lift() == 11
    assert (a - b).lift() == 11
    assert (a / b).lift() == (7 * pow(9, -1, 13)) % 13
    assert (a ** 12).lift() == 1
    assert F13(0).is_zero() and not F13(1).is_zero()


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)


def test_reducible_modulus_rejected():
    # x^2 - 1 = (x-1)(x+1) over F_5
    with pytest.raises(ValueError):
        FieldSpec(5, 2, (4, 0, 1))


def test_extension_arithmetic(F8):
    # F_8 = F_2[x]/(x^3 + x + 1); the generator has multiplicative order 7
    g = F8((0, 1, 0))
    assert element_order(g) == 7
    assert g ** 7 == F8.one()
    # x * x^2 = x^3 = x + 1 in this model
    assert g * g * g == F8((1, 1, 0))


def test_element_str_and_parse_roundtrip(F8, F13):
    for f in (F8, F13):
        for a in f.elements():
            assert parse_element(str(a), f) == a


def test_field_str_roundtrip(F8, F13):
    for f in (F8, F13):
        assert parse_field(str(f)) == f


def test_canonical_index_bijection(F8):
    seen = {a.canonical_index() for a in F8.elements()}
    assert seen == set(range(8))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_quadratic_character_multiplicative(p):
    f = FieldSpec(p)
    squares = {(x * x) % p for x in range(1, p)}
    for a in range(1, p):
        want = 1 if a in squares else -1
        assert quadratic_character(f(a)) == want
    assert quadratic_character(f(0)) == 0


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_square_root_prime_fields(p):
    f = FieldSpec(p)
    for a in f.elements():
        got = square_root(a)
        if quadratic_character(a) == -1:
            assert got is None
        else:
            r1, r2 = got
            assert r1 * r1 == a and r2 * r2 == a
            assert {r1, r2} == {r1, -r1}


def test_square_root_char2(F8):
    # squaring is a bijection in characteristic 2: every element has
    # exactly one square root
    for a in F8.elements():
        r1, r2 = square_root(a)
        assert r1 == r2 and r1 * r1 == a


def test_square_root_extension_odd():
    F49 = quadratic_extension(FieldSpec(7))
    for a in F49.elements():
        got = square_root(a)
        if got is None:
            assert quadratic_character(a) == -1
        else:
            assert got[0] * got[0] == a


def test_element_order_divides_group_order(F13):
    for a in F13.elements():
        if a.is_zero():
            continue
        o = element_order(a)
        assert 12 % o == 0
        assert a ** o == F13.one()
    assert sorted(element_order(a) for a in F13.elements() if not a.is_zero()).count(12) == 4


def test_absolute_trace_char2(F8):
    # trace is F_2-linear, surjective, and kernel has size q/2
    tr = {a: absolute_trace(a) for a in F8.elements()}
    assert all(t.field.q == 2 or t in (F8.zero(), F8.one()) for t in tr.values())
    kernel = [a for a, t in tr.items() if t.is_zero()]
    assert len(kernel) == 4
    for a in F8.elements():
        for b in F8.elements():
            assert absolute_trace(a + b) == absolute_trace(a) + absolute_trace(b)


def test_quadratic_extension_embed(F7):
    F49 = quadratic_extension(F7)
    assert F49.q == 49
    for a in F7.elements():
        img = embed(a, F49)
        assert img * img == embed(a * a, F49)
        assert img + img == embed(a + a, F49)


def test_fips_binary_fields_smoke():
    # the smallest standard binary field: construction, reduction, and the
    # group order of x (a smoke test; full exponentiation is expensive at
    # the larger sizes)
    n = min(FIPS_BINARY_MODULI)
    f = FieldSpec(2, n, FIPS_BINARY_MODULI[n])
    x = f(tuple([0, 1] + [0] * (n - 2)))
    assert x ** (2 ** n - 1) == f.one()
    assert set(FIPS_BINARY_MODULI) == {163, 233, 283, 409, 571}


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_ring_axioms_f13(a, b, c):
    f = FieldSpec(13)
    x, y, z = f(a), f(b), f(c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@settings(max_examples=40)
@given(st.integers(1, 48))
def test_inverse_f49(k):
    F49 = quadratic_extension(FieldSpec(7))
    a = F49((k % 7, k // 7))
    assert a * a.inverse() == F49.one()


@settings(max_examples=40)
@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 10 ** 6))
def test_frobenius_fixes_prime_field(p, k):
    f = FieldSpec(p)
    a = f(k)
    assert a ** p == a

"""Weierstrass models: invariants, admissible maps, normal forms, twists."""

import itertools
import random

import pytest
from hypothesis import strategies as st

from ecgroups.curve import (
    AdmissibleMap,
    Curve,
    char2_normal_form,
    char3_normal_form,
    curve_invariants,
    edwards_equivalents,
    EdwardsCurve,
    enumerate_short_curves,
    is_nonsingular,
    isomorphism_test,
    j_invariant,
    legendre_parameters,
    odd_char_even_form,
    parse_curve,
    quadratic_twist,
    standard_curve_for_j,
    tate_terms,
    to_short_form,
)
from ecgroups.count import brute_force_order
from ecgroups.errors import EcgroupsError, IncompleteTwoTorsion, SingularCurve
from ecgroups.field import FieldSpec, quadratic_character
from ecgroups.poly import Poly


# Frozen integer invariants of y^2 + xy + 2y = x^3 + 3x^2 + 4x + 5,
# derived from the defining b-formulas (see notes on the worked example
# whose printed b2 is arithmetically impossible: b2 = a1^2 + 4a2 forces 13).
GOLDEN_LONG = (1, 3, 2, 4, 5)
GOLDEN_B = {"b2": 13, "b4": 10, "b6": 24, "b8": 53}
GOLDEN_DELTA = -4429


@pytest.mark.parametrize("p", [101, 1009, 10007])
def test_tate_terms_golden_long_curve(p):
    f = FieldSpec(p)
    E = Curve.make(f, *GOLDEN_LONG)
    t = tate_terms(E)
    assert t.b2.lift() == GOLDEN_B["b2"] % p
    assert t.b4.lift() == GOLDEN_B["b4"] % p
    assert t.b6.lift() == GOLDEN_B["b6"] % p
    assert t.b8.lift() == GOLDEN_B["b8"] % p
    assert curve_invariants(E).discriminant.lift() == GOLDEN_DELTA % p


def _random_curve(f, rng):
    return Curve.make(f, *(f(rng.randrange(f.q)) for _ in range(5)))


@pytest.mark.parametrize("q", [5, 7, 13, 8, 9])
def test_b8_identity(q, F8, F9):
    f = {8: F8, 9: F9}.get(q) or FieldSpec(q)
    rng = random.Random(q)
    for _ in range(50):
        E = _random_curve(f, rng)
        t = tate_terms(E)
        assert f(4) * t.b8 == t.b2 * t.b6 - t.b4 * t.b4


def test_singular_classification(F5):
    cusp = Curve.short(F5, F5(0), F5(0))  # y^2 = x^3
    assert curve_invariants(cusp).singular_kind == "cusp"
    # y^2 = x^3 + x^2: tangent cone y^2 = x^2 splits
    node_r = Curve.make(F5, 0, 1, 0, 0, 0)
    assert curve_invariants(node_r).singular_kind == "node_rational_slope"
    # y^2 = x^3 + 2x^2: 2 is a nonresidue mod 5, tangents irrational
    node_i = Curve.make(F5, 0, 2, 0, 0, 0)
    assert quadratic_character(F5(2)) == -1
    assert curve_invariants(node_i).singular_kind == "node_irrational_slope"


def test_singular_classification_char2(F8):
    cusp = Curve.make(F8, 0, 0, 0, 0, 0)
    assert curve_invariants(cusp).singular_kind == "cusp"


BINARY_FIELDS = [FieldSpec(2, n, mod) for n, mod in (
    (2, (1, 1, 1)), (3, (1, 1, 0, 1)), (4, (1, 1, 0, 0, 1)),
    (5, (1, 0, 1, 0, 0, 1)), (6, (1, 1, 0, 0, 0, 0, 1)))]


@pytest.mark.parametrize("f", [FieldSpec(13), FieldSpec(3, 2, (1, 0, 1))] + BINARY_FIELDS,
                         ids=str)
def test_solve_y_matches_scan(f):
    """solve_y against the exhaustive y-scan, for every x. Over F_{2^n}
    both parities of n occur (even n takes a trace-one delta != 1) and the
    roots come in elements() order; over odd q they come in the set order
    of the square roots, so they are compared sorted. One singular curve
    per characteristic rides along."""
    rng = random.Random(f.q)
    curves = [Curve(f, *(f.random_element(rng) for _ in range(5)))
              for _ in range(2 if f.q < 64 else 1)]
    if f.q in (13, 9, 16):
        # y^2 + xy = x^3 in characteristic 2, y^2 = x^3 + x^2 otherwise
        curves.append(Curve.make(f, *((1, 0) if f.p == 2 else (0, 1)), 0, 0, 0))
        assert not is_nonsingular(curves[-1])
    for E in curves:
        for x in f.elements():
            scan = [y for y in f.elements() if E.equation_lhs_minus_rhs(x, y).is_zero()]
            ys = E.solve_y(x)
            if f.p != 2:
                ys = sorted(ys, key=lambda y: y.coeffs)
            assert ys == scan


@pytest.mark.parametrize("a", [0, 1, 11])
def test_singular_classification_f1009(a):
    """y^2 = (x - x0)^2 (x - x0 + a) with x0 = 1004: the tangent cone at
    (x0, 0) is y^2 = a (x - x0)^2, a cusp for a = 0 and a node whose slopes
    are rational iff a is a square."""
    f = FieldSpec(1009)
    x0, A = f(1004), f(a)
    E = Curve(f, f(0), A - 3 * x0, f(0), 3 * x0 * x0 - 2 * A * x0, A * x0 * x0 - x0 ** 3)
    want = {0: "cusp", 1: "node_rational_slope", -1: "node_irrational_slope"}
    assert curve_invariants(E).singular_kind == want[quadratic_character(A)]


def test_j_of_short_curve(F13):
    E = Curve.short(F13, F13(6), F13(11))
    a, b = 6, 11
    disc = (-16 * (4 * a ** 3 + 27 * b ** 2)) % 13
    want = (1728 * 4 * a ** 3 * pow((4 * a ** 3 + 27 * b ** 2) % 13, -1, 13)) % 13
    assert j_invariant(E).lift() == want
    assert curve_invariants(E).discriminant.lift() == disc


def test_admissible_map_compose_invert(F13):
    rng = random.Random(0)
    for _ in range(50):
        u1, u2 = F13(rng.randrange(1, 13)), F13(rng.randrange(1, 13))
        m1 = AdmissibleMap(u1, F13(rng.randrange(13)), F13(rng.randrange(13)),
                           F13(rng.randrange(13)))
        m2 = AdmissibleMap(u2, F13(rng.randrange(13)), F13(rng.randrange(13)),
                           F13(rng.randrange(13)))
        E = Curve.short(F13, F13(6), F13(11))
        # applying then inverting is the identity on curves
        assert m1.invert().apply(m1.apply(E)) == E
        # composition agrees with sequential application
        assert m1.compose(m2).apply(E) == m2.apply(m1.apply(E))


def test_to_short_form_preserves_class(F13):
    rng = random.Random(1)
    for _ in range(30):
        E = _random_curve(F13, rng)
        if not is_nonsingular(E):
            continue
        S, m = to_short_form(E)
        assert S.is_short
        assert j_invariant(S) == j_invariant(E)
        assert brute_force_order(S).N == brute_force_order(E).N
        assert m.apply(E) == S


def test_char3_normal_form(F9):
    rng = random.Random(2)
    for _ in range(30):
        E = _random_curve(F9, rng)
        if not is_nonsingular(E):
            continue
        S = char3_normal_form(E)
        assert S.a1.is_zero() and S.a3.is_zero()
        assert j_invariant(S) == j_invariant(E)


def test_char2_normal_form(F8):
    rng = random.Random(3)
    for _ in range(30):
        E = _random_curve(F8, rng)
        if not is_nonsingular(E):
            continue
        S, _m = char2_normal_form(E)
        assert j_invariant(S) == j_invariant(E)
        if j_invariant(E).is_zero():
            assert S.a1.is_zero()  # supersingular shape
        else:
            assert S.a1 == F8.one()


@pytest.mark.parametrize("q", [5, 7, 13])
def test_quadratic_twist_pairing(q):
    f = FieldSpec(q)
    nonres = next(u for u in f.elements() if quadratic_character(u) == -1)
    rng = random.Random(q)
    for _ in range(20):
        E = _random_curve(f, rng)
        if not is_nonsingular(E):
            continue
        T = quadratic_twist(E, nonres)
        assert j_invariant(T) == j_invariant(E)
        assert brute_force_order(E).N + brute_force_order(T).N == 2 * q + 2
        # twisting twice lands back in the same isomorphism class
        assert isomorphism_test(quadratic_twist(T, nonres), E) is not None


def test_twist_requires_nonresidue(F13):
    E = Curve.short(F13, F13(6), F13(11))
    with pytest.raises(EcgroupsError):
        quadratic_twist(E, F13(1))


def test_isomorphism_test_positive_negative(F13):
    E = Curve.short(F13, F13(6), F13(11))
    m = AdmissibleMap(F13(2), F13(3), F13(4), F13(5))
    E2 = m.apply(E)
    got = isomorphism_test(E, E2)
    assert got is not None and got.apply(E) == E2
    # different j-invariants can never be isomorphic
    other = Curve.short(F13, F13(0), F13(2))
    assert j_invariant(other) != j_invariant(E)
    assert isomorphism_test(E, other) is None


def test_isomorphism_test_char2(F8):
    E = Curve.make(F8, 1, 0, 0, 0, 1)
    m = AdmissibleMap(F8.one(), F8((1, 1, 0)), F8((0, 1, 0)), F8((1, 0, 1)))
    assert isomorphism_test(E, m.apply(E)) is not None


def test_legendre_parameters(F13):
    # y^2 = x(x-1)(x-3) = x^3 - 4x^2 + 3x has full rational 2-torsion;
    # the parameter orbit is the standard six-element set {a, 1-a, 1/a, ...}
    E = Curve.make(F13, 0, -4 % 13, 0, 3, 0)
    alphas = {lp.alpha for lp in legendre_parameters(E)}
    one = F13.one()
    a = next(iter(alphas))
    orbit = {a, one - a, one / a, one / (one - a), (a - one) / a, a / (a - one)}
    assert alphas == orbit
    assert len(alphas) in (1, 2, 3, 6)


@pytest.mark.parametrize("f", [FieldSpec(13), FieldSpec(3, 2, (1, 0, 1)),
                               FieldSpec(5, 2, (2, 0, 1))], ids=str)
def test_legendre_parameters_long_form(f):
    """On long-form curves the parameters come from the roots of the
    cubic of the even form y^2 = x^3 + a2 x^2 + a4 x + a6."""
    rng = random.Random(f.q)
    split = 0
    for _ in range(40):
        E = Curve(f, *(f.random_element(rng) for _ in range(5)))
        if not is_nonsingular(E):
            continue
        Ev, _ = odd_char_even_form(E)
        roots = Poly.make(f, [Ev.a6, Ev.a4, Ev.a2, 1]).roots()
        if len(roots) != 3:
            with pytest.raises(IncompleteTwoTorsion):
                legendre_parameters(E)
            continue
        split += 1
        want = {(e3 - e1) / (e2 - e1) for e1, e2, e3 in itertools.permutations(roots)}
        assert {lp.alpha for lp in legendre_parameters(E)} == want
    assert split > 0


def test_enumerate_short_curves_f5(F5):
    out = enumerate_short_curves(F5)
    assert out["total_nonsingular"] == 20
    assert out["class_count"] == 12
    assert sorted(len(c) for c in out["classes"]) == [1, 1, 1, 1] + [2] * 8
    assert sum(len(c) for c in out["classes"]) == 20


@pytest.mark.parametrize("f", [FieldSpec(5, 2, (2, 0, 1)), FieldSpec(7, 2, (1, 0, 1))],
                         ids=["F25", "F49"])
def test_enumerate_short_curves_extension(f):
    q = f.q
    out = enumerate_short_curves(f)
    assert out["class_count"] == 2 * q + {1: 6, 5: 2, 7: 4, 11: 0}[q % 12]
    # the census takes the singular pairs in closed form; find them here
    # from the discriminant, and require the classes to partition the rest
    nonsingular = sorted((a.canonical_index(), b.canonical_index())
                         for a in f.elements() for b in f.elements()
                         if not (4 * a * a * a + 27 * b * b).is_zero())
    assert out["total_nonsingular"] == len(nonsingular)
    assert sorted(pair for c in out["classes"] for pair in c) == nonsingular


@pytest.mark.parametrize("q", [7, 13, 8, 9])
def test_standard_curve_for_j_roundtrip(q, F8, F9):
    f = {8: F8, 9: F9}.get(q) or FieldSpec(q)
    for j in f.elements():
        E = standard_curve_for_j(f, j)
        assert is_nonsingular(E)
        assert j_invariant(E) == j


def test_edwards_equivalents(F13):
    ec = EdwardsCurve(F13, F13(2), F13.one())
    eq = edwards_equivalents(ec)
    assert eq  # the orbit is nonempty and lives in the base field
    for b in eq:
        assert b.field == F13 and not b.is_zero()


def test_parse_curve_roundtrip(F13, F8):
    for E in (Curve.make(F13, 1, 2, 3, 4, 6), Curve.make(F8, 1, 0, 0, 0, 1)):
        assert parse_curve(str(E)) == E


def test_singular_curve_order_rejected(F5):
    with pytest.raises(SingularCurve):
        brute_force_order(Curve.short(F5, F5(0), F5(0)))

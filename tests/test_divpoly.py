"""Division polynomials and torsion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups.curve import Curve, is_nonsingular
from ecgroups.count import brute_force_order
from ecgroups import divpoly
from ecgroups.divpoly import division_polynomial, torsion_points, torsion_test
from ecgroups.errors import EcgroupsError, FieldTooLarge
from ecgroups.field import FieldSpec
from ecgroups.point import Point, all_points, scalar_mul
from ecgroups.poly import Poly


F25 = FieldSpec(5, 2, (2, 0, 1))


def _field(q):
    return F25 if q == 25 else FieldSpec(q)


def _short_curves(f, limit=None):
    out = []
    for a in f.elements():
        for b in f.elements():
            E = Curve.short(f, a, b)
            if is_nonsingular(E):
                out.append(E)
    rng = random.Random(f.q)
    rng.shuffle(out)
    return out[:limit] if limit else out


@pytest.mark.parametrize("q", [5, 7, 13, 25])
def test_low_psi_closed_forms(q):
    f = _field(q)
    for E in _short_curves(f, limit=12):
        a, b = E.a4, E.a6
        g2 = division_polynomial(E, 2).as_univariate
        g3 = division_polynomial(E, 3).as_univariate
        g4 = division_polynomial(E, 4).as_univariate
        assert g2 == Poly.make(f, [f(2)])
        want3 = Poly.make(f, [-(a * a), f(12) * b, f(6) * a, f(0), f(3)])
        assert g3 == want3
        want4 = Poly.make(f, [
            f(4) * (-f(8) * b * b - a * a * a),
            f(4) * (-f(4) * a * b),
            f(4) * (-f(5) * a * a),
            f(4) * (f(20) * b),
            f(4) * (f(5) * a),
            f(0),
            f(4),
        ])
        assert g4 == want4


def test_torsion_poly_degrees(F13):
    E = Curve.short(F13, F13(6), F13(11))
    for n in range(2, 12):
        d = division_polynomial(E, n)
        # the full n-torsion x-polynomial has degree (n^2 - 1)/2 for odd n;
        # even n carries the squared polynomial times the curve cubic,
        # degree (n^2 - 4) + 3 = n^2 - 1
        if n % 2 == 1:
            assert d.torsion_poly.degree == (n * n - 1) // 2
        else:
            assert d.torsion_poly.degree == n * n - 1


@pytest.mark.parametrize("q", [5, 11, 25])
def test_torsion_test_matches_scalar_mul(q):
    for E in _short_curves(_field(q), limit=8):
        for n in range(2, 9):
            for P in all_points(E):
                want = scalar_mul(n, P).is_infinity
                assert torsion_test(P, n) == want, (str(E), n, str(P))


def _poly(f, coeffs):
    return Poly.make(f, [f(tuple(c)) for c in coeffs])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([13, 25]), st.data())
def test_packed_arithmetic_matches_evaluation(q, data):
    # Poly works on Kronecker-packed F_p tuples; evaluating at every field
    # element with FieldElement arithmetic checks it independently
    f = _field(q)
    coeff = st.lists(st.integers(0, f.p - 1), min_size=f.n, max_size=f.n)
    A, B = (_poly(f, data.draw(st.lists(coeff, min_size=k, max_size=k)))
            for k in data.draw(st.tuples(st.integers(0, 61), st.integers(0, 61))))
    S, D, M = A + B, A - B, A * B
    if not (A.is_zero() or B.is_zero()):
        assert M.degree == A.degree + B.degree
    for x in f.elements():
        a, b = A(x), B(x)
        assert (S(x), D(x), M(x)) == (a + b, a - b, a * b)


ROOT_FIELDS = [FieldSpec(1009), FieldSpec(3, 3, (1, 2, 0, 1)),
               FieldSpec(3, 6, (2, 1, 0, 0, 0, 0, 1)), F25, FieldSpec(7, 2, (1, 0, 1)),
               FieldSpec(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))]


@pytest.mark.parametrize("f", ROOT_FIELDS, ids=str)
def test_roots_match_scan(f):
    """Poly.roots evaluates on numpy arrays; a FieldElement scan in
    elements() order gives the same roots in the same order."""
    rng = random.Random(f.q)
    for k in range(4):
        g = Poly.make(f, [f.random_element(rng) for _ in range(3)] + [f.one()])
        for _ in range(k):  # k more linear factors, so that roots occur
            g = g * Poly.make(f, [f.random_element(rng), f.one()])
        assert g.roots() == [x for x in f.elements() if g(x).is_zero()], str(g)


def test_roots_refuse_fields_beyond_int64():
    # n p^2 >= 2^63 would overflow the int64 products, and q >= 2^63 the
    # element indices
    for f in (FieldSpec(2 ** 61 - 1), FieldSpec(2, 64, (1, 1, 0, 1, 1) + (0,) * 59 + (1,))):
        with pytest.raises(FieldTooLarge):
            Poly.make(f, [1, 1]).roots()


def test_three_torsion_points_golden(F13):
    # y^2 = x^3 + 3 over F_13 has full 3-torsion: 8 affine points
    E = Curve.short(F13, F13(0), F13(3))
    pts = torsion_points(E, 3)
    affine = {P for P in pts if not P.is_infinity}
    assert len(affine) == 8
    want = {(0, 4), (0, 9), (1, 2), (1, 11), (3, 2), (3, 11), (9, 2), (9, 11)}
    assert {(P.x.lift(), P.y.lift()) for P in affine} == want


def test_torsion_points_order_divides(F13):
    E = Curve.short(F13, F13(6), F13(11))
    N = brute_force_order(E).N
    for n in range(2, 9):
        pts = torsion_points(E, n)
        for P in pts:
            assert scalar_mul(n, P).is_infinity
        # the n-torsion subgroup size divides gcd-constrained n^2 and N
        assert len(pts) + 1 if Point.infinity(E) not in pts else len(pts)


def test_torsion_subgroup_size(F13):
    # |E[n](F_q)| always divides n^2
    for (a, b) in [(6, 11), (0, 2), (1, 1)]:
        E = Curve.short(F13, F13(a), F13(b))
        for n in range(2, 9):
            full = {P for P in all_points(E) if scalar_mul(n, P).is_infinity}
            assert (n * n) % len(full) == 0
            got = torsion_points(E, n)
            assert {P for P in got} | {Point.infinity(E)} == full | {Point.infinity(E)}


def test_psi_tables_bounded():
    """Memoised psi tables are kept for a bounded number of curves."""
    curves = _short_curves(FieldSpec(11))[:divpoly._TABLES_KEPT + 8]
    divpoly._tables.clear()
    for E in curves:
        division_polynomial(E, 4)
    assert len(divpoly._tables) == divpoly._TABLES_KEPT
    assert curves[-1] in divpoly._tables and curves[0] not in divpoly._tables


def test_bad_arguments(F13):
    E = Curve.short(F13, F13(6), F13(11))
    with pytest.raises((EcgroupsError, AssertionError, ValueError)):
        division_polynomial(E, 201)
    # division polynomials need odd characteristic short form
    F8 = FieldSpec(2, 3, (1, 1, 0, 1))
    E2 = Curve.make(F8, 1, 0, 0, 0, 1)
    with pytest.raises(EcgroupsError):
        division_polynomial(E2, 3)

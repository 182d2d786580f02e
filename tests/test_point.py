"""Group law, scalar multiplication, NAF and Edwards addition."""

import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups.curve import Curve, EdwardsCurve, is_nonsingular
from ecgroups.count import brute_force_order, random_point
from ecgroups.errors import MixedCurves
from ecgroups.field import FieldSpec
from ecgroups.point import (
    Point,
    _point,
    add,
    all_points,
    double,
    edwards_add,
    naf_encode,
    negate,
    on_curve,
    parse_point,
    scalar_mul,
)


def _sample_curves(F13, F8, F9):
    return [
        Curve.short(F13, F13(6), F13(11)),
        Curve.short(F13, F13(0), F13(3)),
        Curve.make(F13, 1, 2, 3, 4, 6),  # generic long form
        Curve.make(F8, 1, 0, 0, 0, 1),   # ordinary, char 2
        Curve.make(F8, 0, 0, 1, 0, 0),   # supersingular, char 2
        Curve.make(F9, 0, 0, 0, 1, 0),   # char 3
    ]


def test_group_axioms_exhaustive(F13, F8, F9):
    for E in _sample_curves(F13, F8, F9):
        pts = all_points(E)
        O = Point.infinity(E)
        rng = random.Random(0)
        for _ in range(150):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert add(P, Q) == add(Q, P)
            assert add(P, O) == P
            assert add(P, negate(P)) == O
            assert add(add(P, Q), R) == add(P, add(Q, R))
            assert add(P, P) == double(P)


def test_closure_and_on_curve(F13, F8, F9):
    # the group law builds its results unchecked, so check them here
    F125 = FieldSpec(5, 3, (1, 1, 0, 1))  # x^3 + x + 1
    for E in _sample_curves(F13, F8, F9) + [Curve.make(F125, 0, 0, 0, (1, 1), 2)]:
        pts = all_points(E)
        rng = random.Random(1)
        for _ in range(60):
            P, Q = rng.choice(pts), rng.choice(pts)
            n = rng.randrange(2, 300)
            for S in (add(P, Q), double(P), negate(P),
                      scalar_mul(n, P, "binary"), scalar_mul(n, P, "naf")):
                assert S.is_infinity or on_curve(E, S.x, S.y)


def test_order_annihilates(F13, F8, F9):
    for E in _sample_curves(F13, F8, F9):
        N = brute_force_order(E).N
        for P in all_points(E):
            assert scalar_mul(N, P).is_infinity


def test_mixed_curves_rejected(F13):
    E1 = Curve.short(F13, F13(6), F13(11))
    E2 = Curve.short(F13, F13(0), F13(3))
    with pytest.raises(MixedCurves):
        add(all_points(E1)[1], all_points(E2)[1])


@settings(max_examples=60)
@given(st.integers(1, 10 ** 9))
def test_naf_value_and_nonadjacency(n):
    naf = naf_encode(n)
    assert naf.value() == n
    digits = naf.digits
    assert all(d in (-1, 0, 1) for d in digits)
    assert all(digits[i] == 0 or digits[i + 1] == 0
               for i in range(len(digits) - 1))


def test_naf_rejects_nonpositive():
    for n in (0, -1):
        with pytest.raises(ValueError):
            naf_encode(n)
    # a ValueError, not an assert, so python -O keeps the check
    code = ("from ecgroups.point import naf_encode\n"
            "try:\n    naf_encode(0)\nexcept ValueError:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    assert subprocess.run([sys.executable, "-O", "-c", code]).returncode == 0


def test_naf_density():
    # the average fraction of nonzero NAF digits tends to 1/3
    rng = random.Random(0)
    total = nonzero = 0
    for _ in range(800):
        d = naf_encode(rng.randrange(1, 2 ** 24)).digits
        total += len(d)
        nonzero += sum(1 for x in d if x)
    assert abs(nonzero / total - 1 / 3) < 0.03


def test_scalar_mul_strategies_agree(F13):
    E = Curve.short(F13, F13(6), F13(11))
    P = next(P for P in all_points(E) if not P.is_infinity)
    for n in list(range(40)) + [121, 1000, 65537]:
        assert scalar_mul(n, P, "binary") == scalar_mul(n, P, "naf")
    assert scalar_mul(-3, P) == negate(scalar_mul(3, P))


def test_two_torsion_is_self_inverse(F13):
    E = Curve.short(F13, F13(6), F13(11))
    for P in all_points(E):
        if P.is_infinity:
            continue
        if double(P).is_infinity:
            assert negate(P) == P


def test_parse_point_roundtrip(F13, F8):
    for E in (Curve.short(F13, F13(6), F13(11)), Curve.make(F8, 1, 0, 0, 0, 1)):
        for P in all_points(E):
            assert parse_point(str(P), E) == P
            assert pickle.loads(pickle.dumps(P)) == P


def test_edwards_addition(F13):
    # x^2 + y^2 = c^2 (1 + d x^2 y^2), unified formulas
    ec = EdwardsCurve(F13, F13(2), F13(3))
    pts = [(x, y) for x in F13.elements() for y in F13.elements()
           if ec.contains(x, y)]
    ident = (F13(0), ec.c)
    assert ident in [(p[0], p[1]) for p in pts]
    rng = random.Random(2)
    for _ in range(80):
        P, Q = rng.choice(pts), rng.choice(pts)
        try:
            S = edwards_add(ec, P, Q)
        except Exception:
            continue  # exceptional pair for a non-complete d
        assert ec.contains(*S)
        assert edwards_add(ec, P, ident) == P
        assert edwards_add(ec, P, Q) == edwards_add(ec, Q, P)


def test_all_points_matches_count(F13, F8, F9):
    F16 = FieldSpec(2, 4, (1, 1, 0, 0, 1))
    F32 = FieldSpec(2, 5, (1, 0, 1, 0, 0, 1))
    extra = [Curve.make(F, *c) for F in (F16, F32)
             for c in ((1, (0, 1), 0, 0, (1, 1)), (0, 0, 1, (0, 1), 0))]
    for E in _sample_curves(F13, F8, F9) + extra:
        pts = all_points(E)
        assert pts[0].is_infinity
        assert len(pts) == brute_force_order(E).N
        assert len(set(pts)) == len(pts)


PRIMES = [5, 7, 11, 13, 101, 331, 1009, 1999, 10007]


def _int_equation(E, P):
    p = E.field.p
    a1, a2, a3, a4, a6 = (c.lift() for c in E.coefficients())
    x, y = P.x.lift(), P.y.lift()
    return (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIMES), st.lists(st.integers(0, 10 ** 6), min_size=5, max_size=5),
       st.integers(0, 2 ** 32))
def test_group_law_over_random_prime_field_curves(p, coeffs, seed):
    f = FieldSpec(p)
    E = Curve.make(f, *coeffs)
    if not is_nonsingular(E):
        return
    rng = random.Random(seed)
    P, Q, R = (random_point(E, rng) for _ in range(3))
    for S in (add(P, Q), add(P, P), add(add(P, Q), R)):
        assert S.is_infinity or _int_equation(E, S) == 0
    assert add(P, Q) == add(Q, P)
    assert add(add(P, Q), R) == add(P, add(Q, R))
    N = brute_force_order(E).N  # character sum, independent of the group law
    for T in (P, Q, add(P, Q)):
        assert scalar_mul(N, T).is_infinity
        assert scalar_mul(N, T, "naf").is_infinity


def test_off_curve_points_rejected(F13, F8):
    E = Curve.short(F13, F13(6), F13(11))
    with pytest.raises(ValueError):
        Point(E, F13(1), F13(1))
    with pytest.raises(ValueError):
        Point.at(E, 1, 1)
    with pytest.raises(ValueError):  # unpickling builds through Point(...)
        pickle.loads(pickle.dumps(_point(E, F13(1), F13(1))))
    with pytest.raises(ValueError):
        parse_point("(1,1)", E)
    E2 = Curve.make(F8, 1, 0, 0, 0, 1)
    on = {(P.x, P.y) for P in all_points(E2) if not P.is_infinity}
    x, y = next((x, y) for x in F8.elements() for y in F8.elements() if (x, y) not in on)
    with pytest.raises(ValueError):
        Point.at(E2, x, y)
    with pytest.raises(ValueError):
        parse_point(f"({x},{y})", E2)

"""L-polynomials, zeta expansions, L-series and angle statistics."""

import math
import random
import subprocess
import sys

import pytest
from hypothesis import strategies as st

from ecgroups.count import brute_force_order, bsgs_order
from ecgroups.curve import Curve
from ecgroups.errors import (
    BadCharacteristic,
    BoundsViolated,
    EcgroupsError,
    FieldTooLarge,
    HasseViolation,
    MissingPrime,
)
from ecgroups.field import FieldSpec, quadratic_character, quadratic_extension
from ecgroups.poly import Poly
from ecgroups.zeta import (
    LPolynomial,
    angle_sequence,
    cm_cdf,
    conductor_surrogate,
    curve_l_series,
    discrepancy,
    hyperelliptic_count,
    integer_discriminant,
    l_series_coefficients,
    lpoly_from_counts,
    lpoly_from_trace,
    lpoly_of_curve,
    mestre_window_attained,
    norm_check,
    reduction_trace,
    sato_tate_cdf,
    trace_frequency,
    zeta_series_expand,
)


def test_lpolynomial_validation():
    L = lpoly_from_trace(5, 13)
    assert L.coeffs == (1, -5, 13) and L.count() == 9
    with pytest.raises(HasseViolation):
        lpoly_from_trace(8, 13)
    with pytest.raises(BoundsViolated):
        LPolynomial(1, 13, (2, -5, 13))  # c_0 must be 1
    with pytest.raises(BoundsViolated):
        LPolynomial(1, 13, (1, -5, 14))  # breaks the functional symmetry


def test_supersingular_genus2_accepted():
    # (T^2 + q)^2 has repeated reciprocal roots on the |z| = sqrt(q) circle
    L = LPolynomial(2, 5, (1, 0, 10, 0, 25))
    assert L.count() == 36


def test_genus2_weil_violation_rejected():
    with pytest.raises(BoundsViolated):
        LPolynomial(2, 5, (1, -9, 30, -45, 25))
    # (1, 0, 78, 0, 169) passes the c_2 bound but its w-roots are not real
    with pytest.raises(BoundsViolated):
        lpoly_from_counts(2, [14, 326], 13)


def test_power_sums_match_roots():
    L = lpoly_from_trace(2, 5)
    s = L.power_sums(6)
    # alpha + beta = t, alpha * beta = q
    t, q = 2, 5
    v = [2, t]
    for _ in range(5):
        v.append(t * v[-1] - q * v[-2])
    assert s == v[:7]


def test_zeta_series_tables(F5):
    assert zeta_series_expand(lpoly_from_trace(0, 2), 8) == [
        3, 9, 9, 9, 33, 81, 129, 225]
    E = Curve.short(F5, F5.one(), F5.zero())
    L = lpoly_of_curve(E)
    assert zeta_series_expand(L, 4) == [4, 32, 148, 640]


def test_lpoly_from_counts_roundtrip_g1(F13):
    for (a, b) in [(0, 2), (0, 3), (6, 11)]:
        E = Curve.short(F13, F13(a), F13(b))
        N = brute_force_order(E).N
        L = lpoly_from_counts(1, [N], 13)
        assert L == lpoly_of_curve(E)


def test_lpoly_from_counts_g2():
    F5 = FieldSpec(5)
    F25 = quadratic_extension(F5)
    model = [1, 1, 0, 0, 0, 1]  # y^2 = x^5 + x + 1
    n1 = hyperelliptic_count(F5, model)
    n2 = hyperelliptic_count(F25, model)
    L = lpoly_from_counts(2, [n1, n2], 5)
    assert zeta_series_expand(L, 2) == [n1, n2]
    # degree-6 model exercises the two-points-at-infinity convention
    model6 = [1, 1, 0, 0, 0, 0, 1]
    m1 = hyperelliptic_count(F5, model6)
    m2 = hyperelliptic_count(F25, model6)
    L6 = lpoly_from_counts(2, [m1, m2], 5)
    assert zeta_series_expand(L6, 2) == [m1, m2]


def test_lpoly_from_counts_rejects_impossible():
    with pytest.raises(EcgroupsError):
        lpoly_from_counts(1, [30], 13)  # outside the Hasse window


def test_norm_check():
    assert norm_check(lpoly_from_trace(2, 5), 4, 2)
    assert norm_check(lpoly_from_trace(5, 13), 6, 3)
    assert norm_check(lpoly_from_trace(0, 7), 8, 4)


# Preconditions a caller can break. Each must raise the same typed error
# with and without python -O, so none of them may be an assert.
PRECONDITIONS = """
from ecgroups.count import point_order
from ecgroups.curve import AdmissibleMap, Curve
from ecgroups.errors import DegenerateParameter
from ecgroups.field import FieldSpec
from ecgroups.point import Point
from ecgroups.zeta import (LPolynomial, lpoly_from_counts, lpoly_from_trace, norm_check,
                           zeta_series_expand)

f = FieldSpec(13)
P = Point(Curve.short(f, f(0), f(1)), f(2), f(3))  # order 6
genus3 = LPolynomial(3, 13, (1, 0, 0, 0, 0, 0, 13 ** 3))
cases = [
    (ValueError, lambda: point_order(P, 7)),
    (ValueError, lambda: lpoly_from_counts(3, [12, 170, 2200], 13)),
    (ValueError, lambda: lpoly_from_counts(2, [12], 13)),
    (ValueError, lambda: zeta_series_expand(genus3, 3)),
    (ValueError, lambda: norm_check(lpoly_from_trace(2, 5), 3, 2)),
    (ValueError, lambda: norm_check(LPolynomial(2, 13, (1, 0, 0, 0, 169)), 2, 1)),
    (ValueError, lambda: norm_check(lpoly_from_trace(6, 9), 2, 1)),
    (DegenerateParameter, lambda: AdmissibleMap(f(0), f(1), f(2), f(3))),
]
assert point_order(P, 12) == 6
for i, (error, call) in enumerate(cases):
    try:
        call()
    except error:
        continue
    raise SystemExit(f"case {i} did not raise {error.__name__}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_preconditions_raise_typed_errors(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", PRECONDITIONS],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


GOLDEN_LSERIES = {7: -4, 13: 2, 19: 8, 25: -5, 37: -10, 49: 9}


def test_curve_l_series_golden():
    a = curve_l_series((0, 0, 0, 0, 1), 91)
    assert a[0] == 1
    for n, want in GOLDEN_LSERIES.items():
        assert a[n - 1] == want, n
    # multiplicativity on coprime indices
    assert a[90] == a[6] * a[12]  # a_91 = a_7 a_13


def test_l_series_needs_primes():
    with pytest.raises(MissingPrime):
        l_series_coefficients({2: 0}, 10)


def test_integer_discriminant_and_conductor():
    assert conductor_surrogate((0, 0, 0, 0, 1)) == 6
    assert conductor_surrogate((0, 0, 0, -1, 0)) == 2
    d = integer_discriminant((0, 0, 0, 0, 1))
    assert d != 0 and d % 27 == 0


def test_reduction_trace_bad_primes():
    # y^2 = x^3 + 1 is singular mod 2 and mod 3
    model = (0, 0, 0, 0, 1)
    for p in (2, 3):
        assert reduction_trace(model, p) in (-1, 0, 1)
    # good prime: matches the finite-field trace
    f7 = FieldSpec(7)
    E = Curve.short(f7, f7(0), f7(1))
    assert reduction_trace(model, 7) == brute_force_order(E).t


def test_cdfs_are_distributions():
    for cdf in (sato_tate_cdf, cm_cdf):
        assert cdf(0.0) == pytest.approx(0.0)
        assert cdf(math.pi) == pytest.approx(1.0)
        prev = -1.0
        for k in range(0, 65):
            v = cdf(k * math.pi / 64)
            assert v >= prev - 1e-12
            prev = v


def test_discrepancy_perfect_sample():
    # quantiles of the law itself have vanishing discrepancy
    n = 500
    thetas = []
    lo, hi = 0.0, math.pi
    for i in range(n):
        target = (i + 0.5) / n
        a, b = lo, hi
        for _ in range(50):
            mid = (a + b) / 2
            if sato_tate_cdf(mid) < target:
                a = mid
            else:
                b = mid
        thetas.append((a + b) / 2)
    assert discrepancy(thetas, sato_tate_cdf) < 0.01


def test_angle_sequence_deterministic():
    out1 = angle_sequence((0, 0, 0, 0, 1), "vary_prime", 500)
    out2 = angle_sequence((0, 0, 0, 0, 1), "vary_prime", 500)
    assert out1["histogram"] == out2["histogram"]
    assert len(out1["histogram"]) == 64
    assert out1["discrepancy_cm"] < out1["discrepancy_sato_tate"]


def test_angle_sequence_vary_degree(F13):
    E = Curve.short(F13, F13(6), F13(11))
    out = angle_sequence(E, "vary_degree", 64)
    assert len(out["samples"]) == 64
    for s in out["samples"]:
        assert 0.0 <= s.theta <= math.pi


def test_hyperelliptic_count_conventions(F5):
    # degree 5: one point at infinity
    n = hyperelliptic_count(F5, [1, 1, 0, 0, 0, 1])
    affine = sum(
        1
        for x in range(5)
        for y in range(5)
        if (y * y - (x ** 5 + x + 1)) % 5 == 0
    )
    assert n == affine + 1
    # degree 6 with square leading coefficient: two points at infinity
    affine6 = sum(
        1
        for x in range(5)
        for y in range(5)
        if (y * y - (x ** 6 + x + 1)) % 5 == 0
    )
    assert hyperelliptic_count(F5, [1, 1, 0, 0, 0, 0, 1]) == affine6 + 2


@pytest.mark.parametrize("f", [FieldSpec(5), FieldSpec(13), FieldSpec(101),
                               FieldSpec(3, 2, (1, 0, 1)), FieldSpec(3, 5, (1, 2, 0, 0, 0, 1)),
                               FieldSpec(7, 3, (2, 0, 0, 1))], ids=str)
def test_hyperelliptic_count_matches_element_loop(f):
    rng = random.Random(f.q)
    for deg in (5, 6, 5, 6):
        coeffs = [f.random_element(rng) for _ in range(deg)] + [f.one() + f.one()]
        g = Poly.make(f, coeffs)
        affine = sum(1 + quadratic_character(g(x)) for x in f.elements())
        infinity = 1 if deg == 5 else 1 + quadratic_character(g.leading())
        assert hyperelliptic_count(f, coeffs) == affine + infinity


def test_hyperelliptic_count_bounded():
    """The brute-force bounds, q <= 10^6 over F_p and q <= 2^20 over
    F_{p^n}, and odd characteristic: y^2 = f(x) is singular over F_2^n."""
    with pytest.raises(BadCharacteristic):
        hyperelliptic_count(FieldSpec(2), [1, 0, 0, 0, 0, 1])
    with pytest.raises(BadCharacteristic):
        hyperelliptic_count(FieldSpec(2, 2, (1, 1, 1)), [1, 0, 0, 0, 0, 1])
    with pytest.raises(FieldTooLarge):
        hyperelliptic_count(FieldSpec(1000003), [1, 0, 0, 0, 0, 1])
    with pytest.raises(FieldTooLarge):
        hyperelliptic_count(FieldSpec(1031, 2, (1, 0, 1)), [1, 0, 0, 0, 0, 1])


def test_lpoly_above_brute_force_bound():
    """p = 1000003 is above the brute-force bound, so the trace comes
    from BSGS."""
    E = Curve.make(FieldSpec(1000003), 0, 0, 0, 7, 11)
    assert lpoly_of_curve(E) == lpoly_from_trace(bsgs_order(E, 0).t, 1000003)


TF5_FROZEN = {-4: 1, -3: 2, -2: 3, -1: 2, 0: 4, 1: 2, 2: 3, 3: 2, 4: 1}


def test_trace_frequency_f5():
    got = trace_frequency(5)
    assert got == TF5_FROZEN
    assert sum(got.values()) == 20


def test_trace_frequency_symmetry():
    # quadratic twisting pairs t with -t, so the census is symmetric
    for q in (13, 17):
        got = trace_frequency(q)
        assert sum(got.values()) == q * q - q
        for t, c in got.items():
            assert got.get(-t, 0) == c


def test_mestre_window_small():
    for p in (11, 23, 101):
        assert mestre_window_attained(p)

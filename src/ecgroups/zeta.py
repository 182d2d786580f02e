"""Zeta functions, L-polynomials and L-series coefficients.

Power sums are expanded with exact integer Newton recurrences; floating
point enters only for root-modulus checks, Frobenius angles and the
histogram statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intutil
from .count import LucasState, brute_force_order, _chi_table
from .curve import Curve, curve_invariants, discriminant
from .errors import BoundsViolated, FieldTooLarge, HasseViolation, MissingPrime
from .field import FieldSpec


def _nonneg(a: int, b: int, q: int) -> bool:
    """Exact sign of a + b*sqrt(q) for integers a, b and q > 0."""
    if b == 0:
        return a >= 0
    if b > 0:
        return a >= 0 or a * a <= b * b * q
    return a >= 0 and a * a >= b * b * q


@dataclass(frozen=True)
class LPolynomial:
    """Numerator of the zeta function, coefficients low degree first.

    c_0 = 1, deg = 2g, functional symmetry c_{2g-i} = c_i q^{g-i}, all
    reciprocal roots of modulus sqrt(q), and L(1) = #C(F_q).
    """

    g: int
    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        assert len(self.coeffs) == 2 * self.g + 1
        assert self.coeffs[0] == 1
        # i > g gives the same condition divided by q^(i-g); checking it in
        # floats, as q ** (g - i), is inexact
        for i in range(self.g + 1):
            assert self.coeffs[2 * self.g - i] == self.coeffs[i] * self.q ** (self.g - i)
        # Reciprocal roots all of modulus sqrt(q).  Checked exactly: with
        # the symmetry above, this holds iff w = T + q/T maps the roots of
        # the reciprocal polynomial to real values in [-2 sqrt(q), 2 sqrt(q)].
        # (np.roots splits repeated eigenvalues by ~1e-8, so a float check
        # rejects genuine supersingular polynomials like (T^2 + q)^2.)
        q = self.q
        if self.g == 1:
            t = -self.coeffs[1]
            assert t * t <= 4 * q
        else:
            b, c = self.coeffs[1], self.coeffs[2]
            assert b * b - 4 * c + 8 * q >= 0  # w-roots real
            assert b * b <= 16 * q
            assert _nonneg(2 * q + c, 2 * b, q)
            assert _nonneg(2 * q + c, -2 * b, q)

    def __call__(self, T: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * T + c
        return acc

    def count(self) -> int:
        """#C(F_q) = L(1)."""
        return self(1)

    def power_sums(self, n_max: int) -> list[int]:
        """s_n = sum of alpha_i^n over the 2g reciprocal roots, exactly."""
        deg = 2 * self.g
        e = [(-1) ** i * self.coeffs[i] for i in range(deg + 1)]
        s = [deg]
        for n in range(1, n_max + 1):
            acc = 0
            for i in range(1, min(n - 1, deg) + 1):
                acc += (-1) ** (i - 1) * e[i] * s[n - i]
            if n <= deg:
                acc += (-1) ** (n - 1) * n * e[n]
            s.append(acc)
        return s


def lpoly_from_trace(t: int, q: int) -> LPolynomial:
    if t * t > 4 * q:
        raise HasseViolation(f"|{t}| exceeds 2*sqrt({q})")
    return LPolynomial(1, q, (1, -t, q))


def lpoly_of_curve(E: Curve) -> LPolynomial:
    return lpoly_from_trace(brute_force_order(E).t, E.field.q)


def zeta_series_expand(L: LPolynomial, n_max: int) -> list[int]:
    """N_n = q^n + 1 - s_n for n = 1..n_max, all in integer arithmetic."""
    assert L.g in (1, 2) and n_max <= 60
    s = L.power_sums(n_max)
    return [L.q ** n + 1 - s[n] for n in range(1, n_max + 1)]


def lpoly_from_counts(g: int, counts, q: int) -> LPolynomial:
    """Recover L from the first g point counts via Newton-Girard."""
    assert g in (1, 2) and len(counts) >= g
    s = [q ** (n + 1) + 1 - counts[n] for n in range(g)]
    bound = 2 * g * math.sqrt(q)
    if abs(s[0]) > bound:
        raise BoundsViolated(f"|s_1| = {abs(s[0])} exceeds the Weil bound")
    if g == 1:
        L = LPolynomial(1, q, (1, -s[0], q))
    else:
        e1 = s[0]
        num = s[0] * s[0] - s[1]
        assert num % 2 == 0, "inconsistent power sums"
        e2 = num // 2
        c1, c2 = -e1, e2
        if abs(c2) > 6 * q:
            raise BoundsViolated("second coefficient outside the Weil bounds")
        try:
            L = LPolynomial(2, q, (1, c1, c2, c1 * q, q * q))
        except AssertionError:
            raise BoundsViolated("counts are not the point counts of a curve")
    expanded = zeta_series_expand(L, g)
    assert expanded == list(counts[:g])
    return L


def norm_check(L: LPolynomial, n: int, m: int) -> bool:
    """For a CM curve (t^2 < 4q): N_n = |alpha^n - 1|^2 exactly, and for
    m | n the norm factorization makes N_m divide N_n."""
    assert L.g == 1 and n % m == 0
    t, q = -L.coeffs[1], L.q
    D = t * t - 4 * q
    assert D < 0, "norm check applies to the CM case"
    # alpha^k = (V_k + U_k sqrt(D)) / 2
    V = [2, t]
    U = [0, 1]
    for _ in range(n - 1):
        V.append(t * V[-1] - q * V[-2])
        U.append(t * U[-1] - q * U[-2])

    def norm_alpha_pow_minus_one(k: int) -> int:
        num = (V[k] - 2) ** 2 - D * U[k] ** 2
        assert num % 4 == 0
        return num // 4

    Nn = norm_alpha_pow_minus_one(n)
    Nm = norm_alpha_pow_minus_one(m)
    counts = zeta_series_expand(L, n)
    if Nn != counts[n - 1] or Nm != counts[m - 1]:
        return False
    return Nn % Nm == 0


# ---------------------------------------------------------------------------
# L-series coefficients


def l_series_coefficients(
    traces: dict[int, int], n_max: int, bad_primes: frozenset | set = frozenset()
) -> list[int]:
    """a_1..a_n by multiplicativity and the prime-power recurrences:
    a_{p^k} = a_p a_{p^{k-1}} - p a_{p^{k-2}} at good p, a_p^k at bad p."""
    a = [0] * (n_max + 1)
    a[1] = 1
    for p in intutil.primes_up_to(n_max):
        if p not in traces:
            raise MissingPrime(f"no trace supplied for p = {p}")
    for n in range(2, n_max + 1):
        fac = intutil.factorize(n)
        p = min(fac)
        k = fac[p]
        pk = p ** k
        if pk == n:
            if k == 1:
                a[n] = traces[p]
            elif p in bad_primes:
                a[n] = traces[p] ** k
            else:
                a[n] = traces[p] * a[pk // p] - p * a[pk // p // p]
        else:
            a[n] = a[pk] * a[n // pk]
    return a[1:]


def integer_discriminant(model: tuple[int, int, int, int, int]) -> int:
    """Discriminant of an integer-coefficient model, over the integers."""
    a1, a2, a3, a4, a6 = model
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def conductor_surrogate(model: tuple[int, int, int, int, int]) -> int:
    """Squarefree kernel of the discriminant; stands in for the conductor
    when picking good primes."""
    d = abs(integer_discriminant(model))
    assert d != 0
    if d == 1:
        return 1
    return intutil.squarefree_kernel(d)


def reduction_trace(model: tuple[int, int, int, int, int], p: int) -> int:
    """a_p of the reduction mod p: q+1-N at good primes, and the standard
    bad-prime values +1 / -1 / 0 for split node / nonsplit node / cusp."""
    f = FieldSpec(p)
    E = Curve.make(f, *model)
    inv = curve_invariants(E)
    if inv.singular_kind == "nonsingular":
        return brute_force_order(E).t
    return {
        "node_rational_slope": 1,
        "node_irrational_slope": -1,
        "cusp": 0,
    }[inv.singular_kind]


def curve_l_series(model: tuple[int, int, int, int, int], n_max: int) -> list[int]:
    """a_1..a_{n_max} of the L-series attached to an integer model."""
    traces = {}
    bad = set()
    for p in intutil.primes_up_to(n_max):
        traces[p] = reduction_trace(model, p)
        if integer_discriminant(model) % p == 0:
            bad.add(p)
    return l_series_coefficients(traces, n_max, frozenset(bad))


# ---------------------------------------------------------------------------
# Frobenius angles


@dataclass(frozen=True)
class AngleSample:
    index: int  # prime (vary_prime) or extension degree (vary_degree)
    a: int
    theta: float

    def __post_init__(self):
        assert 0.0 <= self.theta <= math.pi


def _angle(a: int, q: float) -> float:
    c = a / (2 * math.sqrt(q))
    c = min(1.0, max(-1.0, c))
    return math.acos(c)


def sato_tate_cdf(theta: float) -> float:
    """CDF of the sin^2 measure (2/pi) sin^2(t) dt on [0, pi]."""
    return (theta - math.sin(theta) * math.cos(theta)) / math.pi


def cm_cdf(theta: float) -> float:
    """CM angle law: uniform of mass 1/2 on [0, pi] plus an atom of mass
    1/2 at pi/2."""
    return theta / (2 * math.pi) + (0.5 if theta >= math.pi / 2 else 0.0)


def _cm_cdf_left(theta: float) -> float:
    return theta / (2 * math.pi) + (0.5 if theta > math.pi / 2 else 0.0)


def discrepancy(thetas, cdf, cdf_left=None) -> float:
    """Kolmogorov-style sup |empirical - target| over the sample points.

    Tie-aware, and `cdf_left` supplies the left limit where the target
    law has an atom (the CM law has mass 1/2 concentrated at pi/2).
    """
    if cdf_left is None:
        cdf_left = cdf
    xs = sorted(thetas)
    n = len(xs)
    worst = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and xs[j + 1] == xs[i]:
            j += 1
        worst = max(worst, abs((j + 1) / n - cdf(xs[i])), abs(i / n - cdf_left(xs[i])))
        i = j + 1
    return worst


def angle_sequence(model_or_curve, mode: str, limit: int) -> dict:
    """Frobenius angle samples plus a 64-bin histogram and discrepancies.

    vary_prime: integer model reduced at every good prime p <= limit.
    vary_degree: a Curve over F_q, traces from the Lucas recurrence for
    n = 1..limit.
    """
    samples = []
    skipped = 0
    if mode == "vary_prime":
        model = tuple(model_or_curve)
        disc = integer_discriminant(model)
        for p in intutil.primes_up_to(limit):
            if disc % p == 0:
                skipped += 1
                continue
            a = reduction_trace(model, p)
            samples.append(AngleSample(p, a, _angle(a, p)))
    elif mode == "vary_degree":
        E = model_or_curve
        q = E.field.q
        t1 = brute_force_order(E).t
        st = LucasState.build(t1, q, max(limit, 1))
        for n in range(1, limit + 1):
            samples.append(AngleSample(n, st.V[n], _angle(st.V[n], q ** n)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    thetas = [s.theta for s in samples]
    hist, edges = np.histogram(thetas, bins=64, range=(0.0, math.pi))
    return {
        "samples": samples,
        "histogram": hist.tolist(),
        "bin_edges": edges.tolist(),
        "skipped_singular": skipped,
        "discrepancy_sato_tate": discrepancy(thetas, sato_tate_cdf),
        "discrepancy_cm": discrepancy(thetas, cm_cdf, _cm_cdf_left),
    }


def hyperelliptic_count(field: FieldSpec, coeffs) -> int:
    """#C(F_q) for y^2 = f(x), deg f in {5, 6}, by solution enumeration.

    Points at infinity: one for deg 5; for deg 6, two when the leading
    coefficient is a square and none otherwise. This convention makes
    L(1) = N_1 come out right on desk examples.
    """
    from .field import quadratic_character
    from .poly import Poly

    f = Poly.make(field, coeffs)
    assert f.degree in (5, 6)
    n = sum(1 + quadratic_character(f(x)) for x in field.elements())
    if f.degree == 5:
        return n + 1
    return n + 1 + quadratic_character(f.leading())


# ---------------------------------------------------------------------------
# censuses


def trace_frequency(q: int) -> dict[int, int]:
    """Counts of short-form curves y^2 = x^3 + ax + b by trace, over all
    q^2 - q nonsingular pairs (a, b). Vectorized: feasible through q = 233."""
    if not (intutil.is_prime(q) and q % 2 == 1):
        raise FieldTooLarge("trace census needs an odd prime field")
    if q > 250:
        raise FieldTooLarge("trace census bounded at q = 250")
    p = q
    chi = _chi_table(p)
    x = np.arange(p, dtype=np.int64)
    x3 = (x * x % p) * x % p
    counts: dict[int, int] = {}
    for a in range(p):
        base = (x3 + a * x) % p  # x^3 + ax for all x
        disc_a = 4 * a * a * a % p
        for b in range(p):
            if (disc_a + 27 * b * b) % p == 0:
                continue  # singular
            N = p + 1 + int(chi[(base + b) % p].sum())
            t = p + 1 - N
            counts[t] = counts.get(t, 0) + 1
    assert sum(counts.values()) == p * p - p
    return counts


def mestre_window_attained(p: int) -> bool:
    """Every N in the Hasse window is the order of some short curve
    (Theorem-28 behaviour, guaranteed for p > 229)."""
    counts = trace_frequency(p)
    w = math.isqrt(4 * p)
    return all(t in counts for t in range(-w, w + 1))

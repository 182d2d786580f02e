"""Group-order computation by several independent methods.

Brute force (character sum / trace enumeration), random-point order
inside the Hasse window, baby-step giant-step, Lucas-sequence lifting
to extension fields, closed forms for the CM families y^2 = x^3 + b
and y^2 = x^3 + ax, and the Hasse/Manin trace congruence.

Sign conventions for the closed forms and for the Manin congruence are
the ones forced by brute-force counts; the test suite re-pins them on
every run for all primes up to 200.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from . import intutil
from .curve import Curve, is_nonsingular, quadratic_twist
from .errors import (
    AllPointsSmallOrder,
    BadBeta,
    BadCharacteristic,
    FieldTooLarge,
    HasseViolation,
    NoLargeOrderPoint,
    SingularCurve,
)
from .field import FieldElement, FieldSpec, absolute_trace, square_root
from .point import Point, _point, add, ladder_adds, negate, scalar_mul
from .poly import Poly


@dataclass(frozen=True)
class OrderResult:
    N: int
    t: int
    method: str
    hasse_ok: bool
    ops: int | None = None


def _result(E: Curve, N: int, method: str, ops: int | None = None) -> OrderResult:
    q = E.field.q
    t = q + 1 - N
    ok = t * t <= 4 * q
    if not ok:
        raise HasseViolation(f"order {N} violates the Hasse bound for q={q}")
    return OrderResult(N, t, method, ok, ops)


def hasse_window(q: int) -> tuple[int, int]:
    w = math.isqrt(4 * q)
    return q + 1 - w, q + 1 + w


# ---------------------------------------------------------------------------
# brute force


def _require_enumerable(f: FieldSpec):
    if f.n == 1 and f.q > 10 ** 6:
        raise FieldTooLarge("prime-field brute force bounded at 10^6")
    if f.n > 1 and f.q > 2 ** 20:
        raise FieldTooLarge("extension-field brute force bounded at 2^20")


@lru_cache(maxsize=None)
def _chi_table(f: FieldSpec):
    """chi on F_q by canonical_index (int8), from the values of x^2. Every p < 10^4 is
    kept (5.7 MB in all) so per-prime sweeps hit; other fields use _large_chi_table."""
    import numpy as np

    chi = np.full(f.q, -1, dtype=np.int8)
    for _x, index in Poly.make(f, [0, 0, 1]).values():
        chi[index] = 1
    chi[0] = 0
    return chi


# the 16 most recent tables with q >= 10^4 or n > 1 (q <= 2^20): at most 17 MB
_large_chi_table = lru_cache(maxsize=16)(_chi_table.__wrapped__)


def character_sum(g: Poly) -> int:
    """The sum of chi(g(x)) over x in F_q, chi the quadratic character of
    odd q. y^2 = g(x) has q + character_sum(g) affine points, and on a
    long-form curve (2y + a1*x + a3)^2 is the 2-division cubic, so this one
    sum counts genus 1 (brute_force_order) and genus 2
    (zeta.hyperelliptic_count)."""
    f = g.field
    if f.p == 2:
        raise BadCharacteristic("character sum needs odd characteristic")
    _require_enumerable(f)
    chi = (_chi_table if f.n == 1 and f.p < 10 ** 4 else _large_chi_table)(f)
    return sum(int(chi[index].sum()) for _x, index in g.values())


def brute_force_order(E: Curve) -> OrderResult:
    """Exhaustive count: character sum for odd q, trace condition for 2^e."""
    f = E.field
    _require_enumerable(f)
    if not is_nonsingular(E):
        raise SingularCurve("order of a singular curve")
    if f.p == 2:
        return _result(E, _brute_char2(E), "brute")
    return _result(E, f.q + 1 + character_sum(E.two_division_cubic()), "brute")


def _brute_char2(E: Curve) -> int:
    f = E.field
    one = f.one()
    N = 1
    for x in f.elements():
        L = E.a1 * x + E.a3
        c = x * x * x + E.a2 * x * x + E.a4 * x + E.a6
        if L.is_zero():
            N += 1  # squaring is bijective: unique y with y^2 = c
        elif absolute_trace(c / (L * L)) == f.zero():
            N += 2
        # trace one: no solution
    return N


# ---------------------------------------------------------------------------
# random points


def random_point(E: Curve, rng: random.Random) -> Point:
    """A point above a random x that has one, with a random y. Only q <= 4
    admits a curve with no affine point (q + 1 - 2 sqrt(q) > 1 for q >= 5),
    so there every x is tried once before drawing."""
    f = E.field
    if f.q <= 4 and not any(E.solve_y(x) for x in f.elements()):
        raise AllPointsSmallOrder("E(F_q) = {O}: the curve has no affine point")
    while True:
        x = f.random_element(rng)
        ys = E.solve_y(x)
        if ys:
            return _point(E, x, rng.choice(ys))


def point_order(P: Point, multiple: int) -> int:
    """Exact order of P given some annihilating multiple."""
    if not scalar_mul(multiple, P).is_infinity:
        raise ValueError(f"{multiple} does not annihilate the point")
    n = multiple
    for p in intutil.factorize(multiple):
        while n % p == 0 and scalar_mul(n // p, P).is_infinity:
            n //= p
    return n


def order_via_random_point(E: Curve, seed: int) -> OrderResult:
    """Pick a point of order > 4*sqrt(q); its unique annihilating multiple
    in the Hasse window is the group order."""
    if not is_nonsingular(E):
        raise SingularCurve("order of a singular curve")
    rng = random.Random(seed)
    q = E.field.q
    bound = math.isqrt(16 * q)  # floor(4 sqrt q)
    lo, hi = hasse_window(q)
    for _ in range(40):
        P = random_point(E, rng)
        # reject small orders: mP = O for some m <= 4 sqrt q
        acc = P
        small = False
        for _m in range(2, bound + 1):
            acc = add(acc, P)
            if acc.is_infinity:
                small = True
                break
        if small or P.is_infinity:
            continue
        hits = []
        acc = scalar_mul(lo, P)
        for n in range(lo, hi + 1):
            if acc.is_infinity:
                hits.append(n)
            acc = add(acc, P)
        assert len(hits) == 1, "window cannot contain two multiples"
        return _result(E, hits[0], "random_point")
    raise AllPointsSmallOrder(
        "every sampled point has order <= 4*sqrt(q); fall back to brute force"
    )


# ---------------------------------------------------------------------------
# baby-step giant-step


def bsgs_order(E: Curve, seed: int) -> OrderResult:
    """Shanks' method on a random point, with an lcm-of-orders fallback
    when no sampled point's order pins a unique window multiple. `ops`
    counts the group additions of the baby steps, the giant steps and the
    ladder [lo]P that starts them. The table is keyed by both coordinates,
    so a hit b at giant step a means [lo + a*m + b]P = O exactly and needs
    no ladder of its own."""
    if not is_nonsingular(E):
        raise SingularCurve("order of a singular curve")
    f = E.field
    q = f.q
    if q > 2 ** 48:
        raise FieldTooLarge("BSGS bounded at q = 2^48")
    rng = random.Random(seed)
    ops = 0
    lo, hi = hasse_window(q)
    m = math.isqrt(math.isqrt(q)) * 2 + 1  # ~ 2 q^{1/4}
    known_lcm = 1
    for _ in range(12):
        P = random_point(E, rng)
        if P.is_infinity:
            continue
        # baby steps: b*P for b in [0, m)
        table = {}
        acc = Point.infinity(E)
        for b in range(m):
            table.setdefault((acc.x, acc.y), b)
            acc = add(acc, P)
        step = acc  # m*P
        # giant steps: (lo + a*m)*P should equal -(b*P)
        G = scalar_mul(lo, P)
        ops += m + ladder_adds(lo)
        hits = []
        a = 0
        while lo + a * m <= hi + m:
            neg = negate(G)
            b = table.get((neg.x, neg.y))
            if b is not None:
                n = lo + a * m + b
                if lo <= n <= hi:
                    hits.append(n)
            G = add(G, step)
            ops += 1
            a += 1
        hits = sorted(set(hits))
        if len(hits) == 1:
            return _result(E, hits[0], "bsgs", ops)
        if not hits:
            continue
        # ambiguous: the point order is small; combine orders via lcm
        known_lcm = math.lcm(known_lcm, point_order(P, hits[0]))
        first = (lo + known_lcm - 1) // known_lcm * known_lcm
        if first + known_lcm > hi:
            return _result(E, first, "bsgs", ops)
    # The lcm of sampled orders is (almost surely) the group exponent e.
    # The group is Z_d x Z_e with d | e and d | q - 1, so only window
    # multiples n = d * e meeting both divisibility constraints can be N.
    e = known_lcm
    cands = [n for n in range(lo, hi + 1)
             if n % e == 0 and e % (n // e) == 0 and (q - 1) % (n // e) == 0]
    if len(cands) == 1:
        return _result(E, cands[0], "bsgs", ops)
    if q <= 2 ** 20:
        return _result(E, brute_force_order(E).N, "bsgs", ops)
    raise NoLargeOrderPoint("no point pinned a unique Hasse-window multiple")


# ---------------------------------------------------------------------------
# Lucas sequences and extension fields


@dataclass(frozen=True)
class LucasState:
    t1: int
    q: int
    V: tuple[int, ...]  # V[0] = 2, V[1] = t1, ...

    @staticmethod
    def build(t1: int, q: int, n_max: int) -> LucasState:
        V = [2, t1]
        for _ in range(n_max - 1):
            V.append(t1 * V[-1] - q * V[-2])
        # replication identities as internal consistency checks
        for n in range(1, len(V)):
            if 2 * n < len(V):
                assert V[2 * n] == V[n] ** 2 - 2 * q ** n
            if 3 * n < len(V):
                assert V[3 * n] == V[n] * (V[n] ** 2 - 3 * q ** n)
        return LucasState(t1, q, tuple(V))

    def order(self, n: int) -> int:
        return self.q ** n + 1 - self.V[n]


def extension_orders(E: Curve, upto: int):
    """(n, V_n, N_n) for n = 1..upto, N_n = #E(F_{q^n}) by the Lucas lift."""
    if not 1 <= upto <= 200:
        raise ValueError(f"extension degrees need 1 <= upto <= 200, got {upto}")
    st = LucasState.build(curve_order(E).t, E.field.q, upto)
    rows = [(n, st.V[n], st.order(n)) for n in range(1, upto + 1)]
    for d, _, Nd in rows:
        for n, _, Nn in rows:
            if n % d == 0:
                assert Nn % Nd == 0, "divisibility sequence violated"
    return rows


# ---------------------------------------------------------------------------
# closed forms for the two CM families


def _constant_coefficient(a: FieldElement):
    """The prime-subfield constant equal to a, or None."""
    if any(c for c in a.coeffs[1:]):
        return None
    return a.coeffs[0]


def _centered(x: int, p: int) -> int:
    x %= p
    return x - p if x > p // 2 else x


def _prop36_trace(p: int, a: int) -> int:
    """Trace of y^2 = x^3 + ax over F_p, p = 1 mod 4, by the four-way
    branch on the quartic character of a.

    Convention (pinned by brute force): p = u^2 + v^2 with u = 3 mod 4;
    chi4(a) = 1 -> t = -2u; chi4(a) = -1 -> t = 2u; otherwise t is
    -2 times the centered representative of u*chi4(a).
    """
    assert p % 4 == 1 and a % p != 0
    u, v = _two_square(p)
    if u % 4 != 3:
        u = -u
    chi4 = pow(a, (p - 1) // 4, p)
    if chi4 == 1:
        return -2 * u
    if chi4 == p - 1:
        return 2 * u
    return -2 * _centered(u * chi4, p)


def _two_square(p: int) -> tuple[int, int]:
    """p = u^2 + v^2 for p = 1 mod 4 (u odd), by Cornacchia."""
    t, u = cornacchia(1, p)
    return (t, u) if t % 2 == 1 else (u, t)


def cornacchia(d: int, p: int):
    """Solve x^2 + d*y^2 = p for a prime p, or None."""
    if d == p:
        return (0, 1)
    roots = square_root(FieldSpec(p)(-d))
    if roots is None:
        return None
    r = roots[0].lift()
    if 2 * r < p:
        r = p - r
    a, b = p, r
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    rem = p - b * b
    if rem % d:
        return None
    y2 = rem // d
    y = math.isqrt(y2)
    if y * y != y2:
        return None
    return (b, y)


def closed_form_order(E: Curve) -> OrderResult | None:
    """Closed-form order for the families y^2 = x^3 + b and y^2 = x^3 + ax,
    lifted to extensions by the Lucas recurrence; None if no family fits."""
    f = E.field
    if f.p == 2 or not is_nonsingular(E):
        return None
    if not E.is_short() or not E.a2.is_zero():
        return None
    a, b = E.a4, E.a6
    p, n, q = f.p, f.n, f.q
    if a.is_zero() and not b.is_zero():
        if q % 3 == 2:
            return _result(E, q + 1, "closed_form")
        bc = _constant_coefficient(b)
        if bc == 1 and p % 3 == 1:
            sol = cornacchia(3, p)
            if sol is None:
                return None
            u, _v = sol
            if u % 3 != 2:
                u = -u
            t1 = -2 * u  # N_1 = p + 1 + 2u
            st = LucasState.build(t1, p, max(n, 1))
            return _result(E, st.order(n), "closed_form")
        return None
    if b.is_zero() and not a.is_zero():
        ac = _constant_coefficient(a)
        if ac is None:
            return None
        if p % 4 == 3:
            st = LucasState.build(0, p, max(n, 1))
            return _result(E, st.order(n), "closed_form")
        t1 = _prop36_trace(p, ac)
        st = LucasState.build(t1, p, max(n, 1))
        return _result(E, st.order(n), "closed_form")
    return None


# ---------------------------------------------------------------------------
# Hasse invariant and the Manin congruence


@lru_cache(maxsize=32)
def hasse_polynomial(p: int):
    """H_p(x) = (-1)^n sum C(n,k)^2 x^k over F_p, n = (p-1)/2."""
    if not (p % 2 == 1 and intutil.is_prime(p) and p <= 10 ** 4):
        raise ValueError(f"Hasse polynomial needs an odd prime p <= 10^4, got {p}")
    n = (p - 1) // 2
    sign = (-1) ** n
    coeffs = [sign * math.comb(n, k) ** 2 for k in range(n + 1)]
    return Poly.make(FieldSpec(p), coeffs)


def manin_trace(beta: FieldElement, p: int) -> int:
    """The residue H_p(beta) mod p; congruent to the trace a_p of the
    Legendre curve y^2 = x(x-1)(x-beta)."""
    f = beta.field
    if f.p != p or f.n != 1:
        raise ValueError(f"beta must lie in the prime field F_{p}, got an element of F_{f.q}")
    if beta.is_zero() or beta == f.one():
        raise BadBeta("Legendre parameter must avoid 0 and 1")
    return hasse_polynomial(p)(beta).lift()


def manin_ap(beta: FieldElement) -> int | None:
    """The trace itself when the Hasse window pins the residue uniquely
    (always the case for p > 16)."""
    p = beta.field.p
    residue = manin_trace(beta, p)
    w = math.isqrt(4 * p)
    hits = [t for t in range(-w, w + 1) if t % p == residue]
    return hits[0] if len(hits) == 1 else None


# ---------------------------------------------------------------------------


def curve_order(E: Curve, seed: int = 0) -> OrderResult:
    """Order by brute force for q <= 10^6 and by BSGS above, over every
    field."""
    if E.field.q <= 10 ** 6:
        return brute_force_order(E)
    return bsgs_order(E, seed)


def is_supersingular(E: Curve) -> bool:
    """Trace divisible by the characteristic."""
    return curve_order(E).t % E.field.p == 0


def twist_order_check(E: Curve, witness: FieldElement) -> bool:
    """#E + #E' = 2q + 2 for the quadratic twist E'."""
    N1 = brute_force_order(E).N
    N2 = brute_force_order(quadratic_twist(E, witness)).N
    return N1 + N2 == 2 * E.field.q + 2

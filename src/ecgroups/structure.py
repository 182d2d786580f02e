"""Group structure Z_d x Z_de and everything built on top of it:
2-Sylow parity analysis, torsion shapes over the closure, embedding
degrees and distortion maps, primitive points, message encoding, and
curve construction with a prescribed order (trial-and-twist and
class-number-one CM).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import intutil
from .count import curve_order, hasse_window, is_supersingular, random_point
from .curve import (
    Curve,
    is_nonsingular,
    j_invariant,
    quadratic_twist,
    standard_curve_for_j,
)
from .errors import (
    AnomalousCurve,
    BadCharacteristic,
    ConstructionTimeout,
    EncodingFailed,
    HasseViolation,
    NoRepresentation,
    NotADivisor,
    UnsupportedFamily,
)
from .field import (
    FieldElement,
    FieldSpec,
    embed,
    quadratic_extension,
    square_root,
    twist_witness,
)
from .point import Point, _point, add, negate, scalar_mul


# ---------------------------------------------------------------------------
# structure determination


@dataclass(frozen=True)
class GroupStructure:
    N: int
    d: int
    e: int
    generators: tuple  # ((Point, order), ...) one or two witnesses

    def __post_init__(self):
        assert self.N == self.d * self.d * self.e

    @property
    def exponent(self) -> int:
        return self.d * self.e

    @property
    def cyclic(self) -> bool:
        return self.d == 1

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "d": self.d,
            "e": self.e,
            "generators": [
                {"order": o, "point": str(P)} for P, o in self.generators
            ],
        }


def _dlog(P: Point, P1: Point, l: int, b: int):
    """m in [0, l^b) with [m]P1 = P for P1 of order l^b and P of order
    dividing l^b, or None when P lies outside <P1>.

    Pohlig-Hellman over the base-l digits of m; each digit is a discrete
    log in the order-l group <[l^(b-1)]P1>, found by baby-step giant-step
    with a table keyed on (x, y) as in bsgs_order."""
    if P.is_infinity:
        return 0
    gamma = scalar_mul(l ** (b - 1), P1)
    s = math.isqrt(l - 1) + 1  # s^2 >= l
    table = {}
    acc = Point.infinity(P.curve)
    for j in range(s):
        table[(acc.x, acc.y)] = j
        acc = add(acc, gamma)
    back = negate(acc)  # -[s]gamma
    m = 0
    for i in range(b):
        h = scalar_mul(l ** (b - 1 - i), add(P, negate(scalar_mul(m, P1))))
        for giant in range(s):
            j = table.get((h.x, h.y))
            if j is not None:
                m += (giant * s + j) * l ** i
                break
            h = add(h, back)
        else:
            return None
    return m


def _sylow_basis(E: Curve, N: int, l: int, v: int, rng: random.Random):
    """((P1, b1), (P2, b2)) with P1 of order l^b1, P2 of order l^b2,
    b1 >= b2, b1 + b2 = v and <P1> and <P2> meeting only in O: a basis of
    the l-Sylow subgroup of E(F_q), l^v the exact power of l dividing N.

    Each sample P = [N/l^v]R of a random point R is reduced against P1:
    with k least such that [l^k]P = [m]P1, l^k divides m and
    P - [m/l^k]P1 has order l^k and meets <P1> only in O; it becomes P2
    if k > b2. A sample of larger order than P1 replaces it, P2 resets to
    O, and the old P1 is reduced instead. The span has l^(b1+b2) points,
    so the loop stops exactly at the whole subgroup."""
    O = Point.infinity(E)
    (P1, b1), (P2, b2) = (O, 0), (O, 0)
    while b1 + b2 < v:
        P = scalar_mul(N // l ** v, random_point(E, rng))
        c, T = 0, P
        while not T.is_infinity:
            c, T = c + 1, scalar_mul(l, T)
        if c > b1:
            (P1, b1), (P2, b2), P = (P, c), (O, 0), P1
        k, T = 0, P
        while (m := _dlog(T, P1, l, b1)) is None:
            k, T = k + 1, scalar_mul(l, T)
        if k > b2:
            P2, b2 = add(P, negate(scalar_mul(m // l ** k, P1))), k
    return (P1, b1), (P2, b2)


def group_structure(E: Curve, seed: int = 0) -> GroupStructure:
    """E(F_q) as Z_d x Z_de with generator witnesses; d | gcd(N, q-1).

    The sum of the l-Sylow bases over the primes l | N gives G of order
    de and Q of order d with <G> and <Q> meeting only in O, so the
    witnesses certify the structure."""
    N = curve_order(E, seed).N
    rng = random.Random(seed)
    G = Q = Point.infinity(E)
    de = d = 1
    for l, v in intutil.factorize(N).items():
        (P1, b1), (P2, b2) = _sylow_basis(E, N, l, v, rng)
        G, Q = add(G, P1), add(Q, P2)
        de, d = de * l ** b1, d * l ** b2
    assert (E.field.q - 1) % d == 0
    if d == 1:
        return GroupStructure(N, 1, N, ((G, N),))
    return GroupStructure(N, d, de // d, ((G, de), (Q, d)))


def primitive_point(E: Curve, seed: int = 0):
    """A generator when cyclic; otherwise a point of maximal order d*e,
    flagged. Returns (point, order, cyclic)."""
    gs = group_structure(E, seed)
    P, o = gs.generators[0]
    return P, o, gs.cyclic


# ---------------------------------------------------------------------------
# parity and the 2-Sylow subgroup


def parity_and_two_sylow(E: Curve, seed: int = 0) -> dict:
    """N mod 4 information read off the cubic's rational 2-torsion.

    Three roots force N = 0 mod 4 (full 2-torsion), no roots force N odd;
    a single root forces N even (the 2-Sylow is then cyclic — its exact
    order is read from N, not from the root count).
    """
    if E.field.p == 2:
        raise BadCharacteristic("parity analysis needs odd characteristic")
    N = curve_order(E, seed).N  # raises SingularCurve before the root count
    nroots = len(E.two_division_cubic().roots())
    assert nroots in (0, 1, 3)
    parity_class, rank = {3: ("0 mod 4", 2), 1: ("even", 1), 0: ("odd", 0)}[nroots]
    v2 = (N & -N).bit_length() - 1  # the 2-adic valuation of N
    assert v2 >= rank and (v2 == 0) == (rank == 0)
    return {
        "parity_class": parity_class,
        "sylow_rank": rank,
        "sylow_order": 2 ** v2,
        "root_count": nroots,
    }


# ---------------------------------------------------------------------------
# torsion over the algebraic closure


def torsion_shape(E: Curve, n: int) -> tuple[int, int]:
    """E[n] over the closure as (n1, n2), n2 | n1: the prime-to-p part is
    always Z_m x Z_m; the p-part is cyclic for ordinary curves and trivial
    for supersingular ones."""
    p = E.field.p
    m = n
    pk = 1
    while m % p == 0:
        m //= p
        pk *= p
    if is_supersingular(E):
        pk = 1
    return (m * pk, m)


# ---------------------------------------------------------------------------
# embedding degree and distortion


@dataclass(frozen=True)
class EmbeddingReport:
    r: int
    k: int
    is_weak: bool

    def to_json(self) -> dict:
        return {"is_weak": self.is_weak, "k": self.k, "r": self.r}


def embedding_degree(E: Curve, r: int, seed: int = 0) -> EmbeddingReport:
    """k = order of q mod r, for the prime subgroup order r | N."""
    q = E.field.q
    res = curve_order(E, seed)
    if res.N == q:
        raise AnomalousCurve("N = q: no embedding degree (anomalous curve)")
    if res.N % r != 0:
        raise NotADivisor(f"{r} does not divide the group order {res.N}")
    if q % r == 0:
        raise NotADivisor("subgroup order equal to the characteristic")
    k = intutil.multiplicative_order(q % r, r)
    assert pow(res.t - 1, k, r) == 1 % r  # t - 1 is a k-th root of unity mod r
    if res.t % E.field.p == 0:  # supersingular
        assert k in (1, 2, 3, 4, 6)
    is_weak = k < math.log2(q) ** 2
    return EmbeddingReport(r, k, is_weak)


def _cube_root_of_unity(ext: FieldSpec) -> FieldElement:
    """A primitive cube root of unity: (-1 + sqrt(-3)) / 2."""
    r = square_root(ext(-3))
    assert r is not None
    rho = (ext(-1) + r[0]) / ext(2)
    assert rho ** 3 == ext.one() and rho != ext.one()
    return rho


def distortion_apply(E: Curve, P: Point) -> Point:
    """The distortion endomorphism into E(F_{p^2}) for the two CM families
    y^2 = x^3 + ax (p = 3 mod 4) and y^2 = x^3 + b (p = 2 mod 3)."""
    f = E.field
    if f.n != 1 or f.p == 2 or not E.is_short():
        raise UnsupportedFamily("distortion maps cover the two prime-field families")
    ext = quadratic_extension(f)
    Eext = Curve(
        ext, *(embed(c, ext) for c in E.coefficients())
    )
    if P.is_infinity:
        return Point.infinity(Eext)
    x, y = embed(P.x, ext), embed(P.y, ext)
    if E.a6.is_zero() and not E.a4.is_zero() and f.p % 4 == 3:
        i = square_root(ext(-1))[0]
        return Point(Eext, -x, i * y)
    if E.a4.is_zero() and not E.a6.is_zero() and f.p % 3 == 2:
        rho = _cube_root_of_unity(ext)
        return Point(Eext, rho * x, y)
    raise UnsupportedFamily("curve is in neither distortion family")


# ---------------------------------------------------------------------------
# message encoding


def encode_message(E: Curve, m: int, K: int) -> Point:
    """Embed the integer m as a point with x in [mK, mK + K): the first
    candidate x whose cubic value is a square wins."""
    f = E.field
    if f.n != 1 or f.p == 2:
        raise ValueError("message encoding needs an odd prime field")
    if m < 0 or K < 1:
        raise ValueError(f"need m >= 0 and K >= 1, got m = {m}, K = {K}")
    if f.q <= (m + 1) * K:
        raise EncodingFailed("field too small for this message/redundancy pair")
    for i in range(K):
        x = f(m * K + i)
        ys = E.solve_y(x)
        if ys:
            return _point(E, x, min(ys, key=FieldElement.canonical_index))
    raise EncodingFailed(f"no candidate x in [{m*K}, {m*K+K}) lands on the curve")


def decode_message(P: Point, K: int) -> int:
    if P.is_infinity:
        raise ValueError("the point at infinity encodes no message")
    if K < 1:
        raise ValueError(f"need K >= 1, got K = {K}")
    return P.x.lift() // K


# ---------------------------------------------------------------------------
# curve construction with prescribed order


def construct_curve_with_order(q: int, N: int, seed: int = 0) -> Curve:
    """Trial curves y^2 = x^3 + ax - a through P = (1, 1), twisted when the
    complementary order shows up first."""
    if not (intutil.is_prime(q) and 3 < q <= 2 ** 34):
        raise ValueError(f"construction needs a prime field with 3 < q <= 2^34, got q = {q}")
    lo, hi = hasse_window(q)
    if not lo <= N <= hi:
        raise HasseViolation(f"N={N} outside the Hasse window [{lo}, {hi}]")
    f = FieldSpec(q)
    rng = random.Random(seed)
    nonresidue = twist_witness(f)
    budget = 64 * math.isqrt(q) + 256
    for _ in range(budget):
        a = f(rng.randrange(1, q))
        E = Curve.make(f, 0, 0, 0, a, -a)
        if not is_nonsingular(E):
            continue
        P = Point.at(E, 1, 1)
        if scalar_mul(N, P).is_infinity:
            if curve_order(E, seed).N == N:
                return E
        elif scalar_mul(2 * q + 2 - N, P).is_infinity:
            Et = quadratic_twist(E, nonresidue)
            if curve_order(Et, seed).N == N:
                return Et
    raise ConstructionTimeout(f"no curve with {N} points found in {budget} trials")


# ---------------------------------------------------------------------------
# class-number-one CM construction

# the nine imaginary quadratic orders with class number one, and their
# (rational, integral) j-invariants
CLASS_NUMBER_ONE_J = {
    -3: 0,
    -4: 12 ** 3,
    -7: -(15 ** 3),
    -8: 20 ** 3,
    -11: -(32 ** 3),
    -19: -(96 ** 3),
    -43: -(960 ** 3),
    -67: -(5280 ** 3),
    -163: -(640320 ** 3),
}


def represent_4p(d: int, p: int):
    """4p = t^2 + |d| u^2 with t, u > 0, or None."""
    ad = -d
    u = 1
    while ad * u * u <= 4 * p:
        t2 = 4 * p - ad * u * u
        t = math.isqrt(t2)
        if t * t == t2 and t > 0:
            return t, u
        u += 1
    return None


def cm_construct(d: int, p: int, seed: int = 0):
    """A curve over F_p with CM by the order of discriminant d, with its
    order p + 1 - t pinned to the positive root t of 4p = t^2 + |d|u^2.
    Returns (Curve, OrderResult)."""
    if d not in CLASS_NUMBER_ONE_J:
        raise UnsupportedFamily(f"discriminant {d} has class number > 1")
    if not (intutil.is_prime(p) and p > 3):
        raise ValueError(f"CM construction needs a prime p > 3, got p = {p}")
    rep = represent_4p(d, p)
    if rep is None:
        raise NoRepresentation(f"4*{p} = t^2 + {-d}*u^2 has no solution")
    t, _u = rep
    f = FieldSpec(p)
    target = p + 1 - t
    E = standard_curve_for_j(f, f(CLASS_NUMBER_ONE_J[d]))
    candidates = _twist_family(E)
    for cand in candidates:
        res = curve_order(cand, seed)
        if res.N == target:
            return cand, res
    raise AssertionError(
        "no twist attained the CM order; representation and j disagree"
    )


def _twist_family(E: Curve):
    """E, its quadratic twist, and (for j = 0 / 1728) the full sextic or
    quartic twist families which carry the remaining traces."""
    f = E.field
    yield E
    yield quadratic_twist(E, twist_witness(f))
    j = j_invariant(E)
    if j.is_zero():
        for b in f.elements():
            if not b.is_zero():
                yield Curve.make(f, 0, 0, 0, 0, b)
    elif j == f(1728):
        for a in f.elements():
            if not a.is_zero():
                yield Curve.make(f, 0, 0, 0, a, 0)


def is_anomalous(E: Curve, seed: int = 0) -> bool:
    return curve_order(E, seed).N == E.field.q


# ---------------------------------------------------------------------------
# Waterhouse admissibility and the supersingular structure shapes


def waterhouse_admissible(t: int, p: int, n: int) -> bool:
    """Is t the trace of some elliptic curve over F_{p^n}?"""
    q = p ** n
    if t * t > 4 * q:
        return False
    if t % p != 0:
        return True
    if n % 2 == 0:
        if t * t == 4 * q:
            return True
        if t * t == q and p % 3 != 1:
            return True
        if t == 0 and p % 4 != 1:
            return True
        return False
    if t == 0:
        return True
    if p in (2, 3) and t * t == p * q:
        return True
    return False


def supersingular_shape_ok(q: int, t: int, d: int, e: int) -> bool:
    """Does (d, e) match one of the structure shapes a supersingular curve
    can have: cyclic for t^2 in {q, 2q, 3q}; cyclic or Z_2 x Z_{(q+1)/2}
    for t = 0; Z_a x Z_a with a = sqrt(q) -/+ 1 for t = +/-2 sqrt(q)."""
    N = q + 1 - t
    assert N == d * d * e
    if t != 0 and t * t in (q, 2 * q, 3 * q):
        return d == 1
    if t == 0:
        if d == 1:
            return True
        return d == 2 and q % 4 == 3
    s = math.isqrt(q)
    if s * s == q and t in (2 * s, -2 * s):
        return d == s - (1 if t > 0 else -1) and e == 1
    return False

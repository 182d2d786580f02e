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
from .count import (
    OrderResult,
    brute_force_order,
    bsgs_order,
    hasse_window,
    is_supersingular,
    point_order,
    random_point,
)
from .curve import (
    Curve,
    is_nonsingular,
    j_invariant,
    odd_char_even_form,
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
from .point import Point, add, all_points, scalar_mul


def curve_order(E: Curve, seed: int = 0) -> OrderResult:
    """Order by whichever in-scope method fits the field size."""
    bound = 10 ** 6 if E.field.n == 1 else 2 ** 20
    if E.field.q <= bound:
        return brute_force_order(E)
    return bsgs_order(E, seed)


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


def _group_exponent(E: Curve, N: int, rng: random.Random) -> int:
    """lcm of point orders: exhaustive for small fields, sampled otherwise."""
    if E.field.q <= 2000:
        # Exhaustive, but with an early exit: once the running lcm L admits
        # d = N/L with d | L and d | q-1, confirm full d-torsion (d^2 points
        # killed by d) and stop.  That certifies L is the exponent without
        # computing the order of every remaining point.
        pts = [P for P in all_points(E) if not P.is_infinity]
        rng.shuffle(pts)
        exp = 1
        last_checked = 0
        for P in pts:
            exp = math.lcm(exp, point_order(P, N))
            if exp == last_checked:
                continue
            last_checked = exp
            d = N // exp
            if d == 1:
                return exp
            if exp % d == 0 and (E.field.q - 1) % d == 0:
                killed = 1 + sum(
                    1 for Q in pts if scalar_mul(d, Q).is_infinity
                )
                if killed == d * d:
                    return exp
        return exp
    exp = 1
    trials = 32 + max(
        (v for _p, v in intutil.factorize(N).items()), default=0
    )
    for _ in range(trials):
        P = random_point(E, rng)
        exp = math.lcm(exp, point_order(P, N))
        if exp == N:
            break
    return exp


def group_structure(E: Curve, seed: int = 0) -> GroupStructure:
    """E(F_q) as Z_d x Z_de with generator witnesses; d | gcd(N, q-1)."""
    N = curve_order(E, seed).N
    rng = random.Random(seed)
    exponent = _group_exponent(E, N, rng)
    assert N % exponent == 0
    d = N // exponent
    assert exponent % d == 0 and (E.field.q - 1) % d == 0
    e = exponent // d
    G, _ = _point_of_order(E, exponent, N, rng)
    if d == 1:
        return GroupStructure(N, 1, N, ((G, N),))
    # A second witness Qd of order d is independent, <G> and <Qd> meeting
    # only in O, iff for each prime l | d the point [d/l]Qd of order l lies
    # outside the order-l subgroup of <G>.
    subgroups = []
    for l in intutil.factorize(d):
        step = scalar_mul(exponent // l, G)
        sub = set()
        acc = Point.infinity(E)
        for _ in range(l):
            sub.add(acc)
            acc = add(acc, step)
        subgroups.append((l, sub))
    while True:
        Q = random_point(E, rng)
        o = point_order(Q, N)
        if o % d != 0:
            continue
        Qd = scalar_mul(o // d, Q)
        if all(scalar_mul(d // l, Qd) not in sub for l, sub in subgroups):
            return GroupStructure(N, d, e, ((G, exponent), (Qd, d)))


def _point_of_order(E: Curve, target: int, N: int, rng: random.Random):
    """A point of order exactly `target` (which must divide the exponent),
    assembled from coprime prime-power components of sampled points."""
    parts: dict[int, Point] = {}
    want = intutil.factorize(target)
    for _ in range(10 ** 4):
        missing = [p for p in want if p not in parts]
        if not missing:
            break
        P = random_point(E, rng)
        o = point_order(P, N)
        for p, v in want.items():
            if p in parts:
                continue
            if o % p ** v == 0:
                comp = scalar_mul(o // p ** v, P)
                parts[p] = comp
    else:
        raise AssertionError("failed to assemble a point of the target order")
    G = Point.infinity(E)
    for p, comp in parts.items():
        G = add(G, comp)
    assert point_order(G, target) == target
    return G, target


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
    Ev, _ = odd_char_even_form(E)
    nroots = len(Ev.rhs_cubic().roots())
    assert nroots in (0, 1, 3)
    N = curve_order(E, seed).N
    v2 = 0
    n = N
    while n % 2 == 0:
        n //= 2
        v2 += 1
    if nroots == 3:
        parity_class = "0 mod 4"
        rank = 2
        assert N % 4 == 0
    elif nroots == 1:
        parity_class = "even"
        rank = 1
        assert N % 2 == 0
    else:
        parity_class = "odd"
        rank = 0
        assert N % 2 == 1
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
    if is_supersingular(E):
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
            return Point(E, x, min(ys, key=FieldElement.canonical_index))
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
            if _verify_order(E, N, seed):
                return E
        elif scalar_mul(2 * q + 2 - N, P).is_infinity:
            Et = quadratic_twist(E, nonresidue)
            if _verify_order(Et, N, seed):
                return Et
    raise ConstructionTimeout(f"no curve with {N} points found in {budget} trials")


def _verify_order(E: Curve, N: int, seed: int) -> bool:
    return curve_order(E, seed).N == N


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
    assert intutil.is_prime(p) and p > 3
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

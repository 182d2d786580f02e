"""Weierstrass curve models and their invariants.

Covers the long form y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6,
the derived b/c terms, discriminant and j-invariant, admissible
coordinate changes, per-characteristic normal forms, twists, Legendre
and Edwards models, and exhaustive classification over tiny fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadCharacteristic,
    BadForm,
    DegenerateParameter,
    FieldTooLarge,
    IncompleteTwoTorsion,
    MixedFields,
    NotANonresidue,
    SingularCurve,
    TraceZeroWitness,
)
from .field import (
    FieldElement,
    FieldSpec,
    absolute_trace,
    embed,
    parse_element,
    parse_field,
    quadratic_character,
    quadratic_extension,
    square_root,
    twist_witness,
)
from .poly import Poly


@dataclass(frozen=True)
class Curve:
    field: FieldSpec
    a1: FieldElement
    a2: FieldElement
    a3: FieldElement
    a4: FieldElement
    a6: FieldElement

    @staticmethod
    def make(field: FieldSpec, a1, a2, a3, a4, a6) -> Curve:
        return Curve(field, field(a1), field(a2), field(a3), field(a4), field(a6))

    @staticmethod
    def short(field: FieldSpec, a, b) -> Curve:
        return Curve.make(field, 0, 0, 0, a, b)

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def tate(self) -> TateTerms:
        return tate_terms(self)

    @cached_property
    def nonsingular(self) -> bool:
        return not discriminant(self).is_zero()

    @cached_property
    def int_coefficients(self) -> tuple[int, ...] | None:
        """(a1, a2, a3, a4, a6) as residues mod p over a prime field, else None."""
        if self.field.n != 1:
            return None
        return tuple(c.coeffs[0] for c in self.coefficients())

    def is_short(self) -> bool:
        return all(c.is_zero() for c in (self.a1, self.a2, self.a3))

    def equation_lhs_minus_rhs(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return (
            y * y + self.a1 * x * y + self.a3 * y
            - (x * x * x + self.a2 * x * x + self.a4 * x + self.a6)
        )

    def solve_y(self, x: FieldElement) -> list[FieldElement]:
        """Every y with (x, y) on the curve: the roots of y^2 + L*y = c with
        L = a1*x + a3 and c = x^3 + a2*x^2 + a4*x + a6, in the order of
        _quadratic_roots."""
        return _quadratic_roots(self.a1 * x + self.a3,
                                ((x + self.a2) * x + self.a4) * x + self.a6)

    def two_division_cubic(self) -> Poly:
        """4x^3 + b2*x^2 + 2*b4*x + b6, which equals (2y + a1*x + a3)^2 on
        the curve: in odd characteristic its roots are the x-coordinates of
        the points of order 2, and y -> 2y + a1*x + a3 is a bijection, so
        x carries 1 + chi(cubic(x)) points."""
        t = self.tate
        return Poly.make(self.field, [t.b6, 2 * t.b4, t.b2, 4])

    def __str__(self):
        coeffs = ",".join(str(c) for c in self.coefficients())
        return f"{self.field}|{coeffs}"


def _quadratic_roots(L: FieldElement, c: FieldElement) -> list[FieldElement]:
    """The roots of z^2 + L*z = c, each once.

    Odd q completes the square; the roots come in the iteration order of
    the set of square roots, which seeded sampling depends on. For q = 2^n,
    L = 0 leaves the one square root of c; otherwise z = L*u with
    u^2 + u = c/L^2, solvable iff c/L^2 has absolute trace 0, and the two
    roots come in elements() order."""
    f = L.field
    if f.p != 2:
        roots = square_root(L * L + 4 * c)
        if roots is None:
            return []
        half = f((f.p + 1) // 2)
        return [(r - L) * half for r in set(roots)]
    if L.is_zero():
        return [square_root(c)[0]]
    u = _artin_schreier_root(c / (L * L))
    if u is None:
        return []
    return sorted((L * u, L * u + L), key=lambda z: z.coeffs)


def _artin_schreier_root(w: FieldElement) -> FieldElement | None:
    """A root z of z^2 + z = w in F_{2^n}, or None when Tr(w) = 1.

    z = sum_{i=1}^{n-1} (sum_{j<i} delta^(2^j)) w^(2^i) for any delta of
    absolute trace one satisfies z^2 + z = w + delta*Tr(w) (Lidl and
    Niederreiter, Finite Fields, Thm 2.25), so checking z is the trace test.
    Tr(1) = n mod 2, so delta = 1 serves for odd n."""
    f = w.field
    delta = f.one() if f.n % 2 else twist_witness(f)
    z = f.zero()
    s = d = delta  # s = sum_{j<i} delta^(2^j), d = delta^(2^(i-1))
    wi = w
    for _ in range(1, f.n):
        wi = wi * wi
        z = z + s * wi
        d = d * d
        s = s + d
    return z if z * z + z == w else None


@dataclass(frozen=True)
class TateTerms:
    b2: FieldElement
    b4: FieldElement
    b6: FieldElement
    b8: FieldElement
    c4: FieldElement
    c6: FieldElement

    def __post_init__(self):
        if self.b2.field.p != 2:
            four = self.b2.field(4)
            assert four * self.b8 == self.b2 * self.b6 - self.b4 * self.b4


@dataclass(frozen=True)
class CurveInvariants:
    discriminant: FieldElement
    j: FieldElement | None
    singular_kind: str  # nonsingular / node_rational_slope / node_irrational_slope / cusp

    def __post_init__(self):
        assert (self.j is not None) == (not self.discriminant.is_zero())


def tate_terms(E: Curve) -> TateTerms:
    a1, a2, a3, a4, a6 = E.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    return TateTerms(b2, b4, b6, b8, c4, c6)


def discriminant(E: Curve) -> FieldElement:
    """Always the b-term polynomial form, valid in every characteristic."""
    t = E.tate
    return (
        -(t.b2 * t.b2 * t.b8)
        - 8 * t.b4 * t.b4 * t.b4
        - 27 * t.b6 * t.b6
        + 9 * t.b2 * t.b4 * t.b6
    )


def _singular_point(E: Curve):
    """The unique singular affine point of a degenerate Weierstrass cubic."""
    for x in E.field.elements():
        for y in E.solve_y(x):
            fx = E.a1 * y - 3 * x * x - 2 * E.a2 * x - E.a4
            fy = 2 * y + E.a1 * x + E.a3
            if fx.is_zero() and fy.is_zero():
                return (x, y)
    return None


def _classify_singularity(E: Curve) -> str:
    """Tangent-cone analysis at the singular point.

    After translating the singular point to the origin the quadratic part
    of the equation is Y^2 + a1*XY - (3x0 + a2)X^2; a repeated slope root
    means a cusp, and a node's slopes are rational iff the quadratic in
    the slope splits over the base field.
    """
    sing = _singular_point(E)
    if sing is None:
        # singular point only over an extension; slopes certainly irrational
        return "node_irrational_slope"
    x0, _ = sing
    slopes = _quadratic_roots(E.a1, 3 * x0 + E.a2)  # s^2 + a1*s = 3x0 + a2
    if len(slopes) == 1:
        return "cusp"
    return "node_rational_slope" if slopes else "node_irrational_slope"


def curve_invariants(E: Curve) -> CurveInvariants:
    d = discriminant(E)
    if d.is_zero():
        return CurveInvariants(d, None, _classify_singularity(E))
    t = E.tate
    j = t.c4 * t.c4 * t.c4 / d
    return CurveInvariants(d, j, "nonsingular")


def j_invariant(E: Curve) -> FieldElement:
    inv = curve_invariants(E)
    if inv.j is None:
        raise SingularCurve("j-invariant undefined for singular curves")
    return inv.j


def is_nonsingular(E: Curve) -> bool:
    return E.nonsingular


# ---------------------------------------------------------------------------
# admissible coordinate changes (x, y) = (u^2 x' + r, u^3 y' + u^2 s x' + t)


@dataclass(frozen=True)
class AdmissibleMap:
    u: FieldElement
    r: FieldElement
    s: FieldElement
    t: FieldElement

    def __post_init__(self):
        if self.u.is_zero():
            raise DegenerateParameter("an admissible map needs u != 0")

    @staticmethod
    def identity(field: FieldSpec) -> AdmissibleMap:
        return AdmissibleMap(field(1), field(0), field(0), field(0))

    def apply(self, E: Curve) -> Curve:
        """The transformed curve E' with E isomorphic to E' via this map."""
        u, r, s, t = self.u, self.r, self.s, self.t
        a1, a2, a3, a4, a6 = E.coefficients()
        iu = u.inverse()
        iu2 = iu * iu
        iu3 = iu2 * iu
        iu4 = iu2 * iu2
        iu6 = iu3 * iu3
        b1 = (a1 + 2 * s) * iu
        b2_ = (a2 - s * a1 + 3 * r - s * s) * iu2
        b3 = (a3 + r * a1 + 2 * t) * iu3
        b4_ = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) * iu4
        b6_ = (a6 + r * a4 + r * r * a2 + r * r * r - t * a3 - t * t - r * t * a1) * iu6
        return Curve(E.field, b1, b2_, b3, b4_, b6_)

    def compose(self, other: AdmissibleMap) -> AdmissibleMap:
        """self then other, as a single admissible map."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return AdmissibleMap(
            u1 * u2,
            r1 + u1 * u1 * r2,
            s1 + u1 * s2,
            t1 + u1 * u1 * s1 * r2 + u1 * u1 * u1 * t2,
        )

    def invert(self) -> AdmissibleMap:
        iu = self.u.inverse()
        iu2 = iu * iu
        iu3 = iu2 * iu
        return AdmissibleMap(
            iu, -self.r * iu2, -self.s * iu, (self.r * self.s - self.t) * iu3
        )


def to_short_form(E: Curve):
    """Reduce to y^2 = x^3 + a*x + b; characteristic > 3 only."""
    if E.field.p in (2, 3):
        raise BadCharacteristic("short form needs characteristic > 3")
    f = E.field
    inv2 = f(2).inverse()
    m1 = AdmissibleMap(f(1), f(0), -E.a1 * inv2, -E.a3 * inv2)
    E1 = m1.apply(E)
    # a1 = a3 = 0 now; absorb the x^2 term
    m2 = AdmissibleMap(f(1), -E1.a2 * f(3).inverse(), f(0), f(0))
    m = m1.compose(m2)
    Es = m.apply(E)
    assert Es.is_short() and Es.a2.is_zero()
    return Es, m


def odd_char_even_form(E: Curve):
    """Kill a1 and a3 (any odd characteristic): y^2 = cubic in x."""
    if E.field.p == 2:
        raise BadCharacteristic("requires odd characteristic")
    f = E.field
    inv2 = f(2).inverse()
    m = AdmissibleMap(f(1), f(0), -E.a1 * inv2, -E.a3 * inv2)
    return m.apply(E), m


def char3_normal_form(E: Curve) -> Curve:
    if E.field.p != 3:
        raise BadCharacteristic("characteristic-3 normal form")
    if not is_nonsingular(E):
        raise SingularCurve("normal form requires a nonsingular curve")
    return odd_char_even_form(E)[0]


def char2_normal_form(E: Curve):
    """Characteristic-2 reduction; returns (curve, kind).

    a1 = 0 gives the supersingular shape y^2 + cy = x^3 + ax + b (j = 0);
    a1 != 0 gives the ordinary shape y^2 + cxy = x^3 + ax^2 + b.
    """
    if E.field.p != 2:
        raise BadCharacteristic("characteristic-2 normal form")
    if not is_nonsingular(E):
        raise SingularCurve("normal form requires a nonsingular curve")
    f = E.field
    if E.a1.is_zero():
        m = AdmissibleMap(f(1), E.a2, f(0), f(0))
        En = m.apply(E)
        assert En.a1.is_zero() and En.a2.is_zero()
        return En, "supersingular_form"
    r = E.a3 / E.a1
    t = (E.a4 + r * r) / E.a1
    m = AdmissibleMap(f(1), r, f(0), t)
    En = m.apply(E)
    assert En.a3.is_zero() and En.a4.is_zero()
    return En, "ordinary_form"


def isomorphism_test(E: Curve, E2: Curve):
    """An admissible map E -> E2, or None.

    Characteristic > 3: reduce both to short form and search the scale
    factor u. Characteristics 2 and 3: exhaustive (u, r, s, t) search,
    feasible at the field sizes in scope.
    """
    if E.field != E2.field:
        raise MixedFields("curves over different fields")
    if not (is_nonsingular(E) and is_nonsingular(E2)):
        raise SingularCurve("isomorphism testing requires nonsingular curves")
    if j_invariant(E) != j_invariant(E2):
        return None
    f = E.field
    if f.p > 3:
        Es, m1 = to_short_form(E)
        E2s, m2 = to_short_form(E2)
        for u in f.elements():
            if u.is_zero():
                continue
            mu = AdmissibleMap(u, f(0), f(0), f(0))
            if mu.apply(Es) == E2s:
                return m1.compose(mu).compose(m2.invert())
        return None
    if f.q ** 4 > 2 ** 22:
        raise FieldTooLarge("char-2/3 isomorphism search is exhaustive only")
    for u in f.elements():
        if u.is_zero():
            continue
        for r in f.elements():
            for s in f.elements():
                for t in f.elements():
                    m = AdmissibleMap(u, r, s, t)
                    if m.apply(E) == E2:
                        return m
    return None


# ---------------------------------------------------------------------------
# twists


def quadratic_twist(E: Curve, witness: FieldElement) -> Curve:
    """Twist by a nonresidue (odd q) or a trace-one element (q = 2^e)."""
    f = E.field
    if witness.field != f:
        raise MixedFields("witness from a different field")
    if f.p == 2:
        if not absolute_trace(witness) == f(1):
            raise TraceZeroWitness("char-2 twist witness must have absolute trace 1")
        En, kind = char2_normal_form(E)
        if kind != "ordinary_form":
            raise BadForm("char-2 twist implemented for ordinary curves only")
        # on y^2 + cxy = x^3 + a2 x^2 + a6 the twist shifts a2 by gamma*c^2
        return Curve(
            f, En.a1, En.a2 + witness * En.a1 * En.a1, En.a3, En.a4, En.a6
        )
    if quadratic_character(witness) != -1:
        raise NotANonresidue("odd-q twist witness must be a quadratic nonresidue")
    Ev, _ = odd_char_even_form(E)
    u = witness
    return Curve.make(
        f, 0, Ev.a2 * u, 0, Ev.a4 * u * u, Ev.a6 * u * u * u
    )


# ---------------------------------------------------------------------------
# Legendre and Edwards models


@dataclass(frozen=True)
class LegendreParams:
    alpha: FieldElement

    def __post_init__(self):
        f = self.alpha.field
        if self.alpha.is_zero() or self.alpha == f.one():
            raise DegenerateParameter("Legendre parameter must avoid 0 and 1")


def legendre_parameters(E: Curve) -> set:
    """All alpha with E isomorphic to y^2 = x(x-1)(x-alpha)."""
    if E.field.p == 2:
        raise BadCharacteristic("Legendre form needs odd characteristic")
    if not is_nonsingular(E):
        raise SingularCurve("Legendre form of a singular curve")
    roots = E.two_division_cubic().roots()
    if len(roots) != 3:
        raise IncompleteTwoTorsion(
            "cubic does not split: 2-torsion not fully rational"
        )
    out = set()
    import itertools

    for e1, e2, e3 in itertools.permutations(roots):
        alpha = (e3 - e1) / (e2 - e1)
        out.add(LegendreParams(alpha))
    return out


@dataclass(frozen=True)
class EdwardsCurve:
    """x^2 + y^2 = c^2 (1 + d x^2 y^2) with c, d != 0 and c*d^4 != 1."""

    field: FieldSpec
    c: FieldElement
    d: FieldElement

    def __post_init__(self):
        if self.c.is_zero() or self.d.is_zero():
            raise DegenerateParameter("Edwards parameters must be nonzero")
        d4 = self.d ** 4
        if self.c * d4 == self.field.one():
            raise DegenerateParameter("Edwards curve requires c*d^4 != 1")

    def contains(self, x: FieldElement, y: FieldElement) -> bool:
        c2 = self.c * self.c
        return x * x + y * y == c2 * (self.field.one() + self.d * x * x * y * y)


def edwards_equivalents(ec: EdwardsCurve) -> set:
    """Parameters b with x^2+y^2 = b^2(1+x^2y^2) equivalent to ec over F_q(i).

    Evaluates {c, 1/c, (c-1)/(c+1), (c+1)/(c-1), (c-i)/(c+i), (c+i)/(c-i)}
    times the powers of i and keeps the base-field members.
    """
    f = ec.field
    if ec.d != f.one():
        raise DegenerateParameter("equivalence list applies to d = 1 curves")
    one = f.one()
    if ec.c.is_zero() or ec.c == one or ec.c == -one:
        raise DegenerateParameter("c in {0, 1, -1} degenerates the list")
    root = square_root(f(-1))
    if root is not None:
        big = f
        c = ec.c
        i = root[0]
    else:
        if f.n != 1:
            raise DegenerateParameter("no sqrt(-1) available over this field")
        big = quadratic_extension(f)
        c = embed(ec.c, big)
        i = square_root(big(-1))[0]
    if c == i or c == -i:
        raise DegenerateParameter("c = ±i degenerates the list")
    base = [
        c,
        c.inverse(),
        (c - 1) / (c + 1),
        (c + 1) / (c - 1),
        (c - i) / (c + i),
        (c + i) / (c - i),
    ]
    values = set()
    for v in base:
        ik = big.one()
        for _ in range(4):
            values.add(v * ik)
            ik = ik * i
    out = set()
    for v in values:
        if big is f:
            out.add(v)
        elif all(co == 0 for co in v.coeffs[1:]):
            out.add(f(v.coeffs[0]))
    return out


# ---------------------------------------------------------------------------
# classification over small fields


def enumerate_short_curves(field: FieldSpec) -> dict:
    """Census of y^2 = x^3 + ax + b up to isomorphism (the u^4/u^6 action).

    Pairs are keyed by canonical index. In characteristic > 3 the zeros
    of 4a^3 + 27b^2 are exactly the q pairs (-3t^2, 2t^3), t in F_q, so
    the other q^2 - q pairs are the nonsingular curves."""
    if field.p in (2, 3):
        raise BadCharacteristic("short-form census needs characteristic > 3")
    if field.q > 2000:
        raise FieldTooLarge("census bounded at q = 2000")
    elts = list(field.elements())
    index = {e.coeffs: e.canonical_index() for e in elts}
    # u and -u act alike, so one of each pair suffices
    action = [(u ** 4, u ** 6) for u in elts if index[u.coeffs] < index[(-u).coeffs]]
    seen = {(index[(-3 * t * t).coeffs], index[(2 * t * t * t).coeffs]) for t in elts}
    classes = []
    for a in elts:
        ia = index[a.coeffs]
        for b in elts:
            if (ia, index[b.coeffs]) in seen:
                continue
            orbit = {(index[(u4 * a).coeffs], index[(u6 * b).coeffs]) for u4, u6 in action}
            seen |= orbit
            classes.append(sorted(orbit))
    classes.sort()
    return {
        "total_nonsingular": field.q ** 2 - field.q,
        "class_count": len(classes),
        "classes": classes,
    }


def standard_curve_for_j(field: FieldSpec, j: FieldElement) -> Curve:
    """A nonsingular curve with the prescribed j-invariant, any characteristic."""
    f = field
    j = f(j) if isinstance(j, int) else j
    if f.p == 2:
        if j.is_zero():
            E = Curve.make(f, 0, 0, 1, 0, 0)  # y^2 + y = x^3
        else:
            E = Curve.make(f, 1, 0, 0, 0, j.inverse())
    elif f.p == 3:
        if j.is_zero():
            E = Curve.short(f, f(1), f(0))  # y^2 = x^3 + x
        else:
            E = Curve.make(f, 0, 1, 0, 0, -j.inverse())
    else:
        if j.is_zero():
            E = Curve.short(f, f(0), f(1))
        elif j == f(1728):
            E = Curve.short(f, f(1), f(0))
        else:
            a = 27 * j / (j - 1728)
            E = Curve.make(f, 0, 0, 0, -a, 2 * a)
            if not is_nonsingular(E) or j_invariant(E) != j:
                E = Curve.make(f, 0, 0, 0, -a, -2 * a)
    assert is_nonsingular(E)
    assert j_invariant(E) == j
    return E


# ---------------------------------------------------------------------------
# parsing


def parse_curve(text: str) -> Curve:
    """Grammar: `<fieldspec>|a1,a2,a3,a4,a6`."""
    fieldpart, _, coeffpart = text.partition("|")
    f = parse_field(fieldpart)
    parts = coeffpart.split(",")
    # extension coefficients use colons, so commas separate the five a_i
    if len(parts) != 5:
        raise ValueError("curve spec requires five coefficients a1,a2,a3,a4,a6")
    a1, a2, a3, a4, a6 = (parse_element(p, f) for p in parts)
    return Curve(f, a1, a2, a3, a4, a6)

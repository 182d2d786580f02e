"""The group of points: affine group law, scalar multiplication, NAF.

Addition implements the full long-form case analysis, so every curve
model the package produces (including characteristic 2 and 3 normal
forms) uses the same code path.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

from .curve import Curve, EdwardsCurve
from .errors import DenominatorVanishes, MixedCurves, SingularCurve
from .field import FieldElement, parse_element


_setattr = object.__setattr__


class Point:
    """A point of E(F_q): affine coordinates (x, y), or infinity with
    x = y = None. Immutable. Points built here (Point.at, parse_point and
    unpickling too) are checked against the curve equation; _point is not."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: FieldElement | None = None,
                 y: FieldElement | None = None):
        if x is not None and not on_curve(curve, x, y):
            raise ValueError("point does not satisfy the curve equation")
        _setattr(self, "curve", curve)
        _setattr(self, "x", x)
        _setattr(self, "y", y)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Point, (self.curve, self.x, self.y)

    def __eq__(self, other):
        if other.__class__ is not Point:
            return NotImplemented
        return self.x == other.x and self.y == other.y and (
            self.curve is other.curve or self.curve == other.curve)

    def __hash__(self):
        # infinity hashes without None, whose hash varies between runs
        if self.x is None:
            return hash((self.curve,))
        return hash((self.curve, self.x, self.y))

    def __repr__(self):
        return f"Point(curve={self.curve!r}, x={self.x!r}, y={self.y!r})"

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @staticmethod
    def infinity(curve: Curve) -> Point:
        return Point(curve)

    @staticmethod
    def at(curve: Curve, x, y) -> Point:
        return Point(curve, curve.field(x), curve.field(y))

    def __str__(self):
        if self.is_infinity:
            return "inf"
        return f"({self.x},{self.y})"


def _point(curve: Curve, x: FieldElement, y: FieldElement) -> Point:
    """A point on the curve by construction (a group-law result or a root
    from Curve.solve_y), built without the check."""
    P = object.__new__(Point)
    _setattr(P, "curve", curve)
    _setattr(P, "x", x)
    _setattr(P, "y", y)
    return P


def on_curve(curve: Curve, x, y) -> bool:
    """Whether (x, y) satisfies the curve equation."""
    f = curve.field
    return curve.equation_lhs_minus_rhs(f(x), f(y)).is_zero()


def negate(P: Point) -> Point:
    if P.is_infinity:
        return P
    E = P.curve
    return _point(E, P.x, -P.y - E.a1 * P.x - E.a3)


def _chord_tangent(x1, y1, x2, y2, a, red, inv):
    """(x3, y3) = (x1, y1) + (x2, y2) for two affine points, or None when
    the sum is infinity.

    The one copy of the chord-tangent formulas. Coordinates and the
    coefficients a = (a1, a2, a3, a4, a6) are raw field values: ints mod p
    with red = reduction mod p and inv = modular inverse over a prime
    field, FieldElements with red = identity otherwise. Both inputs lie on
    the curve, so x1 == x2 means Q = -P or Q = P, and the tangent's
    denominator 2*y1 + a1*x1 + a3 vanishes only when P = -P.
    """
    a1, a2, a3, a4, _ = a
    if x1 == x2:
        if y2 == red(-y1 - a1 * x1 - a3):
            return None
        num = 3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1
        u = red(num * inv(red(2 * y1 + a1 * x1 + a3)))
    else:
        u = red((y2 - y1) * inv(red(x2 - x1)))
    x3 = red(u * u + a1 * u - a2 - x1 - x2)
    return x3, red(-(u + a1) * x3 - (y1 - x1 * u) - a3)


def _identity(v):
    return v


def add(P: Point, Q: Point) -> Point:
    E = P.curve
    if Q.curve is not E and Q.curve != E:
        raise MixedCurves("points on different curves")
    if not E.nonsingular:
        raise SingularCurve("group law requires a nonsingular curve")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    a = E.int_coefficients
    if a is None:
        xy = _chord_tangent(P.x, P.y, Q.x, Q.y, E.coefficients(), _identity,
                            FieldElement.inverse)
        return Point(E) if xy is None else _point(E, *xy)
    f = E.field
    p = f.p
    xy = _chord_tangent(P.x.coeffs[0], P.y.coeffs[0], Q.x.coeffs[0], Q.y.coeffs[0], a,
                        p.__rmod__, lambda d: pow(d, -1, p))
    if xy is None:
        return Point(E)
    return _point(E, FieldElement(f, (xy[0],)), FieldElement(f, (xy[1],)))


def double(P: Point) -> Point:
    return add(P, P)


def scalar_mul(n: int, P: Point, strategy: str = "binary") -> Point:
    """[n]P by double-and-add (binary) or signed-digit NAF."""
    if n < 0:
        return scalar_mul(-n, negate(P), strategy)
    if n == 0 or P.is_infinity:
        return Point.infinity(P.curve)
    if strategy == "binary":
        acc = Point.infinity(P.curve)
        base = P
        while n:
            if n & 1:
                acc = add(acc, base)
            base = add(base, base)
            n >>= 1
        return acc
    if strategy == "naf":
        acc = Point.infinity(P.curve)
        negP = negate(P)
        for digit in naf_encode(n).digits:
            acc = add(acc, acc)
            if digit == 1:
                acc = add(acc, P)
            elif digit == -1:
                acc = add(acc, negP)
        return acc
    raise ValueError(f"unknown strategy {strategy!r}")


def ladder_adds(n: int) -> int:
    """The `add` calls binary scalar_mul makes for [n]P, n >= 0, P finite:
    one doubling per bit and one addition per set bit."""
    return n.bit_length() + bin(n).count("1")


@dataclass(frozen=True)
class NafDigits:
    digits: tuple[int, ...]  # most significant first

    def __post_init__(self):
        assert all(d in (-1, 0, 1) for d in self.digits)
        assert not any(
            a != 0 and b != 0 for a, b in zip(self.digits, self.digits[1:])
        ), "adjacent nonzero digits"

    def value(self) -> int:
        v = 0
        for d in self.digits:
            v = 2 * v + d
        return v


def naf_encode(n: int) -> NafDigits:
    """Non-adjacent form: unique signed binary with no adjacent nonzeros."""
    if n < 1:
        raise ValueError(f"NAF needs n >= 1, got {n}")
    digits = []
    while n:
        if n & 1:
            d = 2 - (n % 4)  # 1 if n=1 mod 4, -1 if n=3 mod 4
            n -= d
        else:
            d = 0
        digits.append(d)
        n >>= 1
    out = NafDigits(tuple(reversed(digits)))
    assert out.value() >= 1
    return out


def edwards_add(E: EdwardsCurve, P, Q):
    """Unified Edwards addition on x^2 + y^2 = c^2 (1 + d x^2 y^2)."""
    x1, y1 = (E.field(v) for v in P)
    x2, y2 = (E.field(v) for v in Q)
    if not (E.contains(x1, y1) and E.contains(x2, y2)):
        raise ValueError("inputs must lie on the Edwards curve")
    w = E.d * x1 * x2 * y1 * y2
    one = E.field.one()
    den_x = E.c * (one + w)
    den_y = E.c * (one - w)
    if den_x.is_zero() or den_y.is_zero():
        raise DenominatorVanishes("excluded case d*x1*x2*y1*y2 = ±1")
    x3 = (x1 * y2 + y1 * x2) / den_x
    y3 = (y1 * y2 - x1 * x2) / den_y
    assert E.contains(x3, y3)
    return (x3, y3)


def parse_point(text: str, curve: Curve) -> Point:
    """Grammar: `inf` or `(<elt>,<elt>)`."""
    text = text.strip()
    if text == "inf":
        return Point.infinity(curve)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("point must be `inf` or `(x,y)`")
    xs, _, ys = text[1:-1].partition(",")
    x = parse_element(xs.strip(), curve.field)
    y = parse_element(ys.strip(), curve.field)
    return Point(curve, x, y)


def all_points(E: Curve) -> list[Point]:
    """Every rational point, infinity first, then x in elements() order
    with the y of each x in Curve.solve_y order (roots, so built unchecked)."""
    return [Point.infinity(E)] + [
        _point(E, x, y) for x in E.field.elements() for y in E.solve_y(x)
    ]

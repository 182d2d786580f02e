"""Division polynomials and the torsion test they support.

Everything is kept univariate: for even index the factor y is divided
out and every y^2 is replaced by x^3 + ax + b, so psi_n is g_n(x) for
odd n and g_n(x) * y for even n. The torsion-test polynomial f_n is
g_n for odd n and g_n^2 * (x^3+ax+b) for even n (squaring convention),
whose roots are exactly the x-coordinates of affine n-torsion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import Curve
from .errors import BadForm, IndexTooLarge
from .point import Point, _point, scalar_mul
from .poly import Poly

_MAX_INDEX = 200


def _require_short_odd(E: Curve):
    if E.field.p == 2:
        raise BadForm("division polynomials need odd characteristic")
    if not E.is_short():
        raise BadForm("division polynomials need the short form y^2 = x^3+ax+b")


class _PsiTable:
    """Memoized univariate division polynomials g_n for one curve."""

    def __init__(self, E: Curve):
        _require_short_odd(E)
        f = E.field
        a, b = E.a4, E.a6
        self.F = Poly.make(f, [b, a, f(0), f(1)])  # the cubic, i.e. y^2
        self.F2 = self.F * self.F
        one = Poly.const(f, 1)
        self.cache = {
            -1: -one,
            0: Poly(f, ()),
            1: one,
            2: Poly.const(f, 2),
            3: Poly.make(f, [-(a * a), 12 * b, 6 * a, f(0), f(3)]),
            4: Poly.make(
                f,
                [
                    4 * (-8 * b * b - a * a * a),
                    4 * (-4 * a * b),
                    4 * (-5 * a * a),
                    4 * (20 * b),
                    4 * (5 * a),
                    f(0),
                    f(4),
                ],
            ),
        }
        self.half = Poly.const(f, f(2).inverse())

    def g(self, n: int) -> Poly:
        if n in self.cache:
            return self.cache[n]
        m, rem = divmod(n, 2)
        if rem:
            # psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3
            if m % 2 == 0:
                out = self.F2 * self.g(m + 2) * self.g(m) ** 3 - self.g(m - 1) * self.g(m + 1) ** 3
            else:
                out = self.g(m + 2) * self.g(m) ** 3 - self.F2 * self.g(m - 1) * self.g(m + 1) ** 3
        else:
            # psi_{2m} = psi_m (psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2)/(2y):
            # the parity bookkeeping cancels to the same univariate formula
            inner = self.g(m + 2) * self.g(m - 1) ** 2 - self.g(m - 2) * self.g(m + 1) ** 2
            out = self.half * self.g(m) * inner
        self.cache[n] = out
        return out


_tables: dict = {}
_TABLES_KEPT = 32  # curves whose tables are kept; the oldest goes first


def _table(E: Curve) -> _PsiTable:
    if E not in _tables:
        if len(_tables) >= _TABLES_KEPT:
            del _tables[next(iter(_tables))]
        _tables[E] = _PsiTable(E)
    return _tables[E]


@dataclass(frozen=True)
class DivisionPolynomial:
    n: int
    as_univariate: Poly  # g_n(x): psi_n itself (odd n) or psi_n / y (even n)
    parity_factor: bool  # True when a factor y was divided out (even n)
    torsion_poly: Poly  # f_n: roots = x-coordinates of affine n-torsion


def _check_index(n: int):
    if not -1 <= n <= _MAX_INDEX:
        raise IndexTooLarge(f"index {n} outside [-1, {_MAX_INDEX}]")


def division_polynomial(E: Curve, n: int) -> DivisionPolynomial:
    _require_short_odd(E)
    _check_index(n)
    tab = _table(E)
    g = tab.g(n)
    even = n % 2 == 0
    return DivisionPolynomial(n, g, even, g * g * tab.F if even else g)


def torsion_test(P: Point, n: int) -> bool:
    """True iff [n]P = O, decided by the division polynomial alone.

    f_n(x) = g_n(x)^2 F(x) for even n and g_n(x) for odd n, so it is
    evaluated from its factors without building f_n."""
    if P.is_infinity:
        return True
    _require_short_odd(P.curve)
    if n < 1:
        raise ValueError(f"torsion index n = {n} must be at least 1")
    if n == 1:
        return False
    _check_index(n)
    tab = _table(P.curve)
    return tab.g(n)(P.x).is_zero() or (n % 2 == 0 and tab.F(P.x).is_zero())


def torsion_points(E: Curve, n: int) -> set[Point]:
    """All affine points with [n]P = O, by root extraction plus y-recovery."""
    _require_short_odd(E)
    if not 1 <= n <= 20:
        raise IndexTooLarge("torsion enumeration bounded at n = 20")
    if n == 1:
        return set()
    d = division_polynomial(E, n)
    out = set()
    for x in d.torsion_poly.roots():
        for y in E.solve_y(x):
            P = _point(E, x, y)
            if scalar_mul(n, P).is_infinity:
                out.add(P)
    return out

"""Dense univariate polynomials over a FieldSpec, and the F_p kernels
under all polynomial and extension-field arithmetic.

The kernels work on int tuples of residues mod p, low degree first.
`Poly` keeps its coefficients as FieldElements, low degree first (the
zero polynomial has an empty tuple), and does its arithmetic on one
packed int tuple: over F_{p^n} coefficient i fills slots
i(2n-1) ... i(2n-1)+n-1 (Kronecker substitution), so the product of two
coefficients, of degree at most 2n-2 in the field generator, never
spills into the next coefficient's slots. Over F_p the slots are the
residues themselves. `Poly.values` evaluates a polynomial at every field
element at once, on numpy arrays; character sums and roots read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, zip_longest
from operator import mul
from typing import TYPE_CHECKING

from .errors import DivisionByZero, FieldTooLarge, MixedFields

if TYPE_CHECKING:  # field.py imports the kernels below
    from .field import FieldElement, FieldSpec

# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p on int tuples (low-first)

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b, p):
    return _ptrim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _psub(a, b, p):
    return _ptrim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    """Quotient and remainder of a by b over F_p; b need not be monic."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _ptrim(q), _ptrim(a)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def _ppowmod(base, e, mod, p):
    result = (1,)
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _pinvmod(a, mod, p):
    """Inverse of a modulo mod over F_p by the extended Euclid algorithm."""
    r0, r1 = _ptrim(mod), _pmod(a, mod, p)
    s0, s1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    if len(r0) != 1:
        raise DivisionByZero("element has no inverse (zero divisor)")
    inv_c = pow(r0[0], p - 2, p)
    return _ptrim(tuple(c * inv_c % p for c in s0))


# ---------------------------------------------------------------------------
_CHUNK = 1 << 15  # array entries per chunk of Poly.values: _CHUNK // n elements


@dataclass(frozen=True)
class Poly:
    field: FieldSpec
    coeffs: tuple[FieldElement, ...]

    @staticmethod
    def make(field: FieldSpec, coeffs) -> Poly:
        elts = [field(c) for c in coeffs]
        while elts and elts[-1].is_zero():
            elts.pop()
        return Poly(field, tuple(elts))

    @staticmethod
    def const(field: FieldSpec, c) -> Poly:
        return Poly.make(field, [c])

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic on the packed F_p tuple ----------------------------------

    def _packed(self, other: Poly):
        """Both operands as packed int tuples over F_p, and p."""
        f = self.field
        if other.field is not f and other.field != f:
            raise MixedFields("polynomials over different fields")
        pad = (0,) * (f.n - 1)
        return (tuple(chain.from_iterable(c.coeffs + pad for c in self.coeffs)),
                tuple(chain.from_iterable(c.coeffs + pad for c in other.coeffs)),
                f.p)

    def _unpacked(self, packed) -> Poly:
        from .field import FieldElement

        f = self.field
        n, w = f.n, 2 * f.n - 1
        out = []
        for i in range(0, len(packed), w):
            c = packed[i:i + w]
            if len(c) > n:
                c = _pmod(c, f.modulus, f.p)
            out.append(FieldElement(f, c + (0,) * (n - len(c))))
        while out and not any(out[-1].coeffs):
            out.pop()
        return Poly(f, tuple(out))

    def __add__(self, other: Poly) -> Poly:
        return self._unpacked(_padd(*self._packed(other)))

    def __sub__(self, other: Poly) -> Poly:
        return self._unpacked(_psub(*self._packed(other)))

    def __neg__(self) -> Poly:
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.const(self.field, other)
        return self._unpacked(_pmul(*self._packed(other)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        result = Poly.const(self.field, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x) -> FieldElement:
        x = self.field(x)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def values(self):
        """g at every x of F_q in elements() order, a chunk at a time: pairs (x, index) of
        int64 arrays, x[i] coefficient i of each x and index the canonical_index of g(x)."""
        import numpy as np

        f, p, n = self.field, self.field.p, self.field.n
        if f.q >= 2 ** 63 or n * p * p >= 2 ** 63:  # a reduced product stays below n p^2
            raise FieldTooLarge("array evaluation needs q and n p^2 below 2^63")
        for start in range(0, f.q, _CHUNK // n):
            x = [np.arange(start, min(start + _CHUNK // n, f.q), dtype=np.int64)]
            for _ in range(1, n):  # base-p digits, c_{n-1} fastest as in elements()
                x[:1] = np.divmod(x[0], p)
            xt = [x]  # x t^j, t the generator: shift up a degree, fold t^n by the modulus
            for _ in range(1, n):
                *low, top = xt[-1]
                xt.append([(lo - top * m) % p for lo, m in zip([0, *low], f.modulus)])
            acc, bound = [0] * n, p  # the coefficients of g's Horner value, below bound
            for c in reversed(self.coeffs or (f.zero(),)):  # acc * x + c
                if n * bound * p >= 2 ** 63:  # reduce mod p only where int64 could overflow
                    acc, bound = [a % p for a in acc], p
                acc = [sum(map(mul, acc, row), ci) for row, ci in zip(zip(*xt), c.coeffs)]
                bound *= n * p
            yield x, reduce(lambda i, a: i * p + a, [a % p for a in reversed(acc)])

    def roots(self) -> list[FieldElement]:
        """Distinct roots in the coefficient field, in elements() order."""
        if self.is_zero():
            raise ValueError("every element is a root of the zero polynomial")
        return [self.field(c) for x, i in self.values() for c in zip(*[r[i == 0] for r in x])]

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"({c})*x")
            else:
                terms.append(f"({c})*x^{i}")
        return " + ".join(terms)

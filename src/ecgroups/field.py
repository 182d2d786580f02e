"""Prime fields F_p and extension fields F_{p^n} = F_p[x]/(f(x)).

Elements are canonical coefficient vectors (low degree first, least
nonnegative residues), so equality and serialization are bit-exact.
All operations are pure; values are immutable and thread-safe.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache

from . import intutil
from .errors import DivisionByZero, MixedFields, ZeroElement

# ---------------------------------------------------------------------------
# low-level polynomial arithmetic over F_p on int tuples (low-first)


def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _ptrim([(x + y) % p for x, y in zip(a, b)])


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _ptrim([(x - y) % p for x, y in zip(a, b)])


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


def _irreducible(modulus, p, n):
    """Check the degree-n monic modulus is irreducible over F_p."""
    # Any nontrivial factorization contains an irreducible factor of degree
    # k <= n/2, which would show up as gcd(x^(p^k) - x, modulus) != 1.
    # Iterating the Frobenius h -> h^p keeps each step cheap.
    if p == 2:
        return _irreducible2(modulus, n)
    x = (0, 1)
    h = x
    for _ in range(n // 2):
        h = _ppowmod(h, p, modulus, p)
        if len(_pgcd(_psub(h, x, p), modulus, p)) != 1:
            return False
    return True


def _irreducible2(modulus, n):
    """Characteristic-2 irreducibility with polynomials packed into ints
    (bit i = coefficient of x^i), fast enough for the standard binary
    field degrees."""
    m = sum(b << i for i, b in enumerate(modulus))

    def square_mod(a):
        s = 0
        i = 0
        while a:
            if a & 1:
                s |= 1 << (2 * i)
            a >>= 1
            i += 1
        while s.bit_length() > n:
            s ^= m << (s.bit_length() - 1 - n)
        return s

    def gcd2(a, b):
        while b:
            while a and a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        return a

    h = 2  # the polynomial x
    for _ in range(n // 2):
        h = square_mod(h)
        if gcd2(m, h ^ 2) != 1:
            return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_{p^n}; n == 1 means the prime field (no modulus)."""

    p: int
    n: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if not intutil.is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise ValueError("extension degree must be >= 1")
        if self.n == 1:
            if self.modulus is not None:
                raise ValueError("prime field takes no modulus")
        else:
            if self.modulus is None:
                raise ValueError("extension field requires a modulus")
            m = tuple(c % self.p for c in self.modulus)
            if len(m) != self.n + 1 or m[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            object.__setattr__(self, "modulus", m)
            if not _irreducible(m, self.p, self.n):
                raise ValueError("modulus is reducible over F_p")

    def __hash__(self):
        # hash(None) follows the object's address before Python 3.12, so a
        # prime field hashes its absent modulus as (); set and dict order of
        # elements, and every seeded choice made from them, then repeat
        # from run to run.
        return hash((self.p, self.n, self.modulus or ()))

    @property
    def q(self) -> int:
        return self.p ** self.n

    @property
    def char(self) -> int:
        return self.p

    def __call__(self, value) -> FieldElement:
        """Coerce an int (prime-subfield constant) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise MixedFields("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.n - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.n:
            reduced = _pmod(coeffs, self.modulus, self.p)
            coeffs = reduced
        coeffs = tuple(coeffs) + (0,) * (self.n - len(coeffs))
        return FieldElement(self, coeffs[: self.n])

    def zero(self) -> FieldElement:
        return self(0)

    def one(self) -> FieldElement:
        return self(1)

    def elements(self):
        """All field elements in canonical (lexicographic coefficient) order.

        Lazy: a prime field counts through range(p), so the first elements
        of a huge field cost nothing (itertools.product would first store
        all p residues)."""
        if self.n == 1:
            for c in range(self.p):
                yield FieldElement(self, (c,))
        else:
            for coeffs in itertools.product(range(self.p), repeat=self.n):
                yield FieldElement(self, coeffs)

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.n)))

    def __str__(self):
        if self.n == 1:
            return f"p={self.p}"
        mod = ",".join(str(c) for c in self.modulus)
        return f"p={self.p};n={self.n};mod={mod}"


_setattr = object.__setattr__


class FieldElement:
    """An element of `field`, held as its canonical coefficient vector
    `coeffs` (length field.n). Immutable; equal elements hash equally."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        if len(coeffs) != field.n:
            raise ValueError(f"an element of {field} has {field.n} coefficients")
        _setattr(self, "field", field)
        _setattr(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return FieldElement, (self.field, self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not FieldElement:
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"FieldElement(field={self.field!r}, coeffs={self.coeffs!r})"

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> FieldElement:
        if other.__class__ is FieldElement:
            if other.field is not self.field and other.field != self.field:
                raise MixedFields("operands from different fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        f = self.field
        if f.n == 1:
            return FieldElement(f, ((self.coeffs[0] + other.coeffs[0]) % f.p,))
        p = f.p
        return FieldElement(f, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        f = self.field
        if f.n == 1:
            return FieldElement(f, ((self.coeffs[0] - other.coeffs[0]) % f.p,))
        p = f.p
        return FieldElement(f, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.field
        if f.n == 1:
            return FieldElement(f, (self.coeffs[0] * other.coeffs[0] % f.p,))
        prod = _pmul(self.coeffs, other.coeffs, f.p)
        red = _pmod(prod, f.modulus, f.p)
        return FieldElement(f, tuple(red) + (0,) * (f.n - len(red)))

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        f = self.field
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if f.n == 1:
            return FieldElement(f, (pow(self.coeffs[0], -1, f.p),))
        inv = _pinvmod(self.coeffs, f.modulus, f.p)
        return FieldElement(f, tuple(inv) + (0,) * (f.n - len(inv)))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        if f.n == 1:
            return FieldElement(f, (pow(self.coeffs[0], e, f.p),))
        result = f.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def canonical_index(self) -> int:
        """Integer encoding: sum coeff_i * p^i; total order on the field."""
        p = self.field.p
        return sum(c * p ** i for i, c in enumerate(self.coeffs))

    def lift(self) -> int:
        """The integer residue; prime fields only."""
        if self.field.n != 1:
            raise ValueError("lift is defined for prime-field elements")
        return self.coeffs[0]

    def __str__(self):
        if self.field.n == 1:
            return str(self.coeffs[0])
        return ":".join(str(c) for c in self.coeffs)

    def __bool__(self):
        return any(self.coeffs)


# ---------------------------------------------------------------------------
# quadratic machinery


def quadratic_character(a: FieldElement) -> int:
    """+1 for nonzero squares, -1 for nonsquares, 0 for zero.

    For q = 2^n every element is a square (the Frobenius is bijective).
    """
    if a.is_zero():
        return 0
    f = a.field
    if f.p == 2:
        return 1
    r = a ** ((f.q - 1) // 2)
    return 1 if r == f.one() else -1


def _canonical_nonresidue(f: FieldSpec) -> FieldElement:
    for elt in f.elements():
        if quadratic_character(elt) == -1:
            return elt
    raise ValueError("no quadratic nonresidue (is q even?)")


def square_root(a: FieldElement):
    """Both square roots (r, -r), or None when a is a nonsquare.

    Tonelli-Shanks for odd q, with the (q+1)/4 shortcut when q = 3 mod 4;
    repeated squaring for q = 2^n.
    """
    f = a.field
    if a.is_zero():
        return (a, a)
    if f.p == 2:
        r = a
        for _ in range(f.n - 1):
            r = r * r
        assert r * r == a
        return (r, r)
    chi = quadratic_character(a)
    if chi == -1:
        return None
    q = f.q
    if q % 4 == 3:
        r = a ** ((q + 1) // 4)
    else:
        r = _tonelli_shanks(a)
    assert r * r == a
    return (r, -r)


def _tonelli_shanks(a: FieldElement) -> FieldElement:
    f = a.field
    q = f.q
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = _canonical_nonresidue(f)
    c = z ** s
    r = a ** ((s + 1) // 2)
    t = a ** s
    m = e
    one = f.one()
    while t != one:
        i, t2 = 0, t
        while t2 != one:
            t2 = t2 * t2
            i += 1
        b = c ** (1 << (m - i - 1))
        r = r * b
        c = b * b
        t = t * c
        m = i
    return r


def element_order(a: FieldElement) -> int:
    """Multiplicative order; divides q - 1."""
    if a.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    f = a.field
    order = f.q - 1
    one = f.one()
    for p in intutil.factorize(order):
        while order % p == 0 and a ** (order // p) == one:
            order //= p
    return order


def absolute_trace(a: FieldElement) -> FieldElement:
    """Trace down to the prime subfield: sum of a^(p^i), i < n."""
    t = a
    frob = a
    for _ in range(a.field.n - 1):
        frob = frob ** a.field.p
        t = t + frob
    return t


@lru_cache(maxsize=None)
def quadratic_extension(f: FieldSpec) -> FieldSpec:
    """F_{q^2} over the prime field; deterministic smallest modulus.

    Only supported for prime base fields (sufficient for distortion maps
    and Edwards equivalence over F_q(i)).
    """
    if f.n != 1:
        raise ValueError("quadratic extension of extensions not supported")
    p = f.p
    for c0 in range(p):
        for c1 in range(p):
            cand = (c0, c1, 1)
            if _irreducible(cand, p, 2):
                return FieldSpec(p, 2, cand)
    raise AssertionError("unreachable: F_p always has an irreducible quadratic")


def embed(a: FieldElement, ext: FieldSpec) -> FieldElement:
    """Embed a prime-field element into an extension of the same p."""
    if a.field.n != 1 or ext.p != a.field.p:
        raise MixedFields("can only embed prime-field elements upward")
    return ext(a.coeffs[0])


# ---------------------------------------------------------------------------
# parsing


def parse_field(text: str) -> FieldSpec:
    """Grammar: `p=<decimal>` or `p=<decimal>;n=<k>;mod=<c0,c1,...,1>`."""
    parts = dict(
        item.split("=", 1) for item in text.strip().split(";") if item.strip()
    )
    if "p" not in parts:
        raise ValueError("field spec requires p=<prime>")
    p = int(parts["p"])
    n = int(parts.get("n", "1"))
    if n == 1:
        return FieldSpec(p)
    if "mod" not in parts:
        raise ValueError("extension field spec requires mod=<coeffs>")
    modulus = tuple(int(c) for c in parts["mod"].split(","))
    return FieldSpec(p, n, modulus)


def parse_element(text: str, f: FieldSpec) -> FieldElement:
    if ":" in text:
        return f(tuple(int(c) for c in text.split(":")))
    return f(int(text))


# ---------------------------------------------------------------------------
# FIPS 186-2 binary field moduli


def _binary_modulus(degree: int, *terms: int) -> tuple[int, ...]:
    coeffs = [0] * (degree + 1)
    coeffs[degree] = 1
    coeffs[0] = 1
    for t in terms:
        coeffs[t] = 1
    return tuple(coeffs)


FIPS_BINARY_MODULI = {
    163: _binary_modulus(163, 7, 6, 3),
    233: _binary_modulus(233, 74),
    283: _binary_modulus(283, 12, 7, 5),
    409: _binary_modulus(409, 87),
    571: _binary_modulus(571, 10, 5, 2),
}

"""Reference arithmetic for checking results, written apart from ecgroups.

Everything here uses plain Python integers (and numpy integer arrays for
character sums), never the package under test, so a fault in ecgroups
cannot hide itself by also corrupting the check.

Finite fields are `Fp(p)` (elements are ints in [0, p)) and
`Fq(p, modulus)` (elements are coefficient tuples, low degree first,
modulo a monic irreducible polynomial). Both expose the same methods, so
`Weierstrass` curve arithmetic works over either.
"""

from __future__ import annotations

import math
import random

import numpy as np

# ---------------------------------------------------------------------------
# integers

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int, mod4: int | None = None) -> int:
    """A uniformly drawn prime in [lo, hi), optionally with p % 4 == mod4."""
    while True:
        p = rng.randrange(lo, hi)
        if (mod4 is None or p % 4 == mod4) and is_prime(p):
            return p


def primes_below(n: int) -> list[int]:
    return [k for k in range(2, n + 1) if is_prime(k)]


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent's variant)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
        c += 1


def factor(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of |n| >= 1."""
    n = abs(n)
    out: dict[int, int] = {}
    for sp in range(2, 1000):
        while n % sp == 0:
            out[sp] = out.get(sp, 0) + 1
            n //= sp
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return out


def mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a**k = 1 mod m, by stepping (m is small)."""
    x, k = a % m, 1
    while x != 1 % m:
        x = x * a % m
        k += 1
    return k


def lucas_orders(t: int, q: int, upto: int) -> list[int]:
    """#E(F_{q^n}) for n = 1..upto from the trace t over F_q."""
    V = [2, t]
    for _ in range(upto - 1):
        V.append(t * V[-1] - q * V[-2])
    return [q ** n + 1 - V[n] for n in range(1, upto + 1)]


def hasse_ok(N: int, q: int) -> bool:
    t = q + 1 - N
    return t * t <= 4 * q


# ---------------------------------------------------------------------------
# fields


class Fp:
    """The prime field F_p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        self.p = self.q = p
        self.n = 1
        self.zero, self.one = 0, 1

    def elt(self, v) -> int:
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p)

    def elements(self):
        return range(self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def parse(self, text: str) -> int:
        return int(text) % self.p


class Fq:
    """F_{p^n} = F_p[x]/(modulus); elements are n-tuples, low degree first."""

    def __init__(self, p: int, modulus):
        self.p = p
        self.mod = tuple(c % p for c in modulus)
        self.n = len(self.mod) - 1
        self.q = p ** self.n
        self.zero = (0,) * self.n
        self.one = (1,) + (0,) * (self.n - 1)

    def elt(self, v):
        if isinstance(v, int):
            return (v % self.p,) + (0,) * (self.n - 1)
        return tuple(c % self.p for c in v)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, n, mod = self.p, self.n, self.mod
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(n):
                    prod[k - n + j] -= c * mod[j]
        return tuple(c % p for c in prod[:n])

    def pow(self, a, e):
        result, base = self.one, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a):
        """Inverse by the extended Euclidean algorithm on polynomials."""
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        r0, r1 = list(self.mod), _trim(a, p)
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, r = _divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _trim([x - y for x, y in _zip_pad(s0, _pmul(q, s1, p))], p)
        c = pow(r1[0], -1, p)
        return self.elt(tuple(x * c for x in s1) + (0,) * (self.n - len(s1)))

    def elements(self):
        for k in range(self.q):
            out = []
            for _ in range(self.n):
                k, c = divmod(k, self.p)
                out.append(c)
            yield tuple(out)

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.n))

    def parse(self, text: str):
        if ":" in text:
            return self.elt(tuple(int(c) for c in text.split(":")))
        return self.elt(int(text))


def _trim(c, p) -> list:
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))


def _pmul(a, b, p) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out, p)


def _divmod(a, b, p):
    """Quotient and remainder of polynomials a, b (b != 0) over F_p."""
    a = _trim(a, p)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a = _trim(a, p)
    return _trim(q, p), a


def is_irreducible(p: int, modulus) -> bool:
    """Ben-Or: no factor of degree k <= n/2, i.e. gcd(x^(p^k) - x, f) = 1."""
    F = Fq(p, modulus)
    n = F.n
    x = F.elt((0, 1) + (0,) * (n - 2)) if n > 1 else None
    h = x
    for _ in range(n // 2):
        h = F.pow(h, p)
        if _poly_gcd_degree(F.sub(h, x), modulus, p) > 0:
            return False
    return True


def _poly_gcd_degree(a, b, p) -> int:
    a, b = _trim(a, p), _trim(b, p)
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return len(a) - 1


def random_irreducible(rng: random.Random, p: int, n: int):
    """A random monic irreducible polynomial of degree n over F_p."""
    while True:
        mod = tuple(rng.randrange(p) for _ in range(n)) + (1,)
        if mod[0] and is_irreducible(p, mod):
            return mod


def chi(F, a) -> int:
    """Quadratic character in odd characteristic."""
    if a == F.zero:
        return 0
    return 1 if F.pow(a, (F.q - 1) // 2) == F.one else -1


def trace(F, a) -> int:
    """Absolute trace Tr(a) = a + a^p + ... + a^(p^(n-1)) in F_p.

    The trace is F_p-linear, so it is the dot product of a's coefficients
    with the traces of the basis monomials, which are computed once per field.
    """
    if F.n == 1:
        return a % F.p
    basis = getattr(F, "_basis_traces", None)
    if basis is None:
        basis = []
        for i in range(F.n):
            e = F.elt(tuple(1 if j == i else 0 for j in range(F.n)))
            t, frob = e, e
            for _ in range(F.n - 1):
                frob = F.pow(frob, F.p)
                t = F.add(t, frob)
            basis.append(t[0])
        F._basis_traces = basis
    return sum(c * t for c, t in zip(a, basis)) % F.p


def sqrt(F, a, rng: random.Random):
    """A square root of a in F, or None (Tonelli-Shanks; odd q or q = 2^n)."""
    if a == F.zero:
        return a
    if F.p == 2:
        return F.pow(a, F.q // 2)
    if chi(F, a) != 1:
        return None
    s, e = F.q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = F.random(rng)
    while chi(F, z) != -1:
        z = F.random(rng)
    c, r, t, m = F.pow(z, s), F.pow(a, (s + 1) // 2), F.pow(a, s), e
    while t != F.one:
        i, t2 = 0, t
        while t2 != F.one:
            t2 = F.mul(t2, t2)
            i += 1
        b = F.pow(c, 1 << (m - i - 1))
        r, c = F.mul(r, b), F.mul(b, b)
        t, m = F.mul(t, c), i
    return r


def solve_artin_schreier(F, w):
    """A z with z^2 + z = w in characteristic 2, or None.

    z -> z^2 + z is F_2-linear, so solve it as a linear system over the
    polynomial basis by Gaussian elimination.
    """
    n = F.n
    cols = []
    for i in range(n):
        e = F.elt(tuple(1 if j == i else 0 for j in range(n)))
        cols.append(F.add(F.mul(e, e), e))
    # rows: equations per output coordinate; unknowns: z_0..z_{n-1}
    rows = [[cols[i][r] for i in range(n)] + [w[r]] for r in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((k for k in range(r, n) if rows[k][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for k in range(n):
            if k != r and rows[k][c]:
                rows[k] = [x ^ y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[n] for row in rows[r:]):
        return None
    z = [0] * n
    for k, c in enumerate(pivots):
        z[c] = rows[k][n]
    return tuple(z)


# ---------------------------------------------------------------------------
# curves


class Weierstrass:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Fp or Fq.

    Points are (x, y) pairs; None is the point at infinity.
    """

    def __init__(self, F, coeffs):
        self.F = F
        self.a1, self.a2, self.a3, self.a4, self.a6 = (F.elt(c) for c in coeffs)

    def lhs_minus_rhs(self, x, y):
        F = self.F
        m = F.mul
        lhs = F.add(F.add(m(y, y), m(m(self.a1, x), y)), m(self.a3, y))
        rhs = F.add(F.add(F.add(m(m(x, x), x), m(m(self.a2, x), x)), m(self.a4, x)), self.a6)
        return F.sub(lhs, rhs)

    def contains(self, P) -> bool:
        return P is None or self.lhs_minus_rhs(*P) == self.F.zero

    def discriminant(self):
        F = self.F
        m, a, s = F.mul, F.add, F.sub
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        k = lambda c: F.elt(c)  # noqa: E731
        b2 = a(m(a1, a1), m(k(4), a2))
        b4 = a(m(k(2), a4), m(a1, a3))
        b6 = a(m(a3, a3), m(k(4), a6))
        b8 = s(a(s(a(m(m(a1, a1), a6), m(m(k(4), a2), a6)), m(m(a1, a3), a4)),
                 m(m(a2, a3), a3)), m(a4, a4))
        d = s(s(s(F.zero, m(m(b2, b2), b8)), m(k(8), m(m(b4, b4), b4))), m(k(27), m(b6, b6)))
        return a(d, m(k(9), m(m(b2, b4), b6)))

    def neg(self, P):
        if P is None:
            return None
        F = self.F
        x, y = P
        return (x, F.sub(F.sub(F.sub(F.zero, y), F.mul(self.a1, x)), self.a3))

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        F = self.F
        m, a, s = F.mul, F.add, F.sub
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if Q == self.neg(P):
                return None
            num = s(a(a(m(F.elt(3), m(x1, x1)), m(F.elt(2), m(self.a2, x1))), self.a4),
                    m(self.a1, y1))
            den = a(a(m(F.elt(2), y1), m(self.a1, x1)), self.a3)
        else:
            num, den = s(y2, y1), s(x2, x1)
        lam = m(num, F.inv(den))
        nu = s(y1, m(lam, x1))
        x3 = s(s(s(a(m(lam, lam), m(self.a1, lam)), self.a2), x1), x2)
        y3 = s(s(s(F.zero, m(a(lam, self.a1), x3)), nu), self.a3)
        return (x3, y3)

    def mul(self, k: int, P):
        if k < 0:
            k, P = -k, self.neg(P)
        acc = None
        while k:
            if k & 1:
                acc = self.add(acc, P)
            P = self.add(P, P)
            k >>= 1
        return acc

    def ys_at(self, x, rng: random.Random) -> list:
        """All y with (x, y) on the curve."""
        F = self.F
        m, a = F.mul, F.add
        L = a(m(self.a1, x), self.a3)
        c = a(a(a(m(m(x, x), x), m(m(self.a2, x), x)), m(self.a4, x)), self.a6)
        if F.p == 2:
            if L == F.zero:
                return [sqrt(F, c, rng)]
            z = solve_artin_schreier(F, m(c, F.inv(m(L, L))))
            if z is None:
                return []
            y = m(z, L)
            return sorted({y, a(y, L)})
        r = sqrt(F, a(m(L, L), m(F.elt(4), c)), rng)
        if r is None:
            return []
        half = F.inv(F.elt(2))
        return sorted({m(F.sub(r, L), half), m(F.sub(F.sub(F.zero, r), L), half)})

    def sample_point(self, rng: random.Random):
        while True:
            x = self.F.random(rng)
            ys = self.ys_at(x, rng)
            if ys:
                return (x, rng.choice(ys))

    def count(self) -> int:
        """#E(F_q) including infinity (and a singular point, if any)."""
        F = self.F
        if F.n == 1:
            return count_fp((self.a1, self.a2, self.a3, self.a4, self.a6), F.p)
        m, a = F.mul, F.add
        squares = None if F.p == 2 else {m(x, x) for x in F.elements()}
        N = 1
        for x in F.elements():
            L = a(m(self.a1, x), self.a3)
            c = a(a(a(m(m(x, x), x), m(m(self.a2, x), x)), m(self.a4, x)), self.a6)
            if F.p == 2:
                if L == F.zero:
                    N += 1
                elif trace(F, m(c, F.inv(m(L, L)))) == 0:
                    N += 2
            else:
                d = a(m(L, L), m(F.elt(4), c))
                N += 1 if d == F.zero else (2 if d in squares else 0)
        return N

    def has_exact_order(self, P, order: int) -> bool:
        if not self.contains(P) or self.mul(order, P) is not None:
            return False
        return all(self.mul(order // ell, P) is not None for ell in factor(order))


def count_fp(coeffs, p: int) -> int:
    """#E(F_p) for odd p by the character sum over x (numpy int64)."""
    a1, a2, a3, a4, a6 = (int(c) % p for c in coeffs)
    if p == 2:
        E = Weierstrass(Fp(2), coeffs)
        return 1 + sum(1 for x in range(2) for y in range(2) if E.lhs_minus_rhs(x, y) == 0)
    x = np.arange(p, dtype=np.int64)
    L = (a1 * x + a3) % p
    c = ((((x + a2) % p) * x % p + a4) % p * x % p + a6) % p
    disc = (L * L % p + 4 * c) % p
    return 1 + p + int(legendre_table(p)[disc].sum())


def legendre_table(p: int) -> np.ndarray:
    tab = np.full(p, -1, dtype=np.int64)
    sq = np.arange(p, dtype=np.int64)
    tab[sq * sq % p] = 1
    tab[0] = 0
    return tab


def trace_fp(coeffs, p: int) -> int:
    """a_p = p + 1 - #E(F_p), counting every point of the (maybe singular)
    Weierstrass equation; this is the usual a_p at good and bad primes."""
    return p + 1 - count_fp(coeffs, p)


def integer_discriminant(model) -> int:
    a1, a2, a3, a4, a6 = model
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def transform(F, coeffs, u, r, s, t):
    """Coefficients of E' from E under (x, y) = (u^2 x' + r, u^3 y' + u^2 s x' + t)
    (Silverman, Table 3.1)."""
    a1, a2, a3, a4, a6 = (F.elt(c) for c in coeffs)
    m, a, sb = F.mul, F.add, F.sub
    k = F.elt
    iu = F.inv(u)
    iu2 = m(iu, iu)
    b1 = m(a(a1, m(k(2), s)), iu)
    b2 = m(sb(a(sb(a2, m(s, a1)), m(k(3), r)), m(s, s)), iu2)
    b3 = m(a(a(a3, m(r, a1)), m(k(2), t)), m(iu2, iu))
    b4 = sb(a(sb(a4, m(s, a3)), m(m(k(2), r), a2)), m(a(t, m(r, s)), a1))
    b4 = m(sb(a(b4, m(k(3), m(r, r))), m(m(k(2), s), t)), m(iu2, iu2))
    b6 = sb(sb(a(a(a(a6, m(r, a4)), m(m(r, r), a2)), m(m(r, r), r)), m(t, a3)), m(t, t))
    b6 = m(sb(b6, m(m(r, t), a1)), m(m(iu2, iu2), iu2))
    return (b1, b2, b3, b4, b6)

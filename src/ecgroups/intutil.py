"""Integer helpers: primality, factorization, multiplicative orders.

Factorization is desk scale only: trial division up to 10**6, then Pollard
rho, with residual cofactors above 2**96 rejected.
"""

import math
import random

from .errors import FactoringFailed

_TRIAL_BOUND = 10 ** 6
_RHO_LIMIT = 1 << 96

# deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < (1 << 64):
        bases = _MR_BASES
    else:
        rng = random.Random(n)
        bases = _MR_BASES + tuple(rng.randrange(2, n - 1) for _ in range(20))
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
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


def _pollard_rho(n: int, seed: int = 1) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(seed)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization as {prime: exponent}."""
    if n < 0:
        n = -n
    if n in (0, 1):
        return {}
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return factors
    if d * d > n:
        factors[n] = factors.get(n, 0) + 1
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        if m > _RHO_LIMIT:
            raise FactoringFailed(f"cofactor {m} exceeds the desk-scale bound")
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return factors


def squarefree_kernel(n: int) -> int:
    """Product of the distinct primes dividing n (1 for units)."""
    n = abs(n)
    if n <= 1:
        return 1
    r = 1
    for p in factorize(n):
        r *= p
    return r


def multiplicative_order(a: int, m: int) -> int:
    """Least k >= 1 with a**k == 1 (mod m); requires gcd(a, m) == 1."""
    if math.gcd(a, m) != 1:
        raise ValueError("element not invertible")
    n = m - 1 if is_prime(m) else _euler_phi(m)
    order = n
    for p in factorize(n):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def _euler_phi(m: int) -> int:
    phi = 1
    for p, e in factorize(m).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, v in enumerate(sieve) if v]

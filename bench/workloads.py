"""The four benchmark workloads: inputs, jobs and result checks.

A workload is a stream of rounds. A round is a fixed list of job kinds,
each with inputs drawn from the round's random stream; every run executes
whole rounds, so the mix of job kinds is the same in every run. Inputs are
plain data (ints and tuples) made from the seed; a job turns them into
library objects and calls the public API of ecgroups (or
`ecgroups.cli.main` for `cli_corpus`). A check compares a job's result with
`plain`, which never calls the package under test.

Modules are looked up as attributes at call time (`count.bsgs_order`, not
a name bound at import), so a traced run sees the rebound wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from ecgroups import cli, count, curve, divpoly, field, point, structure, zeta

import plain
from plain import Fp, Fq, Weierstrass


class CheckFailed(Exception):
    pass


def expect(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# inputs shared by the workloads


class Inputs:
    """Input draws for one stream. `seen` is shared between the warm-up and
    the timed stream so that no two jobs get the same curve."""

    def __init__(self, rng: random.Random, seen: set):
        self.rng = rng
        self.seen = seen
        self.pools: dict = {}

    def prime(self, lo, hi, mod4=None):
        return plain.random_prime(self.rng, lo, hi, mod4)

    def pooled_prime(self, lo, hi, mod4=None, k=4):
        """A prime from a pool of k primes in [lo, hi), drawn once per stream.

        Used where the library keeps a per-prime cache (`count._chi_table`,
        `count.hasse_polynomial`) or a per-call O(p) buffer: with a small
        pool those caches fill within a few rounds, so peak memory does not
        grow with the number of jobs a run gets through."""
        key = ("pool", lo, hi, mod4, k)
        if key not in self.pools:
            self.pools[key] = [self.prime(lo, hi, mod4) for _ in range(k)]
        return self.rng.choice(self.pools[key])

    def curve(self, F, draw=None):
        """Coefficients of a fresh nonsingular curve over F.

        Over the tiniest fields (F_3 has 162 nonsingular models) a long run
        could use them all up; after 10^4 draws of seen curves a repeat is
        accepted rather than looping forever."""
        misses = 0
        while True:
            coeffs = draw() if draw else tuple(F.random(self.rng) for _ in range(5))
            key = (F.p, getattr(F, "mod", None), coeffs)
            if key in self.seen and misses < 10 ** 4:
                misses += 1
                continue
            if Weierstrass(F, coeffs).discriminant() == F.zero:
                continue
            self.seen.add(key)
            return coeffs

    def field(self, p, n):
        if n == 1:
            return Fp(p)
        return Fq(p, plain.random_irreducible(self.rng, p, n))

    def seed(self):
        return self.rng.randrange(2 ** 31)


def fdesc(F):
    return (F.p, getattr(F, "mod", None))


def unfield(desc):
    p, mod = desc
    return Fp(p) if mod is None else Fq(p, mod)


def lib_field(desc):
    p, mod = desc
    if mod is None:
        return field.FieldSpec(p)
    return field.FieldSpec(p, len(mod) - 1, mod)


def lib_curve(desc, coeffs):
    return curve.Curve.make(lib_field(desc), *coeffs)


def elt(e):
    """A library FieldElement as plain data (int or coefficient tuple)."""
    return e.coeffs[0] if len(e.coeffs) == 1 else tuple(e.coeffs)


def pt(P):
    return None if P.is_infinity else (elt(P.x), elt(P.y))


def check_rng(desc) -> random.Random:
    return random.Random(repr(desc))


def check_order(F, coeffs, N: int, desc, samples: int = 2):
    """N is #E(F_q): an exact plain count where that is cheap, else the
    Hasse window plus [N]P = O for points sampled apart from the library."""
    E = Weierstrass(F, coeffs)
    if (F.n == 1 and F.q <= 10 ** 6) or F.q <= 600:
        expect(N == E.count(), f"order {N} != plain count {E.count()}")
        return
    expect(plain.hasse_ok(N, F.q), f"order {N} outside the Hasse window of q={F.q}")
    rng = check_rng(desc)
    for _ in range(samples):
        P = E.sample_point(rng)
        expect(E.mul(N, P) is None, f"[N]P != O for N={N}, P={P}")


def check_structure(F, coeffs, gs, desc):
    q = F.q
    N, d, e = gs.N, gs.d, gs.e
    check_order(F, coeffs, N, desc)
    expect(d * d * e == N, f"N={N} != d^2 e with d={d}, e={e}")
    expect((q - 1) % d == 0, f"d={d} does not divide q-1")
    E = Weierstrass(F, coeffs)
    orders = [o for _P, o in gs.generators]
    expect(orders[0] == d * e, f"first generator order {orders[0]} != exponent {d * e}")
    expect(orders[1:] == ([d] if d > 1 else []), f"second generator orders {orders[1:]}")
    for P, o in gs.generators:
        expect(E.has_exact_order(pt(P), o), f"generator {pt(P)} does not have order {o}")


# ---------------------------------------------------------------------------
# prime_fields


def _pf_order_round(inp, lo, hi, mod4, kind):
    p = inp.prime(lo, hi, mod4)
    return kind, (p, inp.curve(Fp(p)), inp.seed())


def _pf_rp_curve(inp, lo, hi, mod4):
    """A curve where the random-point method has a point of order
    > 4 sqrt(p) with probability 1 - 1/ell per sample: N has a prime factor
    ell > 4 sqrt(p). Curves without one are legitimately undecidable by
    the method and are redrawn."""
    p = inp.prime(lo, hi, mod4)
    F = Fp(p)
    while True:
        coeffs = inp.curve(F)
        N = plain.count_fp(coeffs, p)
        if max(plain.factor(N)) > 4 * math.isqrt(p) + 4:
            return p, coeffs


def _pf_structure_curve(inp, lo, hi, mod4, pool: bool = True):
    """A curve whose group is certainly cyclic: no d > 1 with d | p - 1 and
    d^2 | N. Non-cyclic groups are left out. Their second generator is
    found by sampling points, 32 of them at least, so group_structure takes
    0.2 to 1 s on such a curve from p = 300 up (the exhaustive path below
    q = 2000 costs as much), and that wide spread, in the dearest slot of
    the round, moved p95 between runs. On Z_2 x Z_(2^k m) the search
    succeeds with probability about 2^-k per sample, so one such curve
    (p = 28607, N = 2^12 * 7) took 15 s."""
    p = inp.pooled_prime(lo, hi, mod4) if pool else inp.prime(lo, hi, mod4)
    F = Fp(p)
    while True:
        coeffs = inp.curve(F)
        N = plain.count_fp(coeffs, p)
        g = math.gcd(N, p - 1)
        if all(N % (ell * ell) for ell in plain.factor(g)):
            return p, coeffs


def prime_fields_round(inp: Inputs):
    """Twenty jobs in four tiers of cost. Eight cheap `scalar_mul` jobs
    (12 to 24 bits) sit below four 40-bit ones and eight dearer jobs above
    them, so the median job latency is the middle of the 40-bit
    `scalar_mul` tier; two 36-bit `bsgs_order` jobs (about 0.3 s) are the
    dearest, so p95 falls inside their tier."""
    jobs = []
    for bits in (12, 16, 20, 24, 40, 40):
        for strategy in ("binary", "naf"):
            p = inp.prime(2 ** (bits - 1), 2 ** bits, 3)
            coeffs = inp.curve(Fp(p))
            P = Weierstrass(Fp(p), coeffs).sample_point(inp.rng)
            k = inp.rng.randrange(2 ** (bits - 1), 2 ** bits)
            jobs.append(("scalar_mul", (p, coeffs, P, k, strategy)))
    # p = 1 mod 4 near 10^6: each square root builds and scans all p residues
    p = inp.pooled_prime(99 * 10 ** 4, 10 ** 6, 1, k=2)
    jobs.append(("bsgs_order", (p, inp.curve(Fp(p)), inp.seed())))
    jobs.append(_pf_order_round(inp, 2 ** 27, 2 ** 28, 3, "bsgs_order"))
    for lo, hi, mod4 in ((3 * 10 ** 3, 10 ** 4, 3), (10 ** 4, 3 * 10 ** 4, 1)):
        p, coeffs = _pf_rp_curve(inp, lo, hi, mod4)
        jobs.append(("order_via_random_point", (p, coeffs, inp.seed())))
    for lo, hi, mod4 in ((10 ** 4, 5 * 10 ** 4, 1), (10 ** 5, 3 * 10 ** 5, 3)):
        p, coeffs = _pf_structure_curve(inp, lo, hi, mod4)
        jobs.append(("group_structure", (p, coeffs, inp.seed())))
    for _ in range(2):
        jobs.append(_pf_order_round(inp, 2 ** 35, 2 ** 36, 3, "bsgs_order"))
    return jobs


def _pf_scalar_mul(desc):
    p, coeffs, (x, y), k, strategy = desc
    E = lib_curve((p, None), coeffs)
    return point.scalar_mul(k, point.Point.at(E, x, y), strategy)


def _pf_scalar_mul_check(desc, R):
    p, coeffs, P, k, _strategy = desc
    want = Weierstrass(Fp(p), coeffs).mul(k, P)
    expect(pt(R) == want, f"[{k}]P = {pt(R)}, plain gives {want}")


def _pf_count(fn):
    def run(desc):
        p, coeffs, seed = desc
        return fn(lib_curve((p, None), coeffs), seed)
    return run


def _pf_count_check(desc, res):
    p, coeffs, _seed = desc
    check_order(Fp(p), coeffs, res.N, desc)
    expect(res.t == p + 1 - res.N, "t != q + 1 - N")


def _pf_structure_check(desc, gs):
    p, coeffs, _seed = desc
    check_structure(Fp(p), coeffs, gs, desc)


PRIME_FIELDS = {
    "scalar_mul": (_pf_scalar_mul, _pf_scalar_mul_check),
    "bsgs_order": (_pf_count(lambda E, s: count.bsgs_order(E, s)), _pf_count_check),
    "order_via_random_point": (
        _pf_count(lambda E, s: count.order_via_random_point(E, s)), _pf_count_check),
    "group_structure": (
        _pf_count(lambda E, s: structure.group_structure(E, s)), _pf_structure_check),
}


# ---------------------------------------------------------------------------
# extension_fields


def _ordinary2(F, rng):
    """Char-2 ordinary draw: a1 != 0."""
    def draw():
        c = [F.random(rng) for _ in range(5)]
        if c[0] == F.zero:
            c[0] = F.one
        return tuple(c)
    return draw


def _supersingular2(F, rng):
    """Char-2 supersingular draw: a1 = 0 (j = 0)."""
    def draw():
        return (F.zero,) + tuple(F.random(rng) for _ in range(4))
    return draw


def _subfield(F, rng):
    """Coefficients in the prime subfield."""
    def draw():
        return tuple(F.elt(rng.randrange(F.p)) for _ in range(5))
    return draw


def _lucas_curve(inp, F):
    """A curve with coefficients in F_p. Over F_{7^4} the BSGS cost depends
    on the base trace: orders with a prime factor above 30 (t = ±1, ±5)
    take about 20 ms, the others (non-cyclic groups among them) up to 1 s.
    Such a slot would make throughput depend on how many dear curves a run
    draws, so it keeps the cheap class."""
    while True:
        coeffs = inp.curve(F, _subfield(F, inp.rng))
        if F.q != 7 ** 4:
            return coeffs
        base = tuple(c if isinstance(c, int) else c[0] for c in coeffs)
        if max(plain.factor(plain.lucas_orders(plain.trace_fp(base, 7), 7, 4)[-1])) > 30:
            return coeffs


def _twist_witness(F, rng):
    """A nonresidue (odd q) or an element of absolute trace 1 (q = 2^n)."""
    while True:
        w = F.random(rng)
        if F.p == 2:
            if plain.trace(F, w) == 1:
                return w
        elif plain.chi(F, w) == -1:
            return w


def _iso_pair(inp, F):
    E = inp.curve(F)
    rng = inp.rng
    while True:
        u = F.random(rng)
        if u != F.zero:
            break
    urst = (u, F.random(rng), F.random(rng), F.random(rng))
    return E, plain.transform(F, E, *urst)


def extension_fields_round(inp: Inputs):
    """Twenty-five jobs in four tiers of cost. Ten cheap jobs (under 35 ms)
    sit below five of about 45 ms and ten dearer ones above them, so the
    median job latency is the middle of that tier; the four brute-force
    counts over F_{3^6} (about 0.17 s) are the dearest, so p95 falls inside
    their tier."""
    rng = inp.rng
    jobs = []

    def curve(F, kind=None):
        draw = {"ord": _ordinary2, "ss": _supersingular2}.get(kind)
        return inp.curve(F, draw and draw(F, rng))

    def twist(p, n):
        F = inp.field(p, n)
        w = _twist_witness(F, rng)
        return "twist", (fdesc(F), curve(F, "ord" if p == 2 else None), w, inp.seed())

    # cheap tier
    for p, n in ((2, 3), (3, 2), (5, 2)):
        F = inp.field(p, n)
        jobs.append(("extension_orders", (fdesc(F), curve(F), rng.randrange(6, 13))))
    # isomorphism tests in characteristics 2 and 3 (the search over maps is
    # exhaustive: q^4 candidates, so the fields are tiny)
    for p, n in ((2, 2), (3, 1)):
        F = inp.field(p, n)
        E1, E2 = _iso_pair(inp, F)
        jobs.append(("isomorphism_test", (fdesc(F), E1, E2, True)))
    for p, n, kind in ((2, 6, "ord"), (5, 3, None)):
        F = inp.field(p, n)
        jobs.append(("brute_force_order", (fdesc(F), curve(F, kind))))
    jobs.append(twist(3, 4))
    F = inp.field(inp.prime(100, 150), 2)
    jobs.append(("bsgs_order", (fdesc(F), curve(F), inp.seed())))
    # orders over F_{p^n} of curves defined over F_p (Lucas lift)
    for p, n in ((5, 5), (7, 4)):
        F = inp.field(p, n)
        jobs.append(("lucas_lift", (fdesc(F), _lucas_curve(inp, F), inp.seed())))
    # median tier
    for _ in range(2):
        F = inp.field(3, 5)
        jobs.append(("brute_force_order", (fdesc(F), curve(F))))
    F = inp.field(2, 2)
    E1 = curve(F, "ord")
    E2 = _char2_twist(F, E1, _twist_witness(F, rng))
    jobs.append(("isomorphism_test", (fdesc(F), E1, E2, False)))
    jobs.append(twist(2, 6))
    # dear tier
    F = inp.field(2, 8)
    jobs.append(("bsgs_order", (fdesc(F), _ef_bsgs_curve(inp, F), inp.seed())))
    jobs.append(twist(2, 7))
    for p, n in ((3, 10), (5, 8)):
        F = inp.field(p, n)
        jobs.append(("bsgs_order", (fdesc(F), curve(F), inp.seed())))
    for p, n, kind in ((2, 5, "ss"), (3, 4, None)):
        F = inp.field(p, n)
        jobs.append(("group_structure", (fdesc(F), curve(F, kind), inp.seed())))
    # tail tier
    for _ in range(4):
        F = inp.field(3, 6)
        jobs.append(("brute_force_order", (fdesc(F), curve(F))))
    return jobs


def _ef_bsgs_curve(inp, F):
    """A supersingular char-2 curve whose order has a prime factor above
    4 sqrt(q) + 4, so that one random point of that order settles BSGS. On
    the other curves (N = 17^2, say) bsgs_order draws points, each a scan
    over all y, until their orders pin N down: over F_{2^8} up to 2.6 s
    against about 0.1 s, which made the cost of a run depend on how many
    such curves it drew. Over F_{2^10} even ordinary curves with such a
    factor cost one to six y-scans of about 0.27 s each, as the random
    points fall, so char-2 BSGS stops at F_{2^8}."""
    draw = _supersingular2(F, inp.rng)
    while True:
        coeffs = inp.curve(F, draw)
        N = Weierstrass(F, coeffs).count()
        if max(plain.factor(N)) > 4 * math.isqrt(F.q) + 4:
            return coeffs


def _char2_twist(F, coeffs, w):
    """Quadratic twist of an ordinary char-2 curve by w of trace 1, in plain
    arithmetic: move to a3 = a4 = 0 (r = a3/a1, t = (a4 + r^2)/a1), then add
    w a1^2 to a2."""
    m, a = F.mul, F.add
    a1, _a2, a3, a4, _a6 = coeffs
    r = m(a3, F.inv(a1))
    t = m(a(a4, m(r, r)), F.inv(a1))
    n1, n2, n3, n4, n6 = plain.transform(F, coeffs, F.one, r, F.zero, t)
    return (n1, a(n2, m(w, m(n1, n1))), n3, n4, n6)


def _ef_count(fn):
    def run(desc):
        fd, coeffs = desc[0], desc[1]
        return fn(lib_curve(fd, coeffs), *desc[2:])
    return run


def _ef_count_check(desc, res):
    F = unfield(desc[0])
    check_order(F, desc[1], res.N, desc)
    expect(res.t == F.q + 1 - res.N, "t != q + 1 - N")


def _ef_structure_check(desc, gs):
    check_structure(unfield(desc[0]), desc[1], gs, desc)


def _ef_twist(desc):
    fd, coeffs, w, seed = desc
    E = lib_curve(fd, coeffs)
    Et = curve.quadratic_twist(E, E.field(w))
    return ([elt(c) for c in Et.coefficients()],
            structure.curve_order(E, seed).N, structure.curve_order(Et, seed).N)


def _ef_twist_check(desc, res):
    fd, coeffs, _w, _seed = desc
    F = unfield(fd)
    twist_coeffs, N1, N2 = res
    expect(N1 + N2 == 2 * F.q + 2, f"twist orders {N1} + {N2} != 2q + 2")
    check_order(F, coeffs, N1, desc)
    check_order(F, tuple(twist_coeffs), N2, (desc, "twist"))


def _ef_iso(desc):
    fd, c1, c2, _iso = desc
    return curve.isomorphism_test(lib_curve(fd, c1), lib_curve(fd, c2))


def _ef_iso_check(desc, m):
    fd, c1, c2, iso = desc
    F = unfield(fd)
    if not iso:
        expect(Weierstrass(F, c1).count() != Weierstrass(F, c2).count(),
               "non-isomorphic pair must differ in order")
        expect(m is None, "map returned between non-isomorphic curves")
        return
    expect(m is not None, "no map found between isomorphic curves")
    urst = [elt(v) for v in (m.u, m.r, m.s, m.t)]
    expect(plain.transform(F, c1, *urst) == tuple(c2), "returned map does not carry E to E'")


def _ef_lucas(desc):
    fd, coeffs, seed = desc
    return count.bsgs_order(lib_curve(fd, coeffs), seed)


def _ef_lucas_check(desc, res):
    fd, coeffs, _seed = desc
    F = unfield(fd)
    base = tuple(c if isinstance(c, int) else c[0] for c in coeffs)
    t = plain.trace_fp(base, F.p)
    want = plain.lucas_orders(t, F.p, F.n)[-1]
    expect(res.N == want, f"order {res.N} over F_{F.q} != Lucas lift {want}")


def _ef_ext_orders(desc):
    fd, coeffs, upto = desc
    E = lib_curve(fd, coeffs)
    rows = count.extension_orders(E, upto)
    counts = zeta.zeta_series_expand(zeta.lpoly_of_curve(E), upto)
    return rows, counts


def _ef_ext_orders_check(desc, res):
    fd, coeffs, upto = desc
    F = unfield(fd)
    rows, counts = res
    t = F.q + 1 - Weierstrass(F, coeffs).count()
    want = plain.lucas_orders(t, F.q, upto)
    expect([r[2] for r in rows] == want, "extension_orders differ from the Lucas lift")
    expect([r[0] for r in rows] == list(range(1, upto + 1)), "row indices")
    expect(list(counts) == want, "zeta expansion differs from the Lucas lift")


EXTENSION_FIELDS = {
    "brute_force_order": (_ef_count(lambda E: count.brute_force_order(E)), _ef_count_check),
    "bsgs_order": (_ef_count(lambda E, s: count.bsgs_order(E, s)), _ef_count_check),
    "group_structure": (
        _ef_count(lambda E, s: structure.group_structure(E, s)), _ef_structure_check),
    "twist": (_ef_twist, _ef_twist_check),
    "isomorphism_test": (_ef_iso, _ef_iso_check),
    "lucas_lift": (_ef_lucas, _ef_lucas_check),
    "extension_orders": (_ef_ext_orders, _ef_ext_orders_check),
}


# ---------------------------------------------------------------------------
# census_zeta


def _small_model(rng):
    return (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4),
            rng.randrange(-40, 41), rng.randrange(-40, 41))


def _fresh_model(inp, clean_to=None):
    """A new integer model. With `clean_to`, no bad prime lies between 8 and
    `clean_to`: reducing at a bad prime p runs the O(p^2) singular-point scan
    (curve._singular_point), so one bad prime of 131 below an l-series length
    of 150 makes that job cost 0.8 s against 13 ms for a clean model."""
    while True:
        model = _small_model(inp.rng)
        disc = plain.integer_discriminant(model)
        if disc == 0 or ("model", model) in inp.seen:
            continue
        if clean_to and any(7 < q <= clean_to for q in plain.factor(disc)):
            continue
        inp.seen.add(("model", model))
        return model


def census_zeta_round(inp: Inputs):
    """Sixteen jobs in four tiers of cost. Seven cheap jobs (under 15 ms)
    sit below the two `l_series` jobs (about 28 ms) and seven dearer ones
    (over 40 ms) above them, so the median job latency is the middle of
    the `l_series` tier; the two `angle_supersingular` jobs (about 230 ms)
    are the dearest, so p95 falls inside that tier. Sizes are fixed per
    slot, or drawn from a narrow prime range, so that a job's cost depends
    little on the seed."""
    rng = inp.rng
    jobs = []
    # cheap tier
    for lo, hi in ((100, 500), (500, 1000), (1000, 2000)):
        p = inp.pooled_prime(lo, hi, k=6)
        while True:
            beta = rng.randrange(2, p)
            if ("legendre", p, beta) not in inp.seen:
                inp.seen.add(("legendre", p, beta))
                break
        jobs.append(("manin", (p, beta)))
    jobs.append(("enumerate_short_curves", inp.prime(5, 14)))
    for lo, hi in ((20, 30), (30, 40)):
        jobs.append(("trace_frequency", inp.prime(lo, hi)))
    jobs.append(_cz_torsion_job(inp, 30, 50, 3))
    # median tier
    for _ in range(2):
        jobs.append(("l_series", (_fresh_model(inp, clean_to=250), 250)))
    # dear tier
    jobs.append(("enumerate_short_curves", inp.prime(30, 40)))
    jobs.append(("trace_frequency", inp.prime(80, 100)))
    jobs.append(("angle_model", (_fresh_model(inp), 800)))
    jobs.append(_cz_torsion_job(inp, 80, 120, 6))
    jobs.append(_cz_torsion_job(inp, 150, 200, 7))
    # tail tier
    for _ in range(2):
        while True:
            b = rng.randrange(1, 10 ** 4)
            if ("model", (0, 0, 0, 0, b)) not in inp.seen:
                inp.seen.add(("model", (0, 0, 0, 0, b)))
                break
        jobs.append(("angle_supersingular", (b, 3000)))
    return jobs


def _cz_torsion_job(inp, lo, hi, n):
    p = inp.prime(lo, hi)
    rng = inp.rng
    coeffs = inp.curve(Fp(p), lambda: (0, 0, 0, rng.randrange(p), rng.randrange(p)))
    return "torsion", (p, coeffs[3], coeffs[4], n)


def _cz_classes_check(p, census):
    expect(census["total_nonsingular"] == p * p - p, "census total != q^2 - q")
    sizes = [len(c) for c in census["classes"]]
    expect(sum(sizes) == p * p - p, "class sizes do not add up to q^2 - q")
    expect(all((p - 1) % s == 0 for s in sizes), "a class size does not divide q - 1")
    extra = {1: 6, 5: 2, 7: 4, 11: 0}[p % 12]
    expect(census["class_count"] == 2 * p + extra, f"class count != 2q + {extra}")
    expect(len(census["classes"]) == census["class_count"], "class_count != len(classes)")


def _cz_trace_check(p, counts):
    expect(sum(counts.values()) == p * p - p, "trace counts do not add up to q^2 - q")
    expect(all(counts.get(-t) == c for t, c in counts.items()), "trace counts not symmetric")
    expect(all(t * t <= 4 * p for t in counts), "trace outside the Hasse bound")


def _good_primes(model, limit):
    disc = plain.integer_discriminant(model)
    return [p for p in plain.primes_below(limit) if disc % p]


def _check_angles(model, limit, out):
    good = _good_primes(model, limit)
    samples = out["samples"]
    expect([s.index for s in samples] == good, "sampled primes != good primes")
    expect(out["skipped_singular"] == len(plain.primes_below(limit)) - len(good),
           "skipped count != bad primes")
    expect(sum(out["histogram"]) == len(samples), "histogram mass != sample count")
    for s in samples:
        expect(0.0 <= s.theta <= math.pi and s.a * s.a <= 4 * s.index, "angle out of range")


def _cz_angle_ss_check(desc, out):
    b, limit = desc
    model = (0, 0, 0, 0, b)
    _check_angles(model, limit, out)
    ss = {s.index for s in out["samples"] if s.a == 0}
    want = {p for p in _good_primes(model, limit) if p % 3 == 2}
    expect(ss == want, "supersingular primes != good p = 2 mod 3")


def _cz_angle_model_check(desc, out):
    model, limit = desc
    _check_angles(model, limit, out)
    rng = check_rng(desc)
    for s in rng.sample(out["samples"], min(30, len(out["samples"]))):
        expect(s.a == plain.trace_fp(model, s.index), f"a_{s.index} != plain count")


def _cz_l_series_check(desc, a):
    model, nmax = desc
    expect(len(a) == nmax and a[0] == 1, "a_1 != 1 or wrong length")
    for p in plain.primes_below(nmax):
        expect(a[p - 1] == plain.trace_fp(model, p), f"a_{p} != plain count")
    for m in range(2, nmax + 1):
        for n in range(m + 1, nmax // m + 1):
            if math.gcd(m, n) == 1:
                expect(a[m * n - 1] == a[m - 1] * a[n - 1], f"a_{m * n} != a_{m} a_{n}")


def _cz_torsion(desc):
    p, a, b, n = desc
    E = curve.Curve.short(field.FieldSpec(p), a, b)
    d = divpoly.division_polynomial(E, n)
    pts = divpoly.torsion_points(E, n)
    return [elt(c) for c in d.torsion_poly.coeffs], {pt(P) for P in pts}


def _cz_torsion_check(desc, res):
    p, a, b, n = desc
    coeffs, pts = res
    F = Fp(p)
    roots = {x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0}
    rng = check_rng(desc)
    E = Weierstrass(F, (0, 0, 0, a, b))
    rational = {P for x in range(p) for y in E.ys_at(x, rng) for P in [(x, y)]
                if E.mul(n, P) is None}
    expect(pts == rational, "torsion points != plain n-torsion of E(F_p)")
    # points over F_{p^2} with y not in F_p show up on the quadratic twist
    # E_d: Y^2 = X^3 + a d^2 X + b d^3 via (x, y) -> (d x, d^2 y / sqrt(d))
    dd = next(z for z in range(2, p) if plain.chi(F, z) == -1)
    Et = Weierstrass(F, (0, 0, 0, a * dd * dd % p, b * dd ** 3 % p))
    inv = pow(dd, -1, p)
    twisted = {X * inv % p for X in range(p) for Y in Et.ys_at(X, rng)
               if Et.mul(n, (X, Y)) is None}
    expect(roots == {x for x, _y in rational} | twisted,
           "roots of f_n != x-coordinates of n-torsion")


def _cz_manin_check(desc, residue):
    p, beta = desc
    model = (0, -(1 + beta), 0, beta, 0)  # y^2 = x(x-1)(x-beta)
    expect(residue == plain.trace_fp(model, p) % p, "H_p(beta) != a_p mod p")


CENSUS_ZETA = {
    "enumerate_short_curves": (
        lambda p: curve.enumerate_short_curves(field.FieldSpec(p)), _cz_classes_check),
    "trace_frequency": (lambda p: zeta.trace_frequency(p), _cz_trace_check),
    "angle_supersingular": (
        lambda d: zeta.angle_sequence((0, 0, 0, 0, d[0]), "vary_prime", d[1]),
        _cz_angle_ss_check),
    "angle_model": (lambda d: zeta.angle_sequence(d[0], "vary_prime", d[1]),
                    _cz_angle_model_check),
    "l_series": (lambda d: zeta.curve_l_series(d[0], d[1]), _cz_l_series_check),
    "torsion": (_cz_torsion, _cz_torsion_check),
    "manin": (lambda d: count.manin_trace(field.FieldSpec(d[0])(d[1]), d[0]),
              _cz_manin_check),
}


# ---------------------------------------------------------------------------
# cli_corpus

_CM_DISCRIMINANTS = (-7, -8, -11, -19, -43, -67, -163)


def _cs(coeffs) -> str:
    """Curve coefficients in CLI syntax; extension elements as c0:c1:..."""
    return ",".join(":".join(map(str, c)) if isinstance(c, tuple) else str(c) for c in coeffs)


def _fs(F) -> str:
    if F.n == 1:
        return f"p={F.p}"
    return f"p={F.p};n={F.n};mod={_cs(F.mod)}"


def _rep_4p(d: int, p: int):
    """(t, u) with 4p = t^2 + |d| u^2 and t, u > 0, by search; or None."""
    u = 1
    while -d * u * u < 4 * p:
        t2 = 4 * p + d * u * u
        t = math.isqrt(t2)
        if t * t == t2 and t > 0:
            return t, u
        u += 1
    return None


def cli_corpus_round(inp: Inputs):
    """Twenty-eight calls in four tiers of cost. Twelve cost 4-6 ms, most of
    it the parser build; four cost about 15 ms (`torsion`, `zeta` over
    F_{2^5}, `lseries` and `census`), the median tier; eleven cost 20-70 ms,
    and `angles --mode vary_prime --limit 1000` (about 90 ms) is the dearest
    call of every round, so p98 falls inside its tier."""
    rng = inp.rng
    jobs = []

    def curve_args(F, coeffs):
        return ["--field", _fs(F), "--curve", _cs(coeffs)]

    def mid_curve(lo=1000, hi=5000):
        F = Fp(inp.pooled_prime(lo, hi, k=12))
        return F, inp.curve(F)

    F, c = mid_curve()
    jobs.append(("cli", (("info", *curve_args(F, c)), "info", (fdesc(F), c))))
    F, c = mid_curve()
    jobs.append(("cli", (("count", *curve_args(F, c)), "count", (fdesc(F), c))))
    for _ in range(2):
        p, c = _pf_rp_curve(inp, 1000, 5000, None)
        jobs.append(("cli", (("--seed", str(inp.seed()), "count", *curve_args(Fp(p), c),
                              "--method", "random"), "count", ((p, None), c))))
        F, c = mid_curve(10 ** 4, 10 ** 5)
        jobs.append(("cli", (("--seed", str(inp.seed()), "count", *curve_args(F, c),
                              "--method", "bsgs"), "count", (fdesc(F), c))))
    F = Fp(inp.prime(1000, 5000))
    c = inp.curve(F, lambda: (0, 0, 0, rng.randrange(1, F.p), 0))
    jobs.append(("cli", (("count", *curve_args(F, c), "--method", "closed"), "count",
                         (fdesc(F), c))))
    F, c = mid_curve()
    n = rng.randrange(2, 9)
    jobs.append(("cli", (("count", *curve_args(F, c), "--method", "lucas", "--n", str(n)),
                         "lucas", (fdesc(F), c, n))))
    for kind in ("structure", "primitive") * 2:
        p, c = _pf_structure_curve(inp, 50, 120, None, pool=False)
        F = Fp(p)
        jobs.append(("cli", (("--seed", str(inp.seed()), kind, *curve_args(F, c)), kind,
                             (fdesc(F), c))))
    F = Fp(inp.prime(50, 150))
    c = inp.curve(F, lambda: (0, 0, 0, rng.randrange(F.p), rng.randrange(F.p)))
    jobs.append(("cli", (("torsion", *curve_args(F, c), "--n", "4"), "torsion",
                         (fdesc(F), c, 4))))
    F, c = mid_curve()
    jobs.append(("cli", (("twist", *curve_args(F, c)), "twist", (fdesc(F), c))))
    for _ in range(2):
        q = inp.prime(11, 40)
        jobs.append(("cli", (("classes", "--q", str(q)), "classes", q)))
    F, c = mid_curve()
    K = rng.randrange(10, 30)
    m = rng.randrange(0, F.p // K - 1)
    jobs.append(("cli", (("encode", *curve_args(F, c), "--m", str(m), "--K", str(K)),
                         "encode", (fdesc(F), c, m, K))))
    F, c = mid_curve()
    E = Weierstrass(F, c)
    while True:
        m = rng.randrange(0, F.p // K - 1)
        xs = [x for x in range(m * K, m * K + K) if E.ys_at(x, rng)]
        if xs:
            x = rng.choice(xs)
            P = (x, rng.choice(E.ys_at(x, rng)))
            break
    jobs.append(("cli", (("decode", *curve_args(F, c), "--point", f"({P[0]},{P[1]})",
                          "--K", str(K)), "decode", m)))
    p = inp.prime(50, 100)
    F = Fp(p)
    orders = {}
    for a in range(1, p):
        if plain.integer_discriminant((0, 0, 0, a, -a)) % p:
            N = plain.count_fp((0, 0, 0, a, -a), p)
            orders[N] = orders.get(N, 0) + 1
            orders[2 * p + 2 - N] = orders.get(2 * p + 2 - N, 0) + 1
    # an order that many curves of the family y^2 = x^3 + ax - a attain, so
    # the randomized search ends soon and never runs out of trials
    most = max(orders.values())
    N = rng.choice(sorted(N for N, k in orders.items() if k == most))
    jobs.append(("cli", (("--seed", str(inp.seed()), "construct", "--field", f"p={p}",
                          "--N", str(N)), "construct", (p, N))))
    while True:
        d, p = rng.choice(_CM_DISCRIMINANTS), inp.prime(1000, 5000)
        if _rep_4p(d, p) and ("cm", d, p) not in inp.seen:
            inp.seen.add(("cm", d, p))
            break
    jobs.append(("cli", (("cm", "--d", str(d), "--p", str(p)), "cm", (d, p))))
    while True:
        F, c = mid_curve()
        N = Weierstrass(F, c).count()
        rs = [r for r in plain.factor(N) if r != F.p and r > 2]
        if rs:
            break
    r = rng.choice(rs)
    jobs.append(("cli", (("embed", *curve_args(F, c), "--r", str(r)), "embed",
                         (fdesc(F), c, r))))
    F, c = mid_curve()
    jobs.append(("cli", (("lint", *curve_args(F, c)), "lint", (fdesc(F), c))))
    # zeta over F_1601 fails on every curve: LPolynomial's symmetry check
    # compares with the float q ** -1, and 1601 * 1601 ** -1 != 1.0. The
    # field is fixed so that this one call per round fails in every run.
    # Over F_{2^n} the float 2^-n is exact, so the second call succeeds and
    # is checked.
    for F, n in ((Fp(1601), rng.randrange(4, 12)), (inp.field(2, 5), 8)):
        c = inp.curve(F)
        jobs.append(("cli", (("zeta", *curve_args(F, c), "--nmax", str(n)), "zeta",
                             (fdesc(F), c, n))))
    n = 80
    model = _fresh_model(inp, clean_to=n)
    jobs.append(("cli", (("lseries", f"--curve={_cs(model)}", "--nmax", str(n)), "lseries",
                         (model, n))))
    model, limit = _fresh_model(inp), 1000
    jobs.append(("cli", (("angles", f"--curve={_cs(model)}", "--mode", "vary_prime",
                          "--limit", str(limit)), "angles_prime", (model, limit))))
    F, c = mid_curve()
    limit = rng.randrange(20, 60)
    jobs.append(("cli", (("angles", *curve_args(F, c), "--mode", "vary_degree",
                          "--limit", str(limit)), "angles_degree", limit)))
    q = inp.prime(37, 44)
    jobs.append(("cli", (("census", "--q", str(q)), "census", q)))
    return jobs


class CliExit(Exception):
    """A CLI call that exited nonzero: a failed operation."""


def _run_cli(desc):
    argv = list(desc[0])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CliExit(f"exit code {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _parse_point(F, text):
    if text == "inf":
        return None
    xs, ys = text.strip("()").split(",")
    return (F.parse(xs), F.parse(ys))


def _parse_curve(text):
    """`p=..[;n=..;mod=..]|a1,...,a6` as (F, coeffs)."""
    fpart, cpart = text.split("|")
    kv = dict(item.split("=") for item in fpart.split(";"))
    p = int(kv["p"])
    F = Fp(p) if "mod" not in kv else Fq(p, tuple(int(c) for c in kv["mod"].split(",")))
    return F, tuple(F.parse(c) for c in cpart.split(","))


def _cli_info(ctx, out):
    fd, c = ctx
    F = unfield(fd)
    E = Weierstrass(F, c)
    delta = E.discriminant()
    expect(F.parse(out["delta"]) == delta, "delta != plain discriminant")
    a1, a2, a3, a4, _a6 = (F.elt(v) for v in c)
    m, a, s = F.mul, F.add, F.sub
    b2 = a(m(a1, a1), m(F.elt(4), a2))
    b4 = a(m(F.elt(2), a4), m(a1, a3))
    c4 = s(m(b2, b2), m(F.elt(24), b4))
    expect(F.parse(out["b2"]) == b2 and F.parse(out["c4"]) == c4, "b2/c4 != plain")
    j = m(m(m(c4, c4), c4), F.inv(delta))
    expect(F.parse(out["j"]) == j, "j != c4^3 / delta")
    expect(out["singular_kind"] == "nonsingular", "nonsingular curve reported singular")


def _cli_count(ctx, out):
    fd, c = ctx
    F = unfield(fd)
    check_order(F, c, out["N"], ctx)
    expect(out["t"] == F.q + 1 - out["N"], "t != q + 1 - N")


def _cli_lucas(ctx, out):
    fd, c, n = ctx
    F = unfield(fd)
    t = F.q + 1 - Weierstrass(F, c).count()
    expect(out["N"] == plain.lucas_orders(t, F.q, n)[-1], "lucas N != plain lift")
    expect(out["N"] == F.q ** n + 1 - out["V"], "N != q^n + 1 - V")


def _cli_structure(ctx, out):
    fd, c = ctx
    F = unfield(fd)
    E = Weierstrass(F, c)
    N, d, e = out["N"], out["d"], out["e"]
    expect(N == E.count() and d * d * e == N and (F.q - 1) % d == 0, "structure invariants")
    gens = [(_parse_point(F, g["point"]), g["order"]) for g in out["generators"]]
    expect([o for _P, o in gens] == [d * e] + ([d] if d > 1 else []), "generator orders")
    for P, o in gens:
        expect(E.has_exact_order(P, o), f"generator {P} does not have order {o}")


def _cli_primitive(ctx, out):
    fd, c = ctx
    F = unfield(fd)
    E = Weierstrass(F, c)
    P, o = _parse_point(F, out["point"]), out["order"]
    expect(E.has_exact_order(P, o), f"point {P} does not have order {o}")
    expect(out["cyclic"] == (o == E.count()), "cyclic flag disagrees with the order")


def _cli_torsion(ctx, out):
    fd, c, n = ctx
    F = unfield(fd)
    E = Weierstrass(F, c)
    got = {_parse_point(F, s) for s in out["points"]}
    rng = check_rng(ctx)
    want = {(x, y) for x in range(F.p) for y in E.ys_at(x, rng) if E.mul(n, (x, y)) is None}
    expect(got == want, "torsion points != plain n-torsion")


def _cli_twist(ctx, out):
    fd, c = ctx
    F = unfield(fd)
    Ft, ct = _parse_curve(out["curve"])
    expect(Ft.q == F.q, "twist over another field")
    N1, N2 = Weierstrass(F, c).count(), Weierstrass(Ft, ct).count()
    expect(N1 + N2 == 2 * F.q + 2, "twist orders do not sum to 2q + 2")
    expect(plain.chi(F, F.parse(out["witness"])) == -1, "witness is a square")


def _cli_encode(ctx, out):
    fd, c, m, K = ctx
    F = unfield(fd)
    P = _parse_point(F, out["point"])
    expect(Weierstrass(F, c).contains(P), "encoded point is not on the curve")
    expect(P[0] // K == m, "decode(encode(m)) != m")


def _cli_construct(ctx, out):
    p, N = ctx
    F, c = _parse_curve(out["curve"])
    expect(F.p == p and out["N"] == N, "construct echoed wrong field or N")
    expect(Weierstrass(F, c).count() == N, "constructed curve has the wrong order")


def _cli_cm(ctx, out):
    d, p = ctx
    t, _u = _rep_4p(d, p)
    F, c = _parse_curve(out["curve"])
    expect(out["t"] == t and out["N"] == p + 1 - t, "CM order != p + 1 - t")
    expect(Weierstrass(F, c).count() == out["N"], "CM curve has the wrong order")


def _cli_embed(ctx, out):
    fd, c, r = ctx
    F = unfield(fd)
    k = plain.mult_order(F.q % r, r)
    expect(out["r"] == r and out["k"] == k, f"embedding degree {out['k']} != {k}")
    expect(out["is_weak"] == (k < math.log2(F.q) ** 2), "is_weak flag")


def _cli_lint(ctx, out):
    fd, c = ctx
    F = unfield(fd)
    N = Weierstrass(F, c).count()
    fac = {int(k): v for k, v in out["factors"].items()}
    expect(out["N"] == N and out["t"] == F.q + 1 - N, "lint N/t != plain count")
    expect(fac == plain.factor(N), "lint factors != factorization of N")
    expect(("anomalous" in out["flags"]) == (N == F.q), "anomalous flag")
    expect(("supersingular" in out["flags"]) == (out["t"] % F.p == 0), "supersingular flag")
    expect(("smooth_order" in out["flags"]) == (max(fac) < 2 ** 16), "smooth flag")


def _cli_zeta(ctx, out):
    fd, c, n = ctx
    F = unfield(fd)
    t = F.q + 1 - Weierstrass(F, c).count()
    expect(out["L"] == [1, -t, F.q], "L-polynomial != 1 - tT + qT^2")
    expect(out["counts"] == plain.lucas_orders(t, F.q, n), "zeta counts != Lucas lift")


def _cli_lseries(ctx, out):
    _cz_l_series_check(ctx, out["a"])


def _cli_angles_prime(ctx, out):
    model, limit = ctx
    good = _good_primes(model, limit)
    expect(out["samples"] == len(good), "sample count != good primes")
    expect(out["skipped_singular"] == len(plain.primes_below(limit)) - len(good), "skipped")
    expect(sum(out["histogram"]) == len(good), "histogram mass")


def _cli_angles_degree(limit, out):
    expect(out["samples"] == limit and sum(out["histogram"]) == limit, "vary_degree samples")


CLI_CHECKS = {
    "info": _cli_info, "count": _cli_count, "lucas": _cli_lucas,
    "structure": _cli_structure, "primitive": _cli_primitive, "torsion": _cli_torsion,
    "twist": _cli_twist, "classes": lambda q, out: _cz_classes_check(q, {
        "total_nonsingular": out["total_nonsingular"], "class_count": out["class_count"],
        "classes": [[None] * s for s in out["class_sizes"]]}),
    "encode": _cli_encode, "decode": lambda m, out: expect(out["m"] == m, "decode != m"),
    "construct": _cli_construct, "cm": _cli_cm, "embed": _cli_embed, "lint": _cli_lint,
    "zeta": _cli_zeta, "lseries": _cli_lseries, "angles_prime": _cli_angles_prime,
    "angles_degree": _cli_angles_degree,
    "census": lambda q, out: _cz_trace_check(q, {int(t): c for t, c in out["counts"].items()}),
}


def _cli_check(desc, text):
    _argv, name, ctx = desc
    CLI_CHECKS[name](ctx, json.loads(text))


CLI_CORPUS = {"cli": (_run_cli, _cli_check)}


# ---------------------------------------------------------------------------

WORKLOADS = {
    "prime_fields": (prime_fields_round, PRIME_FIELDS),
    "extension_fields": (extension_fields_round, EXTENSION_FIELDS),
    "census_zeta": (census_zeta_round, CENSUS_ZETA),
    "cli_corpus": (cli_corpus_round, CLI_CORPUS),
}

"""Point counting: brute force, random point, BSGS, Lucas, closed forms,
the coefficient-polynomial congruence for the Legendre family."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups.count import (
    LucasState,
    brute_force_order,
    bsgs_order,
    closed_form_order,
    cornacchia,
    curve_order,
    extension_orders,
    hasse_polynomial,
    hasse_window,
    is_supersingular,
    manin_ap,
    manin_trace,
    order_via_random_point,
    twist_order_check,
)
from ecgroups import count, intutil
from ecgroups.curve import Curve, is_nonsingular, odd_char_even_form
from ecgroups.errors import AllPointsSmallOrder, BadBeta, EcgroupsError
from ecgroups.field import FieldSpec, quadratic_character
from ecgroups.poly import Poly

# y^2 + y = x^3 over F_{2^n}: orders for n = 1..15, a doubly verified table
EX_CHAR2_TOWER = [3, 9, 9, 9, 33, 81, 129, 225, 513, 1089,
                  2049, 3969, 8193, 16641, 32769]
# y^2 = x^3 + x over F_{5^n}: orders for n = 1..10
EX_CHAR5_TOWER = [4, 32, 148, 640, 3044, 15392, 78068, 391680,
                  1955524, 9765152]


def test_hasse_window():
    for q in (5, 13, 101, 2 ** 16 + 1):
        lo, hi = hasse_window(q)
        s = math.isqrt(4 * q)
        assert (lo, hi) == (q + 1 - s, q + 1 + s)


def test_golden_orders_f13(F13):
    for (a, b), want in [((0, 2), 19), ((0, 3), 9), ((6, 11), 15)]:
        r = brute_force_order(Curve.short(F13, F13(a), F13(b)))
        assert (r.N, r.t) == (want, 14 - want)
        assert r.hasse_ok


def test_brute_force_extension_field(F8, F9):
    E = Curve.make(F8, 0, 0, 1, 0, 0)  # y^2 + y = x^3 over F_8
    assert brute_force_order(E).N == 9
    E9 = Curve.short(F9, F9.one(), F9.zero())
    lo, hi = hasse_window(9)
    assert lo <= brute_force_order(E9).N <= hi


def test_methods_agree_small():
    rng = random.Random(7)
    f = FieldSpec(101)
    for _ in range(25):
        E = Curve.short(f, f(rng.randrange(101)), f(rng.randrange(101)))
        if not is_nonsingular(E):
            continue
        want = brute_force_order(E).N
        assert bsgs_order(E, 0).N == want
        try:
            assert order_via_random_point(E, 0).N == want
        except AllPointsSmallOrder:
            pass  # legitimate when the exponent is below 4*sqrt(q)
    assert True


def test_sampling_methods_raise_when_no_affine_point():
    """E(F_q) = {O} needs q + 1 - 2 sqrt(q) <= 1, so q <= 4: 2 long-form
    models over F_2, 9 over F_3 and 8 over F_4. No point can be drawn on
    them, so both sampling methods raise instead of drawing for ever."""
    models = []
    for f in (FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, (1, 1, 1))):
        for a in itertools.product(list(f.elements()), repeat=5):
            E = Curve(f, *a)
            if is_nonsingular(E) and brute_force_order(E).N == 1:
                models.append(E)
    assert len(models) == 19
    for E in models:
        for method in (bsgs_order, order_via_random_point):
            with pytest.raises(AllPointsSmallOrder):
                method(E, 0)


def test_bsgs_reports_ops(F13):
    E = Curve.short(F13, F13(6), F13(11))
    r = bsgs_order(E, 0)
    assert r.method == "bsgs" and r.ops is not None and r.ops > 0


def test_bsgs_ops_counts_adds(monkeypatch):
    """OrderResult.ops equals the group additions bsgs_order makes, counted
    by wrapping add where count and scalar_mul look it up. point_order's
    ladders in the lcm fallback are not BSGS steps and stay uncounted."""
    from ecgroups import count, point

    calls = {"n": 0, "on": True}

    def counted(fn):
        def wrapper(P, Q):
            calls["n"] += calls["on"]
            return fn(P, Q)
        return wrapper

    def uncounted(fn):
        def wrapper(*args):
            calls["on"] = False
            try:
                return fn(*args)
            finally:
                calls["on"] = True
        return wrapper

    monkeypatch.setattr(point, "add", counted(point.add))
    monkeypatch.setattr(count, "add", counted(count.add))
    monkeypatch.setattr(count, "point_order", uncounted(count.point_order))
    rng = random.Random(4)
    for p in (13, 101, 1009):
        f = FieldSpec(p)
        for seed in range(10):
            E = Curve.short(f, f(rng.randrange(p)), f(rng.randrange(p)))
            if not is_nonsingular(E):
                continue
            calls["n"] = 0
            assert bsgs_order(E, seed).ops == calls["n"]


F2_17 = FieldSpec(2, 17, (1, 0, 0, 1) + (0,) * 13 + (1,))  # x^17 + x^3 + 1


@pytest.mark.parametrize("coeffs", [(1, 0, 0, 0, 1), (1, 1, 0, 0, 1), (0, 0, 1, 0, 0)])
def test_bsgs_over_f2_17_matches_lucas(coeffs):
    """Sampling solves for y by the trace, so BSGS reaches F_{2^17}; the
    Lucas lift of the F_2 count is the independent check."""
    want = extension_orders(Curve.make(FieldSpec(2), *coeffs), 17)[-1][2]
    assert bsgs_order(Curve.make(F2_17, *coeffs), 0).N == want


def test_curve_order_over_f1009_2_matches_lucas():
    """q = 1009^2 lies above the brute-force bound of every field, so
    curve_order runs BSGS; the Lucas lift of the F_1009 count checks it."""
    coeffs = (0, 0, 0, 2, 3)
    want = extension_orders(Curve.make(FieldSpec(1009), *coeffs), 2)[-1][2]
    res = curve_order(Curve.make(FieldSpec(1009, 2, (-11, 0, 1)), *coeffs))
    assert (res.method, res.N) == ("bsgs", want)


def test_lucas_replication_and_tower_char2():
    f2 = FieldSpec(2)
    E = Curve.make(f2, 0, 0, 1, 0, 0)  # y^2 + y = x^3
    got = extension_orders(E, 15)  # (n, V_n, N_n) triples
    assert [N for (_n, _v, N) in got] == EX_CHAR2_TOWER
    # divisibility: N_m | N_n whenever m | n
    for m in range(1, 16):
        for n in range(m, 16, m):
            assert got[n - 1][2] % got[m - 1][2] == 0


def test_lucas_tower_char5(F5):
    E = Curve.short(F5, F5.one(), F5.zero())
    got = extension_orders(E, 10)
    assert [N for (_n, _v, N) in got] == EX_CHAR5_TOWER
    assert EX_CHAR5_TOWER[3] == 2 ** 7 * 5
    assert EX_CHAR5_TOWER[9] == 2 ** 5 * 401 * 761


def test_lucas_state_direct():
    st5 = LucasState.build(2, 5, 10)
    assert st5.V[0] == 2 and st5.V[1] == 2
    for n in range(2, 11):
        assert st5.V[n] == 2 * st5.V[n - 1] - 5 * st5.V[n - 2]


def test_closed_form_j0_inert_case(F5):
    # q = 2 mod 3: y^2 = x^3 + b always has q + 1 points
    for b in range(1, 5):
        r = closed_form_order(Curve.short(F5, F5(0), F5(b)))
        assert r is not None and r.N == 6
        assert brute_force_order(Curve.short(F5, F5(0), F5(b))).N == 6


def test_closed_form_j0_split_case():
    # p = 1 mod 3, b = 1: N = p + 1 + 2u with p = u^2 + 3v^2, u = 2 mod 3
    for p, want in [(7, 12), (13, 12), (31, 36), (37, 48)]:
        f = FieldSpec(p)
        E = Curve.short(f, f(0), f(1))
        r = closed_form_order(E)
        assert r is not None and r.N == want
        assert brute_force_order(E).N == want


def test_closed_form_j1728():
    for p in (7, 11, 19, 23):  # p = 3 mod 4: supersingular, N = p + 1
        f = FieldSpec(p)
        for a in (1, 2, 3):
            E = Curve.short(f, f(a), f(0))
            r = closed_form_order(E)
            assert r is not None and r.N == p + 1
    for p in (5, 13, 17, 29):  # p = 1 mod 4: all residue classes of a
        f = FieldSpec(p)
        for a in range(1, p):
            E = Curve.short(f, f(a), f(0))
            r = closed_form_order(E)
            assert r is not None
            assert r.N == brute_force_order(E).N, (p, a)


def test_closed_form_extension_lift(F5):
    # the closed form lifts through Lucas replication to extension fields
    F25 = FieldSpec(5, 2, (2, 0, 1))
    E = Curve.short(F25, F25((1, 0)), F25((0, 0)))
    r = closed_form_order(E)
    assert r is not None and r.N == brute_force_order(E).N == 32


def test_closed_form_declines_generic(F13):
    assert closed_form_order(Curve.short(F13, F13(6), F13(11))) is None


def test_cornacchia():
    assert cornacchia(3, 7) == (2, 1)      # 4 + 3 = 7
    assert cornacchia(1, 13) in ((2, 3), (3, 2))
    assert cornacchia(3, 5) is None
    x, y = cornacchia(2, 11)               # 9 + 2 = 11
    assert x * x + 2 * y * y == 11


# (p, coefficient tuple low-first) for the counting polynomial
# H_p(x) = (-1)^((p-1)/2) * sum C((p-1)/2, k)^2 x^k reduced mod p
HASSE_FROZEN = {
    3: (2, 2),
    5: (1, 4, 1),
    7: (6, 5, 5, 6),
    11: (10, 8, 10, 10, 8, 10),
    13: (1, 10, 4, 10, 4, 10, 1),
}


@pytest.mark.parametrize("p", sorted(HASSE_FROZEN))
def test_hasse_polynomial_frozen(p):
    f = FieldSpec(p)
    H = hasse_polynomial(p)
    assert H == Poly.make(f, [f(c) for c in HASSE_FROZEN[p]])


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_manin_congruence(p):
    f = FieldSpec(p)
    for beta in range(2, p):
        E = Curve.make(f, 0, (-1 - beta) % p, 0, beta % p, 0)
        # y^2 = x(x-1)(x-beta)
        t = brute_force_order(E).t
        assert manin_trace(f(beta), p) == t % p
        got = manin_ap(f(beta))
        if got is not None:
            assert got == t


def test_manin_bad_beta(F13):
    for b in (0, 1):
        with pytest.raises(BadBeta):
            manin_trace(F13(b), 13)


def test_supersingular_flags(F5, F13):
    assert is_supersingular(Curve.short(F5, F5(0), F5(1)))
    assert not is_supersingular(Curve.short(F13, F13(0), F13(2)))
    f2 = FieldSpec(2)
    assert is_supersingular(Curve.make(f2, 0, 0, 1, 0, 0))


@pytest.mark.parametrize("q", [5, 7, 13])
def test_twist_order_check_exhaustive(q):
    f = FieldSpec(q)
    nonres = next(u for u in f.elements() if quadratic_character(u) == -1)
    for a in range(q):
        for b in range(q):
            E = Curve.short(f, f(a), f(b))
            if is_nonsingular(E):
                assert twist_order_check(E, nonres)


def test_singular_rejected(F5):
    with pytest.raises(EcgroupsError):
        brute_force_order(Curve.short(F5, F5(0), F5(0)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 101 ** 2 - 1))
def test_hasse_bound_always_holds(k):
    f = FieldSpec(101)
    E = Curve.short(f, f(k % 101), f(k // 101))
    if is_nonsingular(E):
        r = brute_force_order(E)
        lo, hi = hasse_window(101)
        assert lo <= r.N <= hi


def random_modulus_field(p, n, rng):
    """F_{p^n} under a random monic irreducible modulus."""
    while True:
        try:
            return FieldSpec(p, n, tuple(rng.randrange(p) for _ in range(n)) + (1,))
        except ValueError:  # reducible
            pass


# odd fields for the long-form counts, characteristic 3 included: three
# prime fields and every odd prime power q = p^n <= 2000 with n >= 2
ODD_FIELDS = {
    "F5": FieldSpec(5), "F13": FieldSpec(13), "F101": FieldSpec(101),
    "F9": FieldSpec(3, 2, (1, 0, 1)), "F25": FieldSpec(5, 2, (2, 0, 1)),
    "F27": FieldSpec(3, 3, (1, 2, 0, 1)),
}
for _p in intutil.primes_up_to(45)[1:]:
    for _n in range(2, 7):
        if _p ** _n <= 2000 and f"F{_p ** _n}" not in ODD_FIELDS:
            ODD_FIELDS[f"F{_p ** _n}"] = random_modulus_field(_p, _n, random.Random(_p ** _n))


def long_form_curves(f, count, seed=0):
    """Nonsingular long-form curves with a1, a3 != 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = [f.random_element(rng) for _ in range(5)]
        E = Curve(f, *a)
        if not (a[0].is_zero() or a[2].is_zero()) and is_nonsingular(E):
            out.append(E)
    return out


def even_form_count(E):
    """The count through the change of variables to y^2 = cubic, one
    FieldElement at a time."""
    Ev, _ = odd_char_even_form(E)
    f = E.field
    return 1 + sum(1 + quadratic_character(((x + Ev.a2) * x + Ev.a4) * x + Ev.a6)
                   for x in f.elements())


@pytest.mark.parametrize("name", ODD_FIELDS)
def test_count_on_long_form_matches_even_form(name):
    f = ODD_FIELDS[name]
    for E in long_form_curves(f, 12 if f.q <= 101 else 1):
        assert brute_force_order(E).N == even_form_count(E), E


def test_count_memory_flat_over_many_primes():
    """Above 10^4, and for every extension field, only the 16 most recent
    quadratic-character tables are kept: a sweep over 210 primes, or over
    60 moduli of F_{3^6}, peaks no higher than over its first third, and
    the last field's table is still there for the next count. The first
    count runs before tracing, so that loading numpy does not hide the
    growth of the tables (a 729-byte F_{3^6} table is too small to show in
    the peak, hence the size check)."""
    rng = random.Random(36)
    moduli = {}
    while len(moduli) < 60:
        f = random_modulus_field(3, 6, rng)
        moduli[f.modulus] = f
    sweeps = ([FieldSpec(p) for p in intutil.primes_up_to(13000) if p > 10000][:210],
              list(moduli.values()))
    small_tables = count._chi_table.cache_info().currsize
    for fields in sweeps:
        brute_force_order(Curve.short(fields[0], fields[0](1), fields[0](1)))
        peaks = []
        tracemalloc.start()
        try:
            for i, f in enumerate(fields, 1):
                brute_force_order(Curve.short(f, f(1), f(1)))
                if i in (len(fields) // 3, len(fields)):
                    peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks
        hits = count._large_chi_table.cache_info().hits
        brute_force_order(Curve.short(f, f(2), f(1)))
        assert count._large_chi_table.cache_info().hits == hits + 1
        assert count._large_chi_table.cache_info().currsize <= 16
    assert count._chi_table.cache_info().currsize == small_tables

"""Group structure, embeddings, encodings, and curve construction."""

import random

import pytest

from ecgroups.count import brute_force_order, hasse_window, point_order
from ecgroups.curve import (
    Curve,
    enumerate_short_curves,
    is_nonsingular,
    j_invariant,
    odd_char_even_form,
)
from ecgroups.errors import (
    AnomalousCurve,
    EcgroupsError,
    EncodingFailed,
    NoRepresentation,
    NotADivisor,
    SingularCurve,
)
from ecgroups.field import FieldSpec, embed
from ecgroups.intutil import factorize, is_prime
from ecgroups.point import Point, add, all_points, scalar_mul
from ecgroups.poly import Poly
from ecgroups.structure import (
    CLASS_NUMBER_ONE_J,
    cm_construct,
    construct_curve_with_order,
    decode_message,
    distortion_apply,
    embedding_degree,
    encode_message,
    group_structure,
    is_anomalous,
    parity_and_two_sylow,
    primitive_point,
    represent_4p,
    supersingular_shape_ok,
    torsion_shape,
    waterhouse_admissible,
)


GOLDEN_STRUCTURES = [
    # (a, b, N, d, e) over F_13
    ((0, 2), 19, 1, 19),
    ((0, 3), 9, 3, 1),
    ((6, 11), 15, 1, 15),
]


def test_golden_structures(F13):
    for (a, b), N, d, e in GOLDEN_STRUCTURES:
        g = group_structure(Curve.short(F13, F13(a), F13(b)))
        assert (g.N, g.d, g.e) == (N, d, e)
        assert g.exponent == d * e
        assert g.cyclic == (d == 1)


def _multiples(P, n):
    """[0]P, [1]P, ..., [n-1]P."""
    out = [Point.infinity(P.curve)]
    for _ in range(n - 1):
        out.append(add(out[-1], P))
    return out


def _span(g):
    """|<G, Q>| by enumerating every i*G + j*Q."""
    (G, oG), *rest = g.generators
    Q, oQ = rest[0] if rest else (G, 1)
    return len({add(A, B) for A in _multiples(G, oG) for B in _multiples(Q, oQ)})


WITNESS_FIELDS = {
    "F13": FieldSpec(13),
    "F4": FieldSpec(2, 2, (1, 1, 1)),
    "F8": FieldSpec(2, 3, (1, 1, 0, 1)),
    "F9": FieldSpec(3, 2, (1, 0, 1)),
    "F25": FieldSpec(5, 2, (2, 0, 1)),
    "F27": FieldSpec(3, 3, (1, 2, 0, 1)),
}


@pytest.mark.parametrize("name", WITNESS_FIELDS)
def test_generator_witnesses_valid(name):
    f = WITNESS_FIELDS[name]
    rng = random.Random(5)
    for _ in range(20):
        E = Curve(f, *(f.random_element(rng) for _ in range(5)))
        if not is_nonsingular(E):
            continue
        g = group_structure(E)
        assert (f.q - 1) % g.d == 0
        (G, oG), *rest = g.generators
        assert point_order(G, g.N) == oG == g.exponent
        if rest:
            (Q, oQ), = rest
            assert point_order(Q, g.N) == oQ == g.d
        # independence: the witnesses generate the whole group
        assert _span(g) == g.N


def test_composite_d_witness_regression(F13):
    # y^2 = x^3 + 5 over F_13 is Z_4 x Z_4 with G = (8,6); a Q of order 4
    # with [2]Q = [2]G = (6,0) would span only 8 points with G
    g = group_structure(Curve.short(F13, F13(0), F13(5)))
    assert (g.N, g.d, g.e) == (16, 4, 1)
    assert str(g.generators[1][0]) == "(7,7)"
    assert _span(g) == 16


def test_composite_d_witnesses_span_group():
    """Every short-curve class over F_p, p < 50, whose order admits a
    composite d, for seeds 0-2: where d comes out composite the two
    witnesses generate all N points."""
    composite = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        f = FieldSpec(p)
        elts = list(f.elements())
        for (ia, ib), *_ in enumerate_short_curves(f)["classes"]:
            E = Curve.short(f, elts[ia], elts[ib])
            N = brute_force_order(E).N
            if not any(N % (d * d) == 0 and (p - 1) % d == 0 and not is_prime(d)
                       for d in range(4, p)):
                continue
            for seed in range(3):
                g = group_structure(E, seed)
                if g.d > 1 and not is_prime(g.d):
                    composite += 1
                    assert _span(g) == N
    assert composite == 30


def test_structure_invariants_exhaustive_f7():
    f = FieldSpec(7)
    for a in range(7):
        for b in range(7):
            E = Curve.short(f, f(a), f(b))
            if not is_nonsingular(E):
                continue
            g = group_structure(E)
            assert g.N == g.d * g.d * g.e
            assert (f.q - 1) % g.d == 0
            # every point is killed by the exponent
            for P in all_points(E):
                assert scalar_mul(g.exponent, P).is_infinity


def test_witnesses_span_group_across_seeds():
    # Z_2 x Z_2^k m groups, where a 2-Sylow sample of larger order than P1
    # can arrive after P2 was set: the old P2 must not survive the swap
    for p, a, b in ((19, 2, 4), (31, 3, 14), (37, 1, 2), (47, 1, 26)):
        f = FieldSpec(p)
        E = Curve.short(f, f(a), f(b))
        for seed in range(3):
            g = group_structure(E, seed)
            assert g.d == 2 and _span(g) == g.N


# non-cyclic groups at p >= 10^4: (p, (a1, a2, a3, a4, a6), N, d)
SYLOW_CURVES = [
    # Z_2 x Z_14336: a 2-part Z_2 x Z_2048 whose discrete logs have 11 digits
    (28607, (13881, 14136, 23511, 28087, 21250), 28672, 2),
    # Z_10 x Z_1000: 5-part Z_5 x Z_125, so the digit searches in the
    # order-5 subgroup take giant steps, and a 2-part Z_2 x Z_8
    (10091, (0, 0, 0, 9313, 3773), 10000, 10),
]


def _killed_by_d(E, d):
    """Points P with [d]P = O. Over p = 28607 all_points takes over a
    second, so d = 2 counts the roots x of the 2-division polynomial
    4x^3 + b2 x^2 + 2 b4 x + b6 (one point each) plus O instead."""
    if d != 2:
        return sum(1 for P in all_points(E) if scalar_mul(d, P).is_infinity)
    p = E.field.p
    a1, a2, a3, a4, a6 = E.int_coefficients
    b2, b4, b6 = a1 * a1 + 4 * a2, a1 * a3 + 2 * a4, a3 * a3 + 4 * a6
    return 1 + sum(1 for x in range(p) if (((4 * x + b2) * x + 2 * b4) * x + b6) % p == 0)


@pytest.mark.parametrize("p, coeffs, N, d", SYLOW_CURVES, ids=[f"p{c[0]}" for c in SYLOW_CURVES])
def test_sylow_witnesses_certify_structure(p, coeffs, N, d):
    E = Curve.make(FieldSpec(p), *coeffs)
    for seed in range(3):
        g = group_structure(E, seed)
        assert (g.N, g.d) == (N, d)
        (G, oG), (Q, oQ) = g.generators
        assert point_order(G, N) == oG == g.exponent
        assert point_order(Q, N) == oQ == d
        # <G> and <Q> meet only in O: for each prime l | d the point
        # [d/l]Q of order l lies outside the order-l subgroup of <G>
        for l in factorize(d):
            step = scalar_mul(g.exponent // l, G)
            assert scalar_mul(d // l, Q) not in {scalar_mul(j, step) for j in range(l)}
    # the full d-torsion is rational, counted independently
    assert _killed_by_d(E, d) == d * d


def test_primitive_point(F13):
    E = Curve.short(F13, F13(6), F13(11))
    P, order, cyclic = primitive_point(E)
    assert cyclic and order == 15
    assert point_order(P, 15) == 15


def test_parity_classes(F13, F7):
    # no rational 2-torsion: odd order
    out = parity_and_two_sylow(Curve.short(F13, F13(0), F13(2)))
    assert out["parity_class"] == "odd" and out["root_count"] == 0
    assert out["sylow_order"] == 1
    # full rational 2-torsion: order divisible by 4
    E = Curve.make(F13, 0, -4 % 13, 0, 3, 0)  # y^2 = x(x-1)(x-3)
    out = parity_and_two_sylow(E)
    assert out["parity_class"] == "0 mod 4" and out["root_count"] == 3
    assert out["sylow_rank"] == 2
    # exactly one rational root: even, but either residue mod 4 can occur
    E2 = Curve.short(F7, F7(1), F7(0))  # x^3 + x = x(x^2+1), one root mod 7
    out2 = parity_and_two_sylow(E2)
    assert out2["parity_class"] == "even" and out2["root_count"] == 1
    assert brute_force_order(E2).N % 2 == 0
    # singular, the cubic with a double root: a typed error, with or without -O
    with pytest.raises(SingularCurve):
        parity_and_two_sylow(Curve.make(F13, 0, -1 % 13, 0, 0, 0))  # y^2 = x^2(x-1)


def test_parity_consistent_with_order():
    f = FieldSpec(11)
    for a in range(11):
        for b in range(11):
            E = Curve.short(f, f(a), f(b))
            if not is_nonsingular(E):
                continue
            out = parity_and_two_sylow(E)
            N = brute_force_order(E).N
            assert out["sylow_order"] == 2 ** ((N & -N).bit_length() - 1)
            if out["parity_class"] == "odd":
                assert N % 2 == 1
            elif out["parity_class"] == "0 mod 4":
                assert N % 4 == 0
            else:
                assert N % 2 == 0


@pytest.mark.parametrize("f", [FieldSpec(13), FieldSpec(3, 2, (1, 0, 1)),
                               FieldSpec(3, 3, (1, 2, 0, 1)), FieldSpec(5, 2, (2, 0, 1))],
                         ids=str)
def test_parity_long_form_matches_even_form(f):
    """The root count of the 2-division cubic on a long-form curve is that
    of the cubic of its even form y^2 = x^3 + a2 x^2 + a4 x + a6."""
    rng = random.Random(f.q)
    for _ in range(12):
        E = Curve(f, *(f.random_element(rng) for _ in range(5)))
        if not is_nonsingular(E):
            continue
        Ev, _ = odd_char_even_form(E)
        out = parity_and_two_sylow(E)
        assert out["root_count"] == len(Poly.make(f, [Ev.a6, Ev.a4, Ev.a2, 1]).roots())
        assert out == parity_and_two_sylow(Ev)


def test_torsion_shape(F13):
    E = Curve.short(F13, F13(0), F13(3))  # Z_3 x Z_3, ordinary
    total, rational_part = torsion_shape(E, 3)
    assert rational_part == 3 and total % rational_part == 0


def test_embedding_degree_values(F5, F13):
    rep = embedding_degree(Curve.short(F5, F5(0), F5(1)), 3)
    assert rep.k == 2 and rep.r == 3
    rep = embedding_degree(Curve.short(F13, F13(0), F13(2)), 19)
    assert rep.k == 18
    assert not rep.is_weak or rep.k < 19


def test_embedding_degree_supersingular_small(F5):
    # supersingular curves always have k <= 6
    E = Curve.short(F5, F5(0), F5(1))
    for r in (2, 3):
        rep = embedding_degree(E, r)
        assert rep.k in (1, 2, 3, 4, 6)


def test_embedding_degree_bad_r(F13):
    with pytest.raises(NotADivisor):
        embedding_degree(Curve.short(F13, F13(0), F13(2)), 7)


def test_distortion_j1728(F7):
    # y^2 = x^3 + ax with p = 3 mod 4: (x, y) -> (-x, iy) over F_{p^2}
    E = Curve.short(F7, F7(1), F7(0))
    for P in all_points(E):
        if P.is_infinity:
            continue
        img = P if False else distortion_apply(E, P)
        ext = img.curve.field
        assert ext.q == 49
        assert img.curve.a4 == embed(E.a4, ext)
        assert not img.is_infinity
        assert img.x == -embed(P.x, ext)


def test_distortion_j0(F5):
    # y^2 = x^3 + b with p = 2 mod 3: (x, y) -> (rho x, y)
    E = Curve.short(F5, F5(0), F5(1))
    for P in all_points(E):
        if P.is_infinity:
            continue
        img = distortion_apply(E, P)
        assert img.curve.field.q == 25
        assert img.y == embed(P.y, img.curve.field)


def test_encode_decode_roundtrip(F13):
    E = Curve.short(F13, F13(0), F13(2))
    K = 2
    for m in range(13 // K - 1):
        P = encode_message(E, m, K)
        assert not P.is_infinity
        assert decode_message(P, K) == m
    with pytest.raises(EncodingFailed):
        encode_message(E, 0, 1)  # K = 1 leaves no room to retry


def test_encode_range_guard(F13):
    E = Curve.short(F13, F13(0), F13(2))
    with pytest.raises(EcgroupsError):
        encode_message(E, 50, 2)  # q < (m+1)K


def test_construct_curve_with_order():
    for (q, N) in [(13, 19), (101, 101 + 1 - 5), (1009, 1009 + 1 + 30)]:
        E = construct_curve_with_order(q, N, 0)
        assert brute_force_order(E).N == N
    with pytest.raises(EcgroupsError):
        construct_curve_with_order(13, 40)  # outside the Hasse window


def test_represent_4p():
    u, v = represent_4p(-7, 11)
    assert u * u + 7 * v * v == 44
    assert represent_4p(-3, 11) is None  # 44 is not u^2 + 3 v^2
    with pytest.raises(NoRepresentation):
        cm_construct(-3, 11)


def test_class_number_one_table():
    assert CLASS_NUMBER_ONE_J[-3] == 0
    assert CLASS_NUMBER_ONE_J[-4] == 1728
    assert CLASS_NUMBER_ONE_J[-163] == -640320 ** 3
    assert len(CLASS_NUMBER_ONE_J) == 9


def test_cm_construct_verifies():
    cases = [(-7, 11), (-8, 11), (-43, 11), (-19, 7), (-4, 13), (-3, 13)]
    for d, p in cases:
        E, res = cm_construct(d, p)
        assert brute_force_order(E).N == res.N
        assert res.t > 0 and res.N == p + 1 - res.t
        lo, hi = hasse_window(p)
        assert lo <= res.N <= hi


def test_cm_j_invariant_matches_table():
    E, _res = cm_construct(-7, 11)
    assert j_invariant(E).lift() == CLASS_NUMBER_ONE_J[-7] % 11


def test_anomalous_fixture():
    E, res = cm_construct(-19, 5)
    assert res.N == 5 and is_anomalous(E)
    with pytest.raises(AnomalousCurve):
        embedding_degree(E, 5)


def test_waterhouse_admissible():
    # ordinary traces coprime to p are always admissible
    assert waterhouse_admissible(1, 13, 1)
    assert waterhouse_admissible(-5, 13, 1)
    # |t| beyond the Hasse bound never is
    assert not waterhouse_admissible(8, 13, 1)
    # t = 0 is admissible over a prime field
    assert waterhouse_admissible(0, 13, 1)


def test_supersingular_shape_predicate():
    # cyclic Z_{q+1} with t = 0 is one of the recognized shapes
    assert supersingular_shape_ok(7, 0, 1, 8)
    # full (q+1)-structure Z_2 x Z_{(q+1)/2} occurs when q = 3 mod 4
    assert supersingular_shape_ok(7, 0, 2, 2)
    assert not supersingular_shape_ok(7, 1, 1, 7)

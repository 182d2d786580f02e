"""Tests of the benchmark itself: its reference arithmetic, that every
check rejects a planted wrong answer, and a short run of every workload.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import plain  # noqa: E402
import workloads as wl  # noqa: E402
from ecgroups import count, curve, field, point, structure, zeta  # noqa: E402


def rejects(check, desc, result):
    with pytest.raises(wl.CheckFailed):
        check(desc, result)


def fake_order(N, q):
    return SimpleNamespace(N=N, t=q + 1 - N)


# ---------------------------------------------------------------------------
# reference arithmetic


def test_count_fp_matches_enumeration():
    rng = random.Random(1)
    for p in (3, 5, 7, 11, 13, 101):
        for _ in range(5):
            coeffs = tuple(rng.randrange(p) for _ in range(5))
            E = plain.Weierstrass(plain.Fp(p), coeffs)
            brute = 1 + sum(1 for x in range(p) for y in range(p)
                            if E.lhs_minus_rhs(x, y) == 0)
            assert plain.count_fp(coeffs, p) == brute


def test_extension_field_arithmetic():
    rng = random.Random(2)
    for p, n in ((2, 5), (3, 3), (5, 2)):
        F = plain.Fq(p, plain.random_irreducible(rng, p, n))
        els = list(F.elements())
        assert len(els) == p ** n
        for a in rng.sample(els[1:], 10):
            assert F.mul(a, F.inv(a)) == F.one
            if p == 2:
                z = plain.solve_artin_schreier(F, a)
                assert (z is None) == (plain.trace(F, a) == 1)
                assert z is None or F.add(F.mul(z, z), z) == a
            else:
                r = plain.sqrt(F, a, rng)
                assert (r is None) == (plain.chi(F, a) == -1)
                assert r is None or F.mul(r, r) == a


def test_plain_count_over_extension_matches_enumeration():
    rng = random.Random(3)
    for p, n in ((2, 3), (3, 2)):
        F = plain.Fq(p, plain.random_irreducible(rng, p, n))
        coeffs = tuple(F.random(rng) for _ in range(5))
        E = plain.Weierstrass(F, coeffs)
        brute = 1 + sum(1 for x in F.elements() for y in F.elements()
                        if E.lhs_minus_rhs(x, y) == F.zero)
        assert E.count() == brute


def test_factor_and_order():
    assert plain.factor(2 ** 5 * 3 * 1000003 * 1000033) == {2: 5, 3: 1, 1000003: 1,
                                                             1000033: 1}
    assert plain.mult_order(2, 7) == 3
    assert plain.lucas_orders(-1, 2, 3) == [4, 8, 4]


# ---------------------------------------------------------------------------
# planted wrong answers


def _prime_curve(p, seed=0):
    inp = wl.Inputs(random.Random(seed), set())
    return inp.curve(plain.Fp(p))


def test_order_off_by_one_rejected():
    big = plain.random_prime(random.Random(0), 2 ** 39, 2 ** 40, 3)
    for p in (1009, 1000003, big):  # exact count, then Hasse + [N]P = O
        c = _prime_curve(p)
        desc = (p, c, 0)
        res = count.bsgs_order(wl.lib_curve((p, None), c), 0)
        wl._pf_count_check(desc, res)
        rejects(wl._pf_count_check, desc, fake_order(res.N + 1, p))


def test_extension_order_off_by_one_rejected():
    rng = random.Random(4)
    F = plain.Fq(3, plain.random_irreducible(rng, 3, 7))
    c = wl.Inputs(rng, set()).curve(F)
    desc = (wl.fdesc(F), c, 0)
    res = count.bsgs_order(wl.lib_curve(desc[0], c), 0)
    wl._ef_count_check(desc, res)
    rejects(wl._ef_count_check, desc, fake_order(res.N + 1, F.q))
    rejects(wl._ef_count_check, desc, fake_order(res.N - 1, F.q))


def test_generator_of_wrong_order_rejected():
    p = 10007
    c = _prime_curve(p, 5)
    desc = (p, c, 0)
    gs = structure.group_structure(wl.lib_curve((p, None), c), 0)
    wl._pf_structure_check(desc, gs)
    (G, o), *rest = gs.generators
    ell = min(plain.factor(o))
    wrong = SimpleNamespace(N=gs.N, d=gs.d, e=gs.e,
                            generators=((point.scalar_mul(ell, G), o), *rest))
    rejects(wl._pf_structure_check, desc, wrong)
    lying = SimpleNamespace(N=gs.N, d=gs.d, e=gs.e, generators=((G, o * 2), *rest))
    rejects(wl._pf_structure_check, desc, lying)


def test_scalar_mul_wrong_point_rejected():
    p = 1000003
    c = _prime_curve(p)
    P = plain.Weierstrass(plain.Fp(p), c).sample_point(random.Random(0))
    desc = (p, c, P, 12345, "naf")
    R = wl._pf_scalar_mul(desc)
    wl._pf_scalar_mul_check(desc, R)
    rejects(wl._pf_scalar_mul_check, (p, c, P, 12346, "naf"), R)


def test_twist_orders_off_rejected():
    rng = random.Random(6)
    F = plain.Fq(2, plain.random_irreducible(rng, 2, 5))
    c = wl.Inputs(rng, set()).curve(F, wl._ordinary2(F, rng))
    desc = (wl.fdesc(F), c, wl._twist_witness(F, rng), 0)
    coeffs, N1, N2 = wl._ef_twist(desc)
    wl._ef_twist_check(desc, (coeffs, N1, N2))
    rejects(wl._ef_twist_check, desc, (coeffs, N1 + 1, N2))
    rejects(wl._ef_twist_check, desc, (coeffs, N1 + 1, N2 - 1))


def test_lucas_lift_off_by_one_rejected():
    rng = random.Random(7)
    F = plain.Fq(3, plain.random_irreducible(rng, 3, 5))
    c = wl.Inputs(rng, set()).curve(F, wl._subfield(F, rng))
    desc = (wl.fdesc(F), c, 0)
    res = wl._ef_lucas(desc)
    wl._ef_lucas_check(desc, res)
    rejects(wl._ef_lucas_check, desc, fake_order(res.N + 1, F.q))


def test_isomorphism_map_tampered_rejected():
    rng = random.Random(8)
    F = plain.Fq(2, plain.random_irreducible(rng, 2, 2))
    E1, E2 = wl._iso_pair(wl.Inputs(rng, set()), F)
    desc = (wl.fdesc(F), E1, E2, True)
    m = wl._ef_iso(desc)
    wl._ef_iso_check(desc, m)
    rejects(wl._ef_iso_check, desc, None)
    bad = SimpleNamespace(u=m.u, r=m.r + m.u.field.one(), s=m.s, t=m.t)
    rejects(wl._ef_iso_check, desc, bad)


def test_census_total_off_by_one_rejected():
    p = 13
    census = curve.enumerate_short_curves(field.FieldSpec(p))
    wl._cz_classes_check(p, census)
    rejects(wl._cz_classes_check, p, dict(census, total_nonsingular=p * p - p + 1))
    rejects(wl._cz_classes_check, p, dict(census, class_count=census["class_count"] + 1))


def test_non_symmetric_trace_count_rejected():
    p = 31
    counts = zeta.trace_frequency(p)
    wl._cz_trace_check(p, counts)
    t = next(t for t in counts if t > 0)
    skewed = dict(counts)
    skewed[t] += 1
    skewed[-t] -= 1
    rejects(wl._cz_trace_check, p, skewed)
    rejects(wl._cz_trace_check, p, {**counts, t: counts[t] + 1})


def test_supersingular_primes_and_l_series_rejected():
    desc = (7, 300)
    out = zeta.angle_sequence((0, 0, 0, 0, 7), "vary_prime", 300)
    wl._cz_angle_ss_check(desc, out)
    s0 = out["samples"][5]
    flipped = [s if s is not s0 else SimpleNamespace(index=s.index, a=0 if s.a else 2,
                                                     theta=s.theta)
               for s in out["samples"]]
    rejects(wl._cz_angle_ss_check, desc, dict(out, samples=flipped))
    model = (0, 0, 1, -1, 0)
    a = zeta.curve_l_series(model, 60)
    wl._cz_l_series_check((model, 60), a)
    bad = list(a)
    bad[5] += 1  # a_6 != a_2 a_3
    rejects(wl._cz_l_series_check, (model, 60), bad)


def test_torsion_and_manin_rejected():
    desc = (101, 3, 7, 3)
    coeffs, pts = wl._cz_torsion(desc)
    wl._cz_torsion_check(desc, (coeffs, pts))
    if pts:
        rejects(wl._cz_torsion_check, desc, (coeffs, set(list(pts)[1:])))
    rejects(wl._cz_torsion_check, desc, ([0] + list(coeffs), pts))  # roots gain x = 0
    desc = (211, 17)
    r = count.manin_trace(field.FieldSpec(211)(17), 211)
    wl._cz_manin_check(desc, r)
    rejects(wl._cz_manin_check, desc, (r + 1) % 211)


def test_cli_checks_reject_wrong_output():
    rng = random.Random(9)
    jobs = wl.cli_corpus_round(wl.Inputs(rng, set()))
    checked = 0
    for kind, desc in jobs:
        try:
            text = wl._run_cli(desc)
        except wl.CliExit:
            assert desc[1] == "zeta" and desc[2][0] == (1601, None)
            continue
        wl._cli_check(desc, text)
        out = json.loads(text)
        if desc[1] == "zeta":
            L, counts = out["L"], out["counts"]
            rejects(wl._cli_check, desc, json.dumps(dict(out, L=[1, L[1] + 1, L[2]])))
            wrong = counts[:-1] + [counts[-1] + 1]
            rejects(wl._cli_check, desc, json.dumps(dict(out, counts=wrong)))
            checked += 1
        for key in ("N", "m", "total_nonsingular"):
            if isinstance(out.get(key), int):
                rejects(wl._cli_check, desc, json.dumps(dict(out, **{key: out[key] + 1})))
                checked += 1
        if "point" in out and out["point"] != "inf":
            x, y = out["point"].strip("()").split(",")
            moved = json.dumps(dict(out, point=f"({x},{int(y) + 1})"))
            rejects(wl._cli_check, desc, moved)
            checked += 1
    assert checked >= 9


# ---------------------------------------------------------------------------
# whole runs at reduced size


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.mark.parametrize("workload", ["prime_fields", "extension_fields", "census_zeta",
                                      "cli_corpus"])
def test_smoke_end_to_end(workload):
    rc, lines, err = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                               "--trace", "0")
    assert rc == 0, err
    res = json.loads(lines[-1])
    assert res["correct"] is True and res["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runs = []
    for _ in range(2):
        rc, lines, err = run_bench("--workload", "cli_corpus", "--seed", "5", "--seconds", "1",
                                   "--trace", "1")
        assert rc == 0, err
        runs.append(json.loads(lines[-1]))
    for res in runs:
        assert res["correct"] is True
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] == runs[0]["attempted"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, lines, _err = run_bench("--workload", "cli_corpus", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)

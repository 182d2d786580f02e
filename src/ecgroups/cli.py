"""Command-line front end: reproducible batch computations with
machine-readable (JSON) or aligned-table output.

Exit codes: 0 success, 1 mathematical failure (e.g. no representation),
2 usage error. All randomness flows from --seed; identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import count, curve, divpoly, structure, zeta
from .curve import parse_curve
from .errors import EcgroupsError
from .field import FieldSpec, parse_field, twist_witness
from .point import parse_point


def _emit(args, payload):
    if args.format == "table":
        lines = []
        for k in sorted(payload):
            lines.append(f"{k:24} {payload[k]}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _curve_arg(args) -> curve.Curve:
    return parse_curve(f"{args.field}|{args.curve}")


def cmd_info(args):
    E = _curve_arg(args)
    tt, inv = E.tate, curve.curve_invariants(E)
    _emit(args, {
        "b2": str(tt.b2), "b4": str(tt.b4), "b6": str(tt.b6), "b8": str(tt.b8),
        "c4": str(tt.c4), "c6": str(tt.c6),
        "delta": str(inv.discriminant),
        "j": None if inv.j is None else str(inv.j),
        "singular_kind": inv.singular_kind,
    })


def cmd_count(args):
    E = _curve_arg(args)
    if args.method == "brute":
        res = count.brute_force_order(E)
    elif args.method == "random":
        res = count.order_via_random_point(E, args.seed)
    elif args.method == "bsgs":
        res = count.bsgs_order(E, args.seed)
    elif args.method == "closed":
        res = count.closed_form_order(E)
        if res is None:
            raise EcgroupsError("no closed-form family matches this curve")
    else:  # lucas
        rows = count.extension_orders(E, args.n)
        _emit(args, {"N": rows[-1][2], "V": rows[-1][1], "n": args.n})
        return
    _emit(args, {"N": res.N, "t": res.t})


def cmd_structure(args):
    E = _curve_arg(args)
    gs = structure.group_structure(E, args.seed)
    _emit(args, gs.to_json())


def cmd_torsion(args):
    E = _curve_arg(args)
    pts = sorted(
        str(P) for P in divpoly.torsion_points(E, args.n)
    )
    _emit(args, {"n": args.n, "points": pts})


def cmd_twist(args):
    E = _curve_arg(args)
    witness = twist_witness(E.field)
    Et = curve.quadratic_twist(E, witness)
    _emit(args, {"curve": str(Et), "witness": str(witness)})


def cmd_classes(args):
    census = curve.enumerate_short_curves(FieldSpec(args.q))
    _emit(args, {
        "class_count": census["class_count"],
        "class_sizes": sorted(len(c) for c in census["classes"]),
        "total_nonsingular": census["total_nonsingular"],
    })


def cmd_encode(args):
    E = _curve_arg(args)
    P = structure.encode_message(E, args.m, args.K)
    _emit(args, {"point": str(P)})


def cmd_decode(args):
    E = _curve_arg(args)
    P = parse_point(args.point, E)
    _emit(args, {"m": structure.decode_message(P, args.K)})


def cmd_primitive(args):
    E = _curve_arg(args)
    P, order, cyclic = structure.primitive_point(E, args.seed)
    _emit(args, {"cyclic": cyclic, "order": order, "point": str(P)})


def cmd_construct(args):
    f = parse_field(args.field)
    E = structure.construct_curve_with_order(f.q, args.N, args.seed)
    _emit(args, {"N": args.N, "curve": str(E)})


def cmd_cm(args):
    E, res = structure.cm_construct(args.d, args.p, args.seed)
    _emit(args, {"N": res.N, "curve": str(E), "t": res.t})


def cmd_embed(args):
    E = _curve_arg(args)
    rep = structure.embedding_degree(E, args.r, args.seed)
    _emit(args, rep.to_json())


def cmd_lint(args):
    E = _curve_arg(args)
    res = count.curve_order(E, args.seed)
    from . import intutil

    factors = intutil.factorize(res.N)
    flags = []
    if all(p < 2 ** 16 for p in factors):
        flags.append("smooth_order")
    if res.N == E.field.q:
        flags.append("anomalous")
    if res.t % E.field.p == 0:
        flags.append("supersingular")
    k = None
    r = max(factors)
    if res.N != E.field.q and E.field.q % r != 0:
        rep = structure.embedding_degree(E, r, args.seed)
        k = rep.k
        if rep.is_weak:
            flags.append("small_embedding_degree")
    _emit(args, {
        "N": res.N,
        "factors": {str(p): v for p, v in sorted(factors.items())},
        "flags": sorted(flags),
        "k": k,
        "r": r,
        "t": res.t,
    })


def cmd_zeta(args):
    E = _curve_arg(args)
    L = zeta.lpoly_of_curve(E)
    _emit(args, {
        "L": list(L.coeffs),
        "counts": zeta.zeta_series_expand(L, args.nmax),
    })


def cmd_lseries(args):
    model = tuple(int(c) for c in args.curve.split(","))
    _emit(args, {"a": zeta.curve_l_series(model, args.nmax)})


def cmd_angles(args):
    if args.mode == "vary_prime":
        model = tuple(int(c) for c in args.curve.split(","))
        out = zeta.angle_sequence(model, "vary_prime", args.limit)
    else:
        E = _curve_arg(args)
        out = zeta.angle_sequence(E, "vary_degree", args.limit)
    _emit(args, {
        "discrepancy_cm": round(out["discrepancy_cm"], 12),
        "discrepancy_sato_tate": round(out["discrepancy_sato_tate"], 12),
        "histogram": out["histogram"],
        "samples": len(out["samples"]),
        "skipped_singular": out["skipped_singular"],
        "zero_fraction": round(
            sum(1 for s in out["samples"] if s.a == 0) / max(len(out["samples"]), 1), 12
        ),
    })


def cmd_census(args):
    counts = zeta.trace_frequency(args.q)
    if args.format == "table":
        text = "\n".join(f"{t},{counts[t]}" for t in sorted(counts)) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    _emit(args, {"counts": {str(t): counts[t] for t in sorted(counts)}})


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ecgroups")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--format", choices=["json", "table"], default="json")
    top.add_argument("--out", default=None)
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, fn, *, needs_curve=True):
        p = sub.add_parser(name)
        if needs_curve:
            p.add_argument("--field", required=True)
            p.add_argument("--curve", required=True)
        p.set_defaults(fn=fn)
        return p

    cmd("info", cmd_info)
    p = cmd("count", cmd_count)
    p.add_argument("--method", choices=["brute", "random", "bsgs", "closed", "lucas"],
                   default="brute")
    p.add_argument("--n", type=int, default=1)
    cmd("structure", cmd_structure)
    p = cmd("torsion", cmd_torsion)
    p.add_argument("--n", type=int, required=True)
    cmd("twist", cmd_twist)
    p = cmd("classes", cmd_classes, needs_curve=False)
    p.add_argument("--q", type=int, required=True)
    p = cmd("encode", cmd_encode)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p = cmd("decode", cmd_decode)
    p.add_argument("--point", required=True)
    p.add_argument("--K", type=int, required=True)
    cmd("primitive", cmd_primitive)
    p = cmd("construct", cmd_construct, needs_curve=False)
    p.add_argument("--field", required=True)
    p.add_argument("--N", type=int, required=True)
    p = cmd("cm", cmd_cm, needs_curve=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p = cmd("embed", cmd_embed)
    p.add_argument("--r", type=int, required=True)
    cmd("lint", cmd_lint)
    p = cmd("zeta", cmd_zeta)
    p.add_argument("--nmax", type=int, default=8)
    p = cmd("lseries", cmd_lseries, needs_curve=False)
    p.add_argument("--curve", required=True)
    p.add_argument("--nmax", type=int, default=50)
    p = cmd("angles", cmd_angles, needs_curve=False)
    p.add_argument("--field", default=None)
    p.add_argument("--curve", required=True)
    p.add_argument("--mode", choices=["vary_prime", "vary_degree"], required=True)
    p.add_argument("--limit", type=int, required=True)
    p = cmd("census", cmd_census, needs_curve=False)
    p.add_argument("--q", type=int, required=True)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.fn(args)
    except EcgroupsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

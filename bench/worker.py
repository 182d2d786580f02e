"""One benchmark process: set up a workload, run its jobs, check them.

    python3 bench/worker.py --workload W --seed N --mode setup|run|fixed
                            [--seconds S] [--rounds R] [--trace]

Set-up is: import ecgroups, draw the warm-up round and the first timed
round, run the first job of each kind of the warm-up round untimed. The worker then prints `READY` and,
in `setup` mode, exits. In `run` mode it runs whole rounds until the
timed work, corrected for the host's speed, reaches S seconds; in `fixed` mode it runs exactly R rounds
(with `--trace`, under the per-layer tracer, whose span trace it writes
to bench/out/trace-<workload>-seed<seed>.npz). A short calibration loop is
timed before each job and after each round's last job, so that run.py can
correct the latencies for the host's speed. Every round's results are
checked after the round, and one JSON line reports latencies, calibration
times, counts and memory at the end.

Input drawing and checking between rounds are not timed. `run.py` starts this script;
it is not meant to be run by hand except to debug one workload.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from hostspeed import calibrate, corrected  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Inputs  # noqa: E402


def round_stream(workload: str, seed, stream: str, seen: set):
    make_round, _kinds = WORKLOADS[workload]
    inp = Inputs(random.Random(f"{workload}:{seed}:{stream}"), seen)
    while True:
        yield make_round(inp)


def warm_up_jobs(jobs):
    """The first job of each kind (each subcommand, for the CLI): enough to
    load every code path and cache the timed jobs use, at a fraction of a
    round's cost."""
    seen, out = set(), []
    for kind, desc in jobs:
        key = (kind, desc[1] if kind == "cli" else None)
        if key not in seen:
            seen.add(key)
            out.append((kind, desc))
    return out


def run_round(kinds, jobs, results, latencies, cal=None, tracer=None, first_job=0):
    """Run one round; returns the failure messages. With `cal`, appends
    the calibration time taken before each job and one after the last."""
    failures = []
    clock = time.perf_counter
    for i, (kind, desc) in enumerate(jobs):
        fn = kinds[kind][0]
        if cal is not None:
            cal.append(calibrate())
        if tracer:
            tracer.set_job(first_job + i)
        t0 = clock()
        try:
            res = fn(desc)
        except Exception as exc:  # a job that raises counts as failed
            latencies.append((clock() - t0) * 1e3)
            failures.append(f"{kind}{desc!r:.200}: {type(exc).__name__}: {exc}")
            continue
        latencies.append((clock() - t0) * 1e3)
        results.append((kind, desc, res))
    if cal is not None:
        cal.append(calibrate())
    return failures


def check_all(kinds, results):
    errors = []
    for kind, desc, res in results:
        try:
            kinds[kind][1](desc, res)
        except CheckFailed as exc:
            errors.append(f"{kind}{desc!r:.200}: {exc}")
        except Exception as exc:  # a check that cannot read the result also rejects it
            errors.append(f"{kind}{desc!r:.200}: {type(exc).__name__}: {exc}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "fixed"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    _make_round, kinds = WORKLOADS[args.workload]
    seen: set = set()
    # the warm-up round is the same in every run, so set-up time does not
    # depend on the seed; timed rounds avoid its curves through `seen`
    warm = next(round_stream(args.workload, "warmup", "warmup", seen))
    timed = round_stream(args.workload, args.seed, "timed", seen)
    pending = next(timed)
    warm_failures = run_round(kinds, warm_up_jobs(warm), [], [])
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if tracer:
        tracer.reset()
    latencies, failures, errors, cal_ms = [], [], [], []
    rounds, timed_ms = 0, 0.0
    while True:
        results = []
        first, first_cal = len(latencies), len(cal_ms)
        failures += run_round(kinds, pending, results, latencies, cal_ms, tracer, first)
        rounds += 1
        # the run lasts S seconds at the host's usual speed, so the number of
        # rounds, and with it the memory the caches reach, does not follow
        # the host's speed
        timed_ms += sum(corrected(latencies[first:], cal_ms[first_cal:], len(pending)))
        # checked between rounds and then dropped, so that memory held for
        # checking does not grow with the number of rounds
        errors += check_all(kinds, results)
        if args.mode == "fixed" and rounds >= args.rounds:
            break
        if args.mode == "run" and timed_ms >= args.seconds * 1e3:
            break
        pending = next(timed)
    layer_metrics = tracer.metrics(len(latencies)) if tracer else None
    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
    messages = [f"warm-up: {m}" for m in warm_failures] + failures + errors
    for msg in messages[:10]:
        print(msg[:2000], file=sys.stderr)
    if len(messages) > 10:
        print(f"... {len(messages) - 10} more", file=sys.stderr)
    report = {
        "attempted": len(latencies),
        "failed": len(failures),
        "correct": not errors,
        "rounds": rounds,
        "cal_ms": cal_ms,
        "latencies_ms": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "layers": layer_metrics,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

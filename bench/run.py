"""Benchmark entry point for ecgroups.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout (it imports ecgroups from ./src). Prints,
as its last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 (end-to-end): starts the workload's worker process SETUP_SAMPLES
times; the first SETUP_SAMPLES - 1 only set up, the last one also runs
whole rounds of jobs for S seconds of timed work and checks every result.
Metrics: setup_s (median set-up time over the samples), jobs_per_s,
job_p50_ms, job_tail_ms (the workload's TAIL_PERCENTILE) and peak_rss_mb.
Job latencies are corrected for the host's speed around each job, measured
by the worker's calibration loop (hostspeed.py).

--trace 1 (per layer): runs the same TRACE_ROUNDS rounds twice, in two
fresh worker processes, once plain and once under the per-layer tracer,
and reports the tracer's metrics plus trace.overhead_ratio. The span
trace is written to bench/out/. The traced run does a fixed amount of
work, so its counts repeat exactly for a given seed; S is not used.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REF_CAL_MS, corrected  # noqa: E402

WORKLOADS = ("prime_fields", "extension_fields", "census_zeta", "cli_corpus")
SETUP_SAMPLES = 5
# the highest percentile that keeps at least ten jobs beyond it in every run
TAIL_PERCENTILE = {"prime_fields": 95, "extension_fields": 95, "census_zeta": 95,
                   "cli_corpus": 98}
TRACE_ROUNDS = {"prime_fields": 2, "extension_fields": 2, "census_zeta": 4,
                "cli_corpus": 8}
# every worker is stopped by this many seconds after the benchmark starts
DEADLINE_S = 170


class WorkerError(Exception):
    pass


def start_worker(args, extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)


def run_worker(args, extra):
    """Run one worker; returns (seconds from start to READY, its report).

    The worker is killed if it is still running at the run's deadline."""
    t0 = time.perf_counter()
    proc = start_worker(args, extra)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], args.deadline - time.monotonic())
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise WorkerError(f"worker did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=max(args.deadline - time.monotonic(), 0.1))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def end_to_end(args):
    reps = [run_worker(args, ["--mode", "setup"]) for _ in range(SETUP_SAMPLES - 1)]
    reps.append(run_worker(args, ["--mode", "run", "--seconds", str(args.seconds)]))
    setups, rep = [s for s, _ in reps], reps[-1][1]
    lat, rounds = rep["latencies_ms"], rep["rounds"]
    per_round = len(lat) // rounds
    norm = corrected(lat, rep["cal_ms"], per_round)
    round_ms = [sum(norm[r * per_round:(r + 1) * per_round]) for r in range(rounds)]
    pct = TAIL_PERCENTILE[args.workload]
    tail = statistics.quantiles(norm, n=100, method="inclusive")[pct - 1]
    raw_tail = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1]
    beyond = sum(1 for x in norm if x > tail)
    print(f"{args.workload}: {len(lat)} jobs in {rounds} rounds, {beyond} beyond p{pct}; "
          f"median host factor {statistics.median(rep['cal_ms']) / REF_CAL_MS:.3f}; uncorrected: p50 "
          f"{statistics.median(lat):.3f} ms, p{pct} {raw_tail:.3f} ms, "
          f"{len(lat) / sum(lat) * 1e3:.3f} jobs/s",
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # every round runs the same mix, so the median round is robust to
        # the rare dear input
        "jobs_per_s": (per_round / statistics.median(round_ms) * 1e3, "jobs/s"),
        "job_p50_ms": (statistics.median(norm), "ms"),
        "job_tail_ms": (tail, "ms"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
    }
    return rep, metrics


def per_layer(args):
    rounds = ["--mode", "fixed", "--rounds", str(TRACE_ROUNDS[args.workload])]
    plain_rep = run_worker(args, rounds)[1]
    rep = run_worker(args, rounds + ["--trace"])[1]
    metrics = {name: tuple(v) for name, v in rep["layers"].items()}
    metrics["trace.overhead_ratio"] = (sum(rep["latencies_ms"]) / sum(plain_rep["latencies_ms"]),
                                       "ratio")
    rep["correct"] = rep["correct"] and plain_rep["correct"]
    return rep, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ecgroups" / "__init__.py").is_file():
        print(f"bench: no ecgroups sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        rep, metrics = (per_layer if args.trace else end_to_end)(args)
    except (WorkerError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

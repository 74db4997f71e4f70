"""Benchmark of tourneylab's three verdict paths.

    python3 bench/run.py --workload {even6,theorem7,analyze_mix} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Every round is a fresh interpreter
(bench/worker.py) with `--jobs 1`, TOURNEYLAB_BUDGET_SECS removed and
PYTHONPATH set to the checkout's src/, so tourneylab's caches start empty as
in a user's CLI run. Rounds repeat while another one fits in S seconds (at
least one). Input files are written once per run, before the first
interpreter starts. Untraced runs also start SETUPS_PER_ROUND interpreters
that only set up, before every round and after the last one, so that set-up
time is a median of samples spread over the whole run in every workload.
`wall_s` is the timed part of the run per round (the mean over rounds): the
machine this was tuned on alternates between a fast and a slow speed every
few seconds, and a median of a handful of rounds jumps between the two.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of spans.PER_LAYER with --trace 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS_PER_ROUND = 2
HARD_LIMIT_S = 170.0  # a run ends well inside 180 s, whatever happens


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "TOURNEYLAB_BUDGET_SECS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(workload: str, seed: int, mode: str, rundir: Path, tag: int, deadline: float) -> dict:
    t_spawn = time.perf_counter()
    timeout = deadline - t_spawn
    if timeout <= 0:
        raise BenchError("out of time before the next interpreter")
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
            repr(t_spawn), str(rundir), str(tag)]
    try:
        proc = subprocess.run(
            argv, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} round did not end in {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload} {mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(math.ceil(q * len(xs)) - 1, 0)]


def run(workload: str, seed: int, seconds: int, traced: bool, rundir: Path) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + HARD_LIMIT_S
    mode = "trace" if traced else "run"
    tags = itertools.count()
    setups: list[float] = []
    prepare, _, _ = WORKLOADS[workload]
    prepare(seed, rundir)

    def sample_setups() -> None:
        if not traced:
            setups.extend(
                _spawn(workload, seed, "setup", rundir, next(tags), deadline)["setup_s"]
                for _ in range(SETUPS_PER_ROUND)
            )

    rounds: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        t = time.perf_counter()
        sample_setups()
        rounds.append(_spawn(workload, seed, mode, rundir, next(tags), deadline))
        now = time.perf_counter()
        if now - loop_start + (now - t) > seconds:
            break
    sample_setups()
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    notes = [
        f"{workload} seed={seed} trace={int(traced)}: {len(rounds)} round(s), "
        f"round wall_s {[round(r['wall_s'], 4) for r in rounds]}"
    ]
    if traced:
        metrics = {
            name: {"value": statistics.median_low(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        latencies_ms = [x * 1000 for r in rounds for x in r["latencies_s"]]
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.fmean(r["wall_s"] for r in rounds), "unit": "s"},
            "latency_p50_ms": {"value": _percentile(latencies_ms, 0.50), "unit": "ms"},
            "latency_p95_ms": {"value": _percentile(latencies_ms, 0.95), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MB"},
        }
        notes.append(f"{len(latencies_ms)} operations, {len(setups)} set-ups")
    notes += [f"FAILED CHECK: {p}" for p in problems[:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tourneylab" / "__init__.py").is_file():
        print(f"error: no tourneylab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rundir = OUT / f"run-{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh interpreter: set up a workload, optionally run one round of it.

    python3 bench/worker.py WORKLOAD SEED MODE T_SPAWN RUNDIR TAG

MODE is `setup` (set up and stop), `run` (one untraced round) or `trace`
(one round with spans). T_SPAWN is the parent's `time.perf_counter()` just
before it started this process; on Linux that clock is CLOCK_MONOTONIC and
shared by all processes, so set-up time counts interpreter start-up. RUNDIR
holds what the parent prepared for the whole run (`prepare`); this process
works in RUNDIR/work-TAG and removes it. The result is one JSON object on the
last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_ENV_VAR = "TOURNEYLAB_BUDGET_SECS"


def _call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """cli.main with its output captured; rc None if it raised."""
    from tourneylab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _verify_round(argv: list[str], report_name: str, check, workdir: Path) -> dict:
    t0 = time.perf_counter()
    rc, _, err = _call_cli(argv + ["--jobs", "1", "--out-dir", str(workdir)])
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rc is None:
        problems = [f"crashed: {err}"]
    else:
        try:
            report = json.loads((workdir / report_name).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems = [f"exit code {rc}, no readable report: {exc}; {err.strip()}"]
        else:
            problems = check(report, rc)
    return {
        "wall_s": wall,
        "latencies_s": [wall],
        "rss_mb": rss,
        "attempted": 1,
        "failed": int(bool(problems)),
        "problems": problems,
    }


def run_even6(state: dict, workdir: Path) -> dict:
    from checks import check_even6, even6_games

    out = _verify_round(
        ["verify", "even", "--max-n", "6"], "even_maxn6.json", check_even6, workdir
    )
    return out | {"games": even6_games(), "classes": 0}


def run_theorem7(state: dict, workdir: Path) -> dict:
    from checks import CLASSES_7, check_theorem7

    out = _verify_round(
        ["verify", "theorem", "--n", "3"], "theorem_n3.json", check_theorem7, workdir
    )
    return out | {"games": CLASSES_7, "classes": CLASSES_7}


def run_analyze_mix(state: dict, workdir: Path) -> dict:
    from checks import check_analysis

    tracer = state.get("tracer")
    results = []
    latencies = []
    t0 = time.perf_counter()
    for k, path in enumerate(state["paths"]):
        if tracer is not None:
            tracer.op = k
        t = time.perf_counter()
        results.append(_call_cli(["analyze", str(path)]))
        latencies.append(time.perf_counter() - t)
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = []
    failed = 0
    for g, path, (rc, out, err) in zip(state["games"], state["paths"], results):
        bad = [f"crashed: {err}"] if rc is None else check_analysis(g, rc, out)
        if bad:
            failed += 1
            problems += [f"{path.name} ({g.kind}, n={g.n}): {p}" for p in bad]
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "rss_mb": rss,
        "attempted": len(results),
        "failed": failed,
        "problems": problems,
        "games": len(results),
        "classes": 0,
    }


def prepare_analyze_mix(seed: int, rundir: Path) -> None:
    from inputs import round_games, write_round

    write_round(round_games(seed), seed, rundir / "inputs")


def setup_analyze_mix(seed: int, rundir: Path) -> dict:
    from inputs import input_paths, round_games

    games = round_games(seed)
    return {"games": games, "paths": input_paths(games, rundir / "inputs")}


def _nothing(seed: int, rundir: Path) -> dict:
    return {}


# workload -> (prepare once per run in the parent, set up in each interpreter, run one round)
WORKLOADS = {
    "even6": (_nothing, _nothing, run_even6),
    "theorem7": (_nothing, _nothing, run_theorem7),
    "analyze_mix": (prepare_analyze_mix, setup_analyze_mix, run_analyze_mix),
}


def main(argv: list[str]) -> int:
    workload, seed, mode, t_spawn, rundir, tag = argv
    seed, t_spawn, rundir = int(seed), float(t_spawn), Path(rundir)
    workdir = rundir / f"work-{tag}"
    if BUDGET_ENV_VAR in os.environ:
        print(f"{BUDGET_ENV_VAR} must not be set for a benchmark run", file=sys.stderr)
        return 2
    import tourneylab
    import tourneylab.cli  # noqa: F401  (the entry point every workload calls)

    src = (ROOT / "src").resolve()
    if src not in Path(tourneylab.__file__).resolve().parents:
        print(f"tourneylab imported from {tourneylab.__file__}, not {src}", file=sys.stderr)
        return 2
    _, setup, run = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = setup(seed, rundir)
        result: dict = {"setup_s": time.perf_counter() - t_spawn}
        if mode != "setup":
            if mode == "trace":
                from spans import Tracer

                state["tracer"] = Tracer()
                state["tracer"].install()
            result |= run(state, workdir)
            if mode == "trace":
                from spans import layer_metrics

                tracer = state["tracer"]
                result["layers"] = layer_metrics(
                    tracer.totals(), result["games"], result["classes"]
                )
                tracer.write(rundir.parent / f"spans-{workload}.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

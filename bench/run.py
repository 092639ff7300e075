"""Benchmark of the satpinhole toolkit: one workload per run.

    python3 bench/run.py --workload tiled_scene --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed`` (several times, to time the
set-up), then runs whole passes until ``--seconds`` have gone by, checks
every pass's outputs and prints one JSON object as the last line of standard
output. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced, one span-traced and one tracemalloc pass and reports the per-layer
metrics. ``--setup-only`` writes the inputs under ``.bench_work/`` and stops.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from common import Ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("tiled_scene", "camera_study", "dsm_fusion")
# Set-up runs at least MIN_SETUPS times, and more while it is cheap.
MIN_SETUPS = 3
MAX_SETUPS = 7
SETUP_BUDGET_S = 4.0


def _fresh(work: Path) -> Path:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _cold_import() -> None:
    """Start a fresh interpreter that imports the CLI module, and wait for it."""
    subprocess.run(
        [sys.executable, "-c", "import satpinhole.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=120,
    )


def _check(workload, state, problems: list[str]) -> float:
    """Run the workload's checks; return its residual_rel."""
    try:
        found, residual = workload.check(state)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
        traceback.print_exc()
        found, residual = [f"check raised {type(exc).__name__}: {exc}"], float("nan")
    for p in found:
        print(f"bench: {workload.__name__}: {p}", file=sys.stderr)
    problems.extend(found)
    return residual


def _pass(workload, state, totals: dict) -> Ops:
    ops = Ops()
    workload.run_pass(ops, state)
    totals["attempted"] += ops.attempted
    totals["failed"] += ops.failed
    return ops


def end_to_end(workload, work: Path, seed: int, seconds: float):
    setups = []
    while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S):
        _fresh(work)
        t0 = time.perf_counter()
        _cold_import()
        state = workload.setup(work, seed)
        setups.append(time.perf_counter() - t0)

    totals = {"attempted": 0, "failed": 0}
    problems: list[str] = []
    walls, residuals = [], []
    t_start = time.perf_counter()
    while True:
        ops = _pass(workload, state, totals)
        walls.append(sum(ops.steps.values()))
        residuals.append(_check(workload, state, problems))
        if time.perf_counter() - t_start >= seconds:
            break
    print(f"bench: {workload.__name__}: {len(setups)} set-ups {setups}, {len(walls)} passes {walls}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "residual_rel": (statistics.median(residuals), "ratio"),
    }
    return not problems, totals, metrics


def _setup_and_pass(workload, work: Path, seed: int, totals: dict, problems: list[str], tracer=None) -> Ops:
    """One set-up and one checked pass, both under *tracer* if one is given."""
    if tracer:
        tracer.install()
    try:
        state = workload.setup(_fresh(work), seed)
        ops = _pass(workload, state, totals)
    finally:
        if tracer:
            tracer.uninstall()
    _check(workload, state, problems)
    return ops


def per_layer(workload, work: Path, seed: int):
    from tracing import Tracer

    totals = {"attempted": 0, "failed": 0}
    problems: list[str] = []
    plain = _setup_and_pass(workload, work, seed, totals, problems)
    timed = Tracer()
    traced = _setup_and_pass(workload, work, seed, totals, problems, timed)
    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        _setup_and_pass(workload, work, seed, totals, problems, memory)
    finally:
        tracemalloc.stop()

    layers = timed.layer_metrics()
    peaks = memory.layer_metrics()
    for key, value in peaks.items():
        if key.endswith(".peak_mb"):
            layers[key] = value
        elif not key.endswith("_s") and value != layers[key]:
            problems.append(f"count {key} differs between traced passes: {layers[key]} vs {value}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    timed.write(out_dir / f"spans-{workload.__name__}-{seed}.jsonl")

    metrics = {}
    for key, value in layers.items():
        unit = "s" if key.endswith("_s") else "MB" if key.endswith("_mb") else "ratio" if key.endswith("_share") else "count"
        metrics[key] = (value, unit)
    for name in WORKLOADS:
        for step in importlib.import_module(name).STEPS:
            metrics[step] = (plain.steps.get(step, 0.0), "s")
    overhead = sum(traced.steps.values()) - sum(plain.steps.values())
    metrics["trace.overhead_s"] = (overhead, "s")
    return not problems, totals, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="write the inputs and stop")
    args = parser.parse_args(argv)

    if not (SRC / "satpinhole" / "__init__.py").is_file():
        print(f"bench: no satpinhole package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import satpinhole.cli  # noqa: F401 - loaded before any timing; set-up times a cold import itself

    workload = importlib.import_module(args.workload)
    work = ROOT / ".bench_work" / args.workload

    if args.setup_only:
        workload.setup(_fresh(work), args.seed)
        print(f"bench: inputs for {args.workload} seed {args.seed} are in {work}", file=sys.stderr)
        return 0
    try:
        if args.trace:
            correct, totals, metrics = per_layer(workload, work, args.seed)
        else:
            correct, totals, metrics = end_to_end(workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

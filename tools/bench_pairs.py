"""Run the benchmark on two source trees in alternating pairs and compare them.

Usage:
    python tools/bench_pairs.py PARENT CHANGE [--workloads W ...] [--pairs N]
        [--seconds S] [--seed0 K] --out PATH

PARENT and CHANGE are checkouts of this repository. For each workload
(default: every workload of CHANGE's ``BENCHMARK.json``), pair i runs
``python bench/run.py --workload W --seed K+i --seconds S --trace 0`` once on
each side. Each run gets a fresh copy of its tree in a temporary directory
outside both trees, so no run sees what an earlier one left. Even pairs run
the parent first, odd pairs the change first.

The script writes PATH as JSON: per workload and end-to-end metric, each
side's median, quartiles (inclusive method) and runs in pair order, the
number of pairs in which the change is better (in the direction
``BENCHMARK.json`` gives) and the number of tied pairs; then the operations
attempted and failed on each side, whether every run was correct, and
whether ``residual_rel`` read the same on both sides of every pair (each
pair has its own seed). It prints one table.
It exits 1 if a run could not report, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# What a run leaves in a tree, and the history a run has no use for.
UNCOPIED = (".git", ".bench_work", ".bench_out", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run of *workload* on a fresh copy of *tree*: its JSON result."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(*UNCOPIED))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True, check=False,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} on {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(results: dict, metrics: dict) -> dict:
    """The JSON section of one workload from its runs, ``results[side]`` in pair order."""
    out = {}
    for name, better in metrics.items():
        parent, change = ([r["metrics"][name]["value"] for r in results[side]] for side in SIDES)
        sign = -1.0 if better == "lower" else 1.0
        gains = [sign * (c - p) for p, c in zip(parent, change)]
        out[name] = {
            "parent": summary(parent),
            "change": summary(change),
            "change_better_pairs": sum(g > 0 for g in gains),
            "tied_pairs": sum(g == 0 for g in gains),
        }
    return {
        "metrics": out,
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "residual_rel_identical_in_every_pair": out["residual_rel"]["tied_pairs"] == len(results["parent"]),
    }


def table(report: dict) -> str:
    rows = [("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "better")]
    for workload, section in report["end_to_end"].items():
        for name, m in section["metrics"].items():
            p, c = m["parent"], m["change"]
            delta = f"{100.0 * (c['median'] - p['median']) / p['median']:+.1f}%" if p["median"] else "n/a"
            rows.append((
                workload, name,
                f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]",
                f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]",
                delta, f"{m['change_better_pairs']}/{section['pairs']}",
            ))
        state = "correct" if section["correct"] else "NOT CORRECT"
        rows.append((workload, "runs", state, f"failed {section['failed']['parent']} / {section['failed']['change']}", "", ""))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = dict(zip(SIDES, (args.parent, args.change)))

    report = {
        "harness": f"python bench/run.py --workload W --seed SEED --seconds {seconds:g} --trace 0, "
        "each run on a fresh copy of its tree",
        "machine": f"{platform.machine()} {platform.system()}, Python {platform.python_version()}, numpy {np.__version__}",
        "pairing": f"pair i runs seed {args.seed0} + i on both sides, the parent first in even pairs and the "
        "change first in odd ones; runs are listed in pair order; quartiles by the inclusive method; "
        "change_better_pairs counts the pairs where the change reads better",
        "end_to_end": {},
    }
    try:
        for workload in workloads:
            results = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    results[side].append(run_once(trees[side], workload, args.seed0 + i, seconds))
                print(f"bench_pairs: {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            section = {"pairs": args.pairs, "seed0": args.seed0, "seconds": seconds}
            report["end_to_end"][workload] = {**section, **compare(results, metrics)}
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

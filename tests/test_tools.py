import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall, rss, residual=1e-4, correct=True):
    metrics = {"wall_s": wall, "peak_rss_mb": rss, "residual_rel": residual}
    return {"correct": correct, "attempted": 10, "failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}


def test_bench_pairs_summarizes_each_side_and_counts_pairs_by_direction():
    bench_pairs = _load("bench_pairs")
    results = {
        "parent": [_run(1.0, 50.0), _run(2.0, 50.0), _run(3.0, 52.0), _run(4.0, 50.0)],
        "change": [_run(0.5, 50.0), _run(2.5, 51.0), _run(2.0, 50.0), _run(3.0, 49.0)],
    }
    better = {"wall_s": "lower", "peak_rss_mb": "lower", "residual_rel": "lower"}
    section = bench_pairs.compare(results, better)
    wall = section["metrics"]["wall_s"]
    # Inclusive quartiles of 1, 2, 3, 4; runs stay in pair order.
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [1.0, 2.0, 3.0, 4.0]}
    assert (wall["change_better_pairs"], wall["tied_pairs"]) == (3, 0)
    rss = section["metrics"]["peak_rss_mb"]
    assert (rss["change_better_pairs"], rss["tied_pairs"]) == (2, 1)
    assert section["metrics"]["residual_rel"]["tied_pairs"] == 4
    assert section["residual_rel_identical_in_every_pair"] and section["correct"]
    assert section["attempted"] == {"parent": 40, "change": 40}

    higher = bench_pairs.compare(results, {**better, "wall_s": "higher"})
    assert higher["metrics"]["wall_s"]["change_better_pairs"] == 1
    results["change"][2] = _run(2.0, 50.0, residual=1.5e-4)
    assert not bench_pairs.compare(results, better)["residual_rel_identical_in_every_pair"]
    single = bench_pairs.summary([0.25])
    assert single == {"median": 0.25, "q1": 0.25, "q3": 0.25, "runs": [0.25]}

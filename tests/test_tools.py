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



def _claim(parent, change, better="lower"):
    """The wall_s section of :func:`compare` on pairs of the given wall times."""
    results = {"parent": [_run(w, 50.0) for w in parent], "change": [_run(w, 50.0) for w in change]}
    metrics = {"wall_s": better, "peak_rss_mb": "lower", "residual_rel": "lower"}
    return _load("bench_pairs").compare(results, metrics)["metrics"]["wall_s"]


def test_bench_pairs_claim_needs_nine_tenths_of_pairs_and_a_gap_past_the_parent_spread():
    parent = [0.40, 0.38, 0.39, 0.41, 0.40, 0.39, 0.38, 0.40, 0.42, 0.39]
    faster = [p - 0.06 for p in parent]
    # Better in all ten pairs by 0.06 s; the parent's q3 - q1 is 0.01 s.
    met = _claim(parent, faster)
    assert met["claim_met"] and met["change_better_pairs"] == 10
    assert abs(met["median_gain"] - 0.06) < 1e-12 and abs(met["parent_spread"] - 0.01) < 1e-12
    # Nine of ten pairs is enough, eight is not.
    assert _claim(parent, faster[:9] + [0.5])["claim_met"]
    assert not _claim(parent, faster[:8] + [0.5, 0.5])["claim_met"]
    # Better in every pair, but by less than the parent's own spread.
    assert not _claim(parent, [p - 0.005 for p in parent])["claim_met"]
    # The direction comes from the metric: lower runs are worse when higher is better.
    assert not _claim(parent, faster, "higher")["claim_met"]
    assert _claim(parent, [p + 0.06 for p in parent], "higher")["claim_met"]


def test_bench_pairs_claim_counts_a_tied_pair_for_neither_side():
    wall = _claim([1.0] * 10, [0.5] * 9 + [1.0])
    assert (wall["change_better_pairs"], wall["tied_pairs"], wall["claim_met"]) == (9, 1, True)
    wall = _claim([1.0] * 10, [1.0] + [0.5] * 8 + [1.0])
    assert (wall["change_better_pairs"], wall["tied_pairs"], wall["claim_met"]) == (8, 2, False)


def test_bench_pairs_verdict_holds_the_median_to_the_bound_unless_the_parent_spread_is_wider():
    verdict = _load("bench_pairs").verdict
    parent = [0.40, 0.38, 0.39, 0.41, 0.40, 0.39, 0.38, 0.40, 0.42, 0.39]
    # The parent's q3 - q1 is 0.01 s, 2.5% of its 0.395 s median.
    within = verdict(_claim(parent, [p * 1.2 for p in parent]), "lower", 0.25)
    assert within["verdict"] == "within" and abs(within["worse_rel"] - 0.2) < 1e-12
    assert abs(within["parent_spread_rel"] - 0.01 / 0.395) < 1e-12
    assert verdict(_claim(parent, [p * 1.3 for p in parent]), "lower", 0.25)["verdict"] == "worse"
    # Slower by 30% reads better, by the same share, where higher is better.
    higher = verdict(_claim(parent, [p * 1.3 for p in parent], "higher"), "higher", 0.25)
    assert higher["verdict"] == "within" and abs(higher["worse_rel"] + 0.3) < 1e-12
    # A parent spread wider than the bound leaves any median unresolved...
    noisy = [0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4]
    assert verdict(_claim(noisy, noisy), "lower", 0.25)["verdict"] == "unresolved"
    # ... unless every change run reads better than every parent run.
    assert verdict(_claim(noisy, [0.19] * 10), "lower", 0.25)["verdict"] == "within"
    # A zero parent median takes no share: equal medians are within, a worse one is not.
    assert verdict(_claim([0.0] * 10, [0.0] * 10), "lower", 0.05)["verdict"] == "within"
    assert verdict(_claim([0.0] * 10, [1e-9] * 10), "lower", 0.05)["verdict"] == "worse"

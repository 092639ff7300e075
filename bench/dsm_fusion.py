"""Workload ``dsm_fusion``: ``fuse`` five height grids, then score the result.

Set-up builds a fractal truth grid and five views of it on one lattice. Every
view carries uniform noise of amplitude ``NOISE_M``; in a share of the cells
one view is off by +-30 m and, independently, one other view has a nodata
hole, so that every cell keeps at least three inlier views. The views and the
truth are written as ASCII grids. One pass runs ``satpinhole fuse`` (mean of
the MAD survivors, so a kept outlier would move a cell by metres) and
``satpinhole metrics`` of the fused grid against the truth.
"""

from __future__ import annotations

import numpy as np

from common import read_grid, read_keyed

STEPS = ("fuse_s", "metrics_s")
SIZE = 512
N_VIEWS = 5
NOISE_M = 0.25
OUTLIER_M = 30.0
OUTLIER_SHARE = 0.15
HOLE_SHARE = 0.10
NODATA = -9999.0
THRESHOLDS = (0.1, 0.2, 0.5)


def setup(work, seed):
    from satpinhole.raster import Raster, save_ascii_grid
    from satpinhole.synth import make_terrain

    rng = np.random.default_rng([seed, 3])
    truth = make_terrain(seed, SIZE, relief=80.0).values
    shape = truth.shape
    views = truth[None] + rng.uniform(-NOISE_M, NOISE_M, (N_VIEWS,) + shape)
    cells = np.indices(shape)
    outlier_view = rng.integers(0, N_VIEWS, shape)
    has_outlier = rng.random(shape) < OUTLIER_SHARE
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    views[outlier_view, cells[0], cells[1]] += np.where(has_outlier, sign * OUTLIER_M, 0.0)
    # The hole goes to a view other than the outlier's.
    hole_view = (outlier_view + rng.integers(1, N_VIEWS, shape)) % N_VIEWS
    has_hole = rng.random(shape) < HOLE_SHARE
    views[hole_view, cells[0], cells[1]] = np.where(
        has_hole, NODATA, views[hole_view, cells[0], cells[1]]
    )

    paths = [work / f"view_{v}.asc" for v in range(N_VIEWS)]
    for v, path in enumerate(paths):
        save_ascii_grid(Raster(values=views[v], nodata=NODATA), path)
    save_ascii_grid(Raster(values=truth, nodata=NODATA), work / "truth.asc")
    return {"work": work, "views": paths, "truth": truth}


def run_pass(ops, state):
    work = state["work"]
    for name in ("fused.asc", "report.txt"):
        (work / name).unlink(missing_ok=True)
    ops.cli("fuse_s", ["fuse", *state["views"], "--out", work / "fused.asc", "--aggregator", "mean"])
    ops.cli("metrics_s", [
        "metrics", work / "fused.asc", work / "truth.asc",
        "--thresholds", *THRESHOLDS, "--report", work / "report.txt",
    ])


def check(state):
    """Return (problems, fused RMSE over the noise amplitude)."""
    problems = []
    work = state["work"]
    truth = state["truth"]
    hdr, fused = read_grid(work / "fused.asc")
    valid = fused != hdr["nodata_value"]
    if fused.shape != truth.shape or not valid.all():
        problems.append(f"fused grid {fused.shape} has {int((~valid).sum())} nodata cells")
        return problems, float("nan")
    resid = fused - truth
    worst = float(np.max(np.abs(resid)))
    if not worst <= NOISE_M:
        problems.append(f"a fused cell is {worst:.3g} m from truth (noise amplitude {NOISE_M} m)")

    abs_resid = np.abs(resid)
    expected = {
        "RMSE_M": np.sqrt(np.mean(resid**2)),
        "ME_M": np.median(abs_resid),
        "MAE_M": np.mean(abs_resid),
        "N_OVERLAP": resid.size,
        "N_TRUTH": truth.size,
    }
    expected.update({f"COMP_{t:.17g}": np.sum(abs_resid < t) / truth.size for t in THRESHOLDS})
    report = read_keyed(work / "report.txt")
    for key, want in expected.items():
        want = float(want)
        got = float(report[key][0]) if key in report else float("nan")
        if not abs(got - want) <= 1e-12 * abs(want):
            problems.append(f"metrics report {key} = {got!r}, numpy gives {want!r}")
    return problems, float(expected["RMSE_M"] / NOISE_M)

"""Acceptance suite: one test per contract-level property of the toolkit.

Each test prints a single ``[PASS]``/``[FAIL]`` line summarizing the measured
quantities (run with ``pytest -s`` to see them live), then asserts. The
properties cover exact-model recovery, error scaling with image size,
refinement ordering, the first-order error predictor, the spatial error
pattern, metric and fusion oracles, serialization round-trips, and the full
tiled pipeline.
"""

import math
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest

from satpinhole.cli import main
from satpinhole.equivalence import (
    equate,
    fit_equivalence,
    format_camera,
    measure_equivalence_error,
    parse_camera,
)
from satpinhole.error_analysis import (
    error_field,
    predict_error,
    size_sweep,
)
from satpinhole.fusion import FusionConfig, dsm_metrics, fuse_views
from satpinhole.geodesy import geodetic_to_enu
from satpinhole.raster import Raster, format_ascii_grid, parse_ascii_grid
from satpinhole.refinement import build_refinement, fit_polynomial, format_warp, parse_warp
from satpinhole.rpc import (
    format_rpc,
    load_rpc,
    parse_rpc,
    project_forward,
    project_inverse,
)
from satpinhole.synth import fit_scene_rpc, make_pinhole_scene, make_pushbroom_scene
from satpinhole.tiling import parse_manifest

SWEEP_SEEDS = (3, 5, 11, 23, 42)
FULL_SIZE = (1024, 1024)


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def battery():
    """Seeded pushbroom scenes with fitted models and equivalent cameras."""
    items = []
    for seed in SWEEP_SEEDS:
        scene = make_pushbroom_scene(seed, FULL_SIZE)
        model, _ = fit_scene_rpc(scene)
        eq = fit_equivalence(model, FULL_SIZE)
        items.append(
            SimpleNamespace(
                seed=seed, scene=scene, model=model, camera=eq.camera, report=eq.report, eq=eq
            )
        )
    return items


def test_exact_pinhole_recovery():
    t0 = time.perf_counter()
    scene = make_pinhole_scene(7, (512, 512))
    model, _ = fit_scene_rpc(scene)
    camera, report = equate(model, (512, 512))
    elapsed = time.perf_counter() - t0

    gen = scene.camera
    rel = max(
        np.linalg.norm(camera.k - gen.k) / np.linalg.norm(gen.k),
        np.linalg.norm(camera.r - gen.r) / np.linalg.norm(gen.r),
        np.linalg.norm(camera.t - gen.t) / np.linalg.norm(gen.t),
    )
    ok = report.rmse < 1e-3 and rel < 1e-6 and elapsed < 5.0
    _verdict(
        "exact pinhole recovery",
        ok,
        f"held-out rmse={report.rmse:.3g} px (<1e-3), "
        f"K/R/t rel err={rel:.3g} (<1e-6), {elapsed:.2f} s (<5)",
    )


def test_error_shrinks_with_image_size(battery):
    t0 = time.perf_counter()
    sizes = (1024, 768, 512, 256, 128)
    worst_ratio = 0.0
    monotone = True
    for item in battery:
        sweep = size_sweep(item.model, FULL_SIZE, sizes)
        rmses = [rep.rmse for _, rep in sweep]
        steps = np.diff(rmses)
        monotone = monotone and bool((steps < 0).all())
        worst_ratio = max(worst_ratio, rmses[-1] / rmses[0])
    elapsed = time.perf_counter() - t0
    ok = monotone and worst_ratio < 0.5 and elapsed < 60.0
    _verdict(
        "error shrinks with image size",
        ok,
        f"{len(battery)} scenes x {len(sizes)} crops strictly decreasing={monotone}, "
        f"worst smallest/full ratio={worst_ratio:.3f} (<0.5), {elapsed:.1f} s (<60)",
    )


def test_polynomial_refinement_ordering(battery):
    t0 = time.perf_counter()
    improved = []
    no_worse_than_homography = []
    for item in battery:
        fit_grid, val_grid = item.eq.fit_grid, item.eq.val_grid
        poly = build_refinement(item.model, item.camera, fit_grid, kind="polynomial")
        homo = build_refinement(item.model, item.camera, fit_grid, kind="homography")
        pre = item.eq.report.rmse
        post_p = measure_equivalence_error(item.model, item.camera, val_grid, warp=poly).rmse
        post_h = measure_equivalence_error(item.model, item.camera, val_grid, warp=homo).rmse
        improved.append(post_p < pre)
        no_worse_than_homography.append(post_p <= post_h + 1e-9)
    elapsed = time.perf_counter() - t0
    ok = all(improved) and all(no_worse_than_homography) and elapsed < 60.0
    _verdict(
        "polynomial refinement ordering",
        ok,
        f"poly<uncorrected on {sum(improved)}/{len(battery)} scenes, "
        f"poly<=homography on {sum(no_worse_than_homography)}/{len(battery)}, "
        f"{elapsed:.1f} s (<60)",
    )


def test_depth_error_predictor():
    t0 = time.perf_counter()
    scene = make_pushbroom_scene(13, FULL_SIZE)
    cam = scene.camera
    lat, lon, alt = scene.volume.sample_grid((25, 25, 9))
    e, n, u = geodetic_to_enu(lat, lon, alt, scene.anchor)
    pts = np.column_stack([e, n, u, np.ones(e.size)])

    z = pts @ cam.c
    z_mean = float(z.mean())
    # The sample coordinate is perspective; strip the principal point to get
    # the centered coordinate, then form its weak-perspective twin by
    # replacing per-point depth with the mean depth.
    cx = -cam.b[2]
    numer = pts @ cam.b - cx * z
    x_persp = numer / z
    x_weak = numer / z_mean
    empirical = x_persp - x_weak

    predicted = predict_error(x_persp, z, z_mean)
    half_width = FULL_SIZE[0] / 2.0
    sel = np.abs(x_persp) > 0.1 * half_width
    emp = empirical[sel]
    pred = predicted[sel]
    tiny = 1e-12
    ratio_ok = (np.abs(pred) <= 2.0 * np.abs(emp) + tiny) & (
        np.abs(pred) >= 0.5 * np.abs(emp) - tiny
    ) & (np.sign(pred) == np.sign(emp))
    frac = float(ratio_ok.mean())
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.9 and sel.sum() > 1000 and elapsed < 10.0
    _verdict(
        "depth error predictor",
        ok,
        f"within factor 2 on {100 * frac:.1f}% of {int(sel.sum())} off-axis points "
        f"(>=90%), {elapsed:.1f} s (<10)",
    )


def test_peripheral_error_dominance(battery):
    margins = []
    for item in battery:
        field = error_field(item.model, item.camera, FULL_SIZE, 64.0)
        nrows, ncols = field.values.shape
        cell = field.cell_size
        xs = (np.arange(ncols) + 0.5) * cell
        ys = (np.arange(nrows) + 0.5) * cell
        dx = np.abs(xs - FULL_SIZE[0] / 2.0) / (FULL_SIZE[0] / 2.0)
        dy = np.abs(ys - FULL_SIZE[1] / 2.0) / (FULL_SIZE[1] / 2.0)
        reach = np.maximum(dx[None, :], dy[:, None])
        valid = field.values != field.nodata
        outer = valid & (reach >= 0.8)
        central = valid & (reach <= 0.2)
        assert outer.any() and central.any()
        margins.append(float(field.values[outer].mean() / field.values[central].mean()))
    ok = all(m >= 1.0 for m in margins)
    _verdict(
        "peripheral error dominance",
        ok,
        "outer/central mean error ratios: " + ", ".join(f"{m:.2f}" for m in margins) + " (all >=1)",
    )


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(99)
    thresholds = (0.5, 2.0, 5.0)
    mismatches = 0
    for _ in range(100):
        nrows = int(rng.integers(4, 33))
        ncols = int(rng.integers(4, 33))
        est_v = rng.uniform(0.0, 50.0, (nrows, ncols))
        tru_v = est_v + rng.normal(0.0, 2.0, (nrows, ncols))
        est_v[rng.random((nrows, ncols)) < rng.uniform(0.0, 0.4)] = -9999.0
        tru_v[rng.random((nrows, ncols)) < rng.uniform(0.0, 0.4)] = -9999.0
        est_v[0, 0] = 5.0
        tru_v[0, 0] = 4.0

        result = dsm_metrics(
            Raster(values=est_v, cell_size=1.0, origin=(0.0, 0.0)),
            Raster(values=tru_v, cell_size=1.0, origin=(0.0, 0.0)),
            thresholds,
        )

        # Independent per-cell evaluation with scalar arithmetic.
        residuals = []
        n_truth = 0
        hits = {t: 0 for t in thresholds}
        for i in range(nrows):
            for j in range(ncols):
                t_ok = tru_v[i, j] != -9999.0
                e_ok = est_v[i, j] != -9999.0
                if t_ok:
                    n_truth += 1
                if t_ok and e_ok:
                    r = est_v[i, j] - tru_v[i, j]
                    residuals.append(r)
                    for t in thresholds:
                        if abs(r) < t:
                            hits[t] += 1
        rmse = math.sqrt(sum(r * r for r in residuals) / len(residuals))
        mae = sum(abs(r) for r in residuals) / len(residuals)
        me = statistics.median(abs(r) for r in residuals)

        def close(a, b):
            return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)

        agree = (
            close(result.rmse, rmse)
            and close(result.mae, mae)
            and close(result.me, me)
            and result.n_truth == n_truth
            and result.n_overlap == len(residuals)
            and all(close(frac, hits[t] / n_truth) for t, frac in result.comp)
        )
        mismatches += 0 if agree else 1
    ok = mismatches == 0
    _verdict(
        "metric oracle equivalence",
        ok,
        f"{100 - mismatches}/100 random raster pairs match the brute-force "
        f"evaluation to 1e-12 relative",
    )


def test_fusion_outlier_rejection():
    rng = np.random.default_rng(7)
    shape = (25, 40)  # 1000 cells
    base = rng.uniform(0.0, 100.0, shape)
    deltas = (-0.3, -0.1, 0.1, 0.3)
    inliers = [base + d + rng.uniform(-0.02, 0.02, shape) for d in deltas]
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    outlier = base + sign * 30.0

    views = [
        Raster(values=v, cell_size=1.0, origin=(0.0, 0.0))
        for v in inliers + [outlier]
    ]
    fused = fuse_views(views, FusionConfig(aggregator="mean", min_neighbors=1))
    expected = np.mean(inliers, axis=0)
    max_dev = float(np.max(np.abs(fused.values - expected)))
    # Keeping the outlier in any cell would shift the mean by ~7.5; dropping
    # any inlier shifts it by >= 0.05. Exact agreement proves 1000/1000
    # rejections with zero inlier loss.
    ok = max_dev < 1e-9
    _verdict(
        "fusion outlier rejection",
        ok,
        f"fused equals inlier mean on all {shape[0] * shape[1]} cells "
        f"(max deviation {max_dev:.2g} < 1e-9)",
    )


def test_round_trip_and_inverse(battery):
    item = battery[0]
    model = item.model
    camera = item.camera

    rpc_text = format_rpc(model)
    rpc_ok = format_rpc(parse_rpc(rpc_text)) == rpc_text

    cam_text = format_camera(camera)
    cam_ok = format_camera(parse_camera(cam_text)) == cam_text

    rng = np.random.default_rng(0)
    src = rng.uniform(0.0, 1024.0, (50, 2))
    warp = fit_polynomial(src, src + rng.normal(0.0, 0.5, (50, 2)))
    warp_text = format_warp(warp)
    warp_ok = format_warp(parse_warp(warp_text)) == warp_text

    values = rng.uniform(-50.0, 500.0, (40, 30))
    values[rng.random((40, 30)) < 0.1] = -9999.0
    grid_text = format_ascii_grid(Raster(values=values, cell_size=2.5, origin=(7.0, -3.0)))
    grid_ok = format_ascii_grid(parse_ascii_grid(grid_text)) == grid_text

    n = 10_000
    lat = rng.uniform(model.lat_off - model.lat_scale, model.lat_off + model.lat_scale, n)
    lon = rng.uniform(model.lon_off - model.lon_scale, model.lon_off + model.lon_scale, n)
    alt = rng.uniform(model.alt_off - model.alt_scale, model.alt_off + model.alt_scale, n)
    samp, line = project_forward(model, lat, lon, alt)
    lat2, lon2 = project_inverse(model, samp, line, alt)
    samp2, line2 = project_forward(model, lat2, lon2, alt)
    max_px = float(np.max(np.hypot(samp2 - samp, line2 - line)))
    inverse_ok = max_px < 0.01

    ok = rpc_ok and cam_ok and warp_ok and grid_ok and inverse_ok
    _verdict(
        "round trips and inverse",
        ok,
        f"byte-identical rpc={rpc_ok} camera={cam_ok} warp={warp_ok} grid={grid_ok}, "
        f"forward/inverse max {max_px:.2g} px over {n} points (<0.01)",
    )


def test_end_to_end_tiling_pipeline(tmp_path):
    t0 = time.perf_counter()
    scene_dir = tmp_path / "scene"
    tile_dir = tmp_path / "tiles"
    size = 2048

    # A wide footprint with moderate relief keeps each tile's residual
    # dominated by the in-plane systematic component that a 2D warp can
    # absorb; with a narrow footprint over tall terrain the per-tile error
    # is mostly altitude-coupled and no image-space warp can reduce it.
    rc = main(
        [
            "synth", "--kind", "pushbroom", "--seed", "21",
            "--out-dir", str(scene_dir), "--image-size", str(size), str(size),
            "--extent-deg", "0.16", "--relief", "60",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "partition",
            str(scene_dir / "image.asc"),
            str(scene_dir / "rpc.txt"),
            "--out-dir", str(tile_dir),
            "--tile-size", "512",
            "--overlap", "64",
        ]
    )
    assert rc == 0

    plan, _, rpc_names = parse_manifest((tile_dir / "tiles.txt").read_text())
    dims = (20, 20, 10)
    tile_size = plan.tile_size
    improvements = []
    for name in rpc_names:
        model = load_rpc(tile_dir / name)
        eq = fit_equivalence(model, tile_size, dims=dims)
        camera, pre = eq.camera, eq.report
        warp = build_refinement(model, camera, eq.fit_grid, kind="polynomial")
        post = measure_equivalence_error(model, camera, eq.val_grid, warp=warp).rmse
        field = error_field(model, camera, tile_size, 64.0)
        assert (field.values != field.nodata).any()
        improvements.append(post < pre.rmse)
    elapsed = time.perf_counter() - t0

    ok = (
        len(plan.tiles) == 25
        and all(improvements)
        and elapsed < 300.0
    )
    _verdict(
        "end-to-end tiling pipeline",
        ok,
        f"{size}x{size} scene -> {len(plan.tiles)} tiles, refinement improved "
        f"{sum(improvements)}/{len(improvements)} tiles, {elapsed:.0f} s (<300)",
    )

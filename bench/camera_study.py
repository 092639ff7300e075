"""Workload ``camera_study``: the paper's equivalence-error experiment.

Set-up fits a battery of seeded synthetic models and writes each as
``rpc.txt``. One pass loads every model and runs, through the library: the
equivalent camera at the default and at a dense grid, the polynomial and the
homography warp scored on the staggered validation grid, the error field at
32 px cells and a five-crop size sweep; then it localizes seeded ground
points with ``project_inverse``. No raster is read and no image is rendered.
"""

from __future__ import annotations

import numpy as np

STEPS = ("convert_s", "localize_s")
# (kind, image edge in pixels); each entry gets its own seed.
BATTERY = (("pushbroom", 1024), ("pushbroom", 2048), ("pinhole", 512), ("pinhole", 1024))
DENSE_DIMS = (30, 30, 15)
CELL_PX = 32.0
N_LOCALIZE = 10_000


def setup(work, seed):
    from satpinhole.rpc import save_rpc
    from satpinhole.synth import fit_scene_rpc, make_pinhole_scene, make_pushbroom_scene

    makers = {"pinhole": make_pinhole_scene, "pushbroom": make_pushbroom_scene}
    rng = np.random.default_rng([seed, 2])
    models = []
    for i, (kind, edge) in enumerate(BATTERY):
        scene = makers[kind](len(BATTERY) * seed + i, (edge, edge))
        model, _ = fit_scene_rpc(scene)
        path = work / f"model_{i}.rpc"
        save_rpc(model, path)
        models.append({
            "kind": kind,
            "size": (edge, edge),
            "path": path,
            "truth": scene.camera,
            "ground": rng.uniform(-1.0, 1.0, (N_LOCALIZE, 3)),
        })
    return {"models": models}


def run_pass(ops, state):
    from satpinhole.equivalence import build_virtual_grid, equate
    from satpinhole.error_analysis import error_field, measure_equivalence_error, size_sweep
    from satpinhole.refinement import build_refinement
    from satpinhole.rpc import load_rpc, project_forward, project_inverse

    for m in state["models"]:
        r = m["out"] = {}
        model = ops.call("convert_s", load_rpc, m["path"])
        size = m["size"]
        dims = (20, 20, 10)
        val_dims = tuple(2 * d for d in dims)
        r["default"] = ops.call("convert_s", equate, model, size, dims)
        ops.call("convert_s", equate, model, size, DENSE_DIMS)
        camera = r["default"][0] if r["default"] else None
        fit = ops.call("convert_s", build_virtual_grid, model, size, dims)
        val = ops.call("convert_s", build_virtual_grid, model, size, val_dims, stagger=True)
        for kind in ("polynomial", "homography"):
            warp = ops.call("convert_s", build_refinement, model, camera, fit, kind=kind)
            r[kind] = ops.call("convert_s", measure_equivalence_error, model, camera, val, warp=warp)
        r["field"] = ops.call("convert_s", error_field, model, camera, size, CELL_PX)
        crops = [size[0] * k // 8 for k in (8, 6, 4, 2, 1)]
        r["sweep"] = ops.call("convert_s", size_sweep, model, size, crops)

        g = m["ground"]
        lat = model.lat_off + g[:, 0] * model.lat_scale
        lon = model.lon_off + g[:, 1] * model.lon_scale
        alt = model.alt_off + g[:, 2] * model.alt_scale
        pix = ops.call("convert_s", project_forward, model, lat, lon, alt)
        r["pix"] = pix
        r["alt"] = alt
        r["model"] = model
        r["inverse"] = ops.call("localize_s", project_inverse, model, pix[0], pix[1], alt)


def _ring_ratio(field, size):
    """Mean error in the outer ring of the image over the central mean."""
    v = field.values
    valid = v != field.nodata
    ys = (np.arange(v.shape[0]) + 0.5) * field.cell_size
    xs = (np.arange(v.shape[1]) + 0.5) * field.cell_size
    reach = np.maximum(
        np.abs(xs[None, :] - size[0] / 2) / (size[0] / 2),
        np.abs(ys[:, None] - size[1] / 2) / (size[1] / 2),
    )
    return float(v[valid & (reach >= 0.8)].mean() / v[valid & (reach <= 0.2)].mean())


def check(state):
    """Return (problems, mean post-warp RMSE over image edge of the pushbroom models)."""
    from satpinhole.rpc import project_forward

    problems = []
    residuals = []
    for i, m in enumerate(state["models"]):
        r = m["out"]
        tag = f"model {i} ({m['kind']} {m['size'][0]})"
        camera, report = r["default"]
        if m["kind"] == "pinhole":
            truth = m["truth"]
            rel = max(
                np.linalg.norm(getattr(camera, a) - getattr(truth, a)) / np.linalg.norm(getattr(truth, a))
                for a in ("k", "r", "t")
            )
            if not (rel < 1e-6 and report.rmse < 1e-3):
                problems.append(f"{tag}: K/R/t off by {rel:.3g} relative, rmse {report.rmse:.3g} px")
        else:
            sweep = [rep.rmse for _, rep in r["sweep"]]
            if not all(b < a for a, b in zip(sweep, sweep[1:])):
                problems.append(f"{tag}: size sweep RMSE does not fall as crops shrink: {sweep}")
            poly, homo = r["polynomial"].rmse, r["homography"].rmse
            if not (poly < report.rmse and poly <= homo + 1e-9):
                problems.append(f"{tag}: polynomial {poly:.4g} vs none {report.rmse:.4g}, homography {homo:.4g} px")
            ring = _ring_ratio(r["field"], m["size"])
            if not ring > 1.0:
                problems.append(f"{tag}: outer-ring error is {ring:.3g} of the central error")
            residuals.append(poly / m["size"][0])
        lat, lon = r["inverse"]
        samp, line = project_forward(r["model"], lat, lon, r["alt"])
        gap = float(np.max(np.hypot(samp - r["pix"][0], line - r["pix"][1])))
        if not gap < 0.01:
            problems.append(f"{tag}: forward(inverse) misses by {gap:.3g} px")
    return problems, float(np.mean(residuals))

"""Command-line interface for the camera equivalence toolkit.

Subcommands cover the batch workflow end to end: inspect a rational model,
derive its equivalent pinhole camera, fit an image refinement warp, split a
scene into tiles with cropped models, rate equivalence error over the image,
fuse height maps from several views, score a height map against truth, and
generate synthetic test scenes.

All failures print a single ``error: <category>: <message>`` line on stderr
and exit nonzero; exit status 0 means every requested output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .equivalence import (
    DEFAULT_GRID_DIMS,
    equate,
    fit_equivalence,
    format_equivalence_report,
    load_camera,
    measure_equivalence_error,
    save_camera,
)
from .error_analysis import error_field, write_field_preview
from .errors import DegenerateError
from .fusion import FusionConfig, dsm_metrics, format_metrics_report, fuse_views
from .kvio import fmt, format_kv, write_file
from .raster import load_ascii_grid, save_ascii_grid
from .refinement import build_refinement, resample, save_warp
from .rpc import load_rpc, save_rpc
from .synth import fit_scene_rpc, make_pinhole_scene, make_pushbroom_scene, render_image
from .tiling import crop_raster, crop_rpc, enhance_brightness, format_manifest, plan_tiles

# How far a warp may raise the validation RMSE before refine refuses it. A
# warp fit to an exact pinhole leaves the error at rounding level, where it
# moves by about 1e-13 px either way; 1e-9 px is far above that and far
# below any error a warp is fit to remove.
_WARP_RMSE_TOLERANCE_PX = 1e-9


def _category_for(exc: Exception) -> str | None:
    """The stable word that names *exc*'s category on stderr, so scripts can
    branch on it without parsing prose; None for a bug."""
    category = getattr(type(exc), "category", None)
    if category is not None:
        return category
    if isinstance(exc, OSError):
        return "io"
    if isinstance(exc, (ValueError, MemoryError)):
        return "invalid"
    return None


def cmd_inspect(args) -> int:
    model = load_rpc(args.rpc)
    info = {
        "samp_off": model.samp_off,
        "line_off": model.line_off,
        "samp_scale": model.samp_scale,
        "line_scale": model.line_scale,
        "lat_off": model.lat_off,
        "lon_off": model.lon_off,
        "alt_off": model.alt_off,
        "lat_scale": model.lat_scale,
        "lon_scale": model.lon_scale,
        "alt_scale": model.alt_scale,
        "samp_num_max": float(np.max(np.abs(model.samp_num))),
        "samp_den_max": float(np.max(np.abs(model.samp_den))),
        "line_num_max": float(np.max(np.abs(model.line_num))),
        "line_den_max": float(np.max(np.abs(model.line_den))),
    }
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(format_kv(info.items()), end="")
    return 0


def cmd_equate(args) -> int:
    model = load_rpc(args.rpc)
    camera, report = equate(model, tuple(args.image_size), dims=tuple(args.grid))
    save_camera(camera, args.camera)
    if args.report:
        write_file(args.report, format_equivalence_report(report))
    print(
        f"equivalent camera: rmse_px={fmt(report.rmse)} "
        f"max_px={fmt(report.max_error)} points={report.n_points}"
    )
    return 0


def cmd_refine(args) -> int:
    model = load_rpc(args.rpc)
    image_size = tuple(args.image_size)
    image = None
    if args.corrected and not args.image:
        raise ValueError("--corrected requires --image for the input image")
    if args.image:
        if not args.corrected:
            raise ValueError("--image requires --corrected for the output path")
        image = load_ascii_grid(args.image)
        if (image.ncols, image.nrows) != image_size:
            raise ValueError(
                f"--image is {image.ncols} x {image.nrows} pixels but --image-size "
                f"is {image_size[0]} x {image_size[1]}; the warp is fitted in the "
                "pixels of --image-size"
            )
    eq = fit_equivalence(model, image_size, dims=tuple(args.grid))
    camera, before = eq.camera, eq.report
    warp = build_refinement(model, camera, eq.fit_grid)
    after = measure_equivalence_error(model, camera, eq.val_grid, warp=warp)
    if after.rmse > before.rmse + _WARP_RMSE_TOLERANCE_PX:
        raise DegenerateError(
            f"the polynomial warp raises the validation rmse_px from {fmt(before.rmse)} "
            f"to {fmt(after.rmse)}; nothing written"
        )

    save_warp(warp, args.warp)
    if args.camera:
        save_camera(camera, args.camera)
    if args.report_before:
        write_file(args.report_before, format_equivalence_report(before))
    if args.report_after:
        write_file(args.report_after, format_equivalence_report(after))
    if image is not None:
        save_ascii_grid(resample(image, warp), args.corrected)
    print(f"refined (polynomial): rmse_px {fmt(before.rmse)} -> {fmt(after.rmse)}")
    return 0


def cmd_partition(args) -> int:
    image = load_ascii_grid(args.image)
    model = load_rpc(args.rpc)
    plan = plan_tiles((image.ncols, image.nrows), args.tile_size, args.overlap)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    image_names = [f"tile_{i:03d}.asc" for i in range(len(plan.tiles))]
    rpc_names = [f"tile_{i:03d}.rpc" for i in range(len(plan.tiles))]
    for tile, image_name, rpc_name in zip(plan.tiles, image_names, rpc_names):
        sub = crop_raster(image, tile)
        if args.enhance:
            sub = enhance_brightness(sub)
        save_ascii_grid(sub, out_dir / image_name)
        save_rpc(crop_rpc(model, (tile.col, tile.row)), out_dir / rpc_name)

    write_file(out_dir / "tiles.txt", format_manifest(plan, image_names, rpc_names))
    print(f"wrote {len(plan.tiles)} tiles and tiles.txt to {out_dir}")
    return 0


def cmd_error_map(args) -> int:
    model = load_rpc(args.rpc)
    camera = load_camera(args.camera)
    field = error_field(model, camera, tuple(args.image_size), args.cell)
    save_ascii_grid(field, args.out)
    if args.preview:
        write_field_preview(field, args.preview)
    valid = field.valid_values()
    if valid.size:
        print(f"error map: mean_px={fmt(float(valid.mean()))} max_px={fmt(float(valid.max()))}")
    else:
        print("error map: no valid cells")
    return 0


def cmd_fuse(args) -> int:
    config = FusionConfig(
        mad_k=args.mad_k,
        mad_floor=args.mad_floor,
        radius=args.radius,
        min_neighbors=args.min_neighbors,
        aggregator=args.aggregator,
    )
    dsms = [load_ascii_grid(p) for p in args.dsms]
    fused = fuse_views(dsms, config)
    save_ascii_grid(fused, args.out)
    n_valid = int(fused.valid_mask().sum())
    print(f"fused {len(dsms)} views: {n_valid} valid cells")
    return 0


def cmd_metrics(args) -> int:
    estimate = load_ascii_grid(args.estimate)
    truth = load_ascii_grid(args.truth)
    result = dsm_metrics(estimate, truth, thresholds=tuple(args.thresholds))
    text = format_metrics_report(result)
    if args.report:
        write_file(args.report, text)
    print(text, end="")
    return 0


def cmd_synth(args) -> int:
    makers = {"pinhole": make_pinhole_scene, "pushbroom": make_pushbroom_scene}
    maker = makers[args.kind]
    kwargs = {}
    if args.image_size is not None:
        kwargs["image_size"] = tuple(args.image_size)
    if args.relief is not None:
        kwargs["relief"] = args.relief
    if args.sensor_height is not None:
        kwargs["sensor_height"] = args.sensor_height
    if args.extent_deg is not None:
        kwargs["extent_deg"] = args.extent_deg
    scene = maker(args.seed, **kwargs)
    model, fit_rms = fit_scene_rpc(scene)
    image = render_image(scene)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_rpc(model, out_dir / "rpc.txt")
    save_ascii_grid(image, out_dir / "image.asc")
    save_ascii_grid(scene.terrain, out_dir / "dsm.asc")
    if args.kind == "pinhole":
        save_camera(scene.camera, out_dir / "camera.txt")
    else:
        cam = scene.camera
        write_file(out_dir / "camera.txt", format_kv([("KIND", "pushbroom"), ("A", cam.a), ("B", cam.b), ("C", cam.c)]))
    print(f"synthetic {args.kind} scene (seed {args.seed}): rpc_fit_rms_px={fmt(fit_rms)}")
    return 0


def _add_grid(sub) -> None:
    sub.add_argument(
        "--grid",
        nargs=3,
        type=int,
        default=DEFAULT_GRID_DIMS,
        metavar=("NLAT", "NLON", "NALT"),
        help="virtual grid node counts per axis",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satpinhole",
        description="Convert rational polynomial camera models to pinhole cameras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("inspect", help="print a rational model's normalizers")
    p.add_argument("rpc")
    p.add_argument("--json", action="store_true", help="emit JSON instead of key: value lines")
    p.set_defaults(func=cmd_inspect)

    p = subs.add_parser("equate", help="derive the equivalent pinhole camera")
    p.add_argument("rpc")
    p.add_argument("--image-size", nargs=2, type=int, metavar=("W", "H"), required=True)
    p.add_argument("--camera", required=True, help="output camera file")
    p.add_argument("--report", help="output equivalence report file")
    _add_grid(p)
    p.set_defaults(func=cmd_equate)

    p = subs.add_parser("refine", help="fit an image refinement warp")
    p.add_argument("rpc")
    p.add_argument("--image-size", nargs=2, type=int, metavar=("W", "H"), required=True)
    p.add_argument("--warp", required=True, help="output warp file")
    p.add_argument("--camera", help="also write the equivalent camera here")
    p.add_argument("--image", help="input image grid to correct")
    p.add_argument("--corrected", help="output path for the corrected image")
    p.add_argument("--report-before", help="equivalence report before correction")
    p.add_argument("--report-after", help="equivalence report after correction")
    _add_grid(p)
    p.set_defaults(func=cmd_refine)

    p = subs.add_parser("partition", help="split an image and model into tiles")
    p.add_argument("image")
    p.add_argument("rpc")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--tile-size", type=int, default=512)
    p.add_argument("--overlap", type=int, default=64)
    p.add_argument("--enhance", action="store_true", help="stretch dark tiles before writing")
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("error-map", help="rate equivalence error over the image plane")
    p.add_argument("rpc")
    p.add_argument("--image-size", nargs=2, type=int, metavar=("W", "H"), required=True)
    p.add_argument("--out", required=True, help="output grid of per-cell mean error")
    p.add_argument("--camera", required=True, help="camera to rate, as equate writes it")
    p.add_argument("--cell", type=float, default=32.0, help="cell size in pixels")
    p.add_argument("--preview", help="also write a color preview image (PPM)")
    p.set_defaults(func=cmd_error_map)

    p = subs.add_parser("fuse", help="fuse height maps from multiple views")
    p.add_argument("dsms", nargs="+", help="input height grids")
    p.add_argument("--out", required=True)
    p.add_argument("--mad-k", type=float, default=FusionConfig.mad_k)
    p.add_argument("--mad-floor", type=float, default=FusionConfig.mad_floor)
    p.add_argument("--radius", type=float, default=FusionConfig.radius)
    p.add_argument("--min-neighbors", type=int, default=FusionConfig.min_neighbors)
    p.add_argument("--aggregator", choices=("median", "mean"), default=FusionConfig.aggregator)
    p.set_defaults(func=cmd_fuse)

    p = subs.add_parser("metrics", help="score a height map against ground truth")
    p.add_argument("estimate")
    p.add_argument("truth")
    p.add_argument("--thresholds", nargs="+", type=float, default=(1.0, 2.0, 5.0))
    p.add_argument("--report", help="also write the report to this file")
    p.set_defaults(func=cmd_metrics)

    p = subs.add_parser("synth", help="generate a synthetic scene with ground truth")
    p.add_argument("--kind", choices=("pinhole", "pushbroom"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--image-size", nargs=2, type=int, metavar=("W", "H"))
    p.add_argument("--relief", type=float)
    p.add_argument("--sensor-height", type=float)
    p.add_argument("--extent-deg", type=float)
    p.set_defaults(func=cmd_synth)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: each parse_args call
    starts from a fresh namespace, and no default is mutable."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        category = _category_for(exc)
        if category is None:
            raise
        print(f"error: {category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

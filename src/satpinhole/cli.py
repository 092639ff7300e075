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
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .equivalence import (
    DEFAULT_GRID_DIMS,
    CameraFormatError,
    DecompositionError,
    DegenerateGridError,
    IllConditionedError,
    equate,
    fit_equivalence,
    load_camera,
    save_camera,
)
from .error_analysis import (
    error_field,
    format_equivalence_report,
    measure_equivalence_error,
    write_field_preview,
)
from .fusion import (
    EmptyOverlapError,
    FusionConfig,
    LatticeMismatchError,
    dsm_metrics,
    format_metrics_report,
    fuse_views,
)
from .kvio import KvFormatError, fmt
from .raster import GridFormatError, Raster, load_ascii_grid, save_ascii_grid
from .refinement import (
    DegenerateCorrespondencesError,
    WarpFormatError,
    build_refinement,
    resample,
    save_warp,
)
from .rpc import (
    ConvergenceError,
    RpcParseError,
    SingularEvaluationError,
    load_rpc,
    save_rpc,
)
from .synth import (
    RpcFitError,
    fit_scene_rpc,
    make_pinhole_scene,
    make_pushbroom_scene,
    render_image,
)
from .tiling import (
    ManifestFormatError,
    crop_raster,
    crop_rpc,
    enhance_brightness,
    format_manifest,
    plan_tiles,
)

# Ordered most-specific first; every entry maps to a stable category word so
# scripts can branch on stderr without parsing prose.
_ERROR_CATEGORIES = (
    (RpcParseError, "parse"),
    (CameraFormatError, "parse"),
    (WarpFormatError, "parse"),
    (GridFormatError, "parse"),
    (ManifestFormatError, "parse"),
    (KvFormatError, "parse"),
    (DegenerateGridError, "degenerate"),
    (DegenerateCorrespondencesError, "degenerate"),
    (RpcFitError, "degenerate"),
    (SingularEvaluationError, "degenerate"),
    (ConvergenceError, "convergence"),
    (IllConditionedError, "ill-conditioned"),
    (DecompositionError, "decomposition"),
    (LatticeMismatchError, "lattice"),
    (EmptyOverlapError, "lattice"),
    (OSError, "io"),
    (ValueError, "invalid"),
)


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable defaults shared across subcommands.

    A JSON file passed via --config overrides these; explicit flags override
    the file. Unknown keys in the file, and values of the wrong type for
    their field, are rejected.
    """

    grid_dims: tuple[int, int, int] = DEFAULT_GRID_DIMS
    tile_size: int = 512
    overlap: int = 64
    cell_px: float = 32.0
    warp_kind: str = "polynomial"
    mad_k: float = FusionConfig.mad_k
    mad_floor: float = FusionConfig.mad_floor
    radius: float | None = FusionConfig.radius
    min_neighbors: int = FusionConfig.min_neighbors
    aggregator: str = FusionConfig.aggregator


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# Config field annotation -> (what a JSON value must be, its check).
_CONFIG_TYPES = {
    "tuple[int, int, int]": (
        "a list of 3 ints",
        lambda v: isinstance(v, list) and len(v) == 3 and all(_is_int(d) for d in v),
    ),
    "int": ("an int", _is_int),
    "float": ("a number", _is_number),
    "float | None": ("a number or null", lambda v: v is None or _is_number(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def _load_config(path: str | None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is None:
        return cfg
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    types = {f.name: f.type for f in fields(PipelineConfig)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        expected, check = _CONFIG_TYPES[types[key]]
        if not check(value):
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
    if "grid_dims" in data:
        data["grid_dims"] = tuple(data["grid_dims"])
    return replace(cfg, **data)


def _pick(flag, fallback):
    return fallback if flag is None else flag


def _category_for(exc: Exception) -> str | None:
    for klass, category in _ERROR_CATEGORIES:
        if isinstance(exc, klass):
            return category
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
        for key, value in info.items():
            print(f"{key}: {fmt(value)}")
    return 0


def cmd_equate(args) -> int:
    cfg = _load_config(args.config)
    dims = tuple(_pick(args.grid, cfg.grid_dims))
    model = load_rpc(args.rpc)
    camera, report = equate(model, tuple(args.image_size), dims=dims)
    save_camera(camera, args.camera)
    if args.report:
        Path(args.report).write_text(format_equivalence_report(report))
    print(
        f"equivalent camera: rmse_px={fmt(report.rmse)} "
        f"max_px={fmt(report.max_error)} points={report.n_points}"
    )
    return 0


def cmd_refine(args) -> int:
    cfg = _load_config(args.config)
    dims = tuple(_pick(args.grid, cfg.grid_dims))
    kind = _pick(args.kind, cfg.warp_kind)
    model = load_rpc(args.rpc)
    image_size = tuple(args.image_size)
    image = None
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
    eq = fit_equivalence(model, image_size, dims=dims)
    camera, before = eq.camera, eq.report
    warp = build_refinement(model, camera, eq.fit_grid, kind=kind)
    after = measure_equivalence_error(model, camera, eq.val_grid, warp=warp)

    save_warp(warp, args.warp)
    if args.camera:
        save_camera(camera, args.camera)
    if args.report_before:
        Path(args.report_before).write_text(format_equivalence_report(before))
    if args.report_after:
        Path(args.report_after).write_text(format_equivalence_report(after))
    if image is not None:
        save_ascii_grid(resample(image, warp), args.corrected)
    print(f"refined ({kind}): rmse_px {fmt(before.rmse)} -> {fmt(after.rmse)}")
    return 0


def cmd_partition(args) -> int:
    cfg = _load_config(args.config)
    tile_size = _pick(args.tile_size, cfg.tile_size)
    overlap = _pick(args.overlap, cfg.overlap)
    image = load_ascii_grid(args.image)
    model = load_rpc(args.rpc)
    plan = plan_tiles((image.ncols, image.nrows), tile_size, overlap)

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

    manifest = out_dir / args.manifest
    manifest.write_text(format_manifest(plan, image_names, rpc_names))
    print(f"wrote {len(plan.tiles)} tiles and {manifest.name} to {out_dir}")
    return 0


def cmd_error_map(args) -> int:
    cfg = _load_config(args.config)
    dims = tuple(_pick(args.grid, cfg.grid_dims))
    cell_px = _pick(args.cell, cfg.cell_px)
    model = load_rpc(args.rpc)
    image_size = tuple(args.image_size)
    if args.camera:
        camera = load_camera(args.camera)
    else:
        camera, _ = equate(model, image_size, dims=dims)
    field = error_field(model, camera, image_size, cell_px)
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
    cfg = _load_config(args.config)
    config = FusionConfig(
        mad_k=_pick(args.mad_k, cfg.mad_k),
        mad_floor=_pick(args.mad_floor, cfg.mad_floor),
        radius=_pick(args.radius, cfg.radius),
        min_neighbors=_pick(args.min_neighbors, cfg.min_neighbors),
        aggregator=_pick(args.aggregator, cfg.aggregator),
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
        Path(args.report).write_text(text)
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
        lines = ["KIND: pushbroom"]
        for key, vec in (("A", cam.a), ("B", cam.b), ("C", cam.c)):
            lines.append(f"{key}: " + " ".join(fmt(v) for v in vec))
        (out_dir / "camera.txt").write_text("\n".join(lines) + "\n")
    print(f"synthetic {args.kind} scene (seed {args.seed}): rpc_fit_rms_px={fmt(fit_rms)}")
    return 0


def _add_config(sub) -> None:
    sub.add_argument("--config", help="JSON file of pipeline defaults")


def _add_grid(sub) -> None:
    sub.add_argument(
        "--grid",
        nargs=3,
        type=int,
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
    _add_config(p)
    p.set_defaults(func=cmd_equate)

    p = subs.add_parser("refine", help="fit an image refinement warp")
    p.add_argument("rpc")
    p.add_argument("--image-size", nargs=2, type=int, metavar=("W", "H"), required=True)
    p.add_argument("--warp", required=True, help="output warp file")
    p.add_argument("--camera", help="also write the equivalent camera here")
    p.add_argument("--kind", choices=("polynomial", "homography"))
    p.add_argument("--image", help="input image grid to correct")
    p.add_argument("--corrected", help="output path for the corrected image")
    p.add_argument("--report-before", help="equivalence report before correction")
    p.add_argument("--report-after", help="equivalence report after correction")
    _add_grid(p)
    _add_config(p)
    p.set_defaults(func=cmd_refine)

    p = subs.add_parser("partition", help="split an image and model into tiles")
    p.add_argument("image")
    p.add_argument("rpc")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--tile-size", type=int)
    p.add_argument("--overlap", type=int)
    p.add_argument("--manifest", default="tiles.txt", help="manifest file name")
    p.add_argument("--enhance", action="store_true", help="stretch dark tiles before writing")
    _add_config(p)
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("error-map", help="rate equivalence error over the image plane")
    p.add_argument("rpc")
    p.add_argument("--image-size", nargs=2, type=int, metavar=("W", "H"), required=True)
    p.add_argument("--out", required=True, help="output grid of per-cell mean error")
    p.add_argument("--camera", help="reuse a saved camera instead of re-deriving")
    p.add_argument("--cell", type=float, help="cell size in pixels")
    p.add_argument("--preview", help="also write a color preview image (PPM)")
    _add_grid(p)
    _add_config(p)
    p.set_defaults(func=cmd_error_map)

    p = subs.add_parser("fuse", help="fuse height maps from multiple views")
    p.add_argument("dsms", nargs="+", help="input height grids")
    p.add_argument("--out", required=True)
    p.add_argument("--mad-k", type=float)
    p.add_argument("--mad-floor", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--min-neighbors", type=int)
    p.add_argument("--aggregator", choices=("median", "mean"))
    _add_config(p)
    p.set_defaults(func=cmd_fuse)

    p = subs.add_parser("metrics", help="score a height map against ground truth")
    p.add_argument("estimate")
    p.add_argument("truth")
    p.add_argument("--thresholds", nargs="+", type=float, default=[1.0, 2.0, 5.0])
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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

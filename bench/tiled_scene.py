"""Workload ``tiled_scene``: the acceptance scenario through the CLI.

One pass: ``synth`` a pushbroom scene; on the full frame ``equate``,
``refine --image`` and ``error-map --camera``; ``partition`` into 25
overlapping tiles (with partition's default thread pool); then per tile
``equate``, ``refine --camera --report-before --report-after`` and
``error-map --camera``.

The scene is the acceptance scene (synth seed 21, extent 0.16 deg, relief
60 m) at a quarter of its linear size, with tile size and overlap scaled to
match, so that a pass takes seconds rather than a minute. The benchmark seed
draws the points and pixels at which the outputs are checked.
"""

from __future__ import annotations

import shutil

import numpy as np

from common import read_grid, read_keyed

STEPS = ("synth_s", "refine_image_s", "partition_s", "tile_camera_s")
SCENE_SEED = 21
SIZE = 512
TILE = 128
OVERLAP = 16
N_TILES = 25
N_CHECK = 2000
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)


def setup(work, seed):
    rng = np.random.default_rng([seed, 1])
    return {
        "work": work,
        "ground": rng.uniform(-1.0, 1.0, (N_CHECK, 3)),
        "pixels": rng.integers(0, SIZE, (N_CHECK, 2)),
    }


def _manifest(path):
    tiles = []
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                idx, col, row, w, h, img, rpc = line.split()
                tiles.append((int(col), int(row), int(w), int(h), img, rpc))
    return tiles


def run_pass(ops, state):
    work = state["work"]
    shutil.rmtree(work / "out", ignore_errors=True)
    scene = work / "out" / "scene"
    tiles = work / "out" / "tiles"
    cams = work / "out" / "tilecam"
    cams.mkdir(parents=True)
    rpc = scene / "rpc.txt"
    size = (SIZE, SIZE)

    ops.cli("synth_s", [
        "synth", "--kind", "pushbroom", "--seed", SCENE_SEED, "--out-dir", scene,
        "--image-size", *size, "--extent-deg", "0.16", "--relief", "60",
    ])
    ops.cli("full_frame_s", ["equate", rpc, "--image-size", *size, "--camera", scene / "pinhole.txt"])
    ops.cli("refine_image_s", [
        "refine", rpc, "--image-size", *size, "--warp", scene / "warp.txt",
        "--image", scene / "image.asc", "--corrected", scene / "corrected.asc",
        "--report-before", scene / "before.txt", "--report-after", scene / "after.txt",
    ])
    ops.cli("full_frame_s", [
        "error-map", rpc, "--image-size", *size, "--out", scene / "errors.asc",
        "--camera", scene / "pinhole.txt",
    ])
    ops.cli("partition_s", [
        "partition", scene / "image.asc", rpc, "--out-dir", tiles,
        "--tile-size", TILE, "--overlap", OVERLAP,
    ])

    names = [t[5] for t in _manifest(tiles / "tiles.txt")] or [f"tile_{i:03d}.rpc" for i in range(N_TILES)]
    tsize = (TILE, TILE)
    for i, name in enumerate(names):
        trpc = tiles / name
        ops.cli("tile_camera_s", ["equate", trpc, "--image-size", *tsize, "--camera", cams / f"{i}.cam"])
        ops.cli("tile_camera_s", [
            "refine", trpc, "--image-size", *tsize, "--warp", cams / f"{i}.warp",
            "--camera", cams / f"{i}.refined.cam",
            "--report-before", cams / f"{i}.before", "--report-after", cams / f"{i}.after",
        ])
        ops.cli("tile_camera_s", [
            "error-map", trpc, "--image-size", *tsize, "--out", cams / f"{i}.errors.asc",
            "--camera", cams / f"{i}.cam",
        ])


def _geodetic_to_enu(lat, lon, alt, anchor):
    """WGS-84 geodetic degrees/meters to east-north-up meters at *anchor*."""

    def ecef(la, lo, h):
        la, lo = np.radians(la), np.radians(lo)
        n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * np.sin(la) ** 2)
        return np.stack(
            [
                (n + h) * np.cos(la) * np.cos(lo),
                (n + h) * np.cos(la) * np.sin(lo),
                (n * (1.0 - WGS84_E2) + h) * np.sin(la),
            ]
        )

    d = ecef(lat, lon, alt) - ecef(*anchor)[:, None]
    la0, lo0 = np.radians(anchor[0]), np.radians(anchor[1])
    east = -np.sin(lo0) * d[0] + np.cos(lo0) * d[1]
    north = -np.sin(la0) * np.cos(lo0) * d[0] - np.sin(la0) * np.sin(lo0) * d[1] + np.cos(la0) * d[2]
    up = np.cos(la0) * np.cos(lo0) * d[0] + np.cos(la0) * np.sin(lo0) * d[1] + np.sin(la0) * d[2]
    return east, north, up


def _bilinear(values: np.ndarray, nodata: float, x, y):
    """Sample an image at pixel positions the way a backward warp defines it.

    Positions more than half a pixel outside the image, or whose stencil
    gives weight to a nodata pixel, come out as nodata.
    """
    h, w = values.shape
    inside = (x >= -0.5) & (x <= w - 0.5) & (y >= -0.5) & (y <= h - 0.5)
    cx = np.clip(x, 0.0, w - 1.0)
    cy = np.clip(y, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(cx).astype(int), w - 2)
    y0 = np.minimum(np.floor(cy).astype(int), h - 2)
    fx = cx - x0
    fy = cy - y0
    out = np.zeros_like(cx)
    bad = ~inside
    for dy, dx, wt in (
        (0, 0, (1 - fy) * (1 - fx)),
        (0, 1, (1 - fy) * fx),
        (1, 0, fy * (1 - fx)),
        (1, 1, fy * fx),
    ):
        v = values[y0 + dy, x0 + dx]
        out += v * wt
        bad |= (v == nodata) & (wt > 0)
    return np.where(bad, nodata, out)


def _rmse(path):
    return float(read_keyed(path)["RMSE_PX"][0])


def check(state):
    """Return (problems, mean post-warp tile RMSE over the tile edge)."""
    from satpinhole.rpc import load_rpc, project_forward

    problems = []
    scene = state["work"] / "out" / "scene"
    tiles_dir = state["work"] / "out" / "tiles"
    cams = state["work"] / "out" / "tilecam"

    # The fitted rational model reproduces the generating pushbroom camera.
    model = load_rpc(scene / "rpc.txt")
    g = state["ground"]
    lat = model.lat_off + g[:, 0] * model.lat_scale
    lon = model.lon_off + g[:, 1] * model.lon_scale
    alt = model.alt_off + g[:, 2] * model.alt_scale
    samp, line = project_forward(model, lat, lon, alt)
    cam = {k: np.array(v, dtype=float) for k, v in read_keyed(scene / "camera.txt").items() if k != "KIND"}
    e, n, u = _geodetic_to_enu(lat, lon, alt, (model.lat_off, model.lon_off, model.alt_off))
    x = np.column_stack([e, n, u, np.ones_like(e)])
    dev = float(np.max(np.hypot(samp - (x @ cam["B"]) / (x @ cam["C"]), line - x @ cam["A"])))
    if not dev < 1e-6:
        problems.append(f"rpc.txt misses the pushbroom camera by {dev:.3g} px (limit 1e-6)")

    # Tiles: 25 of the planned size covering every pixel, each a copy of its window.
    hdr, image = read_grid(scene / "image.asc")
    tiles = _manifest(tiles_dir / "tiles.txt")
    covered = np.zeros(image.shape, dtype=bool)
    for col, row, w, h, img, _ in tiles:
        covered[row : row + h, col : col + w] = True
        if (w, h) != (TILE, TILE):
            problems.append(f"tile {img} is {w}x{h}, expected {TILE}x{TILE}")
        elif not np.array_equal(read_grid(tiles_dir / img)[1], image[row : row + h, col : col + w]):
            problems.append(f"tile {img} differs from its window of image.asc")
    if len(tiles) != N_TILES or not covered.all():
        problems.append(f"manifest holds {len(tiles)} tiles covering {int(covered.sum())} of {covered.size} pixels")

    # The corrected image is the input sampled at the warp's positions.
    m = np.array(read_keyed(scene / "warp.txt")["M"], dtype=float)
    px = state["pixels"][:, 0].astype(float)
    py = state["pixels"][:, 1].astype(float)
    basis = np.stack([np.ones_like(px), px, py, px * py, px * px, py * py])
    expected = _bilinear(image, hdr["nodata_value"], m[:6] @ basis, m[6:] @ basis)
    _, corrected = read_grid(scene / "corrected.asc")
    got = corrected[state["pixels"][:, 1], state["pixels"][:, 0]]
    worst = float(np.max(np.abs(got - expected)))
    if not worst <= 1e-9:
        problems.append(f"corrected image departs from bilinear warp sampling by {worst:.3g} DN")

    # The warp lowers the validation error on the full frame and on every tile.
    pairs = [(_rmse(scene / "before.txt"), _rmse(scene / "after.txt"))]
    pairs += [(_rmse(cams / f"{i}.before"), _rmse(cams / f"{i}.after")) for i in range(len(tiles))]
    worse = sum(1 for pre, post in pairs if not post < pre)
    if worse:
        problems.append(f"the warp did not lower the RMSE on {worse} of {len(pairs)} frames")
    return problems, float(np.mean([post for _, post in pairs[1:]]) / TILE)

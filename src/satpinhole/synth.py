"""Synthetic scenes with exact projection ground truth for oracle testing.

Two generator camera families are provided: an ideal pinhole (for which the
equivalent-camera pipeline should be exact) and a pushbroom scanner that is
affine along track and perspective across track (for which a single pinhole
is only an approximation). Scenes carry fractal terrain, a geodetic volume,
and everything needed to fit a rational polynomial model against the exact
generator projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivalence import PinholeCamera
from .errors import DegenerateError
from .geodesy import GeoPoint, enu_to_geodetic, geodetic_to_enu
from .raster import NODATA, Raster, _row_blocks, sample_bilinear
from .rpc import RpcModel, cubic_basis

# Rational fits sample the rated volume on this many (lat, lon, alt) nodes.
FIT_DIMS = (30, 30, 15)
# Terrain lattice edge in cells, and the amplitude decay per halving of the
# midpoint-displacement step.
TERRAIN_SIZE = 129
ROUGHNESS = 0.55
# Edge of the rendered checkerboard squares, ground meters.
CHECKER_PERIOD_M = 48.0


@dataclass(frozen=True)
class Volume:
    """Axis-aligned geodetic box (degrees, degrees, meters)."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    alt_min: float
    alt_max: float

    def __post_init__(self) -> None:
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max and self.alt_min < self.alt_max):
            raise ValueError("volume bounds must satisfy min < max on every axis")

    @property
    def center(self) -> tuple[float, float, float]:
        return (
            (self.lat_min + self.lat_max) / 2.0,
            (self.lon_min + self.lon_max) / 2.0,
            (self.alt_min + self.alt_max) / 2.0,
        )

    @property
    def half(self) -> tuple[float, float, float]:
        return (
            (self.lat_max - self.lat_min) / 2.0,
            (self.lon_max - self.lon_min) / 2.0,
            (self.alt_max - self.alt_min) / 2.0,
        )

    def sample_grid(self, dims: tuple[int, int, int]):
        lats = np.linspace(self.lat_min, self.lat_max, dims[0])
        lons = np.linspace(self.lon_min, self.lon_max, dims[1])
        alts = np.linspace(self.alt_min, self.alt_max, dims[2])
        lat, lon, alt = np.meshgrid(lats, lons, alts, indexing="ij")
        return lat.ravel(), lon.ravel(), alt.ravel()


@dataclass(frozen=True)
class PushbroomCamera:
    """Linear-array scanner in a local ENU frame.

    The line coordinate is affine in the homogeneous ground point (each image
    row is its own exposure), while the sample coordinate is a perspective
    ratio within the scan plane:

        line = a . (e, n, u, 1)
        samp = (b . (e, n, u, 1)) / (c . (e, n, u, 1))
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64).reshape(4))

    def project(self, enu: np.ndarray):
        enu = np.asarray(enu, dtype=np.float64)
        x = np.column_stack([enu, np.ones(len(enu))])
        line = x @ self.a
        samp = (x @ self.b) / (x @ self.c)
        return samp, line

    def depths(self, enu: np.ndarray) -> np.ndarray:
        enu = np.asarray(enu, dtype=np.float64)
        return np.column_stack([enu, np.ones(len(enu))]) @ self.c

    def localize_at_height(self, samp, line, u):
        """Invert the projection on the horizontal ENU plane at height u."""
        samp = np.asarray(samp, dtype=np.float64)
        line = np.asarray(line, dtype=np.float64)
        u = np.broadcast_to(np.asarray(u, dtype=np.float64), samp.shape)
        a, b, c = self.a, self.b, self.c
        a11, a12 = a[0], a[1]
        r1 = line - a[2] * u - a[3]
        a21 = b[0] - samp * c[0]
        a22 = b[1] - samp * c[1]
        r2 = samp * (c[2] * u + c[3]) - (b[2] * u + b[3])
        det = a11 * a22 - a12 * a21
        with np.errstate(divide="ignore", invalid="ignore"):
            e = (r1 * a22 - a12 * r2) / det
            n = (a11 * r2 - a21 * r1) / det
        return e, n


@dataclass(frozen=True)
class SyntheticScene:
    """A terrain patch, its geodetic volume, and the generator camera."""

    terrain: Raster
    camera: PinholeCamera | PushbroomCamera
    volume: Volume
    anchor: GeoPoint
    image_size: tuple[int, int]


def make_terrain(seed: int, size: int, relief: float) -> Raster:
    """Generate fractal terrain by midpoint displacement.

    The classic diamond-square recursion runs on the smallest power-of-two
    lattice covering *size*, after which the result is cropped and rescaled so
    heights span exactly [0, relief] (a relief of 0 gives a flat raster).
    Deterministic for a given seed.
    """
    size = int(size)
    if size < 1:
        raise ValueError(f"terrain size must be >= 1, got {size}")
    if relief < 0:
        raise ValueError(f"relief must be >= 0, got {relief}")
    n = 1
    while n + 1 < size:
        n *= 2
    side = n + 1
    rng = np.random.default_rng(seed)
    g = np.zeros((side, side))
    g[0, 0], g[0, -1], g[-1, 0], g[-1, -1] = rng.normal(0.0, 1.0, 4)

    step = n
    amp = 1.0
    while step > 1:
        half = step // 2
        # Diamond: center of each square gets the corner mean plus noise.
        tl = g[:-1:step, :-1:step]
        tr = g[:-1:step, step::step]
        bl = g[step::step, :-1:step]
        br = g[step::step, step::step]
        g[half::step, half::step] = (tl + tr + bl + br) / 4.0 + rng.normal(0.0, amp, tl.shape)
        # Square: edge midpoints average their in-lattice diamond neighbors,
        # corners and centers only, read from one NaN-bordered level copy.
        level = np.pad(g[::half, ::half], 1, constant_values=np.nan)
        for r0, c0 in ((0, 1), (1, 0)):
            mid = g[r0 * half :: step, c0 * half :: step]
            total = np.zeros(mid.shape)
            cnt = np.zeros(mid.shape)
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                v = level[1 + r0 + dr :: 2, 1 + c0 + dc :: 2][: mid.shape[0], : mid.shape[1]]
                ok = ~np.isnan(v)
                np.add(total, v, out=total, where=ok)
                cnt += ok
            mid[...] = total / cnt + rng.normal(0.0, amp, mid.shape)
        step = half
        amp *= ROUGHNESS

    sub = g[:size, :size]
    lo = float(sub.min())
    hi = float(sub.max())
    if hi > lo and relief > 0:
        values = (sub - lo) / (hi - lo) * relief
    else:
        values = np.zeros_like(sub)
    return Raster(values=values, cell_size=1.0, origin=(0.0, 0.0), nodata=NODATA)


def fit_rpc(project, volume: Volume, image_size: tuple[int, int]):
    """Fit a rational polynomial model to an arbitrary projection function.

    Samples a grid of ``FIT_DIMS`` nodes over the volume, sets the ground
    normalizers to the volume center and half-ranges and the pixel
    normalizers to half the image size, then solves the linearized rational
    system per axis: 20 numerator coefficients plus 19 denominator
    coefficients (the leading denominator term is pinned to 1), minimizing
    sum (num(x) - target * den(x))^2 by linear least squares.

    Args:
        project: callable (lat, lon, alt arrays) -> (samp, line) arrays.
        volume: geodetic box to rate the model over.
        image_size: (width, height) used for the pixel normalizers.

    Returns:
        (RpcModel, fit_rms_px): the model plus its RMS residual against the
        projection function on the sample grid.

    Raises:
        DegenerateError: a non-finite or near-constant projection along an
            axis, a non-finite fit, or a fitted denominator approaching zero
            inside the volume.
    """
    lat, lon, alt = volume.sample_grid(FIT_DIMS)
    samp, line = project(lat, lon, alt)
    samp = np.asarray(samp, dtype=np.float64).ravel()
    line = np.asarray(line, dtype=np.float64).ravel()

    c_lat, c_lon, c_alt = volume.center
    h_lat, h_lon, h_alt = volume.half
    w, h = image_size
    samp_off, samp_scale = w / 2.0, w / 2.0
    line_off, line_scale = h / 2.0, h / 2.0

    p = (lat - c_lat) / h_lat
    l = (lon - c_lon) / h_lon
    hh = (alt - c_alt) / h_alt
    basis = cubic_basis(p, l, hh)
    # One design matrix serves both axes: the basis columns are shared and
    # each axis rewrites only its 19 target-weighted denominator columns.
    # basis stays its own array for the products after the fit.
    a = np.empty((basis.shape[0], 39))
    a[:, :20] = basis

    def solve_axis(target: np.ndarray, label: str):
        if not np.isfinite(target).all():
            raise DegenerateError(f"projection is not finite at every fit node along the {label} axis")
        if np.std(target) < 1e-12:
            raise DegenerateError(
                f"projection is (near-)constant along the {label} axis; "
                "the rational system is ill conditioned"
            )
        np.multiply(-target[:, None], basis[:, 1:], out=a[:, 20:])
        sol, _, _, _ = np.linalg.lstsq(a, target, rcond=None)
        if not np.isfinite(sol).all():
            raise DegenerateError(f"rational fit along the {label} axis is not finite")
        num = sol[:20]
        den = np.concatenate([[1.0], sol[20:]])
        den_vals = basis @ den
        if np.min(den_vals) < 1e-3:
            raise DegenerateError(
                f"fitted {label} denominator approaches zero inside the volume "
                f"(min {np.min(den_vals):.3g})"
            )
        return num, den

    t_samp = (samp - samp_off) / samp_scale
    t_line = (line - line_off) / line_scale
    samp_num, samp_den = solve_axis(t_samp, "samp")
    line_num, line_den = solve_axis(t_line, "line")

    model = RpcModel(
        line_off=line_off,
        samp_off=samp_off,
        lat_off=c_lat,
        lon_off=c_lon,
        alt_off=c_alt,
        line_scale=line_scale,
        samp_scale=samp_scale,
        lat_scale=h_lat,
        lon_scale=h_lon,
        alt_scale=h_alt,
        line_num=line_num,
        line_den=line_den,
        samp_num=samp_num,
        samp_den=samp_den,
    )
    ds = (basis @ samp_num) / (basis @ samp_den) * samp_scale + samp_off - samp
    dl = (basis @ line_num) / (basis @ line_den) * line_scale + line_off - line
    rms = float(np.sqrt(np.mean(ds * ds + dl * dl)))
    return model, rms


def scene_projection(scene: SyntheticScene):
    """Exact geodetic-to-pixel projection closure for the scene camera."""
    cam = scene.camera
    anchor = scene.anchor

    def project(lat, lon, alt):
        e, n, u = geodetic_to_enu(np.ravel(lat), np.ravel(lon), np.ravel(alt), anchor)
        return cam.project(np.column_stack([e, n, u]))

    return project


def fit_scene_rpc(scene: SyntheticScene):
    """Fit an RPC against the scene camera's exact projection."""
    return fit_rpc(scene_projection(scene), scene.volume, scene.image_size)


def _terrain_relief(terrain: Raster) -> tuple[float, float]:
    vals = terrain.valid_values()
    if vals.size == 0:
        return 0.0, 0.0
    return float(vals.min()), float(vals.max())


def render_image(scene: SyntheticScene) -> Raster:
    """Render a deterministic procedural image as seen by the scene camera.

    Each pixel ray is intersected with the terrain surface by fixed-point
    iteration on the height, then shaded with a checkerboard in ground meters
    plus a height ramp. Pixels whose ground intersection falls well outside
    the terrain footprint (or whose ray is degenerate) come out nodata.

    Each ray's height is its own fixed point, evaluated at most 12 times: a
    ray stops moving once its update is below 1e-6 m. So the image does not
    depend on how the frame is cut, and each row block runs start to finish
    on its own, holding no frame-sized array but the output.

    Returns:
        Raster of DN values in [0, 255], pixel georeference.
    """
    cam = scene.camera
    w, h = scene.image_size
    anchor = scene.anchor
    terrain = scene.terrain
    volume = scene.volume
    alt_lo, alt_hi = _terrain_relief(terrain)
    margin_lat = 0.05 * (volume.lat_max - volume.lat_min)
    margin_lon = 0.05 * (volume.lon_max - volume.lon_min)

    cols = np.arange(w, dtype=np.float64)
    values = np.empty((h, w))
    for rows in _row_blocks(h, w):
        line, samp = np.meshgrid(np.arange(rows.start, rows.stop, dtype=np.float64), cols, indexing="ij")
        u = np.full(line.shape, (alt_lo + alt_hi) / 2.0 - anchor.alt)
        for _ in range(12):
            e, n = cam.localize_at_height(samp, line, u)
            finite = np.isfinite(e) & np.isfinite(n)
            e = np.where(finite, e, 0.0)
            n = np.where(finite, n, 0.0)
            lat, lon, alt_geo = enu_to_geodetic(e, n, u, anchor)
            height = sample_bilinear(terrain, lon, lat, clamp=True)
            delta = height - alt_geo
            # A NaN update compares False, so it never counts as settled.
            moving = ~(np.abs(delta) < 1e-6)
            if not moving.any():
                break
            u = u + np.where(moving, delta, 0.0)

        # Procedural texture: checkerboard in ground meters plus height shading.
        parity = (np.floor(e / CHECKER_PERIOD_M) + np.floor(n / CHECKER_PERIOD_M)) % 2.0
        dn = 70.0 + 115.0 * parity
        if alt_hi > alt_lo:
            dn = dn + 55.0 * (height - alt_lo) / (alt_hi - alt_lo)
        dn = np.clip(dn, 0.0, 255.0)
        off_terrain = (
            (lat < volume.lat_min - margin_lat)
            | (lat > volume.lat_max + margin_lat)
            | (lon < volume.lon_min - margin_lon)
            | (lon > volume.lon_max + margin_lon)
        )
        bad = off_terrain | ~finite
        values[rows] = np.where(bad, NODATA, dn)
    return Raster(values=values, cell_size=1.0, origin=(0.0, 0.0), nodata=NODATA)


def _check_staging(
    image_size: tuple[int, int], relief: float, sensor_height: float, extent_deg: float
) -> None:
    w, h = image_size
    if not (w >= 1 and h >= 1):
        raise ValueError(f"image size must be positive, got {w} x {h}")
    if not (np.isfinite(relief) and relief >= 0):
        raise ValueError(f"relief must be finite and non-negative, got {relief}")
    if not (np.isfinite(sensor_height) and sensor_height > 0):
        raise ValueError(f"sensor height must be finite and positive, got {sensor_height}")
    if not (np.isfinite(extent_deg) and extent_deg > 0):
        raise ValueError(f"extent must be finite and positive, got {extent_deg}")


def _scene_frame(rng, relief: float, extent_deg: float, seed: int):
    lat0 = float(rng.uniform(25.0, 45.0))
    lon0 = float(rng.uniform(-100.0, 100.0))
    half = extent_deg / 2.0
    if not (-90.0 < lat0 - half and lat0 + half < 90.0):
        raise ValueError(
            f"extent of {extent_deg} deg around latitude {lat0:.6g} reaches past a pole"
        )
    alt_pad = max(30.0, 0.3 * relief)
    volume = Volume(
        lat_min=lat0 - half,
        lat_max=lat0 + half,
        lon_min=lon0 - half,
        lon_max=lon0 + half,
        alt_min=-alt_pad,
        alt_max=relief + alt_pad,
    )
    anchor = GeoPoint(lat0, lon0, (volume.alt_min + volume.alt_max) / 2.0)
    base = make_terrain(seed, TERRAIN_SIZE, relief)
    terrain = Raster(
        values=base.values,
        cell_size=extent_deg / TERRAIN_SIZE,
        origin=(volume.lon_min, volume.lat_min),
        nodata=base.nodata,
    )
    return volume, anchor, terrain


def _volume_enu_samples(volume: Volume, anchor: GeoPoint, dims=(5, 5, 3)) -> np.ndarray:
    lat, lon, alt = volume.sample_grid(dims)
    e, n, u = geodetic_to_enu(lat, lon, alt, anchor)
    return np.column_stack([e, n, u])


def _assert_in_image(camera, box_enu: np.ndarray, image_size: tuple[int, int]) -> None:
    samp, line = camera.project(box_enu)
    w, h = image_size
    if not (samp.min() >= 0.0 and samp.max() < w and line.min() >= 0.0 and line.max() < h):
        raise ValueError(
            "scene construction failed: rated volume does not project inside the image"
        )


def make_pinhole_scene(
    seed: int,
    image_size: tuple[int, int] = (1024, 1024),
    relief: float = 120.0,
    sensor_height: float = 6.0e4,
    extent_deg: float = 0.04,
) -> SyntheticScene:
    """Build a scene viewed by an exact pinhole camera.

    The camera sits near *sensor_height* meters above the scene center with a
    randomized lateral offset (hence a mild off-nadir tilt), aimed at the
    center, with focal length chosen so that the whole rated volume projects
    safely inside the image. Deterministic per seed.

    Raises:
        ValueError: a non-positive image size, a relief that is not finite
            and non-negative, a sensor height or extent that is not finite
            and positive, an extent reaching past a pole, or a staging whose
            rated volume does not project inside the image.
    """
    _check_staging(image_size, relief, sensor_height, extent_deg)
    rng = np.random.default_rng([seed, 1])
    volume, anchor, terrain = _scene_frame(rng, relief, extent_deg, seed)
    w, h = image_size

    offset = rng.uniform(-0.18, 0.18, 2) * sensor_height
    center = np.array([offset[0], offset[1], sensor_height])
    with np.errstate(over="ignore"):
        distance = np.linalg.norm(center)
    if not np.isfinite(distance):
        raise ValueError(f"sensor height {sensor_height:g} m puts the camera out of floating-point range")
    z = -center / distance
    up = np.array([0.0, 1.0, 0.0])
    x = np.cross(z, up)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    r = np.vstack([x, y, z])
    t = -r @ center

    box = _volume_enu_samples(volume, anchor)
    cam_pts = box @ r.T + t
    xs = cam_pts[:, 0] / cam_pts[:, 2]
    ys = cam_pts[:, 1] / cam_pts[:, 2]
    fx = 0.46 * w / np.max(np.abs(xs))
    fy_cap = 0.46 * h / np.max(np.abs(ys))
    f = min(fx, fy_cap)
    fy = f * float(rng.uniform(0.98, 1.02))
    fy = min(fy, fy_cap)
    cx = w / 2.0 + float(rng.uniform(-0.01, 0.01)) * w
    cy = h / 2.0 + float(rng.uniform(-0.01, 0.01)) * h
    k = np.array([[f, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])

    camera = PinholeCamera(k=k, r=r, t=t, anchor=anchor, image_size=image_size)
    _assert_in_image(camera, box, image_size)
    return SyntheticScene(
        terrain=terrain, camera=camera, volume=volume, anchor=anchor, image_size=image_size
    )


def make_pushbroom_scene(
    seed: int,
    image_size: tuple[int, int] = (2048, 2048),
    relief: float = 120.0,
    sensor_height: float = 6.0e4,
    extent_deg: float = 0.04,
) -> SyntheticScene:
    """Build a scene viewed by a pushbroom scanner.

    Along-track (line) is affine in the ground point; across-track (samp) is
    a perspective ratio with depth roughly sensor_height minus terrain
    height. The depth-to-relief ratio, and with it the size of the pinhole
    approximation error, follows directly from *sensor_height*. Deterministic
    per seed.

    Raises:
        ValueError: a non-positive image size, a relief that is not finite
            and non-negative, a sensor height or extent that is not finite
            and positive, an extent reaching past a pole, a scan depth that
            is not positive, or a staging whose rated volume does not
            project inside the image.
    """
    _check_staging(image_size, relief, sensor_height, extent_deg)
    rng = np.random.default_rng([seed, 2])
    volume, anchor, terrain = _scene_frame(rng, relief, extent_deg, seed)
    w, h = image_size

    box = _volume_enu_samples(volume, anchor)
    n_half = float(np.max(np.abs(box[:, 1])))

    # Along-track: line = h/2 - n / gsd with small cross couplings. Line
    # counts up toward the south so that (samp, line, depth) stays a
    # right-handed frame, as on a real scanner.
    gsd = 2.0 * n_half / (0.94 * h)
    a1 = -1.0 / gsd
    a0 = float(rng.uniform(-0.02, 0.02)) * abs(a1)
    a2 = float(rng.uniform(-0.15, 0.15)) * abs(a1) * 0.1
    a = np.array([a0, a1, a2, h / 2.0])

    # Across-track: perspective with depth ~ sensor_height - u.
    ce = float(rng.uniform(-0.03, 0.03))
    cn = float(rng.uniform(-0.03, 0.03))
    c = np.array([ce, cn, -1.0, sensor_height])
    k2 = float(rng.uniform(-0.02, 0.02))
    depth = box @ c[:3] + c[3]
    ratio = (box[:, 0] + k2 * box[:, 1]) / depth
    fs = 0.46 * w / float(np.max(np.abs(ratio)))
    cx = w / 2.0 + float(rng.uniform(-0.01, 0.01)) * w
    b = fs * np.array([1.0, k2, 0.0, 0.0]) + cx * c

    camera = PushbroomCamera(a=a, b=b, c=c)
    if np.min(depth) <= 0:
        raise ValueError("scene construction failed: non-positive scan depth")
    _assert_in_image(camera, box, image_size)
    return SyntheticScene(
        terrain=terrain, camera=camera, volume=volume, anchor=anchor, image_size=image_size
    )

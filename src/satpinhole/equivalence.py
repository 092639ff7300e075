"""Estimate the pinhole camera that best reproduces a rational camera model.

The approach samples a virtual 3D grid across the model's rated volume,
projects it through the rational model, keeps the points landing inside the
image, and solves for a 3x4 projection matrix by direct linear transform over
(ENU ground, pixel) correspondences. RQ factorization then splits the matrix
into intrinsics, rotation, and translation. The fitted camera is scored on a
held-out grid: the report gives the per-axis and combined RMSE and the largest
Euclidean pixel distance between the rational and pinhole projections.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, DegenerateError, FormatError, IllConditionedError
from .geodesy import GeoPoint, _lattice_converter
from .kvio import fmt, get_distance, get_float, get_floats, get_ints, read_kv, require_finite
from .rpc import RpcModel, project_lattice

DEFAULT_GRID_DIMS = (20, 20, 10)
# The most a grid node can take once it survives: pixels (2) and ENU (3) float64.
_SURVIVOR_BYTES = 40
_ROWS = 1 << 13  # ENU rows per block of a pinhole projection: about 1 MB of temporaries


@dataclass(frozen=True)
class VirtualGrid:
    """Ground/image correspondences sampled from a rational model.

    Attributes:
        enu: surviving grid points in the anchor's east-north-up frame, (N, 3).
        pixels: rational-model projections as (samp, line), (N, 2).
        anchor: geodetic origin of the ENU frame.
    """

    enu: np.ndarray
    pixels: np.ndarray
    anchor: GeoPoint

    @property
    def n_points(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class PinholeCamera:
    """Calibrated pinhole camera in a local east-north-up frame.

    K is upper triangular with positive focal lengths and k[2, 2] == 1, R is a
    proper rotation, and a ground point X projects to K (R X + t) followed by
    the perspective divide.
    """

    k: np.ndarray
    r: np.ndarray
    t: np.ndarray
    anchor: GeoPoint
    image_size: tuple[int, int]
    residual_rms_px: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", np.asarray(self.k, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64).reshape(3))
        object.__setattr__(self, "image_size", (int(self.image_size[0]), int(self.image_size[1])))

    def _homogeneous(self, enu: np.ndarray) -> np.ndarray:
        enu = np.asarray(enu, dtype=np.float64)
        return (enu @ self.r.T + self.t) @ self.k.T

    def _row_blocks(self, enu: np.ndarray):
        """Yield (rows, x) over blocks of ``_ROWS`` rows of (N, 3) *enu*, x
        being those rows' homogeneous pixels K (R X + t), (n, 3)."""
        enu = np.asarray(enu, dtype=np.float64)
        for lo in range(0, enu.shape[0], _ROWS):
            rows = slice(lo, lo + _ROWS)
            yield rows, self._homogeneous(enu[rows])

    def project(self, enu: np.ndarray):
        """Project (N, 3) ENU points to (samp, line) pixel arrays, a block of
        rows at a time."""
        n = np.shape(enu)[0]
        samp, line = np.empty(n), np.empty(n)
        for rows, x in self._row_blocks(enu):
            np.divide(x[:, 0], x[:, 2], out=samp[rows])
            np.divide(x[:, 1], x[:, 2], out=line[rows])
        return samp, line

    def depths(self, enu: np.ndarray) -> np.ndarray:
        """Camera-frame depth (Z) of each ENU point: the number
        :meth:`project` divides by, since k's last row is (0, 0, 1)."""
        return self._homogeneous(enu)[:, 2]

    def localize_at_height(self, samp, line, u):
        """Intersect pixel rays with the horizontal plane at ENU height u."""
        samp = np.asarray(samp, dtype=np.float64)
        line = np.asarray(line, dtype=np.float64)
        center = -self.r.T @ self.t
        rays = np.linalg.inv(self.k) @ np.stack(
            [samp.ravel(), line.ravel(), np.ones(samp.size)]
        )
        d = self.r.T @ rays
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = (np.asarray(u, dtype=np.float64).ravel() - center[2]) / d[2]
        e = center[0] + lam * d[0]
        n = center[1] + lam * d[1]
        return e.reshape(samp.shape), n.reshape(samp.shape)


def _axis_nodes(lo: float, hi: float, n: int, stagger: bool) -> np.ndarray:
    if stagger:
        # Nodes at cell centers of a 2x-refined lattice: never coincide with
        # the plain linspace nodes, so validation points are held out.
        step = (hi - lo) / n
        return lo + (np.arange(n) + 0.5) * step
    return np.linspace(lo, hi, n)


def _physical_memory() -> int:
    """Bytes of physical memory, or 2**63 where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 2**63


def _survivors(model: RpcModel, image_size, dims, stagger: bool, anchor: GeoPoint):
    """The nodes of a grid that project into the image, one lattice block at a time.

    Checks *dims* and *image_size* as :func:`build_virtual_grid` documents,
    and refuses with MemoryError, before any work, a grid whose nodes could
    not all be kept in physical memory. Then it yields, for each block of
    :func:`~satpinhole.rpc.project_lattice`, its survivors' (pixels (k, 2),
    ENU (k, 3)) in lattice order. After the last block it raises
    DegenerateError if fewer than 6 nodes survived or they all lie in one
    altitude layer.
    """
    n_lat, n_lon, n_alt = (int(d) for d in dims)
    if min(n_lat, n_lon, n_alt) < 2:
        raise DegenerateError(f"grid dims must each be >= 2, got {dims}")
    w, h = image_size
    if not (w > 0 and h > 0):
        raise ValueError(f"image size must be positive, got {w} x {h}")
    worst = n_lat * n_lon * n_alt * _SURVIVOR_BYTES
    if worst > _physical_memory():
        raise MemoryError(
            f"a {n_lat} x {n_lon} x {n_alt} grid can keep {worst} bytes of "
            "survivors, more than this machine's memory"
        )
    lats = _axis_nodes(model.lat_off - model.lat_scale, model.lat_off + model.lat_scale, n_lat, stagger)
    lons = _axis_nodes(model.lon_off - model.lon_scale, model.lon_off + model.lon_scale, n_lon, stagger)
    alts = _axis_nodes(model.alt_off - model.alt_scale, model.alt_off + model.alt_scale, n_alt, stagger)
    to_enu = _lattice_converter(lats, lons, anchor)
    size, layers = 0, np.zeros(n_alt, dtype=bool)
    for index, samp, line in project_lattice(model, lats, lons, alts):
        idx = np.flatnonzero((samp >= 0.0) & (samp < w) & (line >= 0.0) & (line < h))
        i_lat, i_lon, i_alt = (i[idx] for i in index)
        size += idx.size
        layers[i_alt] = True
        pixels = np.column_stack([samp[idx], line[idx]])
        enu = to_enu(i_lat, i_lon, alts[i_alt])
        # The caller works on the block while this frame is suspended.
        del index, samp, line, idx, i_lat, i_lon, i_alt
        yield pixels, enu
    if size < 6:
        raise DegenerateError(f"only {size} grid points project inside the image; need >= 6")
    if np.unique(alts[layers]).size < 2:
        raise DegenerateError("all surviving grid points lie in one altitude layer; need >= 2")


def build_virtual_grid(
    model: RpcModel,
    image_size: tuple[int, int],
    dims: tuple[int, int, int] = DEFAULT_GRID_DIMS,
    stagger: bool = False,
    anchor: GeoPoint | None = None,
) -> VirtualGrid:
    """Sample the model's rated volume and keep points that hit the image.

    The grid spans offset +- scale on each ground axis. Points projecting
    outside [0, width) x [0, height) are discarded, mirroring how image
    extent masks ground coverage. The survivors are converted to ENU at the
    model's offset point (or an explicit *anchor*).

    The nodes form a lattice, which :func:`~satpinhole.rpc.project_lattice`
    evaluates in fixed blocks of its flat C order, with the bits
    :func:`~satpinhole.rpc.project_forward` gives on the broadcast axes.
    Each block keeps only its survivors' pixels and ENU, the latter
    gathered from per-axis-value trigonometry by the survivors' node
    indices, so the memory is the survivors plus one block, whatever the
    lattice size.
    Survivors come in C order of (lat, lon, alt) index.

    The grid only samples. Whether the survivors determine a camera is the
    DLT's question: :func:`solve_projection` refuses coplanar and collinear
    ones. A single altitude layer is refused here: the Earth's curvature
    bends it just off a plane, so the DLT would fit it, and badly.

    Raises:
        ValueError: if the image width or height is not positive.
        MemoryError: if the survivors, at 40 bytes a node, could outgrow
            physical memory: the grid is refused before it is walked.
        DegenerateError: if any dim < 2, fewer than 6 points survive, or
            they all lie in one altitude layer.
    """
    if anchor is None:
        anchor = GeoPoint(model.lat_off, model.lon_off, model.alt_off)
    pixels, enu = [], []
    for block_pixels, block_enu in _survivors(model, image_size, dims, stagger, anchor):
        pixels.append(block_pixels)
        enu.append(block_enu)
    enu = np.concatenate(enu)
    pixels = np.concatenate(pixels)
    return VirtualGrid(enu=enu, pixels=pixels, anchor=anchor)


def _condition(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley's similarity T taking (N, d) points to their centroid at RMS
    radius sqrt(d), and the points it gives."""
    d = points.shape[1]
    c = points.mean(axis=0)
    dp = points - c
    rms = np.sqrt(np.mean(np.sum(dp ** 2, axis=1)))
    if rms <= 0.0:
        raise IllConditionedError("correspondences collapse to a single point")
    s = np.sqrt(d) / rms
    t = np.eye(d + 1)
    t[:d, :d] *= s
    t[:d, d] = -s * c
    return t, dp * s


def _normalized_dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Fit the 3 x (d + 1) matrix M with dst ~ M [src; 1], for (N, d) *src*
    and (N, 2) *dst*, by normalized DLT (Hartley & Zisserman, ch. 4).

    Returns M in raw coordinates. Critical points (collinear, coplanar) leave
    sigma[-2] of the conditioned system near 1e-17 sigma1, cameras above 1e-4.

    Raises:
        IllConditionedError: if either point set collapses to a single point,
            or sigma[-2] < 1e-8 sigma1 (about sqrt(eps)): M is not unique.
    """
    t_src, xn = _condition(src)
    t_dst, un = _condition(dst)
    n, k = xn.shape[0], xn.shape[1] + 1
    cols = 3 * k
    xh = np.vstack([xn.T, np.ones(n)])

    # Row 2i of the system is point i's samp equation, row 2i + 1 its line
    # equation; zero rows pad it to at least as many rows as unknowns. It is
    # filled by column, the layout LAPACK works in, so the factorization below
    # makes no transposing copy.
    at = np.zeros((cols, max(2 * n, cols)))
    at[0:k, 0 : 2 * n : 2] = xh
    at[2 * k :, 0 : 2 * n : 2] = -un[:, 0] * xh
    at[k : 2 * k, 1 : 2 * n : 2] = xh
    at[2 * k :, 1 : 2 * n : 2] = -un[:, 1] * xh
    a = at.T

    # Only sv and V are needed, and the square R of a QR factorization has
    # the same ones, so U is never formed.
    _, sv, vt = np.linalg.svd(np.linalg.qr(a, mode="r"), full_matrices=False)
    if sv[-2] < 1e-8 * sv[0]:
        raise IllConditionedError(
            f"correspondences do not determine a unique solution (sigma[-2]/sigma1 = {sv[-2] / sv[0]:.3g} < 1e-8)"
        )
    return np.linalg.inv(t_dst) @ vt[-1].reshape(3, k) @ t_src


def solve_projection(grid: VirtualGrid) -> np.ndarray:
    """Solve for the 3x4 projection matrix by normalized DLT.

    Returns the unit-norm matrix taking homogeneous ENU points to pixels,
    signed so that its left 3x3 block has a positive determinant.

    Raises:
        IllConditionedError: if the correspondences collapse to a point or
            do not determine the matrix, or the left 3x3 is singular.
    """
    p = _normalized_dlt(grid.enu, grid.pixels)
    p = p / np.linalg.norm(p)
    det = np.linalg.det(p[:, :3])
    if det < 0:
        p = -p
    elif det == 0.0:
        raise IllConditionedError("left 3x3 of the projection matrix is singular")
    return p


def _rq(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M = K R with K upper triangular, positive diagonal, and R orthonormal.

    With P the row reversal, the QR factorization (P M)^T = Q U gives
    M = (P U^T P)(P Q^T), an upper-triangular times an orthonormal matrix.
    """
    q, u = np.linalg.qr(m[::-1].T)
    k = u.T[::-1, ::-1]
    r = q.T[::-1]
    s = np.diag(np.where(np.diag(k) < 0, -1.0, 1.0))
    return k @ s, s @ r


def decompose_projection(
    p: np.ndarray,
    grid: VirtualGrid,
    image_size: tuple[int, int],
) -> PinholeCamera:
    """Factor a 3x4 projection matrix into K (intrinsics), R, and t.

    RQ factorization of the left 3x3 block, with signs arranged so the focal
    lengths are positive, k[2, 2] == 1, and det(R) == +1. The grid fixes the
    remaining global sign: points must sit in front of the camera. The
    camera's ``residual_rms_px`` is the RMS pixel distance between *p*
    applied to the grid nodes and ``grid.pixels``.

    Raises:
        DecompositionError: if cheirality cannot be satisfied or the
            factorization fails to reproduce the matrix.
    """
    # A node's depth has the sign of det(p[:, :3]) * w, for (u w, v w, w) the
    # node through p (Hartley & Zisserman, 6.2.3). So cheirality is read from
    # w, before the residual divides by it.
    x = np.column_stack([grid.enu, np.ones(grid.n_points)]) @ p.T
    behind = np.sign(np.linalg.det(p[:, :3])) * x[:, 2] <= 0
    if behind.all():
        raise DecompositionError(
            "cheirality unsatisfiable: the best-fit camera is a mirror image "
            "(the source pixel frame is left-handed)"
        )
    if behind.any():
        raise DecompositionError(
            f"cheirality unsatisfiable: {int(behind.sum())} of {len(behind)} "
            "grid points fall behind the camera"
        )

    k, r = _rq(p[:, :3])
    t = np.linalg.solve(k, p[:, 3])
    if np.linalg.det(r) < 0:
        r = -r
        t = -t
    k = k / k[2, 2]
    rebuilt = k @ np.column_stack([r, t])
    rebuilt = rebuilt / np.linalg.norm(rebuilt)
    reference = p / np.linalg.norm(p)
    mismatch = min(
        np.max(np.abs(rebuilt - reference)), np.max(np.abs(rebuilt + reference))
    )
    if mismatch > 1e-10:
        raise DecompositionError(
            f"factorization does not reproduce the projection matrix (max dev {mismatch:.3g})"
        )

    du = x[:, 0] / x[:, 2] - grid.pixels[:, 0]
    dv = x[:, 1] / x[:, 2] - grid.pixels[:, 1]
    return PinholeCamera(
        k=k,
        r=r,
        t=t,
        anchor=grid.anchor,
        image_size=image_size,
        residual_rms_px=float(np.sqrt(np.mean(du * du + dv * dv))),
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Summary of pinhole-vs-rational projection residuals.

    The combined rmse satisfies rmse**2 == samp_rmse**2 + line_rmse**2, and
    max_error is the largest per-point Euclidean pixel distance.
    """

    samp_rmse: float
    line_rmse: float
    rmse: float
    max_error: float
    n_points: int

    @classmethod
    def from_residuals(cls, dsamp: np.ndarray, dline: np.ndarray) -> "EquivalenceReport":
        dsamp = np.asarray(dsamp, dtype=np.float64).ravel()
        dline = np.asarray(dline, dtype=np.float64).ravel()
        if dsamp.size == 0:
            raise ValueError("cannot summarize an empty residual set")
        samp_rmse = float(np.sqrt(np.mean(dsamp**2)))
        line_rmse = float(np.sqrt(np.mean(dline**2)))
        return cls(
            samp_rmse=samp_rmse,
            line_rmse=line_rmse,
            rmse=float(np.hypot(samp_rmse, line_rmse)),
            max_error=float(np.max(np.hypot(dsamp, dline))),
            n_points=int(dsamp.size),
        )


def format_equivalence_report(report: EquivalenceReport) -> str:
    lines = [
        f"SAMP_RMSE_PX: {fmt(report.samp_rmse)}",
        f"LINE_RMSE_PX: {fmt(report.line_rmse)}",
        f"RMSE_PX: {fmt(report.rmse)}",
        f"MAX_ERROR_PX: {fmt(report.max_error)}",
        f"N_POINTS: {report.n_points}",
    ]
    return "\n".join(lines) + "\n"


def parse_equivalence_report(text: str) -> EquivalenceReport:
    """Parse report text written by format_equivalence_report.

    The four pixel distances must be finite and non-negative.
    """
    kv = read_kv(text)
    keys = ("SAMP_RMSE_PX", "LINE_RMSE_PX", "RMSE_PX", "MAX_ERROR_PX")
    values = [get_distance(kv, key) for key in keys]
    return EquivalenceReport(*values, n_points=get_ints(kv, "N_POINTS", 1)[0])


def measure_equivalence_error(
    model: RpcModel,
    camera: PinholeCamera,
    grid: VirtualGrid,
    warp=None,
) -> EquivalenceReport:
    """Compare rational and pinhole projections over a virtual grid.

    The rational projections come from ``grid.pixels``, which must be
    *model*'s projections of the grid nodes, as
    :func:`~satpinhole.equivalence.build_virtual_grid` makes them; *model* is
    the model *grid* was sampled from. When *warp* is given (any object with
    an ``apply(x, y)`` method), the pinhole projections are pushed through it
    before differencing, so the result measures the post-refinement residual.
    """
    _, dsamp, dline = _score(camera, grid, warp)
    return EquivalenceReport.from_residuals(dsamp, dline)


def _score(camera: PinholeCamera, grid: VirtualGrid, warp=None):
    """Score *camera* (through *warp*, if given) on *grid* in one pass of row blocks.

    Returns (behind, dsamp, dline): the count of nodes at or behind the
    camera (w <= 0 for (u w, v w, w) = K (R X + t)), and each node's
    rational minus pinhole pixel residual. A node with w == 0 gives an
    infinite residual without a warning: a fit refuses such a grid by its
    count instead.
    """
    n = grid.n_points
    dsamp, dline = np.empty(n), np.empty(n)
    behind = 0
    for rows, x in camera._row_blocks(grid.enu):
        behind += int(np.count_nonzero(x[:, 2] <= 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            psamp, pline = x[:, 0] / x[:, 2], x[:, 1] / x[:, 2]
        if warp is not None:
            psamp, pline = warp.apply(psamp, pline)
        np.subtract(grid.pixels[rows, 0], psamp, out=dsamp[rows])
        np.subtract(grid.pixels[rows, 1], pline, out=dline[rows])
    return behind, dsamp, dline


@dataclass(frozen=True)
class Equivalence:
    """An equivalent pinhole camera with the grids it was fit and scored on.

    Attributes:
        camera: the pinhole camera fit on *fit_grid*.
        report: its error against the model over *val_grid*.
        fit_grid: the correspondences the camera was fit on; a refinement
            warp is fit on the same ones.
        val_grid: the held-out validation grid, at twice the fit density and
            staggered by half a cell so no node is shared with *fit_grid*.
    """

    camera: PinholeCamera
    report: EquivalenceReport
    fit_grid: VirtualGrid
    val_grid: VirtualGrid


def fit_equivalence(
    model: RpcModel,
    image_size: tuple[int, int],
    dims: tuple[int, int, int] = DEFAULT_GRID_DIMS,
) -> Equivalence:
    """Fit the equivalent pinhole camera and score it on a held-out grid.

    The camera is fit on a virtual grid of *dims* nodes; the reported error
    comes from an independent validation grid at twice the density, offset by
    half a cell so no node is shared. Both grids are returned for reuse, so a
    refinement warp and its before/after reports need no further grids.

    Raises:
        DecompositionError: if the camera cannot be factored from the fit
            grid, or if any validation node falls behind it, where the
            report would score mirrored projections.
    """
    fit_grid = build_virtual_grid(model, image_size, dims)
    p = solve_projection(fit_grid)
    camera = decompose_projection(p, fit_grid, image_size)
    val_dims = (2 * dims[0], 2 * dims[1], 2 * dims[2])
    val_grid = build_virtual_grid(model, image_size, val_dims, stagger=True)
    behind, dsamp, dline = _score(camera, val_grid)
    if behind:
        raise DecompositionError(
            f"cheirality unsatisfiable: {behind} of {val_grid.n_points} "
            "validation points fall behind the camera"
        )
    report = EquivalenceReport.from_residuals(dsamp, dline)
    return Equivalence(camera=camera, report=report, fit_grid=fit_grid, val_grid=val_grid)


def equate(
    model: RpcModel,
    image_size: tuple[int, int],
    dims: tuple[int, int, int] = DEFAULT_GRID_DIMS,
):
    """Compute the equivalent pinhole camera and its approximation error.

    The same fit as :func:`fit_equivalence`, keeping neither grid.

    Returns:
        (PinholeCamera, EquivalenceReport)
    """
    eq = fit_equivalence(model, image_size, dims)
    return eq.camera, eq.report


def format_camera(cam: PinholeCamera) -> str:
    """Serialize a pinhole camera to key-value text."""
    lines = [
        f"IMAGE_SIZE: {cam.image_size[0]} {cam.image_size[1]}",
        f"ANCHOR_LAT: {fmt(cam.anchor.lat)}",
        f"ANCHOR_LON: {fmt(cam.anchor.lon)}",
        f"ANCHOR_ALT: {fmt(cam.anchor.alt)}",
        "K: " + " ".join(fmt(v) for v in cam.k.ravel()),
        "R: " + " ".join(fmt(v) for v in cam.r.ravel()),
        "T: " + " ".join(fmt(v) for v in cam.t.ravel()),
        f"RESIDUAL_RMS_PX: {fmt(cam.residual_rms_px)}",
    ]
    return "\n".join(lines) + "\n"


def parse_camera(text: str) -> PinholeCamera:
    """Parse key-value camera text written by format_camera.

    K and R must meet :class:`PinholeCamera`'s invariants: K upper triangular
    with a positive diagonal and K[2][2] == 1, R a rotation (max |R^T R - I|
    at most 1e-9 and det R > 0).
    """
    kv = read_kv(text)
    size = get_ints(kv, "IMAGE_SIZE", 2)
    lat, lon, alt = (get_float(kv, key) for key in ("ANCHOR_LAT", "ANCHOR_LON", "ANCHOR_ALT"))
    k = np.array(get_floats(kv, "K", 9)).reshape(3, 3)
    r = np.array(get_floats(kv, "R", 9)).reshape(3, 3)
    t = np.array(get_floats(kv, "T", 3))
    rms = get_distance(kv, "RESIDUAL_RMS_PX")
    for key, value, bound in (("ANCHOR_LAT", lat, 90.0), ("ANCHOR_LON", lon, 180.0)):
        if not -bound <= value <= bound:
            raise FormatError(f"{key}: must lie in [-{bound:g}, {bound:g}], got {kv[key]!r}")
    require_finite(kv, {"ANCHOR_ALT": alt, "K": k, "R": r, "T": t})
    if np.any(np.tril(k, -1)) or not (np.all(np.diag(k) > 0) and k[2, 2] == 1):
        raise FormatError(
            "K: must be upper triangular with a positive diagonal and "
            f"K[2][2] == 1, got {kv['K']!r}"
        )
    if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9 or not np.linalg.det(r) > 0:
        raise FormatError(
            f"R: must be a rotation (max |R^T R - I| <= 1e-9, det > 0), got {kv['R']!r}"
        )
    return PinholeCamera(
        k=k, r=r, t=t, anchor=GeoPoint(lat, lon, alt),
        image_size=tuple(size),
        residual_rms_px=rms,
    )


def load_camera(path) -> PinholeCamera:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_camera(fh.read())


def save_camera(cam: PinholeCamera, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_camera(cam))

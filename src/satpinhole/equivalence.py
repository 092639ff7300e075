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

from dataclasses import dataclass, replace

import numpy as np

from .errors import DecompositionError, DegenerateError, FormatError, IllConditionedError
from .geodesy import GeoPoint, _lattice_converter
from .kvio import format_kv, get_distance, get_float, get_floats, get_ints, read_file, read_kv, require_finite, write_file
from .raster import _image_size, _require_memory, _row_blocks, _whole
from .rpc import RpcModel, project_lattice

DEFAULT_GRID_DIMS = (20, 20, 10)
# The most a grid node can take once it survives: pixels (2) and ENU (3) float64.
_SURVIVOR_BYTES = 40


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
        object.__setattr__(self, "image_size", _image_size(self.image_size))

    def _homogeneous(self, enu: np.ndarray) -> np.ndarray:
        enu = np.asarray(enu, dtype=np.float64)
        return (enu @ self.r.T + self.t) @ self.k.T

    def project(self, enu: np.ndarray):
        """Project (N, 3) ENU points to (samp, line) pixel arrays by :func:`_score`;
        a point at depth 0 gives an infinite pixel, without a warning."""
        _, (samp, line) = _score(self, enu)
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


def _grid_axes(model: RpcModel, dims, stagger: bool):
    """The (lat, lon, alt) node values of a *dims* grid over *model*'s rated
    volume: offset +- scale on each axis."""
    return tuple(
        _axis_nodes(off - scale, off + scale, n, stagger)
        for off, scale, n in zip(
            (model.lat_off, model.lon_off, model.alt_off),
            (model.lat_scale, model.lon_scale, model.alt_scale),
            dims,
        )
    )


def _survivors(crops, axes, anchor: GeoPoint):
    """The nodes of the lattice on *axes* that project into each crop, one
    lattice block at a time, from one walk of the lattice.

    *crops* is a sequence of (model, (width, height)) crops of one image.
    The models must differ only in their pixel offsets, as the
    :func:`~satpinhole.tiling.crop_rpc` models of one model do: the walk
    reads every other term from the first crop's model. For each block of
    :func:`~satpinhole.rpc.project_lattice` it yields a tuple with, per crop,
    the survivors' (pixels (k, 2) on the crop, ENU (k, 3), altitude indices
    (k,)) in lattice order. It only samples: how many survivors there must
    be, and in how many layers, is the caller's rule.

    The lattice is walked on the first crop's model with both pixel offsets
    -0.0, and ``x + -0.0`` is ``x`` for every float: the walk gives each
    node's scaled ratio. A crop's pixels are that plus its model's
    ``samp_off`` and ``line_off``, the two float steps ``project_lattice``
    takes on that model, so each crop's survivors carry the bits a walk of
    its model gives.
    """
    lats, lons, alts = axes
    to_enu = _lattice_converter(lats, lons, anchor)
    walk = project_lattice(replace(crops[0][0], samp_off=-0.0, line_off=-0.0), lats, lons, alts)
    for index, samp, line in walk:
        block = []
        for model, (w, h) in crops:
            s, l = samp + model.samp_off, line + model.line_off
            idx = np.flatnonzero((s >= 0.0) & (s < w) & (l >= 0.0) & (l < h))
            i_lat, i_lon, i_alt = (i[idx] for i in index)
            block.append((np.column_stack([s[idx], l[idx]]), to_enu(i_lat, i_lon, alts[i_alt]), i_alt))
        # The caller works on the block while this frame is suspended.
        del index, samp, line, s, l, idx, i_lat, i_lon
        yield tuple(block)


def _virtual_grids(crops, dims, stagger: bool = False, anchor: GeoPoint | None = None):
    """:func:`build_virtual_grid` of each (model, image size) crop, from one
    walk of the lattice: a list of grids, each with the bits of
    ``build_virtual_grid(model, size, dims, stagger, anchor)``. The models
    are crops of one image, as :func:`_survivors` takes them.

    The rules are checked as there: the dims, then every crop's size, then
    the memory of all crops' survivors together, before the walk; each
    crop's survivor count and layers, in crop order, after it.
    """
    n_lat, n_lon, n_alt = (_whole(d, -np.inf, f"grid dims must be whole numbers, got {dims}") for d in dims)
    if min(n_lat, n_lon, n_alt) < 2:
        raise DegenerateError(f"grid dims must each be >= 2, got {dims}")
    crops = [(model, _image_size(size)) for model, size in crops]
    worst = len(crops) * n_lat * n_lon * n_alt * _SURVIVOR_BYTES
    grids = f"{len(crops)} crops of " if len(crops) > 1 else ""
    _require_memory(worst, f"{grids}a {n_lat} x {n_lon} x {n_alt} grid can keep {worst} bytes of survivors")
    model = crops[0][0]
    if anchor is None:
        anchor = GeoPoint(model.lat_off, model.lon_off, model.alt_off)
    axes = _grid_axes(model, (n_lat, n_lon, n_alt), stagger)
    parts = [([], [], np.zeros(n_alt, dtype=bool)) for _ in crops]
    for block in _survivors(crops, axes, anchor):
        for (pixels, enu, layers), (block_pixels, block_enu, i_alt) in zip(parts, block):
            pixels.append(block_pixels)
            enu.append(block_enu)
            layers[i_alt] = True
    return [_kept_grid(pixels, enu, axes[2][layers], anchor) for pixels, enu, layers in parts]


def _kept_grid(pixels, enu, layers, anchor: GeoPoint) -> VirtualGrid:
    """The grid of a crop's survivor blocks, refused if they cannot fit a
    camera: fewer than 6 nodes, or all in one of the altitude *layers*
    they reach."""
    size = sum(block.shape[0] for block in pixels)
    if size < 6:
        raise DegenerateError(f"only {size} grid points project inside the image; need >= 6")
    if np.unique(layers).size < 2:
        raise DegenerateError("all surviving grid points lie in one altitude layer; need >= 2")
    return VirtualGrid(enu=np.concatenate(enu), pixels=np.concatenate(pixels), anchor=anchor)


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

    The grid is built for a fit, and the fit's rules are checked here: the
    dims and image size before the walk, and the survivors' count and
    layers after it. Whether the survivors determine a camera is the DLT's
    question: :func:`solve_projection` refuses coplanar and collinear ones.
    A single altitude layer is refused here: the Earth's curvature bends it
    just off a plane, so the DLT would fit it, and badly.

    Raises:
        ValueError: if the image size is not whole positive pixels, or a dim not a whole number.
        MemoryError: if the survivors, at 40 bytes a node, could outgrow
            physical memory: the grid is refused before it is walked.
        DegenerateError: if any dim < 2, fewer than 6 points survive, or
            they all lie in one altitude layer.
    """
    return _virtual_grids([(model, image_size)], dims, stagger, anchor)[0]


def _condition(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley's similarity T taking (N, d) points to their centroid at RMS
    radius sqrt(d), and the points it gives."""
    d = points.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        c = points.mean(axis=0)
        dp = points - c
        rms = np.sqrt(np.mean(np.sum(dp ** 2, axis=1)))
    if not np.isfinite(rms):
        raise IllConditionedError("correspondences spread past the float range")
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
        IllConditionedError: if either point set collapses to a single point
            or spreads past the float range (its RMS radius overflows), or
            sigma[-2] < 1e-8 sigma1 (about sqrt(eps)): M is not unique.
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
    _require_in_front(int(behind.sum()), len(behind), "grid")

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
            max_error=float(_max_hypot(dsamp, dline)),
            n_points=int(dsamp.size),
        )


def _max_hypot(dx: np.ndarray, dy: np.ndarray):
    """``np.max(np.hypot(dx, dy))`` of two non-empty 1-D float64 arrays, bit
    for bit, with hypot taken only where the max can be.

    hypot is within an ulp of the exact norm, and a squared norm within a
    few ulps of its exact value, so a node whose squared norm is more than
    1e-12 (relative) below the largest cannot hold the max. Where the
    largest is not finite or not a normal float (overflow, NaN, inf,
    underflow), the squares cannot rank the nodes, and every node takes
    its hypot.
    """
    with np.errstate(over="ignore"):
        sq = np.square(dx)
        sq += np.square(dy)
    top = sq.max()
    if not (np.isfinite(top) and top >= np.finfo(np.float64).tiny):
        return np.max(np.hypot(dx, dy))
    near = np.flatnonzero(sq >= top * (1.0 - 1e-12))
    return np.max(np.hypot(dx[near], dy[near]))


# The report's keys, in the order of EquivalenceReport's fields.
_REPORT_KEYS = ("SAMP_RMSE_PX", "LINE_RMSE_PX", "RMSE_PX", "MAX_ERROR_PX", "N_POINTS")


def format_equivalence_report(report: EquivalenceReport) -> str:
    values = (report.samp_rmse, report.line_rmse, report.rmse, report.max_error, report.n_points)
    return format_kv(zip(_REPORT_KEYS, values))


def parse_equivalence_report(text: str) -> EquivalenceReport:
    """Parse report text written by format_equivalence_report.

    The four pixel distances must be finite and non-negative.
    """
    kv = read_kv(text)
    *distances, count = _REPORT_KEYS
    return EquivalenceReport(*(get_distance(kv, key) for key in distances), get_ints(kv, count, 1)[0])


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

    Raises:
        ValueError: if *grid* is in another ENU frame than *camera*.
        DecompositionError: if any grid node lies at or behind the camera.
    """
    _require_same_frame(camera, grid)
    behind, residual = _score(camera, grid.enu, warp)
    _require_in_front(behind, grid.n_points, "grid")
    np.subtract(grid.pixels.T, residual, out=residual)
    return EquivalenceReport.from_residuals(*residual)


def _score(camera: PinholeCamera, enu: np.ndarray, warp=None):
    """Project (N, 3) *enu* through *camera* (then *warp*, if given) in one
    pass of row blocks, each of ``_BLOCK_CELLS`` rows, the budget
    :func:`~satpinhole.raster._row_blocks` gives every frame kernel: the
    package's only pinhole divide past the fit.

    Returns (behind, pixels): the count of nodes at or behind the camera
    (w <= 0 for (u w, v w, w) = K (R X + t)), and the nodes' pinhole
    (samp, line) as a (2, N) array. A node with w == 0 gives an infinite
    pixel without a warning: a caller refuses such nodes by their count
    instead, through :func:`_require_in_front`.
    """
    enu = np.asarray(enu, dtype=np.float64)
    pixels = np.empty((2, enu.shape[0]))
    behind = 0
    for rows in _row_blocks(enu.shape[0], 1):
        x = camera._homogeneous(enu[rows])
        behind += int(np.count_nonzero(x[:, 2] <= 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x[:, :2].T, x[:, 2], out=pixels[:, rows])
            if warp is not None:
                pixels[:, rows] = warp.apply(*pixels[:, rows])
    return behind, pixels


def _require_in_front(behind: int, n: int, kind: str) -> None:
    """Refuse a score in which *behind* of *n* *kind* points lie at or
    behind the camera: their pinhole projections are mirror images.

    Raises:
        DecompositionError: if *behind* is not zero.
    """
    if behind:
        raise DecompositionError(
            f"cheirality unsatisfiable: {behind} of {n} {kind} points fall behind the camera"
        )


def _require_same_frame(camera: PinholeCamera, grid: VirtualGrid) -> None:
    """Refuse to compare *camera* and *grid* in the ENU frames of two anchors."""
    if grid.anchor != camera.anchor:
        raise ValueError(f"the grid's ENU frame is anchored at {grid.anchor}, the camera's at {camera.anchor}")


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
    camera = _fit_camera(fit_grid, image_size)
    val_grid = build_virtual_grid(model, image_size, _validation_dims(dims), stagger=True)
    report = measure_equivalence_error(model, camera, val_grid)
    return Equivalence(camera=camera, report=report, fit_grid=fit_grid, val_grid=val_grid)


def _validation_dims(dims):
    """The dims of the validation grid of a fit on a *dims* grid: twice the density."""
    return (2 * dims[0], 2 * dims[1], 2 * dims[2])


def _fit_camera(fit_grid: VirtualGrid, image_size) -> PinholeCamera:
    """The pinhole camera of a fit grid: the DLT, then its factorization."""
    return decompose_projection(solve_projection(fit_grid), fit_grid, image_size)


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
    anchor = cam.anchor
    return format_kv([
        ("IMAGE_SIZE", cam.image_size),
        ("ANCHOR_LAT", anchor.lat), ("ANCHOR_LON", anchor.lon), ("ANCHOR_ALT", anchor.alt),
        ("K", cam.k.ravel().tolist()), ("R", cam.r.ravel().tolist()), ("T", cam.t.tolist()),
        ("RESIDUAL_RMS_PX", cam.residual_rms_px),
    ])


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
    return parse_camera(read_file(path))


def save_camera(cam: PinholeCamera, path) -> None:
    write_file(path, format_camera(cam))

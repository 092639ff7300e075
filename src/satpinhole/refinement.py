"""Least-squares image warps that shrink the pinhole approximation residual.

A warp maps corrected-image coordinates to original-image coordinates. It is
fit on (pinhole projection, rational projection) correspondence pairs, so
resampling the original image through it yields an image consistent with the
pinhole camera. The warp is a 12-coefficient bivariate quadratic (two
independent 6-term polynomials), and warp files hold only that family.

The plane homography is kept as a library comparator, not as a warp to use:
applied after a 3x4 camera it gives another 3x4 camera, which the DLT has
already fitted over, so it cannot shrink the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivalence import PinholeCamera, VirtualGrid, _normalized_dlt
from .errors import DegenerateError, FormatError
from .kvio import fmt, get_distance, get_floats, read_kv, require_finite
from .raster import Raster, _row_blocks, interpolate
from .rpc import RpcModel

# Coefficients of the identity quadratic warp: x' = x, y' = y.
IDENTITY_COEFFS = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class PolynomialWarp:
    """Bivariate quadratic warp with coefficients in raw pixel coordinates.

    x' = m0 + m1 x + m2 y + m3 x y + m4 x^2 + m5 y^2 and the same pattern in
    m6..m11 for y'.
    """

    m: np.ndarray
    fit_rms_px: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.m, dtype=np.float64).reshape(12)
        object.__setattr__(self, "m", arr)

    def apply(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        m = self.m
        xo = m[0] + m[1] * x + m[2] * y + m[3] * x * y + m[4] * x * x + m[5] * y * y
        yo = m[6] + m[7] * x + m[8] * y + m[9] * x * y + m[10] * x * x + m[11] * y * y
        return xo, yo


@dataclass(frozen=True)
class Homography:
    """Projective plane warp, normalized so h[2, 2] == 1."""

    h: np.ndarray
    fit_rms_px: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.h, dtype=np.float64).reshape(3, 3)
        object.__setattr__(self, "h", arr)

    def apply(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        h = self.h
        w = h[2, 0] * x + h[2, 1] * y + h[2, 2]
        xo = (h[0, 0] * x + h[0, 1] * y + h[0, 2]) / w
        yo = (h[1, 0] * x + h[1, 1] * y + h[1, 2]) / w
        return xo, yo


def _compose_affine(m6: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    """Coefficients of p(a x + b, c y + d) given those of p(x, y)."""
    m0, m1, m2, m3, m4, m5 = m6
    return np.array(
        [
            m0 + m1 * b + m2 * d + m3 * b * d + m4 * b * b + m5 * d * d,
            m1 * a + m3 * a * d + 2.0 * m4 * a * b,
            m2 * c + m3 * b * c + 2.0 * m5 * c * d,
            m3 * a * c,
            m4 * a * a,
            m5 * c * c,
        ]
    )


def _correspondences(src, dst, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    """Check two finite (N, 2) point arrays of equal shape, with N >= *minimum*."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    for name, arr in (("src", src), ("dst", dst)):
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected (N, 2) point array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} points must be finite")
    if src.shape != dst.shape:
        raise ValueError(f"source/destination shapes differ: {src.shape} vs {dst.shape}")
    if src.shape[0] < minimum:
        raise DegenerateError(f"need at least {minimum} correspondences, got {src.shape[0]}")
    return src, dst


def _fit_rms(warp, src: np.ndarray, dst: np.ndarray) -> float:
    px, py = warp.apply(src[:, 0], src[:, 1])
    return float(np.sqrt(np.mean((px - dst[:, 0]) ** 2 + (py - dst[:, 1]) ** 2)))


def fit_polynomial(src, dst) -> PolynomialWarp:
    """Fit the quadratic warp minimizing sum ||warp(src) - dst||^2.

    Source coordinates are shifted and scaled to [-1, 1]^2 before solving the
    two independent linear systems, and the coefficients are mapped back to
    raw pixel coordinates afterwards, so evaluation needs no normalization
    state.

    Raises:
        ValueError: point arrays not finite, (N, 2) and of one shape.
        DegenerateError: fewer than 6 points, or source points
            lying on a single conic (rank-deficient design).
    """
    src, dst = _correspondences(src, dst, 6)
    n = src.shape[0]

    lo = src.min(axis=0)
    hi = src.max(axis=0)
    center = (hi + lo) / 2.0
    scale = np.maximum((hi - lo) / 2.0, 1e-12)
    xn = (src[:, 0] - center[0]) / scale[0]
    yn = (src[:, 1] - center[1]) / scale[1]

    a = np.column_stack([np.ones(n), xn, yn, xn * yn, xn * xn, yn * yn])
    coeffs, _, _, sv = np.linalg.lstsq(a, dst, rcond=None)
    if sv[-1] < 1e-10 * sv[0]:
        raise DegenerateError(
            "source points lie on a single conic; quadratic warp is not determined"
        )

    ax, bx = 1.0 / scale[0], -center[0] / scale[0]
    ay, by = 1.0 / scale[1], -center[1] / scale[1]
    mx = _compose_affine(coeffs[:, 0], ax, bx, ay, by)
    my = _compose_affine(coeffs[:, 1], ax, bx, ay, by)

    trial = PolynomialWarp(m=np.concatenate([mx, my]))
    return PolynomialWarp(m=trial.m, fit_rms_px=_fit_rms(trial, src, dst))


def fit_homography(src, dst) -> Homography:
    """Fit a plane homography by the normalized DLT of ``solve_projection``.

    Raises:
        ValueError: point arrays not finite, (N, 2) and of one shape.
        DegenerateError: fewer than 4 points, or a fit whose h22 vanishes.
        IllConditionedError: the points collapse or do not determine the
            homography (collinear or other critical points).
    """
    src, dst = _correspondences(src, dst, 4)
    h = _normalized_dlt(src, dst)
    if abs(h[2, 2]) < 1e-12 * np.abs(h).max():
        raise DegenerateError("homography is degenerate (h22 vanishes)")

    trial = Homography(h=h / h[2, 2])
    return Homography(h=trial.h, fit_rms_px=_fit_rms(trial, src, dst))


def build_refinement(
    model: RpcModel,
    camera: PinholeCamera,
    grid: VirtualGrid,
    kind: str = "polynomial",
):
    """Fit the warp taking pinhole projections onto rational projections.

    The rational projections are not recomputed: they come from
    ``grid.pixels``, which must be *model*'s projections of the grid nodes, as
    :func:`~satpinhole.equivalence.build_virtual_grid` makes them.

    Args:
        model: the rational polynomial model *grid* was sampled from.
        camera: equivalent pinhole camera.
        grid: correspondence grid (typically the fit grid from equate).
        kind: "polynomial", or "homography" for the comparator, which
            :func:`format_warp` does not write.

    Returns:
        PolynomialWarp or Homography with fit_rms_px filled in.
    """
    psamp, pline = camera.project(grid.enu)
    src = np.column_stack([psamp, pline])
    if kind == "polynomial":
        return fit_polynomial(src, grid.pixels)
    if kind == "homography":
        return fit_homography(src, grid.pixels)
    raise ValueError(f"unknown refinement kind: {kind!r}")


def resample(image: Raster, warp) -> Raster:
    """Produce the corrected image by backward bilinear resampling.

    Each output pixel (x, y) takes the value of the input image at warp(x, y).
    Mapped positions up to half a pixel outside the sample domain clamp to the
    border; farther out, the output is nodata, as is any interpolation that
    gives weight to a nodata, NaN or infinite input pixel. The work runs in
    row blocks, so the frame-sized memory is the output (plus a float64 copy
    of an input of another dtype).
    """
    h, w = image.values.shape
    source = image.like(np.asarray(image.values, dtype=np.float64))
    xs = np.arange(w, dtype=np.float64)
    out = np.empty((h, w))
    for rows in _row_blocks(h, w):
        ys, xb = np.meshgrid(np.arange(rows.start, rows.stop, dtype=np.float64), xs, indexing="ij")
        mx, my = warp.apply(xb, ys)
        out[rows] = interpolate(source, mx, my, clamp=False)
    return image.like(out)


def format_warp(warp: PolynomialWarp) -> str:
    """Serialize a polynomial warp to key-value text."""
    if not isinstance(warp, PolynomialWarp):
        raise TypeError(f"cannot serialize warp of type {type(warp).__name__}")
    lines = [
        "KIND: polynomial",
        "M: " + " ".join(fmt(v) for v in warp.m),
        f"FIT_RMS_PX: {fmt(warp.fit_rms_px)}",
    ]
    return "\n".join(lines) + "\n"


def parse_warp(text: str) -> PolynomialWarp:
    """Parse warp text written by format_warp.

    Keys other than ``KIND``, ``M`` and ``FIT_RMS_PX`` are ignored.
    """
    kv = read_kv(text)
    kind = kv.get("KIND")
    if kind != "polynomial":
        raise FormatError(f"unknown warp kind: {kind!r}")
    m = np.array(get_floats(kv, "M", 12))
    require_finite(kv, {"M": m})
    return PolynomialWarp(m, fit_rms_px=get_distance(kv, "FIT_RMS_PX"))


def load_warp(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_warp(fh.read())


def save_warp(warp, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_warp(warp))

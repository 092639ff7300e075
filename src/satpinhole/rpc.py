"""Rational polynomial camera models: sidecar text I/O and two-way projection.

A model carries ten normalization constants plus four sets of twenty cubic
coefficients. Ground-to-image projection evaluates two ratios of cubics in
normalized (lat, lon, alt); image-to-ground inverts that map at a fixed
altitude with a damped Newton iteration.

The twenty-term ordering matches the convention used by RPC sidecar files
shipped with commercial imagery (constant, linear, mixed quadratic, cubic),
with latitude/longitude/altitude denoted P/L/H:

    1, L, P, H, LP, LH, PH, L2, P2, H2,
    PLH, L3, LP2, LH2, L2P, P3, PH2, L2H, P2H, H3

Every evaluation goes through one monomial basis, built from shared products
a block of 8192 points at a time; all four cubics (samp/line numerator and
denominator) of a block come from one (4, 20) @ (20, block) product, so the
working memory is a few MB whatever the number of points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kvio

# Exponents of (lat, lon, alt) for each of the 20 terms, in sidecar order.
CUBIC_POWERS: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0),
    (0, 1, 0),
    (1, 0, 0),
    (0, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 0, 1),
    (0, 2, 0),
    (2, 0, 0),
    (0, 0, 2),
    (1, 1, 1),
    (0, 3, 0),
    (2, 1, 0),
    (0, 1, 2),
    (1, 2, 0),
    (3, 0, 0),
    (1, 0, 2),
    (0, 2, 1),
    (2, 0, 1),
    (0, 0, 3),
)

SOFT_BOUND = 1.5  # normalized coordinates beyond this are extrapolations
DENOMINATOR_FLOOR = 1e-10


class RpcParseError(ValueError):
    """An RPC sidecar document is missing, malformed, or invalid."""


class SingularEvaluationError(ValueError):
    """A rational evaluation hit a denominator magnitude below 1e-10."""


class ConvergenceError(RuntimeError):
    """The inverse projection iteration failed to converge."""


class ExtrapolationWarning(UserWarning):
    """Projection evaluated outside the model's rated volume."""


_BLOCK = 1 << 13  # points per basis block: 20 rows of 8192 float64 take 1.3 MB


def _monomials(p, l, h, out: np.ndarray) -> np.ndarray:
    """Fill the rows of *out* with the monomials of 1-D (p, l, h) in CUBIC_POWERS
    order; each term above degree one is one product of two rows already filled."""
    out[0] = 1.0
    out[1], out[2], out[3] = l, p, h
    lp, ll, pp, hh = out[4], out[7], out[8], out[9]
    for row, a, b in (
        (4, l, p), (5, l, h), (6, p, h), (7, l, l), (8, p, p), (9, h, h),
        (10, lp, h), (11, ll, l), (12, l, pp), (13, l, hh), (14, ll, p),
        (15, pp, p), (16, p, hh), (17, ll, h), (18, pp, h), (19, hh, h),
    ):
        np.multiply(a, b, out=out[row])
    return out


def cubic_basis(lat, lon, alt) -> np.ndarray:
    """Return the (N, 20) monomial basis matrix in sidecar term order."""
    p, l, h = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (lat, lon, alt)))
    return _monomials(p.ravel(), l.ravel(), h.ravel(), np.empty((20, p.size))).T


_NORMALIZER_FIELDS = (
    ("line_off", "LINE_OFF", "pixels"),
    ("samp_off", "SAMP_OFF", "pixels"),
    ("lat_off", "LAT_OFF", "degrees"),
    ("lon_off", "LONG_OFF", "degrees"),
    ("alt_off", "HEIGHT_OFF", "meters"),
    ("line_scale", "LINE_SCALE", "pixels"),
    ("samp_scale", "SAMP_SCALE", "pixels"),
    ("lat_scale", "LAT_SCALE", "degrees"),
    ("lon_scale", "LONG_SCALE", "degrees"),
    ("alt_scale", "HEIGHT_SCALE", "meters"),
)

_COEFF_FIELDS = (
    ("line_num", "LINE_NUM_COEFF"),
    ("line_den", "LINE_DEN_COEFF"),
    ("samp_num", "SAMP_NUM_COEFF"),
    ("samp_den", "SAMP_DEN_COEFF"),
)


@dataclass(frozen=True)
class RpcModel:
    """An immutable rational polynomial camera model.

    Offsets and scales translate between physical and normalized coordinates;
    the coefficient arrays each hold 20 values in sidecar order. Both
    denominators must have a leading coefficient of exactly 1.
    """

    line_off: float
    samp_off: float
    lat_off: float
    lon_off: float
    alt_off: float
    line_scale: float
    samp_scale: float
    lat_scale: float
    lon_scale: float
    alt_scale: float
    line_num: np.ndarray
    line_den: np.ndarray
    samp_num: np.ndarray
    samp_den: np.ndarray

    def __post_init__(self) -> None:
        for name, key, _ in _NORMALIZER_FIELDS:
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if name.endswith("_scale") and not value > 0.0:
                raise RpcParseError(f"{key}: scale must be strictly positive, got {value}")
        for name, key in _COEFF_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (20,):
                raise RpcParseError(f"{key}: expected 20 coefficients, got shape {arr.shape}")
            object.__setattr__(self, name, arr)
        if self.line_den[0] != 1.0:
            raise RpcParseError("LINE_DEN_COEFF_1: leading denominator coefficient must be 1")
        if self.samp_den[0] != 1.0:
            raise RpcParseError("SAMP_DEN_COEFF_1: leading denominator coefficient must be 1")

    def normalize_ground(self, lat, lon, alt):
        p = (np.asarray(lat, dtype=np.float64) - self.lat_off) / self.lat_scale
        l = (np.asarray(lon, dtype=np.float64) - self.lon_off) / self.lon_scale
        h = (np.asarray(alt, dtype=np.float64) - self.alt_off) / self.alt_scale
        return p, l, h

    def shifted(self, dsamp: float, dline: float) -> "RpcModel":
        """Model for an image whose origin moved by (dsamp, dline) pixels."""
        return replace(self, samp_off=self.samp_off - dsamp, line_off=self.line_off - dline)


def parse_rpc(text: str) -> RpcModel:
    """Parse an RPC sidecar document.

    Values may carry a trailing unit token (``pixels``, ``degrees``,
    ``meters``), which is ignored. Unknown keys are tolerated. Missing keys,
    non-numeric values, non-positive scales, and denominators whose first
    coefficient differs from 1 all raise RpcParseError naming the key.
    """
    try:
        kv = kvio.read_kv(text)
    except kvio.KvFormatError as exc:
        raise RpcParseError(str(exc)) from None
    fields: dict[str, object] = {}
    try:
        for name, key, _ in _NORMALIZER_FIELDS:
            fields[name] = kvio.get_float(kv, key)
        for name, prefix in _COEFF_FIELDS:
            fields[name] = np.array(
                [kvio.get_float(kv, f"{prefix}_{i}") for i in range(1, 21)]
            )
    except kvio.KvFormatError as exc:
        raise RpcParseError(str(exc)) from None
    return RpcModel(**fields)  # type: ignore[arg-type]


def format_rpc(model: RpcModel) -> str:
    """Serialize a model to sidecar text with 17 significant digits."""
    lines = []
    for name, key, unit in _NORMALIZER_FIELDS:
        lines.append(f"{key}: {kvio.fmt(getattr(model, name))} {unit}")
    for name, prefix in _COEFF_FIELDS:
        arr = getattr(model, name)
        for i in range(20):
            lines.append(f"{prefix}_{i + 1}: {kvio.fmt(arr[i])}")
    return "\n".join(lines) + "\n"


def load_rpc(path) -> RpcModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rpc(fh.read())


def save_rpc(model: RpcModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_rpc(model))


def _ratios(model: RpcModel, p, l, h, check: bool):
    """Normalized (samp, line) of *model* at 1-D normalized (p, l, h), block by block.

    With *check*, a denominator magnitude under 1e-10 at any point raises
    SingularEvaluationError.
    """
    coef = np.stack([model.samp_num, model.samp_den, model.line_num, model.line_den])
    n = p.size
    samp, line = np.empty(n), np.empty(n)
    basis = np.empty((20, min(n, _BLOCK)))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        vals = coef @ _monomials(p[lo:hi], l[lo:hi], h[lo:hi], basis[:, : hi - lo])
        if check and np.any(np.abs(vals[1::2]) < DENOMINATOR_FLOOR):
            raise SingularEvaluationError(
                f"rational denominator magnitude below {DENOMINATOR_FLOOR:g}"
            )
        np.divide(vals[0], vals[1], out=samp[lo:hi])
        np.divide(vals[2], vals[3], out=line[lo:hi])
    return samp, line


def project_forward(model: RpcModel, lat, lon, alt):
    """Project ground coordinates to image (samp, line) pixels.

    Args:
        model: the rational polynomial model.
        lat, lon, alt: scalars or arrays (degrees, degrees, meters).

    Returns:
        (samp, line) with the broadcast shape of the inputs.

    Points whose normalized coordinates fall outside [-1.5, 1.5] on any axis
    still evaluate, but an ExtrapolationWarning is issued because the rational
    fit carries no accuracy guarantee out there. A denominator magnitude under
    1e-10 raises SingularEvaluationError.
    """
    p, l, h = np.broadcast_arrays(*model.normalize_ground(lat, lon, alt))
    bound = max(np.max(np.abs(a), initial=0.0) for a in (p, l, h))
    if bound > SOFT_BOUND:
        warnings.warn(
            f"normalized coordinates reach {bound:.3g}, beyond the rated "
            f"volume (|coord| <= {SOFT_BOUND}); results are extrapolations",
            ExtrapolationWarning,
            stacklevel=2,
        )
    samp_n, line_n = _ratios(model, p.ravel(), l.ravel(), h.ravel(), check=True)
    samp_n, line_n = samp_n.reshape(p.shape), line_n.reshape(p.shape)
    return samp_n * model.samp_scale + model.samp_off, line_n * model.line_scale + model.line_off


def project_inverse(model: RpcModel, samp, line, alt, max_iter: int = 50, tol_px: float = 1e-9):
    """Recover (lat, lon) for image points at a known altitude.

    Runs a damped Newton iteration on the normalized forward map, starting at
    the volume center, with a numerically differenced 2x2 Jacobian and step
    halving (up to 8 times) whenever the residual fails to decrease.

    Args:
        model: the rational polynomial model.
        samp, line: pixel coordinates (scalars or arrays).
        alt: altitude in meters, broadcastable against samp/line. Must lie
            within 1.5 scale units of the altitude offset.
        max_iter: Newton iteration cap.
        tol_px: convergence threshold on the pixel-space residual.

    Returns:
        (lat, lon) in degrees with the broadcast input shape.

    Raises:
        ValueError: altitude outside the rated volume.
        ConvergenceError: iteration stalled; the message carries the worst
            remaining residual in pixels.
    """
    samp = np.asarray(samp, dtype=np.float64)
    line = np.asarray(line, dtype=np.float64)
    alt = np.asarray(alt, dtype=np.float64)
    samp, line, alt = np.broadcast_arrays(samp, line, alt)
    shape = samp.shape

    h = (alt.ravel() - model.alt_off) / model.alt_scale
    if np.any(np.abs(h) > SOFT_BOUND):
        raise ValueError(
            f"altitude outside rated volume (|normalized| <= {SOFT_BOUND}): "
            f"max {np.max(np.abs(h)):.3g}"
        )
    u = (samp.ravel() - model.samp_off) / model.samp_scale
    v = (line.ravel() - model.line_off) / model.line_scale

    p = np.zeros_like(u)
    l = np.zeros_like(u)

    def residual(pp, ll):
        with np.errstate(divide="ignore", invalid="ignore"):
            fs, fl = _ratios(model, pp, ll, h, check=False)
        return fs - u, fl - v

    eps = 1e-6
    tol_s = tol_px / model.samp_scale
    tol_l = tol_px / model.line_scale
    fs, fl = residual(p, l)
    for _ in range(max_iter):
        err = np.hypot(fs * model.samp_scale, fl * model.line_scale)
        active = err > tol_px
        if not np.any(active):
            break
        # Central-difference Jacobian of (samp_n, line_n) wrt (p, l).
        fs_pp, fl_pp = residual(p + eps, l)
        fs_pm, fl_pm = residual(p - eps, l)
        fs_lp, fl_lp = residual(p, l + eps)
        fs_lm, fl_lm = residual(p, l - eps)
        j11 = (fs_pp - fs_pm) / (2 * eps)
        j12 = (fs_lp - fs_lm) / (2 * eps)
        j21 = (fl_pp - fl_pm) / (2 * eps)
        j22 = (fl_lp - fl_lm) / (2 * eps)
        det = j11 * j22 - j12 * j21
        with np.errstate(divide="ignore", invalid="ignore"):
            dp = (-fs * j22 + fl * j12) / det
            dl = (-fl * j11 + fs * j21) / det
        dp = np.where(np.isfinite(dp), dp, 0.0)
        dl = np.where(np.isfinite(dl), dl, 0.0)

        # Damped update: halve the step until the scaled residual decreases.
        step = np.where(active, 1.0, 0.0)
        best = np.hypot(fs / tol_s, fl / tol_l)
        for _ in range(8):
            ts, tl_ = residual(p + step * dp, l + step * dl)
            trial = np.hypot(ts / tol_s, tl_ / tol_l)
            worse = active & ~(trial < best)
            if not np.any(worse):
                break
            step = np.where(worse, step * 0.5, step)
        p = p + step * dp
        l = l + step * dl
        fs, fl = residual(p, l)
    else:
        err = np.hypot(fs * model.samp_scale, fl * model.line_scale)
        if np.any(err > tol_px):
            raise ConvergenceError(
                f"inverse projection stalled; worst residual {np.max(err):.3g} px"
            )

    lat = p * model.lat_scale + model.lat_off
    lon = l * model.lon_scale + model.lon_off
    return lat.reshape(shape), lon.reshape(shape)

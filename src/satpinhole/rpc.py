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
working memory is a few MB whatever the number of points. That product is
not batch-independent: a point's last bits (up to about 1e-13 px) can depend
on its slot in its block. So a lattice is always evaluated in the same fixed
blocks of its flat C-order nodes, whether :func:`project_forward` gets it as
broadcast axes or :func:`project_lattice` streams it, taking each block's
node indices from one division per (lat, lon) column and gathering the
axis values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kvio
from .errors import ConvergenceError, DegenerateError, FormatError

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


class ExtrapolationWarning(UserWarning):
    """Projection evaluated outside the model's rated volume."""


_BLOCK = 1 << 13  # points per basis block: 20 rows of 8192 float64 take 1.3 MB


def _monomials(out: np.ndarray) -> np.ndarray:
    """Fill *out*, whose rows 1-3 hold 1-D (l, p, h), with the monomials in
    CUBIC_POWERS order; each term above degree one is one product of two rows
    already filled."""
    out[0] = 1.0
    l, p, h = out[1], out[2], out[3]
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
    out = np.empty((20, p.size))
    out[1], out[2], out[3] = l.ravel(), p.ravel(), h.ravel()
    return _monomials(out).T


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

_COEFF_KEYS = {name: [f"{prefix}_{i}" for i in range(1, 21)] for name, prefix in _COEFF_FIELDS}


@dataclass(frozen=True)
class RpcModel:
    """An immutable rational polynomial camera model.

    Offsets and scales translate between physical and normalized coordinates;
    the coefficient arrays each hold 20 values in sidecar order. Every value
    must be finite, and both denominators must have a leading coefficient of
    exactly 1.
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
            if not np.isfinite(value):
                raise FormatError(f"{key}: normalizer must be finite, got {value}")
            if name.endswith("_scale") and not value > 0.0:
                raise FormatError(f"{key}: scale must be strictly positive, got {value}")
        for name, key in _COEFF_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (20,):
                raise FormatError(f"{key}: expected 20 coefficients, got shape {arr.shape}")
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise FormatError(f"{key}_{bad[0] + 1}: coefficient must be finite, got {arr[bad[0]]}")
            object.__setattr__(self, name, arr)
        if self.line_den[0] != 1.0:
            raise FormatError("LINE_DEN_COEFF_1: leading denominator coefficient must be 1")
        if self.samp_den[0] != 1.0:
            raise FormatError("SAMP_DEN_COEFF_1: leading denominator coefficient must be 1")

    def normalize_ground(self, lat, lon, alt):
        p = (np.asarray(lat, dtype=np.float64) - self.lat_off) / self.lat_scale
        l = (np.asarray(lon, dtype=np.float64) - self.lon_off) / self.lon_scale
        h = (np.asarray(alt, dtype=np.float64) - self.alt_off) / self.alt_scale
        return p, l, h


def parse_rpc(text: str) -> RpcModel:
    """Parse an RPC sidecar document.

    A normalizer may carry its own unit word, as ``format_rpc`` writes it;
    unknown keys are tolerated. Missing or repeated keys, non-numeric values,
    any other extra token, non-finite normalizers or coefficients,
    non-positive scales, and denominators whose first coefficient differs
    from 1 all raise FormatError naming the key.
    """
    kv = kvio.read_kv(text)
    fields: dict[str, object] = {}
    for name, key, unit in _NORMALIZER_FIELDS:
        tokens = kv.get(key, "").split()
        if tokens[1:] == [unit]:
            kv[key] = tokens[0]
        fields[name] = kvio.get_float(kv, key)
    for name, keys in _COEFF_KEYS.items():
        fields[name] = np.array([kvio.get_float(kv, key) for key in keys])
    return RpcModel(**fields)  # type: ignore[arg-type]


def format_rpc(model: RpcModel) -> str:
    """Serialize a model to sidecar text with 17 significant digits."""
    items = [(key, (getattr(model, name), unit)) for name, key, unit in _NORMALIZER_FIELDS]
    for name, keys in _COEFF_KEYS.items():
        items += zip(keys, getattr(model, name).tolist())
    return kvio.format_kv(items)


def load_rpc(path) -> RpcModel:
    return parse_rpc(kvio.read_file(path))


def save_rpc(model: RpcModel, path) -> None:
    kvio.write_file(path, format_rpc(model))


def _ratios(model: RpcModel, p, l, h, check: bool):
    """Normalized (samp, line) of *model* at 1-D normalized (p, l, h), block by block.

    With *check*, a denominator under 1e-10 at any point raises
    DegenerateError. The denominators' constant terms are 1, so a value
    below the floor means the denominator vanishes between that point and
    the volume centre: the model has a pole inside the evaluated region.
    """
    coef = np.stack([model.samp_num, model.samp_den, model.line_num, model.line_den])
    n = p.size
    samp, line = np.empty(n), np.empty(n)
    basis = np.empty((20, min(n, _BLOCK)))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        out = basis[:, : hi - lo]
        out[1], out[2], out[3] = l[lo:hi], p[lo:hi], h[lo:hi]
        vals = coef @ _monomials(out)
        if check and np.any(vals[1::2] < DENOMINATOR_FLOOR):
            raise DegenerateError(
                f"rational denominator below {DENOMINATOR_FLOOR:g}; it must stay "
                "positive, as at the volume centre"
            )
        np.divide(vals[0], vals[1], out=samp[lo:hi])
        np.divide(vals[2], vals[3], out=line[lo:hi])
    return samp, line


def _warn_beyond_rated_volume(p, l, h) -> None:
    """Warn, at the caller of the caller, if normalized (p, l, h) reach past
    SOFT_BOUND: the bound of the inputs, not of their broadcast, so a lattice
    given as three axes is checked per axis value."""
    bound = max(np.max(np.abs(a), initial=0.0) for a in (p, l, h))
    if bound > SOFT_BOUND:
        warnings.warn(
            f"normalized coordinates reach {bound:.3g}, beyond the rated "
            f"volume (|coord| <= {SOFT_BOUND}); results are extrapolations",
            ExtrapolationWarning,
            stacklevel=3,
        )


def project_forward(model: RpcModel, lat, lon, alt):
    """Project ground coordinates to image (samp, line) pixels.

    Args:
        model: the rational polynomial model.
        lat, lon, alt: scalars or arrays (degrees, degrees, meters).

    Returns:
        (samp, line) with the broadcast shape of the inputs.

    Points whose normalized coordinates fall outside [-1.5, 1.5] on any axis
    still evaluate, but an ExtrapolationWarning is issued because the rational
    fit carries no accuracy guarantee out there. A denominator under 1e-10
    at any point raises DegenerateError: denominators are 1 at the volume
    centre and must stay positive, since a sign change means a pole between
    that point and the centre.

    The points go through the model in blocks of 8192 of the flat broadcast
    input, and a point's last bits can depend on its slot in its block: the
    same point in another batch may move by about 1e-13 px.
    """
    axes = model.normalize_ground(lat, lon, alt)
    p, l, h = np.broadcast_arrays(*axes)
    if p.size:
        _warn_beyond_rated_volume(*axes)
    samp_n, line_n = _ratios(model, p.ravel(), l.ravel(), h.ravel(), check=True)
    samp_n, line_n = samp_n.reshape(p.shape), line_n.reshape(p.shape)
    return samp_n * model.samp_scale + model.samp_off, line_n * model.line_scale + model.line_off


def project_lattice(model: RpcModel, lats, lons, alts):
    """Project the lattice of 1-D axes lats x lons x alts, block by block.

    Yields ((i_lat, i_lon, i_alt), samp, line) for each fixed block of 8192
    of the lattice's flat C-order nodes: its nodes' axis indices, and the
    bits that :func:`project_forward` gives them on the broadcast axes
    ``(lats[:, None, None], lons[None, :, None], alts[None, None, :])``, with
    the same warning and DegenerateError. No lattice-sized array is made, so
    the working memory is a few MB whatever the node count.
    """
    p, l, h = model.normalize_ground(lats, lons, alts)
    n = p.size * l.size * h.size
    if n:
        _warn_beyond_rated_volume(p, l, h)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # The block's (lat, lon) columns, each split once and repeated over its nodes in the block.
        cols = np.arange(lo // h.size, (hi - 1) // h.size + 1)
        counts = np.full(cols.size, h.size)
        counts[0] -= lo - cols[0] * h.size
        counts[-1] -= (cols[-1] + 1) * h.size - hi
        i_lat, i_lon = divmod(cols, l.size)
        i_alt = np.arange(lo, hi) - np.repeat(cols * h.size, counts)
        index = np.repeat(i_lat, counts), np.repeat(i_lon, counts), i_alt
        samp, line = _ratios(model, p[index[0]], l[index[1]], h[index[2]], check=True)
        yield index, samp * model.samp_scale + model.samp_off, line * model.line_scale + model.line_off


_INVERSE_ITERATIONS = 50  # Newton iteration cap of project_inverse
_INVERSE_TOL_PX = 1e-9  # its convergence threshold on the pixel-space residual


def project_inverse(model: RpcModel, samp, line, alt):
    """Recover (lat, lon) for image points at a known altitude.

    Runs a damped Newton iteration on the normalized forward map, starting at
    the volume center, with a numerically differenced 2x2 Jacobian and step
    halving (up to 8 times) whenever the residual fails to decrease.

    Args:
        model: the rational polynomial model.
        samp, line: pixel coordinates (scalars or arrays).
        alt: altitude in meters, broadcastable against samp/line. Must lie
            within 1.5 scale units of the altitude offset.

    Returns:
        (lat, lon) in degrees with the broadcast input shape.

    Raises:
        ValueError: a non-finite input, or altitude outside the rated volume.
        ConvergenceError: iteration stalled; the message carries the worst
            remaining residual in pixels.
    """
    samp = np.asarray(samp, dtype=np.float64)
    line = np.asarray(line, dtype=np.float64)
    alt = np.asarray(alt, dtype=np.float64)
    samp, line, alt = np.broadcast_arrays(samp, line, alt)
    shape = samp.shape

    for name, arr in (("samp", samp), ("line", line), ("alt", alt)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
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

    def misfit(pp, ll):
        """Normalized misfit (samp, line) at (pp, ll)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            fs, fl = _ratios(model, pp, ll, h, check=False)
        return fs - u, fl - v

    def residual(pp, ll):
        """The misfit at (pp, ll) and its size in pixels."""
        fs, fl = misfit(pp, ll)
        return fs, fl, np.hypot(fs * model.samp_scale, fl * model.line_scale)

    eps = 1e-6
    fs, fl, err = residual(p, l)
    for _ in range(_INVERSE_ITERATIONS):
        active = err > _INVERSE_TOL_PX
        if not np.any(active):
            break
        # Central-difference Jacobian of (samp_n, line_n) wrt (p, l): the
        # misfits only, whose sizes no step needs.
        fs_pp, fl_pp = misfit(p + eps, l)
        fs_pm, fl_pm = misfit(p - eps, l)
        fs_lp, fl_lp = misfit(p, l + eps)
        fs_lm, fl_lm = misfit(p, l - eps)
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

        # Damped update: halve the step, down to 1/256, until the misfit
        # decreases; the last trial evaluated is the accepted one everywhere.
        step = np.where(active, 1.0, 0.0)
        while True:
            p_try, l_try = p + step * dp, l + step * dl
            trial = residual(p_try, l_try)
            worse = active & (step > 2.0**-8) & ~(trial[2] < err)
            if not np.any(worse):
                break
            step = np.where(worse, step * 0.5, step)
        p, l, (fs, fl, err) = p_try, l_try, trial
    if np.any(err > _INVERSE_TOL_PX):
        raise ConvergenceError(
            f"inverse projection stalled; worst residual {np.max(err):.3g} px"
        )

    lat = p * model.lat_scale + model.lat_off
    lon = l * model.lon_scale + model.lon_off
    return lat.reshape(shape), lon.reshape(shape)

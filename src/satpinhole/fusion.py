"""Multi-view DSM fusion with outlier rejection and accuracy metrics.

Per-cell fusion collects each view's height sample, rejects values far from
the cell median on a median-absolute-deviation criterion, and aggregates the
survivors. A radius filter then clears isolated cells. Metrics compare an
estimated DSM against truth over their common valid cells, with completeness
charged against all truth-valid cells.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import LatticeError
from .kvio import fmt, format_kv
from .raster import Raster, _require_memory, _row_blocks, _whole, valid_cells

MAD_CONSISTENCY = 1.4826  # scales MAD to a Gaussian sigma estimate


@dataclass(frozen=True)
class FusionConfig:
    """Tuning knobs for fuse_views.

    Attributes:
        mad_k: rejection threshold in robust-sigma units.
        mad_floor: lower bound on the MAD (same units as the heights) so a
            degenerate spread never rejects everything.
        radius: finite neighborhood radius for the isolation filter, in the
            raster's georeference units; None means 3 cells.
        min_neighbors: valid cells required within the radius (the cell
            itself counts) for a fused cell to survive.
        aggregator: "median" or "mean" over the surviving samples.
    """

    mad_k: float = 3.0
    mad_floor: float = 0.1
    radius: float | None = None
    min_neighbors: int = 4
    aggregator: str = "median"

    def __post_init__(self) -> None:
        if not self.mad_k > 0:
            raise ValueError(f"mad_k must be positive, got {self.mad_k}")
        if not self.mad_floor >= 0:
            raise ValueError(f"mad_floor must be non-negative, got {self.mad_floor}")
        if self.radius is not None and not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        message = f"min_neighbors must be a whole number >= 1, got {self.min_neighbors}"
        object.__setattr__(self, "min_neighbors", _whole(self.min_neighbors, 1, message))
        if self.aggregator not in ("median", "mean"):
            raise ValueError(f"aggregator must be 'median' or 'mean', got {self.aggregator!r}")


def _overlay(rasters):
    """Union grid for lattice-aligned rasters.

    Returns (origin, nrows, ncols, offsets) where offsets[v] is the (row, col)
    of raster v's top-left cell inside the union grid.
    """
    cell = rasters[0].cell_size
    for r in rasters[1:]:
        if abs(r.cell_size - cell) > 1e-9 * cell:
            raise LatticeError(f"cell sizes differ: {cell} vs {r.cell_size}")
    x0 = min(r.origin[0] for r in rasters)
    y0 = min(r.origin[1] for r in rasters)
    top = max(r.origin[1] + r.nrows * cell for r in rasters)
    x1 = max(r.origin[0] + r.ncols * cell for r in rasters)
    span = ((x1 - x0) / cell, (top - y0) / cell)  # in cells; no offset below exceeds it
    if not np.isfinite(span).all():
        raise LatticeError(f"the rasters span {span[0]:.3g} x {span[1]:.3g} cells of {cell:g}, not a finite count")
    ncols, nrows = (int(round(s)) for s in span)
    offsets = []
    for r in rasters:
        fc = (r.origin[0] - x0) / cell
        fr = (top - (r.origin[1] + r.nrows * cell)) / cell
        col = int(round(fc))
        row = int(round(fr))
        if abs(fc - col) > 1e-6 or abs(fr - row) > 1e-6:
            raise LatticeError(
                f"raster origin off-lattice by ({fc - col:.3g}, {fr - row:.3g}) cells"
            )
        offsets.append((row, col))
    return (x0, y0), nrows, ncols, offsets


def _union_rows(rasters):
    """(origin, nrows, ncols, blocks) of the rasters' union lattice as laid out
    by :func:`_overlay`, where blocks yields (rows, stack) for each row block in
    order: stack[v] holds raster v's values over those rows as float64, NaN
    wherever :func:`valid_cells` is false or the raster does not reach."""
    origin, nrows, ncols, offsets = _overlay(rasters)

    def blocks():
        for rows in _row_blocks(nrows, ncols):
            stack = np.full((len(rasters), rows.stop - rows.start, ncols), np.nan)
            for v, (r, (row, col)) in enumerate(zip(rasters, offsets)):
                lo, hi = max(rows.start, row), min(rows.stop, row + r.nrows)  # its rows inside this block
                if lo < hi:
                    part = r.values[lo - row : hi - row]
                    out = stack[v, lo - rows.start : hi - rows.start, col : col + r.ncols]
                    np.copyto(out, part, where=valid_cells(part, r.nodata))
            yield rows, stack

    return origin, nrows, ncols, blocks()


def _median_views(stack: np.ndarray) -> np.ndarray:
    """``np.nanmedian(stack, axis=0)``, bit for bit, from a sorting network.

    Batcher's odd-even merge network (Knuth, TAOCP vol. 3, 5.3.4, algorithm
    M) sorts the views of every cell at once, one comparator a pair of view
    planes: np.fmin to the low slot, np.maximum to the high one. Either
    sends NaN high, as np.sort does, so the n non-NaN samples of a cell are
    its first n entries; an all-NaN cell picks a NaN and stays NaN. Like
    numpy, halve the middle pair (the middle value twice for an odd n)
    summed onto +0.0: that keeps numpy's sign of zero, whichever slot a
    comparator gives a tie of +0 and -0, and its overflow above half the
    float range.
    """
    ordered = stack.copy()
    views = len(ordered)
    top = (1 << (views - 1).bit_length()) >> 1
    p = top
    while p:
        q, r, d = top, 0, p
        while True:
            for i in range(views - d):
                if i & p == r:
                    a, b = ordered[i], ordered[i + d]
                    low = np.fmin(a, b)
                    np.maximum(a, b, out=b)
                    a[...] = low
            if q == p:
                break
            q, r, d = q // 2, p, q - p
        p //= 2
    n = np.count_nonzero(~np.isnan(stack), axis=0)
    lo = np.take_along_axis(ordered, np.maximum((n - 1) // 2, 0)[None], axis=0)[0]
    hi = np.take_along_axis(ordered, (n // 2)[None], axis=0)[0]
    return (0.0 + lo + hi) / 2


def _neighbor_counts(valid: np.ndarray, radius_cells: float) -> np.ndarray:
    """Valid cells within *radius_cells* of each cell (itself included).

    Cells beyond the grid count as invalid, so offsets stop at its far side.
    Row dy of the disk, |dx| <= w, is the difference of two int32 running
    sums along the padded rows; no count exceeds the grid's size.
    """
    nrows, ncols = valid.shape
    radius_cells = min(radius_cells, nrows + ncols)  # a disk that wide covers the grid from any cell
    w = int(np.floor(radius_cells))
    ry, rx = (min(w, max(n - 1, 0)) for n in valid.shape)
    sums = np.pad(valid, ((ry, ry), (rx + 1, rx))).cumsum(axis=1, dtype=np.int32)
    counts = np.zeros(valid.shape, dtype=np.int32)
    for dy in range(ry + 1):
        while dy * dy + w * w > radius_cells * radius_cells:
            w -= 1
        x = min(w, rx)
        for r in {ry - dy, ry + dy}:
            counts += sums[r : r + nrows, rx + x + 1 : rx + x + 1 + ncols]
            counts -= sums[r : r + nrows, rx - x : rx - x + ncols]
    return counts


def fuse_views(dsms, config: FusionConfig = FusionConfig()) -> Raster:
    """Fuse per-view DSMs into one surface with robust outlier rejection.

    For each cell, the per-view heights are compared against their median m
    and MAD; samples with |h - m| > mad_k * 1.4826 * max(MAD, mad_floor) are
    rejected and the survivors aggregated (median by default). Afterwards a
    radius filter clears any cell with fewer than min_neighbors valid cells
    (itself included) within the configured radius.

    Args:
        dsms: rasters on a shared lattice (extents may differ).
        config: FusionConfig; config.radius of None means 3 cells.

    Returns:
        Fused raster spanning the union of the inputs.
    """
    dsms = list(dsms)
    if not dsms:
        raise ValueError("need at least one DSM to fuse")
    origin, nrows, ncols, blocks = _union_rows(dsms)
    cell = dsms[0].cell_size
    nodata = dsms[0].nodata
    radius = config.radius if config.radius is not None else 3.0 * cell
    # The union frames held: fused and output (8 B a cell), the validity mask
    # (1 B), and the isolation filter's int32 counts and running sums, whose
    # rows and columns are padded by up to the radius on each side.
    ry, rx = (min(radius / cell, n - 1) for n in (nrows, ncols))
    nbytes = 21.0 * nrows * ncols + 4.0 * (nrows + 2 * ry) * (ncols + 2 * rx + 1)
    _require_memory(nbytes, f"fusing onto a {nrows} x {ncols} union grid takes {nbytes:.3g} bytes")

    fused = np.empty((nrows, ncols))
    # Halving two samples above half the float range overflows to inf, as in
    # np.nanmedian, and a cell with no kept sample has the mean 0 / 0 = nan.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, stack in blocks:
            med = _median_views(stack)
            dev = np.abs(stack - med)
            mad = _median_views(dev)
            thresh = config.mad_k * MAD_CONSISTENCY * np.maximum(mad, config.mad_floor)
            survivors = np.where(dev <= thresh, stack, np.nan)
            if config.aggregator == "median":
                fused[rows] = _median_views(survivors)
            else:
                kept = ~np.isnan(survivors)
                fused[rows] = np.where(kept, survivors, 0.0).sum(axis=0) / kept.sum(axis=0)

    valid = np.isfinite(fused)
    counts = _neighbor_counts(valid, radius / cell)
    values = np.where(valid & (counts >= config.min_neighbors), fused, nodata)
    return Raster(values=values, cell_size=cell, origin=origin, nodata=nodata)


@dataclass(frozen=True)
class DsmMetrics:
    """Accuracy and completeness of an estimated DSM against truth.

    comp holds (threshold, fraction) pairs; the fraction's denominator is the
    number of truth-valid cells, so estimate nodata hurts completeness.
    """

    rmse: float
    me: float
    mae: float
    comp: tuple[tuple[float, float], ...]
    n_overlap: int
    n_truth: int


def dsm_metrics(estimate: Raster, truth: Raster, thresholds) -> DsmMetrics:
    """Compare an estimated DSM against truth on their shared lattice.

    RMSE and MAE are the usual quadratic/absolute means of the residuals over
    cells valid in both rasters; ME is the median absolute residual.
    Completeness at threshold t is the fraction of truth-valid cells whose
    estimate exists and errs by less than t. A statistic whose usual formula
    overflows (squares from residuals of about 1.3e154 m, sums and the
    median's two middle values near the top of the float range) is taken
    again in units of the largest residual, and the median as the midpoint
    of its middle values, so every statistic a float can hold is reported.

    Raises:
        ValueError: a threshold that is not positive (NaN included), or one
            that repeats, as its completeness key would; or a statistic
            that is not a float, as only a residual past the float range
            makes one (grids that straddle it, such as 1e308 against -1e308).
        LatticeError: grids are not lattice-aligned, or no cell is valid in
            both inputs.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if not all(t > 0 for t in thresholds):
        raise ValueError(f"thresholds must be positive, got {thresholds}")
    for t, times in Counter(thresholds).items():
        if times > 1:
            raise ValueError(f"thresholds must not repeat: {fmt(t)} is given {times} times")
    *_, blocks = _union_rows([estimate, truth])
    parts, n_truth = [np.empty(0)], 0  # one empty part, as a union of no cells has no block
    with np.errstate(over="ignore"):  # a statistic past the float range is taken again below
        for _, (est, tru) in blocks:  # the residuals in row-major order, one row block at a time
            both = np.isfinite(est) & np.isfinite(tru)
            n_truth += int(np.isfinite(tru).sum())
            parts.append(est[both] - tru[both])
        resid = np.concatenate(parts)
        if resid.size == 0:
            raise LatticeError("estimate and truth share no valid cell")
        abs_resid = np.abs(resid)
        stats = {
            "RMSE_M": float(np.sqrt(np.mean(resid**2))),
            "ME_M": float(np.median(abs_resid)),
            "MAE_M": float(np.mean(abs_resid)),
        }
    top = float(abs_resid.max())
    if np.isfinite(top):  # every residual is a float, so every statistic is one too
        if not np.isfinite(stats["RMSE_M"]):
            stats["RMSE_M"] = top * float(np.sqrt(np.mean((abs_resid / top) ** 2)))
        if not np.isfinite(stats["ME_M"]):
            middle = [(abs_resid.size - 1) // 2, abs_resid.size // 2]
            lo, hi = np.partition(abs_resid, middle)[middle]
            stats["ME_M"] = float(lo + (hi - lo) / 2)
        if not np.isfinite(stats["MAE_M"]):
            stats["MAE_M"] = top * float(np.mean(abs_resid / top))
    past = [name for name, value in stats.items() if not np.isfinite(value)]
    if past:
        raise ValueError(
            f"cannot report {', '.join(past)}: past the float range, with residuals up to "
            f"{fmt(top)} m"
        )

    comp = tuple(
        (t, float((abs_resid < t).sum()) / n_truth) for t in thresholds
    )
    return DsmMetrics(
        rmse=stats["RMSE_M"],
        me=stats["ME_M"],
        mae=stats["MAE_M"],
        comp=comp,
        n_overlap=resid.size,
        n_truth=n_truth,
    )


def format_metrics_report(metrics: DsmMetrics) -> str:
    return format_kv([
        ("RMSE_M", metrics.rmse), ("ME_M", metrics.me), ("MAE_M", metrics.mae),
        ("N_OVERLAP", metrics.n_overlap), ("N_TRUTH", metrics.n_truth),
        *((f"COMP_{fmt(t)}", frac) for t, frac in metrics.comp),
    ])

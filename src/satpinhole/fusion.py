"""Multi-view DSM fusion with outlier rejection and accuracy metrics.

Per-cell fusion collects each view's height sample, rejects values far from
the cell median on a median-absolute-deviation criterion, and aggregates the
survivors. A radius filter then clears isolated cells. Metrics compare an
estimated DSM against truth over their common valid cells, with completeness
charged against all truth-valid cells.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LatticeError
from .kvio import fmt
from .raster import Raster, _row_blocks, valid_cells

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
        if self.min_neighbors < 1:
            raise ValueError(f"min_neighbors must be >= 1, got {self.min_neighbors}")
        if self.aggregator not in ("median", "mean"):
            raise ValueError(f"aggregator must be 'median' or 'mean', got {self.aggregator!r}")


def _check_cells(rasters) -> float:
    cell = rasters[0].cell_size
    for r in rasters[1:]:
        if abs(r.cell_size - cell) > 1e-9 * cell:
            raise LatticeError(
                f"cell sizes differ: {cell} vs {r.cell_size}"
            )
    return cell


def _overlay(rasters):
    """Union grid for lattice-aligned rasters.

    Returns (origin, nrows, ncols, offsets) where offsets[v] is the (row, col)
    of raster v's top-left cell inside the union grid.
    """
    cell = _check_cells(rasters)
    x0 = min(r.origin[0] for r in rasters)
    y0 = min(r.origin[1] for r in rasters)
    top = max(r.origin[1] + r.nrows * cell for r in rasters)
    x1 = max(r.origin[0] + r.ncols * cell for r in rasters)
    ncols = int(round((x1 - x0) / cell))
    nrows = int(round((top - y0) / cell))
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


def _median_views(stack: np.ndarray) -> np.ndarray:
    """``np.nanmedian(stack, axis=0)``, bit for bit, from one sort.

    NaN sorts last, so the n non-NaN samples of a cell are its first n
    entries; an all-NaN cell picks a NaN and stays NaN. Like numpy, halve
    the middle pair (the middle value twice for an odd n) summed onto +0.0:
    that keeps numpy's sign of zero and its overflow above half the float
    range.
    """
    ordered = np.sort(stack, axis=0)
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
    w = int(np.floor(radius_cells))
    nrows, ncols = valid.shape
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
    origin, nrows, ncols, offsets = _overlay(dsms)
    cell = dsms[0].cell_size
    nodata = dsms[0].nodata

    fused = np.empty((nrows, ncols))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for rows in _row_blocks(nrows, ncols):
            stack = np.full((len(dsms), rows.stop - rows.start, ncols), np.nan)
            for i, (r, (row, col)) in enumerate(zip(dsms, offsets)):
                # The raster's rows that fall inside this block.
                lo = max(rows.start, row)
                hi = min(rows.stop, row + r.nrows)
                if lo < hi:
                    part = r.values[lo - row : hi - row]
                    stack[i, lo - rows.start : hi - rows.start, col : col + r.ncols] = np.where(
                        valid_cells(part, r.nodata), part.astype(np.float64), np.nan
                    )
            med = _median_views(stack)
            dev = np.abs(stack - med)
            mad = _median_views(dev)
            thresh = config.mad_k * MAD_CONSISTENCY * np.maximum(mad, config.mad_floor)
            survivors = np.where(dev <= thresh, stack, np.nan)
            if config.aggregator == "median":
                fused[rows] = _median_views(survivors)
            else:
                fused[rows] = np.nanmean(survivors, axis=0)

    valid = np.isfinite(fused)
    radius = config.radius if config.radius is not None else 3.0 * cell
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
    estimate exists and errs by less than t.

    Raises:
        ValueError: a threshold that is not positive (NaN included).
        LatticeError: grids are not lattice-aligned, or no cell is valid in
            both inputs.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if not all(t > 0 for t in thresholds):
        raise ValueError(f"thresholds must be positive, got {thresholds}")
    origin, nrows, ncols, offsets = _overlay([estimate, truth])

    def lift(r: Raster, offset) -> np.ndarray:
        row, col = offset
        out = np.full((nrows, ncols), np.nan)
        out[row : row + r.nrows, col : col + r.ncols] = np.where(
            r.valid_mask(), r.values.astype(np.float64), np.nan
        )
        return out

    est = lift(estimate, offsets[0])
    tru = lift(truth, offsets[1])
    both = np.isfinite(est) & np.isfinite(tru)
    n_truth = int(np.isfinite(tru).sum())
    n_overlap = int(both.sum())
    if n_overlap == 0:
        raise LatticeError("estimate and truth share no valid cell")

    resid = est[both] - tru[both]
    abs_resid = np.abs(resid)
    comp = tuple(
        (t, float((abs_resid < t).sum()) / n_truth) for t in thresholds
    )
    return DsmMetrics(
        rmse=float(np.sqrt(np.mean(resid**2))),
        me=float(np.median(abs_resid)),
        mae=float(np.mean(abs_resid)),
        comp=comp,
        n_overlap=n_overlap,
        n_truth=n_truth,
    )


def format_metrics_report(metrics: DsmMetrics) -> str:
    lines = [
        f"RMSE_M: {fmt(metrics.rmse)}",
        f"ME_M: {fmt(metrics.me)}",
        f"MAE_M: {fmt(metrics.mae)}",
        f"N_OVERLAP: {metrics.n_overlap}",
        f"N_TRUTH: {metrics.n_truth}",
    ]
    for t, frac in metrics.comp:
        lines.append(f"COMP_{fmt(t)}: {fmt(frac)}")
    return "\n".join(lines) + "\n"

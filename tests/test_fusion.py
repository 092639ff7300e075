"""Tests for robust DSM fusion and accuracy metrics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satpinhole.errors import LatticeError
from satpinhole.fusion import (
    MAD_CONSISTENCY,
    DsmMetrics,
    FusionConfig,
    dsm_metrics,
    format_metrics_report,
    _median_views,
    _neighbor_counts,
    fuse_views,
)
from satpinhole.raster import Raster


def _raster(values, origin=(0.0, 0.0), cell=1.0):
    return Raster(values=np.asarray(values, dtype=float), cell_size=cell, origin=origin)


# ---------------------------------------------------------------------------
# Lattice checks


def test_mosaic_rejects_cell_size_mismatch():
    a = _raster([[1.0]], cell=1.0)
    b = _raster([[1.0]], cell=2.0)
    with pytest.raises(LatticeError, match="cell sizes differ"):
        fuse_views([a, b])


def test_mosaic_rejects_off_lattice_origin():
    a = _raster([[1.0]], origin=(0.0, 0.0))
    b = _raster([[1.0]], origin=(0.5, 0.0))
    with pytest.raises(LatticeError, match="off-lattice"):
        fuse_views([a, b])


# ---------------------------------------------------------------------------
# Fusion


def _stack_views(columns):
    """One single-cell raster per value in each column list."""
    return [
        _raster(np.asarray(col, dtype=float).reshape(1, -1)) for col in columns
    ]


@settings(deadline=None, max_examples=300)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 7), st.integers(1, 4), st.integers(1, 4)),
        elements=st.one_of(
            st.just(np.nan),
            st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324]),
            st.floats(allow_nan=False),
        ),
    )
)
def test_median_views_matches_nanmedian(stack):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = np.nanmedian(stack, axis=0)
        got = _median_views(stack)
    # The same cells are NaN, and every other cell carries the same bits,
    # down to the sign of zero.
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
    finite = ~np.isnan(expected)
    np.testing.assert_array_equal(
        got[finite].view(np.uint64), expected[finite].view(np.uint64)
    )


@pytest.mark.parametrize("radius_cells", [0.5, 2.5, 3.0])
def test_neighbor_counts_match_brute_force(radius_cells):
    valid = np.random.default_rng(6).random((9, 11)) < 0.6
    valid[0, :4] = False  # holes on the border
    valid[:, -1] = False
    expected = np.zeros(valid.shape, dtype=int)
    for r, c in np.ndindex(valid.shape):
        for r2, c2 in np.ndindex(valid.shape):
            if (r2 - r) ** 2 + (c2 - c) ** 2 <= radius_cells**2:
                expected[r, c] += valid[r2, c2]
    np.testing.assert_array_equal(_neighbor_counts(valid, radius_cells), expected)


def _reference_neighbor_counts(valid, radius_cells):
    """One shifted whole-frame add per cell of the disk."""
    reach = int(np.floor(radius_cells))
    padded = np.pad(valid, reach)
    nrows, ncols = valid.shape
    counts = np.zeros(valid.shape, dtype=np.intp)
    for dy in range(-reach, reach + 1):
        for dx in range(-reach, reach + 1):
            if dy * dy + dx * dx <= radius_cells * radius_cells:
                counts += padded[reach + dy : reach + dy + nrows, reach + dx : reach + dx + ncols]
    return counts


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (1, 50), (50, 1), (37, 29)])
@pytest.mark.parametrize("radius_cells", [0.5, 1.0, 1.5, 3.0, 5.0, 7.3, 48.0])
def test_neighbor_counts_match_the_shifted_adds(shape, radius_cells):
    # 5 puts the (3, 4) and (4, 3) cells on the disk's edge.
    valid = np.random.default_rng(11).random(shape) < 0.6
    np.testing.assert_array_equal(
        _neighbor_counts(valid, radius_cells), _reference_neighbor_counts(valid, radius_cells)
    )


def test_fuse_rejects_gross_outlier():
    views = _stack_views([[9.0], [10.0], [11.0], [10.0], [50.0]])
    config = FusionConfig(min_neighbors=1)
    out = fuse_views(views, config)
    # median 10, MAD 1, threshold 3 * 1.4826; 50 is rejected, survivors
    # (9, 10, 10, 11) have median 10.
    assert out.values[0, 0] == 10.0


def test_fuse_mean_of_inliers():
    m = 40.0
    views = _stack_views([[m - 0.3], [m - 0.1], [m + 0.1], [m + 0.3], [m + 30.0]])
    config = FusionConfig(aggregator="mean", min_neighbors=1)
    out = fuse_views(views, config)
    assert out.values[0, 0] == pytest.approx(m, abs=1e-12)


@pytest.mark.parametrize("aggregator", ["median", "mean"])
def test_fuse_reads_infinities_as_nodata(aggregator):
    config = FusionConfig(min_neighbors=1, aggregator=aggregator)
    infinite = fuse_views(_stack_views([[np.inf], [-np.inf], [3.0]]), config)
    missing = fuse_views(_stack_views([[np.nan], [np.nan], [3.0]]), config)
    assert infinite.values[0, 0] == missing.values[0, 0] == 3.0


def test_fuse_threshold_is_inclusive():
    views = _stack_views([[0.0], [1.0], [3.0]])
    # median 1, deviations (1, 0, 2), MAD 1. A threshold of exactly 1.0
    # keeps the sample at deviation 1; just below it does not.
    at = FusionConfig(mad_k=1.0 / MAD_CONSISTENCY, mad_floor=0.0, aggregator="mean", min_neighbors=1)
    below = FusionConfig(mad_k=0.99 / MAD_CONSISTENCY, mad_floor=0.0, aggregator="mean", min_neighbors=1)
    assert fuse_views(views, at).values[0, 0] == pytest.approx(0.5)
    assert fuse_views(views, below).values[0, 0] == pytest.approx(1.0)


def test_fuse_mad_floor_prevents_total_rejection():
    views = _stack_views([[10.0], [10.0], [10.0], [10.05]])
    config = FusionConfig(mad_floor=0.1, aggregator="mean", min_neighbors=1)
    out = fuse_views(views, config)
    # MAD is 0; the floor keeps the threshold wide enough for every sample.
    assert out.values[0, 0] == pytest.approx(10.0125)


def test_fuse_single_view_identity():
    rng = np.random.default_rng(0)
    r = _raster(rng.uniform(0.0, 50.0, size=(12, 12)))
    out = fuse_views([r], FusionConfig(min_neighbors=1))
    np.testing.assert_allclose(out.values, r.values)


def test_fuse_is_idempotent():
    rng = np.random.default_rng(1)
    r = _raster(rng.uniform(0.0, 50.0, size=(10, 10)))
    config = FusionConfig(min_neighbors=1)
    once = fuse_views([r], config)
    twice = fuse_views([once], config)
    np.testing.assert_allclose(twice.values, once.values)


def test_fuse_radius_filter_clears_isolated_cells():
    values = np.full((11, 11), -9999.0)
    values[0:2, 0:2] = 5.0  # a 2x2 cluster: each member has 4 neighbors
    values[7, 7] = 9.0  # isolated cell
    r = _raster(values)
    out = fuse_views([r], FusionConfig(min_neighbors=4))
    assert (out.values[0:2, 0:2] == 5.0).all()
    assert out.values[7, 7] == out.nodata


def test_fuse_spans_union_of_inputs():
    a = _raster([[1.0, 1.0]], origin=(0.0, 0.0))
    b = _raster([[2.0, 2.0]], origin=(2.0, 0.0))
    out = fuse_views([a, b], FusionConfig(min_neighbors=1))
    assert out.values.shape == (1, 4)
    np.testing.assert_array_equal(out.values, [[1.0, 1.0, 2.0, 2.0]])


def test_fuse_config_validation():
    with pytest.raises(ValueError, match="mad_k"):
        FusionConfig(mad_k=0.0)
    with pytest.raises(ValueError, match="mad_floor"):
        FusionConfig(mad_floor=-0.1)
    with pytest.raises(ValueError, match="radius"):
        FusionConfig(radius=0.0)
    with pytest.raises(ValueError, match="radius"):
        FusionConfig(radius=float("inf"))
    with pytest.raises(ValueError, match="min_neighbors"):
        FusionConfig(min_neighbors=0)
    with pytest.raises(ValueError, match="aggregator"):
        FusionConfig(aggregator="mode")


@st.composite
def _views_with_nan_holes(draw, max_views):
    """Pairs of views on one lattice, each pair holding the same heights and
    the same holes, marked in the first by the nodata sentinel and in the
    second by the sentinel or NaN, cell by cell."""
    pairs = []
    for _ in range(draw(st.integers(1, max_views))):
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        heights = draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
        holes = draw(arrays(np.bool_, shape))
        as_nan = draw(arrays(np.bool_, shape))
        origin = (float(draw(st.integers(0, 3))), float(draw(st.integers(-3, 0))))
        sentinel = np.where(holes, -9999.0, heights)
        nan = np.where(holes & as_nan, np.nan, sentinel)
        pairs.append((_raster(sentinel, origin), _raster(nan, origin)))
    return pairs


@settings(deadline=None, max_examples=100)
@given(_views_with_nan_holes(max_views=4), st.sampled_from(["median", "mean"]))
def test_fuse_reads_nan_as_nodata(pairs, aggregator):
    config = FusionConfig(aggregator=aggregator, min_neighbors=2)
    expected = fuse_views([sentinel for sentinel, _ in pairs], config)
    got = fuse_views([nan for _, nan in pairs], config)
    assert got.origin == expected.origin
    np.testing.assert_array_equal(got.values.view(np.uint64), expected.values.view(np.uint64))


@settings(deadline=None, max_examples=100)
@given(_views_with_nan_holes(max_views=1), _views_with_nan_holes(max_views=1))
def test_dsm_metrics_reads_nan_as_nodata(estimates, truths):
    def metrics(estimate, truth):
        try:
            return dsm_metrics(estimate, truth, thresholds=(1.0, 100.0))
        except LatticeError:
            return None

    ((estimate, estimate_nan),) = estimates
    ((truth, truth_nan),) = truths
    expected = metrics(estimate, truth)
    assert metrics(estimate_nan, truth) == expected
    assert metrics(estimate, truth_nan) == expected
    assert metrics(estimate_nan, truth_nan) == expected


def test_fuse_requires_input():
    with pytest.raises(ValueError, match="at least one"):
        fuse_views([])


# ---------------------------------------------------------------------------
# Metrics


def test_dsm_metrics_hand_case():
    est = _raster([[1.0, 2.0, 3.0]])
    truth = _raster([[1.0, 3.0, 5.0, 7.0]])
    m = dsm_metrics(est, truth, thresholds=(1.5,))
    # residuals (0, -1, -2) over 3 overlap cells; 4 truth-valid cells.
    assert m.rmse == pytest.approx(np.sqrt(5.0 / 3.0))
    assert m.me == 1.0
    assert m.mae == pytest.approx(1.0)
    assert m.n_overlap == 3
    assert m.n_truth == 4
    assert m.comp == ((1.5, 0.5),)


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
def test_dsm_metrics_rejects_threshold_not_positive(threshold):
    est = _raster([[1.0, 2.0]])
    with pytest.raises(ValueError, match="thresholds must be positive"):
        dsm_metrics(est, est, thresholds=(1.0, threshold))


def test_dsm_metrics_matches_brute_force():
    rng = np.random.default_rng(2)
    est_v = rng.uniform(0.0, 30.0, size=(20, 20))
    tru_v = est_v + rng.normal(0.0, 2.0, size=(20, 20))
    est_v[rng.random((20, 20)) < 0.2] = -9999.0
    tru_v[rng.random((20, 20)) < 0.2] = -9999.0
    est = _raster(est_v)
    truth = _raster(tru_v)
    thresholds = (1.0, 2.0, 5.0)
    m = dsm_metrics(est, truth, thresholds)

    both = (est_v != -9999.0) & (tru_v != -9999.0)
    resid = est_v[both] - tru_v[both]
    n_truth = (tru_v != -9999.0).sum()
    assert m.rmse == pytest.approx(np.sqrt(np.mean(resid**2)))
    assert m.me == pytest.approx(np.median(np.abs(resid)))
    assert m.mae == pytest.approx(np.mean(np.abs(resid)))
    assert m.n_overlap == both.sum()
    assert m.n_truth == n_truth
    for t, frac in m.comp:
        assert frac == pytest.approx((np.abs(resid) < t).sum() / n_truth)


def test_dsm_metrics_offset_grids():
    # Estimate shifted one cell right: ground column x of the estimate pairs
    # with the same map coordinate in truth.
    est = _raster([[5.0, 6.0]], origin=(1.0, 0.0))
    truth = _raster([[1.0, 2.0, 3.0]], origin=(0.0, 0.0))
    m = dsm_metrics(est, truth, thresholds=(10.0,))
    assert m.n_overlap == 2
    assert m.n_truth == 3
    assert m.mae == pytest.approx((abs(5.0 - 2.0) + abs(6.0 - 3.0)) / 2.0)


def test_dsm_metrics_disjoint_masks():
    est = _raster([[1.0, -9999.0]])
    truth = _raster([[-9999.0, 2.0]])
    with pytest.raises(LatticeError):
        dsm_metrics(est, truth, thresholds=(1.0,))


def test_dsm_metrics_lattice_mismatch():
    est = _raster([[1.0]], cell=1.0)
    truth = _raster([[1.0]], cell=1.5)
    with pytest.raises(LatticeError):
        dsm_metrics(est, truth, thresholds=(1.0,))


def test_dsm_metrics_threshold_validation():
    est = _raster([[1.0]])
    with pytest.raises(ValueError, match="thresholds"):
        dsm_metrics(est, est, thresholds=(0.0,))


def test_format_metrics_report_lines():
    m = DsmMetrics(
        rmse=1.5,
        me=1.0,
        mae=1.25,
        comp=((1.5, 0.5), (5.0, 0.75)),
        n_overlap=3,
        n_truth=4,
    )
    text = format_metrics_report(m)
    assert text.splitlines() == [
        "RMSE_M: 1.5",
        "ME_M: 1",
        "MAE_M: 1.25",
        "N_OVERLAP: 3",
        "N_TRUTH: 4",
        "COMP_1.5: 0.5",
        "COMP_5: 0.75",
    ]

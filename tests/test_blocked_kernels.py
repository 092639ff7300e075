"""The row-blocked full-frame kernels against their full-frame references.

``render_image``, ``resample`` and ``fuse_views`` work in slices of whole
rows (``raster._row_blocks``). Each reference below does the same work on
the whole frame at once: for ``resample`` and ``fuse_views`` it is the code
they replaced, and for ``render_image`` it runs each ray's height to its own
fixed point over every pixel together. The blocked kernels are held to them
bit for bit under block sizes of one row, of a count that does not divide
the row count, of more rows than the frame has, and narrower than one row.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from satpinhole import raster
from satpinhole.fusion import MAD_CONSISTENCY, FusionConfig, _median_views, _neighbor_counts, _overlay, fuse_views
from satpinhole.geodesy import enu_to_geodetic
from satpinhole.raster import NODATA, Raster, _row_blocks, interpolate, sample_bilinear
from satpinhole.refinement import IDENTITY_COEFFS, Homography, PolynomialWarp, resample
from satpinhole.synth import (
    CHECKER_PERIOD_M,
    _terrain_relief,
    make_pinhole_scene,
    make_pushbroom_scene,
    render_image,
)


def _render_full(scene):
    """The full-frame ``render_image``; also returns, per sweep, the largest
    height update of each image row."""
    cam = scene.camera
    w, h = scene.image_size
    anchor = scene.anchor
    terrain = scene.terrain
    alt_lo, alt_hi = _terrain_relief(terrain)

    rows, cols = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    samp = cols.ravel()
    line = rows.ravel()

    height = np.full(samp.shape, (alt_lo + alt_hi) / 2.0)
    u = height - anchor.alt
    row_updates = []
    for _ in range(12):
        e, n = cam.localize_at_height(samp, line, u)
        finite = np.isfinite(e) & np.isfinite(n)
        e = np.where(finite, e, 0.0)
        n = np.where(finite, n, 0.0)
        lat, lon, alt_geo = enu_to_geodetic(e, n, u, anchor)
        height = sample_bilinear(terrain, lon, lat, clamp=True)
        delta = height - alt_geo
        row_updates.append(np.abs(delta).reshape(h, w).max(axis=1))
        moving = ~(np.abs(delta) < 1e-6)
        if not moving.any():
            break
        u = u + np.where(moving, delta, 0.0)

    parity = (np.floor(e / CHECKER_PERIOD_M) + np.floor(n / CHECKER_PERIOD_M)) % 2.0
    dn = 70.0 + 115.0 * parity
    if alt_hi > alt_lo:
        dn = dn + 55.0 * (height - alt_lo) / (alt_hi - alt_lo)
    dn = np.clip(dn, 0.0, 255.0)

    margin_lat = 0.05 * (scene.volume.lat_max - scene.volume.lat_min)
    margin_lon = 0.05 * (scene.volume.lon_max - scene.volume.lon_min)
    off_terrain = (
        (lat < scene.volume.lat_min - margin_lat)
        | (lat > scene.volume.lat_max + margin_lat)
        | (lon < scene.volume.lon_min - margin_lon)
        | (lon > scene.volume.lon_max + margin_lon)
    )
    bad = off_terrain | ~finite
    values = np.where(bad, NODATA, dn).reshape(h, w)
    return values, np.array(row_updates)


def _resample_full(image, warp):
    """The full-frame ``resample``."""
    h, w = image.values.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    mx, my = warp.apply(xs, ys)
    return interpolate(image, mx, my, clamp=False)


def _fuse_full(dsms, config):
    """The full-frame ``fuse_views``, one (views, rows, cols) stack."""
    origin, nrows, ncols, offsets = _overlay(dsms)
    cell = dsms[0].cell_size
    nodata = dsms[0].nodata

    stack = np.full((len(dsms), nrows, ncols), np.nan)
    for i, (r, (row, col)) in enumerate(zip(dsms, offsets)):
        layer = np.where(r.valid_mask(), r.values.astype(np.float64), np.nan)
        stack[i, row : row + r.nrows, col : col + r.ncols] = layer

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        med = _median_views(stack)
        mad = _median_views(np.abs(stack - med))
        thresh = config.mad_k * MAD_CONSISTENCY * np.maximum(mad, config.mad_floor)
        keep = np.abs(stack - med) <= thresh
        survivors = np.where(keep, stack, np.nan)
        if config.aggregator == "median":
            fused = _median_views(survivors)
        else:
            fused = np.nanmean(survivors, axis=0)

    valid = np.isfinite(fused)
    values = np.where(valid, fused, nodata)

    radius = config.radius if config.radius is not None else 3.0 * cell
    counts = _neighbor_counts(valid, radius / cell)
    return np.where(valid & (counts >= config.min_neighbors), values, nodata)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# Block sizes as a function of the frame width: narrower than one row, one
# row, three rows (no frame below has a row count divisible by 3), and more
# rows than any frame below.
BLOCKS = {
    "half-row": lambda ncols: max(ncols // 2, 1),
    "one-row": lambda ncols: ncols,
    "three-rows": lambda ncols: 3 * ncols,
    "whole-frame": lambda ncols: 1 << 40,
}


@pytest.fixture(params=sorted(BLOCKS))
def block_cells(request, monkeypatch):
    """Sets the block size for a frame of the given width."""

    def set_for(ncols):
        monkeypatch.setattr(raster, "_BLOCK_CELLS", BLOCKS[request.param](ncols))

    return set_for


@pytest.mark.parametrize("nrows, ncols", [(0, 4), (1, 1), (1, 40), (40, 1), (7, 5), (100, 3)])
@pytest.mark.parametrize("cells", [1, 4, 5, 12, 1 << 14])
def test_row_blocks_cover_each_row_once(monkeypatch, nrows, ncols, cells):
    monkeypatch.setattr(raster, "_BLOCK_CELLS", cells)
    blocks = _row_blocks(nrows, ncols)
    covered = [r for block in blocks for r in range(block.start, block.stop)]
    assert covered == list(range(nrows))
    step = max(1, cells // ncols)
    assert all(block.stop - block.start == step for block in blocks[:-1])
    assert all(0 < block.stop - block.start <= step for block in blocks)


@pytest.mark.parametrize(
    "maker, seed, size",
    [
        (make_pinhole_scene, 5, (44, 31)),
        (make_pushbroom_scene, 21, (37, 29)),
        (make_pinhole_scene, 12, (80, 1)),
        (make_pushbroom_scene, 12, (1, 80)),
    ],
)
def test_render_matches_full_frame(block_cells, maker, seed, size):
    scene = maker(seed, size)
    expected, _ = _render_full(scene)
    block_cells(size[0])
    np.testing.assert_array_equal(_bits(render_image(scene).values), _bits(expected))


def test_render_settles_each_ray_on_its_own(block_cells):
    # Flatten the terrain north of its middle: rays that land there settle a
    # sweep or more before the rays on the relief, so with row blocks some
    # blocks finish while others still move. Each ray keeps the height it
    # settled at, so the image must not depend on where the blocks end.
    base = make_pushbroom_scene(4, (33, 40), relief=200.0)
    values = base.terrain.values.copy()
    values[: values.shape[0] // 2] = values.min()
    scene = dataclasses.replace(base, terrain=base.terrain.like(values))
    expected, row_updates = _render_full(scene)
    # Some row settles in a sweep before the last one.
    assert (row_updates[:-1] < 1e-6).any()
    block_cells(scene.image_size[0])
    np.testing.assert_array_equal(_bits(render_image(scene).values), _bits(expected))


def _image(nrows, ncols, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 255.0, size=(nrows, ncols))
    values[rng.random((nrows, ncols)) < 0.05] = NODATA
    return Raster(values=values)


@pytest.mark.parametrize("shape", [(1, 60), (61, 1), (41, 29)])
@pytest.mark.parametrize(
    "warp",
    [
        PolynomialWarp(m=np.array(IDENTITY_COEFFS) + np.array([0.4, 0.01, -0.02, 2e-4, 1e-4, -3e-4, -0.3, 0.015, 0.02, -1e-4, 2e-4, 1e-4])),
        Homography(h=np.array([[1.01, 0.02, -0.5], [-0.01, 0.98, 0.7], [1e-4, -2e-4, 1.0]])),
    ],
    ids=["polynomial", "homography"],
)
def test_resample_matches_full_frame(block_cells, shape, warp):
    image = _image(*shape)
    expected = _resample_full(image, warp)
    block_cells(shape[1])
    np.testing.assert_array_equal(_bits(resample(image, warp).values), _bits(expected))


def _views(seed, extents):
    """Views on one lattice with the given (rows, cols, row offset, col
    offset), carrying noise, gross outliers and holes."""
    rng = np.random.default_rng(seed)
    top = max(row + nrows for nrows, _, row, _ in extents)
    views = []
    for nrows, ncols, row, col in extents:
        values = 50.0 + rng.normal(0.0, 0.5, size=(nrows, ncols))
        values[rng.random((nrows, ncols)) < 0.1] += 40.0
        values[rng.random((nrows, ncols)) < 0.1] = NODATA
        # Row offsets count down from the top of the union, y up from the bottom.
        views.append(Raster(values=values, origin=(float(col), float(top - row - nrows))))
    return views


@pytest.mark.parametrize(
    "extents",
    [
        [(1, 50, 0, 0), (1, 44, 0, 3), (1, 30, 0, 17)],
        [(50, 1, 0, 0), (44, 1, 3, 0), (30, 1, 17, 0)],
        [(23, 19, 0, 0), (17, 19, 4, 2), (29, 11, 5, 9), (8, 25, 1, 0)],
    ],
    ids=["one-row", "one-column", "offsets"],
)
@pytest.mark.parametrize(
    "config",
    [FusionConfig(), FusionConfig(aggregator="mean", min_neighbors=2, radius=1.5)],
    ids=["median", "mean"],
)
def test_fuse_matches_full_frame(block_cells, extents, config):
    views = _views(8, extents)
    expected = _fuse_full(views, config)
    block_cells(max(col + ncols for _, ncols, _, col in extents))
    np.testing.assert_array_equal(_bits(fuse_views(views, config).values), _bits(expected))

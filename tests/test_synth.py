"""Tests for terrain generation, scene construction, rendering, and RPC fitting."""

import dataclasses

import numpy as np
import pytest

from satpinhole.errors import DegenerateError
from satpinhole.geodesy import GeoPoint, geodetic_to_enu
from satpinhole.raster import Raster
from satpinhole.rpc import project_forward
from satpinhole.synth import (
    ROUGHNESS,
    PushbroomCamera,
    SyntheticScene,
    Volume,
    fit_rpc,
    fit_scene_rpc,
    make_pinhole_scene,
    make_pushbroom_scene,
    make_terrain,
    render_image,
    scene_projection,
)


# ---------------------------------------------------------------------------
# Terrain


def test_terrain_is_deterministic():
    a = make_terrain(3, 65, 120.0)
    b = make_terrain(3, 65, 120.0)
    np.testing.assert_array_equal(a.values, b.values)
    c = make_terrain(4, 65, 120.0)
    assert not np.array_equal(a.values, c.values)


def test_terrain_spans_relief_exactly():
    t = make_terrain(7, 65, 120.0)
    assert t.values.shape == (65, 65)
    assert t.values.min() == 0.0
    assert t.values.max() == 120.0


def test_terrain_arbitrary_size_crops():
    t = make_terrain(7, 100, 50.0)
    assert t.values.shape == (100, 100)


def test_terrain_zero_relief_is_flat():
    t = make_terrain(7, 33, 0.0)
    assert (t.values == 0.0).all()


def _reference_terrain(seed, size, relief):
    """make_terrain with the square step by index meshgrids and masks."""
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
        tl = g[:-1:step, :-1:step]
        tr = g[:-1:step, step::step]
        bl = g[step::step, :-1:step]
        br = g[step::step, step::step]
        g[half::step, half::step] = (tl + tr + bl + br) / 4.0 + rng.normal(0.0, amp, tl.shape)
        for r0, c0 in ((0, half), (half, 0)):
            rows = np.arange(r0, side, step)
            cols = np.arange(c0, side, step)
            rr, cc = np.meshgrid(rows, cols, indexing="ij")
            total = np.zeros(rr.shape)
            cnt = np.zeros(rr.shape)
            for dr, dc in ((-half, 0), (half, 0), (0, -half), (0, half)):
                r2 = rr + dr
                c2 = cc + dc
                ok = (r2 >= 0) & (r2 < side) & (c2 >= 0) & (c2 < side)
                total[ok] += g[r2[ok], c2[ok]]
                cnt[ok] += 1
            g[rr, cc] = total / cnt + rng.normal(0.0, amp, rr.shape)
        step = half
        amp *= ROUGHNESS
    sub = g[:size, :size]
    lo, hi = sub.min(), sub.max()
    return (sub - lo) / (hi - lo) * relief if hi > lo else np.zeros_like(sub)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 17, 100, 129, 512])
def test_terrain_is_bitwise_the_meshgrid_reference(size):
    for seed in range(6):
        got = make_terrain(seed, size, 80.0).values
        expected = _reference_terrain(seed, size, 80.0)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_terrain_validation():
    with pytest.raises(ValueError, match="size"):
        make_terrain(1, 0, 10.0)
    with pytest.raises(ValueError, match="relief"):
        make_terrain(1, 33, -1.0)


@pytest.mark.parametrize("size", [64.5, np.inf], ids=["fractional", "inf"])
def test_terrain_refuses_a_size_that_is_not_whole_cells(size):
    # int() truncated 64.5 to 64 and overflowed on inf.
    with pytest.raises(ValueError, match="terrain size must be positive whole cells"):
        make_terrain(1, size, 10.0)


@pytest.mark.parametrize("relief", [np.inf, np.nan], ids=["inf", "nan"])
def test_terrain_refuses_a_relief_that_is_not_finite(relief):
    # An inf relief gave an all-NaN terrain after a RuntimeWarning, a nan
    # relief flat zeros; both now meet the scene builders' relief rule.
    with pytest.raises(ValueError, match="relief must be finite and non-negative"):
        make_terrain(0, 16, relief)


# ---------------------------------------------------------------------------
# Volume


def test_volume_center_and_half():
    v = Volume(10.0, 20.0, 30.0, 50.0, 0.0, 100.0)
    assert v.center == (15.0, 40.0, 50.0)
    assert v.half == (5.0, 10.0, 50.0)


def test_volume_sample_grid_covers_corners():
    v = Volume(10.0, 20.0, 30.0, 50.0, 0.0, 100.0)
    lat, lon, alt = v.sample_grid((2, 2, 2))
    assert lat.shape == (8,)
    assert set(lat) == {10.0, 20.0}
    assert set(lon) == {30.0, 50.0}
    assert set(alt) == {0.0, 100.0}


def test_scene_refuses_an_image_size_that_is_not_whole_pixels():
    # A width of 64.5 passed the ">= 1" test and made a scene of that size.
    with pytest.raises(ValueError, match="image size must be positive whole pixels"):
        make_pushbroom_scene(21, (64.5, 64))


def test_volume_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="min < max"):
        Volume(20.0, 10.0, 30.0, 50.0, 0.0, 100.0)


# ---------------------------------------------------------------------------
# Rational fitting


def test_fit_recovers_pinhole_projection():
    scene = make_pinhole_scene(11, (128, 128))
    model, rms = fit_scene_rpc(scene)
    assert rms < 1e-6

    rng = np.random.default_rng(0)
    v = scene.volume
    lat = rng.uniform(v.lat_min, v.lat_max, 300)
    lon = rng.uniform(v.lon_min, v.lon_max, 300)
    alt = rng.uniform(v.alt_min, v.alt_max, 300)
    exact = scene_projection(scene)
    es, el = exact(lat, lon, alt)
    ms, ml = project_forward(model, lat, lon, alt)
    np.testing.assert_allclose(ms, es, atol=1e-6)
    np.testing.assert_allclose(ml, el, atol=1e-6)


def test_fit_recovers_pushbroom_projection():
    scene = make_pushbroom_scene(11, (256, 256))
    model, rms = fit_scene_rpc(scene)
    assert rms < 1e-6

    rng = np.random.default_rng(1)
    v = scene.volume
    lat = rng.uniform(v.lat_min, v.lat_max, 300)
    lon = rng.uniform(v.lon_min, v.lon_max, 300)
    alt = rng.uniform(v.alt_min, v.alt_max, 300)
    exact = scene_projection(scene)
    es, el = exact(lat, lon, alt)
    ms, ml = project_forward(model, lat, lon, alt)
    np.testing.assert_allclose(ms, es, atol=1e-6)
    np.testing.assert_allclose(ml, el, atol=1e-6)


def test_fit_rejects_constant_axis():
    v = Volume(29.9, 30.1, 39.9, 40.1, 0.0, 100.0)

    def project(lat, lon, alt):
        return np.full_like(lat, 100.0), 128.0 + 500.0 * (lat - 30.0)

    with pytest.raises(DegenerateError, match="constant along the samp axis"):
        fit_rpc(project, v, (256, 256))


def test_fit_rejects_interior_denominator_zero():
    # The target is an exact rational function whose denominator vanishes on
    # the lat interior plane, so any zero-residual fit inherits that zero.
    v = Volume(29.9, 30.1, 39.9, 40.1, 0.0, 100.0)

    def project(lat, lon, alt):
        lat_n = (lat - 30.0) / 0.1
        lon_n = (lon - 40.0) / 0.1
        samp = 128.0 + 128.0 * (-2.0 * lon_n) / (1.0 - 2.0 * lat_n)
        line = 128.0 + 100.0 * lat_n + 10.0 * (alt - 50.0) / 50.0
        return samp, line

    with pytest.raises(DegenerateError, match="denominator approaches zero"):
        fit_rpc(project, v, (256, 256))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_projection(bad):
    # A projection that is not finite at some fit node would reach lstsq as
    # NaN and fail there with a LAPACK complaint instead of a category.
    v = Volume(29.9, 30.1, 39.9, 40.1, 0.0, 100.0)

    def project(lat, lon, alt):
        samp = 128.0 + 500.0 * (lon - 40.0)
        return np.where(lat > 30.05, bad, samp), 128.0 + 500.0 * (lat - 30.0)

    with pytest.raises(DegenerateError, match="not finite at every fit node along the samp axis"):
        fit_rpc(project, v, (256, 256))


def test_fit_rejects_non_finite_solution(monkeypatch):
    # A non-finite fit must end as a degenerate fit, before RpcModel would
    # reject its coefficients as a parse error.
    v = Volume(29.9, 30.1, 39.9, 40.1, 0.0, 100.0)

    def project(lat, lon, alt):
        return 128.0 + 500.0 * (lon - 40.0), 128.0 + 500.0 * (lat - 30.0)

    def lstsq(a, b, rcond=None):
        return np.full(a.shape[1], np.nan), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    with pytest.raises(DegenerateError, match="rational fit along the samp axis is not finite"):
        fit_rpc(project, v, (256, 256))


# ---------------------------------------------------------------------------
# Scene construction


def test_pinhole_scene_is_deterministic():
    a = make_pinhole_scene(9, (128, 128))
    b = make_pinhole_scene(9, (128, 128))
    np.testing.assert_array_equal(a.terrain.values, b.terrain.values)
    np.testing.assert_array_equal(a.camera.k, b.camera.k)
    np.testing.assert_array_equal(a.camera.r, b.camera.r)
    np.testing.assert_array_equal(a.camera.t, b.camera.t)
    assert a.volume == b.volume
    c = make_pinhole_scene(10, (128, 128))
    assert not np.array_equal(a.camera.t, c.camera.t)


def test_pushbroom_scene_is_deterministic():
    a = make_pushbroom_scene(9, (128, 128))
    b = make_pushbroom_scene(9, (128, 128))
    np.testing.assert_array_equal(a.camera.a, b.camera.a)
    np.testing.assert_array_equal(a.camera.b, b.camera.b)
    np.testing.assert_array_equal(a.camera.c, b.camera.c)


def test_scene_volume_projects_inside_image():
    for maker, seed in [(make_pinhole_scene, 2), (make_pushbroom_scene, 2)]:
        scene = maker(seed, (200, 160))
        lat, lon, alt = scene.volume.sample_grid((6, 6, 4))
        samp, line = scene_projection(scene)(lat, lon, alt)
        assert samp.min() >= 0.0 and samp.max() < 200
        assert line.min() >= 0.0 and line.max() < 160


def test_pushbroom_depths_positive_over_volume():
    scene = make_pushbroom_scene(6, (256, 256))
    lat, lon, alt = scene.volume.sample_grid((6, 6, 4))
    e, n, u = geodetic_to_enu(lat, lon, alt, scene.anchor)
    depths = scene.camera.depths(np.column_stack([e, n, u]))
    assert (depths > 0).all()


def test_pushbroom_localize_inverts_projection():
    scene = make_pushbroom_scene(8, (512, 512))
    rng = np.random.default_rng(3)
    enu = np.column_stack(
        [
            rng.uniform(-800.0, 800.0, 100),
            rng.uniform(-800.0, 800.0, 100),
            rng.uniform(-40.0, 140.0, 100),
        ]
    )
    samp, line = scene.camera.project(enu)
    e, n = scene.camera.localize_at_height(samp, line, enu[:, 2])
    np.testing.assert_allclose(e, enu[:, 0], atol=1e-6)
    np.testing.assert_allclose(n, enu[:, 1], atol=1e-6)


# ---------------------------------------------------------------------------
# Rendering


def _flat_linear_scene():
    """Flat terrain under a pushbroom with no cross-term coupling.

    The mapping is then linear: one image pixel is exactly gsd ground meters,
    so checkerboard runs have a known pixel length.
    """
    lat0, lon0 = 30.0, 40.0
    anchor = GeoPoint(lat0, lon0, 0.0)
    volume = Volume(lat0 - 0.003, lat0 + 0.003, lon0 - 0.0042, lon0 + 0.0042, -10.0, 10.0)
    terrain = Raster(
        values=np.zeros((33, 33)),
        cell_size=0.0003,
        origin=(lon0 - 0.005, lat0 - 0.005),
    )
    height = 6.0e4
    gsd = 2.0
    fs = height / gsd
    cam = PushbroomCamera(
        a=(0.0, -1.0 / gsd, 0.0, 128.0),
        b=(fs, 0.0, -128.0, 128.0 * height),
        c=(0.0, 0.0, -1.0, height),
    )
    return SyntheticScene(
        terrain=terrain, camera=cam, volume=volume, anchor=anchor, image_size=(256, 256)
    )


def _run_lengths(values_1d):
    change = np.flatnonzero(np.diff(values_1d)) + 1
    edges = np.concatenate([[0], change, [len(values_1d)]])
    return np.diff(edges)


def test_render_checkerboard_period_matches_ground_scale():
    scene = _flat_linear_scene()
    img = render_image(scene)
    assert (img.values != img.nodata).all()
    assert set(np.unique(img.values)) == {70.0, 185.0}

    # Period 48 m at 2 m per pixel: interior runs of 24 pixels along both
    # axes, give or take one pixel where the slight earth-curvature height
    # correction nudges a checker boundary across a pixel edge.
    row_runs = _run_lengths(img.values[128, :])[1:-1]
    col_runs = _run_lengths(img.values[:, 128])[1:-1]
    assert (np.abs(row_runs - 24) <= 1).all()
    assert (np.abs(col_runs - 24) <= 1).all()
    assert np.median(row_runs) == 24
    assert np.median(col_runs) == 24
    assert len(row_runs) >= 8


def test_render_marks_degenerate_rays_nodata():
    # c[0] = b[0] / 64 makes the camera's 2x2 ground system singular on
    # column 64, where localize_at_height returns non-finite (e, n).
    scene = _flat_linear_scene()
    b, c = scene.camera.b, scene.camera.c
    cam = dataclasses.replace(scene.camera, c=(b[0] / 64, c[1], c[2], c[3]))
    img = render_image(dataclasses.replace(scene, camera=cam))
    assert (img.values[:, 64] == img.nodata).all()
    assert (img.values != img.nodata).any()


def test_render_is_deterministic():
    scene = make_pinhole_scene(5, (96, 96))
    a = render_image(scene)
    b = render_image(scene)
    np.testing.assert_array_equal(a.values, b.values)


def test_render_marks_offscene_borders_nodata():
    scene = make_pinhole_scene(5, (256, 256))
    img = render_image(scene)
    valid = img.values != img.nodata
    frac = valid.mean()
    assert 0.3 < frac < 0.995
    corners = [img.values[0, 0], img.values[0, -1], img.values[-1, 0], img.values[-1, -1]]
    assert any(c == img.nodata for c in corners)
    assert (img.values[valid] >= 0.0).all()
    assert (img.values[valid] <= 255.0).all()


def test_render_altitude_shading_changes_dn():
    scene = make_pinhole_scene(12, (128, 128), relief=150.0)
    img = render_image(scene)
    valid = img.values[img.values != img.nodata]
    # With relief present the two checker populations are smeared by the
    # height ramp, so far more than two distinct levels show up.
    assert len(np.unique(valid)) > 10

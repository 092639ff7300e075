import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satpinhole.equivalence import (
    EquivalenceReport,
    PinholeCamera,
    VirtualGrid,
    _axis_nodes,
    _max_hypot,
    _rq,
    build_virtual_grid,
    decompose_projection,
    equate,
    fit_equivalence,
    format_camera,
    format_equivalence_report,
    measure_equivalence_error,
    parse_camera,
    solve_projection,
)
from satpinhole.errors import DecompositionError, DegenerateError, FormatError, IllConditionedError
from satpinhole import rpc
from satpinhole.geodesy import GeoPoint, geodetic_to_enu
from satpinhole.refinement import IDENTITY_COEFFS, Homography, PolynomialWarp
from satpinhole.rpc import ExtrapolationWarning, RpcModel, project_forward, project_inverse, project_lattice
from satpinhole.synth import fit_scene_rpc, make_pushbroom_scene
from satpinhole.tiling import crop_rpc


def test_grid_matches_brute_force_in_image_count(pushbroom_bundle):
    model = pushbroom_bundle.model
    w, h = pushbroom_bundle.scene.image_size
    dims = (9, 9, 5)
    grid = build_virtual_grid(model, (w, h), dims=dims)

    lats = np.linspace(model.lat_off - model.lat_scale, model.lat_off + model.lat_scale, dims[0])
    lons = np.linspace(model.lon_off - model.lon_scale, model.lon_off + model.lon_scale, dims[1])
    alts = np.linspace(model.alt_off - model.alt_scale, model.alt_off + model.alt_scale, dims[2])
    count = 0
    for la in lats:
        for lo in lons:
            for al in alts:
                s, ln = project_forward(model, la, lo, al)
                if 0.0 <= s < w and 0.0 <= ln < h:
                    count += 1
    assert grid.n_points == count
    assert grid.enu.shape == (count, 3)
    assert grid.pixels.shape == (count, 2)


def _reference_grid(model, image_size, dims, stagger, anchor):
    """build_virtual_grid node by node: meshgrid, project, mask, geodetic_to_enu.

    Returns (enu, pixels), or None where the grid is degenerate (under 6
    survivors, or all in one altitude layer).
    """
    offsets = (model.lat_off, model.lon_off, model.alt_off)
    scales = (model.lat_scale, model.lon_scale, model.alt_scale)
    axes = [_axis_nodes(o - s, o + s, n, stagger) for o, s, n in zip(offsets, scales, dims)]
    lat, lon, alt = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    samp, line = project_forward(model, lat, lon, alt)
    w, h = image_size
    keep = (samp >= 0.0) & (samp < w) & (line >= 0.0) & (line < h)
    lat, lon, alt, samp, line = lat[keep], lon[keep], alt[keep], samp[keep], line[keep]
    if lat.size < 6 or np.unique(alt).size < 2:
        return None
    anchor = anchor or GeoPoint(*offsets)
    enu = np.column_stack(geodetic_to_enu(lat, lon, alt, anchor))
    return enu, np.column_stack([samp, line])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None, max_examples=80)
@given(
    pushbroom=st.booleans(),
    dims=st.tuples(st.integers(2, 14), st.integers(2, 14), st.integers(2, 7)),
    stagger=st.booleans(),
    crop=st.tuples(st.floats(0.02, 1.0), st.floats(0.02, 1.0)),
    anchor=st.none() | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
def test_grid_is_bitwise_the_per_node_reference(pinhole_bundle, pushbroom_bundle, pushbroom, dims, stagger, crop, anchor):
    # The lattice path (broadcast axes, survivors by index, ENU from
    # per-axis terms) changes no bit of any node and no decision. A cropped
    # image size leaves ragged survivor sets.
    bundle = pushbroom_bundle if pushbroom else pinhole_bundle
    model = bundle.model
    w, h = bundle.scene.image_size
    size = (max(1, int(w * crop[0])), max(1, int(h * crop[1])))
    if anchor is not None:
        anchor = GeoPoint(
            model.lat_off + anchor[0] * model.lat_scale,
            model.lon_off + anchor[1] * model.lon_scale,
            model.alt_off + anchor[2] * model.alt_scale,
        )
    want = _reference_grid(model, size, dims, stagger, anchor)
    if want is None:
        with pytest.raises(DegenerateError):
            build_virtual_grid(model, size, dims, stagger=stagger, anchor=anchor)
        return
    grid = build_virtual_grid(model, size, dims, stagger=stagger, anchor=anchor)
    for got, ref in zip((grid.enu, grid.pixels), want):
        assert _same_bits(got, ref)


def _broadcast_grid(model, image_size, dims, stagger):
    """The grid as the broadcast lattice gives it: project_forward over the
    three node axes, the keep test, np.nonzero and geodetic_to_enu."""
    offsets = (model.lat_off, model.lon_off, model.alt_off)
    scales = (model.lat_scale, model.lon_scale, model.alt_scale)
    lats, lons, alts = (_axis_nodes(o - s, o + s, n, stagger) for o, s, n in zip(offsets, scales, dims))
    samp, line = project_forward(model, lats[:, None, None], lons[None, :, None], alts[None, None, :])
    w, h = image_size
    keep = (samp >= 0.0) & (samp < w) & (line >= 0.0) & (line < h)
    i_lat, i_lon, i_alt = np.nonzero(keep)
    enu = np.column_stack(geodetic_to_enu(lats[i_lat], lons[i_lon], alts[i_alt], GeoPoint(*offsets)))
    return enu, np.column_stack([samp[keep], line[keep]])


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize(
    "origin, size, dims, stagger",
    [(None, (512, 512), (20, 20, 10), False), ((384, 384), (128, 128), (20, 20, 10), False),
     (None, (512, 512), (13, 17, 6), True)],
    ids=["frame", "corner-tile", "staggered"],
)
def test_streamed_grid_is_bitwise_the_broadcast_lattice(acceptance_512, monkeypatch, block, origin, size, dims, stagger):
    # A point's bits can depend on its slot in its block of the model
    # evaluation, so the streamed lattice must cut the blocks that
    # project_forward cuts on the broadcast axes. Blocks of 7 and 1000 nodes
    # end mid-row on every axis.
    monkeypatch.setattr(rpc, "_BLOCK", block)
    model = acceptance_512.model if origin is None else crop_rpc(acceptance_512.model, origin)
    want_enu, want_pixels = _broadcast_grid(model, size, dims, stagger)
    grid = build_virtual_grid(model, size, dims, stagger=stagger)
    assert _same_bits(grid.enu, want_enu)
    assert _same_bits(grid.pixels, want_pixels)


def test_streamed_lattice_keeps_the_pole_and_the_extrapolation_warning(acceptance_512, monkeypatch):
    monkeypatch.setattr(rpc, "_BLOCK", 7)
    model, size = acceptance_512.model, acceptance_512.image_size
    # A samp denominator of 1 + 2 H has its pole at H = -0.5, inside the volume.
    den = np.zeros(20)
    den[0], den[3] = 1.0, 2.0
    with pytest.raises(DegenerateError, match="must stay positive"):
        build_virtual_grid(dataclasses.replace(model, samp_den=den), size)

    # Axes reaching twice the rated half-range warn once, before any node.
    lats, lons, alts = (
        off + np.linspace(-2.0, 2.0, n) * scale
        for off, scale, n in ((model.lat_off, model.lat_scale, 9), (model.lon_off, model.lon_scale, 5),
                              (model.alt_off, model.alt_scale, 3))
    )
    with pytest.warns(ExtrapolationWarning) as caught:
        blocks = list(project_lattice(model, lats, lons, alts))
    assert len(caught) == 1
    with pytest.warns(ExtrapolationWarning):
        samp, line = project_forward(model, lats[:, None, None], lons[None, :, None], alts[None, None, :])
    assert [b[1].size for b in blocks] == [7] * 19 + [2]
    index = [np.concatenate(axis) for axis in zip(*(b[0] for b in blocks))]
    want = np.unravel_index(np.arange(9 * 5 * 3), (9, 5, 3))
    assert all(np.array_equal(got, ref) for got, ref in zip(index, want))
    assert _same_bits(np.concatenate([b[1] for b in blocks]), samp.ravel())
    assert _same_bits(np.concatenate([b[2] for b in blocks]), line.ravel())


def test_project_lattice_walks_a_billion_nodes_one_block_at_a_time(acceptance_512):
    # The first block of a 1000 x 1000 x 1000 lattice costs its own 8192
    # nodes, not the lattice's 10**9.
    model = acceptance_512.model
    lats, lons, alts = (
        np.linspace(off - scale, off + scale, 1000)
        for off, scale in ((model.lat_off, model.lat_scale), (model.lon_off, model.lon_scale),
                           (model.alt_off, model.alt_scale))
    )
    tracemalloc.start()
    try:
        index, samp, line = next(project_lattice(model, lats, lons, alts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert samp.shape == line.shape == (8192,)
    for got, want in zip(index, np.unravel_index(np.arange(8192), (1000, 1000, 1000))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dims", [(9, 5, 3), (2, 3, 17), (1, 1, 20), (4, 5, 1), (3, 2, 7)])
def test_project_lattice_indices_are_the_unraveled_flat_nodes(acceptance_512, monkeypatch, dims):
    # Blocks of 7 nodes start and end mid-column, span several columns, or
    # (n_alt past the block) sit inside one column.
    monkeypatch.setattr(rpc, "_BLOCK", 7)
    model = acceptance_512.model
    axes = (
        np.linspace(off - scale, off + scale, n)
        for (off, scale), n in zip(((model.lat_off, model.lat_scale), (model.lon_off, model.lon_scale),
                                    (model.alt_off, model.alt_scale)), dims)
    )
    blocks = [index for index, _, _ in project_lattice(model, *axes)]
    n = int(np.prod(dims))
    assert len(blocks) == -(-n // 7)
    for lo, index in zip(range(0, n, 7), blocks):
        want = np.unravel_index(np.arange(lo, min(lo + 7, n)), dims)
        assert all(got.dtype == ref.dtype and np.array_equal(got, ref) for got, ref in zip(index, want))


def test_project_lattice_holds_a_block_when_the_altitude_axis_outruns_it(acceptance_512):
    # A million altitudes per (lat, lon) column: repeating the column's
    # indices over all its nodes would take 8 MB per axis, not a block's.
    model = acceptance_512.model
    dims = (2, 2, 10**6)
    alts = np.linspace(model.alt_off - model.alt_scale, model.alt_off + model.alt_scale, dims[2])
    walk = project_lattice(model, np.full(2, model.lat_off), np.full(2, model.lon_off), alts)
    next(walk)  # the normalized axes, which are not the walk's to bound
    tracemalloc.start()
    try:
        # Blocks 1 to 124 cross the first column's end at node 10**6.
        for b, (index, samp, _) in zip(range(1, 125), walk):
            if b >= 121:
                want = np.unravel_index(np.arange(b * 8192, (b + 1) * 8192), dims)
                assert all(np.array_equal(got, ref) for got, ref in zip(index, want))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_fit_equivalence_holds_the_survivors_and_a_block(acceptance_512):
    # A 128 px tile keeps about 1 node in 7 of its 40 x 40 x 20 fit and
    # 80 x 80 x 40 validation lattices. Streamed, the fit holds the survivors
    # (40 bytes each) and their residuals, not the lattices: holding them
    # took 15 times the survivors' bytes here.
    model = crop_rpc(acceptance_512.model, (112, 112))
    tracemalloc.start()
    try:
        eq = fit_equivalence(model, (128, 128), (40, 40, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    survivors = sum(g.enu.nbytes + g.pixels.nbytes for g in (eq.fit_grid, eq.val_grid))
    assert peak < 3 * survivors + 2 * 2**20, (peak, survivors)


def _flat_model(lat_scale, lon_scale, alt_scale, pixel_scale, pixel_off):
    """An affine model with no height term: samp = off + scale * Ln, line = off + scale * Pn."""
    samp_num, line_num, den = np.zeros(20), np.zeros(20), np.zeros(20)
    samp_num[1] = line_num[2] = den[0] = 1.0
    return RpcModel(
        line_off=pixel_off, samp_off=pixel_off,
        lat_off=30.0, lon_off=50.0, alt_off=100.0,
        line_scale=pixel_scale, samp_scale=pixel_scale,
        lat_scale=lat_scale, lon_scale=lon_scale, alt_scale=alt_scale,
        line_num=line_num, line_den=den, samp_num=samp_num, samp_den=den.copy(),
    )


def test_single_surviving_column_is_coplanar():
    # Only the centre node of each ground axis lands in a 1 x 1 image, so the
    # survivors are one column of 6 altitudes: on a line. The grid keeps
    # them, and the DLT refuses them: with no height term, their pixels
    # coincide.
    model = _flat_model(0.1, 0.1, 200.0, pixel_scale=10.0, pixel_off=0.5)
    grid = build_virtual_grid(model, (1, 1), dims=(5, 5, 6))
    assert grid.n_points == 6
    with pytest.raises(IllConditionedError, match="single point"):
        equate(model, (1, 1), dims=(5, 5, 6))


def test_coplanar_survivors_are_ill_conditioned(pinhole_bundle):
    # Six survivors of a (2, 3, 4) grid in a 256 x 256 crop lie in a plane
    # (sigma3 / sigma1 near 1e-13); the DLT's rank rule refuses them.
    model = pinhole_bundle.model
    grid = build_virtual_grid(model, (256, 256), dims=(2, 3, 4))
    sv = np.linalg.svd(grid.enu - grid.enu.mean(axis=0), compute_uv=False)
    assert sv[2] < 1e-9 * sv[0]
    with pytest.raises(IllConditionedError, match="unique"):
        equate(model, (256, 256), dims=(2, 3, 4))


def test_single_surviving_altitude_layer_is_degenerate():
    # samp = 0.5 + 10 H: a 1-pixel-wide image keeps only the middle of three
    # altitude layers, with 15 nodes in it.
    model = _flat_model(0.1, 0.1, 200.0, pixel_scale=10.0, pixel_off=0.5)
    samp_num = np.zeros(20)
    samp_num[3] = 1.0
    model = dataclasses.replace(model, samp_num=samp_num)
    with pytest.raises(DegenerateError, match="one altitude layer"):
        build_virtual_grid(model, (1, 20), dims=(5, 5, 3))


def test_staggered_grid_shares_no_nodes(pushbroom_bundle):
    model = pushbroom_bundle.model
    size = pushbroom_bundle.scene.image_size
    fit = build_virtual_grid(model, size, dims=(10, 10, 5))
    val = build_virtual_grid(model, size, dims=(20, 20, 10), stagger=True)
    fit_nodes = {tuple(row) for row in fit.enu}
    val_nodes = {tuple(row) for row in val.enu}
    assert not (fit_nodes & val_nodes)


def test_exact_pinhole_recovery(pinhole_bundle):
    camera = pinhole_bundle.camera
    true = pinhole_bundle.scene.camera
    assert pinhole_bundle.report.rmse < 1e-6
    for got, want in ((camera.k, true.k), (camera.r, true.r), (camera.t, true.t)):
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel < 1e-9


def test_camera_shape_invariants(pushbroom_bundle):
    cam = pushbroom_bundle.camera
    assert cam.k[1, 0] == 0.0 and cam.k[2, 0] == 0.0 and cam.k[2, 1] == 0.0
    assert cam.k[0, 0] > 0 and cam.k[1, 1] > 0
    assert cam.k[2, 2] == 1.0
    np.testing.assert_allclose(cam.r @ cam.r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(cam.r) == pytest.approx(1.0, abs=1e-12)


def test_negated_matrix_gives_identical_camera(pushbroom_bundle):
    model = pushbroom_bundle.model
    size = pushbroom_bundle.scene.image_size
    grid = build_virtual_grid(model, size)
    p = solve_projection(grid)
    cam_a = decompose_projection(p, grid, size)
    cam_b = decompose_projection(-p, grid, size)
    np.testing.assert_allclose(cam_a.k, cam_b.k, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cam_a.r, cam_b.r, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cam_a.t, cam_b.t, rtol=1e-12, atol=1e-12)


def test_projection_matrix_residual_is_small(pinhole_bundle):
    size = pinhole_bundle.scene.image_size
    grid = build_virtual_grid(pinhole_bundle.model, size)
    p = solve_projection(grid)
    cam = decompose_projection(p, grid, size)
    assert cam.residual_rms_px < 1e-6
    x = np.column_stack([grid.enu, np.ones(grid.n_points)]) @ p.T
    err = np.hypot(x[:, 0] / x[:, 2] - grid.pixels[:, 0], x[:, 1] / x[:, 2] - grid.pixels[:, 1])
    assert np.sqrt(np.mean(err**2)) == pytest.approx(cam.residual_rms_px, rel=1e-9)


def _reference_projection(grid):
    """The normalized DLT with the thin SVD of the whole 2n x 12 system."""
    pix, enu = grid.pixels, grid.enu
    pc = pix.mean(axis=0)
    ps = np.sqrt(2.0) / np.sqrt(np.mean(np.sum((pix - pc) ** 2, axis=1)))
    xc = enu.mean(axis=0)
    xs = np.sqrt(3.0) / np.sqrt(np.mean(np.sum((enu - xc) ** 2, axis=1)))
    t2 = np.array([[ps, 0, -ps * pc[0]], [0, ps, -ps * pc[1]], [0, 0, 1]])
    t3 = np.eye(4)
    t3[:3, :3] *= xs
    t3[:3, 3] = -xs * xc
    xh = np.column_stack([(enu - xc) * xs, np.ones(len(enu))])
    un, vn = ((pix - pc) * ps).T
    a = np.zeros((2 * len(enu), 12))
    a[0::2, 0:4] = xh
    a[0::2, 8:12] = -un[:, None] * xh
    a[1::2, 4:8] = xh
    a[1::2, 8:12] = -vn[:, None] * xh
    vt = np.linalg.svd(a, full_matrices=False)[2]
    p = np.linalg.inv(t2) @ vt[-1].reshape(3, 4) @ t3
    p = p / np.linalg.norm(p)
    return p if np.linalg.det(p[:, :3]) > 0 else -p


@pytest.mark.parametrize("dims", [(20, 20, 10), (6, 5, 3), (30, 30, 15)])
def test_projection_agrees_with_thin_svd_reference(pushbroom_bundle, dims):
    grid = build_virtual_grid(pushbroom_bundle.model, pushbroom_bundle.scene.image_size, dims)
    p = solve_projection(grid)
    np.testing.assert_allclose(p, _reference_projection(grid), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [6, 10, 11, 40])
def test_projection_agrees_with_thin_svd_reference_on_few_points(n):
    # Systems of 12 to 80 rows, all solved from the R factor, give the
    # reference camera.
    p_true, grid = _synthetic_camera_and_grid(tz=500.0, n=n)
    p = solve_projection(grid)
    np.testing.assert_allclose(p, _reference_projection(grid), rtol=0, atol=1e-12)
    np.testing.assert_allclose(p, p_true, rtol=0, atol=1e-9)


def test_localize_at_height_inverts_projection(pinhole_bundle):
    cam = pinhole_bundle.camera
    grid = build_virtual_grid(pinhole_bundle.model, pinhole_bundle.scene.image_size)
    samp, line = cam.project(grid.enu)
    e, n = cam.localize_at_height(samp, line, grid.enu[:, 2])
    np.testing.assert_allclose(e, grid.enu[:, 0], rtol=0, atol=1e-6)
    np.testing.assert_allclose(n, grid.enu[:, 1], rtol=0, atol=1e-6)


def test_single_altitude_layer_is_degenerate(pushbroom_bundle):
    with pytest.raises(DegenerateError):
        build_virtual_grid(
            pushbroom_bundle.model,
            pushbroom_bundle.scene.image_size,
            dims=(5, 5, 1),
        )


def test_too_few_surviving_points_is_degenerate(pushbroom_bundle):
    # A 2-pixel image catches almost none of the rated volume.
    with pytest.raises(DegenerateError):
        build_virtual_grid(pushbroom_bundle.model, (2, 2), dims=(5, 5, 4))


def test_collapsed_correspondences_are_ill_conditioned():
    anchor = GeoPoint(0.0, 0.0, 0.0)
    point = np.tile(np.array([[1.0, 2.0, 3.0]]), (20, 1))
    grid = VirtualGrid(
        enu=point,
        pixels=np.tile(np.array([[5.0, 6.0]]), (20, 1)),
        anchor=anchor,
    )
    with pytest.raises(IllConditionedError):
        solve_projection(grid)


def test_correspondences_spread_past_the_float_range_are_ill_conditioned():
    # No rational model can stage these any more (its heights stay within
    # 9999 m), but a grid given to the library can: their squares overflow.
    rng = np.random.default_rng(16)
    grid = VirtualGrid(
        enu=rng.uniform(-1.0, 1.0, (40, 3)) * 1e160,
        pixels=rng.uniform(0.0, 100.0, (40, 2)),
        anchor=GeoPoint(0.0, 0.0, 0.0),
    )
    with pytest.raises(IllConditionedError, match="^correspondences spread past the float range$"):
        solve_projection(grid)


def _pinhole_grid(enu):
    """*enu* with its exact pixels under a fixed camera 500 m from the origin."""
    k = np.array([[900.0, 0.0, 320.0], [0.0, 880.0, 240.0], [0.0, 0.0, 1.0]])
    pix = (enu + [0.0, 0.0, 500.0]) @ k.T
    return VirtualGrid(enu=enu, pixels=pix[:, :2] / pix[:, 2:], anchor=GeoPoint(0.0, 0.0, 0.0))


def test_points_on_a_line_plus_one_off_it_are_ill_conditioned():
    s = np.linspace(-1.0, 1.0, 40)[:, None]
    enu = np.vstack([s * [30.0, 20.0, 10.0], [[5.0, -40.0, 12.0]]])
    with pytest.raises(IllConditionedError, match="unique"):
        solve_projection(_pinhole_grid(enu))


# Slabs of 60 points about a plane, *thickness* metres thick across a
# 100 m square: sigma3 / sigma1 is 0, about 1e-10 and about 1e-9.
@pytest.mark.parametrize("thickness", [0.0, 6.6e-9, 6.6e-8], ids=["planar", "1e-10", "1e-9"])
def test_coplanar_points_are_ill_conditioned(thickness):
    rng = np.random.default_rng(5)
    xy = rng.uniform(-50.0, 50.0, (60, 2))
    enu = np.column_stack([xy, 0.3 * xy[:, 0] - 0.2 * xy[:, 1] + 7.0])
    normal = np.array([-0.3, 0.2, 1.0]) / np.sqrt(1.13)
    enu += thickness * rng.uniform(-1.0, 1.0, (60, 1)) * normal
    sv = np.linalg.svd(enu - enu.mean(axis=0), compute_uv=False)
    assert sv[2] < 2e-9 * sv[0]
    with pytest.raises(IllConditionedError, match="unique"):
        solve_projection(_pinhole_grid(enu))


@pytest.mark.parametrize(
    "seed, dims",
    [pytest.param(seed, (20, 20, 10), id=str(seed)) for seed in range(8)]
    + [pytest.param(seed, (20, 20, 2), id=f"{seed}-two-layers") for seed in range(8)],
)
def test_acceptance_family_cameras_fit(seed, dims):
    # sigma11/sigma12 runs from 6 to 21 on these seeds. It measures how far
    # the model is from a pinhole, not whether the camera is determined. Two
    # altitude layers determine it as well as ten.
    scene = make_pushbroom_scene(seed, (512, 512), relief=60, extent_deg=0.16)
    model, _ = fit_scene_rpc(scene)
    _, report = equate(model, scene.image_size, dims=dims)
    assert report.rmse < 0.5


@pytest.fixture(scope="module")
def acceptance_scene_256():
    scene = make_pushbroom_scene(21, (256, 256), relief=60, extent_deg=0.16)
    return fit_scene_rpc(scene)[0], scene.image_size


# The model is re-centred; its scales stay those of a 0.16 degree scene. Near
# the pole the best-fit camera turns into a mirror image, then has grid
# nodes behind it, and equate names that. Any warning fails the test.
@pytest.mark.parametrize(
    "field, value, error",
    [
        ("lat_off", 60.0, None),
        ("lat_off", 84.0, None),
        ("lat_off", 89.0, None),
        ("lat_off", 89.9, DecompositionError),
        ("lat_off", 89.99, DecompositionError),
        ("lon_off", 179.999, None),
        ("lon_off", -179.999, None),
    ],
)
def test_equate_at_high_latitude_and_the_antimeridian(acceptance_scene_256, field, value, error):
    model, size = acceptance_scene_256
    model = dataclasses.replace(model, **{field: value})
    if error is not None:
        with pytest.raises(error):
            equate(model, size)
        return
    camera, report = equate(model, size)
    assert np.isfinite([report.rmse, report.max_error, camera.residual_rms_px]).all()
    assert report.rmse < 5.0


@pytest.mark.parametrize(
    "field, value", [("lat_off", 60.0), ("lat_off", 84.0), ("lat_off", 89.0), ("lon_off", 179.999), ("lon_off", -179.999)]
)
def test_inverse_round_trips_at_high_latitude_and_the_antimeridian(acceptance_scene_256, field, value):
    model = dataclasses.replace(acceptance_scene_256[0], **{field: value})
    g = np.random.default_rng(15).uniform(-1.0, 1.0, (3, 2000))
    lat = model.lat_off + g[0] * model.lat_scale
    lon = model.lon_off + g[1] * model.lon_scale
    alt = model.alt_off + g[2] * model.alt_scale
    samp, line = project_forward(model, lat, lon, alt)
    lat2, lon2 = project_inverse(model, samp, line, alt)
    assert np.max(np.abs(lat2 - lat)) < 1e-10
    assert np.max(np.abs(lon2 - lon)) < 1e-10
    samp2, line2 = project_forward(model, lat2, lon2, alt)
    assert np.max(np.hypot(samp2 - samp, line2 - line)) < 1e-8


def _log_factor():
    return st.floats(-9.0, 0.0).map(lambda e: 10.0 ** e)


# The model's ground scales shrink by up to 1e-9, down to volumes under a
# millimetre across, on images of 1 to 256 px, so only a few nodes may
# survive. Each case fits, with every validation node in front of the
# camera, or is refused by name; any warning fails it. The first example
# left a fit-grid node with w = 0 in P X where it was found, which the
# camera's residual divided by before cheirality was checked. The last one
# has 232 of its 384 validation nodes behind the camera fitted to it.
@settings(deadline=None, max_examples=200)
@example(factors=(0.00054032515237268, 2.6796645215094675e-07, 2.337554332979039e-09), edge=20, dims=(2, 2, 6))
@example(factors=(5.40325154e-04, 2.67966451e-07, 2.33755434e-09), edge=20, dims=(2, 2, 6))
@example(factors=(1.3e-4, 1.3e-2, 2.7e-3), edge=245, dims=(2, 6, 4))
@given(
    factors=st.tuples(_log_factor(), _log_factor(), _log_factor()),
    edge=st.integers(1, 256),
    dims=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
)
def test_thin_volumes_and_sparse_grids_fit_or_are_refused(acceptance_scene_256, factors, edge, dims):
    model, _ = acceptance_scene_256
    model = dataclasses.replace(
        model,
        lat_scale=model.lat_scale * factors[0],
        lon_scale=model.lon_scale * factors[1],
        alt_scale=model.alt_scale * factors[2],
    )
    try:
        eq = fit_equivalence(model, (edge, edge), dims)
    except (DegenerateError, IllConditionedError, DecompositionError):
        return
    report = eq.report
    assert np.isfinite(
        [report.samp_rmse, report.line_rmse, report.rmse, report.max_error, eq.camera.residual_rms_px]
    ).all()
    assert (eq.camera.depths(eq.val_grid.enu) > 0).all()


def _synthetic_camera_and_grid(tz: float, n: int = 40):
    rng = np.random.default_rng(8)
    k = np.array([[900.0, 0.0, 320.0], [0.0, 880.0, 240.0], [0.0, 0.0, 1.0]])
    r = np.eye(3)
    t = np.array([0.0, 0.0, tz])
    enu = rng.uniform(-50, 50, (n, 3))
    cam = enu @ r.T + t
    pix = cam @ k.T
    pixels = np.column_stack([pix[:, 0] / pix[:, 2], pix[:, 1] / pix[:, 2]])
    grid = VirtualGrid(enu=enu, pixels=pixels, anchor=GeoPoint(0.0, 0.0, 0.0))
    p = k @ np.column_stack([r, t])
    return p / np.linalg.norm(p), grid


def test_points_straddling_the_camera_plane_rejected():
    # Depth tz +- 50: some grid points land behind the camera.
    p, grid = _synthetic_camera_and_grid(tz=10.0)
    with pytest.raises(DecompositionError, match="behind"):
        decompose_projection(p, grid, (640, 480))


def test_node_on_the_principal_plane_refused_before_the_residual():
    # The last node is on the camera's principal plane: w = 0 in P X, exactly.
    # Cheirality refuses it before the residual divides by w (a RuntimeWarning,
    # so an error in this suite).
    k = np.array([[900.0, 0.0, 320.0], [0.0, 880.0, 240.0], [0.0, 0.0, 1.0]])
    p = k @ np.column_stack([np.eye(3), [0.0, 0.0, 500.0]])
    enu = np.vstack([np.random.default_rng(8).uniform(-50, 50, (40, 3)), [10.0, 0.0, -500.0]])
    pix = np.column_stack([enu, np.ones(41)]) @ p.T
    pixels = np.zeros((41, 2))
    pixels[:40] = pix[:40, :2] / pix[:40, 2:]
    assert pix[40, 2] == 0.0
    grid = VirtualGrid(enu=enu, pixels=pixels, anchor=GeoPoint(0.0, 0.0, 0.0))
    with pytest.raises(DecompositionError, match="1 of 41 grid points fall behind"):
        decompose_projection(p, grid, (640, 480))


def _principal_plane_camera():
    """A camera 500 m above the ENU origin, looking up: ENU height -500 is
    its principal plane."""
    k = np.array([[900.0, 0.0, 320.0], [0.0, 880.0, 240.0], [0.0, 0.0, 1.0]])
    return PinholeCamera(k=k, r=np.eye(3), t=[0.0, 0.0, 500.0], anchor=GeoPoint(0.0, 0.0, 0.0), image_size=(640, 480))


def test_project_of_a_node_on_the_principal_plane_is_infinite_without_a_warning():
    # w = 0 in K (R X + t): the pixel is at infinity. The callers refuse it by
    # name (fit_rpc as degenerate, the scene builders as invalid), so the
    # divide must not warn first (a RuntimeWarning is an error in this suite).
    samp, line = _principal_plane_camera().project(np.array([[0.0, 0.0, 0.0], [10.0, 10.0, -500.0]]))
    assert (samp[0], line[0]) == (320.0, 240.0)
    assert np.isinf(samp[1]) and np.isinf(line[1])


@pytest.mark.parametrize(
    "warp",
    [PolynomialWarp(np.add(IDENTITY_COEFFS, 1e-3 * (-1.0) ** np.arange(12))), Homography(np.eye(3) + 1e-3)],
    ids=["polynomial", "homography"],
)
def test_report_through_a_warp_refuses_a_node_on_the_principal_plane_without_a_warning(warp):
    # The warp meets the node's infinite pixel before the count refuses it.
    enu = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, -500.0]])
    grid = VirtualGrid(enu=enu, pixels=np.zeros((2, 2)), anchor=GeoPoint(0.0, 0.0, 0.0))
    with pytest.raises(DecompositionError, match="1 of 2 grid points fall behind"):
        measure_equivalence_error(None, _principal_plane_camera(), grid, warp=warp)


def test_mirror_camera_rejected():
    # A reflected frame: negate the first row of K (fx < 0 in the generator).
    k = np.array([[-900.0, 0.0, 320.0], [0.0, 880.0, 240.0], [0.0, 0.0, 1.0]])
    r = np.eye(3)
    t = np.array([0.0, 0.0, 500.0])
    rng = np.random.default_rng(8)
    enu = rng.uniform(-50, 50, (40, 3))
    cam = enu @ r.T + t
    pix = cam @ k.T
    pixels = np.column_stack([pix[:, 0] / pix[:, 2], pix[:, 1] / pix[:, 2]])
    grid = VirtualGrid(enu=enu, pixels=pixels, anchor=GeoPoint(0.0, 0.0, 0.0))
    p = k @ np.column_stack([r, t])
    with pytest.raises(DecompositionError, match="mirror"):
        decompose_projection(p / np.linalg.norm(p), grid, (640, 480))


def test_rq_factors_random_matrices():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = rng.normal(size=(3, 3)) * rng.uniform(1e-3, 1e4, size=(3, 1))
        k, r = _rq(m)
        assert np.array_equal(k, np.triu(k))
        assert (np.diag(k) > 0).all()
        np.testing.assert_allclose(r @ r.T, np.eye(3), rtol=0, atol=1e-12)
        # A positive diagonal leaves the sign of det(M) to R.
        assert np.linalg.det(r) == pytest.approx(np.sign(np.linalg.det(m)), abs=1e-12)
        assert np.abs(k @ r - m).max() <= 1e-12 * np.abs(m).max()


def test_decompose_recovers_synthetic_camera():
    p, grid = _synthetic_camera_and_grid(tz=500.0)
    cam = decompose_projection(p, grid, (640, 480))
    np.testing.assert_allclose(cam.k, [[900, 0, 320], [0, 880, 240], [0, 0, 1]], atol=1e-9)
    np.testing.assert_allclose(cam.r, np.eye(3), atol=1e-9)
    np.testing.assert_allclose(cam.t, [0, 0, 500], atol=1e-9)


def test_equate_report_comes_from_held_out_grid(pushbroom_bundle):
    # The report's point count must match the staggered validation grid, not
    # the fit grid.
    model = pushbroom_bundle.model
    size = pushbroom_bundle.scene.image_size
    camera, report = equate(model, size, dims=(10, 10, 5))
    val = build_virtual_grid(model, size, dims=(20, 20, 10), stagger=True)
    assert report.n_points == val.n_points


@pytest.mark.parametrize("size", [(np.inf, 256), (256.7, 256.2)], ids=["inf", "fractional"])
def test_equate_refuses_an_image_size_that_is_not_whole_pixels(acceptance_512, size):
    # An infinite width overflowed inside PinholeCamera, and a fractional
    # size kept nodes up to 256.7 px for a camera of a 256 x 256 image.
    with pytest.raises(ValueError, match="image size must be positive whole pixels"):
        equate(acceptance_512.model, size)


def test_camera_round_trip_is_byte_identical(pushbroom_bundle):
    text = format_camera(pushbroom_bundle.camera)
    again = format_camera(parse_camera(text))
    assert text == again


def test_camera_parse_errors_name_problem():
    with pytest.raises(FormatError, match="IMAGE_SIZE"):
        parse_camera("K: 1 0 0 0 1 0 0 0 1\n")


@pytest.mark.parametrize("size", ["inf 256", "-3 256", "256 2.5", "nan 256"])
def test_camera_image_size_must_be_positive_integers(pinhole_bundle, size):
    text = format_camera(pinhole_bundle.camera)
    w, h = pinhole_bundle.camera.image_size
    text = text.replace(f"IMAGE_SIZE: {w} {h}", f"IMAGE_SIZE: {size}")
    with pytest.raises(FormatError, match="IMAGE_SIZE"):
        parse_camera(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["ANCHOR_ALT", "K", "R", "T", "RESIDUAL_RMS_PX"])
def test_camera_values_must_be_finite(pinhole_bundle, key, value):
    # Replace the last number of the key's line: one bad entry is enough.
    lines = format_camera(pinhole_bundle.camera).splitlines()
    lines = [ln.rsplit(" ", 1)[0] + f" {value}" if ln.startswith(f"{key}:") else ln for ln in lines]
    with pytest.raises(FormatError, match=f"^{key}:"):
        parse_camera("\n".join(lines))


@pytest.mark.parametrize(
    "key, value",
    [
        ("K", "0 0 0 0 0 0 0 0 0"),
        ("K", "1000 0 48 1e-300 1000 48 0 0 1"),
        ("K", "1000 0 48 0 -1000 48 0 0 1"),
        ("K", "1000 0 48 0 1000 48 0 0 2"),
        ("R", "1 0 0 0 1 0 0 0 -1"),
        ("R", "0 1 0 1 0 0 0 0 1"),
        ("R", "1 0 0 0 1 0 0 0 1.00000001"),
        ("R", "0 0 0 0 0 0 0 0 0"),
    ],
)
def test_camera_k_and_r_must_be_intrinsics_and_a_rotation(pinhole_bundle, key, value):
    lines = format_camera(pinhole_bundle.camera).splitlines()
    lines = [f"{key}: {value}" if ln.startswith(f"{key}:") else ln for ln in lines]
    with pytest.raises(FormatError, match=f"^{key}: must be .*, got '{re.escape(value)}'$"):
        parse_camera("\n".join(lines))


def test_camera_rotation_tolerance_admits_rounding(pinhole_bundle):
    # |R^T R - I| of the cameras the package fits is at rounding level
    # (under 1e-15); the 1e-9 bound only refuses what is not a rotation.
    text = format_camera(pinhole_bundle.camera)
    text = re.sub(r"(?m)^R: .*$", "R: 1 0 0 0 1 0 0 0 1.0000000001", text)
    assert parse_camera(text).r[2, 2] == 1.0000000001


@pytest.mark.parametrize("value", ["nan", "inf", "-181"])
@pytest.mark.parametrize("key", ["ANCHOR_LAT", "ANCHOR_LON"])
def test_camera_anchor_must_lie_on_the_globe(pinhole_bundle, key, value):
    lines = format_camera(pinhole_bundle.camera).splitlines()
    lines = [f"{key}: {value}" if ln.startswith(f"{key}:") else ln for ln in lines]
    with pytest.raises(FormatError, match=f"^{key}: must lie in"):
        parse_camera("\n".join(lines))


def test_camera_parse_recovers_fields(pinhole_bundle):
    cam = pinhole_bundle.camera
    back = parse_camera(format_camera(cam))
    np.testing.assert_array_equal(back.k, cam.k)
    np.testing.assert_array_equal(back.r, cam.r)
    np.testing.assert_array_equal(back.t, cam.t)
    assert back.image_size == cam.image_size
    assert back.anchor == cam.anchor
    assert back.residual_rms_px == cam.residual_rms_px


def test_format_camera_text():
    k = np.array([[900.0, 0.0, 320.0], [0.0, 880.5, 240.0], [0.0, 0.0, 1.0]])
    cam = PinholeCamera(
        k=k, r=np.eye(3), t=[0.0, -0.0, 500.0], anchor=GeoPoint(30.5, 0.1, 100.0),
        image_size=(640, 480), residual_rms_px=1 / 3,
    )
    assert format_camera(cam) == (
        "IMAGE_SIZE: 640 480\n"
        "ANCHOR_LAT: 30.5\n"
        "ANCHOR_LON: 0.10000000000000001\n"
        "ANCHOR_ALT: 100\n"
        "K: 900 0 320 0 880.5 240 0 0 1\n"
        "R: 1 0 0 0 1 0 0 0 1\n"
        "T: 0 -0 500\n"
        "RESIDUAL_RMS_PX: 0.33333333333333331\n"
    )


def test_format_equivalence_report_text():
    report = EquivalenceReport(samp_rmse=0.3, line_rmse=0.4, rmse=0.5, max_error=1.25, n_points=2048)
    assert format_equivalence_report(report) == (
        "SAMP_RMSE_PX: 0.29999999999999999\n"
        "LINE_RMSE_PX: 0.40000000000000002\n"
        "RMSE_PX: 0.5\n"
        "MAX_ERROR_PX: 1.25\n"
        "N_POINTS: 2048\n"
    )


@pytest.mark.parametrize("size", [(256.7, 256.2), (float("inf"), 2), (float("nan"), 480), (0, 480)])
def test_camera_image_size_must_be_whole_pixels(size):
    # A camera truncated (256.7, 256.2) to (256, 256), and overflowed on inf.
    with pytest.raises(ValueError, match="image size must be positive whole pixels"):
        PinholeCamera(k=np.eye(3), r=np.eye(3), t=np.zeros(3), anchor=GeoPoint(0.0, 0.0), image_size=size)


def test_camera_keeps_whole_float_image_size_as_ints():
    cam = PinholeCamera(k=np.eye(3), r=np.eye(3), t=np.zeros(3), anchor=GeoPoint(0.0, 0.0), image_size=(640.0, 480))
    assert cam.image_size == (640, 480)
    assert all(type(n) is int for n in cam.image_size)


@pytest.mark.parametrize("dims", [(10.7, 10, 5), (float("inf"), 10, 5), (float("nan"), 10, 5)])
def test_grid_dims_that_are_not_whole_numbers_are_invalid(pushbroom_bundle, dims):
    # (10.7, 10, 5) built the grid of (10, 10, 5); inf overflowed.
    with pytest.raises(ValueError, match=re.escape(f"grid dims must be whole numbers, got {dims}")):
        build_virtual_grid(pushbroom_bundle.model, (256, 256), dims)


@pytest.mark.parametrize("dims", [(1, 10, 5), (0, 10, 5), (-3, 10, 5), (10, 10, 1.0)])
def test_whole_grid_dims_below_two_are_degenerate(pushbroom_bundle, dims):
    with pytest.raises(DegenerateError, match="grid dims must each be >= 2"):
        build_virtual_grid(pushbroom_bundle.model, (256, 256), dims)


def test_whole_float_grid_dims_build_the_int_grid(pushbroom_bundle):
    grid = build_virtual_grid(pushbroom_bundle.model, (256, 256), (10.0, 10, 5.0))
    same = build_virtual_grid(pushbroom_bundle.model, (256, 256), (10, 10, 5))
    np.testing.assert_array_equal(grid.enu, same.enu)
    np.testing.assert_array_equal(grid.pixels, same.pixels)


def _max_hypot_cases():
    rng = np.random.default_rng(32)
    for scale in (1e-160, 1e-150, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150):
        for n in (1, 2, 7, 1000, 100_000):
            yield f"scale{scale:g}-n{n}", rng.standard_normal(n) * scale, rng.standard_normal(n) * scale
    # Exact ties, some mirrored or swapped between the axes.
    dx = np.array([3.0, -3.0, 4.0, 0.0, 1e-3, 3.0])
    dy = np.array([4.0, 4.0, -3.0, 5.0, 2.0, -4.0])
    yield "ties", dx, dy
    yield "zeros", np.array([0.0, -0.0]), np.array([-0.0, 0.0])
    yield "one-huge-axis", np.array([1e300, 1.0]), np.array([0.0, 1e300])
    yield "squares-overflow", np.array([1e200, -3e200, 1.0]), np.array([2e200, 1e-200, 1.0])
    yield "sum-overflows", np.array([1.3e154, 1.0]), np.array([1.3e154, 2.0])
    yield "inf", np.array([1.0, np.inf, 2.0]), np.array([np.nan, 0.0, 3.0])
    yield "inf-with-nan", np.array([np.inf, 1.0]), np.array([np.nan, 1.0])
    yield "nan", np.array([1.0, np.nan, 2.0]), np.array([1.0, 0.0, 3.0])
    yield "subnormal", np.array([3e-320, 5e-324, 1e-310]), np.array([4e-320, 0.0, 2e-310])
    yield "subnormal-beside-normal", np.array([1e-300, 1e-320]), np.array([2e-300, 1e-310])


@pytest.mark.parametrize("dx, dy", [c[1:] for c in _max_hypot_cases()], ids=[c[0] for c in _max_hypot_cases()])
def test_max_hypot_keeps_the_bits_of_every_nodes_hypot(dx, dy):
    # hypot is taken only near the largest squared norm, which must change no
    # bit: NaN, inf and overflow included, and without a numpy warning.
    expected = np.max(np.hypot(dx, dy))
    got = _max_hypot(dx, dy)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    if np.all(np.abs(np.r_[dx, dy]) < 1e150):  # the report's RMSE squares may not overflow
        report = EquivalenceReport.from_residuals(dx, dy)
        assert np.float64(report.max_error).tobytes() == np.float64(expected).tobytes()

import numpy as np
import pytest

from satpinhole.equivalence import (
    PinholeCamera,
    ProjectionMatrix,
    VirtualGrid,
    _rq,
    build_virtual_grid,
    decompose_projection,
    equate,
    format_camera,
    parse_camera,
    solve_projection,
)
from satpinhole.errors import DecompositionError, DegenerateError, FormatError, IllConditionedError
from satpinhole.geodesy import GeoPoint
from satpinhole.rpc import project_forward


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


def test_staggered_grid_shares_no_nodes(pushbroom_bundle):
    model = pushbroom_bundle.model
    size = pushbroom_bundle.scene.image_size
    fit = build_virtual_grid(model, size, dims=(10, 10, 5))
    val = build_virtual_grid(model, size, dims=(20, 20, 10), stagger=True)
    fit_nodes = {(la, lo, al) for la, lo, al in zip(fit.lat, fit.lon, fit.alt)}
    val_nodes = {(la, lo, al) for la, lo, al in zip(val.lat, val.lon, val.alt)}
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
    pm = solve_projection(grid)
    cam_a = decompose_projection(pm, grid, size)
    flipped = ProjectionMatrix(p=-pm.p, cond=pm.cond, residual_rms_px=pm.residual_rms_px)
    cam_b = decompose_projection(flipped, grid, size)
    np.testing.assert_allclose(cam_a.k, cam_b.k, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cam_a.r, cam_b.r, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cam_a.t, cam_b.t, rtol=1e-12, atol=1e-12)


def test_projection_matrix_residual_is_small(pinhole_bundle):
    grid = build_virtual_grid(pinhole_bundle.model, pinhole_bundle.scene.image_size)
    pm = solve_projection(grid)
    assert pm.residual_rms_px < 1e-6
    s, ln = pm.project(grid.enu)
    err = np.hypot(s - grid.pixels[:, 0], ln - grid.pixels[:, 1])
    assert np.sqrt(np.mean(err**2)) == pytest.approx(pm.residual_rms_px, rel=1e-9)


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
        lat=np.zeros(20),
        lon=np.zeros(20),
        alt=np.zeros(20),
        enu=point,
        pixels=np.tile(np.array([[5.0, 6.0]]), (20, 1)),
        dims=(20, 1, 1),
        anchor=anchor,
    )
    with pytest.raises(IllConditionedError):
        solve_projection(grid)


def _synthetic_camera_and_grid(tz: float):
    rng = np.random.default_rng(8)
    k = np.array([[900.0, 0.0, 320.0], [0.0, 880.0, 240.0], [0.0, 0.0, 1.0]])
    r = np.eye(3)
    t = np.array([0.0, 0.0, tz])
    enu = rng.uniform(-50, 50, (40, 3))
    cam = enu @ r.T + t
    pix = cam @ k.T
    pixels = np.column_stack([pix[:, 0] / pix[:, 2], pix[:, 1] / pix[:, 2]])
    grid = VirtualGrid(
        lat=np.zeros(40),
        lon=np.zeros(40),
        alt=np.zeros(40),
        enu=enu,
        pixels=pixels,
        dims=(40, 1, 1),
        anchor=GeoPoint(0.0, 0.0, 0.0),
    )
    p = k @ np.column_stack([r, t])
    pm = ProjectionMatrix(p=p / np.linalg.norm(p), cond=1.0, residual_rms_px=0.0)
    return pm, grid


def test_points_straddling_the_camera_plane_rejected():
    # Depth tz +- 50: some grid points land behind the camera.
    pm, grid = _synthetic_camera_and_grid(tz=10.0)
    with pytest.raises(DecompositionError, match="behind"):
        decompose_projection(pm, grid, (640, 480))


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
    grid = VirtualGrid(
        lat=np.zeros(40),
        lon=np.zeros(40),
        alt=np.zeros(40),
        enu=enu,
        pixels=pixels,
        dims=(40, 1, 1),
        anchor=GeoPoint(0.0, 0.0, 0.0),
    )
    p = k @ np.column_stack([r, t])
    pm = ProjectionMatrix(p=p / np.linalg.norm(p), cond=1.0, residual_rms_px=0.0)
    with pytest.raises(DecompositionError, match="mirror"):
        decompose_projection(pm, grid, (640, 480))


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
    pm, grid = _synthetic_camera_and_grid(tz=500.0)
    cam = decompose_projection(pm, grid, (640, 480))
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


def test_camera_parse_recovers_fields(pinhole_bundle):
    cam = pinhole_bundle.camera
    back = parse_camera(format_camera(cam))
    np.testing.assert_array_equal(back.k, cam.k)
    np.testing.assert_array_equal(back.r, cam.r)
    np.testing.assert_array_equal(back.t, cam.t)
    assert back.image_size == cam.image_size
    assert back.anchor == cam.anchor
    assert back.residual_rms_px == cam.residual_rms_px

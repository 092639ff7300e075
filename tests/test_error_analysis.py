import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from satpinhole import equivalence, rpc
from satpinhole.equivalence import (
    EquivalenceReport,
    build_virtual_grid,
    equate,
    format_equivalence_report,
    measure_equivalence_error,
    parse_equivalence_report,
)
from satpinhole.error_analysis import (
    error_field,
    predict_error,
    size_sweep,
    write_field_preview,
)
from satpinhole.errors import DecompositionError, FormatError
from satpinhole.geodesy import GeoPoint
from satpinhole.refinement import build_refinement
from satpinhole.tiling import crop_rpc


def test_report_hand_values():
    # Residuals (3, 4) and (0, 0): per-axis RMS over two points, Euclidean
    # combination, max error is the 3-4-5 triangle.
    rep = EquivalenceReport.from_residuals(np.array([3.0, 0.0]), np.array([4.0, 0.0]))
    assert rep.samp_rmse == pytest.approx(3.0 / np.sqrt(2.0))
    assert rep.line_rmse == pytest.approx(4.0 / np.sqrt(2.0))
    assert rep.rmse == pytest.approx(5.0 / np.sqrt(2.0))
    assert rep.max_error == pytest.approx(5.0)
    assert rep.n_points == 2


def test_report_round_trip():
    rep = EquivalenceReport.from_residuals(
        np.array([0.25, -1.5, 0.75]), np.array([0.1, 0.6, -2.25])
    )
    text = format_equivalence_report(rep)
    back = parse_equivalence_report(text)
    assert format_equivalence_report(back) == text
    assert back.n_points == 3


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("SAMP_RMSE_PX", "nan", "values must be finite"),
        ("RMSE_PX", "inf", "values must be finite"),
        ("LINE_RMSE_PX", "-inf", "values must be finite"),
        ("MAX_ERROR_PX", "-1", "must be non-negative"),
    ],
)
def test_report_distances_must_be_finite_and_non_negative(key, value, message):
    rep = EquivalenceReport.from_residuals(np.array([0.25, -1.5]), np.array([0.1, 0.6]))
    text = re.sub(rf"(?m)^{key}: .*$", f"{key}: {value}", format_equivalence_report(rep))
    with pytest.raises(FormatError, match=f"^{key}: {message}, got '{value}'$"):
        parse_equivalence_report(text)


@pytest.mark.parametrize("line", ["N_POINTS: inf", "N_POINTS: 2.5", "N_POINTS: 0", ""])
def test_report_point_count_must_be_a_positive_integer(line):
    rep = EquivalenceReport.from_residuals(np.array([0.25, -1.5]), np.array([0.1, 0.6]))
    text = format_equivalence_report(rep).replace("N_POINTS: 2", line)
    with pytest.raises(FormatError, match="N_POINTS"):
        parse_equivalence_report(text)


def test_measure_is_tiny_for_exact_pinhole(pinhole_bundle):
    grid = build_virtual_grid(
        pinhole_bundle.model, pinhole_bundle.scene.image_size, dims=(12, 12, 6)
    )
    rep = measure_equivalence_error(pinhole_bundle.model, pinhole_bundle.camera, grid)
    assert rep.rmse < 1e-6
    assert rep.max_error < 1e-5


def test_measure_with_identity_warp_matches_plain(pushbroom_bundle):
    from satpinhole.refinement import IDENTITY_COEFFS, PolynomialWarp

    grid = build_virtual_grid(
        pushbroom_bundle.model, pushbroom_bundle.scene.image_size, dims=(10, 10, 5)
    )
    plain = measure_equivalence_error(pushbroom_bundle.model, pushbroom_bundle.camera, grid)
    ident = PolynomialWarp(m=np.array(IDENTITY_COEFFS, dtype=float))
    warped = measure_equivalence_error(
        pushbroom_bundle.model, pushbroom_bundle.camera, grid, warp=ident
    )
    assert warped.rmse == pytest.approx(plain.rmse, rel=1e-12)
    assert warped.max_error == pytest.approx(plain.max_error, rel=1e-12)


def test_predictor_matches_perspective_minus_weak():
    # Differencing a perspective projection against its fixed-depth (weak)
    # counterpart is an exact oracle for the first-order formula when the
    # pixel offset comes from the perspective side.
    rng = np.random.default_rng(5)
    fx = 8000.0
    z_mean = 60000.0
    ground = rng.uniform(-1, 1, (500, 3)) * np.array([2000.0, 2000.0, 150.0])
    z = z_mean + ground[:, 2]
    x_persp = fx * ground[:, 0] / z
    x_weak = fx * ground[:, 0] / z_mean
    measured = x_persp - x_weak
    predicted = predict_error(x_persp, z, z_mean)
    np.testing.assert_allclose(predicted, measured, rtol=0, atol=1e-10)


def test_predictor_sign_and_growth():
    # Points beyond the mean depth squeeze toward the center (negative error
    # for positive x) and the error grows linearly with the offset.
    assert predict_error(100.0, 1050.0, 1000.0) == pytest.approx(-5.0)
    assert predict_error(-100.0, 1050.0, 1000.0) == pytest.approx(5.0)
    assert predict_error(200.0, 1050.0, 1000.0) == pytest.approx(-10.0)
    assert predict_error(100.0, 950.0, 1000.0) == pytest.approx(5.0)
    assert predict_error(100.0, 1000.0, 1000.0) == 0.0


@pytest.mark.parametrize("z_mean", [0.0, -5.0, float("nan")], ids=["zero", "negative", "nan"])
def test_predictor_refuses_a_mean_depth_not_in_front(z_mean):
    # A zero mean depth used to divide by zero (a RuntimeWarning); a negative
    # or NaN one returned numbers for a scene on or behind the camera.
    with pytest.raises(ValueError, match=rf"mean depth must be finite and positive, got {z_mean}"):
        predict_error([1.0, 2.0], [3.0, 4.0], z_mean)


def test_error_field_binning_matches_brute_force(pushbroom_bundle):
    model = pushbroom_bundle.model
    camera = pushbroom_bundle.camera
    size = pushbroom_bundle.scene.image_size
    grid = build_virtual_grid(model, size, dims=(15, 15, 5), stagger=True)
    cell = 128.0
    field = error_field(model, camera, size, cell, grid=grid)

    samp, line = grid.pixels.T
    psamp, pline = camera.project(grid.enu)
    err = np.hypot(samp - psamp, line - pline)
    ncols = int(np.ceil(size[0] / cell))
    nrows = int(np.ceil(size[1] / cell))
    assert field.values.shape == (nrows, ncols)
    expected = np.full((nrows, ncols), field.nodata)
    for r in range(nrows):
        for c in range(ncols):
            sel = (
                (np.floor(samp / cell).astype(int) == c)
                & (np.floor(line / cell).astype(int) == r)
            )
            if sel.any():
                expected[r, c] = err[sel].mean()
    np.testing.assert_allclose(field.values, expected, rtol=1e-12, atol=1e-12)
    assert field.cell_size == cell

    # With cells much finer than the grid spacing, most cells receive no
    # points and must come out nodata.
    fine = error_field(model, camera, size, 16.0, grid=grid)
    assert (fine.values == fine.nodata).sum() > fine.values.size // 2


def _bincount_field(model, camera, size, cell):
    """error_field from the whole dense grid and one bincount per sum."""
    n_side = int(np.clip(2 * int(np.ceil(max(size) / cell)), 8, 256))
    grid = build_virtual_grid(model, size, (n_side, n_side, 5), stagger=True, anchor=camera.anchor)
    samp, line = grid.pixels.T
    psamp, pline = camera.project(grid.enu)
    ncols, nrows = int(np.ceil(size[0] / cell)), int(np.ceil(size[1] / cell))
    col = np.clip((samp / cell).astype(np.intp), 0, ncols - 1)
    row = np.clip((line / cell).astype(np.intp), 0, nrows - 1)
    cells = row * ncols + col
    total = np.bincount(cells, weights=np.hypot(samp - psamp, line - pline), minlength=nrows * ncols)
    count = np.bincount(cells, minlength=nrows * ncols)
    values = np.where(count > 0, total / np.maximum(count, 1.0), -9999.0)
    return values.reshape(nrows, ncols)


@pytest.mark.parametrize("block", [1000, rpc._BLOCK])
@pytest.mark.parametrize("cell", [1.0, 7.5, 64.0])
def test_streamed_error_field_is_bitwise_one_bincount(acceptance_512, monkeypatch, block, cell):
    # The dense grid goes into the cells block by block; np.add.at adds each
    # point in lattice order, as a bincount over the whole grid does.
    monkeypatch.setattr(rpc, "_BLOCK", block)
    model, size = acceptance_512.model, acceptance_512.image_size
    camera, _ = equate(model, size)
    field = error_field(model, camera, size, cell)
    want = _bincount_field(model, camera, size, cell)
    assert field.values.dtype == want.dtype and field.values.tobytes() == want.tobytes()


def test_error_field_holds_its_output_and_counts(acceptance_512, monkeypatch):
    # At 1 px cells the 512 x 512 frame is 2 MB, and the dense lattice has
    # 256 x 256 x 5 nodes. Streamed, the field holds the output (8 bytes a
    # cell), its counts (4) and one block, which blocks of 1024 nodes keep
    # small next to the frame. Holding the lattice whole took about 18 frames.
    monkeypatch.setattr(rpc, "_BLOCK", 1024)
    model, size = acceptance_512.model, acceptance_512.image_size
    camera, _ = equate(model, size)
    tracemalloc.start()
    try:
        field = error_field(model, camera, size, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.values.shape == (512, 512)
    assert peak < 2.2 * field.values.nbytes, (peak, field.values.nbytes)


def test_error_field_rejects_bad_cell(pushbroom_bundle):
    with pytest.raises(ValueError):
        error_field(
            pushbroom_bundle.model,
            pushbroom_bundle.camera,
            pushbroom_bundle.scene.image_size,
            cell_px=0.0,
        )


@pytest.mark.parametrize("size", [(0, 0), (-5, 128), (128, 0)])
@pytest.mark.parametrize("with_grid", [False, True], ids=["dense", "grid"])
def test_error_field_rejects_non_positive_image_size(pushbroom_bundle, size, with_grid):
    # An explicit grid skips the dense lattice and its size check, so the
    # size is checked before either path.
    model = pushbroom_bundle.model
    grid = build_virtual_grid(model, pushbroom_bundle.scene.image_size, dims=(6, 6, 3)) if with_grid else None
    with pytest.raises(ValueError, match="image size must be positive"):
        error_field(model, pushbroom_bundle.camera, size, 64.0, grid=grid)


@pytest.mark.parametrize("size", [(np.inf, 256), (256.7, 256.2)], ids=["inf", "fractional"])
@pytest.mark.parametrize("with_grid", [False, True], ids=["dense", "grid"])
def test_error_field_refuses_an_image_size_that_is_not_whole_pixels(pushbroom_bundle, size, with_grid):
    # An infinite width overflowed taking the cell count as an int, and a
    # fractional size mapped a 256.7 x 256.2 image into 9 x 9 cells.
    model = pushbroom_bundle.model
    grid = build_virtual_grid(model, pushbroom_bundle.scene.image_size, dims=(6, 6, 3)) if with_grid else None
    with pytest.raises(ValueError, match="image size must be positive whole pixels"):
        error_field(model, pushbroom_bundle.camera, size, 32.0, grid=grid)


def test_error_field_refuses_a_map_too_big_for_memory_before_allocating(acceptance_512, monkeypatch):
    # 0.25 px cells over 128 px are 512 x 512 cells, whose sums and counts
    # take 3 MB: on a machine of 1 MiB the map is refused before any of it,
    # or any block of the lattice, is allocated.
    model = crop_rpc(acceptance_512.model, (192, 192))
    camera, _ = equate(model, (128, 128))
    monkeypatch.setattr(equivalence, "_physical_memory", lambda: 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="map of 0.25 px cells"):
            error_field(model, camera, (128, 128), 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak


def test_error_field_of_a_64_px_tile_needs_no_fit_minimum(acceptance_512):
    # The map lattice spans the parent scene's rated volume, so only a few
    # of its nodes land in a 64 px corner tile: fewer than the 6 a fit
    # needs, which the map used to refuse.
    model = crop_rpc(acceptance_512.model, (0, 0))
    camera, _ = equate(model, (64, 64))
    field = error_field(model, camera, (64, 64), 32.0)
    assert field.values.shape == (2, 2)
    assert field.valid_mask().any()


def _flipped(camera):
    """*camera* turned by diag(1, -1, -1): a proper rotation that looks
    down its -Z axis, so every node in front of *camera* is behind it."""
    flip = np.diag([1.0, -1.0, -1.0])
    return replace(camera, r=flip @ camera.r, t=flip @ camera.t)


@pytest.mark.parametrize("with_grid", [False, True], ids=["dense", "grid"])
def test_error_field_refuses_nodes_behind_the_camera(pinhole_bundle, with_grid):
    # The mirrored projections made a map of about 100 px.
    model, size = pinhole_bundle.model, pinhole_bundle.scene.image_size
    grid = build_virtual_grid(model, size, dims=(6, 6, 3)) if with_grid else None
    with pytest.raises(DecompositionError, match=r"cheirality unsatisfiable: (\d+) of \1 map points fall behind"):
        error_field(model, _flipped(pinhole_bundle.camera), size, 64.0, grid=grid)


@pytest.mark.parametrize(
    "score",
    [
        lambda model, camera, grid, warp: measure_equivalence_error(model, camera, grid),
        lambda model, camera, grid, warp: measure_equivalence_error(model, camera, grid, warp=warp),
        lambda model, camera, grid, warp: build_refinement(model, camera, grid),
        lambda model, camera, grid, warp: build_refinement(model, camera, grid, kind="homography"),
    ],
    ids=["report", "report-after-warp", "polynomial", "homography"],
)
def test_grid_scorers_refuse_nodes_behind_the_camera(pinhole_bundle, score):
    # The mirrored projections gave a report of about 100 px, and a warp fit
    # to the mirror that made the report after it read about 1e-11 px.
    model, size = pinhole_bundle.model, pinhole_bundle.scene.image_size
    grid = build_virtual_grid(model, size, dims=(6, 6, 3))
    warp = build_refinement(model, pinhole_bundle.camera, grid)
    with pytest.raises(DecompositionError, match=r"cheirality unsatisfiable: (\d+) of \1 grid points fall behind"):
        score(model, _flipped(pinhole_bundle.camera), grid, warp)


@pytest.mark.parametrize(
    "score",
    [
        lambda model, camera, grid, size: measure_equivalence_error(model, camera, grid),
        lambda model, camera, grid, size: build_refinement(model, camera, grid),
        lambda model, camera, grid, size: error_field(model, camera, size, 32.0, grid=grid),
    ],
    ids=["report", "warp", "map"],
)
def test_grid_scorers_refuse_a_grid_of_another_frame(acceptance_512, score):
    # Nodes placed in the ENU frame of an anchor 0.01 deg north of the
    # camera's, about 1.1 km away, gave a report, a warp and a map of that
    # shift rather than of the camera: 15 px on the seed-21 256 px scene,
    # against 0.03 px in the camera's own frame.
    model, size = acceptance_512.model, acceptance_512.image_size
    camera, _ = equate(model, size)
    north = GeoPoint(camera.anchor.lat + 0.01, camera.anchor.lon, camera.anchor.alt)
    grid = build_virtual_grid(model, size, dims=(6, 6, 3), anchor=north)
    with pytest.raises(ValueError, match="ENU frame") as info:
        score(model, camera, grid, size)
    assert repr(north) in str(info.value) and repr(camera.anchor) in str(info.value)


def test_size_sweep_shrinks_error(pushbroom_bundle):
    model = pushbroom_bundle.model
    size = pushbroom_bundle.scene.image_size
    sweep = size_sweep(model, size, (size[0], size[0] // 2, size[0] // 4))
    rmses = [rep.rmse for _, rep in sweep]
    assert rmses[0] > rmses[1] > rmses[2]
    assert [s for s, _ in sweep] == [size[0], size[0] // 2, size[0] // 4]


@pytest.mark.parametrize("bundle", ["pushbroom_bundle", "pinhole_bundle"])
def test_size_sweep_rows_are_each_crops_equate(request, bundle):
    # The crops share their lattice walks; each row keeps the bits of a fit
    # on its own re-anchored model. 2 * w is clamped to the image, and a
    # repeated size gives a repeated row.
    item = request.getfixturevalue(bundle)
    w, h = item.scene.image_size
    sizes = [w // 2, 2 * w, w // 4, w // 2, w]
    sweep = size_sweep(item.model, (w, h), sizes)
    assert [s for s, _ in sweep] == sizes
    for size, report in sweep:
        cw, ch = min(size, w), min(size, h)
        cropped = crop_rpc(item.model, ((w - cw) // 2, (h - ch) // 2))
        assert report == equate(cropped, (cw, ch))[1]


@pytest.mark.parametrize("n_crops", [1, 3, 5])
def test_size_sweep_walks_each_lattice_once(pushbroom_bundle, monkeypatch, n_crops):
    # One walk of the fit lattice and one of the validation lattice,
    # whatever the number of crops.
    walks = [0]
    walk = rpc.project_lattice

    def counted(*args, **kwargs):
        walks[0] += 1
        return walk(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("satpinhole") and getattr(module, "project_lattice", None) is walk:
            monkeypatch.setattr(module, "project_lattice", counted)
    w = pushbroom_bundle.scene.image_size[0]
    sweep = size_sweep(pushbroom_bundle.model, (w, w), [w * k // 8 for k in (8, 6, 4, 2, 1)][:n_crops])
    assert len(sweep) == n_crops
    assert walks[0] == 2


def test_size_sweep_of_no_crops_is_empty(pushbroom_bundle):
    assert size_sweep(pushbroom_bundle.model, pushbroom_bundle.scene.image_size, []) == []


@pytest.mark.parametrize("size", [np.inf, np.nan, 100.7], ids=["inf", "nan", "fractional"])
def test_size_sweep_refuses_a_crop_size_that_is_not_whole_pixels(pushbroom_bundle, size):
    # int() overflowed on inf, failed bare on nan, and fitted a 100 px crop
    # for 100.7 while reporting it as 100.7.
    with pytest.raises(ValueError, match="crop size must be positive whole pixels"):
        size_sweep(pushbroom_bundle.model, pushbroom_bundle.scene.image_size, [size])


def test_field_preview_is_valid_ppm(tmp_path, pushbroom_bundle):
    model = pushbroom_bundle.model
    camera = pushbroom_bundle.camera
    size = pushbroom_bundle.scene.image_size
    field = error_field(model, camera, size, cell_px=256.0)
    out = tmp_path / "field.ppm"
    write_field_preview(field, out)
    blob = out.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(tok) for tok in dims.split())
    assert (w, h) == (field.ncols, field.nrows)
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == w * h * 3

    # Nodata cells are pure black; the largest error cell is the ramp's red end.
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
    nodata_cells = ~field.valid_mask()
    if nodata_cells.any():
        assert np.all(arr[nodata_cells] == 0)
    top = np.unravel_index(
        np.argmax(np.where(field.valid_mask(), field.values, -np.inf)), field.values.shape
    )
    r, g, b = arr[top]
    assert r == 200 and g == 20 and b == 20

import re
import tracemalloc

import numpy as np
import pytest

from satpinhole import rpc
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
from satpinhole.errors import FormatError


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


def test_size_sweep_shrinks_error(pushbroom_bundle):
    model = pushbroom_bundle.model
    size = pushbroom_bundle.scene.image_size
    sweep = size_sweep(model, size, (size[0], size[0] // 2, size[0] // 4))
    rmses = [rep.rmse for _, rep in sweep]
    assert rmses[0] > rmses[1] > rmses[2]
    assert [s for s, _ in sweep] == [size[0], size[0] // 2, size[0] // 4]


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

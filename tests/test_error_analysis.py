import re

import numpy as np
import pytest

from satpinhole.equivalence import (
    EquivalenceReport,
    build_virtual_grid,
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


def test_error_field_rejects_bad_cell(pushbroom_bundle):
    with pytest.raises(ValueError):
        error_field(
            pushbroom_bundle.model,
            pushbroom_bundle.camera,
            pushbroom_bundle.scene.image_size,
            cell_px=0.0,
        )


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

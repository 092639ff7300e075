"""Tests for the polynomial refinement warp and the homography comparator."""

import numpy as np
import pytest

from satpinhole.equivalence import build_virtual_grid, measure_equivalence_error
from satpinhole.errors import DegenerateError, FormatError, IllConditionedError
from satpinhole.kvio import fmt
from satpinhole.raster import Raster
from satpinhole.refinement import (
    IDENTITY_COEFFS,
    Homography,
    PolynomialWarp,
    build_refinement,
    fit_homography,
    fit_polynomial,
    format_warp,
    load_warp,
    parse_warp,
    resample,
    save_warp,
)


def _scatter(rng, n, lo=0.0, hi=100.0):
    return rng.uniform(lo, hi, size=(n, 2))


# ---------------------------------------------------------------------------
# Polynomial fitting


def test_fit_polynomial_identity():
    rng = np.random.default_rng(0)
    src = _scatter(rng, 40)
    warp = fit_polynomial(src, src)
    np.testing.assert_allclose(warp.m, IDENTITY_COEFFS, atol=1e-10)
    assert warp.fit_rms_px < 1e-10


def test_fit_polynomial_translation():
    rng = np.random.default_rng(1)
    src = _scatter(rng, 40)
    dst = src + np.array([3.25, -7.5])
    warp = fit_polynomial(src, dst)
    expected = np.array(IDENTITY_COEFFS, dtype=float)
    expected[0] = 3.25
    expected[6] = -7.5
    np.testing.assert_allclose(warp.m, expected, atol=1e-9)


def test_fit_polynomial_recovers_quadratic():
    truth = PolynomialWarp(
        m=[2.0, 1.01, 0.02, 1e-4, 5e-5, -8e-5, -1.5, 0.015, 0.99, -2e-4, 4e-5, 6e-5]
    )
    rng = np.random.default_rng(2)
    src = _scatter(rng, 60, 0.0, 400.0)
    dx, dy = truth.apply(src[:, 0], src[:, 1])
    warp = fit_polynomial(src, np.column_stack([dx, dy]))
    np.testing.assert_allclose(warp.m, truth.m, rtol=1e-7, atol=1e-9)

    held = _scatter(rng, 25, 0.0, 400.0)
    tx, ty = truth.apply(held[:, 0], held[:, 1])
    fx, fy = warp.apply(held[:, 0], held[:, 1])
    np.testing.assert_allclose(fx, tx, atol=1e-7)
    np.testing.assert_allclose(fy, ty, atol=1e-7)
    assert warp.fit_rms_px < 1e-7


def test_fit_polynomial_far_from_origin():
    # Raw coordinates in the thousands stress the internal normalization;
    # the denormalized coefficients must still evaluate correctly.
    truth = PolynomialWarp(
        m=[10.0, 1.002, -0.01, 2e-6, 1e-6, -3e-6, -4.0, 0.008, 0.997, 1e-6, -2e-6, 2e-6]
    )
    rng = np.random.default_rng(3)
    src = _scatter(rng, 50, 5000.0, 6000.0)
    dx, dy = truth.apply(src[:, 0], src[:, 1])
    warp = fit_polynomial(src, np.column_stack([dx, dy]))
    held = _scatter(rng, 20, 5000.0, 6000.0)
    tx, ty = truth.apply(held[:, 0], held[:, 1])
    fx, fy = warp.apply(held[:, 0], held[:, 1])
    np.testing.assert_allclose(fx, tx, atol=1e-6)
    np.testing.assert_allclose(fy, ty, atol=1e-6)


def test_fit_polynomial_reports_residual():
    rng = np.random.default_rng(4)
    src = _scatter(rng, 80)
    noise = rng.normal(0.0, 0.3, size=src.shape)
    warp = fit_polynomial(src, src + noise)
    px, py = warp.apply(src[:, 0], src[:, 1])
    dst = src + noise
    rms = np.sqrt(np.mean((px - dst[:, 0]) ** 2 + (py - dst[:, 1]) ** 2))
    assert warp.fit_rms_px == pytest.approx(rms, rel=1e-12)
    assert warp.fit_rms_px > 0.05


def test_fit_polynomial_too_few_points():
    pts = np.zeros((5, 2))
    with pytest.raises(DegenerateError, match="at least 6"):
        fit_polynomial(pts, pts)


def test_fit_polynomial_conic_degeneracy():
    # Points on a circle satisfy 1 - x^2 - y^2 = 0, a linear relation among
    # the quadratic basis columns.
    t = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    src = np.column_stack([50 + 20 * np.cos(t), 50 + 20 * np.sin(t)])
    with pytest.raises(DegenerateError, match="conic"):
        fit_polynomial(src, src)


def test_fit_polynomial_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        fit_polynomial(np.zeros((8, 2)), np.zeros((7, 2)))
    with pytest.raises(ValueError, match="point array"):
        fit_polynomial(np.zeros((8, 3)), np.zeros((8, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["src", "dst"])
@pytest.mark.parametrize("fit", [fit_polynomial, fit_homography], ids=["polynomial", "homography"])
def test_fits_reject_non_finite_points(fit, side, value):
    rng = np.random.default_rng(2)
    pts = {"src": _scatter(rng, 12), "dst": _scatter(rng, 12)}
    pts[side][3, 1] = value
    with pytest.raises(ValueError, match=f"{side} points must be finite"):
        fit(pts["src"], pts["dst"])


# ---------------------------------------------------------------------------
# Homography fitting


def test_fit_homography_recovers_projective_map():
    truth = np.array(
        [
            [1.02, 0.03, -5.0],
            [-0.01, 0.98, 7.0],
            [1e-5, -2e-5, 1.0],
        ]
    )
    rng = np.random.default_rng(5)
    src = _scatter(rng, 30, 0.0, 500.0)
    hom = np.column_stack([src, np.ones(len(src))]) @ truth.T
    dst = hom[:, :2] / hom[:, 2:3]
    warp = fit_homography(src, dst)
    np.testing.assert_allclose(warp.h, truth, rtol=1e-8, atol=1e-10)
    assert warp.fit_rms_px < 1e-8

    held = _scatter(rng, 12, 0.0, 500.0)
    hh = np.column_stack([held, np.ones(len(held))]) @ truth.T
    fx, fy = warp.apply(held[:, 0], held[:, 1])
    np.testing.assert_allclose(fx, hh[:, 0] / hh[:, 2], atol=1e-8)
    np.testing.assert_allclose(fy, hh[:, 1] / hh[:, 2], atol=1e-8)


def test_fit_homography_exact_on_four_points():
    src = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]])
    dst = np.array([[2.0, 1.0], [103.0, -2.0], [98.0, 105.0], [-1.0, 99.0]])
    warp = fit_homography(src, dst)
    fx, fy = warp.apply(src[:, 0], src[:, 1])
    np.testing.assert_allclose(np.column_stack([fx, fy]), dst, atol=1e-9)
    assert warp.h[2, 2] == 1.0


def test_fit_homography_too_few_points():
    pts = np.zeros((3, 2))
    with pytest.raises(DegenerateError, match="at least 4"):
        fit_homography(pts, pts)


def test_fit_homography_collinear():
    x = np.linspace(0.0, 50.0, 10)
    src = np.column_stack([x, 2 * x + 1])
    with pytest.raises(IllConditionedError, match="unique"):
        fit_homography(src, src)


def _reference_homography(src, dst):
    """The normalized DLT with the row-major system and its full thin SVD."""

    def conditioner(pts):
        c = pts.mean(axis=0)
        s = np.sqrt(2.0) / np.sqrt(np.mean(np.sum((pts - c) ** 2, axis=1)))
        t = np.array([[s, 0, -s * c[0]], [0, s, -s * c[1]], [0, 0, 1]])
        return t, (pts - c) * s

    n = len(src)
    t1, sn = conditioner(src)
    t2, dn = conditioner(dst)
    a = np.zeros((max(2 * n, 9), 9))
    sh = np.column_stack([sn, np.ones(n)])
    a[0 : 2 * n : 2, 0:3] = sh
    a[0 : 2 * n : 2, 6:9] = -dn[:, 0][:, None] * sh
    a[1 : 2 * n : 2, 3:6] = sh
    a[1 : 2 * n : 2, 6:9] = -dn[:, 1][:, None] * sh
    vt = np.linalg.svd(a, full_matrices=False)[2]
    h = np.linalg.inv(t2) @ vt[-1].reshape(3, 3) @ t1
    return h / h[2, 2]


@pytest.mark.parametrize("n", [4, 5, 8, 9, 30])
def test_fit_homography_agrees_with_full_svd_reference(n):
    # Systems of 9 to 60 rows, all solved from the R factor, give the
    # reference homography.
    truth = np.array([[1.02, 0.03, -5.0], [-0.01, 0.98, 7.0], [1e-5, -2e-5, 1.0]])
    rng = np.random.default_rng(n)
    src = _scatter(rng, n, 0.0, 500.0)
    hom = np.column_stack([src, np.ones(n)]) @ truth.T
    dst = hom[:, :2] / hom[:, 2:3] + rng.normal(0.0, 0.5, (n, 2))
    warp = fit_homography(src, dst)
    np.testing.assert_allclose(warp.h, _reference_homography(src, dst), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Refinement on a rational model


def test_refinement_reduces_pushbroom_error(pushbroom_bundle):
    model = pushbroom_bundle.model
    camera = pushbroom_bundle.camera
    size = pushbroom_bundle.scene.image_size
    fit_grid = build_virtual_grid(model, size, dims=(20, 20, 10))
    val_grid = build_virtual_grid(model, size, dims=(13, 13, 7), stagger=True)

    before = measure_equivalence_error(model, camera, val_grid)
    poly = build_refinement(model, camera, fit_grid, kind="polynomial")
    homo = build_refinement(model, camera, fit_grid, kind="homography")
    after_poly = measure_equivalence_error(model, camera, val_grid, warp=poly)
    after_homo = measure_equivalence_error(model, camera, val_grid, warp=homo)

    assert after_poly.rmse < before.rmse
    assert after_poly.rmse <= after_homo.rmse + 1e-9


def test_build_refinement_unknown_kind(pushbroom_bundle):
    grid = build_virtual_grid(
        pushbroom_bundle.model, pushbroom_bundle.scene.image_size, dims=(5, 5, 3)
    )
    with pytest.raises(ValueError, match="unknown refinement kind"):
        build_refinement(pushbroom_bundle.model, pushbroom_bundle.camera, grid, kind="spline")


# ---------------------------------------------------------------------------
# Resampling


def _ramp_image(w=48, h=40):
    ys, xs = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    return Raster(values=2.0 * xs + 3.0 * ys + 5.0, cell_size=1.0, origin=(0.0, 0.0))


def test_resample_identity_is_exact():
    image = _ramp_image()
    image.values[10, 12] = image.nodata
    out = resample(image, PolynomialWarp(m=IDENTITY_COEFFS))
    np.testing.assert_array_equal(out.values, image.values)


def test_resample_integer_translation():
    image = _ramp_image()
    m = np.array(IDENTITY_COEFFS, dtype=float)
    m[0] = 3.0
    m[6] = 2.0
    out = resample(image, PolynomialWarp(m=m))
    h, w = image.values.shape
    np.testing.assert_array_equal(out.values[: h - 2, : w - 3], image.values[2:, 3:])
    assert (out.values[h - 2 :, :] == image.nodata).all()
    assert (out.values[:, w - 3 :] == image.nodata).all()


def test_resample_is_exact_on_affine_images():
    # Bilinear interpolation reproduces any affine function of (x, y), so a
    # smooth warp of a ramp image equals the ramp evaluated at the mapped
    # position wherever the stencil stays inside.
    image = _ramp_image(64, 64)
    m = np.array(IDENTITY_COEFFS, dtype=float)
    m[0], m[3], m[4] = 0.7, 1e-4, 2e-4
    m[6], m[10] = -0.4, 1.5e-4
    warp = PolynomialWarp(m=m)
    out = resample(image, warp)

    h, w = image.values.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    mx, my = warp.apply(xs, ys)
    interior = (mx >= 0) & (mx <= w - 1) & (my >= 0) & (my <= h - 1)
    assert interior.sum() > 0.8 * image.values.size
    expected = 2.0 * mx + 3.0 * my + 5.0
    np.testing.assert_allclose(out.values[interior], expected[interior], atol=1e-9)


def test_resample_nodata_spreads_to_touching_stencils():
    image = _ramp_image()
    image.values[20, 20] = image.nodata
    m = np.array(IDENTITY_COEFFS, dtype=float)
    m[0] = 0.5
    m[6] = 0.5
    out = resample(image, PolynomialWarp(m=m))
    # Every output pixel whose 2x2 stencil includes (20, 20) is nodata.
    assert out.values[19, 19] == image.nodata
    assert out.values[19, 20] == image.nodata
    assert out.values[20, 19] == image.nodata
    assert out.values[20, 20] == image.nodata
    assert out.values[18, 18] != image.nodata
    assert out.values[21, 21] != image.nodata


@pytest.mark.parametrize("missing", [np.nan, np.inf, -np.inf])
def test_resample_treats_non_finite_pixels_as_nodata(missing):
    image = Raster(values=np.arange(16.0).reshape(4, 4))
    image.values[1, 1] = missing
    # An identity warp lands exactly on each pixel: only the pixel itself
    # carries weight, so its neighbors come through unchanged.
    out = resample(image, PolynomialWarp(m=IDENTITY_COEFFS))
    expected = np.arange(16.0).reshape(4, 4)
    expected[1, 1] = image.nodata
    np.testing.assert_array_equal(out.values, expected)
    # Half a pixel off, every stencil that gives (1, 1) weight is nodata.
    m = np.array(IDENTITY_COEFFS, dtype=float)
    m[0] = m[6] = 0.5
    out = resample(image, PolynomialWarp(m=m))
    touching = np.zeros((4, 4), dtype=bool)
    touching[0:2, 0:2] = True
    assert (out.values[touching] == image.nodata).all()
    assert np.isfinite(out.values).all()
    assert (out.values[~touching] != image.nodata).all()


def test_resample_preserves_georeferencing():
    image = Raster(values=np.ones((6, 5)), cell_size=2.5, origin=(10.0, 20.0))
    out = resample(image, PolynomialWarp(m=IDENTITY_COEFFS))
    assert out.cell_size == image.cell_size
    assert out.origin == image.origin
    assert out.nodata == image.nodata


# ---------------------------------------------------------------------------
# Serialization


def test_warp_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(6)
    src = _scatter(rng, 30)
    dst = src + rng.normal(0.0, 0.4, size=src.shape)
    warp = fit_polynomial(src, dst)
    path = tmp_path / "poly.txt"
    save_warp(warp, path)
    text = path.read_text()
    again = parse_warp(text)
    assert format_warp(again) == text
    ax, ay = again.apply(src[:, 0], src[:, 1])
    bx, by = warp.apply(src[:, 0], src[:, 1])
    np.testing.assert_array_equal(ax, bx)
    np.testing.assert_array_equal(ay, by)
    assert again.fit_rms_px == warp.fit_rms_px


def test_homography_is_not_a_warp_file():
    # The homography is a library comparator; warp files hold the polynomial
    # warp only.
    with pytest.raises(TypeError, match="Homography"):
        format_warp(Homography(h=np.eye(3), fit_rms_px=0.5))
    with pytest.raises(FormatError, match="unknown warp kind: 'homography'") as info:
        parse_warp("KIND: homography\nH: 1 0 0 0 1 0 0 0 1\nFIT_RMS_PX: 0.5\n")
    assert info.value.category == "parse"


def test_load_warp_matches_parse(tmp_path):
    warp = PolynomialWarp(m=np.arange(12, dtype=float), fit_rms_px=0.5)
    path = tmp_path / "w.txt"
    save_warp(warp, path)
    loaded = load_warp(path)
    np.testing.assert_array_equal(loaded.m, warp.m)


def test_parse_warp_ignores_old_normalization_keys():
    m = np.linspace(-1.5, 2.5, 12)
    old = (
        "KIND: polynomial\n"
        "M: " + " ".join(fmt(v) for v in m) + "\n"
        "FIT_RMS_PX: 0.125\n"
        "NORM_CENTER: 256 256\n"
        "NORM_SCALE: 255.5 255.5\n"
    )
    warp = parse_warp(old)
    np.testing.assert_array_equal(warp.m, m)
    assert warp.fit_rms_px == 0.125
    assert "NORM_" not in format_warp(warp)


def test_parse_warp_unknown_kind():
    with pytest.raises(FormatError, match="unknown warp kind"):
        parse_warp("KIND: thinplate\n")


def test_parse_warp_wrong_coefficient_count():
    text = "KIND: polynomial\nM: 1 2 3\nFIT_RMS_PX: 0\nNORM_CENTER: 0 0\nNORM_SCALE: 1 1\n"
    with pytest.raises(FormatError, match="M"):
        parse_warp(text)


def test_parse_warp_missing_field():
    text = "KIND: polynomial\nM: 0 1 0 0 0 0 0 0 1 0 0 0\n"
    with pytest.raises(FormatError, match="FIT_RMS_PX"):
        parse_warp(text)


@pytest.mark.parametrize(
    "key, text",
    [
        ("M", "M: nan 1 0 0 0 0 0 0 1 0 0 0\nFIT_RMS_PX: 0\n"),
        ("FIT_RMS_PX", "M: 0 1 0 0 0 0 0 0 1 0 0 0\nFIT_RMS_PX: inf\n"),
        ("M", "M: 0 1 0 0 0 0 0 -inf 1 0 0 0\nFIT_RMS_PX: 0\n"),
        ("FIT_RMS_PX", "M: 0 1 0 0 0 0 0 0 1 0 0 0\nFIT_RMS_PX: nan\n"),
    ],
    ids=["poly-M-nan", "poly-rms-inf", "poly-M-neg-inf", "poly-rms-nan"],
)
def test_parse_warp_non_finite_value_names_key(key, text):
    with pytest.raises(FormatError, match=f"^{key}: values must be finite"):
        parse_warp("KIND: polynomial\n" + text)


def test_parse_warp_malformed_line():
    with pytest.raises(FormatError):
        parse_warp("KIND polynomial no colon here\n")


def test_format_warp_rejects_foreign_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        format_warp(object())

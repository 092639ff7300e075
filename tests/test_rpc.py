import numpy as np
import pytest

from satpinhole import rpc
from satpinhole.geodesy import geodetic_to_enu
from satpinhole.rpc import (
    CUBIC_POWERS,
    ConvergenceError,
    ExtrapolationWarning,
    RpcModel,
    RpcParseError,
    SingularEvaluationError,
    cubic_basis,
    format_rpc,
    parse_rpc,
    project_forward,
    project_inverse,
)


def eval_cubic(c: np.ndarray, lat, lon, alt):
    """Reference: a 20-term cubic expanded by hand, term by term in sidecar order."""
    return (
        c[0]
        + c[1] * lon
        + c[2] * lat
        + c[3] * alt
        + c[4] * lon * lat
        + c[5] * lon * alt
        + c[6] * lat * alt
        + c[7] * lon * lon
        + c[8] * lat * lat
        + c[9] * alt * alt
        + c[10] * lat * lon * alt
        + c[11] * lon**3
        + c[12] * lon * lat * lat
        + c[13] * lon * alt * alt
        + c[14] * lon * lon * lat
        + c[15] * lat**3
        + c[16] * lat * alt * alt
        + c[17] * lon * lon * alt
        + c[18] * lat * lat * alt
        + c[19] * alt**3
    )


def _coeffs(**terms):
    """Build a 20-vector from {index: value} keyword-free mapping."""
    c = np.zeros(20)
    for idx, val in terms.items():
        c[int(idx[1:])] = val
    return c


def _affine_model():
    # samp = 10 + 3 * Ln, line = 20 + 4 * Pn - 2 * Hn in normalized terms.
    return RpcModel(
        line_off=20.0,
        samp_off=10.0,
        lat_off=30.0,
        lon_off=50.0,
        alt_off=100.0,
        line_scale=1.0,
        samp_scale=1.0,
        lat_scale=0.1,
        lon_scale=0.1,
        alt_scale=200.0,
        line_num=_coeffs(i2=4.0, i3=-2.0),
        line_den=_coeffs(i0=1.0),
        samp_num=_coeffs(i1=3.0),
        samp_den=_coeffs(i0=1.0),
    )


def test_cubic_term_order_spot_values():
    # One-hot coefficient vectors must pick out the documented monomials.
    lat, lon, alt = 0.3, -0.7, 0.5
    basis = cubic_basis(lat, lon, alt)[0]
    assert basis[0] == 1.0
    assert basis[1] == lon
    assert basis[2] == lat
    assert basis[3] == alt
    assert basis[4] == lon * lat
    assert basis[10] == lat * lon * alt
    assert basis[11] == lon**3
    assert basis[18] == pytest.approx(lat * lat * alt)
    assert basis[19] == alt**3


def test_eval_cubic_matches_basis_matrix():
    rng = np.random.default_rng(11)
    c = rng.normal(size=20)
    lat = rng.uniform(-1, 1, 100)
    lon = rng.uniform(-1, 1, 100)
    alt = rng.uniform(-1, 1, 100)
    direct = eval_cubic(c, lat, lon, alt)
    via_basis = cubic_basis(lat, lon, alt) @ c
    np.testing.assert_allclose(direct, via_basis, rtol=1e-13, atol=1e-13)


def test_cubic_powers_table_shape():
    assert len(CUBIC_POWERS) == 20
    assert all(sum(p) <= 3 for p in CUBIC_POWERS)
    assert len(set(CUBIC_POWERS)) == 20
    # The basis columns are the monomials the table names.
    rng = np.random.default_rng(12)
    lat, lon, alt = rng.uniform(-1.5, 1.5, (3, 50))
    table = np.column_stack([lat**i * lon**j * alt**k for i, j, k in CUBIC_POWERS])
    np.testing.assert_allclose(cubic_basis(lat, lon, alt), table, rtol=1e-15, atol=0)


def _unit_model(rng, samp_den=None, line_den=None):
    """A random model whose normalized and physical coordinates coincide.

    Denominator terms stay small, so denominators lie in [0.6, 1.4] on the
    unit cube unless one is given.
    """
    def den():
        return np.concatenate([[1.0], rng.uniform(-0.02, 0.02, 19)])

    return RpcModel(
        line_off=0.0,
        samp_off=0.0,
        lat_off=0.0,
        lon_off=0.0,
        alt_off=0.0,
        line_scale=1.0,
        samp_scale=1.0,
        lat_scale=1.0,
        lon_scale=1.0,
        alt_scale=1.0,
        line_num=rng.normal(size=20),
        line_den=den() if line_den is None else line_den,
        samp_num=rng.normal(size=20),
        samp_den=den() if samp_den is None else samp_den,
    )


def _reference_ratio(model, lat, lon, alt):
    return (
        eval_cubic(model.samp_num, lat, lon, alt) / eval_cubic(model.samp_den, lat, lon, alt),
        eval_cubic(model.line_num, lat, lon, alt) / eval_cubic(model.line_den, lat, lon, alt),
    )


BLOCK_SIZES = (1, rpc._BLOCK - 1, rpc._BLOCK, rpc._BLOCK + 1, 3 * rpc._BLOCK + 7)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_forward_matches_reference_ratio_across_blocks(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        model = _unit_model(rng)
        lat, lon, alt = rng.uniform(-1, 1, (3, n))
        samp, line = project_forward(model, lat, lon, alt)
        ref_samp, ref_line = _reference_ratio(model, lat, lon, alt)
        assert samp.shape == line.shape == (n,)
        np.testing.assert_allclose(samp, ref_samp, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(line, ref_line, rtol=1e-13, atol=1e-13)


def test_forward_keeps_input_shape():
    rng = np.random.default_rng(3)
    model = _unit_model(rng)
    lat, lon, alt = rng.uniform(-1, 1, (3, 4, 5))
    cases = [
        ((0.3, -0.2, 0.5), ()),
        ((np.array(0.3), np.array(-0.2), np.array(0.5)), ()),
        ((lat, lon, alt), (4, 5)),
        ((lat[:, :1], lon[:1, :], 0.5), (4, 5)),
    ]
    for (la, lo, al), shape in cases:
        samp, line = project_forward(model, la, lo, al)
        assert np.shape(samp) == np.shape(line) == shape
        ref_samp, ref_line = _reference_ratio(model, *np.broadcast_arrays(la, lo, al))
        np.testing.assert_allclose(samp, ref_samp, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(line, ref_line, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("axis", ["samp", "line"])
def test_singular_denominator_in_last_block_raises(axis):
    # Denominator 1 + alt vanishes at alt = -1, set only at the very last point.
    rng = np.random.default_rng(8)
    vanishing = _coeffs(i0=1.0, i3=1.0)
    model = _unit_model(rng, **{f"{axis}_den": vanishing})
    n = 3 * rpc._BLOCK + 7
    lat, lon = rng.uniform(-1, 1, (2, n))
    alt = rng.uniform(0.0, 0.5, n)
    project_forward(model, lat, lon, alt)
    alt[-1] = -1.0
    with pytest.raises(SingularEvaluationError):
        project_forward(model, lat, lon, alt)


def test_nan_input_stays_at_its_index():
    rng = np.random.default_rng(21)
    model = _unit_model(rng)
    n = 2 * rpc._BLOCK + 3
    lat, lon, alt = rng.uniform(-1, 1, (3, n))
    ref_samp, ref_line = _reference_ratio(model, lat, lon, alt)
    for k, coord in ((0, lat), (rpc._BLOCK + 5, lon), (n - 1, alt)):
        saved = coord[k]
        coord[k] = np.nan
        samp, line = project_forward(model, lat, lon, alt)
        coord[k] = saved
        expect_nan = np.arange(n) == k
        np.testing.assert_array_equal(np.isnan(samp), expect_nan)
        np.testing.assert_array_equal(np.isnan(line), expect_nan)
        np.testing.assert_allclose(samp[~expect_nan], ref_samp[~expect_nan], rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(line[~expect_nan], ref_line[~expect_nan], rtol=1e-13, atol=1e-13)


def test_affine_model_hand_values():
    model = _affine_model()
    samp, line = project_forward(model, 30.05, 50.02, 200.0)
    assert samp == pytest.approx(10.6, abs=1e-12)
    assert line == pytest.approx(21.0, abs=1e-12)


def test_perspective_model_hand_value():
    model = RpcModel(
        line_off=0.0,
        samp_off=0.0,
        lat_off=0.0,
        lon_off=0.0,
        alt_off=0.0,
        line_scale=1.0,
        samp_scale=1.0,
        lat_scale=1.0,
        lon_scale=1.0,
        alt_scale=1.0,
        line_num=_coeffs(i2=1.0),
        line_den=_coeffs(i0=1.0),
        samp_num=_coeffs(i1=1.0),
        samp_den=_coeffs(i0=1.0, i3=0.5),
    )
    samp, line = project_forward(model, 0.0, 0.4, 1.0)
    assert samp == pytest.approx(0.4 / 1.5, abs=1e-15)
    assert line == pytest.approx(0.0, abs=1e-15)


def test_singular_denominator_raises():
    model = RpcModel(
        line_off=0.0,
        samp_off=0.0,
        lat_off=0.0,
        lon_off=0.0,
        alt_off=0.0,
        line_scale=1.0,
        samp_scale=1.0,
        lat_scale=1.0,
        lon_scale=1.0,
        alt_scale=1.0,
        line_num=_coeffs(i2=1.0),
        line_den=_coeffs(i0=1.0),
        samp_num=_coeffs(i1=1.0),
        samp_den=_coeffs(i0=1.0, i3=1.0),
    )
    with pytest.raises(SingularEvaluationError):
        project_forward(model, 0.0, 0.2, -1.0)


def test_extrapolation_warning():
    model = _affine_model()
    with pytest.warns(ExtrapolationWarning):
        project_forward(model, 30.0, 50.0, 100.0 + 2.0 * 200.0)
    # In-volume evaluation stays silent.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        project_forward(model, 30.05, 50.02, 200.0)


def test_scale_validation_names_key():
    with pytest.raises(RpcParseError, match="LAT_SCALE"):
        RpcModel(
            line_off=0.0,
            samp_off=0.0,
            lat_off=0.0,
            lon_off=0.0,
            alt_off=0.0,
            line_scale=1.0,
            samp_scale=1.0,
            lat_scale=0.0,
            lon_scale=1.0,
            alt_scale=1.0,
            line_num=np.zeros(20),
            line_den=_coeffs(i0=1.0),
            samp_num=np.zeros(20),
            samp_den=_coeffs(i0=1.0),
        )


def test_denominator_leading_one_enforced():
    with pytest.raises(RpcParseError, match="SAMP_DEN_COEFF_1"):
        RpcModel(
            line_off=0.0,
            samp_off=0.0,
            lat_off=0.0,
            lon_off=0.0,
            alt_off=0.0,
            line_scale=1.0,
            samp_scale=1.0,
            lat_scale=1.0,
            lon_scale=1.0,
            alt_scale=1.0,
            line_num=np.zeros(20),
            line_den=_coeffs(i0=1.0),
            samp_num=np.zeros(20),
            samp_den=_coeffs(i0=0.5),
        )


def test_format_parse_round_trip_is_byte_identical(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model)
    again = format_rpc(parse_rpc(text))
    assert text == again


def test_parse_missing_normalizer_names_key(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model)
    broken = "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("HEIGHT_SCALE")
    )
    with pytest.raises(RpcParseError, match="HEIGHT_SCALE"):
        parse_rpc(broken)


def test_parse_missing_coefficient_names_key(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model)
    broken = "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("SAMP_NUM_COEFF_17:")
    )
    with pytest.raises(RpcParseError, match="SAMP_NUM_COEFF_17"):
        parse_rpc(broken)


def test_parse_non_numeric_names_key(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model).replace(
        "LINE_OFF: ", "LINE_OFF: abc ", 1
    )
    with pytest.raises(RpcParseError, match="LINE_OFF"):
        parse_rpc(text)


def test_parse_line_without_colon():
    with pytest.raises(RpcParseError):
        parse_rpc("LINE_OFF 5\n")


def test_parse_tolerates_unknown_keys(pushbroom_bundle):
    text = "VENDOR: someone\n" + format_rpc(pushbroom_bundle.model)
    model = parse_rpc(text)
    assert model.samp_off == pushbroom_bundle.model.samp_off


def test_shift_moves_pixel_origin(pushbroom_bundle):
    model = pushbroom_bundle.model
    shifted = model.shifted(128.0, 256.0)
    vol = pushbroom_bundle.scene.volume
    lat = np.array([vol.lat_min * 0.3 + vol.lat_max * 0.7])
    lon = np.array([vol.lon_min * 0.6 + vol.lon_max * 0.4])
    alt = np.array([12.5])
    s0, l0 = project_forward(model, lat, lon, alt)
    s1, l1 = project_forward(shifted, lat, lon, alt)
    np.testing.assert_allclose(s0 - s1, 128.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(l0 - l1, 256.0, rtol=0, atol=1e-9)


def test_inverse_round_trip(pushbroom_bundle):
    model = pushbroom_bundle.model
    vol = pushbroom_bundle.scene.volume
    rng = np.random.default_rng(4)
    lat = rng.uniform(vol.lat_min, vol.lat_max, 200)
    lon = rng.uniform(vol.lon_min, vol.lon_max, 200)
    alt = rng.uniform(vol.alt_min, vol.alt_max, 200)
    samp, line = project_forward(model, lat, lon, alt)
    lat2, lon2 = project_inverse(model, samp, line, alt)
    np.testing.assert_allclose(lat2, lat, rtol=0, atol=1e-10)
    np.testing.assert_allclose(lon2, lon, rtol=0, atol=1e-10)
    samp2, line2 = project_forward(model, lat2, lon2, alt)
    assert np.max(np.hypot(samp2 - samp, line2 - line)) < 1e-8


def test_inverse_against_generator_geometry(pushbroom_bundle):
    # The scanner's own plane intersection is an independent inverse oracle.
    scene = pushbroom_bundle.scene
    model = pushbroom_bundle.model
    cam = scene.camera
    rng = np.random.default_rng(9)
    lat = rng.uniform(scene.volume.lat_min, scene.volume.lat_max, 50)
    lon = rng.uniform(scene.volume.lon_min, scene.volume.lon_max, 50)
    alt = rng.uniform(scene.volume.alt_min, scene.volume.alt_max, 50)
    e, n, u = geodetic_to_enu(lat, lon, alt, scene.anchor)
    samp, line = cam.project(np.column_stack([e, n, u]))
    lat2, lon2 = project_inverse(model, samp, line, alt)
    assert np.max(np.abs(lat2 - lat)) < 1e-9
    assert np.max(np.abs(lon2 - lon)) < 1e-9


def test_inverse_iteration_cap_raises(pushbroom_bundle):
    model = pushbroom_bundle.model
    with pytest.raises(ConvergenceError, match="px"):
        project_inverse(model, 0.0, 0.0, 0.0, max_iter=1, tol_px=1e-12)


def test_inverse_rejects_out_of_volume_altitude(pushbroom_bundle):
    model = pushbroom_bundle.model
    bad_alt = model.alt_off + 2.0 * model.alt_scale
    with pytest.raises(ValueError, match="altitude"):
        project_inverse(model, 512.0, 512.0, bad_alt)

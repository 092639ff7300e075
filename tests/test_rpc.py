import numpy as np
import pytest

from satpinhole import rpc
from satpinhole.errors import ConvergenceError, DegenerateError, FormatError
from satpinhole.geodesy import geodetic_to_enu
from satpinhole.rpc import (
    CUBIC_POWERS,
    ExtrapolationWarning,
    RpcModel,
    cubic_basis,
    format_rpc,
    parse_rpc,
    project_forward,
    project_inverse,
)
from satpinhole.synth import fit_scene_rpc, make_pushbroom_scene


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


def test_derivative_table_rows_are_exact():
    # Term P^a L^b H^c goes to a * P^(a-1) L^b H^c along lat and to
    # b * P^a L^(b-1) H^c along lon; a term without that variable goes to 0.
    assert rpc._DERIVATIVES.shape == (2, 20, 20)
    assert rpc._DERIVATIVES[0][15].tolist() == [3.0 if k == 8 else 0.0 for k in range(20)]  # P3 -> 3 P2
    assert not rpc._DERIVATIVES[1][0].any()  # the constant
    for axis in (0, 1):
        for k, powers in enumerate(CUBIC_POWERS):
            expected = np.zeros(20)
            if powers[axis]:
                lower = list(powers)
                lower[axis] -= 1
                expected[CUBIC_POWERS.index(tuple(lower))] = powers[axis]
            assert rpc._DERIVATIVES[axis][k].tolist() == expected.tolist(), (axis, k)
    # A coefficient row maps to its derivative row bit for bit.
    c = np.random.default_rng(13).normal(size=20)
    assert (c @ rpc._DERIVATIVES[0])[8] == 3.0 * c[15]
    assert (c @ rpc._DERIVATIVES[1])[4] == 2.0 * c[14]  # L2P -> 2 LP


def test_derivative_cubics_agree_with_central_differences():
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(4, 20))
    p, l, h = rng.uniform(-1.5, 1.5, (3, 1000))

    def values(rows, p, l):
        return np.concatenate([v for _, v in rpc._evaluate(rows, p, l, h)], axis=1)

    eps = 1e-5
    for axis, derivative in enumerate(values(rows @ rpc._DERIVATIVES[a], p, l) for a in (0, 1)):
        step = np.array([eps, 0.0] if axis == 0 else [0.0, eps])
        ahead = values(rows, p + step[0], l + step[1])
        behind = values(rows, p - step[0], l - step[1])
        # The differences' truncation error is eps^2 / 6 times a third
        # derivative, their rounding about 1e-16 / eps of the values.
        np.testing.assert_allclose((ahead - behind) / (2 * eps), derivative, rtol=1e-8, atol=1e-8)


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
    with pytest.raises(DegenerateError):
        project_forward(model, lat, lon, alt)


@pytest.mark.parametrize("axis", ["samp", "line"])
def test_denominator_past_its_pole_raises(axis):
    # Denominator 1 + 2 alt is 1 at the volume centre and vanishes at
    # alt = -0.5. At alt = -0.75 it is -0.5, far from zero in magnitude, but
    # the pole lies between that point and the centre.
    rng = np.random.default_rng(9)
    model = _unit_model(rng, **{f"{axis}_den": _coeffs(i0=1.0, i3=2.0)})
    lat, lon = rng.uniform(-1, 1, (2, 3))
    project_forward(model, lat, lon, np.array([0.0, -0.25, -0.45]))
    with pytest.raises(DegenerateError, match="must stay positive"):
        project_forward(model, lat, lon, np.array([0.0, -0.25, -0.75]))


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
    with pytest.raises(DegenerateError):
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
    with pytest.raises(FormatError, match="LAT_SCALE"):
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
    with pytest.raises(FormatError, match="SAMP_DEN_COEFF_1"):
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


def test_format_rpc_text():
    coeffs = {"LINE_NUM_COEFF_3": "4", "LINE_NUM_COEFF_4": "-2", "LINE_DEN_COEFF_1": "1",
              "SAMP_NUM_COEFF_2": "3", "SAMP_DEN_COEFF_1": "1"}
    assert format_rpc(_affine_model()) == "".join(
        f"{line}\n"
        for line in [
            "LINE_OFF: 20 pixels",
            "SAMP_OFF: 10 pixels",
            "LAT_OFF: 30 degrees",
            "LONG_OFF: 50 degrees",
            "HEIGHT_OFF: 100 meters",
            "LINE_SCALE: 1 pixels",
            "SAMP_SCALE: 1 pixels",
            "LAT_SCALE: 0.10000000000000001 degrees",
            "LONG_SCALE: 0.10000000000000001 degrees",
            "HEIGHT_SCALE: 200 meters",
            *(
                f"{prefix}_{i}: {coeffs.get(f'{prefix}_{i}', '0')}"
                for prefix in ("LINE_NUM_COEFF", "LINE_DEN_COEFF", "SAMP_NUM_COEFF", "SAMP_DEN_COEFF")
                for i in range(1, 21)
            ),
        ]
    )


def test_parse_missing_normalizer_names_key(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model)
    broken = "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("HEIGHT_SCALE")
    )
    with pytest.raises(FormatError, match="HEIGHT_SCALE"):
        parse_rpc(broken)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [key for _, key, _ in rpc._NORMALIZER_FIELDS])
def test_parse_non_finite_normalizer_names_key(pushbroom_bundle, key, value):
    # A non-finite offset or scale would only surface later, as NaN pixels
    # and a degenerate grid.
    text = format_rpc(pushbroom_bundle.model)
    lines = [f"{key}: {value}" if ln.startswith(f"{key}:") else ln for ln in text.splitlines()]
    with pytest.raises(FormatError, match=key):
        parse_rpc("\n".join(lines))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["LINE_NUM_COEFF_3", "LINE_DEN_COEFF_20", "SAMP_NUM_COEFF_1", "SAMP_DEN_COEFF_2"])
def test_parse_non_finite_coefficient_names_key(pushbroom_bundle, key, value):
    # A non-finite coefficient would only surface later, as NaN pixels and a
    # degenerate grid.
    text = format_rpc(pushbroom_bundle.model)
    lines = [f"{key}: {value}" if ln.startswith(f"{key}:") else ln for ln in text.splitlines()]
    with pytest.raises(FormatError, match=f"^{key}: coefficient must be finite"):
        parse_rpc("\n".join(lines))


def test_parse_missing_coefficient_names_key(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model)
    broken = "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("SAMP_NUM_COEFF_17:")
    )
    with pytest.raises(FormatError, match="SAMP_NUM_COEFF_17"):
        parse_rpc(broken)


def test_parse_non_numeric_names_key(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model).replace(
        "LINE_OFF: ", "LINE_OFF: abc ", 1
    )
    with pytest.raises(FormatError, match="LINE_OFF"):
        parse_rpc(text)


def test_parse_normalizers_without_unit_words(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model)
    bare = text
    for _, _, unit in rpc._NORMALIZER_FIELDS:
        bare = bare.replace(f" {unit}\n", "\n")
    assert bare != text
    assert format_rpc(parse_rpc(bare)) == text


@pytest.mark.parametrize("tail", ["{other}", "{unit} junk", "{unit} 7", "7"])
@pytest.mark.parametrize("key, unit", [(key, unit) for _, key, unit in rpc._NORMALIZER_FIELDS])
def test_parse_normalizer_with_a_foreign_token_names_key(pushbroom_bundle, key, unit, tail):
    # Only a normalizer's own unit word may follow its value.
    tail = tail.format(unit=unit, other="meters" if unit != "meters" else "pixels")
    text = format_rpc(pushbroom_bundle.model)
    lines = [
        " ".join(ln.split()[:2] + [tail]) if ln.startswith(f"{key}:") else ln
        for ln in text.splitlines()
    ]
    with pytest.raises(FormatError, match=f"^{key}:"):
        parse_rpc("\n".join(lines))


def test_parse_coefficient_with_an_extra_token_names_key(pushbroom_bundle):
    text = format_rpc(pushbroom_bundle.model)
    lines = [ln + " pixels" if ln.startswith("LINE_NUM_COEFF_2:") else ln for ln in text.splitlines()]
    with pytest.raises(FormatError, match="^LINE_NUM_COEFF_2:"):
        parse_rpc("\n".join(lines))


def test_parse_line_without_colon():
    with pytest.raises(FormatError):
        parse_rpc("LINE_OFF 5\n")


def test_parse_tolerates_unknown_keys(pushbroom_bundle):
    text = "VENDOR: someone\n" + format_rpc(pushbroom_bundle.model)
    model = parse_rpc(text)
    assert model.samp_off == pushbroom_bundle.model.samp_off


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


def test_inverse_iteration_cap_raises(pushbroom_bundle, monkeypatch):
    monkeypatch.setattr(rpc, "_INVERSE_ITERATIONS", 1)
    monkeypatch.setattr(rpc, "_INVERSE_TOL_PX", 1e-12)
    model = pushbroom_bundle.model
    with pytest.raises(ConvergenceError, match="px"):
        project_inverse(model, 0.0, 0.0, 0.0)


def _overshoot_model() -> RpcModel:
    """Normalized samp = p + 2 p^3 and line = l, both denominators 1.

    Newton's first step from the volume centre solves the linear part alone
    and lands far past a target at |p| near 1, so the step must be halved.
    """
    coeffs = {name: np.zeros(20) for name in ("line_num", "line_den", "samp_num", "samp_den")}
    coeffs["line_den"][0] = coeffs["samp_den"][0] = 1.0
    coeffs["samp_num"][2], coeffs["samp_num"][15] = 1.0, 2.0  # P and P3
    coeffs["line_num"][1] = 1.0  # L
    return RpcModel(
        line_off=0.0, samp_off=0.0, lat_off=0.0, lon_off=0.0, alt_off=0.0,
        line_scale=1000.0, samp_scale=1000.0, lat_scale=0.1, lon_scale=0.1, alt_scale=1.0,
        **coeffs,
    )


def _count_evaluations(monkeypatch) -> list[int]:
    """Count the model evaluations that project_inverse makes."""
    calls = [0]
    evaluate = rpc._evaluate

    def counting(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(rpc, "_evaluate", counting)
    return calls


def test_inverse_halves_an_overshooting_step(monkeypatch):
    model = _overshoot_model()
    p, l = np.array([0.9, -0.5, 0.0]), np.array([0.0, 0.3, 0.0])
    calls = _count_evaluations(monkeypatch)
    lat, lon = project_inverse(model, (p + 2 * p**3) * 1000.0, l * 1000.0, 0.0)
    assert np.max(np.abs(lat - 0.1 * p)) <= 1e-12
    assert np.max(np.abs(lon - 0.1 * l)) <= 1e-12
    # Six Newton iterations, one of them halved: the start, then the trials
    # (the last one accepted) of each, which bring their Jacobians along.
    assert calls[0] == 8


def test_inverse_evaluates_the_model_once_per_trial(monkeypatch):
    model, _ = fit_scene_rpc(make_pushbroom_scene(1, (2048, 2048)))
    g = np.random.default_rng(5).uniform(-1.0, 1.0, (10_000, 3))
    lat = model.lat_off + g[:, 0] * model.lat_scale
    lon = model.lon_off + g[:, 1] * model.lon_scale
    alt = model.alt_off + g[:, 2] * model.alt_scale
    samp, line = project_forward(model, lat, lon, alt)
    calls = _count_evaluations(monkeypatch)
    lat2, lon2 = project_inverse(model, samp, line, alt)
    # Three iterations, none halved: 1 + 3 evaluations.
    assert calls[0] == 4
    assert np.max(np.abs(lat2 - lat)) < 1e-10
    assert np.max(np.abs(lon2 - lon)) < 1e-10


def test_inverse_takes_a_norm_only_of_its_start_and_trials(monkeypatch):
    # One norm per evaluation of the model: three iterations, none halved,
    # take 1 + 3 norms.
    model, _ = fit_scene_rpc(make_pushbroom_scene(1, (2048, 2048)))
    g = np.random.default_rng(5).uniform(-1.0, 1.0, (10_000, 3))
    lat = model.lat_off + g[:, 0] * model.lat_scale
    lon = model.lon_off + g[:, 1] * model.lon_scale
    alt = model.alt_off + g[:, 2] * model.alt_scale
    samp, line = project_forward(model, lat, lon, alt)
    calls = [0]
    hypot = np.hypot

    def counting(*args, **kwargs):
        calls[0] += 1
        return hypot(*args, **kwargs)

    monkeypatch.setattr(np, "hypot", counting)
    lat2, lon2 = project_inverse(model, samp, line, alt)
    monkeypatch.undo()
    assert calls[0] == 4
    assert np.max(np.abs(lat2 - lat)) < 1e-10
    assert np.max(np.abs(lon2 - lon)) < 1e-10


def test_inverse_rejects_out_of_volume_altitude(pushbroom_bundle):
    model = pushbroom_bundle.model
    bad_alt = model.alt_off + 2.0 * model.alt_scale
    with pytest.raises(ValueError, match="altitude"):
        project_inverse(model, 512.0, 512.0, bad_alt)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["samp", "line", "alt"])
def test_inverse_rejects_non_finite_input(pushbroom_bundle, name, value):
    # One bad entry among finite ones: no point may come back as converged
    # at the starting guess, and no numpy warning may be raised.
    model = pushbroom_bundle.model
    args = {"samp": [512.0, 600.0], "line": [512.0, 400.0], "alt": [model.alt_off] * 2}
    args[name][1] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        project_inverse(model, **args)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpinhole import geodesy
from satpinhole.geodesy import (
    WGS84_A,
    WGS84_B,
    GeoPoint,
    ecef_to_geodetic,
    enu_rotation,
    enu_to_geodetic,
    geodetic_to_ecef,
    geodetic_to_enu,
)


def test_ecef_cardinal_points():
    x, y, z = geodetic_to_ecef(0.0, 0.0, 0.0)
    np.testing.assert_allclose([x, y, z], [WGS84_A, 0.0, 0.0], atol=1e-9)
    x, y, z = geodetic_to_ecef(0.0, 90.0, 0.0)
    np.testing.assert_allclose([x, y, z], [0.0, WGS84_A, 0.0], atol=1e-9)
    x, y, z = geodetic_to_ecef(90.0, 0.0, 0.0)
    np.testing.assert_allclose([x, y, z], [0.0, 0.0, WGS84_B], atol=1e-9)
    x, y, z = geodetic_to_ecef(-90.0, 0.0, 0.0)
    np.testing.assert_allclose([x, y, z], [0.0, 0.0, -WGS84_B], atol=1e-9)


def test_ecef_surface_points_satisfy_ellipsoid_equation():
    rng = np.random.default_rng(1)
    lat = rng.uniform(-90, 90, 200)
    lon = rng.uniform(-180, 180, 200)
    x, y, z = geodetic_to_ecef(lat, lon, 0.0)
    p = np.hypot(x, y)
    lhs = (p / WGS84_A) ** 2 + (z / WGS84_B) ** 2
    np.testing.assert_allclose(lhs, 1.0, rtol=0, atol=1e-12)


def test_altitude_moves_along_surface_normal():
    # The geodetic normal is (cos lat cos lon, cos lat sin lon, sin lat);
    # raising the altitude must translate the ECEF point exactly along it.
    lat, lon, alt = 37.25, -122.5, 1234.5
    p0 = np.array(geodetic_to_ecef(lat, lon, 0.0))
    p1 = np.array(geodetic_to_ecef(lat, lon, alt))
    lat_r, lon_r = np.deg2rad(lat), np.deg2rad(lon)
    normal = np.array(
        [
            np.cos(lat_r) * np.cos(lon_r),
            np.cos(lat_r) * np.sin(lon_r),
            np.sin(lat_r),
        ]
    )
    np.testing.assert_allclose(p1 - p0, alt * normal, rtol=0, atol=1e-9)


@settings(deadline=None, max_examples=200)
@given(
    lat=st.floats(-89.9, 89.9),
    lon=st.floats(-180.0, 180.0),
    alt=st.floats(-5000.0, 1.0e5),
)
def test_geodetic_ecef_round_trip(lat, lon, alt):
    x, y, z = geodetic_to_ecef(lat, lon, alt)
    lat2, lon2, alt2 = ecef_to_geodetic(x, y, z)
    assert abs(lat2 - lat) < 1e-9
    # Longitude wraps at the date line; compare the circular difference.
    dlon = (lon2 - lon + 180.0) % 360.0 - 180.0
    assert abs(dlon) < 1e-9
    assert abs(alt2 - alt) < 1e-6


def test_round_trip_at_poles():
    for lat in (90.0, -90.0):
        x, y, z = geodetic_to_ecef(lat, 0.0, 500.0)
        lat2, lon2, alt2 = ecef_to_geodetic(x, y, z)
        assert abs(lat2 - lat) < 1e-9
        assert lon2 == 0.0
        assert abs(alt2 - 500.0) < 1e-6


def test_earth_center_rejected():
    with pytest.raises(ValueError):
        ecef_to_geodetic(0.0, 0.0, 0.0)


@pytest.mark.parametrize("xyz", [(4.0e4, 0.0, 0.0), (0.0, 3.0e4, -3.0e4), (1.0, 1.0, 1.0)])
def test_points_near_earth_center_rejected(xyz):
    # Within about 53 km of the centre the closed form has no solution (the
    # region holds the evolute, where a point has several geodetic images).
    # One such point fails the whole batch.
    x, y, z = (np.array([v, WGS84_A]) for v in xyz)
    with pytest.raises(ValueError, match="53 km"):
        ecef_to_geodetic(x, y, z)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None, max_examples=100)
@given(
    points=st.lists(
        st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), st.floats(-5000.0, 9.0e5)),
        min_size=1,
        max_size=40,
    )
)
def test_ecef_to_geodetic_is_batch_independent(points):
    # Each point converts to the same bits alone (as scalars or a 1-element
    # array) as anywhere in a batch.
    lat, lon, alt = (np.array(c) for c in zip(*points))
    x, y, z = geodetic_to_ecef(lat, lon, alt)
    batch = ecef_to_geodetic(x, y, z)
    for i in range(len(points)):
        alone = ecef_to_geodetic(float(x[i]), float(y[i]), float(z[i]))
        sliced = ecef_to_geodetic(x[i : i + 1], y[i : i + 1], z[i : i + 1])
        for b, a, s in zip(batch, alone, sliced):
            assert _same_bits(a, b[i])
            assert _same_bits(s, b[i : i + 1])


@settings(deadline=None, max_examples=100)
@given(
    n_lat=st.integers(1, 12),
    n_lon=st.integers(1, 12),
    n=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    anchor=st.tuples(st.floats(-89.0, 89.0), st.floats(-180.0, 180.0), st.floats(-500.0, 3000.0)),
)
def test_lattice_to_enu_is_bitwise_geodetic_to_enu(n_lat, n_lon, n, seed, anchor):
    rng = np.random.default_rng(seed)
    lats = np.sort(rng.uniform(-89.0, 89.0, n_lat))
    lons = np.sort(rng.uniform(-180.0, 180.0, n_lon))
    i_lat = rng.integers(0, n_lat, n)
    i_lon = rng.integers(0, n_lon, n)
    alt = rng.uniform(-500.0, 9000.0, n)
    anchor = GeoPoint(*anchor)
    enu = geodesy._lattice_converter(lats, lons, anchor)(i_lat, i_lon, alt)
    assert enu.shape == (n, 3)
    for got, want in zip(enu.T, geodetic_to_enu(lats[i_lat], lons[i_lon], alt, anchor)):
        assert _same_bits(np.ascontiguousarray(got), want)


def test_enu_rotation_is_orthonormal():
    anchor = GeoPoint(42.0, 13.0, 100.0)
    rot = enu_rotation(anchor)
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-15)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-15)


def test_enu_anchor_is_origin():
    anchor = GeoPoint(42.0, 13.0, 100.0)
    e, n, u = geodetic_to_enu(anchor.lat, anchor.lon, anchor.alt, anchor)
    np.testing.assert_allclose([e, n, u], [0.0, 0.0, 0.0], atol=1e-9)


def test_enu_axes_point_the_right_way():
    anchor = GeoPoint(42.0, 13.0, 0.0)
    e, n, u = geodetic_to_enu(42.0, 13.001, 0.0, anchor)
    assert e > 0 and abs(n) < abs(e) * 0.01
    e, n, u = geodetic_to_enu(42.001, 13.0, 0.0, anchor)
    assert n > 0 and abs(e) < abs(n) * 0.01
    e, n, u = geodetic_to_enu(42.0, 13.0, 50.0, anchor)
    assert u == pytest.approx(50.0, abs=1e-9)
    assert abs(e) < 1e-9 and abs(n) < 1e-9


def test_enu_preserves_chord_distances():
    # ENU is a rigid motion of ECEF, so pairwise distances must match.
    anchor = GeoPoint(-33.5, 151.2, 40.0)
    rng = np.random.default_rng(3)
    lat = -33.5 + rng.uniform(-0.05, 0.05, 50)
    lon = 151.2 + rng.uniform(-0.05, 0.05, 50)
    alt = rng.uniform(-100, 400, 50)
    x, y, z = geodetic_to_ecef(lat, lon, alt)
    e, n, u = geodetic_to_enu(lat, lon, alt, anchor)
    d_ecef = np.hypot(np.hypot(x - x[0], y - y[0]), z - z[0])
    d_enu = np.hypot(np.hypot(e - e[0], n - n[0]), u - u[0])
    np.testing.assert_allclose(d_enu, d_ecef, rtol=1e-12, atol=1e-9)


@settings(deadline=None, max_examples=100)
@given(
    e=st.floats(-20000.0, 20000.0),
    n=st.floats(-20000.0, 20000.0),
    u=st.floats(-1000.0, 5000.0),
)
def test_enu_round_trip(e, n, u):
    anchor = GeoPoint(12.0, 77.5, 800.0)
    lat, lon, alt = enu_to_geodetic(e, n, u, anchor)
    e2, n2, u2 = geodetic_to_enu(lat, lon, alt, anchor)
    np.testing.assert_allclose([e2, n2, u2], [e, n, u], rtol=0, atol=1e-6)


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)
    assert GeoPoint(90.0, 180.0).lat == 90.0

"""WGS-84 geodetic <-> ECEF <-> local east-north-up conversions.

All functions are vectorized over numpy arrays; scalars work transparently.
Latitudes and longitudes are in degrees, altitudes (ellipsoidal heights) and
cartesian coordinates in meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# WGS-84 ellipsoid
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)  # first eccentricity squared


@dataclass(frozen=True)
class GeoPoint:
    """A single geodetic point, used as the anchor of local ENU frames."""

    lat: float
    lon: float
    alt: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range [-90, 90]: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range [-180, 180]: {self.lon}")


def _latitude_terms(lat):
    """Per-latitude factors of the ECEF formula: sin, cos and the prime-vertical radius N."""
    lat = np.deg2rad(np.asarray(lat, dtype=np.float64))
    slat = np.sin(lat)
    clat = np.cos(lat)
    return slat, clat, WGS84_A / np.sqrt(1.0 - WGS84_E2 * slat * slat)


def _longitude_terms(lon):
    """Per-longitude factors of the ECEF formula: cos and sin."""
    lon = np.deg2rad(np.asarray(lon, dtype=np.float64))
    return np.cos(lon), np.sin(lon)


def _ecef_from_terms(slat, clat, n, clon, slon, alt):
    """Combine latitude terms, longitude terms and heights into ECEF (x, y, z)."""
    alt = np.asarray(alt, dtype=np.float64)
    radius = (n + alt) * clat
    return radius * clon, radius * slon, (n * (1.0 - WGS84_E2) + alt) * slat


def geodetic_to_ecef(lat, lon, alt):
    """Convert geodetic coordinates to earth-centered earth-fixed XYZ.

    Args:
        lat, lon: degrees.
        alt: meters above the ellipsoid.

    Returns:
        Tuple of arrays (x, y, z) in meters.
    """
    return _ecef_from_terms(*_latitude_terms(lat), *_longitude_terms(lon), alt)


def ecef_to_geodetic(x, y, z):
    """Convert ECEF XYZ to geodetic (lat, lon, alt).

    Heikkinen's closed form (1982): no iteration, so every point's result is
    the same whether it is converted alone or in any batch. Round trips with
    :func:`geodetic_to_ecef` agree to within 3e-14 degrees and 5e-9 m for
    heights from -5 km to 900 km, poles included. Longitude at the poles is
    reported as 0.

    Raises:
        ValueError: if any point lies within about 53 km of the Earth's
            center, where the closed form has no solution (this region holds
            the points with more than one geodetic image).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    a2 = WGS84_A * WGS84_A
    b2 = WGS84_B * WGS84_B
    p2 = x * x + y * y
    z2 = z * z
    g = p2 + (1.0 - WGS84_E2) * z2 - WGS84_E2 * (a2 - b2)
    if np.any(g <= 0.0):
        raise ValueError("point within about 53 km of Earth center is outside the conversion's domain")

    # Temporaries are dropped as soon as they are dead: render_image calls
    # this on every block of its sweeps.
    e4 = WGS84_E2 * WGS84_E2
    f = 54.0 * b2 * z2
    c = e4 * f * p2 / (g * g * g)
    s = np.cbrt(1.0 + c + np.sqrt(c * c + 2.0 * c))
    k = s + 1.0 + 1.0 / s
    big_p = f / (3.0 * k * k * g * g)
    del f, c, s, k, g
    q = np.sqrt(1.0 + 2.0 * e4 * big_p)
    p = np.sqrt(p2)
    # On the polar axis the root's argument is zero up to rounding.
    root = 0.5 * a2 * (1.0 + 1.0 / q) - big_p * (1.0 - WGS84_E2) * z2 / (q * (1.0 + q)) - 0.5 * big_p * p2
    r0 = -big_p * WGS84_E2 * p / (1.0 + q) + np.sqrt(np.maximum(root, 0.0))
    del q, root, big_p, p2
    t = p - WGS84_E2 * r0
    t2 = t * t
    del t, r0
    v = np.sqrt(t2 + (1.0 - WGS84_E2) * z2)
    alt = np.sqrt(t2 + z2) * (1.0 - b2 / (WGS84_A * v))
    del t2, z2
    z0 = b2 * z / (WGS84_A * v)
    lat = np.arctan2(z + (a2 - b2) / b2 * z0, p)
    lon = np.arctan2(y, x)  # atan2(0, 0) == 0 at the poles
    return np.rad2deg(lat), np.rad2deg(lon), alt


def enu_rotation(anchor: GeoPoint) -> np.ndarray:
    """Rotation matrix taking ECEF deltas to (east, north, up) at *anchor*."""
    lat = np.deg2rad(anchor.lat)
    lon = np.deg2rad(anchor.lon)
    slat, clat = np.sin(lat), np.cos(lat)
    slon, clon = np.sin(lon), np.cos(lon)
    return np.array(
        [
            [-slon, clon, 0.0],
            [-slat * clon, -slat * slon, clat],
            [clat * clon, clat * slon, slat],
        ]
    )


def _ecef_to_enu(x, y, z, origin, rot):
    """ENU of ECEF points, given the anchor's ECEF *origin* and :func:`enu_rotation`."""
    dx, dy, dz = x - origin[0], y - origin[1], z - origin[2]
    e = rot[0, 0] * dx + rot[0, 1] * dy + rot[0, 2] * dz
    n = rot[1, 0] * dx + rot[1, 1] * dy + rot[1, 2] * dz
    u = rot[2, 0] * dx + rot[2, 1] * dy + rot[2, 2] * dz
    return e, n, u


def geodetic_to_enu(lat, lon, alt, anchor: GeoPoint):
    """Convert geodetic points to local east-north-up meters at *anchor*."""
    origin = geodetic_to_ecef(anchor.lat, anchor.lon, anchor.alt)
    return _ecef_to_enu(*geodetic_to_ecef(lat, lon, alt), origin, enu_rotation(anchor))


def _lattice_converter(lats, lons, anchor: GeoPoint):
    """The function of (i_lat, i_lon, alt) giving the (N, 3) ENU at *anchor*
    of lattice nodes (lats[i_lat], lons[i_lon], alt): the bits of
    ``geodetic_to_enu``, from the same arithmetic, but with the trigonometry
    and N(lat) computed once per axis value and gathered per node. Callers
    hand it one block of nodes at a time."""
    lat_terms = _latitude_terms(lats)
    lon_terms = _longitude_terms(lons)
    origin = geodetic_to_ecef(anchor.lat, anchor.lon, anchor.alt)
    rot = enu_rotation(anchor)

    def convert(i_lat, i_lon, alt) -> np.ndarray:
        xyz = _ecef_from_terms(*(term[i_lat] for term in lat_terms), *(term[i_lon] for term in lon_terms), alt)
        return np.column_stack(_ecef_to_enu(*xyz, origin, rot))

    return convert


def enu_to_geodetic(e, n, u, anchor: GeoPoint):
    """Inverse of geodetic_to_enu: local ENU meters back to (lat, lon, alt)."""
    e = np.asarray(e, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    rot = enu_rotation(anchor)
    x0, y0, z0 = geodetic_to_ecef(anchor.lat, anchor.lon, anchor.alt)
    # Transpose of the ENU rotation maps local deltas back to ECEF.
    dx = rot[0, 0] * e + rot[1, 0] * n + rot[2, 0] * u
    dy = rot[0, 1] * e + rot[1, 1] * n + rot[2, 1] * u
    dz = rot[0, 2] * e + rot[1, 2] * n + rot[2, 2] * u
    return ecef_to_geodetic(x0 + dx, y0 + dy, z0 + dz)

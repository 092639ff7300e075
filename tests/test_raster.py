import numpy as np
import pytest

from satpinhole.kvio import fmt
from satpinhole.raster import (
    GridFormatError,
    Raster,
    format_ascii_grid,
    parse_ascii_grid,
    sample_bilinear,
)


def _demo():
    # Row 0 is the TOP row: value 1 sits at the upper-left cell.
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    return Raster(values=values, cell_size=10.0, origin=(100.0, 200.0))


def test_round_trip_is_byte_identical():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(7, 5))
    values[2, 3] = -9999.0
    r = Raster(values=values, cell_size=0.125, origin=(-3.5, 12.0))
    text = format_ascii_grid(r)
    again = format_ascii_grid(parse_ascii_grid(text))
    assert text == again


@pytest.mark.parametrize("shape", [(6, 4), (1, 9), (9, 1)])
def test_format_matches_per_value_fmt(shape):
    rng = np.random.default_rng(5)
    values = rng.normal(scale=1e3, size=shape).ravel()
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e300, -9999.0, 0.1]
    values[: len(specials)] = specials
    r = Raster(values=values.reshape(shape), cell_size=0.5, origin=(-1.25, 3.0), nodata=-9999.0)
    # The body must carry exactly the bytes of ``fmt`` applied cell by cell.
    body = format_ascii_grid(r).split("\n", 6)[6]
    assert body == "\n".join(" ".join(fmt(v) for v in row) for row in r.values) + "\n"


def test_parse_recovers_geometry():
    r = parse_ascii_grid(format_ascii_grid(_demo()))
    assert r.ncols == 2 and r.nrows == 2
    assert r.origin == (100.0, 200.0)
    assert r.cell_size == 10.0
    np.testing.assert_array_equal(r.values, _demo().values)


def test_parse_missing_header_field():
    text = format_ascii_grid(_demo())
    broken = "\n".join(ln for ln in text.splitlines() if not ln.startswith("cellsize"))
    with pytest.raises(GridFormatError, match="cellsize"):
        parse_ascii_grid(broken)


def test_parse_wrong_cell_count():
    text = format_ascii_grid(_demo()) + " 5.0"
    with pytest.raises(GridFormatError, match="values"):
        parse_ascii_grid(text)


def test_parse_non_numeric_body():
    text = format_ascii_grid(_demo()).replace("4", "x")
    with pytest.raises(GridFormatError):
        parse_ascii_grid(text)


def test_validation():
    with pytest.raises(ValueError):
        Raster(values=np.zeros(4))
    with pytest.raises(ValueError):
        Raster(values=np.zeros((2, 2)), cell_size=0.0)


def test_bilinear_at_cell_centers():
    r = _demo()
    # Top-left cell center: x = 100 + 0.5*10, y = 200 + 1.5*10 (row 0 is top).
    assert sample_bilinear(r, 105.0, 215.0) == 1.0
    assert sample_bilinear(r, 115.0, 215.0) == 2.0
    assert sample_bilinear(r, 105.0, 205.0) == 3.0
    assert sample_bilinear(r, 115.0, 205.0) == 4.0


def test_bilinear_midpoint_averages():
    r = _demo()
    assert sample_bilinear(r, 110.0, 210.0) == pytest.approx(2.5)
    assert sample_bilinear(r, 110.0, 215.0) == pytest.approx(1.5)
    assert sample_bilinear(r, 105.0, 210.0) == pytest.approx(2.0)


def test_bilinear_is_exact_for_planes():
    # Bilinear interpolation reproduces any affine surface exactly.
    rows, cols = np.meshgrid(np.arange(8), np.arange(6), indexing="ij")
    values = 2.0 * cols + 3.0 * (8 - 1 - rows) + 1.0  # affine in (x, y)
    r = Raster(values=values, cell_size=1.0, origin=(0.0, 0.0))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 5.5, 50)
    y = rng.uniform(0.5, 7.5, 50)
    expected = 2.0 * (x - 0.5) + 3.0 * (y - 0.5) + 1.0
    np.testing.assert_allclose(sample_bilinear(r, x, y), expected, atol=1e-12)


def test_bilinear_clamp_versus_nodata_outside():
    r = _demo()
    far = (50.0, 500.0)
    assert sample_bilinear(r, *far, clamp=True) == 1.0  # nearest corner cell
    assert sample_bilinear(r, *far, clamp=False) == r.nodata


def test_bilinear_nodata_propagates():
    values = np.array([[1.0, -9999.0], [3.0, 4.0]])
    r = Raster(values=values, cell_size=1.0, origin=(0.0, 0.0))
    # Interpolating between the valid and nodata cells yields nodata.
    assert sample_bilinear(r, 1.0, 1.5) == -9999.0
    # Exactly on a valid center whose stencil avoids the hole is fine.
    assert sample_bilinear(r, 0.5, 0.5) == 3.0


def test_like_keeps_georeference():
    r = _demo()
    s = r.like(np.zeros((4, 4)))
    assert s.cell_size == r.cell_size
    assert s.origin == r.origin
    assert s.nodata == r.nodata
    assert s.nrows == 4

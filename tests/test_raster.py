import tracemalloc

import numpy as np
import pytest

from satpinhole import raster as raster_module
from satpinhole.errors import FormatError
from satpinhole.fusion import fuse_views
from satpinhole.kvio import fmt
from satpinhole.raster import (
    Raster,
    format_ascii_grid,
    load_ascii_grid,
    parse_ascii_grid,
    sample_bilinear,
    save_ascii_grid,
)
from satpinhole.refinement import IDENTITY_COEFFS, PolynomialWarp, resample
from satpinhole.synth import render_image


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


def test_save_streams_rows(tmp_path):
    r = Raster(values=np.random.default_rng(3).normal(size=(256, 256)))
    path = tmp_path / "grid.asc"
    tracemalloc.start()
    try:
        save_ascii_grid(r, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The writer holds one row of text at a time, never the whole file.
    size = path.stat().st_size
    assert peak < size / 4, (peak, size)
    assert path.read_text(encoding="utf-8") == format_ascii_grid(r)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e300, 5e-324, -9999.0]


def _layouts():
    """The same 4 x 5 grid written in several whitespace layouts."""
    values = np.arange(20, dtype=np.float64).reshape(4, 5) * 1.25 - 7.0
    values.ravel()[: len(_SPECIALS)] = _SPECIALS
    header = format_ascii_grid(Raster(values=values)).split("\n", 6)
    head = "\n".join(header[:6]) + "\n"
    tokens = [fmt(v) for v in values.ravel()]
    wrapped = "\n".join(" ".join(tokens[i : i + 7]) for i in range(0, 20, 7)) + "\n"
    rows = ["\t".join(tokens[i : i + 5]) for i in range(0, 20, 5)]
    return values, {
        "wrapped_7_per_line": head + wrapped,
        "one_line": head + " ".join(tokens),
        "tabs": head + "\n".join(rows) + "\n",
        "crlf": (head + wrapped).replace("\n", "\r\n"),
        "trailing_blank_lines": head + wrapped + "\n  \n\n",
    }


@pytest.mark.parametrize("block", [1, 3, 16, None])
@pytest.mark.parametrize("layout", list(_layouts()[1]))
def test_reader_takes_any_whitespace_layout(tmp_path, monkeypatch, block, layout):
    # Small blocks put block boundaries inside tokens and between lines.
    if block is not None:
        monkeypatch.setattr(raster_module, "_BLOCK", block)
    values, texts = _layouts()
    path = tmp_path / "grid.asc"
    path.write_bytes(texts[layout].encode("utf-8"))
    for r in (parse_ascii_grid(texts[layout]), load_ascii_grid(path)):
        assert r.values.shape == (4, 5)
        np.testing.assert_array_equal(_bits(r.values), _bits(values))


def test_save_load_round_trip_is_bit_identical(tmp_path):
    values = np.random.default_rng(9).normal(scale=1e3, size=(3, 4))
    values.ravel()[: len(_SPECIALS)] = _SPECIALS
    r = Raster(values=values, cell_size=0.5, origin=(-1.25, 3.0), nodata=-9999.0)
    path = tmp_path / "grid.asc"
    save_ascii_grid(r, path)
    again = load_ascii_grid(path)
    np.testing.assert_array_equal(_bits(again.values), _bits(values))
    assert (again.cell_size, again.origin, again.nodata) == (0.5, (-1.25, 3.0), -9999.0)


@pytest.mark.parametrize("block", [5, None])
@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda tokens: tokens[:17] + ["x"] + tokens[18:], "non-numeric"),
        (lambda tokens: tokens + ["1.5"], "values"),
        (lambda tokens: tokens[:-1], "values"),
    ],
    ids=["letter", "one_too_many", "one_too_few"],
)
def test_reader_rejects_bad_body(monkeypatch, block, edit, match):
    if block is not None:
        monkeypatch.setattr(raster_module, "_BLOCK", block)
    values = np.random.default_rng(4).normal(size=(6, 5))
    head, body = format_ascii_grid(Raster(values=values)).split("NODATA_value -9999\n")
    text = head + "NODATA_value -9999\n" + " ".join(edit(body.split())) + "\n"
    with pytest.raises(FormatError, match=match):
        parse_ascii_grid(text)


@pytest.mark.parametrize(
    "ncols, nrows",
    [("-2", "-3"), ("2.5", "2"), ("nan", "2"), ("inf", "2"), ("100000", "100000")],
)
def test_reader_rejects_impossible_dimensions(ncols, nrows):
    text = (
        f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n1 2 3 4 5 6\n"
    )
    with pytest.raises(FormatError):
        parse_ascii_grid(text)


def test_load_streams_blocks(tmp_path):
    r = Raster(values=np.random.default_rng(3).normal(size=(256, 256)))
    path = tmp_path / "grid.asc"
    save_ascii_grid(r, path)
    tracemalloc.start()
    try:
        again = load_ascii_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The reader holds the grid and one block of text, never the whole file.
    assert peak < 2.5 * r.values.nbytes, (peak, r.values.nbytes)
    np.testing.assert_array_equal(_bits(again.values), _bits(r.values))


def _traced_peak(fn, *args):
    """Run fn(*args) under tracemalloc; return its result and memory peak."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# The full-frame kernels work in row blocks, so past their output they hold a
# few MB of block temporaries, whatever the frame size; holding every
# temporary at full frame size took about 33x (render), 21x (resample) and 21x
# (fusion) the output's bytes on these 512 x 512 frames.


def test_render_image_memory_is_blocked(pinhole_bundle):
    image, peak = _traced_peak(render_image, pinhole_bundle.scene)
    assert image.values.shape == (512, 512)
    assert peak < 6 * image.values.nbytes, (peak, image.values.nbytes)


def test_resample_memory_is_blocked():
    image = Raster(values=np.random.default_rng(4).uniform(0.0, 255.0, size=(512, 512)))
    m = np.array(IDENTITY_COEFFS)
    m[0], m[3], m[6], m[10] = 0.3, 1e-4, -0.2, 2e-5
    out, peak = _traced_peak(resample, image, PolynomialWarp(m=m))
    assert peak < 4 * out.values.nbytes, (peak, out.values.nbytes)


def test_fuse_views_memory_is_blocked():
    rng = np.random.default_rng(5)
    views = [Raster(values=rng.normal(50.0, 1.0, size=(512, 512))) for _ in range(5)]
    out, peak = _traced_peak(fuse_views, views)
    assert peak < 6 * out.values.nbytes, (peak, out.values.nbytes)


def test_parse_recovers_geometry():
    r = parse_ascii_grid(format_ascii_grid(_demo()))
    assert r.ncols == 2 and r.nrows == 2
    assert r.origin == (100.0, 200.0)
    assert r.cell_size == 10.0
    np.testing.assert_array_equal(r.values, _demo().values)


def test_parse_missing_header_field():
    text = format_ascii_grid(_demo())
    broken = "\n".join(ln for ln in text.splitlines() if not ln.startswith("cellsize"))
    with pytest.raises(FormatError, match="cellsize"):
        parse_ascii_grid(broken)


@pytest.mark.parametrize(
    "key, value",
    [("cellsize", "0"), ("cellsize", "nan"), ("xllcorner", "inf"), ("yllcorner", "nan")],
)
def test_parse_header_georeference_must_be_finite(key, value):
    lines = format_ascii_grid(_demo()).splitlines()
    lines = [f"{key} {value}" if ln.startswith(key) else ln for ln in lines]
    with pytest.raises(FormatError, match=key):
        parse_ascii_grid("\n".join(lines))


def test_parse_wrong_cell_count():
    text = format_ascii_grid(_demo()) + " 5.0"
    with pytest.raises(FormatError, match="values"):
        parse_ascii_grid(text)


def test_parse_non_numeric_body():
    text = format_ascii_grid(_demo()).replace("4", "x")
    with pytest.raises(FormatError):
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

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from satpinhole.synth import make_pushbroom_scene, render_image


def _demo():
    # Row 0 is the TOP row: value 1 sits at the upper-left cell.
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    return Raster(values=values, cell_size=10.0, origin=(100.0, 200.0))


def test_valid_mask_is_finite_and_not_nodata():
    r = Raster(values=np.array([[1.0, np.nan, np.inf], [-np.inf, -9999.0, 0.0]]))
    np.testing.assert_array_equal(r.valid_mask(), [[True, False, False], [False, False, True]])
    np.testing.assert_array_equal(r.valid_values(), [1.0, 0.0])


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


def _body(values):
    """The grid body ``format_ascii_grid`` writes for *values*."""
    return format_ascii_grid(Raster(values=values)).split("\n", 6)[6]


def _fmt_body(values):
    return "".join(" ".join(fmt(v) for v in row) + "\n" for row in np.asarray(values).tolist())


def _near_power_of_ten(exponent, steps):
    x = float(f"1e{exponent}")
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return x


# Cells that test the writer: any float64 (with NaN, infinities and
# subnormals), the ends of the range, values a few ulps from each power of
# ten where the decimal exponent changes, and exact ties at the 17th digit:
# odd multiples of 1/4 between 1e15 and 2**51 and of 1/8 between 1e14 and
# 2**49 have 18 significant digits, the last a 5.
_CELLS = st.builds(
    lambda x, negate: -x if negate else x,
    st.one_of(
        st.floats(width=64),
        st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, np.finfo(np.float64).max]),
        st.builds(_near_power_of_ten, st.integers(-5, 17), st.integers(-4, 4)),
        st.integers(4 * 10**15, 2**53 - 1).map(lambda m: (m | 1) / 4),
        st.integers(8 * 10**14, 2**52 - 1).map(lambda m: (m | 1) / 8),
    ),
    st.booleans(),
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(_CELLS, min_size=1, max_size=8))
def test_format_matches_fmt_on_any_float(cells):
    values = np.array(cells)
    # One block for the whole row, and one block per cell, so that a cell
    # that needs the row template sends only itself there.
    assert _body(values[None, :]) == _fmt_body(values[None, :])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raster_module, "_WRITE_CELLS", 1)
        assert _body(values[:, None]) == _fmt_body(values[:, None])


# Block budgets as a function of the grid width: one cell, half a row, one
# row, three rows and more than any grid below.
_WRITE_BUDGETS = {
    "one-cell": lambda ncols: 1,
    "half-row": lambda ncols: max(ncols // 2, 1),
    "one-row": lambda ncols: ncols,
    "three-rows": lambda ncols: 3 * ncols,
    "whole-frame": lambda ncols: 1 << 40,
}


@pytest.mark.parametrize("budget", sorted(_WRITE_BUDGETS))
@pytest.mark.parametrize("shape", [(1, 50), (50, 1), (7, 9)])
def test_writer_blocks_give_the_same_bytes(monkeypatch, tmp_path, budget, shape):
    rng = np.random.default_rng(11)
    values = rng.normal(scale=500.0, size=shape[0] * shape[1])
    # Zeros and nodata take the vectorized path; a NaN and a tiny value make
    # the blocks that hold them take the row template.
    values[::7] = -9999.0
    values[3::11] = 0.0
    values[5] = np.nan
    values[-4] = 3e-7
    values = values.reshape(shape)
    monkeypatch.setattr(raster_module, "_WRITE_CELLS", _WRITE_BUDGETS[budget](shape[1]))
    path = tmp_path / "grid.asc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = format_ascii_grid(Raster(values=values))
        save_ascii_grid(Raster(values=values), path)
    assert text.split("\n", 6)[6] == _fmt_body(values)
    assert path.read_bytes() == text.encode("ascii")


def test_writer_takes_empty_and_integer_grids():
    for values in (np.zeros((0, 3)), np.zeros((3, 0)), np.arange(12).reshape(3, 4)):
        assert _body(values) == _fmt_body(values)


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


def test_blocks_of_a_512_grid_keep_memory_a_share_of_it(tmp_path):
    # At 512 x 512 a block is 1/64 of the grid, more than the fixed blocks:
    # the writer still holds well under a quarter of the file, and the reader
    # the grid and one block.
    r = Raster(values=np.random.default_rng(5).normal(scale=100.0, size=(512, 512)))
    path = tmp_path / "grid.asc"
    tracemalloc.start()
    try:
        save_ascii_grid(r, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        again = load_ascii_grid(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert save_peak < size / 4, (save_peak, size)
    assert load_peak < 2.5 * r.values.nbytes, (load_peak, r.values.nbytes)
    np.testing.assert_array_equal(_bits(again.values), _bits(r.values))


class _ReadSpy:
    """A text file whose ``read`` calls record their sizes."""

    def __init__(self, fh, sizes):
        self._fh, self._sizes = fh, sizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, n):
        self._sizes.append(n)
        return self._fh.read(n)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _read_sizes(monkeypatch, path):
    """The sizes of the ``read`` calls of one ``load_ascii_grid(path)``."""
    sizes = []
    monkeypatch.setattr(raster_module, "open", lambda *a, **k: _ReadSpy(open(*a, **k), sizes), raising=False)
    load_ascii_grid(path)
    monkeypatch.delattr(raster_module, "open")
    return sizes


def test_reader_block_is_a_64th_of_a_512_grid(tmp_path, monkeypatch):
    path = tmp_path / "grid.asc"
    save_ascii_grid(Raster(values=np.random.default_rng(6).normal(size=(512, 512))), path)
    size = path.stat().st_size
    assert size // 64 > raster_module._BLOCK
    assert set(_read_sizes(monkeypatch, path)) == {size // 64}


@pytest.mark.parametrize("block", [1, 3])
def test_reader_block_of_a_small_grid_is_at_least_the_fixed_block(tmp_path, monkeypatch, block):
    monkeypatch.setattr(raster_module, "_BLOCK", block)
    path = tmp_path / "grid.asc"
    path.write_bytes(_layouts()[1]["one_line"].encode("utf-8"))
    sizes = _read_sizes(monkeypatch, path)
    assert set(sizes) == {max(block, path.stat().st_size // 64)} and len(sizes) > 10



@pytest.mark.parametrize("block", [1, 3, 16])
def test_reader_cuts_inside_tokens_with_tiny_blocks(tmp_path, monkeypatch, block):
    # With the 1/64 share out of reach the reader reads *block* characters at
    # a time, so boundaries fall inside tokens and between lines; the grid,
    # and the refusal of a bad body, are the same.
    monkeypatch.setattr(raster_module, "_BLOCK", block)
    monkeypatch.setattr(raster_module, "_BLOCKS_PER_GRID", 1 << 40)
    values, texts = _layouts()
    path = tmp_path / "grid.asc"
    for layout, text in texts.items():
        path.write_bytes(text.encode("utf-8"))
        sizes = _read_sizes(monkeypatch, path)
        assert set(sizes) == {block}, layout
        np.testing.assert_array_equal(_bits(load_ascii_grid(path).values), _bits(values))
    head, body = format_ascii_grid(Raster(values=np.random.default_rng(4).normal(size=(6, 5)))).split(
        "NODATA_value -9999\n"
    )
    tokens = body.split()
    bodies = [(tokens[:17] + ["x"] + tokens[18:], "non-numeric"), (tokens + ["1.5"], "values"), (tokens[:-1], "values")]
    for bad, match in bodies:
        with pytest.raises(FormatError, match=match):
            parse_ascii_grid(head + "NODATA_value -9999\n" + " ".join(bad) + "\n")


def test_reader_and_writer_blocks_stop_at_their_most(tmp_path, monkeypatch):
    # A share of the whole grid, cut down to 10 cells (two rows) a write and
    # 7 characters a read.
    monkeypatch.setattr(raster_module, "_BLOCKS_PER_GRID", 1)
    monkeypatch.setattr(raster_module, "_MAX_WRITE_CELLS", 10)
    monkeypatch.setattr(raster_module, "_MAX_BLOCK", 7)
    r = Raster(values=np.random.default_rng(8).normal(size=(6, 5)))
    assert [chunk.count(b"\n") for chunk in raster_module._ascii_grid_chunks(r)][1:] == [2, 2, 2]
    path = tmp_path / "grid.asc"
    save_ascii_grid(r, path)
    assert set(_read_sizes(monkeypatch, path)) == {7}
    np.testing.assert_array_equal(_bits(load_ascii_grid(path).values), _bits(r.values))


def _one_row(tokens):
    """A one-row grid text holding *tokens* as its cells."""
    return (
        f"ncols {len(tokens)}\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n" + " ".join(tokens) + "\n"
    )


def _loads_as_float(tokens):
    values = parse_ascii_grid(_one_row(tokens)).values[0]
    np.testing.assert_array_equal(_bits(values), _bits([float(t) for t in tokens]))


def _fixed_token(digits, point, negate):
    if point is not None:
        point %= len(digits) + 1
        digits = digits[:point] + "." + digits[point:]
    return "-" + digits if negate else digits


# Fixed-notation tokens, -?digits[.digits]: 1 to 18 digits, the point
# anywhere (or nowhere) and either sign.
_FIXED_TOKENS = st.builds(
    _fixed_token,
    st.text("0123456789", min_size=1, max_size=18),
    st.one_of(st.none(), st.integers(0, 18)),
    st.booleans(),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_FIXED_TOKENS, min_size=1, max_size=12))
def test_reader_reads_fixed_notation_exactly(tokens):
    _loads_as_float(tokens)


# Tokens the fast path must leave to numpy's parser. Exact ties between two
# doubles, with and without fraction digits; 19 or more significant digits
# (20 or more overflow int64); 22 or more fraction digits; and syntax the
# writer never prints.
_OTHER_TOKENS = [
    "9007199254740993",
    "9007199254740995",
    "18014398509481986",
    "-9007199254740993.0",
    "4503599627370496.5",
    "2251799813685248.25",
    "-2251799813685248.75",
    "1234567890123456789",
    "99999999999999999999",
    "-0.1000000000000000000001",
    "1" * 30,
    "0." + "0" * 21 + "1",
    "-1." + "5" * 22,
    "+1",
    "1e5",
    "-2.5E-3",
    "nan",
    "inf",
    "-inf",
]


@pytest.mark.parametrize("token", _OTHER_TOKENS)
def test_reader_reads_other_tokens_as_float_does(token):
    # Alone, and in one block with fixed-notation tokens.
    _loads_as_float([token])
    _loads_as_float(["0.5", token, "-12"])


@pytest.mark.parametrize("token", ["1.2.3", "1-2", "--1", "-", ".", "-."])
def test_reader_rejects_malformed_fixed_notation(token):
    with pytest.raises(FormatError, match="non-numeric cell value"):
        parse_ascii_grid(_one_row(["1.5", token, "2"]))


def test_writer_output_stays_on_the_fast_path(tmp_path, monkeypatch):
    # Every cell the writer prints in fixed notation, |x| in [1e-4, 1e17),
    # must load without numpy's parser.
    rng = np.random.default_rng(14)
    values = 10.0 ** rng.uniform(-4.0, 17.0, size=(64, 64)) * rng.choice([-1.0, 1.0], size=(64, 64))
    values.ravel()[:6] = [1e-4, math.nextafter(1e17, 0.0), -0.0, 0.0, -9999.0, 0.1]
    path = tmp_path / "grid.asc"
    save_ascii_grid(Raster(values=values), path)
    assert "e" not in path.read_text(encoding="utf-8").split("\n", 6)[6]

    def refuse(*args, **kwargs):
        raise AssertionError("a block of writer output left the fast path")

    monkeypatch.setattr(raster_module.np, "loadtxt", refuse)
    np.testing.assert_array_equal(_bits(load_ascii_grid(path).values), _bits(values))


@pytest.mark.parametrize(
    "header, line, key",
    [
        ("ncols 2\nncols 3\nnrows 1\n", 2, "ncols"),
        ("ncols 3\nnrows 1\nncols 2\n", 3, "ncols"),
        ("ncols 3\nnrows 1\nNROWS 1\n", 3, "NROWS"),
    ],
    ids=["first_line_twice", "after_another_key", "other_case"],
)
def test_reader_rejects_a_repeated_header_key(header, line, key):
    text = header + "xllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n"
    with pytest.raises(FormatError, match=f"line {line}: repeated key '{key}'"):
        parse_ascii_grid(text)


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


def test_render_image_holds_one_frame_with_small_blocks(monkeypatch):
    # With blocks of 4 rows the temporaries are small, so the peak is the
    # output plus what does not grow with the frame. Per-pixel ray heights
    # kept across blocks would add a second frame.
    scene = make_pushbroom_scene(21, (256, 256), relief=60, extent_deg=0.16)
    monkeypatch.setattr(raster_module, "_BLOCK_CELLS", 4 * 256)
    image, peak = _traced_peak(render_image, scene)
    assert peak < 2 * image.values.nbytes, (peak, image.values.nbytes)


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

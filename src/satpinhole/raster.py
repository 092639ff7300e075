"""Gridded rasters with nodata semantics and Arc/Info ASCII grid I/O.

The same container serves digital surface models (georeferenced, cell size in
meters or degrees), image tiles (pixel coordinates, cell size 1), and error
fields. Row 0 of ``values`` is the top row of the grid; the stored origin is
the lower-left corner, matching the ASCII grid header convention.
"""

from __future__ import annotations

import functools
import io
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError
from .kvio import fmt

# The nodata sentinel of rasters made from scratch; derived rasters keep their
# input's sentinel.
NODATA = -9999.0

# The text-grid rule: a block is 1/64 of its grid, clamped between a fixed
# least and most block of its kind (:func:`_share`). The least keeps a small
# grid's blocks as they were; the most bounds a block's memory, as a larger
# one measures no faster. On a 512 x 512 grid a block lies between the two.
_BLOCKS_PER_GRID = 64

# Characters of grid body read at a time: between 32 KiB and 128 KiB. A
# block pays the two dozen array calls of ``_fixed_values`` once (about 1700
# cells of writer output at 32 KiB), and its text and temporaries, about
# 13 bytes a character (about 1.8 MB at most), are all the reader holds
# beyond the grid.
_BLOCK = 1 << 15
_MAX_BLOCK = 1 << 17

# Cells per row block of the full-frame kernels (``synth.render_image``,
# ``refinement.resample``, ``fusion.fuse_views``, ``fusion.dsm_metrics``) and
# of ``equivalence._score``: their temporaries stay a few MB whatever the
# frame size.
_BLOCK_CELLS = 1 << 14

# Cells per row block of the ASCII writer: between 2048 and 8192. It keeps
# about 120 B of temporaries per cell of a block (about 1 MB at most).
_WRITE_CELLS = 1 << 11
_MAX_WRITE_CELLS = 1 << 13


def _share(total: int, least: int, most: int) -> int:
    """The block of a grid of *total* characters or cells: 1/64 of it, but
    no less than *least* and no more than *most*."""
    return min(max(least, total // _BLOCKS_PER_GRID), most)


def valid_cells(values: np.ndarray, nodata: float) -> np.ndarray:
    """The package's one test of a valid cell: finite and not *nodata*."""
    return np.isfinite(values) & (values != nodata)


@dataclass
class Raster:
    """A rectangular grid of values with a nodata sentinel.

    Attributes:
        values: 2D array, row 0 at the top of the grid.
        cell_size: grid spacing in georeference units (1.0 for pixel grids).
        origin: (x, y) of the lower-left corner.
        nodata: sentinel marking missing cells; must not collide with data.
    """

    values: np.ndarray
    cell_size: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)
    nodata: float = NODATA

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError(f"raster values must be 2D, got shape {self.values.shape}")
        if not 0.0 < self.cell_size < np.inf:
            raise ValueError(f"cell size must be finite and positive, got {self.cell_size}")
        self.origin = (float(self.origin[0]), float(self.origin[1]))
        if not np.isfinite(self.origin).all():
            raise ValueError(f"origin must be finite, got {self.origin}")

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def valid_mask(self) -> np.ndarray:
        return valid_cells(self.values, self.nodata)

    def valid_values(self) -> np.ndarray:
        return self.values[self.valid_mask()]

    def like(self, values: np.ndarray) -> "Raster":
        """A new raster sharing this raster's georeference."""
        return replace(self, values=values)


# Exact "%.17g" for whole blocks of cells. A cell x whose decimal exponent k
# after rounding to 17 digits is in [-4, 16] prints in fixed notation from
# the digits of D = round-half-even(|x| * 10**(16 - k)), 10**16 <= D < 10**17.
# The product is formed exactly as the sum of two doubles with Dekker's
# two-product (Numer. Math. 18, 1971): 10**e is an exact double for e <= 22,
# and the operands stay far from overflow and underflow.
_POW10 = np.array([float(10**e) for e in range(22)])
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a == hi + lo with 26 significant bits in each part."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _exact_product(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**e as p + lo exactly, with p the rounded product."""
    p = a * _POW10.take(e)
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(e), _POW10_LO.take(e)
    lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, lo


def _decimal(x: np.ndarray):
    """k and D of each cell of *x* (0 and 0 for a zero); None when a cell is
    neither zero nor of magnitude in [1e-4, 1e17) after rounding."""
    a = np.abs(x)
    # Zeros run through as 1 and take D = 0 at the end.
    zero = a == 0
    a[zero] = 1.0
    if not (a.min() >= 1e-5 and a.max() < 1e17):
        return None
    k = np.floor(np.log10(a)).astype(np.intp)
    np.maximum(k, -5, out=k)
    np.minimum(k, 16, out=k)
    p, lo = _exact_product(a, 16 - k)
    # log10 may miss by one next to a power of ten: move such cells so that
    # 10**16 <= p + lo < 10**17.
    if p.min() <= 1e16 or p.max() >= 1e17:
        k += (p > 1e17) | ((p == 1e17) & (lo >= 0))
        k -= (p < 1e16) | ((p == 1e16) & (lo < 0))
        p, lo = _exact_product(a, 16 - k)
    # p is an even integer above 2**53, so adding lo rounded half to even
    # rounds p + lo half to even.
    d = p.astype(np.int64) + np.rint(lo).astype(np.int64)
    if d.max() == 10**17:
        carry = d == 10**17
        d[carry] = 10**16
        k += carry
    if k.min() < -4:
        return None
    d *= ~zero
    return k, d


def _chunk_table() -> np.ndarray:
    """D's digits are a leading one and four chunks of four. Entry c is the
    little-endian word with the four digit values of chunk c in bytes 0, 2, 4
    and 6 (the digit slots of the text) and, in byte 1, the count of c's
    digits up to its last nonzero one (0 for c = 0)."""
    chunk = np.arange(10000, dtype=np.uint16)
    table = np.zeros((10000, 8), dtype=np.uint8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        table[:, 2 * i] = chunk // scale % 10
        table[table[:, 2 * i] != 0, 1] = i + 1
    return table.reshape(-1).view("<u8")


# The count of D's digits before each chunk, plus one.
_CHUNK_OFFSETS = np.arange(1, 17, 4, dtype=np.uint8)[:, None]
_DIGIT_BYTES = np.uint64(0x00FF00FF00FF00FF)

# A cell's text is cut out of 40 slots: a sign, the "0.000" of fixed notation
# below 1, the 17 digits each followed by a point slot but the last, and the
# separator. Which slots are kept depends only on the sign, k (-4 to 16) and
# the count of significant digits (1 to 17), so each of those 2 * 21 * 17
# layouts is one row of the table: kept slots hold their character ("0" for
# a digit, to which its value is added), dropped ones hold 0. Rows are read
# as five little-endian words.
_LAYOUT_EXPONENTS = 21


def _layout_table() -> np.ndarray:
    neg = np.arange(2)[:, None, None, None]
    k = np.arange(-4, 17)[None, :, None, None]
    nd = np.arange(1, 18)[None, None, :, None]
    j = np.arange(17)
    keep = np.zeros((2, _LAYOUT_EXPONENTS, 17, 40), dtype=bool)
    keep[..., 0] = neg[..., 0] == 1
    keep[..., 1:6] = np.arange(5) < np.where(k < 0, 1 - k, 0)
    keep[..., 6:40:2] = j < np.where(k < 0, nd, np.maximum(k + 1, nd))
    keep[..., 7:39:2] = (j[:16] == k) & (nd > k + 1)
    keep[..., 39] = True
    chars = np.frombuffer(b"-0.000" + b"0." * 16 + b"0 ", dtype=np.uint8)
    return (keep * chars).reshape(-1, 40).view("<u8")


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The chunk and layout tables, built by the first write, so that a
    process that writes no grid does not hold them."""
    return _chunk_table(), _layout_table()


def _digit_words(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leading digit of each D as a word of its text, the chunk-table
    words of its other 16 digits (4 x n) and its count of significant
    digits. Apart from ``_text_words`` so that these temporaries are freed
    before the text is built."""
    lead = d // 10**16
    rest = d - lead * 10**16
    chunks = np.empty((4, d.size), dtype=np.int64)
    for i, scale in enumerate((10**12, 10**8, 10**4)):
        chunks[i] = rest // scale
        rest -= chunks[i] * scale
    chunks[3] = rest
    words = _tables()[0].take(chunks)
    last = words.view(np.uint8)[:, 1::8]
    nd = ((last + _CHUNK_OFFSETS) * (last > 0)).max(axis=0)
    np.maximum(nd, 1, out=nd)
    words &= _DIGIT_BYTES
    return lead.astype(np.uint64) << np.uint64(48), words, nd


def _text_words(x: np.ndarray):
    """The 40 text slots of each cell of *x* as five words; None when a cell
    is one that ``_decimal`` leaves out."""
    decimal = _decimal(x)
    if decimal is None:
        return None
    k, d = decimal
    lead, digits, nd = _digit_words(d)
    # The layout row, computed in k's place.
    k += 4
    k += np.signbit(x) * _LAYOUT_EXPONENTS
    k *= 17
    k += nd
    k -= 1
    text = _tables()[1].take(k, axis=0)
    text[:, 0] += lead
    for place, chunk in enumerate(digits, start=1):
        text[:, place] += chunk
    return text


def _format_block(block: np.ndarray, row_format: str) -> bytes:
    """The "%.17g" text of a float64 block, each cell followed by a space or,
    at the end of a row, a newline. A block with a cell that ``_decimal``
    leaves out goes through *row_format*, one "%.17g" per column."""
    words = _text_words(block.reshape(-1)) if block.size else None
    if words is None:
        return "".join(row_format % tuple(row) for row in block.tolist()).encode("ascii")
    text = words.view(np.uint8).reshape(block.shape + (40,))
    text[:, -1, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def _ascii_grid_chunks(raster: Raster):
    """Yield the Arc/Info ASCII grid bytes: the header, then row blocks of
    :func:`_share` of the grid's cells (top row first)."""
    yield (
        f"ncols {raster.ncols}\n"
        f"nrows {raster.nrows}\n"
        f"xllcorner {fmt(raster.origin[0])}\n"
        f"yllcorner {fmt(raster.origin[1])}\n"
        f"cellsize {fmt(raster.cell_size)}\n"
        f"NODATA_value {fmt(raster.nodata)}\n"
    ).encode("ascii")
    row_format = " ".join(["%.17g"] * raster.ncols) + "\n"
    cells = _share(raster.nrows * raster.ncols, _WRITE_CELLS, _MAX_WRITE_CELLS)
    for rows in _row_blocks(raster.nrows, raster.ncols, cells):
        yield _format_block(np.asarray(raster.values[rows], dtype=np.float64), row_format)


def format_ascii_grid(raster: Raster) -> str:
    """Serialize to Arc/Info ASCII grid text (top row first)."""
    return b"".join(_ascii_grid_chunks(raster)).decode("ascii")


# The bytes of a fixed-notation block: digits, points, minus signs and the
# whitespace the reader cuts blocks at, all of which sorts below the rest.
_FIXED_BYTES = b"0123456789.- \t\n\r"


def _fixed_values(text: str):
    """The numbers of *text*, each correctly rounded, when every token is
    fixed notation, -?digits[.digits] with at least one digit; else None.

    A token is read as the integer D of its digits and the count m of its
    fraction digits. With q = fl(D / 10**m), the residual R = D - q * 10**m
    is formed exactly: q * 10**m as a two-product, fl(D) minus its high part
    by Sterbenz's lemma, then the integer D - fl(D). The value D / 10**m is
    q + R / 10**m, and fl(q + c) for c = fl(R / 10**m) is its correct
    rounding when nudging c by 2**-40 of itself, far more than its error,
    either way rounds the sum the same. A token of 19 or more significant
    digits or 22 or more fraction digits, or an exact tie between two
    doubles, also gives None.
    """
    raw = b" " + text.encode("ascii", "replace") + b" "
    if raw.translate(None, _FIXED_BYTES):
        return None
    byte = np.frombuffer(raw, dtype=np.uint8)
    space = byte <= ord(" ")
    # Token k is the bytes start[k] + 1 to end[k].
    edges = np.flatnonzero(space[1:] != space[:-1])
    start, end = edges[::2], edges[1::2]
    neg = byte[start + 1] == ord("-")
    point = np.flatnonzero(byte == ord("."))
    owner = np.searchsorted(end, point)
    points = np.bincount(owner, minlength=start.size)
    if not (
        np.count_nonzero(neg) == np.count_nonzero(byte == ord("-"))
        and points.max() <= 1
        and (end - start - neg - points).min() >= 1
    ):
        return None
    # The fraction digits of a token are the bytes after its point.
    m = np.zeros(start.size, dtype=np.intp)
    m[owner] = end[owner] - point
    # A token too long for int64 reads as 2**63 - 1, so one bound covers it.
    d = np.fromstring(raw.translate(None, b".-"), dtype=np.int64, sep=" ")
    if m.max() >= _POW10.size or d.max() >= 10**18:
        return None
    scale = _POW10.take(m)
    fd = d.astype(np.float64)
    q = fd / scale
    high, low = _exact_product(q, m)
    c = ((fd - high) - low + (d - fd.astype(np.int64))) / scale
    value = q + c * (1 - 2**-40)
    if not np.array_equal(value, q + c * (1 + 2**-40)):
        return None
    # The two sums agree, so each is fl(q + c).
    return np.negative(value, out=value, where=neg)


def _parse_values(text: str) -> np.ndarray:
    """The whitespace-separated numbers of *text*: ``_fixed_values`` when it
    can read them, else numpy's C parser."""
    values = _fixed_values(text)
    if values is not None:
        return values
    try:
        # loadtxt reads one row per item, so the line breaks become spaces and
        # the whole block is a single row.
        return np.loadtxt([text.replace("\n", " ")], comments=None, ndmin=1)
    except ValueError:
        raise FormatError("non-numeric cell value in grid body") from None


def _read_ascii_grid(fh, size: int) -> Raster:
    """Read an ASCII grid from a text stream of *size* characters or fewer.

    The body is parsed in blocks of :func:`_share` of *size* characters,
    each cut after its last space, tab or newline, into an array allocated
    from the header, so memory is bounded by the grid plus one block. Any
    other whitespace still separates values; it just ends no block.
    """
    header: dict[str, float] = {}
    expected = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
    line = ""
    while len(header) < 6:
        # A header line is a keyword and a number; the bound keeps a long
        # first body line out of memory.
        line = fh.readline(256)
        parts = line.split()
        if len(parts) != 2 or parts[0].lower() not in expected:
            break
        key = parts[0].lower()
        if key in header:
            raise FormatError(f"line {len(header) + 1}: repeated key {parts[0]!r}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            bad = line.rstrip("\n")
            raise FormatError(f"bad header value in line {bad!r}") from None
        line = ""
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise FormatError(f"missing header field: {key}")
    if not all(header[key] >= 0 and header[key].is_integer() for key in ("ncols", "nrows")):
        raise FormatError(
            f"ncols and nrows must be non-negative integers, got "
            f"{fmt(header['ncols'])} and {fmt(header['nrows'])}"
        )
    for key in ("xllcorner", "yllcorner", "cellsize"):
        if not np.isfinite(header[key]):
            raise FormatError(f"{key} must be finite, got {fmt(header[key])}")
    if not header["cellsize"] > 0:
        raise FormatError(f"cellsize must be positive, got {fmt(header['cellsize'])}")
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    total = nrows * ncols
    # Every value takes at least one character, so a header promising more
    # than that cannot be right; checking first keeps the allocation bounded.
    if total > size:
        raise FormatError(
            f"header promises {total} values, more than {size} characters can hold"
        )
    data = np.empty(total)
    count = 0
    tail = line  # the first body line, read while looking for the header
    chars = _share(size, _BLOCK, _MAX_BLOCK)
    while True:
        block = fh.read(chars)
        text = tail + block
        if block:
            cut = max(text.rfind(" "), text.rfind("\t"), text.rfind("\n")) + 1
            text, tail = text[:cut], text[cut:]
        if text and not text.isspace():
            values = _parse_values(text)
            end = count + values.size
            if end <= total:
                data[count:end] = values
            count = end
        if not block:
            break
    if count != total:
        raise FormatError(f"grid body holds {count} values, header promises {total}")
    return Raster(
        values=data.reshape(nrows, ncols),
        cell_size=header["cellsize"],
        origin=(header["xllcorner"], header["yllcorner"]),
        nodata=header.get("nodata_value", NODATA),
    )


def parse_ascii_grid(text: str) -> Raster:
    """Parse Arc/Info ASCII grid text into a float64 raster.

    Body values may be laid out with any whitespace: one grid row per line or
    wrapped anywhere, with CRLF or LF line ends.
    """
    return _read_ascii_grid(io.StringIO(text, newline=None), len(text))


def load_ascii_grid(path) -> Raster:
    """Read an Arc/Info ASCII grid file; see :func:`parse_ascii_grid`."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_ascii_grid(fh, os.fstat(fh.fileno()).st_size)


def save_ascii_grid(raster: Raster, path) -> None:
    """Write the grid one row block at a time, of :func:`_share` of its
    cells, so memory is bounded by one block of at most ``_MAX_WRITE_CELLS``
    cells (about 1 MB)."""
    with open(path, "wb") as fh:
        fh.writelines(_ascii_grid_chunks(raster))


def _whole(value, least: float, message: str) -> int:
    """*value* as an int if it is a float-finite whole number >= *least*, else ValueError(*message*)."""
    if not (least <= value <= np.finfo(float).max and value % 1 == 0):
        raise ValueError(message)
    return int(value)


def _image_size(image_size) -> tuple[int, int]:
    """(width, height) as ints, each positive whole pixels by :func:`_whole`."""
    w, h = image_size
    message = f"image size must be positive whole pixels, got {w} x {h}"
    return _whole(w, 1, message), _whole(h, 1, message)


def _row_blocks(nrows: int, ncols: int, cells: int | None = None) -> list[slice]:
    """Split a frame into slices of whole rows, each about *cells* cells
    (``_BLOCK_CELLS`` by default) and at least one row."""
    step = max(1, (cells or _BLOCK_CELLS) // max(ncols, 1))
    return [slice(start, min(start + step, nrows)) for start in range(0, nrows, step)]


def interpolate(raster: Raster, fx, fy, clamp: bool = True):
    """Bilinearly interpolate a raster at fractional (column, row) indices.

    Index (0, 0) is the center of the top-left cell. With clamp=True indices
    outside the grid are clamped to the border cells; otherwise indices more
    than half a cell outside return the nodata sentinel. A neighbor that fails
    :func:`valid_cells` (written out here, as its finite mask is reused) yields
    nodata if its weight is nonzero and is ignored otherwise.
    """
    inside = (fx >= -0.5) & (fx <= raster.ncols - 0.5) & (fy >= -0.5) & (fy <= raster.nrows - 0.5)
    cx = np.clip(fx, 0.0, raster.ncols - 1.0)
    cy = np.clip(fy, 0.0, raster.nrows - 1.0)
    c0 = np.minimum(np.floor(cx).astype(np.intp), max(raster.ncols - 2, 0))
    r0 = np.minimum(np.floor(cy).astype(np.intp), max(raster.nrows - 2, 0))
    c1 = np.minimum(c0 + 1, raster.ncols - 1)
    r1 = np.minimum(r0 + 1, raster.nrows - 1)
    wx = cx - c0
    wy = cy - r0
    v = np.asarray(raster.values, dtype=np.float64)
    bad = False
    terms = []
    for r, c, weight in (
        (r0, c0, (1 - wy) * (1 - wx)),
        (r0, c1, (1 - wy) * wx),
        (r1, c0, wy * (1 - wx)),
        (r1, c1, wy * wx),
    ):
        value = v[r, c]
        finite = np.isfinite(value)
        # A missing neighbor only poisons the sample if it actually
        # contributes; landing exactly on a valid sample next to a hole is
        # fine. A non-finite value is zeroed so that 0 * inf cannot leak NaN.
        bad = bad | (((value == raster.nodata) | ~finite) & (weight > 0))
        terms.append(np.where(finite, value, 0.0) * weight)
    out = terms[0] + terms[1] + terms[2] + terms[3]
    if not clamp:
        bad = bad | ~inside
    return np.where(bad, raster.nodata, out)


def sample_bilinear(raster: Raster, x, y, clamp: bool = True):
    """Bilinearly sample a raster at georeferenced (x, y) positions.

    Cell centers sit half a cell in from the corner, so the value of cell
    (row, col) lives at x = x0 + (col + 0.5) * cell. Clamping and nodata
    follow :func:`interpolate`.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    fx = (x - raster.origin[0]) / raster.cell_size - 0.5
    # Row index grows downward while y grows upward.
    fy = (raster.nrows - 0.5) - (y - raster.origin[1]) / raster.cell_size
    return interpolate(raster, fx, fy, clamp)

"""Gridded rasters with nodata semantics and Arc/Info ASCII grid I/O.

The same container serves digital surface models (georeferenced, cell size in
meters or degrees), image tiles (pixel coordinates, cell size 1), and error
fields. Row 0 of ``values`` is the top row of the grid; the stored origin is
the lower-left corner, matching the ASCII grid header convention.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError
from .kvio import fmt

# The nodata sentinel of rasters made from scratch; derived rasters keep their
# input's sentinel.
NODATA = -9999.0

# Characters of grid body handed to numpy's parser at a time: small enough
# that the text in flight stays well under the grid's own bytes, large enough
# that the per-call cost vanishes.
_BLOCK = 1 << 14

# Cells per row block of the full-frame kernels (``synth.render_image``,
# ``refinement.resample``, ``fusion.fuse_views``): their temporaries stay a
# few MB whatever the frame size.
_BLOCK_CELLS = 1 << 14


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
        if not self.cell_size > 0.0:
            raise ValueError(f"cell size must be strictly positive, got {self.cell_size}")
        self.origin = (float(self.origin[0]), float(self.origin[1]))

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def valid_mask(self) -> np.ndarray:
        return self.values != self.nodata

    def valid_values(self) -> np.ndarray:
        return self.values[self.valid_mask()]

    def like(self, values: np.ndarray) -> "Raster":
        """A new raster sharing this raster's georeference."""
        return replace(self, values=values)


def _ascii_grid_lines(raster: Raster):
    """Yield the Arc/Info ASCII grid text line by line (top row first)."""
    yield (
        f"ncols {raster.ncols}\n"
        f"nrows {raster.nrows}\n"
        f"xllcorner {fmt(raster.origin[0])}\n"
        f"yllcorner {fmt(raster.origin[1])}\n"
        f"cellsize {fmt(raster.cell_size)}\n"
        f"NODATA_value {fmt(raster.nodata)}\n"
    )
    # One "%.17g" per column, applied to a whole row: the bytes of ``fmt``
    # per value, without a Python call per value.
    row_format = " ".join(["%.17g"] * raster.ncols) + "\n"
    for row in raster.values:
        yield row_format % tuple(np.asarray(row, dtype=np.float64).tolist())


def format_ascii_grid(raster: Raster) -> str:
    """Serialize to Arc/Info ASCII grid text (top row first)."""
    return "".join(_ascii_grid_lines(raster))


def _parse_values(text: str) -> np.ndarray:
    """The whitespace-separated numbers of *text*, through numpy's C parser."""
    try:
        # loadtxt reads one row per item, so the line breaks become spaces and
        # the whole block is a single row.
        return np.loadtxt([text.replace("\n", " ")], comments=None, ndmin=1)
    except ValueError:
        raise FormatError("non-numeric cell value in grid body") from None


def _read_ascii_grid(fh, size: int) -> Raster:
    """Read an ASCII grid from a text stream of *size* characters or fewer.

    The body is parsed in blocks of ``_BLOCK`` characters, each cut after its
    last space, tab or newline, into an array allocated from the header, so
    memory is bounded by the grid plus one block. Any other whitespace still
    separates values; it just ends no block.
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
        try:
            header[parts[0].lower()] = float(parts[1])
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
    while True:
        block = fh.read(_BLOCK)
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
    """Write the grid one row at a time, so memory is bounded by a row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_ascii_grid_lines(raster))


def _row_blocks(nrows: int, ncols: int) -> list[slice]:
    """Split a frame into slices of whole rows, each about ``_BLOCK_CELLS``
    cells and at least one row."""
    step = max(1, _BLOCK_CELLS // max(ncols, 1))
    return [slice(start, min(start + step, nrows)) for start in range(0, nrows, step)]


def interpolate(raster: Raster, fx, fy, clamp: bool = True):
    """Bilinearly interpolate a raster at fractional (column, row) indices.

    Index (0, 0) is the center of the top-left cell. With clamp=True indices
    outside the grid are clamped to the border cells; otherwise indices more
    than half a cell outside return the nodata sentinel. A neighbor that is
    nodata, NaN or infinite yields nodata if its weight is nonzero and is
    ignored otherwise.
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

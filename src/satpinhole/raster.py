"""Gridded rasters with nodata semantics and Arc/Info ASCII grid I/O.

The same container serves digital surface models (georeferenced, cell size in
meters or degrees), image tiles (pixel coordinates, cell size 1), and error
fields. Row 0 of ``values`` is the top row of the grid; the stored origin is
the lower-left corner, matching the ASCII grid header convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kvio import fmt


class GridFormatError(ValueError):
    """An ASCII grid document is malformed."""


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
    nodata: float = -9999.0

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


def format_ascii_grid(raster: Raster) -> str:
    """Serialize to Arc/Info ASCII grid text (top row first)."""
    header = (
        f"ncols {raster.ncols}\n"
        f"nrows {raster.nrows}\n"
        f"xllcorner {fmt(raster.origin[0])}\n"
        f"yllcorner {fmt(raster.origin[1])}\n"
        f"cellsize {fmt(raster.cell_size)}\n"
        f"NODATA_value {fmt(raster.nodata)}\n"
    )
    rows = np.asarray(raster.values, dtype=np.float64)
    # One "%.17g" per column, applied to a whole row: the bytes of ``fmt``
    # per value, without a Python call per value.
    row_format = " ".join(["%.17g"] * raster.ncols)
    body = "\n".join(row_format % tuple(row.tolist()) for row in rows)
    return header + body + "\n"


def parse_ascii_grid(text: str) -> Raster:
    """Parse Arc/Info ASCII grid text into a float64 raster."""
    lines = text.splitlines()
    header: dict[str, float] = {}
    idx = 0
    expected = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
    while idx < len(lines) and len(header) < 6:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0].lower() not in expected:
            break
        try:
            header[parts[0].lower()] = float(parts[1])
        except ValueError:
            raise GridFormatError(f"bad header value in line {lines[idx]!r}") from None
        idx += 1
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise GridFormatError(f"missing header field: {key}")
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    body = " ".join(lines[idx:])
    try:
        data = np.array(body.split(), dtype=np.float64)
    except ValueError:
        raise GridFormatError("non-numeric cell value in grid body") from None
    if data.size != nrows * ncols:
        raise GridFormatError(
            f"grid body holds {data.size} values, header promises {nrows * ncols}"
        )
    return Raster(
        values=data.reshape(nrows, ncols),
        cell_size=header["cellsize"],
        origin=(header["xllcorner"], header["yllcorner"]),
        nodata=header.get("nodata_value", -9999.0),
    )


def load_ascii_grid(path) -> Raster:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ascii_grid(fh.read())


def save_ascii_grid(raster: Raster, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_ascii_grid(raster))


def interpolate(raster: Raster, fx, fy, clamp: bool = True):
    """Bilinearly interpolate a raster at fractional (column, row) indices.

    Index (0, 0) is the center of the top-left cell. With clamp=True indices
    outside the grid are clamped to the border cells; otherwise indices more
    than half a cell outside return the nodata sentinel. Any nodata among the
    four neighbors also yields nodata, if its weight is nonzero.
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
    v00 = v[r0, c0]
    v01 = v[r0, c1]
    v10 = v[r1, c0]
    v11 = v[r1, c1]
    w00 = (1 - wy) * (1 - wx)
    w01 = (1 - wy) * wx
    w10 = wy * (1 - wx)
    w11 = wy * wx
    out = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11
    # A nodata neighbor only poisons the sample if it actually contributes;
    # landing exactly on a valid sample next to a hole is fine.
    bad = (
        ((v00 == raster.nodata) & (w00 > 0))
        | ((v01 == raster.nodata) & (w01 > 0))
        | ((v10 == raster.nodata) & (w10 > 0))
        | ((v11 == raster.nodata) & (w11 > 0))
    )
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

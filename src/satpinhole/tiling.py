"""Scene partitioning into uniform overlapping tiles, plus per-tile helpers.

Tiles form a regular grid; when the stride does not divide the image exactly,
the last row/column of tiles is shifted inward instead of shrunk, so every
tile has identical dimensions and the image is covered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .raster import Raster, _image_size, _whole
from .rpc import RpcModel


class Tile(NamedTuple):
    """Pixel-space placement of one tile inside the parent image."""

    col: int
    row: int
    width: int
    height: int


@dataclass(frozen=True)
class TilePlan:
    tiles: tuple[Tile, ...]
    tile_size: tuple[int, int]
    overlap: int
    parent_size: tuple[int, int]


def _axis_starts(extent: int, tile: int, overlap: int) -> list[int]:
    if tile >= extent:
        return [0]
    stride = tile - overlap
    starts = list(range(0, extent - tile + 1, stride))
    if starts[-1] != extent - tile:
        starts.append(extent - tile)
    return starts


def plan_tiles(image_size: tuple[int, int], tile_size: int, overlap: int) -> TilePlan:
    """Lay out identically sized tiles covering the whole image.

    Args:
        image_size: (width, height) of the parent image.
        tile_size: square tile edge length in whole pixels; clamped to the
            image dimensions, so an oversized request yields a single tile.
        overlap: minimum overlap between adjacent tiles in whole pixels;
            must satisfy 0 <= overlap < tile_size.

    Returns:
        TilePlan with tiles ordered row-major (top-left first).
    """
    w, h = _image_size(image_size)
    tile_size = _whole(tile_size, 1, f"tile size must be positive whole pixels, got {tile_size}")
    overlap = _whole(overlap, 0, f"overlap must be non-negative whole pixels, got {overlap}")
    if not overlap < tile_size:
        raise ValueError(f"overlap must satisfy 0 <= overlap < tile_size, got {overlap}")
    tw = min(tile_size, w)
    th = min(tile_size, h)
    cols = _axis_starts(w, tw, overlap)
    rows = _axis_starts(h, th, overlap)
    tiles = tuple(Tile(c, r, tw, th) for r in rows for c in cols)
    return TilePlan(tiles=tiles, tile_size=(tw, th), overlap=overlap, parent_size=(w, h))


def crop_rpc(model: RpcModel, origin: tuple[float, float]) -> RpcModel:
    """Re-anchor a rational model to an image crop.

    Only the pixel offsets change: the crop's (col, row) origin is subtracted
    so that projecting a ground point through the result yields coordinates in
    the cropped image. Ground normalizers and coefficients are untouched.
    """
    return replace(model, samp_off=model.samp_off - float(origin[0]), line_off=model.line_off - float(origin[1]))


def crop_raster(image: Raster, tile: Tile) -> Raster:
    """Extract one tile's pixels (pixel-coordinate raster, origin reset)."""
    sub = image.values[tile.row : tile.row + tile.height, tile.col : tile.col + tile.width]
    return Raster(values=sub.copy(), cell_size=image.cell_size, origin=(0.0, 0.0), nodata=image.nodata)


def enhance_brightness(image: Raster) -> Raster:
    """Conditionally stretch a dark image's histogram.

    If the 95th percentile of valid pixel values exceeds 200, the image is
    returned unchanged. Otherwise values are clipped to their [2nd, 98th]
    percentile range and rescaled linearly to [0, dn_max]. For integer
    rasters the result is rounded half away from zero and dn_max is the dtype
    maximum; floating rasters keep full precision and dn_max is 255.
    """
    valid = image.valid_mask()
    if not valid.any():
        return image
    sample = image.values[valid].astype(np.float64)
    p2, p95, p98 = np.percentile(sample, [2.0, 95.0, 98.0])
    if p95 > 200.0:
        return image
    if p98 <= p2:
        return image
    integral = np.issubdtype(image.values.dtype, np.integer)
    dn_max = float(np.iinfo(image.values.dtype).max) if integral else 255.0

    stretched = (np.clip(image.values.astype(np.float64), p2, p98) - p2) / (p98 - p2) * dn_max
    if integral:
        stretched = np.floor(stretched + 0.5).astype(image.values.dtype)
    out = np.where(valid, stretched, image.values)
    return image.like(out)


def format_manifest(plan: TilePlan, image_paths, rpc_paths) -> str:
    """Serialize a tile layout and its per-tile file paths.

    One line per tile: index, column, row, width, height, image path, RPC
    sidecar path. Paths must be non-empty and free of whitespace, the
    characters ``parse_manifest`` splits lines and fields on.
    """
    if len(image_paths) != len(plan.tiles) or len(rpc_paths) != len(plan.tiles):
        raise ValueError("path list lengths must match the tile count")
    lines = [
        "# index col row width height image rpc",
        f"# parent {plan.parent_size[0]} {plan.parent_size[1]} overlap {plan.overlap}",
    ]
    for i, (tile, img, rpc) in enumerate(zip(plan.tiles, image_paths, rpc_paths)):
        img = str(img)
        rpc = str(rpc)
        for path in (img, rpc):
            if not path or any(c.isspace() for c in path):
                raise ValueError(f"manifest paths must be non-empty without whitespace, got {path!r}")
        lines.append(f"{i} {tile.col} {tile.row} {tile.width} {tile.height} {img} {rpc}")
    return "\n".join(lines) + "\n"


def _parse_parent(parts: list[str], lineno: int) -> tuple[tuple[int, int], int]:
    """The parent size and overlap of a "# parent W H overlap N" line, split
    into words after the "#"."""
    if len(parts) != 5:
        raise FormatError(f"line {lineno}: expected 'parent W H overlap N', got {' '.join(parts)!r}")
    if parts[3] != "overlap":
        raise FormatError(f"line {lineno}: expected 'overlap', got {parts[3]!r}")
    try:
        width, height, overlap = int(parts[1]), int(parts[2]), int(parts[4])
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer parent field") from None
    if width < 1 or height < 1 or overlap < 0:
        raise FormatError(
            f"line {lineno}: a parent needs width, height >= 1 and overlap >= 0, "
            f"got {width} {height} {overlap}"
        )
    return (width, height), overlap


def parse_manifest(text: str):
    """Parse manifest text into (TilePlan, image_paths, rpc_paths).

    Every tile must have the first tile's size and, when the manifest has a
    parent line, lie inside the parent.
    """
    tiles: list[Tile] = []
    tile_lines: list[int] = []
    image_paths: list[str] = []
    rpc_paths: list[str] = []
    parent = (0, 0)
    parent_line = 0
    overlap = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["parent"]:
                if parent_line:
                    raise FormatError(f"line {lineno}: repeated parent line (first on line {parent_line})")
                parent, overlap = _parse_parent(parts, lineno)
                parent_line = lineno
            continue
        parts = line.split()
        if len(parts) != 7:
            raise FormatError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        try:
            idx, col, row, width, height = (int(p) for p in parts[:5])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer geometry field") from None
        if idx != len(tiles):
            raise FormatError(f"line {lineno}: tile index {idx} out of order")
        if col < 0 or row < 0 or width < 1 or height < 1:
            raise FormatError(
                f"line {lineno}: a tile needs col, row >= 0 and width, height >= 1, "
                f"got {col} {row} {width} {height}"
            )
        tiles.append(Tile(col, row, width, height))
        tile_lines.append(lineno)
        image_paths.append(parts[5])
        rpc_paths.append(parts[6])
    if not tiles:
        raise FormatError("manifest contains no tiles")
    size = (tiles[0].width, tiles[0].height)
    for tile, lineno in zip(tiles, tile_lines):
        if (tile.width, tile.height) != size:
            raise FormatError(
                f"line {lineno}: tile size {tile.width} {tile.height} differs from "
                f"the first tile's {size[0]} {size[1]}"
            )
        if parent_line and (tile.col + tile.width > parent[0] or tile.row + tile.height > parent[1]):
            raise FormatError(
                f"line {lineno}: tile {tile.col} {tile.row} {tile.width} {tile.height} "
                f"reaches past the parent of {parent[0]} {parent[1]}"
            )
    plan = TilePlan(tiles=tuple(tiles), tile_size=size, overlap=overlap, parent_size=parent)
    return plan, image_paths, rpc_paths

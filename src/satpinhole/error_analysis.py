"""Study the pixel error of a pinhole stand-in for an RPC.

The error of interest is the Euclidean pixel distance between a ground
point's rational-model projection and its pinhole projection; its summary
report lives with the fit, in :mod:`satpinhole.equivalence`. Here its spatial
structure over the image is exported as a raster of per-cell means, a size
sweep refits the camera over shrinking crops, and a closed-form first-order
predictor relates the error to depth variation about the mean scene depth.
"""

from __future__ import annotations

import numpy as np

# measure_equivalence_error lives with the fit in equivalence; the name is
# bound here too for the bench, which imports and traces it from this module.
from .equivalence import (
    DEFAULT_GRID_DIMS,
    PinholeCamera,
    VirtualGrid,
    _fit_camera,
    _grid_axes,
    _require_in_front,
    _require_memory,
    _require_same_frame,
    _score,
    _survivors,
    _validation_dims,
    _virtual_grids,
    measure_equivalence_error,
)
from .raster import NODATA, Raster, _image_size, _whole
from .rpc import RpcModel
from .tiling import crop_rpc


def predict_error(x, z_cam, z_mean):
    """First-order pixel error of assuming all points sit at the mean depth.

    Args:
        x: pixel offset from the principal point along the axis of interest.
        z_cam: camera-frame depth of the point, meters.
        z_mean: mean camera-frame depth of the scene, meters.

    Returns:
        Signed predicted error in pixels: -x * (z_cam - z_mean) / z_mean.

    Raises:
        ValueError: if *z_mean* is not finite and positive.
    """
    z_mean = np.float64(z_mean)
    if not (np.isfinite(z_mean) and z_mean > 0):
        raise ValueError(f"mean depth must be finite and positive, got {z_mean}")
    x = np.asarray(x, dtype=np.float64)
    z_cam = np.asarray(z_cam, dtype=np.float64)
    return -x * (z_cam - z_mean) / z_mean


def error_field(
    model: RpcModel,
    camera: PinholeCamera,
    image_size: tuple[int, int],
    cell_px: float,
    grid: VirtualGrid | None = None,
) -> Raster:
    """Rasterize the mean projection discrepancy over the image plane.

    A dense staggered grid spanning the full rated volume, with five altitude
    layers, is projected through both models; each point's Euclidean pixel
    error accumulates into the image cell containing its rational-model
    projection. Cells that receive no points are nodata. The dense grid goes
    into the cells one lattice block at a time, so the only frame-sized
    memory is the output and its counts. A map needs no minimum number of
    nodes: with none inside the image, every cell is nodata. Each block is
    scored as the fit's validation grid is, by
    :func:`~satpinhole.equivalence._score`.

    Args:
        model: rational polynomial model (the model *grid* was sampled
            from, when *grid* is given).
        camera: its pinhole stand-in.
        image_size: (width, height) in pixels.
        cell_px: edge length of the square aggregation cells, pixels;
            finite and positive.
        grid: optional explicit correspondence grid to aggregate instead. Its
            rational projections come from ``grid.pixels``, which must be
            *model*'s projections, as ``build_virtual_grid`` makes them.

    Returns:
        Raster in image coordinates: origin (0, 0), cell_size == cell_px.

    Raises:
        ValueError: if *cell_px* is not finite and positive, *image_size* is
            not whole positive pixels, or *grid* is in another ENU frame.
        MemoryError: if the map's sums and counts (16 bytes a cell) could
            outgrow physical memory.
        DecompositionError: if any node lies at or behind the camera, where
            the pinhole projection is a mirror image.
    """
    if not (np.isfinite(cell_px) and cell_px > 0):
        raise ValueError(f"cell size must be finite and positive, got {cell_px}")
    w, h = _image_size(image_size)
    nbytes = 16 * (w / float(cell_px) + 1) * (h / float(cell_px) + 1)  # floats: inf past their range
    _require_memory(nbytes, f"a {w} x {h} px map of {cell_px:g} px cells holds up to {nbytes:.3g} bytes")
    if grid is None:
        n_side = int(np.clip(2 * int(np.ceil(max(w, h) / cell_px)), 8, 256))
        axes = _grid_axes(model, (n_side, n_side, 5), True)
        blocks = (block for (block,) in _survivors([(model, (w, h))], axes, camera.anchor))
        points = n_side * n_side * 5
    else:
        _require_same_frame(camera, grid)
        blocks = [(grid.pixels, grid.enu, None)]
        points = grid.n_points

    # np.add.at adds each point to its cell in input order, as bincount
    # does, so streaming the blocks changes no bit of the means.
    ncols = int(np.ceil(w / cell_px))
    nrows = int(np.ceil(h / cell_px))
    total = np.zeros(nrows * ncols)
    count = np.zeros(nrows * ncols, dtype=np.int32 if points < 2**31 else np.int64)
    behind = 0
    for pixels, enu, _ in blocks:
        block_behind, residual = _score(camera, enu)
        behind += block_behind
        np.subtract(pixels.T, residual, out=residual)
        samp, line = pixels.T
        col = np.clip((samp / cell_px).astype(np.intp), 0, ncols - 1)
        row = np.clip((line / cell_px).astype(np.intp), 0, nrows - 1)
        cells = row * ncols + col
        np.add.at(total, cells, np.hypot(*residual))
        np.add.at(count, cells, count.dtype.type(1))  # a Python 1 would take a slow casting path
    _require_in_front(behind, int(count.sum()), "map")  # each scored node is in one cell
    np.divide(total, count, out=total, where=count > 0)
    total[count == 0] = NODATA
    return Raster(values=total.reshape(nrows, ncols), cell_size=float(cell_px), origin=(0.0, 0.0), nodata=NODATA)


def size_sweep(
    model: RpcModel,
    image_size: tuple[int, int],
    crop_sizes,
):
    """Re-estimate the pinhole camera over centered crops of shrinking size.

    Each crop re-anchors the rational model to the crop origin and reruns the
    full estimation, so the sequence shows how the pinhole approximation
    improves as image extent shrinks. Each row is bit for bit the report of
    ``equate(crop_rpc(model, origin), (cw, ch))``, but the crops share two
    lattice walks, one of the fit grid and one of the validation grid: a
    crop only moves the pixel offsets, so every crop projects the same nodes
    to the same ratios.

    All crop sizes are checked, and each crop's ``crop_rpc`` model and grids
    built, before the first fit: a grid refusal of a later crop comes before
    a fit refusal of an earlier one. The walks and the crop's report read
    that one model.

    Args:
        model: rational polynomial model for the full image.
        image_size: (width, height) of the full image.
        crop_sizes: iterable of square crop edge lengths in whole pixels;
            values are clamped to the image dimensions.

    Returns:
        List of (crop_size, EquivalenceReport), in input order.
    """
    w, h = _image_size(image_size)
    sizes, crops = [], []
    for size in crop_sizes:
        edge = _whole(size, 1, f"crop size must be positive whole pixels, got {size}")
        cw, ch = min(edge, w), min(edge, h)
        sizes.append(size)
        crops.append((crop_rpc(model, ((w - cw) // 2, (h - ch) // 2)), (cw, ch)))
    if not crops:
        return []
    fit_grids = _virtual_grids(crops, DEFAULT_GRID_DIMS)
    val_grids = _virtual_grids(crops, _validation_dims(DEFAULT_GRID_DIMS), stagger=True)
    results = []
    for size, (crop, crop_size), fit_grid, val_grid in zip(sizes, crops, fit_grids, val_grids):
        camera = _fit_camera(fit_grid, crop_size)
        results.append((size, measure_equivalence_error(crop, camera, val_grid)))
    return results


# A compact blue-to-red ramp for previews: (position, r, g, b).
_RAMP = (
    (0.0, 20, 20, 120),
    (0.35, 0, 170, 255),
    (0.65, 255, 220, 0),
    (1.0, 200, 20, 20),
)


def write_field_preview(field: Raster, path) -> None:
    """Write an 8-bit color preview of an error field as binary PPM.

    Valid cells are normalized by the field maximum and mapped through a
    fixed blue-to-red ramp; nodata cells render black.
    """
    values = np.asarray(field.values, dtype=np.float64)
    valid = field.valid_mask()
    top = float(values[valid].max()) if valid.any() else 1.0
    if top <= 0:
        top = 1.0
    norm = np.clip(np.where(valid, values / top, 0.0), 0.0, 1.0)

    positions, *channels = zip(*_RAMP)
    rgb = np.stack([np.interp(norm, positions, channel) for channel in channels], axis=-1)
    rgb[~valid] = 0.0
    data = np.floor(rgb + 0.5).astype(np.uint8)

    header = f"P6\n{field.ncols} {field.nrows}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())

"""Tests for tile planning, cropping, enhancement, and manifests."""

import numpy as np
import pytest

from satpinhole.errors import FormatError
from satpinhole.raster import Raster
from satpinhole.rpc import project_forward
from satpinhole.tiling import (
    Tile,
    crop_raster,
    crop_rpc,
    enhance_brightness,
    format_manifest,
    parse_manifest,
    plan_tiles,
)


# ---------------------------------------------------------------------------
# Tile planning


def test_plan_tiles_shifted_last_column():
    plan = plan_tiles((1000, 1000), 512, 64)
    starts = sorted({t.col for t in plan.tiles})
    assert starts == [0, 448, 488]
    assert sorted({t.row for t in plan.tiles}) == [0, 448, 488]
    assert len(plan.tiles) == 9
    assert all(t.width == 512 and t.height == 512 for t in plan.tiles)
    assert plan.tiles[0] == Tile(0, 0, 512, 512)
    assert plan.tiles[1] == Tile(448, 0, 512, 512)
    assert plan.tiles[-1] == Tile(488, 488, 512, 512)
    assert plan.tile_size == (512, 512)
    assert plan.parent_size == (1000, 1000)


def test_plan_tiles_exact_division():
    plan = plan_tiles((1024, 1024), 512, 0)
    assert len(plan.tiles) == 4
    assert sorted({t.col for t in plan.tiles}) == [0, 512]


def test_plan_tiles_covers_every_pixel():
    w, h = 777, 345
    plan = plan_tiles((w, h), 128, 16)
    hit = np.zeros((h, w), dtype=bool)
    for t in plan.tiles:
        assert t.col >= 0 and t.row >= 0
        assert t.col + t.width <= w and t.row + t.height <= h
        hit[t.row : t.row + t.height, t.col : t.col + t.width] = True
    assert hit.all()


def test_plan_tiles_minimum_overlap():
    plan = plan_tiles((1000, 600), 512, 64)
    cols = sorted({t.col for t in plan.tiles})
    for a, b in zip(cols, cols[1:]):
        assert a + 512 - b >= 64
    rows = sorted({t.row for t in plan.tiles})
    assert rows == [0, 88]


def test_plan_tiles_oversized_tile_clamps():
    plan = plan_tiles((300, 200), 512, 64)
    assert plan.tiles == (Tile(0, 0, 300, 200),)
    assert plan.tile_size == (300, 200)


def test_plan_tiles_validation():
    with pytest.raises(ValueError, match="overlap"):
        plan_tiles((100, 100), 64, 64)
    with pytest.raises(ValueError, match="overlap"):
        plan_tiles((100, 100), 64, -1)
    with pytest.raises(ValueError, match="tile size"):
        plan_tiles((100, 100), 0, 0)
    with pytest.raises(ValueError, match="image size"):
        plan_tiles((0, 100), 64, 8)


# ---------------------------------------------------------------------------
# Cropping


def test_crop_rpc_shifts_pixel_frame(pushbroom_bundle):
    model = pushbroom_bundle.model
    cropped = crop_rpc(model, (100.0, 60.0))
    rng = np.random.default_rng(0)
    lat = rng.uniform(model.lat_off - model.lat_scale, model.lat_off + model.lat_scale, 50)
    lon = rng.uniform(model.lon_off - model.lon_scale, model.lon_off + model.lon_scale, 50)
    alt = rng.uniform(model.alt_off - model.alt_scale, model.alt_off + model.alt_scale, 50)
    samp, line = project_forward(model, lat, lon, alt)
    csamp, cline = project_forward(cropped, lat, lon, alt)
    np.testing.assert_allclose(csamp, samp - 100.0, atol=1e-9)
    np.testing.assert_allclose(cline, line - 60.0, atol=1e-9)


def test_crop_raster_extracts_window():
    values = np.arange(48, dtype=float).reshape(6, 8)
    image = Raster(values=values, cell_size=1.0, origin=(0.0, 0.0))
    tile = Tile(col=2, row=1, width=4, height=3)
    out = crop_raster(image, tile)
    np.testing.assert_array_equal(out.values, values[1:4, 2:6])
    assert out.origin == (0.0, 0.0)
    assert out.values.shape == (3, 4)
    out.values[0, 0] = 999.0
    assert image.values[1, 2] != 999.0


# ---------------------------------------------------------------------------
# Brightness enhancement


def test_enhance_stretches_dark_float_image():
    values = np.arange(101, dtype=float).reshape(101, 1)
    image = Raster(values=values, cell_size=1.0, origin=(0.0, 0.0))
    out = enhance_brightness(image)
    # p2 = 2, p98 = 98; the midpoint value 50 maps to 255 / 2.
    assert out.values[50, 0] == pytest.approx(127.5)
    assert out.values[0, 0] == 0.0
    assert out.values[100, 0] == 255.0
    assert out.values.dtype == np.float64


def test_enhance_leaves_bright_image_alone():
    values = np.arange(256, dtype=np.uint8).reshape(16, 16)
    image = Raster(values=values, cell_size=1.0, origin=(0.0, 0.0))
    out = enhance_brightness(image)
    np.testing.assert_array_equal(out.values, values)


def test_enhance_integer_rounding_and_dtype():
    values = np.array([0] * 50 + [50] + [100] * 50, dtype=np.uint8).reshape(101, 1)
    image = Raster(values=values, cell_size=1.0, origin=(0.0, 0.0))
    out = enhance_brightness(image)
    assert out.values.dtype == np.uint8
    # (50 - 0) / 100 * 255 = 127.5, rounded half away from zero.
    assert out.values[50, 0] == 128
    assert out.values[0, 0] == 0
    assert out.values[-1, 0] == 255


def test_enhance_preserves_nodata():
    values = np.linspace(0.0, 90.0, 64).reshape(8, 8)
    image = Raster(values=values, cell_size=1.0, origin=(0.0, 0.0))
    image.values[3, 3] = image.nodata
    out = enhance_brightness(image)
    assert out.values[3, 3] == image.nodata
    assert (out.values != image.nodata).sum() == 63


def test_enhance_is_monotonic():
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 150.0, size=(32, 32))
    image = Raster(values=values, cell_size=1.0, origin=(0.0, 0.0))
    out = enhance_brightness(image)
    order = np.argsort(values.ravel())
    stretched = out.values.ravel()[order]
    assert (np.diff(stretched) >= 0).all()


def test_enhance_flat_image_unchanged():
    image = Raster(values=np.full((4, 4), 7.0), cell_size=1.0, origin=(0.0, 0.0))
    out = enhance_brightness(image)
    np.testing.assert_array_equal(out.values, image.values)


def test_enhance_all_nodata_unchanged():
    image = Raster(values=np.full((4, 4), -9999.0), cell_size=1.0, origin=(0.0, 0.0))
    out = enhance_brightness(image)
    np.testing.assert_array_equal(out.values, image.values)


# ---------------------------------------------------------------------------
# Manifests


def _demo_plan():
    plan = plan_tiles((1000, 1000), 512, 64)
    images = [f"tiles/tile_{i:03d}.asc" for i in range(len(plan.tiles))]
    rpcs = [f"tiles/tile_{i:03d}.rpc" for i in range(len(plan.tiles))]
    return plan, images, rpcs


def test_manifest_round_trip():
    plan, images, rpcs = _demo_plan()
    text = format_manifest(plan, images, rpcs)
    plan2, images2, rpcs2 = parse_manifest(text)
    assert plan2.tiles == plan.tiles
    assert plan2.tile_size == plan.tile_size
    assert plan2.overlap == plan.overlap
    assert plan2.parent_size == plan.parent_size
    assert images2 == images
    assert rpcs2 == rpcs
    assert format_manifest(plan2, images2, rpcs2) == text


def test_manifest_rejects_spaces_in_paths():
    # Each of these would split the line into other than 7 fields when read.
    for bad in ("my tiles/tile.asc", "", "tiles/a\tb.asc", "tiles/a\nb.asc", "a\u2028b.asc"):
        for column in ("image", "rpc"):
            plan, images, rpcs = _demo_plan()
            (images if column == "image" else rpcs)[1] = bad
            with pytest.raises(ValueError, match="whitespace") as info:
                format_manifest(plan, images, rpcs)
            assert repr(bad) in str(info.value)


def test_manifest_length_mismatch():
    plan, images, rpcs = _demo_plan()
    with pytest.raises(ValueError, match="tile count"):
        format_manifest(plan, images[:-1], rpcs)


def test_parse_manifest_field_count():
    with pytest.raises(FormatError, match="expected 7 fields"):
        parse_manifest("0 0 0 512 512 a.asc\n")


def test_parse_manifest_non_integer():
    with pytest.raises(FormatError, match="non-integer"):
        parse_manifest("0 0 x 512 512 a.asc a.rpc\n")


def test_parse_manifest_non_integer_parent():
    text = "# parent 512 x overlap 0\n0 0 0 512 512 a.asc a.rpc\n"
    with pytest.raises(FormatError, match="line 1: non-integer parent"):
        parse_manifest(text)


def test_parse_manifest_parent_line_needs_the_overlap_word():
    text = "# parent 64 64 bogus 9\n0 0 0 64 64 a.asc a.rpc\n"
    with pytest.raises(FormatError, match="line 1: expected 'overlap', got 'bogus'"):
        parse_manifest(text)


@pytest.mark.parametrize(
    "geometry", ["-5 -3 0 -2", "-1 0 64 64", "0 -1 64 64", "0 0 0 64", "0 0 64 0", "0 0 64 -2"]
)
def test_parse_manifest_rejects_impossible_tiles(geometry):
    text = f"# parent 64 64 overlap 0\n0 {geometry} a.asc a.rpc\n"
    with pytest.raises(FormatError, match="line 2: a tile needs"):
        parse_manifest(text)


def test_parse_manifest_out_of_order_index():
    text = "0 0 0 512 512 a.asc a.rpc\n2 512 0 512 512 b.asc b.rpc\n"
    with pytest.raises(FormatError, match="out of order"):
        parse_manifest(text)


def test_parse_manifest_empty():
    with pytest.raises(FormatError, match="no tiles"):
        parse_manifest("# just a comment\n")


def test_parse_manifest_ignores_blank_lines():
    plan, images, rpcs = _demo_plan()
    text = format_manifest(plan, images, rpcs)
    padded = "\n" + text.replace("\n", "\n\n")
    plan2, _, _ = parse_manifest(padded)
    assert plan2.tiles == plan.tiles


@pytest.mark.parametrize(
    "text, match",
    [
        ("# parent 64 64 overlap\n0 0 0 64 64 a.asc a.rpc\n", "line 1: expected 'parent W H overlap N'"),
        ("# parent -64 0 overlap -3\n0 0 0 64 64 a.asc a.rpc\n", "line 1: a parent needs"),
        ("# parent 64 64 overlap -1\n0 0 0 64 64 a.asc a.rpc\n", "line 1: a parent needs"),
        (
            "# parent 64 64 overlap 0\n# parent 64 64 overlap 0\n0 0 0 64 64 a.asc a.rpc\n",
            "line 2: repeated parent line",
        ),
    ],
    ids=["short", "negative", "negative_overlap", "repeated"],
)
def test_parse_manifest_rejects_a_bad_parent_line(text, match):
    with pytest.raises(FormatError, match=match):
        parse_manifest(text)


def test_parse_manifest_needs_tiles_of_one_size():
    text = "0 0 0 64 64 a.asc a.rpc\n1 0 0 32 32 b.asc b.rpc\n"
    with pytest.raises(FormatError, match="line 2: tile size 32 32 differs"):
        parse_manifest(text)


@pytest.mark.parametrize("tile", ["100 100 64 64", "8 0 64 64", "0 0 64 65"])
def test_parse_manifest_needs_tiles_inside_the_parent(tile):
    text = f"# index col row width height image rpc\n# parent 64 64 overlap 0\n0 {tile} a.asc a.rpc\n"
    with pytest.raises(FormatError, match="line 3: tile .* reaches past the parent"):
        parse_manifest(text)


def test_parse_manifest_keeps_an_overlap_wider_than_the_tile():
    # plan_tiles clamps the tile to the image but keeps the requested overlap.
    plan = plan_tiles((40, 40), 64, 50)
    assert (plan.tile_size, plan.overlap) == ((40, 40), 50)
    assert parse_manifest(format_manifest(plan, ["a.asc"], ["a.rpc"]))[0] == plan

"""End-to-end tests of the command-line interface, run in process."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import satpinhole
from satpinhole import cli, equivalence, raster
from satpinhole.cli import build_parser, main
from satpinhole.equivalence import load_camera, parse_equivalence_report
from satpinhole.raster import load_ascii_grid, save_ascii_grid
from satpinhole.rpc import RpcModel, format_rpc, load_rpc, project_forward, project_lattice, save_rpc
from satpinhole.tiling import parse_manifest


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    rc = main(
        ["synth", "--kind", "pinhole", "--seed", "4", "--out-dir", str(out), "--image-size", "96", "96"]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# Argument and error handling


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_missing_file_reports_io_error(tmp_path, capsys):
    rc = main(["inspect", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: io:")


def test_malformed_rpc_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.rpc"
    bad.write_text("LINE_OFF: 1\n")
    rc = main(["inspect", str(bad)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: parse:")


def _readme_commands(text):
    """Yield every ``satpinhole`` command of the README's fenced blocks as tokens."""
    for block in re.findall(r"^```\w*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line)
            if tokens[:1] == ["satpinhole"]:
                yield tokens


def test_readme_matches_parser():
    parser = build_parser()
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = list(_readme_commands(text))
    assert len(commands) >= 10
    for tokens in commands:
        parser.parse_args(tokens[1:])

    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for sub in subparsers.choices.values() for o in sub._option_string_actions}
    usage = text[text.index("## Quick start") :]
    unknown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage)) - options
    assert not unknown, sorted(unknown)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    from satpinhole.rpc import save_rpc
    from satpinhole.synth import fit_scene_rpc, make_pushbroom_scene

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", text.split("## Library use", 1)[1], flags=re.M | re.S)
    (tmp_path / "scene").mkdir()
    save_rpc(fit_scene_rpc(make_pushbroom_scene(21))[0], tmp_path / "scene" / "rpc.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    before, arrow, after = capsys.readouterr().out.split()
    assert arrow == "->" and 0.0 < float(after) < float(before)


def test_degenerate_grid_reports_category(tmp_path, scene_dir, capsys):
    rc = main(
        [
            "equate",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--camera", str(tmp_path / "cam.txt"),
            "--grid", "1", "1", "1",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: degenerate:")


@pytest.mark.parametrize("size", [("0", "0"), ("-5", "96")], ids=["0x0", "-5x96"])
@pytest.mark.parametrize(
    "command, out_flag", [("equate", "--camera"), ("refine", "--warp"), ("error-map", "--out")]
)
def test_non_positive_image_size_is_invalid(tmp_path, scene_dir, capsys, command, out_flag, size):
    # The size rule comes before error-map's rule that a map is rated in its
    # camera's pixels.
    camera = ["--camera", str(scene_dir / "camera.txt")] if command == "error-map" else []
    rc = main(
        [command, str(scene_dir / "rpc.txt"), "--image-size", *size, out_flag, str(tmp_path / "out.txt"), *camera]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid: image size must be positive")


def test_equate_fits_on_two_altitude_layers(tmp_path, scene_dir):
    rc = main(
        [
            "equate",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--camera", str(tmp_path / "cam.txt"),
            "--grid", "20", "20", "2",
        ]
    )
    assert rc == 0
    assert load_camera(tmp_path / "cam.txt").residual_rms_px < 1e-6


# ---------------------------------------------------------------------------
# synth and inspect


def test_synth_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(
            ["synth", "--kind", "pinhole", "--seed", "6", "--out-dir", str(out), "--image-size", "64", "64"]
        )
        assert rc == 0
    for name in ("rpc.txt", "image.asc", "dsm.asc", "camera.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_pushbroom_camera_file(tmp_path):
    out = tmp_path / "pb"
    rc = main(
        ["synth", "--kind", "pushbroom", "--seed", "6", "--out-dir", str(out), "--image-size", "96", "96"]
    )
    assert rc == 0
    lines = (out / "camera.txt").read_text().splitlines()
    assert lines[0] == "KIND: pushbroom"
    for prefix in ("A: ", "B: ", "C: "):
        row = next(l for l in lines if l.startswith(prefix))
        assert len(row.split(":")[1].split()) == 4
    assert load_rpc(out / "rpc.txt").samp_off == 48.0


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("pushbroom", ["--image-size", "0", "0"]),
        ("pinhole", ["--sensor-height", "0"]),
        ("pushbroom", ["--sensor-height", "inf"]),
        ("pushbroom", ["--relief", "inf"]),
        ("pinhole", ["--extent-deg", "inf"]),
        ("pushbroom", ["--extent-deg", "200"]),
        ("pushbroom", ["--extent-deg", "1e300"]),
        ("pinhole", ["--sensor-height", "1e200"]),
        ("pinhole", ["--sensor-height", "1e300"]),
        ("pinhole", ["--sensor-height", "1e-300"]),
        # Its model's HEIGHT_SCALE would be 10 400 m, past the RPC00B 9999 m.
        ("pushbroom", ["--relief", "13000"]),
    ],
)
def test_synth_rejects_impossible_staging(tmp_path, capsys, kind, flags):
    out = tmp_path / "scene"
    rc = main(["synth", "--kind", kind, "--seed", "6", "--out-dir", str(out), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid:")
    assert len(err.splitlines()) == 1, err
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    # Every shell call of the CLI pays its import; scipy alone cost about
    # half a second of it.
    code = (
        "import satpinhole.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(satpinhole.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_inspect_json_matches_model(scene_dir, capsys):
    rc = main(["inspect", str(scene_dir / "rpc.txt"), "--json"])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    model = load_rpc(scene_dir / "rpc.txt")
    assert info["samp_off"] == model.samp_off
    assert info["lat_scale"] == model.lat_scale
    assert info["samp_den_max"] >= 1.0


def test_inspect_plain_output(scene_dir, capsys):
    rc = main(["inspect", str(scene_dir / "rpc.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "samp_off: 48" in out


def test_inspect_plain_text(tmp_path, capsys):
    model = RpcModel(
        line_off=20.0, samp_off=10.0, lat_off=30.0, lon_off=50.0, alt_off=100.0,
        line_scale=1.0, samp_scale=1.0, lat_scale=0.1, lon_scale=0.1, alt_scale=200.0,
        line_num=np.r_[0.0, 0.0, 4.0, -2.0, np.zeros(16)],
        line_den=np.r_[1.0, np.zeros(19)],
        samp_num=np.r_[0.0, -1 / 3, np.zeros(18)],
        samp_den=np.r_[1.0, np.zeros(18), 0.5],
    )
    save_rpc(model, tmp_path / "rpc.txt")
    assert main(["inspect", str(tmp_path / "rpc.txt")]) == 0
    assert capsys.readouterr().out == (
        "samp_off: 10\n"
        "line_off: 20\n"
        "samp_scale: 1\n"
        "line_scale: 1\n"
        "lat_off: 30\n"
        "lon_off: 50\n"
        "alt_off: 100\n"
        "lat_scale: 0.10000000000000001\n"
        "lon_scale: 0.10000000000000001\n"
        "alt_scale: 200\n"
        "samp_num_max: 0.33333333333333331\n"
        "samp_den_max: 1\n"
        "line_num_max: 4\n"
        "line_den_max: 1\n"
    )


# ---------------------------------------------------------------------------
# equate and refine


def test_equate_writes_camera_and_report(tmp_path, scene_dir, capsys):
    cam_path = tmp_path / "camera.txt"
    rep_path = tmp_path / "report.txt"
    rc = main(
        [
            "equate",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--camera", str(cam_path),
            "--report", str(rep_path),
        ]
    )
    assert rc == 0
    assert "equivalent camera: rmse_px=" in capsys.readouterr().out
    camera = load_camera(cam_path)
    assert camera.image_size == (96, 96)
    report = parse_equivalence_report(rep_path.read_text())
    # The source model is an exact pinhole, so equivalence error is tiny.
    assert report.rmse < 1e-6
    assert report.n_points > 0


def test_refine_writes_all_outputs(tmp_path, scene_dir, capsys):
    paths = {
        "warp": tmp_path / "warp.txt",
        "camera": tmp_path / "cam.txt",
        "before": tmp_path / "before.txt",
        "after": tmp_path / "after.txt",
        "corrected": tmp_path / "corrected.asc",
    }
    rc = main(
        [
            "refine",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--warp", str(paths["warp"]),
            "--camera", str(paths["camera"]),
            "--report-before", str(paths["before"]),
            "--report-after", str(paths["after"]),
            "--image", str(scene_dir / "image.asc"),
            "--corrected", str(paths["corrected"]),
        ]
    )
    assert rc == 0
    assert "refined (polynomial): rmse_px" in capsys.readouterr().out
    for p in paths.values():
        assert p.exists()
    before = parse_equivalence_report(paths["before"].read_text())
    after = parse_equivalence_report(paths["after"].read_text())
    assert after.rmse <= before.rmse + 1e-12
    corrected = load_ascii_grid(paths["corrected"])
    original = load_ascii_grid(scene_dir / "image.asc")
    assert corrected.values.shape == original.values.shape


def test_refine_homography_kind(tmp_path, scene_dir, capsys):
    # refine fits the polynomial warp only: the option that chose a
    # homography is gone, so argparse refuses it before anything is written.
    with pytest.raises(SystemExit):
        main(["refine", "--help"])
    assert "--kind" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(
            [
                "refine",
                str(scene_dir / "rpc.txt"),
                "--image-size", "96", "96",
                "--warp", str(tmp_path / "warp.txt"),
                "--kind", "homography",
            ]
        )
    assert info.value.code == 2
    assert "--kind" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_refine_image_without_corrected(tmp_path, scene_dir, capsys):
    rc = main(
        [
            "refine",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--warp", str(tmp_path / "warp.txt"),
            "--image", str(scene_dir / "image.asc"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid:")


def test_refine_corrected_without_image(tmp_path, scene_dir, capsys):
    warp, corrected = tmp_path / "warp.txt", tmp_path / "corrected.asc"
    rc = main(
        [
            "refine",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--warp", str(warp),
            "--corrected", str(corrected),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid:")
    assert not warp.exists() and not corrected.exists()


@pytest.fixture(scope="module")
def small_tiles(tmp_path_factory):
    """64 px tiles of a 512 px pushbroom scene. Each keeps only a few dozen
    fit nodes, in two or three ground columns, where a quadratic warp
    extrapolates far from the model."""
    out = tmp_path_factory.mktemp("small_tiles")
    assert main(
        ["synth", "--kind", "pushbroom", "--seed", "21", "--out-dir", str(out / "scene"),
         "--image-size", "512", "512", "--extent-deg", "0.16", "--relief", "60"]
    ) == 0
    assert main(
        ["partition", str(out / "scene" / "image.asc"), str(out / "scene" / "rpc.txt"),
         "--out-dir", str(out / "tiles"), "--tile-size", "64", "--overlap", "0"]
    ) == 0
    return out / "tiles"


@pytest.mark.parametrize("tile", ["000", "010", "020"])
def test_refine_refuses_a_warp_that_raises_the_error(tmp_path, small_tiles, capsys, tile):
    outputs = [tmp_path / name for name in ("warp.txt", "cam.txt", "before.txt", "after.txt")]
    rc = main(
        [
            "refine",
            str(small_tiles / f"tile_{tile}.rpc"),
            "--image-size", "64", "64",
            "--warp", str(outputs[0]),
            "--camera", str(outputs[1]),
            "--report-before", str(outputs[2]),
            "--report-after", str(outputs[3]),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate:") and len(err.splitlines()) == 1, err
    before, after = (float(v) for v in re.search(r"from (\S+) to (\S+);", err).groups())
    assert after > 10 * before
    assert not any(path.exists() for path in outputs)


def test_refine_rejects_image_of_another_size(tmp_path, capsys):
    scene = tmp_path / "scene"
    rc = main(["synth", "--kind", "pinhole", "--seed", "4", "--out-dir", str(scene), "--image-size", "512", "512"])
    assert rc == 0
    assert load_ascii_grid(scene / "dsm.asc").values.shape == (129, 129)
    capsys.readouterr()
    warp, corrected = tmp_path / "warp.txt", tmp_path / "corrected.asc"
    rc = main(
        [
            "refine",
            str(scene / "rpc.txt"),
            "--image-size", "512", "512",
            "--warp", str(warp),
            "--image", str(scene / "dsm.asc"),
            "--corrected", str(corrected),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid:")
    assert "129 x 129" in err and "512 x 512" in err
    assert not warp.exists() and not corrected.exists()


def _tally_calls(monkeypatch, fn, tally, amount=lambda *args, **kwargs: 1):
    """Add *amount* of each call of *fn* to ``tally[fn.__name__]``.

    The function is replaced in every package module that binds it, so a
    caller importing it by name is counted too.
    """
    name = fn.__name__

    def counted(*args, **kwargs):
        tally[name] += amount(*args, **kwargs)
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("satpinhole") and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, counted)


def _n_points(model, lat, lon, alt):
    return int(np.broadcast(lat, lon, alt).size)


def _n_nodes(model, lats, lons, alts):
    return np.size(lats) * np.size(lons) * np.size(alts)


def test_refine_fits_once_and_reuses_equate_grids(tmp_path, scene_dir, monkeypatch, capsys):
    calls = {"build_virtual_grid": 0, "solve_projection": 0, "project_forward": 0, "project_lattice": 0}
    _tally_calls(monkeypatch, equivalence.build_virtual_grid, calls)
    _tally_calls(monkeypatch, equivalence.solve_projection, calls)
    _tally_calls(monkeypatch, project_forward, calls, amount=_n_points)
    _tally_calls(monkeypatch, project_lattice, calls, amount=_n_nodes)
    rpc = str(scene_dir / "rpc.txt")
    size = ["--image-size", "96", "96", "--grid", "8", "8", "4"]
    before = tmp_path / "before.txt"
    rc = main(
        ["refine", rpc, *size, "--warp", str(tmp_path / "warp.txt"), "--report-before", str(before)]
    )
    assert rc == 0
    # Only the nodes of the fit grid (8 x 8 x 4) and of the validation grid
    # (16 x 16 x 8) go through the rational model; nothing is projected again.
    assert calls == {
        "build_virtual_grid": 2, "solve_projection": 1, "project_forward": 0, "project_lattice": 256 + 2048,
    }

    report = tmp_path / "report.txt"
    rc = main(["equate", rpc, *size, "--camera", str(tmp_path / "cam.txt"), "--report", str(report)])
    assert rc == 0
    assert before.read_bytes() == report.read_bytes()


def test_error_map_projects_only_its_dense_grid(tmp_path, scene_dir, monkeypatch, capsys):
    rpc = str(scene_dir / "rpc.txt")
    size = ["--image-size", "96", "96"]
    camera = tmp_path / "cam.txt"
    assert main(["equate", rpc, *size, "--camera", str(camera)]) == 0

    calls = {"project_forward": 0, "project_lattice": 0}
    _tally_calls(monkeypatch, project_forward, calls, amount=_n_points)
    _tally_calls(monkeypatch, project_lattice, calls, amount=_n_nodes)
    rc = main(
        ["error-map", rpc, *size, "--camera", str(camera), "--cell", "16", "--out", str(tmp_path / "e.asc")]
    )
    assert rc == 0
    # n_side = 2 * ceil(96 / 16) = 12 nodes per ground axis, 5 altitude layers.
    assert calls == {"project_forward": 0, "project_lattice": 12 * 12 * 5}


@pytest.mark.parametrize("command", ["equate", "refine"])
@pytest.mark.parametrize("scale", ["1e155", "1e307"])
def test_fit_refuses_heights_spread_past_the_float_range(tmp_path, scene_dir, capsys, command, scale):
    # ENU heights of 1e155 m or more would square past the float range where
    # the DLT conditions its points; the model refuses such a height scale
    # first, as past the RPC00B field range.
    text = (scene_dir / "rpc.txt").read_text()
    rpc = tmp_path / "far.rpc"
    rpc.write_text(re.sub(r"(?m)^HEIGHT_SCALE: .*$", f"HEIGHT_SCALE: {scale}", text), encoding="utf-8")
    out = tmp_path / "out.txt"
    flag = {"equate": "--camera", "refine": "--warp"}[command]
    rc = main([command, str(rpc), "--image-size", "96", "96", flag, str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: parse: HEIGHT_SCALE: magnitude must be at most 9999 meters, got {float(scale)}\n"
    assert captured.out == "" and not out.exists()


@pytest.fixture(scope="module")
def pushbroom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pushbroom")
    size = ["--image-size", "96", "96"]
    assert main(["synth", "--kind", "pushbroom", "--seed", "6", "--out-dir", str(out), *size]) == 0
    assert main(["equate", str(out / "rpc.txt"), *size, "--camera", str(out / "equate_camera.txt")]) == 0
    return out


@pytest.mark.parametrize("command", ["equate", "error-map"])
@pytest.mark.parametrize("key", ["HEIGHT_SCALE", "LAT_SCALE", "SAMP_NUM_COEFF_5", "HEIGHT_OFF"])
def test_sidecar_value_no_sensor_can_have_is_a_parse_error(tmp_path, pushbroom_dir, capsys, command, key):
    # 1e308 is past the key's RPC00B field range. It overflowed into numpy
    # warnings (errors in this suite), then a degenerate or decomposition
    # error naming something else, or an empty error map with exit 0.
    text = (pushbroom_dir / "rpc.txt").read_text()
    rpc = tmp_path / "far.rpc"
    rpc.write_text(re.sub(rf"(?m)^{key}: .*$", f"{key}: 1e308", text), encoding="utf-8")
    out = tmp_path / "out"
    flags = {"equate": ["--camera", str(out)],
             "error-map": ["--camera", str(pushbroom_dir / "equate_camera.txt"), "--out", str(out)]}[command]
    rc = main([command, str(rpc), "--image-size", "96", "96", *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: parse: {key}: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# partition


def test_partition_tiles_reconstruct_image(tmp_path, scene_dir, capsys):
    out_dir = tmp_path / "tiles"
    rc = main(
        [
            "partition",
            str(scene_dir / "image.asc"),
            str(scene_dir / "rpc.txt"),
            "--out-dir", str(out_dir),
            "--tile-size", "64",
            "--overlap", "16",
        ]
    )
    assert rc == 0
    assert "wrote 4 tiles" in capsys.readouterr().out

    plan, image_names, rpc_names = parse_manifest((out_dir / "tiles.txt").read_text())
    original = load_ascii_grid(scene_dir / "image.asc")
    assert plan.parent_size == (96, 96)

    rebuilt = np.full(original.values.shape, original.nodata)
    for tile, name in zip(plan.tiles, image_names):
        sub = load_ascii_grid(out_dir / name)
        np.testing.assert_array_equal(
            sub.values,
            original.values[tile.row : tile.row + tile.height, tile.col : tile.col + tile.width],
        )
        rebuilt[tile.row : tile.row + tile.height, tile.col : tile.col + tile.width] = sub.values
    np.testing.assert_array_equal(rebuilt, original.values)

    # Tile models are the parent model re-anchored at each tile origin.
    parent = load_rpc(scene_dir / "rpc.txt")
    tile = plan.tiles[-1]
    sub_model = load_rpc(out_dir / rpc_names[-1])
    lat = np.array([parent.lat_off])
    lon = np.array([parent.lon_off])
    alt = np.array([parent.alt_off])
    ps, pl = project_forward(parent, lat, lon, alt)
    ts, tl = project_forward(sub_model, lat, lon, alt)
    np.testing.assert_allclose(ts, ps - tile.col, atol=1e-9)
    np.testing.assert_allclose(tl, pl - tile.row, atol=1e-9)


def test_partition_enhance_flag(tmp_path, scene_dir, capsys):
    # Darken the rendered image so the conditional stretch actually fires.
    original = load_ascii_grid(scene_dir / "image.asc")
    dark = original.like(
        np.where(original.valid_mask(), original.values * 0.3, original.values)
    )
    dark_path = tmp_path / "dark.asc"
    save_ascii_grid(dark, dark_path)

    out_dir = tmp_path / "tiles"
    rc = main(
        [
            "partition",
            str(dark_path),
            str(scene_dir / "rpc.txt"),
            "--out-dir", str(out_dir),
            "--tile-size", "96",
            "--overlap", "0",
            "--enhance",
        ]
    )
    assert rc == 0
    tile = load_ascii_grid(out_dir / "tile_000.asc")
    assert not np.array_equal(tile.values, dark.values)
    valid = tile.values != tile.nodata
    assert tile.values[valid].max() == pytest.approx(255.0)
    assert (tile.values[~valid] == tile.nodata).all()


def test_partition_enhance_keeps_a_nan_cell_to_itself(tmp_path, scene_dir, capsys):
    # The stretch takes its percentiles from valid cells only, so one NaN
    # cell stays NaN and leaves every other cell stretched.
    original = load_ascii_grid(scene_dir / "image.asc")
    valid = original.valid_mask()
    values = np.where(valid, original.values * 0.3, original.values)
    cells = np.argwhere(valid)
    row, col = cells[len(cells) // 2]
    values[row, col] = np.nan
    dark_path = tmp_path / "dark.asc"
    save_ascii_grid(original.like(values), dark_path)

    out_dir = tmp_path / "tiles"
    argv = ["partition", str(dark_path), str(scene_dir / "rpc.txt"), "--out-dir", str(out_dir)]
    assert main(argv + ["--tile-size", "96", "--overlap", "0", "--enhance"]) == 0
    tile = load_ascii_grid(out_dir / "tile_000.asc")
    assert np.argwhere(np.isnan(tile.values)).tolist() == [[row, col]]
    stretched = tile.valid_mask()
    assert stretched.sum() == valid.sum() - 1
    assert tile.values[stretched].min() == 0.0
    assert tile.values[stretched].max() == pytest.approx(255.0)
    assert (tile.values[~valid] == tile.nodata).all()


# ---------------------------------------------------------------------------
# error-map, fuse, metrics


def test_error_map_outputs(tmp_path, scene_dir, capsys):
    out = tmp_path / "field.asc"
    ppm = tmp_path / "field.ppm"
    rc = main(
        [
            "error-map",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--out", str(out),
            "--camera", str(scene_dir / "camera.txt"),
            "--preview", str(ppm),
        ]
    )
    assert rc == 0
    assert "error map: mean_px=" in capsys.readouterr().out
    field = load_ascii_grid(out)
    assert field.cell_size == 32.0
    assert ppm.read_bytes().startswith(b"P6")


def test_error_map_rejects_infinite_cell(tmp_path, scene_dir, capsys):
    out = tmp_path / "field.asc"
    rc = main(
        [
            "error-map",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--out", str(out),
            "--camera", str(scene_dir / "camera.txt"),
            "--cell", "inf",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid:")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        # 10^6 nodes per axis need 6.9 EiB per projected array.
        ("equate", ["--camera", "{out}", "--grid", "1000000", "1000000", "1000000"]),
        # 1e-7 px cells over a 96 px frame need 6.4 EiB per error grid.
        ("error-map", ["--out", "{out}", "--camera", "{camera}", "--cell", "0.0000001"]),
    ],
)
def test_input_too_big_for_memory_is_invalid(tmp_path, scene_dir, capsys, command, flags):
    # Both sizes lie above any address space and below numpy's 2**63-byte
    # limit, so the allocation fails at once, without touching memory.
    out = tmp_path / "out.txt"
    paths = {"out": str(out), "camera": str(scene_dir / "camera.txt")}
    rc = main(
        [command, str(scene_dir / "rpc.txt"), "--image-size", "96", "96"]
        + [flag.format(**paths) for flag in flags]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cell", ["1e-310", "5e-324"])
def test_error_map_with_cells_past_the_float_range_is_invalid(tmp_path, scene_dir, capsys, cell):
    # 96 px in cells this small is no finite count: taking it as an int
    # overflowed, a traceback with no error line.
    out = tmp_path / "field.asc"
    rc = main(
        ["error-map", str(scene_dir / "rpc.txt"), "--image-size", "96", "96", "--cell", cell, "--out", str(out),
         "--camera", str(scene_dir / "camera.txt")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: a 96 x 96 px map of") and err.count("\n") == 1
    assert not out.exists()


def test_error_map_malformed_camera_size_is_a_parse_error(tmp_path, scene_dir, capsys):
    camera = tmp_path / "camera.txt"
    text = (scene_dir / "camera.txt").read_text()
    camera.write_text(re.sub(r"(?m)^IMAGE_SIZE: .*$", "IMAGE_SIZE: inf 96", text))
    out = tmp_path / "field.asc"
    rc = main(
        [
            "error-map",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--out", str(out),
            "--camera", str(camera),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse: IMAGE_SIZE:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_error_map_non_finite_camera_is_a_parse_error(tmp_path, scene_dir, capsys):
    camera = tmp_path / "camera.txt"
    text = (scene_dir / "camera.txt").read_text()
    camera.write_text(re.sub(r"(?m)^K: \S+", "K: nan", text))
    out = tmp_path / "field.asc"
    rc = main(
        [
            "error-map",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--out", str(out),
            "--camera", str(camera),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse: K:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("K", "0 0 0 0 0 0 0 0 0"), ("R", "1 0 0 0 1 0 0 0 -1")])
def test_error_map_camera_that_is_not_a_camera_is_a_parse_error(tmp_path, scene_dir, capsys, key, value):
    # A zero K divided by zero into a grid of nan cells, and a reflected R
    # gave a 60 px map; both exited 0.
    camera = tmp_path / "camera.txt"
    text = (scene_dir / "camera.txt").read_text()
    camera.write_text(re.sub(rf"(?m)^{key}: .*$", f"{key}: {value}", text))
    out = tmp_path / "field.asc"
    rc = main(
        [
            "error-map",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--out", str(out),
            "--camera", str(camera),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {key}: must be")
    assert err.count("\n") == 1
    assert not out.exists()


def test_error_map_camera_of_another_image_size_is_invalid(tmp_path, scene_dir, capsys):
    out = tmp_path / "field.asc"
    rc = main(
        [
            "error-map",
            str(scene_dir / "rpc.txt"),
            "--image-size", "64", "48",
            "--out", str(out),
            "--camera", str(scene_dir / "camera.txt"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: the camera is for 96 x 96 pixels but the image size is 64 x 48")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("with_grid", [False, True], ids=["no-camera", "grid"])
def test_error_map_rates_only_a_camera_it_is_given(tmp_path, scene_dir, capsys, with_grid):
    # error-map fits no camera: --camera is required, and --grid, which sets
    # the nodes a camera is fit on, is equate's and refine's only.
    argv = ["error-map", str(scene_dir / "rpc.txt"), "--image-size", "96", "96", "--out", str(tmp_path / "field.asc")]
    if with_grid:
        argv += ["--camera", str(scene_dir / "camera.txt"), "--grid", "8", "8", "4"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_error_map_camera_looking_away_is_a_decomposition_error(tmp_path, scene_dir, capsys):
    # diag(1, -1, -1) is a proper rotation, so the camera parses, but every
    # map node lies behind it; the map of mirrored projections exited 0.
    camera = load_camera(scene_dir / "camera.txt")
    flip = np.diag([1.0, -1.0, -1.0])
    flipped = tmp_path / "camera.txt"
    equivalence.save_camera(replace(camera, r=flip @ camera.r, t=flip @ camera.t), flipped)
    out = tmp_path / "field.asc"
    rc = main(
        ["error-map", str(scene_dir / "rpc.txt"), "--image-size", "96", "96", "--out", str(out), "--camera", str(flipped)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: decomposition: cheirality unsatisfiable:")
    assert "map points fall behind the camera" in err and err.count("\n") == 1
    assert not out.exists()


def test_error_map_with_no_node_in_the_image_has_no_valid_cells(tmp_path, scene_dir, capsys):
    # None of the 8 x 8 x 5 map nodes lands in a 1 x 1 image: a map needs
    # no minimum count, so it is written, all nodata.
    camera = tmp_path / "camera.txt"
    text = (scene_dir / "camera.txt").read_text()
    camera.write_text(re.sub(r"(?m)^IMAGE_SIZE: .*$", "IMAGE_SIZE: 1 1", text))
    out = tmp_path / "field.asc"
    rc = main(
        ["error-map", str(scene_dir / "rpc.txt"), "--image-size", "1", "1", "--out", str(out), "--camera", str(camera)]
    )
    assert rc == 0
    assert capsys.readouterr().out == "error map: no valid cells\n"
    field = load_ascii_grid(out)
    assert field.values.shape == (1, 1) and not field.valid_mask().any()


@pytest.mark.parametrize("value", ["nan", "91", "-inf"])
@pytest.mark.parametrize("key", ["ANCHOR_LAT", "ANCHOR_LON"])
def test_error_map_anchor_off_the_globe_is_a_parse_error(tmp_path, scene_dir, capsys, key, value):
    camera = tmp_path / "camera.txt"
    value = "181" if (key, value) == ("ANCHOR_LON", "91") else value
    text = (scene_dir / "camera.txt").read_text()
    camera.write_text(re.sub(rf"(?m)^{key}: .*$", f"{key}: {value}", text))
    out = tmp_path / "field.asc"
    rc = main(
        ["error-map", str(scene_dir / "rpc.txt"), "--image-size", "96", "96", "--out", str(out), "--camera", str(camera)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {key}:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["LINE_NUM_COEFF_3", "SAMP_DEN_COEFF_2"])
def test_equate_non_finite_rpc_coefficient_is_a_parse_error(tmp_path, scene_dir, capsys, key):
    rpc = tmp_path / "rpc.txt"
    rpc.write_text(re.sub(rf"(?m)^{key}: .*$", f"{key}: nan", (scene_dir / "rpc.txt").read_text()))
    camera = tmp_path / "cam.txt"
    rc = main(["equate", str(rpc), "--image-size", "96", "96", "--camera", str(camera)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {key}:")
    assert err.count("\n") == 1
    assert not camera.exists()


def test_equate_model_with_a_pole_in_its_volume_is_degenerate(tmp_path, capsys):
    # The 512x512 seed-21 acceptance model with a denominator coefficient
    # large enough to cross zero inside the rated volume. Past the pole the
    # denominator is negative but not small; the fit must stop there, not
    # run on to a camera with grid points behind it.
    scene = satpinhole.make_pushbroom_scene(21, (512, 512), relief=60, extent_deg=0.16)
    model, _ = satpinhole.fit_scene_rpc(scene)
    rpc = tmp_path / "rpc.txt"
    rpc.write_text(re.sub(r"(?m)^SAMP_DEN_COEFF_3: .*$", "SAMP_DEN_COEFF_3: -2", format_rpc(model)))
    camera = tmp_path / "cam.txt"
    rc = main(["equate", str(rpc), "--image-size", "512", "512", "--camera", str(camera)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate: rational denominator below 1e-10; it must stay positive")
    assert err.count("\n") == 1
    assert not camera.exists()


def test_synth_non_finite_fit_is_degenerate(tmp_path, monkeypatch, capsys):
    # The fitted model's coefficients are checked by fit_rpc, so a failed fit
    # stays a degenerate fit and is not reported as a parse error.
    def lstsq(a, b, rcond=None):
        return np.full(a.shape[1], np.nan), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    out = tmp_path / "scene"
    rc = main(["synth", "--kind", "pinhole", "--seed", "4", "--out-dir", str(out), "--image-size", "32", "32"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate: rational fit along the samp axis is not finite")
    assert not (out / "rpc.txt").exists()


@pytest.mark.parametrize("line", ["cellsize 0", "cellsize nan", "xllcorner inf", "yllcorner -inf"])
def test_metrics_malformed_grid_header_is_a_parse_error(tmp_path, scene_dir, capsys, line):
    key = line.split()[0]
    text = (scene_dir / "dsm.asc").read_text()
    bad = tmp_path / "bad.asc"
    bad.write_text(re.sub(rf"(?m)^{key} .*$", line, text))
    rc = main(["metrics", str(bad), str(scene_dir / "dsm.asc")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {key}")
    assert err.count("\n") == 1


def test_fuse_and_metrics_pipeline(tmp_path, scene_dir, capsys):
    truth = load_ascii_grid(scene_dir / "dsm.asc")
    est = truth.like(np.where(truth.valid_mask(), truth.values + 1.0, truth.values))
    est_path = tmp_path / "est.asc"
    save_ascii_grid(est, est_path)

    fused_path = tmp_path / "fused.asc"
    rc = main(
        [
            "fuse",
            str(est_path), str(est_path), str(scene_dir / "dsm.asc"),
            "--out", str(fused_path),
        ]
    )
    assert rc == 0
    assert "fused 3 views" in capsys.readouterr().out
    fused = load_ascii_grid(fused_path)
    # Two views sit at truth + 1 and one at truth; the MAD gate (floor 0.1,
    # threshold ~0.44) rejects the lone truth sample, leaving truth + 1.
    np.testing.assert_allclose(fused.values, est.values)

    rc = main(
        [
            "metrics",
            str(fused_path),
            str(scene_dir / "dsm.asc"),
            "--thresholds", "0.5", "2",
            "--report", str(tmp_path / "report.txt"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "RMSE_M: 1" in out
    assert "COMP_0.5: 0" in out
    assert "COMP_2: 1" in out
    assert (tmp_path / "report.txt").read_text() == out


def test_main_calls_share_no_state(tmp_path, scene_dir, capsys):
    # main() reuses one parser; an option given to one call must not leak
    # into the next.
    dsm = str(scene_dir / "dsm.asc")
    assert main(["metrics", dsm, dsm, "--thresholds", "0.25"]) == 0
    assert "COMP_0.25: 1" in capsys.readouterr().out
    assert main(["metrics", dsm, dsm]) == 0
    out = capsys.readouterr().out
    assert "COMP_0.25" not in out
    assert all(f"COMP_{t}: 1" in out for t in (1, 2, 5))

    rpc = str(scene_dir / "rpc.txt")
    before = tmp_path / "before.txt"
    first = ["refine", rpc, "--image-size", "96", "96", "--warp", str(tmp_path / "w1.txt")]
    assert main(first + ["--report-before", str(before)]) == 0
    before.unlink()
    assert main(["refine", rpc, "--image-size", "96", "96", "--warp", str(tmp_path / "w2.txt")]) == 0
    assert not before.exists()
    assert (tmp_path / "w1.txt").read_text() == (tmp_path / "w2.txt").read_text()


def test_main_parser_is_built_once():
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def test_fuse_rejects_infinite_radius(tmp_path, scene_dir, capsys):
    out = tmp_path / "fused.asc"
    rc = main(["fuse", str(scene_dir / "dsm.asc"), "--out", str(out), "--radius", "inf"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid:")
    assert not out.exists()


def test_metrics_rejects_nan_threshold(scene_dir, capsys):
    dsm = str(scene_dir / "dsm.asc")
    rc = main(["metrics", dsm, dsm, "--thresholds", "1", "nan"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid:")
    assert captured.out == ""


def test_metrics_rejects_a_repeated_threshold(tmp_path, scene_dir, capsys):
    # Three thresholds that are one float would write COMP_1 three times.
    dsm, report = str(scene_dir / "dsm.asc"), tmp_path / "report.txt"
    rc = main(["metrics", dsm, dsm, "--thresholds", "1", "1", "1.0", "--report", str(report)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: invalid: thresholds must not repeat: 1 is given 3 times\n"
    assert captured.out == "" and not report.exists()


_METRICS_HEAD = "ncols 8\nnrows 8\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"


def test_metrics_refuses_a_statistic_past_the_float_range(tmp_path, capsys):
    # Grids that straddle the float range: each residual is inf.
    far, near, report = tmp_path / "far.asc", tmp_path / "near.asc", tmp_path / "report.txt"
    far.write_text(_METRICS_HEAD + "1e308 " * 64, encoding="utf-8")
    near.write_text(_METRICS_HEAD + "-1e308 " * 64, encoding="utf-8")
    rc = main(["metrics", str(far), str(near), "--report", str(report)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: invalid: cannot report RMSE_M, ME_M, MAE_M: past the float range, with residuals up to inf m\n"
    )
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.out == "" and not report.exists()


@pytest.mark.parametrize(
    "estimate, truth, stat", [("2e154", "0", "2.0000000000000001e+154"), ("1e308", "5e-324", "1e+308")]
)
def test_metrics_reports_statistics_a_float_can_hold(tmp_path, capsys, estimate, truth, stat):
    # Their squares, sums and the median's two middle values pass the float
    # range, but no statistic does: each is reported.
    est, tru, report = tmp_path / "est.asc", tmp_path / "tru.asc", tmp_path / "report.txt"
    est.write_text(_METRICS_HEAD + f"{estimate} " * 64, encoding="utf-8")
    tru.write_text(_METRICS_HEAD + f"{truth} " * 64, encoding="utf-8")
    rc = main(["metrics", str(est), str(tru), "--report", str(report)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == report.read_text(encoding="utf-8") == (
        f"RMSE_M: {stat}\nME_M: {stat}\nMAE_M: {stat}\nN_OVERLAP: 64\nN_TRUTH: 64\n"
        "COMP_1: 0\nCOMP_2: 0\nCOMP_5: 0\n"
    )


def test_metrics_of_grids_with_no_cells_is_a_lattice_error(tmp_path, capsys):
    empty = tmp_path / "z.asc"
    empty.write_text("ncols 0\nnrows 0\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n", encoding="utf-8")
    rc = main(["metrics", str(empty), str(empty)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: lattice: estimate and truth share no valid cell\n"
    assert captured.out == ""


def test_metrics_lattice_mismatch(tmp_path, scene_dir, capsys):
    truth = load_ascii_grid(scene_dir / "dsm.asc")
    other = truth.like(truth.values)
    other.cell_size = truth.cell_size * 2.0
    other_path = tmp_path / "other.asc"
    save_ascii_grid(other, other_path)
    rc = main(["metrics", str(other_path), str(scene_dir / "dsm.asc")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: lattice:")


# Two 2 x 2 grids whose 1e-300 cells make ratios in cell units overflow.
_TINY_GRID = "ncols 2\nnrows 2\nxllcorner {x}\nyllcorner 0\ncellsize 1e-300\nNODATA_value -9999\n1 2\n3 4\n"


def test_fuse_radius_past_the_float_range_in_cells_is_the_whole_grid(tmp_path, capsys):
    # 1e10 is an infinite radius in cells, whose floor overflowed as an int;
    # any radius past the grid's diagonal counts every cell.
    grid = tmp_path / "tiny.asc"
    grid.write_text(_TINY_GRID.format(x=0), encoding="utf-8")
    results = []
    for i, radius in enumerate(["1e10", str(np.hypot(2e-300, 2e-300))]):
        out = tmp_path / f"fused_{i}.asc"
        rc = main(["fuse", str(grid), str(grid), "--radius", radius, "--out", str(out)])
        results.append((rc, out.read_bytes(), capsys.readouterr()))
    assert results[0] == results[1] and results[0][0] == 0


@pytest.mark.parametrize("command", ["fuse", "metrics"])
def test_grids_too_far_apart_to_count_in_cells_are_a_lattice_error(tmp_path, capsys, command):
    # 1e10 apart in 1e-300 cells: the union's extent in cells overflowed as an int.
    near, far, out = tmp_path / "near.asc", tmp_path / "far.asc", tmp_path / "fused.asc"
    near.write_text(_TINY_GRID.format(x=0), encoding="utf-8")
    far.write_text(_TINY_GRID.format(x="1e10"), encoding="utf-8")
    rc = main([command, str(near), str(far)] + (["--out", str(out)] if command == "fuse" else []))
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: lattice:") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_fuse_of_a_union_past_memory_is_invalid(tmp_path, capsys, monkeypatch):
    # Two 2 x 2 grids 600 cells apart on a machine of 1 MiB. Never run this
    # at a real memory size: the allocation succeeds under overcommit and
    # filling it is what runs out.
    monkeypatch.setattr(raster, "_physical_memory", lambda: 1 << 20)
    near, far, out = tmp_path / "near.asc", tmp_path / "far.asc", tmp_path / "fused.asc"
    grid = "ncols 2\nnrows 2\nxllcorner {x}\nyllcorner {x}\ncellsize 1\nNODATA_value -9999\n1 2\n3 4\n"
    near.write_text(grid.format(x=0), encoding="utf-8")
    far.write_text(grid.format(x=600), encoding="utf-8")
    assert main(["fuse", str(near), str(far), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid:") and captured.err.count("\n") == 1
    assert "more than this machine's memory" in captured.err
    assert captured.out == "" and not out.exists()

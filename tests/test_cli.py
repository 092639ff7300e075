"""End-to-end tests of the command-line interface, run in process."""

import json
import sys

import numpy as np
import pytest

from satpinhole import equivalence
from satpinhole.cli import main
from satpinhole.equivalence import load_camera
from satpinhole.error_analysis import parse_equivalence_report
from satpinhole.raster import load_ascii_grid, save_ascii_grid
from satpinhole.rpc import load_rpc, project_forward
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


def test_unknown_config_key_reports_invalid(tmp_path, scene_dir, capsys):
    rpc = str(scene_dir / "rpc.txt")
    size = ["--image-size", "96", "96"]
    commands = {
        "equate": ["equate", rpc, *size, "--camera", str(tmp_path / "cam.txt")],
        "refine": ["refine", rpc, *size, "--warp", str(tmp_path / "warp.txt")],
        "error-map": ["error-map", rpc, *size, "--out", str(tmp_path / "err.asc")],
        "partition": [
            "partition", str(scene_dir / "image.asc"), rpc, "--out-dir", str(tmp_path / "tiles"),
        ],
        "fuse": ["fuse", str(scene_dir / "dsm.asc"), "--out", str(tmp_path / "fused.asc")],
    }
    # (subcommand, config, key the message must name); each value has the
    # wrong type for its field.
    cases = [
        ("equate", {"bogus": 1}, "bogus"),
        ("error-map", {"cell_px": "x"}, "cell_px"),
        ("equate", {"grid_dims": 5}, "grid_dims"),
        ("refine", {"grid_dims": 5}, "grid_dims"),
        ("error-map", {"grid_dims": 5}, "grid_dims"),
        ("equate", {"grid_dims": [8, 8]}, "grid_dims"),
        ("equate", {"grid_dims": [8, 8, 4.5]}, "grid_dims"),
        ("refine", {"warp_kind": 1}, "warp_kind"),
        ("partition", {"tile_size": "64"}, "tile_size"),
        ("partition", {"overlap": True}, "overlap"),
        ("fuse", {"mad_k": "3"}, "mad_k"),
        ("fuse", {"radius": "2"}, "radius"),
        ("fuse", {"min_neighbors": 2.0}, "min_neighbors"),
    ]
    cfg = tmp_path / "cfg.json"
    for command, config, key in cases:
        cfg.write_text(json.dumps(config))
        rc = main([*commands[command], "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1, (command, config)
        assert err.startswith("error: invalid:"), (command, config, err)
        assert key in err, (command, config, err)


def test_config_file_values_apply(tmp_path, scene_dir, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_dims": [8, 8, 4], "cell_px": 48, "radius": None}))
    out = tmp_path / "err.asc"
    rc = main(
        [
            "error-map", str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--out", str(out),
            "--config", str(cfg),
        ]
    )
    assert rc == 0
    assert load_ascii_grid(out).values.shape == (2, 2)


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
    rc = main(
        [
            "refine",
            str(scene_dir / "rpc.txt"),
            "--image-size", "96", "96",
            "--warp", str(tmp_path / "warp.txt"),
            "--kind", "homography",
        ]
    )
    assert rc == 0
    assert "refined (homography)" in capsys.readouterr().out
    assert (tmp_path / "warp.txt").read_text().startswith("KIND: homography")


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


def test_refine_fits_once_and_reuses_equate_grids(tmp_path, scene_dir, monkeypatch, capsys):
    calls = {"build_virtual_grid": 0, "solve_projection": 0, "project_forward": 0}
    _tally_calls(monkeypatch, equivalence.build_virtual_grid, calls)
    _tally_calls(monkeypatch, equivalence.solve_projection, calls)
    _tally_calls(monkeypatch, project_forward, calls, amount=_n_points)
    rpc = str(scene_dir / "rpc.txt")
    size = ["--image-size", "96", "96", "--grid", "8", "8", "4"]
    before = tmp_path / "before.txt"
    rc = main(
        ["refine", rpc, *size, "--warp", str(tmp_path / "warp.txt"), "--report-before", str(before)]
    )
    assert rc == 0
    # Only the nodes of the fit grid (8 x 8 x 4) and of the validation grid
    # (16 x 16 x 8) go through the rational model; nothing is projected again.
    assert calls == {"build_virtual_grid": 2, "solve_projection": 1, "project_forward": 256 + 2048}

    report = tmp_path / "report.txt"
    rc = main(["equate", rpc, *size, "--camera", str(tmp_path / "cam.txt"), "--report", str(report)])
    assert rc == 0
    assert before.read_bytes() == report.read_bytes()


def test_error_map_projects_only_its_dense_grid(tmp_path, scene_dir, monkeypatch, capsys):
    rpc = str(scene_dir / "rpc.txt")
    size = ["--image-size", "96", "96"]
    camera = tmp_path / "cam.txt"
    assert main(["equate", rpc, *size, "--camera", str(camera)]) == 0

    calls = {"project_forward": 0}
    _tally_calls(monkeypatch, project_forward, calls, amount=_n_points)
    rc = main(
        ["error-map", rpc, *size, "--camera", str(camera), "--cell", "16", "--out", str(tmp_path / "e.asc")]
    )
    assert rc == 0
    # n_side = 2 * ceil(96 / 16) = 12 nodes per ground axis, 5 altitude layers.
    assert calls == {"project_forward": 12 * 12 * 5}


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
            "--preview", str(ppm),
        ]
    )
    assert rc == 0
    assert "error map: mean_px=" in capsys.readouterr().out
    field = load_ascii_grid(out)
    assert field.cell_size == 32.0
    assert ppm.read_bytes().startswith(b"P6")


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


def test_metrics_lattice_mismatch(tmp_path, scene_dir, capsys):
    truth = load_ascii_grid(scene_dir / "dsm.asc")
    other = truth.like(truth.values)
    other.cell_size = truth.cell_size * 2.0
    other_path = tmp_path / "other.asc"
    save_ascii_grid(other, other_path)
    rc = main(["metrics", str(other_path), str(scene_dir / "dsm.asc")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: lattice:")

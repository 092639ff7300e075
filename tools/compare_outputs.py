"""Check that two source trees make the same CLI outputs, byte for byte.

Usage:
    python tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. For each, the script
runs one fixed pipeline of ``python -W error -m satpinhole.cli`` commands,
with that tree's ``src`` first on the import path, in a fresh temporary
directory (outside both trees) and with relative paths only:

- a 256 x 256 pushbroom scene (seed 21) through synth, equate, refine,
  error-map (with a saved camera, and with 4 px cells and a PPM preview)
  and partition into 64 px tiles with 8 px overlap;
- equate, refine and error-map on four of its tiles;
- a pinhole synth, inspect with and without --json, fuse of four tile
  images (one pixel frame each, so they stack as four views) with both
  aggregators, and metrics of the fused grid against the scene image;
- a 512 x 512 pushbroom scene through synth, refine --image --corrected,
  fuse of its image and corrected image, and metrics of the fused grid
  against the image: grids of about 4.9 MB, large enough that the text-grid
  reader and writer work in blocks grown with the grid, past their floor.

Each command's stdout, stderr and exit status are compared, then every file
the pipeline left. The script prints each difference and exits 1 if there
is any, 0 otherwise.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIZE = ["--image-size", "256", "256"]
LARGE = ["--image-size", "512", "512"]
TILE_SIZE = ["--image-size", "64", "64"]
TILES = ("000", "005", "010", "020")
FUSED = ["tiles/tile_000.asc", "tiles/tile_001.asc", "tiles/tile_005.asc", "tiles/tile_006.asc"]

PIPELINE = [
    ["synth", "--kind", "pushbroom", "--seed", "21", "--out-dir", "scene", *SIZE,
     "--extent-deg", "0.16", "--relief", "60"],
    ["equate", "scene/rpc.txt", *SIZE, "--camera", "camera.txt", "--report", "report.txt"],
    ["refine", "scene/rpc.txt", *SIZE, "--warp", "warp.txt", "--image", "scene/image.asc",
     "--corrected", "corrected.asc", "--camera", "refine_camera.txt",
     "--report-before", "before.txt", "--report-after", "after.txt"],
    ["error-map", "scene/rpc.txt", *SIZE, "--camera", "camera.txt", "--out", "error_camera.asc"],
    ["error-map", "scene/rpc.txt", *SIZE, "--cell", "4", "--out", "error_cell4.asc",
     "--preview", "error_cell4.ppm"],
    ["partition", "scene/image.asc", "scene/rpc.txt", "--out-dir", "tiles",
     "--tile-size", "64", "--overlap", "8"],
    *(
        command
        for tile in TILES
        for command in (
            ["equate", f"tiles/tile_{tile}.rpc", *TILE_SIZE, "--camera", f"tile_{tile}_camera.txt",
             "--report", f"tile_{tile}_report.txt"],
            ["refine", f"tiles/tile_{tile}.rpc", *TILE_SIZE, "--warp", f"tile_{tile}_warp.txt",
             "--report-before", f"tile_{tile}_before.txt", "--report-after", f"tile_{tile}_after.txt"],
            ["error-map", f"tiles/tile_{tile}.rpc", *TILE_SIZE, "--cell", "8",
             "--out", f"tile_{tile}_error.asc"],
        )
    ),
    ["synth", "--kind", "pinhole", "--seed", "21", "--out-dir", "pinhole", "--image-size", "128", "128"],
    ["inspect", "scene/rpc.txt"],
    ["inspect", "scene/rpc.txt", "--json"],
    ["fuse", *FUSED, "--out", "fused_median.asc", "--min-neighbors", "1"],
    ["fuse", *FUSED, "--out", "fused_mean.asc", "--min-neighbors", "1", "--aggregator", "mean"],
    ["metrics", "fused_median.asc", "scene/image.asc", "--report", "metrics.txt"],
    ["synth", "--kind", "pushbroom", "--seed", "21", "--out-dir", "large", *LARGE,
     "--extent-deg", "0.16", "--relief", "60"],
    ["refine", "large/rpc.txt", *LARGE, "--warp", "large_warp.txt", "--image", "large/image.asc",
     "--corrected", "large_corrected.asc"],
    ["fuse", "large/image.asc", "large_corrected.asc", "--out", "large_fused.asc", "--min-neighbors", "1"],
    ["metrics", "large_fused.asc", "large/image.asc", "--report", "large_metrics.txt"],
]


def run_pipeline(tree: Path, work: Path) -> list[tuple[str, bytes, bytes, int]]:
    """Run PIPELINE in *work* with *tree*'s package; (command, stdout,
    stderr, exit status) of each command."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = []
    for argv in PIPELINE:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "satpinhole.cli", *argv],
            cwd=work, env=env, capture_output=True, check=False,
        )
        results.append((" ".join(argv), proc.stdout, proc.stderr, proc.returncode))
    return results


def files(work: Path) -> dict[str, bytes]:
    return {
        path.relative_to(work).as_posix(): path.read_bytes()
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }


def show(name: str, parent: bytes, change: bytes) -> None:
    """Print the first lines in which two outputs differ."""
    print(f"differs: {name}")
    lines = difflib.unified_diff(
        parent.decode("utf-8", "replace").splitlines(),
        change.decode("utf-8", "replace").splitlines(),
        "parent", "change", lineterm="", n=1,
    )
    for line in list(lines)[:12]:
        print(f"    {line}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    trees = [Path(a) for a in argv]
    with tempfile.TemporaryDirectory() as parent_work, tempfile.TemporaryDirectory() as change_work:
        works = [Path(parent_work), Path(change_work)]
        runs = [run_pipeline(tree, work) for tree, work in zip(trees, works)]
        differences = 0
        for (command, *parent), (_, *change) in zip(*runs):
            for what, a, b in zip(("stdout", "stderr", "exit status"), parent, change):
                if a != b:
                    differences += 1
                    if what == "exit status":
                        print(f"differs: exit status of `{command}`: {a} vs {b}")
                    else:
                        show(f"{what} of `{command}`", a, b)
        parent_files, change_files = (files(work) for work in works)
        for name in sorted(parent_files.keys() | change_files.keys()):
            if name not in parent_files or name not in change_files:
                differences += 1
                print(f"differs: {name} is made by only the {'parent' if name in parent_files else 'change'}")
            elif parent_files[name] != change_files[name]:
                differences += 1
                show(name, parent_files[name], change_files[name])
        failed = sum(code != 0 for *_, code in runs[1])
        print(
            f"{len(PIPELINE)} commands, {len(change_files)} files, {failed} nonzero exits; "
            f"{differences} difference(s)"
        )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

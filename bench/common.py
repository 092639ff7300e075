"""Shared pieces of the benchmark: operation accounting and output readers.

The readers parse the toolkit's text outputs with the benchmark's own code,
so that the correctness checks do not depend on the parsers they check.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from pathlib import Path

import numpy as np


class Ops:
    """Times and counts the operations of one pass.

    Every CLI call and every library call is one operation. A raised
    exception or a nonzero exit status counts as one failure, and the pass
    goes on; the caller gets ``None`` back for a failed operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.steps: dict[str, float] = {}

    def _account(self, step: str, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.steps[step] = self.steps.get(step, 0.0) + seconds

    def call(self, step: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            print(f"bench: {step}: {fn.__name__} failed", file=sys.stderr)
            traceback.print_exc()
            result, ok = None, False
        self._account(step, time.perf_counter() - t0, ok)
        return result

    def cli(self, step: str, argv: list[str]) -> bool:
        from satpinhole import cli

        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                ok = cli.main([str(a) for a in argv]) == 0
        except Exception:  # noqa: BLE001 - an uncategorized error escaping the CLI
            traceback.print_exc()
            ok = False
        self._account(step, time.perf_counter() - t0, ok)
        if not ok:
            print(f"bench: {step}: satpinhole {' '.join(map(str, argv))} failed", file=sys.stderr)
        return ok


def read_grid(path) -> tuple[dict[str, float], np.ndarray]:
    """Read an Arc/Info ASCII grid: (header, values with row 0 on top)."""
    text = Path(path).read_text()
    parts = text.split("\n", 6)
    header = {}
    for line in parts[:6]:
        key, value = line.split()
        header[key.lower()] = float(value)
    values = np.array(parts[6].split(), dtype=np.float64)
    return header, values.reshape(int(header["nrows"]), int(header["ncols"]))


def read_keyed(path) -> dict[str, list[str]]:
    """Read ``KEY: v1 v2 ...`` lines into a dict of token lists."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if ":" in line:
            key, _, rest = line.partition(":")
            out[key.strip()] = rest.split()
    return out

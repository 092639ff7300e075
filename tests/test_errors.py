"""The error taxonomy: one module of exception classes, one CLI category each,
and text parsers that fail only with FormatError."""

import ast
import builtins
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satpinhole
from satpinhole.cli import _category_for
from satpinhole.equivalence import (
    EquivalenceReport,
    PinholeCamera,
    format_camera,
    format_equivalence_report,
    parse_camera,
    parse_equivalence_report,
)
from satpinhole.errors import (
    ConvergenceError,
    DecompositionError,
    DegenerateError,
    FormatError,
    IllConditionedError,
    LatticeError,
)
from satpinhole.geodesy import GeoPoint
from satpinhole.raster import Raster, format_ascii_grid, parse_ascii_grid
from satpinhole.refinement import IDENTITY_COEFFS, PolynomialWarp, format_warp, parse_warp
from satpinhole.rpc import RpcModel, format_rpc, parse_rpc
from satpinhole.tiling import format_manifest, parse_manifest, plan_tiles

PACKAGE = Path(satpinhole.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

CATEGORIES = {
    FormatError: "parse",
    DegenerateError: "degenerate",
    ConvergenceError: "convergence",
    IllConditionedError: "ill-conditioned",
    DecompositionError: "decomposition",
    LatticeError: "lattice",
}


def _base_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_exception_base(name, package_errors):
    if name in package_errors:
        return True
    klass = getattr(builtins, name, None)
    return (
        isinstance(klass, type)
        and issubclass(klass, Exception)
        and not issubclass(klass, Warning)
    )


def test_exception_classes_live_in_errors_module():
    package_errors = {
        node.name
        for node in ast.walk(ast.parse((PACKAGE / "errors.py").read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert package_errors == {klass.__name__ for klass in CATEGORIES}
    strays = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                _is_exception_base(_base_name(base), package_errors) for base in node.bases
            ):
                strays.append(f"{path.name}:{node.lineno} {node.name}")
    assert strays == []


@pytest.mark.parametrize(
    "exc, category",
    [(klass("boom"), word) for klass, word in CATEGORIES.items()]
    + [
        (FileNotFoundError("nope.txt"), "io"),
        (OSError("disk full"), "io"),
        (ValueError("bad argument"), "invalid"),
        (RuntimeError("bug"), None),
        (OverflowError("bug"), None),
        (KeyError("bug"), None),
        (MemoryError("Unable to allocate 6.94 EiB"), "invalid"),
    ],
)
def test_category_for(exc, category):
    assert _category_for(exc) == category


def test_each_class_carries_its_category_word():
    assert {klass: klass.category for klass in CATEGORIES} == CATEGORIES


def test_readme_error_table_lists_every_category():
    section = README.read_text().split("**Errors.**", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    table = {klass.strip(" `"): word.strip(" `") for word, klass in rows}
    expected = {klass.__name__: klass.category for klass in CATEGORIES}
    assert table == {**expected, "OSError": "io", "ValueError": "invalid", "MemoryError": "invalid"}


def _documents():
    rng = np.random.default_rng(0)
    coeffs = {name: rng.normal(scale=0.01, size=20) for name in ("line_num", "line_den", "samp_num", "samp_den")}
    coeffs["line_num"][1] = coeffs["samp_num"][2] = 1.0
    coeffs["line_den"][0] = coeffs["samp_den"][0] = 1.0
    model = RpcModel(
        line_off=48.0, samp_off=48.0, lat_off=30.0, lon_off=40.0, alt_off=100.0,
        line_scale=48.0, samp_scale=48.0, lat_scale=0.01, lon_scale=0.01, alt_scale=50.0,
        **coeffs,
    )
    camera = PinholeCamera(
        k=[[1000.0, 0.0, 48.0], [0.0, 1000.0, 48.0], [0.0, 0.0, 1.0]],
        r=np.eye(3),
        t=[0.0, 0.0, 5.0e5],
        anchor=GeoPoint(30.0, 40.0, 100.0),
        image_size=(96, 96),
        residual_rms_px=0.125,
    )
    report = EquivalenceReport.from_residuals(np.array([0.25, -1.5, 0.75]), np.array([0.1, 0.6, -2.25]))
    plan = plan_tiles((100, 80), 64, 16)
    names = [f"tile_{i:03d}" for i in range(len(plan.tiles))]
    grid = Raster(values=np.arange(12.0).reshape(3, 4), cell_size=10.0, origin=(500.0, 600.0))
    return [
        (format_rpc(model), parse_rpc),
        (format_camera(camera), parse_camera),
        (format_warp(PolynomialWarp(m=np.array(IDENTITY_COEFFS), fit_rms_px=0.5)), parse_warp),
        (format_equivalence_report(report), parse_equivalence_report),
        (format_manifest(plan, [n + ".asc" for n in names], [n + ".rpc" for n in names]), parse_manifest),
        (format_ascii_grid(grid), parse_ascii_grid),
    ]


DOCUMENTS = _documents()
BAD_VALUES = ("inf", "-inf", "nan", "-1", "0", "2.5", "x")


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=st.sampled_from(DOCUMENTS))
def test_damaged_documents_parse_or_raise_format_error(data, case):
    # Damage a document the package wrote: replace one whitespace-separated
    # token (a value, a key or a unit) with a bad number, or drop one line.
    text, parse = case
    parse(text)
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    if data.draw(st.booleans(), label="drop the line"):
        lines[i] = ""
    else:
        tokens = lines[i].split()
        j = data.draw(st.integers(0, len(tokens) - 1), label="token")
        tokens[j] = data.draw(st.sampled_from(BAD_VALUES), label="value")
        lines[i] = " ".join(tokens) + "\n"
    try:
        parse("".join(lines))
    except FormatError:
        pass


@pytest.mark.parametrize("extra", ["junk", "60"])
@pytest.mark.parametrize(
    "key", ["ANCHOR_ALT", "RESIDUAL_RMS_PX", "FIT_RMS_PX", "RMSE_PX", "MAX_ERROR_PX"]
)
def test_one_number_with_an_extra_token_names_key(key, extra):
    # A camera, warp or report value is one number; a second token is damage.
    pattern = re.compile(rf"^{key}: .*$", re.M)
    cases = [(text, parse) for text, parse in DOCUMENTS if pattern.search(text)]
    assert cases
    for text, parse in cases:
        with pytest.raises(FormatError, match=f"^{key}:"):
            parse(pattern.sub(lambda m: f"{m.group(0)} {extra}", text))


@pytest.mark.parametrize(
    "value, message",
    [("-1", "must be non-negative"), ("-inf", "values must be finite"), ("nan", "values must be finite")],
)
@pytest.mark.parametrize(
    "key",
    ["RESIDUAL_RMS_PX", "FIT_RMS_PX", "SAMP_RMSE_PX", "LINE_RMSE_PX", "RMSE_PX", "MAX_ERROR_PX"],
)
def test_pixel_distances_must_be_finite_and_non_negative(key, value, message):
    # Every RMS or maximum pixel distance of a camera, warp or report is one
    # rule, with one message naming the key and quoting its text.
    pattern = re.compile(rf"^{key}: .*$", re.M)
    cases = [(text, parse) for text, parse in DOCUMENTS if pattern.search(text)]
    assert cases
    for text, parse in cases:
        with pytest.raises(FormatError, match=re.escape(f"{key}: {message}, got '{value}'") + "$"):
            parse(pattern.sub(f"{key}: {value}", text))


@pytest.mark.parametrize("key", ["LINE_NUM_COEFF_5", "K", "M", "FIT_RMS_PX", "N_POINTS"])
def test_repeated_key_is_a_parse_error(key):
    # Neither the first nor the last copy of a key may win silently.
    pattern = re.compile(rf"^{key}: .*\n", re.M)
    ((text, parse),) = [(text, parse) for text, parse in DOCUMENTS if pattern.search(text)]
    with pytest.raises(FormatError, match=f"repeated key '{key}'"):
        parse(text + pattern.search(text).group(0))

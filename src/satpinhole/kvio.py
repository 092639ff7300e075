"""Helpers for the plain-text ``KEY: value`` files used across the toolkit.

All writers emit floats with 17 significant digits so that a written file,
parsed and written again, is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def fmt(x: float) -> str:
    """Format a float with enough digits to round-trip exactly."""
    return "%.17g" % float(x)


def read_kv(text: str) -> dict[str, str]:
    """Parse ``KEY: value`` lines into an ordered dict of raw value strings.

    Blank lines and lines starting with ``#`` are skipped. A non-blank line
    without a colon, or a key that appears twice, raises FormatError.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise FormatError(f"line {lineno}: expected 'KEY: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in out:
            raise FormatError(f"line {lineno}: repeated key {key!r}")
        out[key] = value.strip()
    return out


def get_float(kv: dict[str, str], key: str) -> float:
    """Fetch a required value that is exactly one float."""
    return get_floats(kv, key, 1)[0]


def get_floats(kv: dict[str, str], key: str, count: int) -> list[float]:
    """Fetch a required whitespace-separated list of exactly *count* floats."""
    if key not in kv:
        raise FormatError(f"missing required key: {key}")
    tokens = kv[key].split()
    if len(tokens) != count:
        raise FormatError(f"{key}: expected {count} values, got {len(tokens)}")
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise FormatError(f"{key}: non-numeric value {kv[key]!r}") from None


def require_finite(kv: dict[str, str], values: dict[str, object]) -> None:
    """Raise FormatError for the first key whose parsed value is not all finite.

    *values* maps keys of *kv* to the numbers or arrays parsed from them; the
    message quotes the raw text of the offending key.
    """
    for key, value in values.items():
        if not np.all(np.isfinite(value)):
            raise FormatError(f"{key}: values must be finite, got {kv[key]!r}")


def get_distance(kv: dict[str, str], key: str) -> float:
    """Fetch a required pixel distance: one finite, non-negative float."""
    value = get_float(kv, key)
    require_finite(kv, {key: value})
    if value < 0:
        raise FormatError(f"{key}: must be non-negative, got {kv[key]!r}")
    return value


def get_ints(kv: dict[str, str], key: str, count: int) -> list[int]:
    """Fetch a required list of exactly *count* positive integers."""
    values = get_floats(kv, key, count)
    if not all(v >= 1 and v.is_integer() for v in values):
        raise FormatError(f"{key}: expected {count} positive integers, got {kv[key]!r}")
    return [int(v) for v in values]

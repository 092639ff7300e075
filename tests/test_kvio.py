import numpy as np
import pytest

from satpinhole.errors import FormatError
from satpinhole.kvio import fmt, get_float, get_floats, read_kv


def test_fmt_round_trips_doubles():
    values = [0.0, 1.0, -1.5, np.pi, 1e-300, 6378137.0, 1 / 3]
    for v in values:
        assert float(fmt(v)) == v


def test_fmt_is_compact_for_short_decimals():
    assert fmt(185.25) == "185.25"
    assert fmt(2.0) == "2"


def test_read_kv_skips_blanks_and_comments():
    kv = read_kv("\n# comment\nA: 1\n\nB: 2 extra\n")
    assert kv == {"A": "1", "B": "2 extra"}


def test_read_kv_requires_colon():
    with pytest.raises(FormatError):
        read_kv("A 1\n")


def test_read_kv_rejects_a_repeated_key():
    with pytest.raises(FormatError, match=r"line 3: repeated key 'K'"):
        read_kv("K: 1\nA: 2\nK: 3\n")


def test_get_float_reads_exactly_one_number():
    kv = read_kv("LINE_OFF: +512.5\nUNIT: 512.5 pixels\nEMPTY:\n")
    assert get_float(kv, "LINE_OFF") == 512.5
    for key in ("UNIT", "EMPTY"):
        with pytest.raises(FormatError, match=key):
            get_float(kv, key)


def test_get_float_missing_key():
    with pytest.raises(FormatError, match="LINE_OFF"):
        get_float(read_kv("A: 1\n"), "LINE_OFF")


def test_get_floats_count_mismatch():
    kv = read_kv("ROW: 1 2 3\n")
    assert get_floats(kv, "ROW", 3) == [1.0, 2.0, 3.0]
    with pytest.raises(FormatError, match="ROW"):
        get_floats(kv, "ROW", 4)

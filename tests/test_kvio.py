import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satpinhole.errors import FormatError
from satpinhole.kvio import fmt, format_kv, get_float, get_floats, read_file, read_kv, write_file


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


_EDGE_FLOATS = [0.0, -0.0, 1e-300, 5e-324, -1.5, 1 / 3, float("nan"), float("inf"), float("-inf")]


def test_format_kv_writes_each_kind_of_value():
    text = format_kv(
        [
            ("KIND", "polynomial"),
            ("N_POINTS", 2048),
            ("ZERO", -0.0),
            ("TINY", 1e-300),
            ("NAN", float("nan")),
            ("INF", float("inf")),
            ("ROW", np.array([1.0, -2.5, 1 / 3])),
            ("SIZE", (640, 480)),
            ("LINE_OFF", (48.0, "pixels")),
        ]
    )
    assert text == (
        "KIND: polynomial\n"
        "N_POINTS: 2048\n"
        "ZERO: -0\n"
        "TINY: 1e-300\n"
        "NAN: nan\n"
        "INF: inf\n"
        "ROW: 1 -2.5 0.33333333333333331\n"
        "SIZE: 640 480\n"
        "LINE_OFF: 48 pixels\n"
    )


def test_format_kv_round_trips_through_read_kv():
    items = [("KIND", "polynomial"), ("N_POINTS", 2048)]
    items += [(f"F{i}", v) for i, v in enumerate(_EDGE_FLOATS)]
    items += [("ROW", np.array(_EDGE_FLOATS)), ("SIZE", [640, 480])]
    text = format_kv(items)
    kv = read_kv(text)
    assert list(kv) == [key for key, _ in items]
    assert (kv["KIND"], kv["N_POINTS"], kv["SIZE"]) == ("polynomial", "2048", "640 480")
    # Equal bytes: the sign of zero and NaN are kept too.
    expected = np.array(_EDGE_FLOATS).tobytes()
    assert np.array([get_float(kv, f"F{i}") for i in range(len(_EDGE_FLOATS))]).tobytes() == expected
    assert np.array(get_floats(kv, "ROW", len(_EDGE_FLOATS))).tobytes() == expected
    assert format_kv((key, value) for key, value in kv.items()) == text


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
def test_format_kv_float_lists_round_trip(values):
    text = format_kv([("A", values), ("B", values[0])])
    kv = read_kv(text)
    assert np.array(get_floats(kv, "A", len(values))).tobytes() == np.array(values).tobytes()
    assert np.array(get_float(kv, "B")).tobytes() == np.array(values[0]).tobytes()


def test_write_file_is_utf8_with_lf_and_read_file_reads_crlf_as_lf(tmp_path):
    path = tmp_path / "sidecar.txt"
    write_file(path, "UNIT: \u00b5m\nN: 2\n")
    assert path.read_bytes() == "UNIT: \u00b5m\nN: 2\n".encode("utf-8")
    path.write_bytes("UNIT: \u00b5m\r\nN: 2\r\n".encode("utf-8"))
    assert read_file(path) == "UNIT: \u00b5m\nN: 2\n"

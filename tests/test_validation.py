import base64
import json

import numpy as np
import pytest

from negsup.errors import FormatError, IoError
from negsup.validation import array_from_json, json_line, json_lines, read_json, read_lines


class TestReadLines:
    def test_skips_blank_lines_and_keeps_file_numbers(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("\n  \nalpha\n\t\nbeta  \r\ngamma", encoding="utf-8")
        assert list(read_lines(path)) == [(3, "alpha"), (5, "beta  "), (6, "gamma")]

    def test_lines_end_at_lf_or_crlf_only(self, tmp_path):
        path = tmp_path / "f.txt"
        text = "a\u2028b\r\nc\rd\ne\x85f\x0cg\x0bh\x1ci\u2029j\r\n\r\nk\r"
        path.write_bytes(text.encode("utf-8"))
        assert list(read_lines(path)) == [
            (1, "a\u2028b"),
            (2, "c\rd"),
            (3, "e\x85f\x0cg\x0bh\x1ci\u2029j"),
            (5, "k"),
        ]

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            list(read_lines(tmp_path / "nope.txt"))

    def test_invalid_utf8_is_value_error(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(ValueError):
            list(read_lines(path))


class TestJsonLines:
    def test_objects_with_file_line_numbers(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('\n{"a": 1}\n\n{"b": 2}\n')
        assert list(json_lines(path)) == [(2, {"a": 1}), (4, {"b": 2})]

    @pytest.mark.parametrize(
        "line,message",
        [("{bad", "line 3: invalid JSON"), ("[1]", "line 3: expected a JSON object")],
    )
    def test_bad_line_is_named(self, tmp_path, line, message):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n\n' + line + "\n")
        with pytest.raises(FormatError, match=message):
            list(json_lines(path))


class TestReadJson:
    def test_any_json_value(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("[1, 2]")
        assert read_json(path, "vector file") == [1, 2]

    def test_invalid_json_names_the_file_kind(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("{")
        with pytest.raises(FormatError, match="vector file is not valid JSON"):
            read_json(path, "vector file")

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_json(tmp_path / "nope.json", "config file")


def _bits(array):
    return array.view(np.uint64)


class TestArrayJson:
    @pytest.mark.parametrize(
        "array",
        [
            # L = 1: signed zeros, the smallest subnormal, a subnormal, the extremes
            np.array([[-0.0, 0.0, 5e-324, -7.4e-309, 1e308, -1.7976931348623157e308]]),
            np.random.default_rng(3).standard_normal((4, 7)),
            np.random.default_rng(4).standard_normal((7, 4)).T,  # not C-contiguous
        ],
    )
    def test_round_trip_keeps_every_bit(self, array):
        value = json.loads(json_line({"prefix": array}))["prefix"]
        assert value["shape"] == list(array.shape)
        back = array_from_json(value, "prefix")
        assert back.dtype == np.float64 and back.shape == array.shape
        assert np.array_equal(_bits(back), _bits(array))
        assert np.array_equal(_bits(back), _bits(np.array(json.loads(json.dumps(array.tolist())))))

    @pytest.mark.parametrize(
        "value", [np.ones((2, 3), dtype=np.float32), np.ones((2, 3), dtype=int), np.ones(3)]
    )
    def test_other_arrays_are_not_serializable(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_line({"prefix": value})

    GOOD = {"shape": [2, 3], "f64": base64.b64encode(np.ones(6).tobytes()).decode("ascii")}

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"f64": "AAAA*AAA"}, "invalid base64"),
            ({"f64": GOOD["f64"][:-3]}, "invalid base64"),
            ({"f64": base64.b64encode(np.ones(5).tobytes()).decode("ascii")}, "40 bytes"),
            ({"f64": 5}, "invalid base64"),
            ({"shape": [3, 3]}, "needs 72"),
            ({"shape": [6]}, "two positive integers"),
            ({"shape": [0, 3]}, "two positive integers"),
            ({"shape": [2, True]}, "two positive integers"),
            ({"shape": [2.0, 3]}, "two positive integers"),
            ({"f64": base64.b64encode(np.array([1, 2, np.nan, 4, 5, 6.0]).tobytes()).decode()},
             "non-finite"),
            ({"f64": base64.b64encode(np.array([1, 2, 3, 4, 5, -np.inf]).tobytes()).decode()},
             "non-finite"),
            ({"extra": 1}, "object of"),
        ],
    )
    def test_malformed_value_is_a_format_error(self, change, message):
        assert array_from_json(self.GOOD, "prefix").tolist() == [[1.0] * 3] * 2
        with pytest.raises(FormatError, match=f"prefix.*{message}"):
            array_from_json({**self.GOOD, **change}, "prefix")

    @pytest.mark.parametrize("value", [[[1.0, 2.0]], None, "AAAA"])
    def test_not_an_object_is_a_format_error(self, value):
        with pytest.raises(FormatError, match="prefix must be an object"):
            array_from_json(value, "prefix")

import pytest

from negsup.errors import FormatError, IoError
from negsup.validation import json_lines, read_json, read_lines


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

"""The file contract: config values, config JSON, and every file negsup
reads or writes, with OSError raised as IoError.

JSON gives ints, floats, bools and strings alike, and a Python bool is an
int, so the config dataclasses check each field's type before its range.
A wrong type raises ValueError (exit 2 at the CLI) instead of a TypeError
deep in the pipeline or a truthy string silently enabling a stage.

A config dataclass's JSON object is derived from its fields: the key is the
field name unless the field's metadata names another ("key"), and a field
whose metadata holds a dataclass ("config") is that sub-config's object.

Text files are read through read_lines: UTF-8 (other bytes are an
EncodingError naming the file and line), lines ended by "\n" or "\r\n"
only, blank lines skipped, lines numbered as in the file. Every
file is written through write_file, which replaces a file only once the
new one is whole. Both binary formats begin with HEADER (read_header).

A JSON line is written by json_line, which writes a 2-D float64 array as
{"shape": [L, d], "f64": <base64 of its little-endian float64 bytes, row
by row>}, so every bit of every value is kept; array_from_json reads one
back.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import math
import numbers
import os
import secrets
import struct
from typing import Iterable, Iterator

import numpy as np

from .errors import EncodingError, FormatError, IoError


def check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_float(name: str, value, optional: bool = False) -> None:
    """Finite real number (ints included, bools not); None when `optional`."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def check_path(name: str, value) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty path string, got {value!r}")


# --- config JSON ----------------------------------------------------------------


def _json_key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def config_from_json(cls, data, name: str):
    """Build the config dataclass `cls` from its JSON object `data` (`name`
    labels it in errors). Unknown keys and non-object sub-configs are a
    FormatError; a null or absent sub-config is the field's default. Defaults
    and value checks are the dataclass's own."""
    if not isinstance(data, dict):
        raise FormatError(f"{name} must be a JSON object, got {data!r}")
    fields = {_json_key(f): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise FormatError(f"unknown {name} keys: {unknown}")
    kwargs = {}
    for key, value in data.items():
        f = fields[key]
        sub = f.metadata.get("config")
        if sub is not None:
            if value is None:
                continue
            value = config_from_json(sub, value, f"{key} config")
        kwargs[f.name] = value
    return cls(**kwargs)


def config_to_json(config) -> dict:
    """The JSON object of a config dataclass; the inverse of config_from_json."""
    data = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if "config" in f.metadata and value is not None:
            value = config_to_json(value)
        data[_json_key(f)] = value
    return data


# --- files ------------------------------------------------------------------------


def read_bytes(path, size: int = -1) -> bytes:
    """The first `size` bytes of a file, by default all of them."""
    try:
        with open(path, "rb") as fh:
            return fh.read(size)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _read_text(path) -> str:
    """A whole UTF-8 file; bytes that are not UTF-8 are an EncodingError
    that names the file and the line they are on."""
    data = read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise EncodingError(f"{os.fspath(path)}: line {line}: invalid UTF-8: {exc.reason}") from None


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of a UTF-8 text file.

    Lines end at "\n" or "\r\n" only; any other line or paragraph
    separator (a lone "\r", "\x0c", "\x85", U+2028, ...) is part of the line.
    """
    text = _read_text(path)
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if line.strip():
            yield lineno, line


def json_lines(path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file; a
    line that is not a JSON object is a FormatError naming the file and it."""
    for lineno, line in read_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{os.fspath(path)}: line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{os.fspath(path)}: line {lineno}: expected a JSON object")
        yield lineno, obj


def read_json(path, what: str):
    """The JSON value held by a whole file (`what` names the file in errors)."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc


# Binary file header: 4-byte magic, u32 LE version, two u32 LE fields.
HEADER = struct.Struct("<4sIII")


def read_header(data, magic: bytes, version: int, what: str) -> tuple[int, int]:
    """The two fields of the HEADER that begins `data` (bytes or a uint8
    array), once its magic and version are checked; `what` names the file
    when it is too short to hold one."""
    if len(data) < HEADER.size:
        raise FormatError(f"{what} truncated before header")
    got_magic, got_version, first, second = HEADER.unpack_from(data, 0)
    if got_magic != magic:
        raise FormatError(f"bad magic {got_magic!r}")
    if got_version != version:
        raise FormatError(f"unsupported version {got_version}")
    return first, second


def make_directory(path) -> None:
    """Create a directory and its parents, unless it exists."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def write_file(path, chunks: Iterable[bytes]) -> None:
    """Write the byte chunks to `path`. They go to a temporary file beside
    `path` that replaces it only once all are written, so a failure,
    also one raised while `chunks` is iterated, leaves an existing file as
    it was and no partial one behind. A symlink, pipe or device (such as
    /dev/stdout) is written through."""
    path = os.fspath(path)
    try:
        if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
            with open(path, "wb") as fh:
                fh.writelines(chunks)
            return
        directory, name = os.path.split(path)
        tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
        try:
            with open(tmp, "xb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        finally:
            # still there only when a write or the replace failed
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def check_output(path, name: str) -> None:
    """IoError naming `name` (the flag that gave `path`) when write_file
    cannot write `path` because it is a directory or its directory does
    not exist; checked before the work whose output goes there."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IoError(f"{name} {path!r} is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise IoError(f"{name} {path!r}: no directory {directory!r}")


def _encode_array(value):
    """json's `default` hook: a 2-D float64 array as {"shape", "f64"}, else
    json's usual TypeError."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 2:
        data = np.ascontiguousarray(value, dtype="<f8").tobytes()
        return {"shape": list(value.shape), "f64": base64.b64encode(data).decode("ascii")}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_line(obj) -> str:
    """`obj` as one sorted-key JSON line, "\n" included; a 2-D float64
    array in it is written in the form array_from_json reads."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, default=_encode_array) + "\n"


def array_from_json(value, name: str) -> np.ndarray:
    """The float64 array that json_line wrote as `value`. FormatError,
    naming `name`, unless its "shape" is two positive integers and its "f64"
    is valid base64 of exactly that many finite float64 values."""
    if not isinstance(value, dict) or set(value) != {"shape", "f64"}:
        raise FormatError(f'{name} must be an object of "shape" and "f64", got {value!r:.80}')
    shape, payload = value["shape"], value["f64"]
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in shape)
    ):
        raise FormatError(f"{name}: shape must be two positive integers, got {shape!r}")
    try:
        data = base64.b64decode(payload, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise FormatError(f"{name}: invalid base64: {exc}") from None
    if len(data) != shape[0] * shape[1] * 8:
        raise FormatError(
            f"{name}: {len(data)} bytes, but shape {shape} needs {shape[0] * shape[1] * 8}"
        )
    array = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(array).all():
        raise FormatError(f"{name}: non-finite value")
    return array


def write_jsonl(path, objects: Iterable[dict]) -> None:
    """Write each object as a json_line, UTF-8, through write_file."""
    write_file(path, (json_line(obj).encode("utf-8") for obj in objects))

"""Every file negsup writes goes through validation.write_file: the bytes of
each writer, its failures, and a guard that keeps file IO in validation."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from negsup.datastore import build_datastore, save_datastore
from negsup.embedding import write_embedding_file
from negsup.errors import IoError
from negsup.fusion import write_weights_file, xavier_weights
from negsup.pipeline import write_jsonl

SRC = Path(__file__).resolve().parents[1] / "src" / "negsup"

KEYS = ["ключ", "é", "日本語", "a\u00a0b", "\U0001f600", "plain"]


def _vectors(dim):
    rng = np.random.default_rng(17)
    return {key: rng.normal(size=dim) for key in KEYS}


# file name -> writer of that file into a directory, from fixed inputs
WRITERS = {
    "vectors.nese": lambda d: write_embedding_file(d / "vectors.nese", _vectors(5)),
    "vectors.jsonl": lambda d: write_embedding_file(
        d / "vectors.jsonl",
        {**_vectors(3), "edge": [5e-324, 1e308, -0.0], "third": [1 / 3, 0.1, -2.5]},
        format="jsonl",
    ),
    "weights.nesw": lambda d: write_weights_file(d / "weights.nesw", xavier_weights(3, 2, seed=7)),
    "out.jsonl": lambda d: write_jsonl(
        d / "out.jsonl",
        [{"id": key, "score": 1 / 3, "generated": f"{key} \u2028 \"q\"", "n": [1, None]}
         for key in KEYS],
    ),
}

# sha256 of each file as written before write_file existed
GOLDEN = {
    "captions.tsv": "34ee429883e04ccca8cbf8d7270e93d033897811b4a81a1b6fe59c4ea7134fa5",
    "embeddings.nese": "fc55946fdedb6896c8c1f354698e8d99dd370cdbd5b1cf82e99a5b8c8c0f0a63",
    "out.jsonl": "d7d4fa789fa5be1487a023293a08fa9a0eef26f03bc175bde4861771bef76cca",
    "vectors.jsonl": "b7dab6a228a23bc48a920518b2977a7439b678251051c966515dfd203d436eaa",
    "vectors.nese": "f32659e0b574b2aeb00a2038b458983817329f0e9e9130a62f8192a2feed4bac",
    "weights.nesw": "761c56879639155fff41c2f1796acc917a354a41b97caf27025728b084eacb6c",
}


def _save_store(directory):
    vectors = _vectors(4)
    records = [(key, f"{key} caption «{i}»", vectors[key]) for i, key in enumerate(KEYS)]
    save_datastore(build_datastore(records), directory)


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def test_writers_write_the_golden_bytes(tmp_path):
    for write in WRITERS.values():
        write(tmp_path)
    _save_store(tmp_path)
    assert _digests(tmp_path) == GOLDEN


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_replaces_a_file_whole(tmp_path, name):
    (tmp_path / name).write_bytes(b"stale\n" * 1000)
    WRITERS[name](tmp_path)
    assert _digests(tmp_path) == {name: GOLDEN[name]}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_missing_directory_is_io_error(tmp_path, name):
    with pytest.raises(IoError):
        WRITERS[name](tmp_path / "nowhere")
    assert list(tmp_path.iterdir()) == []


def test_store_under_a_file_is_io_error(tmp_path):
    (tmp_path / "file").write_bytes(b"")
    with pytest.raises(IoError):
        _save_store(tmp_path / "file" / "store")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("name", ["vectors.nese", "vectors.jsonl", "weights.nesw"])
def test_symlink_is_written_through(tmp_path, name):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / name
    target.write_bytes(b"old\n")
    (tmp_path / "link").mkdir()
    (tmp_path / "link" / name).symlink_to(target)
    WRITERS[name](tmp_path / "link")
    assert (tmp_path / "link" / name).is_symlink()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[name]
    assert [p.name for p in (tmp_path / "real").iterdir()] == [name]
    assert [p.name for p in (tmp_path / "link").iterdir()] == [name]


# (module file, function) -> the file IO it may do outside validation.py:
# _read_binary reads into a buffer it moves rows within, and _same_file
# compares two paths that need not exist
ALLOWED = {
    ("embedding.py", "_read_binary"): {"open(", "except OSError"},
    ("cli.py", "_same_file"): {"except OSError"},
}


def _file_io(tree):
    """(function, kind) of each open(, os.replace or except OSError in a
    module's syntax tree; function is the innermost def around it."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.add((function, "open("))
            if isinstance(func, ast.Attribute) and func.attr == "open":
                found.add((function, "open("))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "replace"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.add((function, "os.replace"))
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(n, ast.Name) and n.id == "OSError" for n in names):
                found.add((function, "except OSError"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_file_io_stays_in_validation():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "validation.py":
            continue
        for function, kind in _file_io(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault((path.name, function), set()).add(kind)
    assert found == ALLOWED


def test_file_io_guard_sees_each_kind():
    source = (
        "def f():\n"
        "    try:\n"
        "        open('a')\n"
        "        os.replace('a', 'b')\n"
        "    except (ValueError, OSError):\n"
        "        pass\n"
    )
    assert _file_io(ast.parse(source)) == {
        ("f", "open("), ("f", "os.replace"), ("f", "except OSError")
    }

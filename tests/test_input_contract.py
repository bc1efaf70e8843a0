"""The input contract, one row per fault: a bad input to `negsup run`
exits 2 with no traceback, a message that names the file or the field at
fault, and no file written. A fault that set-up can see (an output path,
a config value, a file read before the store) is reported before the
store is loaded and before anything is retrieved."""

import json
import warnings

import pytest

from negsup import cli, pipeline
from negsup.embedding import HashSource, embed_text, write_embedding_file
from negsup.errors import FormatError

CAPTIONS = {
    "c1": "a dog catches a frisbee in the park",
    "c2": "a cat sleeps on a warm mat",
    "c3": "a dog and a cat on the grass",
}

# row -> (options written over BASE_OPTIONS, None removing one; a file the
# row writes first, as (name, bytes); strings the message must hold; the
# calls that must not happen). "{d}" is the row's work directory.
SET_UP = ("load_datastore", "retrieve")
ROWS = {
    "out_in_missing_directory": (
        {"--out": "{d}/out/missing/o.jsonl"}, None, ["--out", "missing"], SET_UP,
    ),
    "out_names_a_directory": ({"--out": "{d}/out"}, None, ["--out", "is a directory"], SET_UP),
    "report_in_missing_directory": (
        {"--report": "{d}/out/missing/r.jsonl"}, None, ["--report", "missing"], SET_UP,
    ),
    "seed_negative": ({"--seed": "-5"}, None, ["seed", "-5"], SET_UP),
    "seed_beyond_64_bits": ({"--seed": str(2**64 + 3)}, None, ["seed", str(2**64 + 3)], SET_UP),
    "no_suppression_config": (
        {"--suppression-strategy": None}, None,
        ["'suppression'", "--suppression-strategy", "--no-as"], SET_UP,
    ),
    "vocab_invalid_utf8": (
        {"--vocab": "{d}/bad.txt"}, ("bad.txt", b"dog\ncat\n\xffmat\n"),
        ["bad.txt", "line 3", "UTF-8"], SET_UP,
    ),
    "config_invalid_utf8": (
        {"--config": "{d}/bad.json"}, ("bad.json", b'{"top_m": 3,\n "mode": "\xff"}\n'),
        ["bad.json", "line 2", "UTF-8"], SET_UP,
    ),
    "caption_blank": (
        {"--input": "{d}/bad.jsonl"}, ("bad.jsonl", b'{"id": "t1", "caption": " \\t "}\n'),
        ["'t1'", '"caption"'], ("retrieve",),
    ),
    "synthetic_key_blank": (
        {"--input": "{d}/bad.jsonl"},
        ("bad.jsonl", b'{"id": "t1", "caption": "a dog", "synthetic_key": ""}\n'),
        ["'t1'", '"synthetic_key"', "blank"], ("retrieve",),
    ),
    "input_invalid_utf8": (
        {"--input": "{d}/bad.jsonl"},
        ("bad.jsonl", b'{"id": "t1", "caption": "a dog"}\n{"id": "t2", "caption": "\xe9"}\n'),
        ["bad.jsonl", "line 2", "UTF-8"], ("retrieve",),
    ),
    "input_invalid_json": (
        {"--input": "{d}/bad.jsonl"},
        ("bad.jsonl", b'{"id": "t1", "caption": "a dog"}\n{"id": "t2", "caption": \n'),
        ["bad.jsonl", "line 2", "invalid JSON"], ("retrieve",),
    ),
    "aux_embeddings_bad_line": (
        {"--aux-embeddings": "{d}/bad_aux.jsonl"},
        ("bad_aux.jsonl", b'{"key": "a", "vector": [1.0, 0.0]}\n{"key": "b", "vector": "x"}\n'),
        ["bad_aux.jsonl", "line 2", "vector"], ("retrieve",),
    ),
    "references_a_number": (
        {"--input": "{d}/bad.jsonl"},
        ("bad.jsonl", b'{"id": "t1", "caption": "a dog"}\n{"id": "t2", "caption": "a cat",'
                      b' "references": 5}\n'),
        ["'t2'", '"references"', "a string or an array of strings"], ("retrieve",),
    ),
    "references_null": (
        {"--input": "{d}/bad.jsonl"},
        ("bad.jsonl", b'{"id": "t1", "caption": "a dog", "references": null}\n'),
        ["'t1'", '"references"', "None"], ("retrieve",),
    ),
    "references_not_strings": (
        {"--mode": "inference", "--input": "{d}/bad.jsonl"},
        ("bad.jsonl", b'{"id": "i1", "image_key": "a dog", "references": ["a dog", 1]}\n'),
        ["'i1'", '"references"', "['a dog', 1]"], ("retrieve",),
    ),
    "synonyms_without_tab": (
        {"--synonyms": "{d}/syn.tsv"}, ("syn.tsv", b"# dog puppy\ndog\tpuppy\n\ncat kitty\n"),
        ["syn.tsv", "line 4", "'cat kitty'", "canonical<TAB>"], SET_UP,
    ),
    "key_missing_from_aux_embeddings": (
        {"--mode": "inference", "--input": "{d}/keyed.jsonl", "--aux-embeddings": "{d}/aux.jsonl"},
        ("keyed.jsonl", b'{"id": "t1", "image_key": "a dog"}\n'),
        ["aux.jsonl", "'t1'", '"image_key"', "'a dog'"], ("retrieve",),
    ),
}

BASE_OPTIONS = {
    "--mode": "training",
    "--store": "{d}/store",
    "--input": "{d}/input.jsonl",
    "--out": "{d}/out/o.jsonl",
    "--vocab": "{d}/vocab.txt",
    "--suppression-strategy": "top-k",
}


@pytest.fixture()
def work(tmp_path):
    """A saved store, a vocabulary, training instances, a key store that
    holds only the key "other" and an empty out/."""
    src = HashSource(dim=16, seed=3)
    (tmp_path / "captions.tsv").write_text("".join(f"{k}\t{v}\n" for k, v in CAPTIONS.items()))
    write_embedding_file(
        tmp_path / "embeddings.nese", {k: embed_text(src, v) for k, v in CAPTIONS.items()}
    )
    assert cli.main(
        ["ingest", "--captions", str(tmp_path / "captions.tsv"),
         "--embeddings", str(tmp_path / "embeddings.nese"), "--out", str(tmp_path / "store")]
    ) == 0
    (tmp_path / "vocab.txt").write_text("dog\ncat\nfrisbee\nmat\ngrass\n")
    (tmp_path / "input.jsonl").write_text(
        "".join(json.dumps({"id": k, "caption": v}) + "\n" for k, v in CAPTIONS.items())
    )
    write_embedding_file(tmp_path / "aux.jsonl", {"other": embed_text(src, "other")}, "jsonl")
    (tmp_path / "out").mkdir()
    return tmp_path


def _tree(directory):
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*"))


def test_base_options_run(work):
    argv = [str(a) for kv in BASE_OPTIONS.items() for a in kv]
    assert cli.main(["run", *(a.format(d=work) for a in argv)]) == 0
    assert (work / "out" / "o.jsonl").exists()


@pytest.mark.parametrize("row", sorted(ROWS))
def test_fault_exits_2_naming_it_before_the_work(work, capsys, monkeypatch, row):
    options, file, names, forbidden = ROWS[row]
    if file is not None:
        (work / file[0]).write_bytes(file[1])
    calls = []
    for module, name in ((cli, "load_datastore"), (pipeline, "retrieve")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a)
        )
    argv = ["run"]
    for option, value in {**BASE_OPTIONS, **options}.items():
        if value is not None:
            argv += [option, value.format(d=work)]
    before = _tree(work)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    for name in names:
        assert name in err
    assert _tree(work) == before
    assert not set(calls) & set(forbidden)


# row -> (layout, the vector of key "a", load_embedding_file's message for
# the file the writer would write)
WRITER_ROWS = {
    "binary_beyond_float32": ("binary", [1e300, 1.0], "non-finite value in vector for 'a'"),
    "binary_zero": ("binary", [0.0, 0.0], "cannot normalize the zero vector for 'a'"),
    "binary_zero_in_float32": ("binary", [1e-50, 1e-50], "cannot normalize the zero vector for 'a'"),
    "jsonl_zero": ("jsonl", [0.0, -0.0], "cannot normalize the zero vector for 'a'"),
}


@pytest.mark.parametrize("row", sorted(WRITER_ROWS))
def test_embedding_writer_rejects_what_the_load_rejects(tmp_path, row):
    layout, vector, message = WRITER_ROWS[row]
    path = tmp_path / "vectors"
    write_embedding_file(path, {"old": [1.0, 0.0]}, format=layout)
    before = path.read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError) as exc:
            write_embedding_file(path, {"b": [0.5, 1.0], "a": vector}, format=layout)
    assert str(exc.value) == message
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["vectors"]


# row -> (the eval subcommand and the flag of the JSON-lines file it reads,
# the file's bytes, strings the message must hold)
EVAL_ROWS = {
    "chair_pred_invalid_json": (
        ["chair", "--pred"],
        b'{"generated": "a dog", "references": ["a dog"]}\n{"generated": \n',
        ["pred.jsonl", "line 2", "invalid JSON"],
    ),
    "chair_pred_without_references": (
        ["chair", "--pred"], b'{"generated": "a dog"}\n', ["pred.jsonl", "line 1", '"references"'],
    ),
    "retrieval_instances_wrong_type": (
        ["retrieval", "--instances"],
        b'{"retrieved": ["a dog"], "references": ["a dog"]}\n{"retrieved": 5, "references": []}\n',
        ["pred.jsonl", "line 2", "'retrieved'"],
    ),
}


@pytest.mark.parametrize("row", sorted(EVAL_ROWS))
def test_eval_fault_exits_2_naming_the_file_and_line(tmp_path, capsys, row):
    (command, flag), data, names = EVAL_ROWS[row]
    (tmp_path / "pred.jsonl").write_bytes(data)
    (tmp_path / "vocab.txt").write_text("dog\ncat\n")
    before = _tree(tmp_path)
    argv = ["eval", command, flag, str(tmp_path / "pred.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    for name in names:
        assert name in err
    assert _tree(tmp_path) == before


# row -> (the --captions file's bytes, strings the message must hold)
INGEST_ROWS = {
    "captions_without_tab": (b"c1\ta dog\nc2 a cat\n", ["caps.tsv", "line 2", "'id<TAB>caption'"]),
    "captions_duplicate_id": (
        b"c1\ta dog\n\nc1\ta cat\n", ["caps.tsv", "line 3", "duplicate id 'c1'"],
    ),
}


@pytest.mark.parametrize("row", sorted(INGEST_ROWS))
def test_ingest_fault_exits_2_naming_the_file_and_line(tmp_path, capsys, row):
    data, names = INGEST_ROWS[row]
    (tmp_path / "caps.tsv").write_bytes(data)
    src = HashSource(dim=8, seed=1)
    write_embedding_file(
        tmp_path / "emb.nese", {k: embed_text(src, k) for k in ("c1", "c2")}
    )
    before = _tree(tmp_path)
    argv = ["ingest", "--captions", str(tmp_path / "caps.tsv"),
            "--embeddings", str(tmp_path / "emb.nese"), "--out", str(tmp_path / "store")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    for name in names:
        assert name in err
    assert _tree(tmp_path) == before

"""The input contract, one row per fault: a bad input to `negsup run`
exits 2 with no traceback, a message that names the file or the field at
fault, and no file written. A fault that set-up can see (an output path,
a config value, a file read before the store) is reported before the
store is loaded and before anything is retrieved."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import negsup
from negsup import cli, pipeline
from negsup.embedding import HashSource, embed_text, write_embedding_file
from negsup.errors import FormatError
from test_run_golden import _inputs_module

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


@pytest.mark.parametrize("mode,field", [("inference", "image_key"), ("training", "synthetic_key")])
def test_key_vector_of_another_width_names_the_instance(work, capsys, monkeypatch, mode, field):
    """The batch's key vectors are checked once, before any retrieval: a
    width other than the store's exits 2 naming the instance, its key field
    and its key."""
    write_embedding_file(work / "aux8.jsonl", {"k1": [1.0] * 8, "k2": [0.5] * 8}, "jsonl")
    lines = [{"id": "t1", "caption": "a dog"}, {"id": "t2", "caption": "a cat", field: "k2"}]
    (work / "keyed.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    calls = []
    real = pipeline.retrieve
    monkeypatch.setattr(pipeline, "retrieve", lambda *a: calls.append(a) or real(*a))
    options = {**BASE_OPTIONS, "--mode": mode, "--input": "{d}/keyed.jsonl",
               "--aux-embeddings": "{d}/aux8.jsonl"}
    if mode == "inference":
        (work / "keyed.jsonl").write_text(
            '{"id": "t1", "image_key": "k1"}\n{"id": "t2", "image_key": "k2"}\n'
        )
    argv = ["run", *(a.format(d=work) for kv in options.items() for a in kv)]
    before = _tree(work)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    first = "t1" if mode == "inference" else "t2"
    assert err.startswith("error: ") and f"'{first}'" in err and f'"{field}"' in err
    assert "dim 8 != store dim 16" in err
    assert _tree(work) == before and calls == []


# `negsup run` in a child whose address space is capped at 1 GiB: argv follows
CAPPED_RUN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from negsup import cli\n"
    "sys.exit(cli.main(['run', *sys.argv[1:]]))\n"
)


def test_huge_prefix_length_exits_2_before_allocating(work):
    """A prefix length whose mapping matrix no memory holds is refused by
    its size, before the matrix is drawn: under a 1 GiB address space the
    run exits 2 naming the length and the limit, and writes no output."""
    (work / "huge.json").write_text('{"prefix_length": 1000000}')
    argv = [a.format(d=work) for kv in BASE_OPTIONS.items() for a in kv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(negsup.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_RUN, *argv, "--config", str(work / "huge.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: ")
    assert "prefix length 1000000 at dim 16 needs a" in proc.stderr
    assert "MiB mapping matrix, over the 512 MiB limit" in proc.stderr
    assert not (work / "out" / "o.jsonl").exists()


@pytest.fixture(scope="module")
def tiny_infer_vocab(tmp_path_factory):
    """The tiny infer-vocab benchmark inputs at seed 5 (perfbench/inputs.py)
    and its module, for its file names."""
    inputs = _inputs_module()
    root = tmp_path_factory.mktemp("tiny")
    inputs.generate(inputs.WORKLOADS["infer-vocab"].tiny(), 5, str(root))
    return root, inputs


def _lines(path):
    return len(path.read_text("utf-8").splitlines())


# row -> (config key, a value past any C integer, the size it acts as)
HUGE_SIZES = {
    "top_m_past_int64": ("top_m", 2**63, lambda d, inputs: _lines(d / inputs.VOCAB_FILE)),
    "retrieval_k_past_int64": (
        "retrieval_k", 10**23 - 1, lambda d, inputs: _lines(d / inputs.STORE_DIR / "captions.tsv"),
    ),
}


@pytest.mark.parametrize("row", sorted(HUGE_SIZES))
def test_huge_size_runs_as_the_whole_table(tiny_infer_vocab, capsys, row):
    """A top_m or retrieval_k past any C integer is capped at the vocabulary
    or store size: the run exits 0 with no traceback and writes the bytes
    of a run given that size."""
    work, inputs = tiny_infer_vocab
    key, huge, size = HUGE_SIZES[row]
    config = json.loads((work / inputs.CONFIG_FILE).read_text("utf-8"))
    outs = []
    for value in (huge, size(work, inputs)):
        (work / "sized.json").write_text(json.dumps({**config, key: value}))
        out = work / f"{row}-{value}.jsonl"
        argv = [
            "run", "--store", work / inputs.STORE_DIR, "--config", work / "sized.json",
            "--input", work / inputs.INPUT_FILE, "--vocab", work / inputs.VOCAB_FILE,
            "--synonyms", work / inputs.SYNONYMS_FILE, "--aux-embeddings", work / inputs.AUX_FILE,
            "--out", out,
        ]
        assert cli.main([str(a) for a in argv]) == 0
        assert "Traceback" not in capsys.readouterr().err
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_retrieve_k_past_int64_lists_the_whole_store(tiny_infer_vocab, capsys):
    work, inputs = tiny_infer_vocab
    size = _lines(work / inputs.STORE_DIR / "captions.tsv")
    printed = []
    for k in (2**63, size):
        argv = ["retrieve", "--store", str(work / inputs.STORE_DIR), "--query-key", "c0000001",
                "-k", str(k)]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        printed.append(out)
    assert printed[0] == printed[1] and len(printed[0].splitlines()) == size


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

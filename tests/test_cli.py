import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import negsup
from negsup import cli, kernels, pipeline
from negsup.embedding import HashSource, embed_text, write_embedding_file
from negsup.errors import InvariantError
from negsup.fusion import write_weights_file, xavier_weights
from negsup.validation import array_from_json


@pytest.fixture()
def corpus(tmp_path):
    """Captions, embeddings, vocabulary, and pipeline input files on disk."""
    src = HashSource(dim=24, seed=11)
    captions = {
        "c1": "a dog catches a frisbee in the park",
        "c2": "a dog leaps for a frisbee on the grass",
        "c3": "a dog catches a frisbee and a kite",
        "c4": "a cat sleeps on a warm mat",
        "c5": "a kite flies over the beach",
    }
    (tmp_path / "captions.tsv").write_text(
        "".join(f"{k}\t{v}\n" for k, v in captions.items())
    )
    write_embedding_file(
        tmp_path / "embeddings.nese",
        {k: embed_text(src, v) for k, v in captions.items()},
    )
    (tmp_path / "vocab.txt").write_text(
        "dog\nfrisbee\ncat\nkite\npark\ngrass\nmat\nbeach\n"
    )
    (tmp_path / "synonyms.tsv").write_text("dog\tpuppy\n")
    (tmp_path / "input.jsonl").write_text(
        json.dumps({"id": "t1", "caption": "a dog catches a frisbee in the park"})
        + "\n"
        + json.dumps({"id": "t2", "caption": "a cat sleeps on a warm mat"})
        + "\n"
    )
    return tmp_path


def _run(argv):
    return cli.main([str(a) for a in argv])


class TestIngestAndRetrieve:
    def test_ingest_then_retrieve_by_key(self, corpus, capsys):
        assert _run(
            ["ingest", "--captions", corpus / "captions.tsv",
             "--embeddings", corpus / "embeddings.nese", "--out", corpus / "store"]
        ) == 0
        capsys.readouterr()
        assert _run(
            ["retrieve", "--store", corpus / "store", "--query-key", "c1",
             "-k", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hits"][0]["id"] == "c1"
        assert payload["hits"][0]["score"] == pytest.approx(1.0, abs=1e-6)
        assert len(payload["hits"]) == 2

    def test_retrieve_by_vector_file(self, corpus, capsys):
        _run(["ingest", "--captions", corpus / "captions.tsv",
              "--embeddings", corpus / "embeddings.nese", "--out", corpus / "store"])
        src = HashSource(dim=24, seed=11)
        vec = embed_text(src, "a dog catches a frisbee in the park")
        (corpus / "query.json").write_text(json.dumps({"vector": list(map(float, vec))}))
        capsys.readouterr()
        assert _run(
            ["retrieve", "--store", corpus / "store", "--query-vec",
             corpus / "query.json", "-k", "1", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hits"][0]["id"] == "c1"

    def test_retrieve_unknown_key_exits_2(self, corpus, capsys):
        _run(["ingest", "--captions", corpus / "captions.tsv",
              "--embeddings", corpus / "embeddings.nese", "--out", corpus / "store"])
        assert _run(
            ["retrieve", "--store", corpus / "store", "--query-key", "nope", "--json"]
        ) == 2

    def test_text_output_lists_hits(self, corpus, capsys):
        _run(["ingest", "--captions", corpus / "captions.tsv",
              "--embeddings", corpus / "embeddings.nese", "--out", corpus / "store"])
        capsys.readouterr()
        _run(["retrieve", "--store", corpus / "store", "--query-key", "c4", "-k", "3"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("c4\t")


def test_retrieve_scores_an_overflowing_query_vector(tmp_path, capsys):
    (tmp_path / "captions.tsv").write_text("a\tboth axes\nb\tfirst axis\n")
    write_embedding_file(tmp_path / "e.nese", {"a": [1.0, 1.0, 0.0], "b": [1.0, 0.0, 0.0]})
    assert _run(
        ["ingest", "--captions", tmp_path / "captions.tsv",
         "--embeddings", tmp_path / "e.nese", "--out", tmp_path / "store"]
    ) == 0
    (tmp_path / "q.json").write_text(json.dumps({"vector": [1e308, 1e308, 0]}))
    capsys.readouterr()
    assert _run(
        ["retrieve", "--store", tmp_path / "store", "--query-vec", tmp_path / "q.json",
         "-k", "2"]
    ) == 0
    out = capsys.readouterr()
    assert out.out.splitlines() == ["a\t1.000000\tboth axes", "b\t0.707107\tfirst axis"]
    assert out.err == ""


def _store(corpus):
    _run(["ingest", "--captions", corpus / "captions.tsv",
          "--embeddings", corpus / "embeddings.nese", "--out", corpus / "store"])
    return corpus / "store"


def _child_run(
    tmp_path, captions, vocab, synonyms, inputs, mode="training", env=None,
    extra_args=(),
) -> bytes:
    """`negsup run` in a child process on a store of `captions` (id → text,
    embedded with a HashSource), the `vocab` and `synonyms` file texts and
    the `inputs` instance objects, with the environment variables of `env`
    set (or, where the value is None, removed); the bytes of its out.jsonl."""
    tmp_path.mkdir(exist_ok=True)
    src = HashSource(dim=16, seed=3)
    (tmp_path / "captions.tsv").write_text(
        "".join(f"{k}\t{v}\n" for k, v in captions.items())
    )
    write_embedding_file(
        tmp_path / "embeddings.nese",
        {k: embed_text(src, v) for k, v in captions.items()},
    )
    (tmp_path / "vocab.txt").write_text(vocab)
    (tmp_path / "synonyms.tsv").write_text(synonyms)
    (tmp_path / "input.jsonl").write_text("".join(json.dumps(o) + "\n" for o in inputs))
    store = _store(tmp_path)
    child_env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(negsup.__file__)))
    for name, value in (env or {}).items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    subprocess.run(
        [sys.executable, "-m", "negsup.cli", "run", "--mode", mode,
         "--store", store, "--input", tmp_path / "input.jsonl",
         "--out", tmp_path / "out.jsonl", "--vocab", tmp_path / "vocab.txt",
         "--synonyms", tmp_path / "synonyms.tsv", *extra_args],
        env=child_env, timeout=60, check=True, capture_output=True,
    )
    return (tmp_path / "out.jsonl").read_bytes()


class TestRun:
    def test_training_run_and_eval(self, corpus, capsys):
        store = _store(corpus)
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--input", corpus / "input.jsonl", "--out", corpus / "out.jsonl",
             "--vocab", corpus / "vocab.txt", "--synonyms", corpus / "synonyms.tsv",
             "--tau-neg", "0.5", "--seed", "5"]
        ) == 0
        lines = (corpus / "out.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["id"] == "t1"
        assert isinstance(first["generated"], str)
        assert first["references"] == ["a dog catches a frisbee in the park"]
        assert first["context"]["suppression"]["lambda"] == 0.3

        capsys.readouterr()
        assert _run(
            ["eval", "chair", "--pred", corpus / "out.jsonl",
             "--vocab", corpus / "vocab.txt", "--synonyms", corpus / "synonyms.tsv",
             "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "chair_s", "chair_i", "recall", "total_hallucinations",
            "retrieval_sourced", "model_sourced", "ratio_retrieval_sourced",
        }

    def test_inference_run(self, corpus):
        store = _store(corpus)
        (corpus / "inf.jsonl").write_text(
            json.dumps({"id": "q1", "image_key": "a dog catches a frisbee in the park"}) + "\n"
        )
        assert _run(
            ["run", "--mode", "inference", "--store", store,
             "--input", corpus / "inf.jsonl", "--out", corpus / "inf_out.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5",
             "--top-m", "3"]
        ) == 0
        out = json.loads((corpus / "inf_out.jsonl").read_text().splitlines()[0])
        assert out["id"] == "q1"
        assert len(out["context"]["entities"]["key"]) == 3

    def test_inference_with_aux_embeddings(self, corpus):
        store = _store(corpus)
        src = HashSource(dim=24, seed=11)
        write_embedding_file(
            corpus / "images.nese",
            {"img_001": embed_text(src, "a dog catches a frisbee in the park")},
        )
        (corpus / "inf.jsonl").write_text(
            json.dumps({"id": "q1", "image_key": "img_001"}) + "\n"
        )
        assert _run(
            ["run", "--mode", "inference", "--store", store,
             "--input", corpus / "inf.jsonl", "--out", corpus / "aux_out.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5",
             "--aux-embeddings", corpus / "images.nese"]
        ) == 0
        out = json.loads((corpus / "aux_out.jsonl").read_text().splitlines()[0])
        assert out["context"]["retrieval"]["hits"][0]["id"] == "c1"

    def test_byte_identical_reruns(self, corpus):
        store = _store(corpus)
        base = ["run", "--mode", "training", "--store", store,
                "--input", corpus / "input.jsonl",
                "--vocab", corpus / "vocab.txt", "--tau-neg", "0.4", "--seed", "9"]
        assert _run(base + ["--out", corpus / "a.jsonl"]) == 0
        assert _run(base + ["--out", corpus / "b.jsonl"]) == 0
        assert (corpus / "a.jsonl").read_bytes() == (corpus / "b.jsonl").read_bytes()

    def test_report_flag_writes_suppression_reports(self, corpus):
        store = _store(corpus)
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--input", corpus / "input.jsonl", "--out", corpus / "out.jsonl",
             "--report", corpus / "report.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5"]
        ) == 0
        reports = [json.loads(x) for x in (corpus / "report.jsonl").read_text().splitlines()]
        assert len(reports) == 2
        assert set(reports[0]) == {"id", "scores", "selected", "lambda"}

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    def test_report_on_the_out_file_exits_2(self, corpus, capsys, spelling):
        store = _store(corpus)
        out = corpus / "out.jsonl"
        out.write_text("kept\n")
        report = {
            "same": out,
            "dotted": corpus / "sub" / ".." / "out.jsonl",
            "symlink": corpus / "link.jsonl",
        }[spelling]
        (corpus / "sub").mkdir()
        (corpus / "link.jsonl").symlink_to(out)
        capsys.readouterr()
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--input", corpus / "input.jsonl", "--out", out, "--report", report,
             "--vocab", corpus / "vocab.txt"]
        ) == 2
        assert "names the --out file" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_config_file_with_flag_override(self, corpus):
        store = _store(corpus)
        config = {
            "mode": "training",
            "retrieval_k": 2,
            "suppression": {"strategy": "top-k", "lambda": 0.5},
            "vocab": str(corpus / "vocab.txt"),
        }
        (corpus / "config.json").write_text(json.dumps(config))
        assert _run(
            ["run", "--store", store, "--config", corpus / "config.json",
             "--input", corpus / "input.jsonl", "--out", corpus / "out.jsonl",
             "--lambda", "0.25"]
        ) == 0
        out = json.loads((corpus / "out.jsonl").read_text().splitlines()[0])
        assert out["context"]["suppression"]["lambda"] == 0.25
        assert len(out["context"]["retrieval"]["hits"]) == 2

    def test_ablation_toggles_accepted(self, corpus):
        store = _store(corpus)
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--input", corpus / "input.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "vocab.txt",
             "--no-sir", "--no-sif", "--no-nef", "--no-as"]
        ) == 0
        out = json.loads((corpus / "o.jsonl").read_text().splitlines()[0])
        assert out["context"]["entities"]["negative"] == []

    def test_missing_vocab_exits_2(self, corpus):
        store = _store(corpus)
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--input", corpus / "input.jsonl", "--out", corpus / "o.jsonl",
             "--tau-neg", "0.5"]
        ) == 2

    def test_bad_config_key_exits_2(self, corpus):
        store = _store(corpus)
        (corpus / "config.json").write_text('{"mystery": true}')
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--config", corpus / "config.json",
             "--input", corpus / "input.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5"]
        ) == 2

    def test_missing_input_file_exits_2(self, corpus):
        store = _store(corpus)
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--input", corpus / "missing.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5"]
        ) in (2,)  # FileNotFoundError surfaces as OSError -> IoError path


# Config files that a type check must reject with exit 2: each once ended
# in a traceback or was silently accepted.
BAD_CONFIGS = {
    "retrieval_k_string": {"retrieval_k": "9"},
    "fusion_list": {"fusion": []},
    "retrieval_k_float": {"retrieval_k": 2.5},
    "retrieval_k_bool": {"retrieval_k": True},
    "top_m_float": {"top_m": 2.5},
    "tau_neg_string": {"suppression": {"strategy": "fixed-threshold", "tau_neg": "0.4"}},
    "tau_neg_nan": {"suppression": {"strategy": "fixed-threshold", "tau_neg": float("nan")}},
    "enable_nef_string": {"enable_nef": "no"},
    "prefix_length_huge": {"prefix_length": 100000},
    # file-path keys: checked even where a flag (here --vocab) overrides them
    "weights_float": {"weights": 1.5},
    "vocab_list": {"vocab": ["vocab.txt"]},
    "vocab_int": {"vocab": 0},
    "synonyms_bool": {"synonyms": True},
    "aux_embeddings_empty": {"aux_embeddings": ""},
}


class TestWeightsFile:
    def _run(self, corpus, weights, config):
        write_weights_file(corpus / "w.nesw", weights)
        (corpus / "config.json").write_text(
            json.dumps({"mode": "training", "suppression": {"strategy": "top-k"}, **config})
        )
        return _run(
            ["run", "--store", _store(corpus), "--config", corpus / "config.json",
             "--input", corpus / "input.jsonl", "--out", corpus / "out.jsonl",
             "--vocab", corpus / "vocab.txt", "--weights", corpus / "w.nesw"]
        )

    def test_dim_other_than_the_store_exits_2_before_retrieval(
        self, corpus, capsys, monkeypatch
    ):
        calls = []
        retrieve = pipeline.retrieve
        monkeypatch.setattr(
            pipeline, "retrieve", lambda *args: calls.append(1) or retrieve(*args)
        )
        assert self._run(corpus, xavier_weights(16, 2), {}) == 2
        assert "weights dim 16 != store dim 24" in capsys.readouterr().err
        assert calls == [] and not (corpus / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "config, code", [({}, 0), ({"prefix_length": 2}, 0), ({"prefix_length": 6}, 2)]
    )
    def test_config_prefix_length_must_match_the_weights(self, corpus, capsys, config, code):
        assert self._run(corpus, xavier_weights(24, 2), config) == code
        if code:
            assert "prefix_length 6" in capsys.readouterr().err
            return
        out = json.loads((corpus / "out.jsonl").read_text().splitlines()[0])
        assert array_from_json(out["context"]["prefix"], "prefix").shape == (2, 24)


class TestRunConfigTypes:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_value_exits_2(self, corpus, capsys, case):
        store = _store(corpus)
        config = {"mode": "training", "suppression": {"strategy": "top-k"}}
        config.update(BAD_CONFIGS[case])
        (corpus / "config.json").write_text(json.dumps(config))
        capsys.readouterr()
        assert _run(
            ["run", "--store", store, "--config", corpus / "config.json",
             "--input", corpus / "input.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "vocab.txt"]
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (corpus / "o.jsonl").exists()

    def test_valid_base_config_runs(self, corpus):
        store = _store(corpus)
        config = {"mode": "training", "suppression": {"strategy": "top-k"}}
        (corpus / "config.json").write_text(json.dumps(config))
        assert _run(
            ["run", "--store", store, "--config", corpus / "config.json",
             "--input", corpus / "input.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "vocab.txt"]
        ) == 0


# Each `negsup run` flag: (argv, config file lines it overrides, JSON path
# of its config key, value the flag must leave there).
RUN_FLAG_CASES = {
    "--mode": (["--mode", "inference"], {"mode": "training"}, ("mode",), "inference"),
    "--no-sir": (["--no-sir"], {"enable_sir": True}, ("enable_sir",), False),
    "--no-sif": (["--no-sif"], {"enable_sif": True}, ("enable_sif",), False),
    "--no-nef": (["--no-nef"], {"enable_nef": True}, ("enable_nef",), False),
    "--no-as": (["--no-as"], {"enable_as": True}, ("enable_as",), False),
    "--tau-sim": (["--tau-sim", "0.7"], {"tau_sim": 0.1}, ("tau_sim",), 0.7),
    "--top-m": (["--top-m", "3"], {"top_m": 6}, ("top_m",), 3),
    "--seed": (["--seed", "4"], {"seed": 8}, ("seed",), 4),
    "--tau-quality": (
        ["--tau-quality", "0.25"], {"fusion": {"tau_quality": 0.5}},
        ("fusion", "tau_quality"), 0.25,
    ),
    "--fusion-strategy": (
        ["--fusion-strategy", "clipscore-forward"],
        {"fusion": {"strategy": "clipscore-reverse"}},
        ("fusion", "strategy"), "clipscore-forward",
    ),
    "--alpha": (
        ["--alpha", "0.25"], {"fusion": {"strategy": "fixed", "alpha": 0.5}},
        ("fusion", "alpha"), 0.25,
    ),
    "--tau-neg": (
        ["--tau-neg", "0.25"],
        {"suppression": {"strategy": "fixed-threshold", "tau_neg": 0.5}},
        ("suppression", "tau_neg"), 0.25,
    ),
    "--lambda": (
        ["--lambda", "0.25"], {"suppression": {"strategy": "top-k", "lambda": 0.5}},
        ("suppression", "lambda"), 0.25,
    ),
    "--suppression-strategy": (
        ["--suppression-strategy", "top-k"], {"suppression": {"strategy": "top-k-minus-1"}},
        ("suppression", "strategy"), "top-k",
    ),
}


class TestRunFlagKeys:
    @pytest.mark.parametrize("flag", sorted(RUN_FLAG_CASES))
    def test_flag_overrides_its_config_key(self, corpus, monkeypatch, flag):
        from negsup.pipeline import BatchResult

        argv, file_values, path, expected = RUN_FLAG_CASES[flag]
        config = {"mode": "training", "suppression": {"strategy": "top-k"}}
        config.update(file_values)
        (corpus / "config.json").write_text(json.dumps(config))
        seen = []

        def fake_run_batch(instances, store, vocab, sources, config, *rest):
            seen.append(config)
            return BatchResult(outputs=[], skipped=[])

        monkeypatch.setattr(cli, "run_batch", fake_run_batch)
        assert _run(
            ["run", "--store", _store(corpus), "--config", corpus / "config.json",
             "--input", corpus / "input.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "vocab.txt", *argv]
        ) == 0
        value = seen[0].to_json_dict()
        for key in path:
            value = value[key]
        assert value == expected

    def test_cases_cover_every_flag(self):
        parser = cli.build_parser()
        covered = set()
        for argv, _, _, _ in RUN_FLAG_CASES.values():
            args = parser.parse_args(
                ["run", "--store", "s", "--input", "i", "--out", "o", *argv]
            )
            covered |= {dest for dest in cli.RUN_FLAG_KEYS if getattr(args, dest) is not None}
        assert covered == set(cli.RUN_FLAG_KEYS)


def test_every_run_option_is_a_config_flag_or_a_file():
    # an override flag missing from RUN_FLAG_KEYS would be parsed and ignored
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in commands.choices["run"]._actions if a.dest != "help"}
    files = {"store", "config", "input", "out", "report", *cli.CONFIG_PATH_KEYS}
    assert dests - set(cli.RUN_FLAG_KEYS) == files


class TestNonStringInstanceFields:
    @pytest.mark.parametrize(
        "mode,field,value",
        [
            ("training", "caption", 5),
            ("training", "caption", ["a"]),
            ("training", "synthetic_key", 5),
            ("training", "synthetic_key", ["a"]),
            ("inference", "image_key", 5),
            ("inference", "image_key", ["a"]),
        ],
    )
    def test_exits_2_naming_the_instance(self, corpus, capsys, mode, field, value):
        instance = {"id": "bad1", "caption": "a dog in the park", field: value}
        (corpus / "bad.jsonl").write_text(json.dumps(instance) + "\n")
        store = _store(corpus)
        capsys.readouterr()
        assert _run(
            ["run", "--mode", mode, "--store", store,
             "--input", corpus / "bad.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5"]
        ) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: ") and "'bad1'" in err and field in err


class TestInstanceIds:
    @pytest.mark.parametrize("mode", ["training", "inference"])
    @pytest.mark.parametrize("value", [[1], None, 7])
    def test_non_string_id_exits_2(self, corpus, capsys, mode, value):
        lines = [
            {"id": "ok", "caption": "a dog in the park", "image_key": "a dog"},
            {"id": value, "caption": "a cat on a mat", "image_key": "a cat"},
        ]
        assert self._run(corpus, capsys, mode, lines) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: instance 2: ") and f"{value!r}" in err

    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_repeated_id_exits_2(self, corpus, capsys, mode):
        lines = [
            {"id": "q1", "caption": "a dog in the park", "image_key": "a dog"},
            {"id": "q2", "caption": "a kite", "image_key": "a kite"},
            {"id": "q1", "caption": "a cat on a mat", "image_key": "a cat"},
        ]
        assert self._run(corpus, capsys, mode, lines) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: instance 3: ") and "duplicate id 'q1'" in err

    @staticmethod
    def _run(corpus, capsys, mode, lines):
        (corpus / "ids.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        store = _store(corpus)
        capsys.readouterr()
        code = _run(
            ["run", "--mode", mode, "--store", store,
             "--input", corpus / "ids.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5"]
        )
        assert not (corpus / "o.jsonl").exists()
        return code


class TestQueryVectorFile:
    # the corpus store has dimension 24, so each of these would be a query
    # of the right width if it were read as numbers
    @pytest.mark.parametrize(
        "vector",
        [
            {"a": 1},
            [10**400] + [1] * 23,
            ["1"] * 24,
            [True] * 24,
            [1] * 23 + [True],
            [[1] * 24],
        ],
    )
    def test_non_number_vector_exits_2(self, corpus, capsys, vector):
        store = _store(corpus)
        (corpus / "q.json").write_text(json.dumps({"vector": vector}))
        capsys.readouterr()
        assert _run(
            ["retrieve", "--store", store, "--query-vec", corpus / "q.json"]
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_json_ints_are_numbers(self, corpus):
        store = _store(corpus)
        (corpus / "q.json").write_text(json.dumps([1] + [0] * 23))
        assert _run(
            ["retrieve", "--store", store, "--query-vec", corpus / "q.json"]
        ) == 0


class TestHashedKeyWarning:
    def _inference(self, corpus, *extra):
        (corpus / "inf.jsonl").write_text(
            "".join(
                json.dumps({"id": f"q{i}", "image_key": caption}) + "\n"
                for i, caption in enumerate(["a dog in the park", "a cat on a mat"])
            )
        )
        return _run(
            ["run", "--mode", "inference", "--store", _store(corpus),
             "--input", corpus / "inf.jsonl", "--out", corpus / "out.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5", "--seed", "3",
             *extra]
        )

    def test_warns_once_and_output_is_unchanged(self, corpus, capsys):
        from negsup.datastore import load_datastore
        from negsup.entities import load_vocabulary
        from negsup.pipeline import PipelineConfig, SourceBundle, read_jsonl, run_batch, write_jsonl
        from negsup.suppression import SuppressionConfig

        assert self._inference(corpus) == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")
        ]
        assert warnings == [
            "warning: no --aux-embeddings given; 2 instances use the hash of "
            "their image_key string as the embedding"
        ]
        store = load_datastore(corpus / "store")
        config = PipelineConfig(
            mode="inference",
            seed=3,
            suppression=SuppressionConfig(strategy="fixed-threshold", tau_neg=0.5),
        )
        result = run_batch(
            read_jsonl(corpus / "inf.jsonl"),
            store,
            load_vocabulary(corpus / "vocab.txt"),
            SourceBundle(HashSource(dim=store.dim, seed=3)),
            config,
        )
        write_jsonl(corpus / "library.jsonl", result.outputs)
        assert (corpus / "out.jsonl").read_bytes() == (corpus / "library.jsonl").read_bytes()

    def test_rejected_non_string_key_is_not_counted(self, corpus, capsys):
        (corpus / "bad.jsonl").write_text(json.dumps({"id": "q1", "image_key": ["a"]}) + "\n")
        assert _run(
            ["run", "--mode", "inference", "--store", _store(corpus),
             "--input", corpus / "bad.jsonl", "--out", corpus / "out.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5"]
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert not [line for line in err if line.startswith("warning:")]
        assert err[-1].startswith("error: ")

    def test_no_warning_with_aux_embeddings(self, corpus, capsys):
        src = HashSource(dim=24, seed=11)
        write_embedding_file(
            corpus / "images.nese",
            {key: embed_text(src, key) for key in ("a dog in the park", "a cat on a mat")},
        )
        assert self._inference(corpus, "--aux-embeddings", corpus / "images.nese") == 0
        assert "warning" not in capsys.readouterr().err


class TestEvalRetrieval:
    def test_entity_arrays(self, corpus, capsys):
        (corpus / "diag.jsonl").write_text(
            json.dumps({"retrieved_entities": ["dog", "kite"], "ground_truth_entities": ["dog"]})
            + "\n"
        )
        assert _run(
            ["eval", "retrieval", "--instances", corpus / "diag.jsonl", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"acc": 0.5, "rc": 1.0, "ahc": 1.0, "dhc": 1}

    def test_caption_instances_with_vocab(self, corpus, capsys):
        (corpus / "diag.jsonl").write_text(
            json.dumps(
                {"retrieved": ["a dog and a kite"], "references": ["a dog in the park"]}
            )
            + "\n"
        )
        assert _run(
            ["eval", "retrieval", "--instances", corpus / "diag.jsonl",
             "--vocab", corpus / "vocab.txt", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dhc"] == 1

    def test_missing_fields_exit_2(self, corpus):
        (corpus / "diag.jsonl").write_text('{"retrieved": []}\n')
        assert _run(
            ["eval", "retrieval", "--instances", corpus / "diag.jsonl", "--json"]
        ) == 2


    def test_error_names_the_file_line(self, corpus, capsys):
        (corpus / "diag.jsonl").write_text('\n{"retrieved": []}\n')
        assert _run(
            ["eval", "retrieval", "--instances", corpus / "diag.jsonl", "--json"]
        ) == 2
        assert "line 2: need 'retrieved'" in capsys.readouterr().err


class TestNonObjectLines:
    def test_eval_retrieval_exits_2(self, corpus, capsys):
        (corpus / "diag.jsonl").write_text("5\n")
        assert _run(
            ["eval", "retrieval", "--instances", corpus / "diag.jsonl", "--json"]
        ) == 2
        assert "line 1: expected a JSON object" in capsys.readouterr().err

    def test_eval_chair_exits_2(self, corpus, capsys):
        (corpus / "pred.jsonl").write_text(
            json.dumps({"generated": "a dog", "references": ["a dog"]}) + "\n5\n"
        )
        assert _run(
            ["eval", "chair", "--pred", corpus / "pred.jsonl",
             "--vocab", corpus / "vocab.txt", "--json"]
        ) == 2
        assert "line 2: expected a JSON object" in capsys.readouterr().err


class TestExitCodes:
    def test_invariant_violation_maps_to_3(self, corpus, monkeypatch):
        def boom(args):
            raise InvariantError("synthetic failure")

        monkeypatch.setattr(cli, "cmd_ingest", boom)
        parser = cli.build_parser()
        args = parser.parse_args(
            ["ingest", "--captions", "x", "--embeddings", "y", "--out", "z"]
        )
        # route through the dispatch wrapper
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        args.func = boom
        monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
        assert cli.main([]) == 3

    def test_format_error_maps_to_2(self, tmp_path):
        (tmp_path / "bad.nese").write_bytes(b"XXXXgarbage")
        (tmp_path / "caps.tsv").write_text("a\tcap\n")
        assert _run(
            ["ingest", "--captions", tmp_path / "caps.tsv",
             "--embeddings", tmp_path / "bad.nese", "--out", tmp_path / "s"]
        ) == 2


class TestSymbolSynonym:
    """A synonym with no word tokens (such as "-") names nothing to delete."""

    def _child_run(self, tmp_path, synonyms: str) -> bytes:
        captions = {
            "c1": "a dog runs on the grass",
            "c2": "a dog sits by a tree",
            "c3": "a brown dog on a bench",
        }
        return _child_run(
            tmp_path, captions, "dog\ncat\ngrass\ntree\nbench\n", synonyms,
            [{"id": "t1", "caption": "a cat on the grass"}], extra_args=["--tau-neg", "0.5"],
        )

    def test_dash_synonym_changes_nothing(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with_dash = self._child_run(tmp_path / "a", "dog\tdoggy,-\n")
        assert with_dash == self._child_run(tmp_path / "b", "dog\tdoggy\n")
        # every retrieved caption names the negative "dog", so the decoder
        # falls back to deleting the negative runs from the best one
        out = json.loads(with_dash)
        assert out["generated"] not in out["retrieved"]
        assert "dog" not in out["generated"].split()


class TestLineSeparators:
    def test_run_then_eval_chair_with_u2028_reference(self, corpus, capsys):
        store = _store(corpus)
        (corpus / "sep.jsonl").write_text(
            json.dumps(
                {"id": "t1", "caption": "a dog catches a frisbee in the park",
                 "references": ["a dog\u2028on grass"]},
                ensure_ascii=False,
            ) + "\n",
            encoding="utf-8",
        )
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--input", corpus / "sep.jsonl", "--out", corpus / "out.jsonl",
             "--vocab", corpus / "vocab.txt", "--tau-neg", "0.5"]
        ) == 0
        text = (corpus / "out.jsonl").read_text(encoding="utf-8")
        assert "a dog\u2028on grass" in text
        capsys.readouterr()
        assert _run(
            ["eval", "chair", "--pred", corpus / "out.jsonl",
             "--vocab", corpus / "vocab.txt", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["recall"] is not None

    def test_ingest_caption_with_carriage_return_exits_2(self, corpus, capsys):
        (corpus / "cr.tsv").write_bytes(
            (corpus / "captions.tsv").read_bytes().replace(b"a cat", b"a\rcat")
        )
        assert _run(
            ["ingest", "--captions", corpus / "cr.tsv",
             "--embeddings", corpus / "embeddings.nese", "--out", corpus / "s"]
        ) == 2
        assert "carriage returns" in capsys.readouterr().err


class TestVocabularyTokenRuns:
    def test_one_run_for_two_canonicals_exits_2(self, corpus, capsys):
        store = _store(corpus)
        (corpus / "shirts.txt").write_text("dog\nt-shirt\nt shirt\n")
        capsys.readouterr()
        assert _run(
            ["run", "--mode", "training", "--store", store,
             "--input", corpus / "input.jsonl", "--out", corpus / "o.jsonl",
             "--vocab", corpus / "shirts.txt", "--tau-neg", "0.5"]
        ) == 2
        assert "'t shirt' and 't-shirt'" in capsys.readouterr().err
        assert not (corpus / "o.jsonl").exists()


class TestHashSeedIndependence:
    """`negsup run` writes the same bytes under any string hash seed, with
    multi-word terms and synonyms whose runs overlap."""

    CAPTIONS = {
        "c1": "a puppy eats a hot dog by the fire hydrant",
        "c2": "a dog sleeps next to a teddy bear",
        "c3": "a hot dog stand near a red hydrant",
        "c4": "a child holds a teddy and a hot dog",
        "c5": "a doggy runs past the fire hydrant on the street",
        "c6": "a teddy bear sits on a bench in the park",
    }
    INPUTS = [
        "a dog and a teddy bear in the park",
        "a hot dog on a bench",
        "a puppy near a fire hydrant",
    ]

    def _child_run(self, tmp_path, mode: str, hash_seed: str) -> bytes:
        field = "caption" if mode == "training" else "image_key"
        return _child_run(
            tmp_path, self.CAPTIONS,
            "dog\nhot dog\nfire hydrant\nteddy bear\nbear\nbench\npark\nstreet\n",
            "dog\tpuppy,doggy\nfire hydrant\thydrant\nteddy bear\tteddy\nhot dog\thotdog\n",
            [{"id": f"i{n}", field: text} for n, text in enumerate(self.INPUTS)],
            mode, {"PYTHONHASHSEED": hash_seed}, ["--top-m", "3", "--tau-neg", "0.1"],
        )

    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_same_bytes_under_two_hash_seeds(self, tmp_path, mode):
        first = self._child_run(tmp_path / "h0", mode, "0")
        assert first == self._child_run(tmp_path / "h1", mode, "1")
        outputs = [json.loads(line) for line in first.splitlines()]
        assert len(outputs) == len(self.INPUTS)
        assert any(out["context"]["entities"]["negative"] for out in outputs)


class TestScanThreadIndependence:
    """`negsup run` writes the same bytes with BLAS held at one thread, where
    pass 1 of the scan runs on up to kernels.SCAN_THREADS threads (given the
    CPUs), and with the BLAS thread variables unset, where it runs on one.
    The store has more than 2 * kernels.SCAN_ROWS rows, so the scan's ranges
    split."""

    NOUNS = ["dog", "cat", "frisbee", "kite", "bench", "park", "bird", "horse", "boat", "bike"]
    VERBS = ["sits near", "runs past", "sleeps by", "waits for", "plays with", "looks at"]
    PLACES = ["on the grass", "in the park", "by the lake", "on the road", "at the beach"]
    ROWS = 2 * kernels.SCAN_ROWS + 500
    INSTANCES = 60

    def _texts(self, rng, n):
        return [
            f"a {rng.choice(self.NOUNS)} {rng.choice(self.VERBS)} a {rng.choice(self.NOUNS)}"
            f" {rng.choice(self.PLACES)}"
            for _ in range(n)
        ]

    def _child_run(self, tmp_path, mode, blas_env) -> bytes:
        rng = np.random.default_rng(23)
        captions = {f"c{i:04d}": text for i, text in enumerate(self._texts(rng, self.ROWS))}
        field = "caption" if mode == "training" else "image_key"
        inputs = [
            {"id": f"i{n:02d}", field: text}
            for n, text in enumerate(self._texts(rng, self.INSTANCES))
        ]
        env = {name: None for name in kernels.BLAS_THREAD_ENV}
        env.update(blas_env)
        return _child_run(
            tmp_path, captions, "\n".join(self.NOUNS) + "\n", "dog\tpuppy\n", inputs, mode,
            env, ["--top-m", "3", "--tau-neg", "0.1"],
        )

    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_same_bytes_with_blas_capped_and_unset(self, tmp_path, mode):
        capped = self._child_run(tmp_path / "capped", mode, {"OPENBLAS_NUM_THREADS": "1"})
        assert capped == self._child_run(tmp_path / "unset", mode, {})
        assert len(capped.splitlines()) == self.INSTANCES

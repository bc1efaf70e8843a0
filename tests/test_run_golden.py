"""`negsup run`'s output bytes, pinned in tier 1.

The tiny form of each benchmark workload (perfbench/inputs.py, loaded
read-only from its file) is generated at two seeds and run through
`negsup run` with no flag, --no-as, --no-nef and both. The sha256 of every
out.jsonl and --report file must equal the one in tests/data/run_golden.json.
The bits rest on numpy's BLAS calls, so a failure prints the kernel backend
and numpy version the file was made with beside the current ones.

The same outputs show which branches the cells reach: in each pipeline
mode some instance has negatives and some has selected tokens, and
train-gate has gate skips. UNREACHED names the branches no cell reaches.

After a deliberate output change, rewrite the file with
    PYTHONPATH=src python tests/test_run_golden.py --write
and name the change in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from negsup import cli, kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "data" / "run_golden.json"

WORKLOADS = ("infer-vocab", "infer-store", "train-gate")
SEEDS = (5, 7)
FLAGS = {
    "plain": [], "no-as": ["--no-as"], "no-nef": ["--no-nef"],
    "no-as-no-nef": ["--no-as", "--no-nef"],
}

# branch -> why no cell reaches it
UNREACHED = {
    "decoder deletion fallback": "every tiny input retrieves a caption naming no negative",
    "hashed-key stand-in": "every cell gives --aux-embeddings",
}


def _perfbench(name):
    """perfbench/<name>.py as a module. It is registered under its own name
    while it runs, as inputs.py imports `workloads` and dataclasses look up
    their module."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _inputs_module():
    try:
        _perfbench("workloads")
        return _perfbench("inputs")
    finally:
        sys.modules.pop("inputs", None)
        sys.modules.pop("workloads", None)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cells(root: Path) -> dict:
    """cell name -> {"out", "report" (sha256), "lines" (parsed out.jsonl),
    "inputs", "stderr"} for every workload, seed and flag set."""
    inputs = _inputs_module()
    cells = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            work = root / f"{name}-{seed}"
            inputs.generate(inputs.WORKLOADS[name].tiny(), seed, str(work))
            for flag_name, flags in FLAGS.items():
                out = work / f"{flag_name}.out.jsonl"
                report = work / f"{flag_name}.report.jsonl"
                argv = [
                    "run", "--store", work / inputs.STORE_DIR, "--config", work / inputs.CONFIG_FILE,
                    "--input", work / inputs.INPUT_FILE, "--vocab", work / inputs.VOCAB_FILE,
                    "--synonyms", work / inputs.SYNONYMS_FILE,
                    "--aux-embeddings", work / inputs.AUX_FILE,
                    "--out", out, "--report", report, *flags,
                ]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([str(a) for a in argv])
                assert code == 0, stderr.getvalue()
                cells[f"{name}/{seed}/{flag_name}"] = {
                    "out": _sha256(out),
                    "report": _sha256(report),
                    "lines": [json.loads(line) for line in out.read_text("utf-8").splitlines()],
                    "inputs": len((work / inputs.INPUT_FILE).read_text("utf-8").splitlines()),
                    "stderr": stderr.getvalue(),
                }
    return cells


def _environment() -> dict:
    return {"kernel_backend": kernels.backend(), "numpy": np.__version__}


@pytest.fixture(scope="module")
def cells(tmp_path_factory):
    return run_cells(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text("utf-8"))


CELLS = [f"{w}/{s}/{f}" for w in WORKLOADS for s in SEEDS for f in FLAGS]


@pytest.mark.parametrize("cell", CELLS)
def test_bytes_equal_the_golden_file(cells, golden, cell):
    got = {part: cells[cell][part] for part in ("out", "report")}
    assert got == golden["cells"][cell], (
        f"recorded with {golden['environment']}, running with {_environment()}"
    )


def test_golden_file_holds_exactly_these_cells(golden):
    assert sorted(golden["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("mode,workloads", [
    ("inference", ("infer-vocab", "infer-store")), ("training", ("train-gate",)),
])
def test_each_mode_has_negatives_and_selected_tokens(cells, mode, workloads):
    lines = [obj for w in workloads for s in SEEDS for obj in cells[f"{w}/{s}/plain"]["lines"]]
    assert any(obj["context"]["entities"]["negative"] for obj in lines)
    assert any(obj["context"]["suppression"]["selected"] for obj in lines)


@pytest.mark.parametrize("seed", SEEDS)
def test_train_gate_skips_instances(cells, seed):
    for flag_name in FLAGS:
        cell = cells[f"train-gate/{seed}/{flag_name}"]
        skipped = cell["inputs"] - len(cell["lines"])
        assert skipped > 0
        assert cell["stderr"].count("clip_score") == skipped


def test_unreached_branches_are_the_named_ones(cells):
    fallbacks = sum(
        obj["generated"] not in obj["retrieved"] for cell in cells.values() for obj in cell["lines"]
    )
    reached = {
        "decoder deletion fallback": fallbacks > 0,
        "hashed-key stand-in": any("warning" in cell["stderr"] for cell in cells.values()),
    }
    assert {branch for branch, hit in reached.items() if not hit} == set(UNREACHED)


def _write(path: Path) -> None:
    with tempfile.TemporaryDirectory() as root:
        cells = run_cells(Path(root))
    data = {
        "environment": _environment(),
        "cells": {cell: {"out": c["out"], "report": c["report"]} for cell, c in cells.items()},
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write(GOLDEN)

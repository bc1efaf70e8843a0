"""Self-test of the pipeline benchmark, at tiny sizes.

    python3 perfbench/selftest.py

For every workload it makes two untraced and two traced runs with the same
seed and checks that:
  * every metric BENCHMARK.json names is printed with its unit, and the
    untraced runs also print failed_frac;
  * every run passes its correctness checks;
  * the quality metrics and every per-layer count repeat exactly;
  * out.jsonl is byte-identical between the two runs.
It also checks that the benchmark exits non-zero, without printing a
result, in a directory that holds only BENCHMARK.json and its own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
RUN_TIMEOUT_S = 170
QUALITY = ("chair_s", "chair_i", "recall")
TIME_UNITS = ("ms", "ms/inst")


def run(command: list[str], cwd: str, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        command + list(args), cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    return proc.returncode, proc.stdout


def parse(stdout: str) -> tuple[dict, dict, str]:
    """(result JSON, metric lines as name -> unit, out.jsonl digest)."""
    lines = stdout.strip().splitlines()
    units = {}
    digest = ""
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, _, unit = line.split(" ")
            units[name] = unit
        elif line.startswith("out_sha256 "):
            digest = line.split(" ", 1)[1]
    return json.loads(lines[-1]), units, digest


def check_workload(spec: dict, name: str, problems: list[str]) -> None:
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        runs = []
        for _ in range(2):
            code, out = run(
                spec["command"], ROOT, "--workload", name, "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--tiny",
            )
            if code != 0:
                problems.append(f"{name} trace={trace}: exit code {code}")
                return
            runs.append(parse(out))
        for result, units, _ in runs:
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{name} trace={trace}: correctness checks failed")
            for metric in listed:
                got = result["metrics"].get(metric["name"], {}).get("unit")
                if got != metric["unit"] or units.get(metric["name"]) != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} not printed with unit {metric['unit']}")
            if trace == 0 and units.get("failed_frac") != "ratio":
                problems.append(f"{name}: failed_frac not printed with its unit")
        (first, _, digest_a), (second, _, digest_b) = runs
        if digest_a != digest_b or not digest_a:
            problems.append(f"{name} trace={trace}: out.jsonl differs between same-seed runs")
        if trace == 0:
            repeat = QUALITY
        else:
            repeat = [
                m["name"] for m in listed
                if m["unit"] not in TIME_UNITS and m["name"] != "trace.overhead_frac"
            ]
        for metric in repeat:
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            if a != b:
                problems.append(f"{name}: {metric} differs between same-seed runs ({a!r} vs {b!r})")


def check_bare_directory(spec: dict, problems: list[str]) -> None:
    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        name = spec["workloads"][0]["name"]
        code, out = run(
            spec["command"], bare, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"
        )
        if code == 0 or '"correct"' in out:
            problems.append("benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"], problems)
        print(f"ran {workload['name']}")
    check_bare_directory(spec, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("PASS" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

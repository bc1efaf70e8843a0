"""README's "Library" example runs as written, so a renamed function or a
changed signature cannot leave it stale."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs(capsys):
    exec(compile(_library_example(), f"{README.name}, Library", "exec"), {})
    # the example prints three lines: a caption, a prompt with a caption,
    # and the classified terms
    assert len(capsys.readouterr().out.splitlines()) == 3

"""The CLI examples in README.md run as written."""

import shlex
from pathlib import Path

from commitsched.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[list[str]]:
    """The commands of the ``sh`` block under ``## CLI``, continuations
    joined and comments dropped, in the order they appear."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    examples = cli_examples()
    assert examples and all(argv[0] == "commitsched" for argv in examples)
    # In order: `verify` reads the file that `gen` writes.
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv[1:]) == 0, " ".join(argv)

"""README.md says what the code does: its CLI examples run as written,
its tolerance table is the one in ``commitsched.model``, and its lists of
algorithms, bound entries and ``ratios.csv`` columns are the package's."""

import math
import re
import shlex
from pathlib import Path

from commitsched import model
from commitsched.cli import main
from commitsched.harness import CSV_COLUMNS, theoretical_bounds
from commitsched.policy import ALGORITHMS

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


def test_readme_lists_exactly_the_tolerance_table():
    # Rows "| `NAME` | value | meaning | 2^k |" of the table under "## Conventions".
    section = README.read_text(encoding="utf-8").split("\n## Conventions\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\s*\| `([A-Z_]+)` \| ([^|]+) \|.*\| 2\^(\d+) \|$", section, re.MULTILINE)
    table = {name: v for name, v in vars(model).items() if name.isupper() and type(v) is float}
    assert {name: float(value) for name, value, _ in rows} == table
    assert len(rows) == len(table)
    for name, value, k in rows:
        assert math.ulp(2.0 ** (int(k) - 1)) <= float(value) < math.ulp(2.0 ** int(k)), name


def test_readme_lists_the_algorithm_table():
    paragraph = README.read_text(encoding="utf-8").split("\nAlgorithms: ", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == ALGORITHMS


def test_readme_lists_the_csv_columns():
    text = README.read_text(encoding="utf-8")
    columns = re.search(r"writes `ratios\.csv` with columns\s+`([^`]+)`", text).group(1)
    assert [c.strip() for c in columns.split(",")] == CSV_COLUMNS


def test_readme_lists_every_bound_entry():
    paragraph = README.read_text(encoding="utf-8").split("\n`bounds` prints ", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`([a-z_]+)`", paragraph))
    assert set(theoretical_bounds(1, 0.5)) <= named

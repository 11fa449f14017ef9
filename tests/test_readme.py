"""README.md states facts that the code owns; these tests keep the two in step."""

import importlib
import re
from pathlib import Path

import twistcover.checks as checks

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_suite_counts_match_the_checks():
    # the pipeline list and the `verify` example each state the count
    counts = re.findall(r"(\d+) (?:seeded property|invariant) suites", README)
    assert len(counts) == 2
    assert [int(c) for c in counts] == [len(checks.ALL_CHECKS)] * 2


def test_readme_bounds_table_names_module_constants():
    # each row is | `module.CONSTANT` | value | what it bounds |
    section = README.split("\n## Bounds\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|", section, re.M)
    assert len(rows) == section.count("\n| `")
    assert rows
    for mod, name, value in rows:
        assert name.isupper(), name
        module = importlib.import_module(f"twistcover.{mod}")
        assert getattr(module, name) == float(value), (mod, name, value)

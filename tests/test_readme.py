"""The README's library example runs as written, and its family table
matches the one in hullcodes.families."""

import pathlib
import re

from hullcodes.families import FAMILY_TABLE

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_as_written():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under ## Library"
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})


def test_family_table_matches_the_package():
    section = README.read_text().split("\nFamilies (all over odd characteristic):\n", 1)[1]
    lines = [line for line in section.split("\n\n", 1)[0].splitlines() if line.startswith("|")]
    assert [c.strip() for c in lines[0].strip("|").split("|")][:3] == ["family", "variants", "parameters"]
    rows = {}
    for line in lines[2:]:
        name, variants, parameters = (c.strip() for c in line.strip("|").split("|")[:3])
        required = tuple(x.strip() for x in parameters.split("(")[0].split(","))
        rows[name] = (tuple(x.strip() for x in variants.split(",")), required)
    assert rows == {name: (row[1], row[2]) for name, row in FAMILY_TABLE.items()}

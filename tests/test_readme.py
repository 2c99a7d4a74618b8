"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_as_written():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under ## Library"
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})

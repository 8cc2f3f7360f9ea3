"""README's code runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    # the first fenced python block under the "## Library sketch" heading
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    exec(compile(block.group(1), f"{README}:Library sketch", "exec"), {})
    assert capsys.readouterr().out

"""The README's documented examples run as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    value, unit = capsys.readouterr().out.split()
    assert unit == "bits/s/Hz"
    assert math.isfinite(float(value)) and float(value) > 0

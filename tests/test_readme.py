"""The README's documented examples run as written."""

import math
import re
import shlex
from dataclasses import fields
from pathlib import Path

from fddlink.cli import build_parser
from fddlink.config import ScenarioConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    value, unit = capsys.readouterr().out.split()
    assert unit == "bits/s/Hz"
    assert math.isfinite(float(value)) and float(value) > 0


def test_command_line_block_parses():
    # a flag the code has dropped but the docs still show fails here
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("fddlink ")]
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv[1:]).func), argv


def test_scenario_table_names_every_config_field():
    # a field added to or dropped from ScenarioConfig but not the table fails here
    section = README.read_text(encoding="utf-8").split("\n## Scenario files\n", 1)[1]
    keys = [re.findall(r"`(\w+)`", line.split("|")[1])
            for line in section.split("\n\n## ", 1)[0].splitlines() if line.startswith("| `")]
    names = [name for row in keys for name in row]
    assert sorted(names) == sorted(f.name for f in fields(ScenarioConfig))

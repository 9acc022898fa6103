"""The library examples in README.md run and give the values their comments state."""

import re
from pathlib import Path

from absorbing_ideals import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_as_documented():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    exec(blocks[0], namespace)
    zero = namespace["zero"]
    assert namespace["omega"](zero).value == 3
    assert namespace["check_radical_power"](zero, 3).holds
    assert namespace["verify_trace"](namespace["trace"]).ok
    exec(blocks[1], namespace)
    ring, v = namespace["ring"], namespace["v"]
    assert v == 7
    assert ring.render_value(ring.mul_values(v, v)) == "(0,1)"


def test_readme_command_table_lists_exactly_the_cli_subcommands():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)([^`]*)`", section, flags=re.MULTILINE)
    assert sorted(command for command, _ in rows) == sorted(cli.COMMANDS)
    # every flag a row's command cell shows is one of that command's options
    for command, usage in rows:
        options = {flag for flag, _ in cli.COMMANDS[command][2]}
        for flag in re.findall(r"--[a-z-]+", usage):
            assert flag in options, (command, flag)

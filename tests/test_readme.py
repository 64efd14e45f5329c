"""Every `adaptkit ...` command line in README's fenced code blocks parses with
the CLI's parser, and every `ak.<name>` in its python blocks is a name of the
package, so the documented commands and names cannot drift from the code."""
import re
import shlex
from pathlib import Path

import adaptkit
from adaptkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines() -> list[str]:
    """The lines beginning with `adaptkit ` inside fenced code blocks, with
    backslash continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("adaptkit ")]


def test_readme_cli_lines_parse():
    lines = readme_command_lines()
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            raise AssertionError(f"README line does not parse: {line}") from None


def test_readme_python_names_exist():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    names = set(re.findall(r"\bak\.(\w+)", "".join(blocks)))
    assert len(names) >= 10
    assert sorted(n for n in names if not hasattr(adaptkit, n)) == []

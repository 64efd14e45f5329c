"""Every `adaptkit ...` command line in README's fenced code blocks parses with
the CLI's parser, every `ak.<name>` in its python blocks is a name of the
package, and every `ak.<name>(...)` call there binds to that name's signature,
so the documented commands, names and calls cannot drift from the code."""
import ast
import inspect
import re
import shlex
from pathlib import Path

import adaptkit
from adaptkit import cli
from adaptkit.errors import ConfigError

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
        except (SystemExit, ConfigError):
            raise AssertionError(f"README line does not parse: {line}") from None


def readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_names_exist():
    blocks = readme_python_blocks()
    names = set(re.findall(r"\bak\.(\w+)", "".join(blocks)))
    assert len(names) >= 10
    assert sorted(n for n in names if not hasattr(adaptkit, n)) == []


def test_readme_python_calls_bind_to_signatures():
    calls = [node for block in readme_python_blocks() for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "ak"]
    assert len(calls) >= 10
    for call in calls:
        signature = inspect.signature(getattr(adaptkit, call.func.attr))
        try:
            signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as e:
            raise AssertionError(f"README call {ast.unparse(call)}: {e}") from None

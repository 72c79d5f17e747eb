"""The README's command examples: every `$ heckeseries ...` line, run through
the CLI, prints the lines shown under it and exits as documented; and its
table of size caps, whose every value is its module's constant."""

import importlib
import shlex
from pathlib import Path

import pytest

from heckeseries.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# the README shows a violation, which exits 1; every other example exits 0
NONZERO_EXIT = {"series total-positivity --coeffs 1,1,1 --max-weight 3": 1}


def readme_examples():
    """(command, expected stdout) for each `$ heckeseries` line; its output
    runs to the next blank line or the end of the code block."""
    examples = []
    command = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ heckeseries "):
            command, output = line[len("$ heckeseries "):], []
            examples.append((command, output))
        elif command is not None and line and line != "```":
            output.append(line)
        else:
            command = None
    return [(command, "".join(f"{x}\n" for x in output)) for command, output in examples]


EXAMPLES = readme_examples()


def test_the_readme_has_seven_examples():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    code = main(shlex.split(command))
    assert (code, capsys.readouterr().out) == (NONZERO_EXIT.get(command, 0), expected)


def readme_caps():
    """(constant, module, value) for each row of the size-caps table."""
    text = README.read_text(encoding="utf-8").split("### Size caps", 1)[1]
    rows = [line.split(" | ") for line in text.splitlines() if line.startswith("| `")]
    return [tuple(cell.strip("`| ") for cell in row[:3]) for row in rows]


def test_the_caps_table_gives_every_cap_its_module_value():
    caps = readme_caps()
    for constant, module, value in caps:
        base, _, exponent = value.partition("**")
        actual = getattr(importlib.import_module(f"heckeseries.{module}"), constant)
        assert actual == int(base) ** int(exponent or 1), (constant, module)
    modules = [importlib.import_module(f"heckeseries.{m}") for _, m, _ in caps]
    names = {name for m in modules for name in vars(m) if name.endswith("_CAP")}
    assert names == {constant for constant, _, _ in caps}

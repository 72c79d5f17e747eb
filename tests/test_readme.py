"""The README's command examples: every `$ heckeseries ...` line, run through
the CLI, prints the lines shown under it and exits as documented."""

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

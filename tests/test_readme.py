"""The examples in README.md, run as they are written there."""

import doctest
import shlex
from pathlib import Path

import pytest

from stanley.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text of the README section with the given heading, up to the
    next heading of the same level."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def fenced(text, info=""):
    """The body of the first fenced block in text opened by ``` + info."""
    start = text.index(f"```{info}\n") + len(info) + 4
    return text[start:text.index("```", start)]


def command_examples():
    """(argv, stdout) for each `$ stanley` example under Command line:
    the output runs from the line after the command to the next blank."""
    examples = []
    for block in fenced(section("Command line")).split("\n\n"):
        command, _, output = block.partition("\n")
        assert command.startswith("$ stanley "), command
        examples.append((shlex.split(command)[2:], output.rstrip("\n") + "\n"))
    return examples


def test_library_example_runs_as_a_doctest():
    text = fenced(section("Library"), "python")
    test = doctest.DocTestParser().get_doctest(text, {}, "README Library", "README.md", 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted == 3 and result.failed == 0


EXAMPLES = command_examples()


def test_every_command_example_is_found():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_command_example_prints_what_the_readme_shows(argv, expected, capsys):
    status = main(argv)
    out, err = capsys.readouterr()
    assert (status, out, err) == (0, expected, "")

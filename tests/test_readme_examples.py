"""Every ``starclone`` command in the README's shell blocks, and its Python
quick start, runs cleanly."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from starclone import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``starclone ...`` lines of the README's ``sh`` blocks.

    Continuation lines are joined and trailing comments dropped.
    """
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("starclone "):
                commands.append(shlex.join(shlex.split(line, comments=True)))
    return commands


def test_readme_shows_commands():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)[1:]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "--output" in argv:
        written = tmp_path / argv[argv.index("--output") + 1]
        assert out == ""
        assert written.read_text().strip()
    else:
        assert out.strip()


def test_readme_python_block_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("0.80613")  # the value its comment shows
    assert len(out) == 6

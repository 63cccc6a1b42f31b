"""The README's library example and CLI commands run as written."""
import re
import shlex
from pathlib import Path

from addspan.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_library_example_runs():
    [block] = blocks("python")
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    trace6 = namespace["trace6"]
    assert trace6.k == 6 and trace6.potentials_recorded


def test_cli_commands_run(tmp_path, monkeypatch):
    """Each ``addspan ...`` line of the sh blocks, in order, in one directory."""
    commands = [line for block in blocks("sh") for line in block.splitlines()
                if line.startswith("addspan ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line

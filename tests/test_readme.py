"""The README's command-line configs run as written, so the docs keep to the keys the CLI accepts."""

import re
from pathlib import Path

import pytest

from siou.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _config_blocks():
    """``(subcommand, json text)`` for each JSON block under a ``###`` heading of the Command line section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = []
    for part in section.split("\n### ")[1:]:
        command = part.split("\n", 1)[0].strip()
        blocks += [(command, body) for body in re.findall(r"```json\n(.*?)```", part, flags=re.S)]
    return blocks


CONFIGS = _config_blocks()


@pytest.mark.parametrize("command, body", CONFIGS, ids=[f"{command}-{i}" for i, (command, _) in enumerate(CONFIGS)])
def test_readme_config_runs(tmp_path, capsys, command, body):
    config = tmp_path / "config.json"
    config.write_text(body, encoding="utf-8")
    argv = [command, "--config", str(config), "--json", str(tmp_path / "out.json")]
    if command != "kernel":
        argv += ["--csv", str(tmp_path / "out.csv")]
    assert main(argv) == 0, capsys.readouterr().err
    assert (tmp_path / "out.json").exists()


def test_the_readme_has_a_config_for_each_config_subcommand():
    assert sorted({command for command, _ in CONFIGS}) == ["kernel", "sample", "sheet"]

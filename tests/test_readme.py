"""The README's command-line configs run as written, and its key tables list the keys the CLI's tables hold."""

import re
from pathlib import Path

import pytest

from siou.cli import _TABLES, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _subcommand_parts():
    """``(subcommand, text)`` for each ``###`` heading of the Command line section."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [(part.split("\n", 1)[0].strip(), part) for part in section.split("\n### ")[1:]]


def _config_blocks():
    """``(subcommand, json text)`` for each JSON block under a ``###`` heading of the Command line section."""
    return [(command, body) for command, part in _subcommand_parts()
            for body in re.findall(r"```json\n(.*?)```", part, flags=re.S)]


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


def _schema_keys(table, prefix=""):
    """Every key path of a CLI table: nested objects as ``outer.inner``, and the keys of every tag case."""
    keys = set()
    for field in table:
        keys.add(prefix + field.key)
        if isinstance(field.kind, tuple):
            keys |= _schema_keys(field.kind, f"{prefix}{field.key}.")
        elif isinstance(field.kind, dict):
            for case in field.kind.values():
                keys |= _schema_keys(case, prefix)
    return keys


@pytest.mark.parametrize("command", sorted(_TABLES))
def test_the_readme_key_table_lists_the_cli_table(command):
    part = dict(_subcommand_parts())[command]
    rows = re.findall(r"^\| `([^`]+)` \|", part, flags=re.M)
    assert len(rows) == len(set(rows))
    assert set(rows) == _schema_keys(_TABLES[command])

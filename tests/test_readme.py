"""The README's command-line configs run as written, its key tables list the keys the CLI's tables hold, and
every run's echoed config runs again to the same bytes."""

import json
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


def _run(tmp_path, capsys, command, text, tag):
    """The JSON and CSV bytes (none for ``kernel``) of ``command`` run on the config ``text``."""
    config = tmp_path / f"{tag}.config.json"
    config.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(config), "--json", str(tmp_path / f"{tag}.json")]
    if command != "kernel":
        argv += ["--csv", str(tmp_path / f"{tag}.csv")]
    assert main(argv) == 0, capsys.readouterr().err
    csv_bytes = b"" if command == "kernel" else (tmp_path / f"{tag}.csv").read_bytes()
    return (tmp_path / f"{tag}.json").read_bytes(), csv_bytes


@pytest.mark.parametrize("command, body", CONFIGS, ids=[f"{command}-{i}" for i, (command, _) in enumerate(CONFIGS)])
def test_readme_config_runs(tmp_path, capsys, command, body):
    _run(tmp_path, capsys, command, body, "out")


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


def pytest_generate_tests(metafunc):
    # test_cli imports this module for CONFIGS, so its golden configs are imported here, at collection.
    if metafunc.definition.name == "test_an_output_config_reruns_to_the_same_bytes":
        from test_cli import GOLDEN_SAMPLE, GOLDEN_SHEET, KERNEL_BASE
        ops = {"cov_stationary": {"u": [1.0, 1.0], "v": [2.0, 1.0]}, "cov_dirac": {"u": [1.0, 1.0], "v": [2.0, 1.0]},
               "mean_dirac": {"u": [1.0, 1.0], "x0": 0.5}, "transition": {"a": [2.0, 2.0]}}
        cases = {f"readme-{command}-{i}": (command, body) for i, (command, body) in enumerate(CONFIGS)}
        cases |= {f"golden-sample-{name}": ("sample", json.dumps(cfg)) for name, (cfg, _, _) in GOLDEN_SAMPLE.items()}
        cases |= {f"golden-sheet-{name}": ("sheet", json.dumps(cfg)) for name, (cfg, _, _) in GOLDEN_SHEET.items()}
        cases |= {f"kernel-{op}": ("kernel", json.dumps({**KERNEL_BASE, "op": op, **keys})) for op, keys in ops.items()}
        metafunc.parametrize("command, text", list(cases.values()), ids=list(cases))


def test_an_output_config_reruns_to_the_same_bytes(tmp_path, capsys, command, text):
    json_bytes, csv_bytes = _run(tmp_path, capsys, command, text, "first")
    echoed = json.dumps(json.loads(json_bytes)["config"])
    assert _run(tmp_path, capsys, command, echoed, "again") == (json_bytes, csv_bytes)

"""Smoke tests of the shipped examples: every config under ``configs/`` runs
through the command line, so an API change cannot break them unnoticed."""

import json
from pathlib import Path

import pytest

from singlearm.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))

# extra command-line arguments per subcommand; simulations stay small
COMMAND_ARGS = {
    "design": [],
    "analyze": ["--data", str(ROOT / "configs" / "example_subjects.csv")],
    "simulate": ["--replications", "200", "--workers", "1"],
}


def test_every_example_is_collected():
    assert {p.name.split("_")[0] for p in CONFIGS} == set(COMMAND_ARGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_config_runs(config, tmp_path, capsys):
    command = config.name.split("_")[0]
    out = tmp_path / "report.json"
    argv = [command, "--config", str(config), "--out", str(out), *COMMAND_ARGS[command]]
    assert main(argv) == EXIT_OK
    assert f":: {command}" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["command"] == command
    assert report["results"]

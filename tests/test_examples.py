"""Smoke tests of the shipped examples: every config under ``configs/`` runs
through the command line, and every script under ``scripts/`` runs with
small arguments, so an API change cannot break them unnoticed."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from singlearm.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# extra command-line arguments per subcommand; simulations stay small
COMMAND_ARGS = {
    "design": [],
    "analyze": ["--data", str(ROOT / "configs" / "example_subjects.csv")],
    "simulate": ["--replications", "200", "--workers", "1"],
}


def test_every_example_is_collected():
    assert {p.name.split("_")[0] for p in CONFIGS} == set(COMMAND_ARGS)
    assert {p.name for p in SCRIPTS} == set(SCRIPT_ARGS) | {"weight_sweep_curves.py"}


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


def run_script(path, monkeypatch, *args):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    module.main()


SCRIPT_ARGS = {
    "benchmark_sample_sizes.py": ["--delta", "2.0"],
    "benchmark_weights.py": [],
    "liver_study.py": ["--simulate", "--replications", "200", "--workers", "1"],
}


@pytest.mark.parametrize(
    "name", sorted(SCRIPT_ARGS), ids=lambda name: name.removesuffix(".py")
)
def test_script_prints_table(name, monkeypatch, capsys):
    run_script(ROOT / "scripts" / name, monkeypatch, *SCRIPT_ARGS[name])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) > 1


def test_weight_sweep_script_writes_cells(monkeypatch, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_script(
        ROOT / "scripts" / "weight_sweep_curves.py",
        monkeypatch,
        "--out", str(out), "--sizes", "25", "100", "--weights", "3",
        "--replications", "200", "--workers", "1",
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["n"]), float(r["weight"])) for r in rows] == [
        (25, 0.0), (25, 0.5), (25, 1.0), (100, 0.0), (100, 0.5), (100, 1.0)
    ]
    assert "wrote 6 cells" in capsys.readouterr().out

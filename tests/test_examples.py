"""Smoke tests of the shipped examples: every config under ``configs/`` runs
through the command line and every ``python`` block of the README runs, so
an API change cannot break them unnoticed, and every setting a config's
comments offer is a key the command accepts."""

import json
import re
from pathlib import Path

import pytest

from singlearm.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)

# extra command-line arguments per subcommand; simulations stay small
COMMAND_ARGS = {
    "design": [],
    "analyze": ["--data", str(ROOT / "configs" / "example_subjects.csv")],
    "simulate": ["--replications", "200", "--workers", "1"],
}


# a commented-out setting such as "# power: 0.8   # target power"
COMMENTED_SETTING = re.compile(r"^# ?([a-z_]+): ")
COMMENTED = [
    (config, line)
    for config in CONFIGS
    for line in config.read_text().splitlines()
    if COMMENTED_SETTING.match(line)
]


def reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_every_example_is_collected():
    assert {p.name.split("_")[0] for p in CONFIGS} == set(COMMAND_ARGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_config_runs(config, tmp_path, capsys):
    command = config.name.split("_")[0]
    out = tmp_path / "report.json"
    argv = [command, "--config", str(config), "--out", str(out), *COMMAND_ARGS[command]]
    assert main(argv) == EXIT_OK
    assert f":: {command}" in capsys.readouterr().out
    report = json.loads(out.read_text(), parse_constant=reject_constant)
    assert report["command"] == command
    assert report["results"]


@pytest.mark.parametrize(
    "config, line", COMMENTED,
    ids=[f"{c.name}:{COMMENTED_SETTING.match(line)[1]}" for c, line in COMMENTED],
)
def test_commented_setting_is_a_known_key(config, line, tmp_path, capsys):
    command = config.name.split("_")[0]
    edited = tmp_path / config.name
    edited.write_text(config.read_text().replace(line, line.lstrip("# "), 1))
    main([command, "--config", str(edited), *COMMAND_ARGS[command]])
    assert "unknown config key" not in capsys.readouterr().err


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_example_runs(block):
    exec(compile(block, "README.md", "exec"), {})

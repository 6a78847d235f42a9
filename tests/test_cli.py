"""End-to-end command-line behavior, exit codes, and report files."""

import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import types
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import singlearm
from singlearm import simulate
from singlearm.analysis import TrialDataset
from singlearm.cli import (
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    ReportEnvelope,
    cmd_simulate,
    main,
    read_subject_csv,
    write_subject_csv,
)
from reference_values import BENCHMARK_SAMPLE_SIZES, SAMPLE_SIZE_POLICY_ORDER

LOG_TWO = math.log(2.0)

DESIGN_YAML = textwrap.dedent(
    """\
    null_family: weibull
    null_shape: 1.22
    null_median: 9.0
    hazard_ratio: 1.75
    follow_up: 3.0
    accrual_length: 5.0
    weight_policy: uncorrelated_null
    """
)

ANALYZE_YAML = textwrap.dedent(
    """\
    null_family: exponential
    null_median: 9.0
    analysis_time: 8.0
    weight_policy: fixed
    fixed_weight: 0.1923
    """
)

SUBJECT_CSV = textwrap.dedent(
    """\
    entry_time,time_on_study,event
    0.5,7.5,1
    3.5,4.5,1
    1.0,6.0,0
    """
)

SIMULATE_YAML = textwrap.dedent(
    """\
    null_family: exponential
    null_median: 2.0
    n: 40
    policies: wu,compensator
    follow_up: 1.0
    accrual_length: 3.0
    replications: 400
    seed: 7
    """
)


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def rows_digest(rows):
    """sha256 of the rows as canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


class TestDesignCommand:
    def test_case_study(self, tmp_path, capsys):
        cfg = put(tmp_path, "design.yaml", DESIGN_YAML)
        out = str(tmp_path / "report.json")
        assert main(["design", "--config", cfg, "--out", out]) == EXIT_OK
        report = read_json(out)
        assert report["command"] == "design"
        assert report["results"]["n"] == 106
        assert report["results"]["weight"] == pytest.approx(0.1923, abs=1e-3)
        assert report["results"]["analysis_time"] == 8.0
        assert "advisory" in report["results"]
        # defaults are materialized in the config echo
        assert report["config"]["alpha"] == 0.05
        assert report["config"]["power"] == 0.8
        assert "n: 106" in capsys.readouterr().out
        assert list(report) == [
            "tool", "version", "command", "timestamp", "config", "data_path", "results", "warnings",
        ]

    def test_policy_changes_size(self, tmp_path):
        text = DESIGN_YAML.replace("uncorrelated_null", "compensator")
        cfg = put(tmp_path, "design.yaml", text)
        out = str(tmp_path / "report.json")
        assert main(["design", "--config", cfg, "--out", out]) == EXIT_OK
        assert read_json(out)["results"]["n"] == 113

    def test_accrual_rate_solves_length(self, tmp_path):
        text = DESIGN_YAML.replace("accrual_length: 5.0", "accrual_rate: 21.2")
        cfg = put(tmp_path, "design.yaml", text)
        out = str(tmp_path / "report.json")
        assert main(["design", "--config", cfg, "--out", out]) == EXIT_OK
        report = read_json(out)
        assert report["results"]["n"] == 106
        assert 4.9 < report["results"]["accrual_length"] < 5.01

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = put(tmp_path, "design.yaml", DESIGN_YAML + "weight_polcy: wu\n")
        assert main(["design", "--config", cfg]) == EXIT_USAGE
        assert "weight_polcy" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = put(tmp_path, "design.yaml", DESIGN_YAML.replace("follow_up: 3.0\n", ""))
        assert main(["design", "--config", cfg]) == EXIT_USAGE
        assert "follow_up" in capsys.readouterr().err

    def test_conflicting_accrual_keys(self, tmp_path):
        cfg = put(tmp_path, "design.yaml", DESIGN_YAML + "accrual_rate: 10.0\n")
        assert main(["design", "--config", cfg]) == EXIT_USAGE

    def test_identity_hazard_ratio_is_infeasible(self, tmp_path):
        cfg = put(
            tmp_path, "design.yaml", DESIGN_YAML.replace("hazard_ratio: 1.75", "hazard_ratio: 1.0")
        )
        assert main(["design", "--config", cfg]) == EXIT_INFEASIBLE

    def test_missing_config_file(self, tmp_path):
        assert main(["design", "--config", str(tmp_path / "nope.yaml")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra, named",
        [("1: 2\nfoo: 3\n", "1"), ("null: 4\nfoo: 3\n", "None"), ("true: 5\nfoo: 3\n", "True")],
        ids=["int", "null", "bool"],
    )
    def test_non_string_keys_rejected(self, tmp_path, capsys, extra, named):
        cfg = put(tmp_path, "design.yaml", DESIGN_YAML + extra)
        assert main(["design", "--config", cfg]) == EXIT_USAGE
        assert f"unknown config key for design: {named}" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_three_subject_run(self, tmp_path):
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        data = put(tmp_path, "trial.csv", SUBJECT_CSV)
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--config", cfg, "--data", data, "--out", out]) == EXIT_OK
        report = read_json(out)
        results = report["results"]
        assert results["n"] == 3
        assert results["events"] == 2
        a0 = (7.5 + 4.5 + 6.0) * LOG_TWO / 9.0
        assert results["expected"] == pytest.approx(a0, rel=1e-12)
        z = (2.0 - a0) / math.sqrt(0.1923 * 2.0 + (1.0 - 0.1923) * a0)
        assert results["statistic"] == pytest.approx(z, rel=1e-12)
        assert results["reject_two_sided"] is False
        assert report["data_path"] == data

    def test_row_beyond_horizon_names_the_line(self, tmp_path, capsys):
        bad = SUBJECT_CSV.replace("3.5,4.5,1", "3.5,6.5,1")
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        data = put(tmp_path, "trial.csv", bad)
        assert main(["analyze", "--config", cfg, "--data", data]) == EXIT_DATA
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", ["3.5,nan,1", "nan,4.5,1"])
    def test_non_finite_value_names_the_line(self, tmp_path, capsys, bad_row):
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        data = put(tmp_path, "trial.csv", SUBJECT_CSV.replace("3.5,4.5,1", bad_row))
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--config", cfg, "--data", data, "--out", out]) == EXIT_DATA
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_infinite_analysis_time_rejected(self, tmp_path):
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML.replace("8.0", ".inf"))
        data = put(tmp_path, "trial.csv", SUBJECT_CSV)
        assert main(["analyze", "--config", cfg, "--data", data]) == EXIT_USAGE

    def test_line_number_counts_blank_rows(self, tmp_path, capsys):
        # the bad row sits on file line 6, after two blank rows
        text = SUBJECT_CSV.replace("0.5,7.5,1\n", "0.5,7.5,1\n\n,,\n")
        text = text.replace("1.0,6.0,0", "1.0,-6.0,0")
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        data = put(tmp_path, "trial.csv", text)
        assert main(["analyze", "--config", cfg, "--data", data]) == EXIT_DATA
        assert "line 6" in capsys.readouterr().err

    def test_bad_header(self, tmp_path, capsys):
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        data = put(tmp_path, "trial.csv", "entry,time,event\n0,1,1\n")
        assert main(["analyze", "--config", cfg, "--data", data]) == EXIT_DATA
        assert "header" in capsys.readouterr().err

    def test_byte_order_mark_is_read_past(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        results = []
        for name, encoding in (("plain.csv", "utf-8"), ("marked.csv", "utf-8-sig")):
            out = str(tmp_path / f"{name}.json")
            (tmp_path / name).write_bytes(SUBJECT_CSV.encode(encoding))
            data = str(tmp_path / name)
            assert main(["analyze", "--config", cfg, "--data", data, "--out", out]) == EXIT_OK
            results.append(read_json(out)["results"])
        assert results[0] == results[1]

    def test_no_information_is_a_numerical_failure(self, tmp_path):
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        data = put(
            tmp_path, "trial.csv", "entry_time,time_on_study,event\n1.0,0.0,0\n2.0,0.0,0\n"
        )
        assert main(["analyze", "--config", cfg, "--data", data]) == EXIT_NUMERICAL

    def test_random_km_reads_no_dropout_column(self, tmp_path):
        cfg_text = ANALYZE_YAML.replace("weight_policy: fixed\nfixed_weight: 0.1923\n",
                                        "weight_policy: random_km\n")
        cfg = put(tmp_path, "analyze.yaml", cfg_text)
        flagged = "entry_time,time_on_study,event,dropout\n0.5,7.5,1,0\n3.5,4.5,1,0\n1.0,6.0,0,1\n"
        results = []
        for name, text in (("bare.csv", SUBJECT_CSV), ("flagged.csv", flagged)):
            out = str(tmp_path / f"{name}.json")
            data = put(tmp_path, name, text)
            assert main(["analyze", "--config", cfg, "--data", data, "--out", out]) == EXIT_OK
            results.append(read_json(out)["results"])
        bare, with_flags = results
        assert not bare["weight_fallback"]
        assert (bare["weight"], bare["statistic"]) == (with_flags["weight"], with_flags["statistic"])

    def test_random_km_fallback_warns(self, tmp_path, capsys):
        cfg_text = ANALYZE_YAML.replace("weight_policy: fixed\nfixed_weight: 0.1923\n",
                                        "weight_policy: random_km\n")
        cfg = put(tmp_path, "analyze.yaml", cfg_text)
        data = put(
            tmp_path,
            "trial.csv",
            "entry_time,time_on_study,event,dropout\n0.0,2.0,1,0\n0.0,3.0,1,0\n",
        )
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--config", cfg, "--data", data, "--out", out]) == EXIT_OK
        assert "fallback" in capsys.readouterr().err
        report = read_json(out)
        assert report["results"]["weight"] == 0.5
        assert report["results"]["weight_fallback"] is True
        assert report["warnings"]


class TestSimulateCommand:
    def test_scenario_runs_and_prints_policies(self, tmp_path, capsys):
        cfg = put(tmp_path, "sim.yaml", SIMULATE_YAML)
        out = str(tmp_path / "report.json")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        report = read_json(out)
        labels = [pol["label"] for pol in report["results"]["policies"]]
        assert labels == ["wu", "compensator"]
        assert report["results"]["replications"] == 400
        assert "rate_left" in capsys.readouterr().out

    def test_config_echo_reproduces_results(self, tmp_path):
        cfg = put(tmp_path, "sim.yaml", SIMULATE_YAML)
        out = str(tmp_path / "report.json")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        report = read_json(out)
        rerun = cmd_simulate(dict(report["config"]))
        assert rerun.results == report["results"]

    def test_flag_overrides(self, tmp_path):
        cfg = put(tmp_path, "sim.yaml", SIMULATE_YAML)
        out = str(tmp_path / "report.json")
        code = main(
            ["simulate", "--config", cfg, "--out", out, "--seed", "99",
             "--replications", "150", "--workers", "1"]
        )
        assert code == EXIT_OK
        report = read_json(out)
        assert report["config"]["seed"] == 99
        assert report["config"]["replications"] == 150
        assert report["results"]["replications"] == 150

    @pytest.mark.parametrize(
        "text",
        [
            SIMULATE_YAML.replace("seed: 7", "seed: 18446744073709551616"),
            "preset: pbc\nseed: 18446744073709551616\n",
        ],
        ids=["scenario", "preset_run"],
    )
    def test_seed_past_64_bits_rejected(self, tmp_path, capsys, text):
        cfg = put(tmp_path, "sim.yaml", text)
        code = main(["simulate", "--config", cfg, "--replications", "100", "--workers", "1"])
        assert code == EXIT_USAGE
        assert "2**64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("preset: pbc\nseed: 1\nn: 5\ninclude_power: false\n", "simulate preset pbc: 'n'"),
            ("preset: figure1\nseed: 1\ninclude_power: false\n", "simulate preset figure1: 'include_power'"),
            (SIMULATE_YAML + "power: 0.9\n", "a simulate scenario: 'power'"),
        ],
        ids=["pbc_n", "figure1_include_power", "scenario_power"],
    )
    def test_key_the_mode_never_reads_rejected(self, tmp_path, capsys, text, named):
        cfg = put(tmp_path, "sim.yaml", text)
        code = main(["simulate", "--config", cfg, "--replications", "20", "--workers", "1"])
        assert code == EXIT_USAGE
        assert f"unknown config key for {named}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("design", DESIGN_YAML + "power: 1.0\n"),
            ("simulate", "preset: pbc\nseed: 1\npower: 1.0\n"),
            ("simulate", "preset: table2\nseed: 1\npower: 0\n"),
        ],
        ids=["design", "pbc", "table2"],
    )
    def test_power_outside_the_unit_interval_rejected(self, tmp_path, capsys, command, text):
        cfg = put(tmp_path, "run.yaml", text)
        assert main([command, "--config", cfg]) == EXIT_USAGE
        assert "power must lie in (0, 1)" in capsys.readouterr().err

    def test_preset_echo_holds_only_keys_it_reads(self, tmp_path):
        cfg = put(tmp_path, "sim.yaml", "preset: pbc\nreplications: 200\nseed: 5\n")
        out = str(tmp_path / "report.json")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        report = read_json(out)
        assert report["config"] == {
            "preset": "pbc", "alpha": 0.05, "replications": 200, "seed": 5,
            "power": 0.8, "include_power": True,
        }
        assert cmd_simulate(dict(report["config"])).results == report["results"]

    def test_missing_seed_rejected(self, tmp_path):
        cfg = put(tmp_path, "sim.yaml", SIMULATE_YAML.replace("seed: 7\n", ""))
        assert main(["simulate", "--config", cfg, "--workers", "1"]) == EXIT_USAGE

    def test_bad_policy_token(self, tmp_path):
        cfg = put(tmp_path, "sim.yaml", SIMULATE_YAML.replace("wu,compensator", "wu,bogus"))
        assert main(["simulate", "--config", cfg, "--workers", "1"]) == EXIT_USAGE

    def test_fixed_policy_token(self, tmp_path):
        cfg = put(
            tmp_path, "sim.yaml", SIMULATE_YAML.replace("wu,compensator", "fixed:0.3")
        )
        out = str(tmp_path / "report.json")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        pol = read_json(out)["results"]["policies"][0]
        assert pol["label"] == "fixed(0.3)"
        assert pol["weight"] == 0.3

    def test_preset_rows_to_csv(self, tmp_path):
        cfg = put(
            tmp_path,
            "sim.yaml",
            "preset: pbc\nreplications: 200\nseed: 5\ninclude_power: false\n",
        )
        out = str(tmp_path / "rows.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [113, 76, 95, 106]
        assert [r["policy_label"] for r in rows] == [
            "compensator", "counting", "wu", "uncorrelated_null"
        ]

    def test_preset_rows_same_in_json_and_csv(self, tmp_path):
        cfg = put(tmp_path, "sim.yaml", "preset: pbc\nreplications: 200\nseed: 5\ninclude_power: false\n")
        as_json, as_csv = str(tmp_path / "rows.json"), str(tmp_path / "rows.csv")
        for out in (as_json, as_csv):
            assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        rows = read_json(as_json)["results"]["rows"]
        with open(as_csv, newline="") as fh:
            cells = list(csv.DictReader(fh))
        # power is None without include_power, an empty cell in CSV
        assert all(row["power"] is None for row in rows)
        assert cells == [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]

    def test_report_without_determinate_replication_is_strict_json(self, tmp_path, capsys):
        # one subject under a near-zero hazard never has an event, so the
        # counting weight leaves every replication indeterminate
        cfg = put(
            tmp_path,
            "sim.yaml",
            SIMULATE_YAML.replace("null_median: 2.0", "null_rate: 1.0e-6")
            .replace("n: 40", "n: 1")
            .replace("wu,compensator", "counting")
            .replace("replications: 400", "replications: 3"),
        )
        out = str(tmp_path / "report.json")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        assert "rate_two=n/a" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with open(out) as fh:
            report = json.load(fh, parse_constant=reject)
        pol = report["results"]["policies"][0]
        assert pol["indeterminate"] == 3
        assert pol["rate_two"] is None and pol["se_left"] is None

    def test_csv_output_requires_rows(self, tmp_path):
        cfg = put(tmp_path, "sim.yaml", SIMULATE_YAML)
        out = str(tmp_path / "rows.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_USAGE

    def test_csv_output_rejected_before_the_scenario_runs(self, tmp_path, monkeypatch):
        def no_tally(runs, workers):
            raise AssertionError("the scenario was simulated")

        monkeypatch.setattr(simulate, "_tally", no_tally)
        cfg = put(tmp_path, "sim.yaml", SIMULATE_YAML)
        out = str(tmp_path / "rows.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_USAGE

    def test_design_csv_output_rejected_before_the_design(self, tmp_path, capsys):
        cfg = put(tmp_path, "design.yaml", DESIGN_YAML)
        out = tmp_path / "design.csv"
        assert main(["design", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "CSV output" in captured.err
        assert not out.exists()

    def test_preset_seed_past_64_bits_rejected_before_any_draw(self, tmp_path, monkeypatch):
        keys = []
        real = simulate.substream

        def recording(seed, index):
            keys.append((seed, index))
            return real(seed, index)

        monkeypatch.setattr(simulate, "substream", recording)
        # every run of a preset is keyed by the seed itself, so the largest
        # 64-bit seed runs
        cfg = put(tmp_path, "sim.yaml", "preset: pbc\nseed: 18446744073709551615\n")
        assert main(["simulate", "--config", cfg, "--replications", "100", "--workers", "1"]) == EXIT_OK
        assert keys == [(2**64 - 1, 0)]
        keys.clear()
        cfg = put(tmp_path, "sim.yaml", "preset: pbc\nseed: 18446744073709551616\n")
        code = main(["simulate", "--config", cfg, "--replications", "20000", "--workers", "1"])
        assert code == EXIT_USAGE
        assert keys == []

    @pytest.mark.parametrize("text", [SIMULATE_YAML, "preset: pbc\nseed: 3\ninclude_power: false\n"],
                             ids=["scenario", "preset"])
    def test_report_names_the_stream_version(self, tmp_path, text):
        cfg = put(tmp_path, "sim.yaml", text)
        out = str(tmp_path / "report.json")
        assert main(["simulate", "--config", cfg, "--out", out, "--replications", "50", "--workers", "1"]) == EXIT_OK
        assert read_json(out)["results"]["stream_version"] == simulate.STREAM_VERSION == 2


def without(text, line):
    assert line in text
    return text.replace(line, "")


# (command, config, a substring of the error naming the key or value); each
# config exits 2 before any computation
BAD_CONFIGS = {
    "null_family": ("design", DESIGN_YAML.replace("family: weibull", "family: gompertz"), "null_family"),
    "alt_family": (
        "design", without(DESIGN_YAML, "hazard_ratio: 1.75\n") + "alt_family: gompertz\nalt_median: 12.0\n",
        "alt_family",
    ),
    "truth_family": ("simulate", SIMULATE_YAML + "truth_family: gompertz\ntruth_median: 3.0\n", "truth_family"),
    "weibull_no_shape": ("design", without(DESIGN_YAML, "null_shape: 1.22\n"), "null_shape"),
    "weibull_rate": ("design", DESIGN_YAML + "null_rate: 0.1\n", "null_rate"),
    "exponential_shape": ("analyze", ANALYZE_YAML + "null_shape: 1.5\n", "null_shape"),
    "exponential_rate_and_median": ("analyze", ANALYZE_YAML + "null_rate: 0.1\n", "null_rate"),
    "fixed_no_weight": ("analyze", without(ANALYZE_YAML, "fixed_weight: 0.1923\n"), "fixed"),
    "fixed_weight_above_one": ("analyze", ANALYZE_YAML.replace("0.1923", "1.5"), "fixed weight"),
    "fixed_weight_on_wu": ("analyze", ANALYZE_YAML.replace("policy: fixed", "policy: wu"), "fixed"),
    "unknown_policy": ("design", DESIGN_YAML.replace("policy: uncorrelated_null", "policy: bogus"), "'bogus'"),
    "token_not_a_number": ("simulate", SIMULATE_YAML.replace("wu,compensator", "wu,fixed:abc"), "fixed:abc"),
    "token_above_one": ("simulate", SIMULATE_YAML.replace("wu,compensator", "fixed:2"), "fixed weight"),
    "token_value_on_wu": ("simulate", SIMULATE_YAML.replace("wu,compensator", "wu:0.3"), "wu:0.3"),
    "token_bare_fixed": ("simulate", SIMULATE_YAML.replace("wu,compensator", "wu,fixed"), "'fixed'"),
    "both_dropout_keys": (
        "design", DESIGN_YAML + "dropout_rate_yearly: 0.1\ndropout_hazard: 0.1\n", "dropout_hazard"
    ),
    "dropout_rate_one": ("design", DESIGN_YAML + "dropout_rate_yearly: 1.0\n", "dropout"),
    "dropout_rate_negative": ("simulate", SIMULATE_YAML + "dropout_rate_yearly: -0.1\n", "dropout"),
    "truth_and_hazard_ratio_truth": (
        "simulate", SIMULATE_YAML + "truth_family: exponential\ntruth_median: 3.0\nhazard_ratio_truth: 1.5\n",
        "hazard_ratio_truth",
    ),
    # keys that no law reads without their family key
    "alt_keys_without_family": ("design", DESIGN_YAML + "alt_median: 12.0\n", "alt_family"),
    "truth_keys_without_family": ("simulate", SIMULATE_YAML + "truth_median: 3.0\n", "truth_family"),
    # analyze reads the design-context keys only with accrual_length
    "analyze_dropout_rate_without_accrual": (
        "analyze", ANALYZE_YAML + "dropout_rate_yearly: 5.0\n", "accrual_length"
    ),
    "analyze_dropout_hazard_without_accrual": (
        "analyze", ANALYZE_YAML + "dropout_hazard: 0.1\n", "accrual_length"
    ),
    "analyze_accrual_exponent_without_accrual": (
        "analyze", ANALYZE_YAML + "accrual_exponent: 2.0\n", "accrual_length"
    ),
}


@pytest.mark.parametrize("command, text, named", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_rejected(tmp_path, capsys, command, text, named):
    cfg = put(tmp_path, "run.yaml", text)
    extra = {
        "design": [],
        "analyze": ["--data", put(tmp_path, "trial.csv", SUBJECT_CSV)],
        "simulate": ["--replications", "20", "--workers", "1"],
    }[command]
    assert main([command, "--config", cfg, *extra]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert named in captured.err
    # rejected before the command computes or prints anything
    assert captured.out == ""


def with_value(text, key, value):
    """The config with ``key`` set to the YAML scalar ``value``."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key}:")]
    return "\n".join([*lines, f"{key}: {value}"]) + "\n"


NON_FINITE_KEYS = [
    ("design", DESIGN_YAML, key)
    for key in ("follow_up", "accrual_length", "accrual_exponent", "null_median", "hazard_ratio",
                "dropout_hazard", "dropout_rate_yearly", "alpha")
] + [
    ("analyze", ANALYZE_YAML, key) for key in ("analysis_time", "null_median", "fixed_weight", "alpha")
] + [
    ("simulate", SIMULATE_YAML, key)
    for key in ("follow_up", "accrual_length", "null_median", "hazard_ratio_truth", "dropout_hazard")
]


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
@pytest.mark.parametrize(
    "command, text, key", NON_FINITE_KEYS, ids=[f"{command}-{key}" for command, _, key in NON_FINITE_KEYS]
)
def test_non_finite_config_numbers_rejected(tmp_path, capsys, command, text, key, value):
    cfg = put(tmp_path, "run.yaml", with_value(text, key, value))
    extra = {
        "design": [],
        "analyze": ["--data", put(tmp_path, "trial.csv", SUBJECT_CSV)],
        "simulate": ["--replications", "20", "--workers", "1"],
    }[command]
    assert main([command, "--config", cfg, *extra]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"config key '{key}' must be a finite number" in captured.err
    assert captured.out == ""


def test_analyze_context_keys_rejected_before_the_data_is_read(tmp_path, capsys):
    cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML + "dropout_hazard: 0.1\n")
    code = main(["analyze", "--config", cfg, "--data", str(tmp_path / "missing.csv")])
    assert code == EXIT_USAGE
    assert "accrual_length" in capsys.readouterr().err


# (config, the key it gets wrong); analyze must reject each before the data is read
BAD_ANALYZE_VALUES = {
    "alpha_above_one": (ANALYZE_YAML + "alpha: 1.5\n", "alpha"),
    "negative_analysis_time": (ANALYZE_YAML.replace("analysis_time: 8.0", "analysis_time: -8.0"), "analysis_time"),
    "infinite_analysis_time": (ANALYZE_YAML.replace("analysis_time: 8.0", "analysis_time: .inf"), "analysis_time"),
}


@pytest.mark.parametrize("data", ["missing.csv", "example_subjects.csv"])
@pytest.mark.parametrize("text, key", BAD_ANALYZE_VALUES.values(), ids=BAD_ANALYZE_VALUES.keys())
def test_analyze_config_values_rejected_before_the_data_is_read(tmp_path, capsys, text, key, data):
    cfg = put(tmp_path, "analyze.yaml", text)
    data_path = tmp_path / data if data == "missing.csv" else Path(__file__).parent.parent / "configs" / data
    assert main(["analyze", "--config", cfg, "--data", str(data_path)]) == EXIT_USAGE
    assert key in capsys.readouterr().err


def test_report_envelope_fills_tool_version_and_timestamp():
    env = ReportEnvelope(command="design", config={}, results={}, warnings=[])
    assert (env.tool, env.version) == ("singlearm", singlearm.__version__)
    assert datetime.fromisoformat(env.timestamp).utcoffset() == timedelta(0)


def test_design_command_loads_no_scipy():
    # scipy is a test-only dependency: the package and a design run must not
    # import it, in a fresh interpreter where no test has imported it first
    root = Path(__file__).resolve().parent.parent
    code = textwrap.dedent(
        """
        import sys
        import singlearm
        # the package alone reads no config and writes no report
        assert not {"yaml", "singlearm.cli"} & sys.modules.keys(), "import singlearm loaded the CLI"
        from singlearm import cli
        status = cli.main(["design", "--config", "configs/design_pbc.yaml"])
        print(status, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} []"


class TestPresetRuns:
    # any change to the engine, the stream keys or the row shape changes
    # these digests; recorded at stream version 2
    FIGURE1_DIGEST = "eee74f15389936d9c0313d9339ab4fe01bb2ada12066ba435c20c79ca6b92bd0"
    TABLE2_DIGEST = "accbe95efd65950ed76896905f30cab852dc070c1ee9d4ffec9ba66125bee341"

    def test_figure1_rows_to_csv(self, tmp_path):
        cfg = put(tmp_path, "sim.yaml", "preset: figure1\nreplications: 20\nseed: 11\n")
        out = str(tmp_path / "sweep.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        targets = (0.2, 0.4, 0.6, 0.8)
        sizes = (25, 50, 100, 250, 500, 1000, 5000)
        weights = [i / 100.0 for i in range(101)]
        assert [
            (float(r["target_event_rate"]), int(r["n"]), float(r["weight"])) for r in rows
        ] == list(itertools.product(targets, sizes, weights))
        assert rows_digest(rows) == self.FIGURE1_DIGEST

    def test_figure1_opens_one_pool(self, tmp_path, monkeypatch):
        # the blocks of all four target rates are dealt over one pool, with
        # unchanged rows; 20 replications in blocks of 10 make two blocks
        monkeypatch.setattr(simulate, "_MAX_BLOCK_REPS", 10)
        cfg = put(tmp_path, "sim.yaml", "preset: figure1\nreplications: 20\nseed: 11\n")
        serial = str(tmp_path / "serial.csv")
        assert main(["simulate", "--config", cfg, "--out", serial, "--workers", "1"]) == EXIT_OK
        sizes = []
        real_pool = simulate.multiprocessing.Pool

        def counting_pool(processes):
            sizes.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(simulate, "multiprocessing", types.SimpleNamespace(Pool=counting_pool))
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        out = str(tmp_path / "sweep.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "2"]) == EXIT_OK
        assert sizes == [2]
        with open(out, newline="") as fh, open(serial, newline="") as sh:
            assert list(csv.DictReader(fh)) == list(csv.DictReader(sh))

    def test_table2_sample_sizes(self, tmp_path):
        cfg = put(
            tmp_path, "sim.yaml", "preset: table2\nreplications: 20\nseed: 12\ninclude_power: false\n"
        )
        out = str(tmp_path / "table.json")
        assert main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
        rows = read_json(out)["results"]["rows"]
        assert len(rows) == 216
        expected = [
            (shape, median, delta, label, BENCHMARK_SAMPLE_SIZES[(delta, shape)][median][k])
            for shape in (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
            for median in (1.0, 2.0, 4.0)
            for delta in (1.2, 1.5, 2.0)
            for k, label in enumerate(SAMPLE_SIZE_POLICY_ORDER)
        ]
        assert [
            (r["shape"], r["median"], r["hazard_ratio"], r["policy_label"], r["n"]) for r in rows
        ] == expected
        assert all(r["power"] is None for r in rows)
        assert rows_digest(rows) == self.TABLE2_DIGEST


def assert_same_columns(a, b):
    for name in ("entry_times", "times_on_study", "events", "dropouts"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.analysis_time == b.analysis_time


class TestSubjectCsvHelpers:
    def test_round_trip_without_dropout(self, tmp_path):
        path = str(tmp_path / "subjects.csv")
        data = TrialDataset.from_arrays(
            np.array([0.5, 3.5, 1.0]),
            np.array([7.5, 4.5, 6.0]),
            np.array([True, True, False]),
            8.0,
        )
        write_subject_csv(path, data)
        again = read_subject_csv(path, 8.0)
        assert_same_columns(again, data)
        write_subject_csv(str(tmp_path / "b.csv"), again)
        assert (tmp_path / "b.csv").read_text() == (tmp_path / "subjects.csv").read_text()

    def test_round_trip_with_dropout(self, tmp_path):
        path = str(tmp_path / "subjects.csv")
        data = TrialDataset.from_arrays(
            np.array([0.0, 0.25]),
            np.array([1.0 / 3.0, 0.7]),
            np.array([False, True]),
            2.0,
            np.array([True, False]),
        )
        write_subject_csv(path, data)
        again = read_subject_csv(path, 2.0)
        assert_same_columns(again, data)
        assert again.dropouts is not None

    def test_line_numbers_survive_helper(self, tmp_path):
        path = put(tmp_path, "bad.csv", SUBJECT_CSV.replace("3.5,4.5,1", "3.5,9.0,1"))
        with pytest.raises(Exception) as excinfo:
            read_subject_csv(path, 8.0)
        assert "line 3" in str(excinfo.value)


class TestUnreadablePaths:
    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["design", "--config", str(tmp_path)]) == EXIT_USAGE
        assert str(tmp_path) in capsys.readouterr().err

    def test_config_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "design.yaml"
        cfg.write_bytes(DESIGN_YAML.encode() + b"# caf\xe9\n")
        assert main(["design", "--config", str(cfg)]) == EXIT_USAGE
        assert str(cfg) in capsys.readouterr().err

    def test_data_is_not_utf8(self, tmp_path, capsys):
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        data = tmp_path / "subjects.csv"
        data.write_bytes(SUBJECT_CSV.encode() + b"1.0,\xff,0\n")
        assert main(["analyze", "--config", cfg, "--data", str(data)]) == EXIT_DATA
        assert str(data) in capsys.readouterr().err

    def test_data_is_a_directory(self, tmp_path, capsys):
        cfg = put(tmp_path, "analyze.yaml", ANALYZE_YAML)
        data = tmp_path / "subjects"
        data.mkdir()
        assert main(["analyze", "--config", cfg, "--data", str(data)]) == EXIT_DATA
        assert str(data) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", [os.path.join("missing", "report.json"), "existing" + os.sep], ids=["missing", "existing_directory"]
    )
    def test_output_directory_missing(self, tmp_path, capsys, name):
        cfg = put(tmp_path, "design.yaml", DESIGN_YAML)
        (tmp_path / "existing").mkdir()
        out = os.path.join(tmp_path, name)
        assert main(["design", "--config", cfg, "--out", out]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert out in captured.err
        # rejected before the design is computed
        assert ":: design" not in captured.out


class TestArgumentParsing:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_seed_flag_only_on_simulate(self, tmp_path):
        cfg = put(tmp_path, "design.yaml", DESIGN_YAML)
        with pytest.raises(SystemExit) as excinfo:
            main(["design", "--config", cfg, "--seed", "1"])
        assert excinfo.value.code == 2

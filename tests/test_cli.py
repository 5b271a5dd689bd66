"""Tests for the command line front end."""
import dataclasses
import json
import math
import os
import platform
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmc_search
import oracle
from hmc_search import cli
from hmc_search.cli import (
    COMMANDS,
    UsageError,
    _fmt_exact,
    build_parser,
    config_dict,
    dispatch,
    parse_config,
    write_csv,
)
from hmc_search.env import RIGHT, RNG_CONTRACT, UP, make_rng
from hmc_search.evalharness import agent_route, evaluate_agent
from hmc_search.policy import read_qtable_csv, write_qtable_csv
from hmc_search.training import CONFIG_TYPES, Hyperparams, train_agent

FAST = {"num_episodes": 25, "max_steps": 60}


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST))
    return str(path)


def run(*argv):
    return dispatch(list(argv))


def test_parse_config_defaults():
    assert parse_config({}) == Hyperparams()


def test_parse_config_overrides_and_coercion():
    hp = parse_config({"num_episodes": 50.0, "learning_rate": 0.2})
    assert hp.num_episodes == 50
    assert isinstance(hp.num_episodes, int)
    assert hp.learning_rate == 0.2
    assert hp.grid_length == 20


def test_parse_config_rejects_bad_input(tmp_path):
    with pytest.raises(UsageError):
        parse_config({"episodes": 10})  # unknown key
    with pytest.raises(UsageError):
        parse_config({"num_episodes": True})
    with pytest.raises(UsageError):
        parse_config({"grid_length": 10.5})
    with pytest.raises(UsageError):
        parse_config({"learning_rate": -1.0})
    with pytest.raises(UsageError):
        parse_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError):
        parse_config(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(UsageError):
        parse_config(str(array))


def test_config_dict_roundtrip():
    hp = Hyperparams(num_episodes=77, mof_value=5.0)
    assert parse_config(config_dict(hp)) == hp
    assert set(config_dict(hp)) == set(CONFIG_TYPES)


def test_config_keys_are_the_numeric_hyperparams():
    assert list(CONFIG_TYPES) == [f.name for f in dataclasses.fields(Hyperparams)]


@pytest.mark.parametrize("config", [
    '{"mof_value": NaN}', '{"mof_value": Infinity}', '{"epsilon_decay": NaN}',
    '{"reward_scaling": Infinity}', '{"max_steps": Infinity}',
])
def test_non_finite_settings_are_usage_errors(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(config)
    out = tmp_path / "out"
    assert run("train", "--config", str(path), "--out", str(out)) == 1
    key = next(iter(json.loads(config)))
    assert f"error: {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--config", "malformed config JSON"), ("--from-manifest", "malformed manifest JSON")])
def test_a_file_that_is_not_utf8_is_a_usage_error(flag, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run("train", flag, str(path), "--out", str(tmp_path / "out")) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_dispatch_requires_valid_subcommand():
    assert run() == 1
    assert run("no-such-command") == 1


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert run("sweep", "--help") == 0
    assert "--plan" in capsys.readouterr().out


def test_the_parser_is_built_once_and_reused(capsys):
    parser = build_parser()
    assert run("no-such-command") == 1
    assert run("eval", "--help") == 0
    assert build_parser() is parser
    assert "--qtable" in capsys.readouterr().out


def test_dispatch_rejects_negative_seed(cfg_file, tmp_path):
    out = str(tmp_path / "out")
    assert run("train", "--config", cfg_file, "--seed", "-1", "--out", out) == 1


def test_train_outputs(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--config", cfg_file, "--seed", "3",
               "--out", str(out)) == 0
    table = read_qtable_csv(out / "qtable.csv")
    expected = train_agent(Hyperparams(**FAST), 3).q
    assert np.allclose(table, expected, rtol=1e-5, atol=1e-8)

    report_lines = (out / "train_report.csv").read_text().splitlines()
    assert report_lines[0] == "episode,epsilon,n_step,n_poll,r_t"
    assert len(report_lines) == 1 + FAST["num_episodes"]

    manifest = json.loads((out / "manifest_train.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 3
    assert manifest["config"]["num_episodes"] == 25
    assert manifest["outputs"] == ["qtable.csv", "train_report.csv"]


def test_train_same_seed_is_byte_identical(cfg_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", cfg_file, "--seed", "5", "--out", str(out_a)) == 0
    assert run("train", "--config", cfg_file, "--seed", "5", "--out", str(out_b)) == 0
    assert (out_a / "qtable.csv").read_bytes() == (out_b / "qtable.csv").read_bytes()
    assert (out_a / "train_report.csv").read_bytes() == \
        (out_b / "train_report.csv").read_bytes()


def test_from_manifest_reproduces_run(cfg_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", cfg_file, "--seed", "7", "--out", str(out_a)) == 0
    assert run("train", "--from-manifest", str(out_a / "manifest_train.json"),
               "--out", str(out_b)) == 0
    assert (out_a / "qtable.csv").read_bytes() == (out_b / "qtable.csv").read_bytes()
    assert (out_a / "train_report.csv").read_bytes() == \
        (out_b / "train_report.csv").read_bytes()


def test_from_manifest_flag_precedence(cfg_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", cfg_file, "--seed", "7", "--out", str(out_a)) == 0
    assert run("train", "--from-manifest", str(out_a / "manifest_train.json"),
               "--seed", "8", "--out", str(out_b)) == 0
    manifest = json.loads((out_b / "manifest_train.json").read_text())
    assert manifest["seed"] == 8
    assert (out_a / "qtable.csv").read_bytes() != (out_b / "qtable.csv").read_bytes()


def test_from_manifest_rejects_other_command(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--config", cfg_file, "--out", str(out)) == 0
    assert run("eval", "--from-manifest", str(out / "manifest_train.json"),
               "--out", str(out)) == 1


def test_eval_without_table_is_runtime_error(cfg_file, tmp_path):
    out = str(tmp_path / "empty")
    assert run("eval", "--config", cfg_file, "--out", out) == 2


def test_a_failed_run_leaves_no_directory_it_made(cfg_file, tmp_path, monkeypatch):
    missing = str(tmp_path / "missing.csv")
    assert run("eval", "--config", cfg_file, "--qtable", missing,
               "--out", str(tmp_path / "x" / "y")) == 2
    assert run("sweep", "--config", cfg_file, "--plan", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "x" / "y")) == 1
    assert not (tmp_path / "x").exists()

    def interrupt(path, *args):  # Ctrl-C during the first write
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_csv", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run("pattern", "--out", str(tmp_path / "x" / "y"))
    assert not (tmp_path / "x").exists()


def test_a_failed_run_keeps_an_out_that_existed(cfg_file, tmp_path):
    missing = str(tmp_path / "missing.csv")
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run("eval", "--config", cfg_file, "--qtable", missing, "--out", str(existing)) == 2
    assert existing.is_dir()
    # Only the part of the path this run made goes.
    assert run("eval", "--config", cfg_file, "--qtable", missing,
               "--out", str(existing / "new")) == 2
    assert existing.is_dir() and not any(existing.iterdir())


def test_eval_pipeline(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--config", cfg_file, "--seed", "2", "--out", str(out)) == 0
    assert run("eval", "--config", cfg_file, "--seed", "2", "--episodes", "20",
               "--out", str(out)) == 0
    lines = (out / "eval_steps.csv").read_text().splitlines()
    assert lines[0] == "episode,steps"
    assert len(lines) == 21

    hp = Hyperparams(**FAST)
    q = read_qtable_csv(out / "qtable.csv")
    stats = evaluate_agent(agent_route(q, hp), hp, 20, make_rng(2, stream=1))
    manifest = json.loads((out / "manifest_eval.json").read_text())
    assert manifest["metrics"]["mean_steps"] == stats.mean
    assert manifest["metrics"]["failures"] == stats.failures


def test_duel_counts_add_up(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--config", cfg_file, "--out", str(out)) == 0
    assert run("duel", "--config", cfg_file, "--runs", "15", "--out", str(out)) == 0
    lines = (out / "duels.csv").read_text().splitlines()
    assert lines[0] == "opponent,wins,ties,losses"
    rows = dict()
    for line in lines[1:]:
        name, wins, ties, losses = line.split(",")
        rows[name] = int(wins) + int(ties) + int(losses)
    assert rows == {"snake": 15, "spiral": 15}


def test_scoremap_covers_grid(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--config", cfg_file, "--out", str(out)) == 0
    assert run("scoremap", "--config", cfg_file, "--opponent", "spiral",
               "--out", str(out)) == 0
    lines = (out / "scoremap_spiral.csv").read_text().splitlines()
    assert lines[0] == "x,y,outcome"
    assert len(lines) == 401
    metrics = json.loads((out / "manifest_scoremap.json").read_text())["metrics"]
    assert metrics["opponent"] == "spiral"
    assert metrics["wins"] + metrics["ties"] + metrics["losses"] == 400


def test_route_accounting(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--config", cfg_file, "--out", str(out)) == 0
    assert run("route", "--config", cfg_file, "--episodes", "10",
               "--out", str(out)) == 0
    lines = (out / "route.csv").read_text().splitlines()
    assert len(lines) == 401
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    metrics = json.loads((out / "manifest_route.json").read_text())["metrics"]
    assert metrics["total_visits"] == total
    assert total >= 10


def test_pattern_reports_frozen_means(tmp_path):
    out = tmp_path / "out"
    assert run("pattern", "--out", str(out)) == 0
    for name in ("snake.csv", "spiral.csv", "snake_steps.csv", "spiral_steps.csv"):
        assert (out / name).exists()
    metrics = json.loads((out / "manifest_pattern.json").read_text())["metrics"]
    assert metrics["snake"]["path_moves"] == 114
    assert metrics["snake"]["mean_steps"] == 53.23
    assert metrics["spiral"]["path_moves"] == 143
    assert metrics["spiral"]["mean_steps"] == 69.6475


def test_out_env_variable(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("HMC_SEARCH_OUT", str(target))
    assert run("pattern") == 0
    assert (target / "snake.csv").exists()


def test_csv_files_use_newline_endings(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--config", cfg_file, "--out", str(out)) == 0
    for name in ("qtable.csv", "train_report.csv"):
        raw = (out / name).read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def test_sweep_command(cfg_file, tmp_path):
    out = tmp_path / "out"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"stages": [{"parameter": "option_length", "values": [1, 3]}]}))
    assert run("sweep", "--config", cfg_file, "--plan", str(plan),
               "--runs", "2", "--episodes", "10", "--out", str(out)) == 0
    lines = (out / "sweep_00_option_length.csv").read_text().splitlines()
    assert lines[0] == "value,mean_steps,ci_half_width"
    assert len(lines) == 3
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["winners"][0]["parameter"] == "option_length"
    assert summary["final_config"]["option_length"] == \
        summary["winners"][0]["best_value"]


def test_a_sweep_writes_integers_for_a_real_setting_as_floats(cfg_file, tmp_path):
    # The summary writes a plan's 0 and 1 as the floats a config holds.
    out = tmp_path / "out"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"stages": [{"parameter": "discount_rate", "values": [0, 1]}]}))
    assert run("sweep", "--config", cfg_file, "--plan", str(plan),
               "--runs", "1", "--episodes", "5", "--out", str(out)) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    best = summary["winners"][0]["best_value"]
    assert type(best) is float and best in (0.0, 1.0)
    assert summary["final_config"]["discount_rate"] == best
    assert type(summary["final_config"]["discount_rate"]) is float
    rows = (out / "sweep_00_discount_rate.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]


def test_a_sweep_value_cell_tells_close_values_apart(cfg_file, tmp_path):
    # Six significant digits would print each pair as one value; a value
    # that six digits do not give back is written in full.
    out = tmp_path / "out"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"stages": [
        {"parameter": "learning_rate", "values": [0.1234561, 0.1234562]},
        {"parameter": "mof_value", "values": [1000000.0, 1000001.0]}]}))
    assert run("sweep", "--config", cfg_file, "--plan", str(plan),
               "--runs", "1", "--episodes", "5", "--out", str(out)) == 0
    for name, cells in (("sweep_00_learning_rate.csv", ["0.1234561", "0.1234562"]),
                        ("sweep_01_mof_value.csv", ["1e+06", "1000001.0"])):
        rows = (out / name).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == cells


def test_sweep_requires_plan(cfg_file, tmp_path):
    assert run("sweep", "--config", cfg_file,
               "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("plan, message", [
    ([{"parameter": "option_length", "values": [1]}], "plan must be an object"),
    ({"stages": [{"parameter": "bogus", "values": [1]}]}, "unknown sweep parameter 'bogus'"),
    ({"stages": [{"values": [1]}]}, "stage 0 must be an object with a 'parameter'"),
    (None, "No such file or directory"),
    ({"stages": [{"parameter": "option_length", "values": [1]}], "select_on": "fast"},
     "select_on must be 'steps' or 'wins'"),
    ({"stages": [{"parameter": "option_length", "values": [1]}], "two_pass": False},
     "unknown plan keys: two_pass"),
    ({"stages": []}, "stages must be nonempty"),
    ({"stages": [{"parameter": "option_length", "values": [1]}], "selecton": "wins"},
     "unknown plan keys: selecton"),
    ({"stages": [{"parameter": "option_length", "values": [1], "runs": 1}]},
     "unknown stage 0 keys: runs"),
    ({"stages": [{"parameter": ["mof_value"], "values": [1.0]}]},
     "unknown sweep parameter ['mof_value']"),
    ({"stages": [{"parameter": "option_length", "values": [1]}], "runs_per_value": None},
     "runs_per_value must be an integer >= 1, not None"),
])
def test_malformed_plans_are_usage_errors(plan, message, cfg_file, tmp_path, capsys):
    path = tmp_path / "plan.json"
    if plan is not None:
        path.write_text(json.dumps(plan))
    assert run("sweep", "--config", cfg_file, "--plan", str(path),
               "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert f"error: plan {path}: " in err and message in err


@pytest.mark.parametrize("stages, message", [
    ([{"parameter": "option_length", "values": ["x"]}],
     "option_length must be a number, not 'x'"),
    ([{"parameter": "option_length", "values": [1], "runs_per_value": 2}],
     "unknown stage 0 keys: runs_per_value"),
    ([{"parameter": "option_length", "values": [0]}],
     "option_length = 0: option_length must be at least 1"),
    ([{"parameter": "mof_value", "values": [float("nan")]}],
     "mof_value must be finite, not nan"),
])
def test_bad_plan_values_are_usage_errors(stages, message, cfg_file, tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"stages": stages}))
    assert run("sweep", "--config", cfg_file, "--plan", str(path),
               "--out", str(tmp_path / "out")) == 1
    assert f"error: plan {path}: {message}" in capsys.readouterr().err


def test_train_manifest_counts_decision_cap_exits(tmp_path):
    # No exploration and no memory weight: every episode clamps at the
    # start until the decision cap ends it.
    config = {"grid_length": 6, "pollution_diameter": 1, "max_steps": 10,
              "num_episodes": 5, "epsilon_start": 0.0, "mof_value": 0.0}
    for name, overrides, exits in (("capped", {}, 5), ("plain", {"epsilon_start": 1.0}, 0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, **overrides}))
        out = tmp_path / name
        assert run("train", "--config", str(path), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest_train.json").read_text())
        assert manifest["metrics"]["decision_cap_exits"] == exits


def test_scoring_manifests_say_whether_the_decision_cap_cut_the_route(tmp_path):
    # Every cell prefers up, a wall at the start, and no memory weight turns
    # the agent: the route makes no move before the decision cap ends it.
    # A table that walks right reaches the 4-step budget, uncapped.
    for preferred, config, capped in (
            (UP, {"grid_length": 5, "pollution_diameter": 1, "max_steps": 20,
                  "mof_value": 0}, True),
            (RIGHT, {"grid_length": 5, "pollution_diameter": 1, "max_steps": 4,
                     "option_length": 1}, False)):
        out = tmp_path / str(preferred)
        out.mkdir()
        (out / "config.json").write_text(json.dumps(config))
        q = [0.0] * (4 * 5 * 5)
        q[preferred::4] = [1.0] * (5 * 5)
        write_qtable_csv(out / "qtable.csv", q)
        for argv in (["eval", "--episodes", "50"], ["duel", "--runs", "5"],
                     ["scoremap"], ["route", "--episodes", "5"]):
            assert run(*argv, "--config", str(out / "config.json"), "--out", str(out)) == 0
            metrics = json.loads((out / f"manifest_{argv[0]}.json").read_text())["metrics"]
            assert metrics["route_capped"] is capped, argv
        if capped:
            assert json.loads((out / "manifest_eval.json").read_text())["metrics"][
                "failures"] == 50
            assert len(agent_route(q, Hyperparams(**config)).cells) == 1


def test_population_command(cfg_file, tmp_path):
    out = tmp_path / "out"
    assert run("population", "--config", cfg_file, "--runs", "2",
               "--episodes", "10", "--out", str(out)) == 0
    lines = (out / "population_agents.csv").read_text().splitlines()
    assert len(lines) == 3
    hist = (out / "population_steps_hist.csv").read_text().splitlines()
    assert sum(int(line.split(",")[1]) for line in hist[1:]) == 2


# --- value tables that do not fit the settings


@pytest.fixture
def table_lines(tmp_path):
    """Lines of a valid value table for a 20-cell grid, header first."""
    path = tmp_path / "qtable.csv"
    write_qtable_csv(path, [0.0] * (4 * 20 * 20))
    return path.read_text().splitlines()


def eval_table(tmp_path, lines, *config):
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    return run("eval", *config, "--qtable", str(path), "--episodes", "5",
               "--out", str(tmp_path / "out"))


def test_eval_accepts_an_untouched_table(tmp_path, table_lines):
    assert eval_table(tmp_path, table_lines) == 0


def test_eval_rejects_a_table_for_another_grid(tmp_path, table_lines, capsys):
    config = tmp_path / "grid10.json"
    config.write_text(json.dumps({"grid_length": 10}))
    assert eval_table(tmp_path, table_lines, "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert "bad value table" in err
    assert "q holds 1600 values, not 400 for a 10-cell grid" in err


def test_eval_rejects_a_table_with_missing_rows(tmp_path, table_lines, capsys):
    assert eval_table(tmp_path, table_lines[:-50]) == 1
    assert "1550 rows" in capsys.readouterr().err


def test_eval_rejects_an_unknown_direction(tmp_path, table_lines, capsys):
    table_lines[1] = "0,0,north,0"
    assert eval_table(tmp_path, table_lines) == 1
    assert "malformed row '0,0,north,0'" in capsys.readouterr().err


def test_eval_rejects_a_header_only_table(tmp_path, table_lines, capsys):
    assert eval_table(tmp_path, table_lines[:1]) == 1
    assert "0 rows" in capsys.readouterr().err


def test_eval_rejects_a_non_finite_value(tmp_path, table_lines, capsys):
    table_lines[1] = "0,0,up,nan"
    assert eval_table(tmp_path, table_lines) == 1
    assert "non-finite" in capsys.readouterr().err


def test_eval_rejects_a_repeated_row(tmp_path, table_lines, capsys):
    table_lines[2] = table_lines[1]
    assert eval_table(tmp_path, table_lines) == 1
    assert "repeats" in capsys.readouterr().err


def test_eval_rejects_a_row_off_the_grid(tmp_path, table_lines, capsys):
    table_lines[1] = "-1,0,up,0"
    assert eval_table(tmp_path, table_lines) == 1
    assert "outside a 20-cell grid" in capsys.readouterr().err


# --- the command table


# Each command's extra flags and their defaults; every command also takes
# --config, --seed, --out and --from-manifest.
DECLARED = {
    "train": {},
    "eval": {"qtable": None, "episodes": 1000},
    "duel": {"qtable": None, "runs": 1000},
    "scoremap": {"qtable": None, "opponent": "snake"},
    "route": {"qtable": None, "episodes": 1000},
    "pattern": {},
    "sweep": {"plan": None, "runs": None, "episodes": 1000, "jobs": 1},
    "population": {"runs": 100, "episodes": 1000, "jobs": 1},
    "demo-static": {},
    "demo-dynamic": {"episodes": 1000},
}
PROVENANCE = {"hmc_search": hmc_search.__version__, "python": platform.python_version(),
              "numpy": np.__version__, "rng": RNG_CONTRACT}
TINY = {"grid_length": 8, "pollution_diameter": 3, "max_steps": 30, "num_episodes": 5}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny config, a table trained on it and a plan; the small flags per command."""
    root = tmp_path_factory.mktemp("tiny")
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY))
    plan = root / "plan.json"
    plan.write_text(json.dumps({"stages": [{"parameter": "option_length", "values": [1, 2]}]}))
    assert run("train", "--config", str(config), "--out", str(root)) == 0
    table = str(root / "qtable.csv")
    extra = {
        "train": [],
        "eval": ["--qtable", table, "--episodes", "5"],
        "duel": ["--qtable", table, "--runs", "5"],
        "scoremap": ["--qtable", table, "--opponent", "spiral"],
        "route": ["--qtable", table, "--episodes", "5"],
        "pattern": [],
        "sweep": ["--plan", str(plan), "--runs", "2", "--episodes", "5"],
        "population": ["--runs", "2", "--episodes", "5"],
        "demo-static": [],
        "demo-dynamic": ["--episodes", "5"],
    }
    return str(config), table, extra


def test_command_table_declares_the_extra_flags():
    assert {name: command.flags for name, command in COMMANDS.items()} == DECLARED
    assert sum(4 + len(flags) for flags in DECLARED.values()) == 56


@pytest.mark.parametrize("name", DECLARED)
def test_command_reruns_byte_identically_from_its_manifest(name, tiny, tmp_path):
    config, _, extra = tiny
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(name, "--config", config, "--seed", "4", *extra[name],
               "--out", str(out_a)) == 0
    manifest = json.loads((out_a / f"manifest_{name}.json").read_text())
    assert set(manifest["options"]) == set(DECLARED[name])
    assert manifest["provenance"] == PROVENANCE
    assert manifest["format"] == 1 and type(manifest["format"]) is int
    assert run(name, "--from-manifest", str(out_a / f"manifest_{name}.json"),
               "--out", str(out_b)) == 0
    assert manifest["outputs"]
    for output in manifest["outputs"]:
        assert (out_a / output).read_bytes() == (out_b / output).read_bytes()


@pytest.mark.parametrize("name", DECLARED)
def test_a_run_directory_holds_exactly_what_its_manifest_lists(name, tiny, tmp_path,
                                                                monkeypatch):
    """A run and its --from-manifest rerun, each into a fresh --out: the directory holds
    the manifest and the outputs it lists, and nothing else; outputs are renamed into
    place in write order, and the manifest after them."""
    renamed = []  # the names os.replace puts in place

    def record(src, dst, _replace=os.replace):
        renamed.append(os.path.basename(dst))
        _replace(src, dst)

    monkeypatch.setattr(os, "replace", record)
    config, _, extra = tiny
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    for out, argv in ((first, ["--config", config, "--seed", "3", *extra[name]]),
                      (rerun, ["--from-manifest", str(first / f"manifest_{name}.json")])):
        renamed.clear()
        assert run(name, *argv, "--out", str(out)) == 0
        manifest = json.loads((out / f"manifest_{name}.json").read_text())
        assert manifest["outputs"] and renamed == [*manifest["outputs"], f"manifest_{name}.json"]
        assert sorted(os.listdir(out)) == sorted(renamed)


def snapshot(directory):
    """Every file under directory, by relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("interrupt", [OSError("disk full"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
@pytest.mark.parametrize("name", DECLARED)
def test_a_run_that_fails_at_any_write_leaves_the_directory_as_it_was(name, interrupt, tiny,
                                                                      tmp_path, monkeypatch):
    """A run over an earlier one fails after each of its writes in turn, the manifest's
    included: the earlier results and manifest stay byte for byte, and no partial file
    is left."""
    config, _, extra = tiny
    out = tmp_path / "out"
    assert run(name, "--config", config, "--seed", "3", *extra[name], "--out", str(out)) == 0
    before = snapshot(out)
    written = [*json.loads((out / f"manifest_{name}.json").read_text())["outputs"],
               f"manifest_{name}.json"]
    for failing in range(len(written)):
        writes = []
        for writer in ("write_csv", "write_qtable_csv", "_write_json"):
            def fail(path, *args, _write=getattr(cli, writer)):
                _write(path, *args)  # the partial file is whole; the run fails after it
                writes.append(path)
                if len(writes) > failing:
                    raise interrupt
            monkeypatch.setattr(cli, writer, fail)
        argv = [name, "--config", config, "--seed", "4", *extra[name], "--out", str(out)]
        if isinstance(interrupt, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run(*argv)
        else:
            assert run(*argv) == 2
        assert writes[-1].endswith(f".{written[failing]}.partial")
        assert snapshot(out) == before
        monkeypatch.undo()


@pytest.mark.parametrize("name", DECLARED)
def test_a_run_whose_commit_fails_leaves_no_manifest_of_its_command(name, tiny, tmp_path,
                                                                    monkeypatch):
    config, _, extra = tiny
    out = tmp_path / "out"
    argv = [name, "--config", config, "--seed", "3", *extra[name], "--out", str(out)]
    assert run(*argv) == 0

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    assert run(*argv) == 2
    assert not (out / f"manifest_{name}.json").exists()
    assert not [p for p in os.listdir(out) if p.endswith(".partial")]


def test_a_run_that_cannot_replace_a_result_keeps_the_earlier_run(cfg_file, tmp_path, capsys):
    # A result name taken by a directory fails the run before anything is
    # renamed, so the table and the manifest of the earlier seed stay.
    out = tmp_path / "out"
    assert run("train", "--config", cfg_file, "--seed", "1", "--out", str(out)) == 0
    before = snapshot(out)
    (out / "train_report.csv").unlink()
    (out / "train_report.csv").mkdir()
    del before["train_report.csv"]
    assert run("train", "--config", cfg_file, "--seed", "2", "--out", str(out)) == 2
    assert "train_report.csv is a directory" in capsys.readouterr().err
    assert snapshot(out) == before
    assert sorted(os.listdir(out)) == ["manifest_train.json", "qtable.csv", "train_report.csv"]


def test_every_file_a_run_writes_takes_its_mode_from_the_umask(tiny, tmp_path):
    config, _, extra = tiny
    umask = os.umask(0o022)
    try:
        assert run("pattern", "--out", str(tmp_path / "pattern")) == 0
        assert run("sweep", "--config", config, *extra["sweep"],
                   "--out", str(tmp_path / "sweep")) == 0
    finally:
        os.umask(umask)

    def mode(*parts):
        return stat.S_IMODE(tmp_path.joinpath(*parts).stat().st_mode)

    assert mode("pattern", "manifest_pattern.json") == mode("pattern", "snake.csv") == 0o644
    assert (mode("sweep", "sweep_summary.json") == mode("sweep", "sweep_00_option_length.csv")
            == 0o644)


def test_a_fresh_process_records_its_provenance(tmp_path):
    # numpy is not loaded when the package is imported, so the manifest must
    # read its version after the command ran, not at import; scoremap (on the
    # table train wrote) and pattern draw nothing, so they never load it and
    # record null.
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for command, numpy_version in (("train", np.__version__), ("scoremap", None),
                                   ("pattern", None)):
        done = subprocess.run([sys.executable, "-m", "hmc_search", command,
                               "--config", str(config), "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        manifest = json.loads((tmp_path / "out" / f"manifest_{command}.json").read_text())
        assert manifest["provenance"] == {**PROVENANCE, "numpy": numpy_version}


# Every cached function of the loaded package modules, by module and name,
# with its hits, misses and size, after nothing but the import.
_CACHES_AFTER_IMPORT = """
import json, sys
import hmc_search.cli
print(json.dumps({f"{module}.{name}": [*value.cache_info()[:2], value.cache_info().currsize]
                  for module in sorted(sys.modules) if module.startswith("hmc_search")
                  for name, value in vars(sys.modules[module]).items()
                  if hasattr(value, "cache_info")}))
"""


def test_importing_the_cli_builds_no_table():
    """Tables are built on first use, never at import, which setup_s times."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _CACHES_AFTER_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    caches = json.loads(done.stdout)
    assert {"hmc_search.policy.option_walks", "hmc_search.policy.option_terminals",
            "hmc_search.env.cloud_row", "hmc_search.env.cloud_mask",
            "hmc_search.policy.row_heads"} <= set(caches)
    assert {name: counts for name, counts in caches.items() if counts != [0, 0, 0]} == {}


@pytest.mark.parametrize("name", DECLARED)
def test_command_rejects_an_undeclared_flag(name, tmp_path, capsys):
    flag = ["--runs", "3"] if name == "scoremap" else ["--opponent", "snake"]
    assert run(name, *flag, "--out", str(tmp_path)) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["scoremap", "--opponent", "bogus"], "--opponent: invalid choice: 'bogus'"),
    (["train", "--seed", "abc"], "--seed: invalid integer value: 'abc'"),
    (["eval", "--episodes", "0"], "--episodes: expected an integer >= 1, got '0'"),
    (["duel", "--runs", "-3"], "--runs: expected an integer >= 1, got '-3'"),
    (["population", "--jobs", "0"], "--jobs: expected an integer >= 1, got '0'"),
    (["sweep", "--episodes", "2.5"], "--episodes: invalid integer value: '2.5'"),
])
def test_bad_flag_values_are_usage_errors(argv, message, tmp_path, capsys):
    assert run(*argv, "--out", str(tmp_path)) == 1
    assert message in capsys.readouterr().err


EVAL_MANIFEST = {"command": "eval", "config": {}, "seed": 0}
READS = "; this version reads format 1, or a manifest with no format key"


@pytest.mark.parametrize("content, message", [
    (None, "cannot read manifest"),
    ("{not json", "malformed manifest JSON"),
    ("[1, 2]", "not a JSON object with config and options objects"),
    (json.dumps({"command": "eval", "seed": 0}), "with config and options objects"),
    (json.dumps({**EVAL_MANIFEST, "config": "tiny.json"}), "with config and options objects"),
    (json.dumps({**EVAL_MANIFEST, "config": {"grid_length": "8"}}), "must be a number"),
    (json.dumps({**EVAL_MANIFEST, "seed": -1}), "--seed: expected an integer >= 0, got '-1'"),
    (json.dumps({**EVAL_MANIFEST, "seed": 1.5}), "--seed: invalid integer value: '1.5'"),
    (json.dumps({"command": "eval", "config": {}}), "--seed: invalid integer value: 'None'"),
    (json.dumps({**EVAL_MANIFEST, "options": []}), "with config and options objects"),
    (json.dumps({**EVAL_MANIFEST, "options": {"episodes": 0}}),
     "--episodes: expected an integer >= 1, got '0'"),
    # Any format but 1, or not an int (a bool is none).
    (json.dumps({**EVAL_MANIFEST, "format": 2}), "has format 2" + READS),
    (json.dumps({**EVAL_MANIFEST, "format": 0}), "has format 0" + READS),
    (json.dumps({**EVAL_MANIFEST, "format": -3}), "has format -3" + READS),
    (json.dumps({**EVAL_MANIFEST, "format": "1"}), "has format '1'" + READS),
    (json.dumps({**EVAL_MANIFEST, "format": 1.0}), "has format 1.0" + READS),
    (json.dumps({**EVAL_MANIFEST, "format": True}), "has format True" + READS),
    (json.dumps({**EVAL_MANIFEST, "format": None}), "has format None" + READS),
])
def test_malformed_manifests_are_usage_errors(content, message, tmp_path, capsys):
    path = tmp_path / "manifest_eval.json"
    if content is not None:
        path.write_text(content)
    assert run("eval", "--from-manifest", str(path), "--out", str(tmp_path)) == 1
    assert message in capsys.readouterr().err


def test_manifest_names_the_table_it_read(tiny, tmp_path):
    # Without --qtable the table comes from the output directory; the manifest
    # records that path, so a rerun into another directory reads the same table.
    config, _, _ = tiny
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", config, "--seed", "3", "--out", str(out_a)) == 0
    assert run("eval", "--config", config, "--seed", "3", "--episodes", "20",
               "--out", str(out_a)) == 0
    manifest = json.loads((out_a / "manifest_eval.json").read_text())
    assert manifest["options"]["qtable"] == str(out_a / "qtable.csv")
    assert run("eval", "--from-manifest", str(out_a / "manifest_eval.json"),
               "--out", str(out_b)) == 0
    assert not (out_b / "qtable.csv").exists()
    assert (out_a / "eval_steps.csv").read_bytes() == (out_b / "eval_steps.csv").read_bytes()


def test_manifest_with_null_and_undeclared_options_reruns(tiny, tmp_path):
    # Older manifests stored the same five options for every command, null
    # where the command did not use them.
    config, table, _ = tiny
    old = tmp_path / "manifest_eval.json"
    old.write_text(json.dumps({
        "command": "eval", "config": TINY, "seed": 2,
        "options": {"runs": None, "episodes": 7, "qtable": table,
                    "opponent": "snake", "plan": None},
    }))
    assert run("eval", "--from-manifest", str(old), "--out", str(tmp_path / "a")) == 0
    assert run("eval", "--config", config, "--seed", "2", "--episodes", "7",
               "--qtable", table, "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "eval_steps.csv").read_bytes() == \
        (tmp_path / "b" / "eval_steps.csv").read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest_eval.json").read_text())
    assert manifest["options"] == {"qtable": table, "episodes": 7}
    # The old manifest has no provenance or format; the rerun's manifest records its own.
    assert manifest["provenance"] == PROVENANCE
    assert manifest["format"] == 1


# --- result CSVs


CSV_CELLS = st.one_of(
    st.integers(-10**12, 10**12), st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-7, 123456789.0]),
    st.floats().map(np.float64), st.integers(-10**6, 10**6).map(np.int64),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), st.booleans())


@settings(max_examples=200, deadline=None)
@given(header=st.lists(st.text("abcxyz_", min_size=1, max_size=6), min_size=1, max_size=5),
       rows=st.lists(st.lists(CSV_CELLS, max_size=6).map(tuple), max_size=30))
def test_write_csv_writes_the_bytes_of_a_format_call_per_cell(tmp_path_factory, header, rows):
    directory = tmp_path_factory.mktemp("csv")
    write_csv(directory / "new.csv", header, iter(rows))
    oracle.write_csv(directory / "old.csv", header, iter(rows))
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


@pytest.mark.parametrize("value, text", [
    (3, "3"), (True, "True"), ("snake", "snake"), (0.5, "0.5"), (0.1, "0.1"), (-0.0, "-0"),
    (1e-7, "1e-07"), (2.5e-300, "2.5e-300"), (math.inf, "inf"), (-math.inf, "-inf"),
    (math.nan, "nan"),
    # Six digits would not read back: repr keeps the values apart.
    (123456789.0, "123456789.0"), (1 / 3, "0.3333333333333333"),
])
def test_fmt_exact_texts(value, text):
    assert _fmt_exact(value) == text

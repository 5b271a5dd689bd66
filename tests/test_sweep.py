"""Tests for sweeps, the tuning loop, and plan files."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hmc_search.sweep import (
    SweepSpec,
    SweepValueError,
    confidence_interval,
    load_plan,
    run_sweep,
    tuning_loop,
)
from hmc_search.training import Hyperparams

QUICK = Hyperparams(num_episodes=30, max_steps=60)


def quick_spec(parameter="option_length", values=(1, 2), runs=2, select_on="steps"):
    return SweepSpec(parameter=parameter, values=list(values), base=QUICK,
                     runs_per_value=runs, base_seed=0, n_eval_episodes=15,
                     select_on=select_on)


def test_confidence_interval_constant_samples():
    assert confidence_interval([5, 5, 5, 5]) == (5.0, 0.0)


def test_confidence_interval_two_point_exact():
    # n=2, s = sqrt(50): 1.96 * sqrt(50) / sqrt(2) is exactly 9.8.
    assert confidence_interval([0, 10]) == (5.0, 9.8)


def test_confidence_interval_single_and_empty():
    assert confidence_interval([7.5]) == (7.5, 0.0)
    with pytest.raises(ValueError):
        confidence_interval([])


def test_confidence_interval_shift_invariant_width():
    data = [1.0, 4.0, 2.5, 9.0, 3.0]
    _, width = confidence_interval(data)
    mean, shifted_width = confidence_interval([v + 1000.0 for v in data])
    assert shifted_width == pytest.approx(width, rel=1e-9)
    assert mean == pytest.approx(1000.0 + sum(data) / 5)


def test_confidence_interval_shrinks_with_sample_count():
    # Duplicating the sample 4x shrinks the half width by the exact
    # finite-sample factor sqrt(4(n-1)/(4n-1)) / 2, close to 1/2.
    data = list(range(50))
    _, h1 = confidence_interval(data)
    _, h4 = confidence_interval(data * 4)
    factor = math.sqrt(4 * 49 / 199) / 2
    assert h4 / h1 == pytest.approx(factor, rel=1e-12)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(parameter="no_such_field", values=[1])
    for parameter in (["mof_value"], {"mof_value": 1}):
        with pytest.raises(ValueError, match=r"^unknown sweep parameter [\[{]'mof_value'"):
            SweepSpec(parameter=parameter, values=[1.0])
    with pytest.raises(ValueError):
        SweepSpec(parameter="option_length", values=[])
    with pytest.raises(ValueError):
        SweepSpec(parameter="option_length", values=[1], runs_per_value=0)
    with pytest.raises(ValueError):
        SweepSpec(parameter="binary_memory", values=[True])
    with pytest.raises(ValueError, match="^select_on must be 'steps' or 'wins', not 'fast'$"):
        SweepSpec(parameter="option_length", values=[1], select_on="fast")


def test_run_sweep_structure_and_reproducibility():
    first = run_sweep(quick_spec())
    second = run_sweep(quick_spec())
    assert first.parameter == "option_length"
    assert [v.value for v in first.per_value] == [1, 2]
    for mine, theirs in zip(first.per_value, second.per_value):
        assert mine.run_means == theirs.run_means
        assert mine.mean == theirs.mean
        assert mine.ci_half == theirs.ci_half
    assert first.best_value == second.best_value
    for result in first.per_value:
        mean, half = confidence_interval(result.run_means)
        assert result.mean == mean
        assert result.ci_half == half
        assert len(result.run_means) == 2
        assert result.win_rates is None


def test_run_sweep_best_has_lowest_mean():
    result = run_sweep(quick_spec(values=(1, 2, 3)))
    best = min(result.per_value, key=lambda v: v.mean)
    assert result.best_value == best.value


def test_run_sweep_tie_goes_to_earlier_value():
    # With normalized epsilon decay the decay setting is inert, so both
    # candidates train identical agents and the earlier one must win.
    result = run_sweep(quick_spec(parameter="epsilon_decay",
                                  values=(0.001, 0.002)))
    assert result.per_value[0].run_means == result.per_value[1].run_means
    assert result.best_value == 0.001


def test_run_sweep_records_win_rates_on_request():
    result = run_sweep(quick_spec(select_on="wins"))
    for per_value in result.per_value:
        assert per_value.win_rates is not None
        assert len(per_value.win_rates) == 2
        for rate in per_value.win_rates:
            assert 0.0 <= rate <= 1.0


def test_tuning_loop_single_stage_matches_run_sweep():
    hp, results = tuning_loop([quick_spec()])
    alone = run_sweep(quick_spec())
    assert len(results) == 1
    assert results[0].best_value == alone.best_value
    assert hp.option_length == alone.best_value


def test_tuning_loop_fixes_winner_and_keeps_other_fields():
    stages = [quick_spec(),
              quick_spec(parameter="mof_value", values=(5.0, 10.0))]
    hp, results = tuning_loop(stages)
    assert hp.option_length == results[0].best_value
    assert hp.mof_value == results[1].best_value
    assert hp.num_episodes == QUICK.num_episodes
    assert hp.max_steps == QUICK.max_steps

    # The second stage must have trained on top of the first winner.
    follow_up = run_sweep(SweepSpec(
        parameter="mof_value", values=[5.0, 10.0],
        base=QUICK.with_value("option_length", results[0].best_value),
        runs_per_value=2, base_seed=0, n_eval_episodes=15))
    assert results[1].best_value == follow_up.best_value
    assert [v.run_means for v in results[1].per_value] == \
        [v.run_means for v in follow_up.per_value]


def test_tuning_loop_select_on_wins():
    hp, results = tuning_loop([quick_spec(select_on="wins")])
    reference = run_sweep(quick_spec(select_on="wins"))
    rates = [sum(v.win_rates) / len(v.win_rates)
             for v in reference.per_value]
    expected = reference.per_value[max(range(2), key=lambda i: rates[i])].value
    assert reference.best_value == expected
    assert results[0].best_value == expected
    assert hp.option_length == expected


def test_tuning_loop_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tuning_loop([quick_spec(select_on="steps_and_wins")])
    with pytest.raises(ValueError):
        tuning_loop([])


def test_load_plan_from_dict():
    plan = {"stages": [{"parameter": "option_length", "values": [1, 2, 3]},
                       {"parameter": "mof_value", "values": [5, 10]}],
            "runs_per_value": 6, "select_on": "wins"}
    stages = load_plan(plan, QUICK, base_seed=3, n_eval_episodes=50)
    assert [s.parameter for s in stages] == ["option_length", "mof_value"]
    assert stages[0].values == [1, 2, 3]
    for stage in stages:
        assert stage.base == QUICK
        assert stage.runs_per_value == 6
        assert stage.base_seed == 3
        assert stage.n_eval_episodes == 50
        assert stage.select_on == "wins"


def test_load_plan_from_file_with_override(tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(
        {"stages": [{"parameter": "reward_scaling", "values": [10, 30]}],
         "runs_per_value": 9}))
    stages = load_plan(str(plan_file), QUICK, runs_per_value=2)
    assert len(stages) == 1
    assert stages[0].parameter == "reward_scaling"
    assert stages[0].runs_per_value == 2
    assert stages[0].select_on == "steps"


def test_load_plan_defaults_runs_to_twenty():
    stages = load_plan({"stages": [{"parameter": "reward_scaling", "values": [30]}]}, QUICK)
    assert stages[0].runs_per_value == 20


def test_load_plan_rejects_malformed():
    with pytest.raises(ValueError):
        load_plan([{"parameter": "reward_scaling", "values": [30]}], QUICK)
    with pytest.raises(ValueError):
        load_plan({"sweeps": []}, QUICK)
    with pytest.raises(ValueError):
        load_plan({"stages": [{"parameter": "bogus", "values": [1]}]}, QUICK)
    with pytest.raises(ValueError, match="stage 0 must be an object with a 'parameter'"):
        load_plan({"stages": [{"values": [1]}]}, QUICK)
    with pytest.raises(ValueError, match="stage 1 must be an object"):
        load_plan({"stages": [{"parameter": "option_length", "values": [1]},
                              {"parameter": "option_length", "values": 2}]}, QUICK)
    with pytest.raises(ValueError, match="select_on must be 'steps' or 'wins', not 'fast'"):
        load_plan({"stages": [{"parameter": "option_length", "values": [1]}],
                   "select_on": "fast"}, QUICK)
    with pytest.raises(ValueError, match="^stages must be nonempty$"):
        load_plan({"stages": []}, QUICK)


@pytest.mark.parametrize("runs", [None, 0, 1.5, True])
def test_load_plan_rejects_runs_that_are_not_a_positive_integer(runs):
    with pytest.raises(ValueError, match=f"^runs_per_value must be an integer >= 1, not {runs!r}$"):
        load_plan({"stages": [{"parameter": "option_length", "values": [1]}],
                   "runs_per_value": runs}, QUICK)


@pytest.mark.parametrize("stage, message", [
    ({"parameter": "option_length", "values": ["x"]}, "option_length must be a number, not 'x'"),
    ({"parameter": "option_length", "values": [True]}, "option_length must be a number, not True"),
    ({"parameter": "option_length", "values": [2.5]}, "option_length must be an integer, not 2.5"),
    ({"parameter": "learning_rate", "values": [None]}, "learning_rate must be a number, not None"),
])
def test_load_plan_rejects_values_of_the_wrong_type(stage, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_plan({"stages": [stage]}, QUICK)


def test_load_plan_accepts_integers_for_a_real_setting():
    stages = load_plan({"stages": [{"parameter": "discount_rate", "values": [0, 0.5]}]}, QUICK)
    assert stages[0].values == [0, 0.5]
    assert [type(v) for v in stages[0].values] == [float, float]


def test_load_plan_accepts_whole_floats_for_an_integer_setting():
    stages = load_plan({"stages": [{"parameter": "option_length", "values": [3.0, 4]}]}, QUICK)
    assert stages[0].values == [3, 4]
    assert [type(v) for v in stages[0].values] == [int, int]


@pytest.mark.parametrize("plan, message", [
    ({"stages": [{"parameter": "option_length", "values": [1]}], "selecton": "wins"},
     "unknown plan keys: selecton"),
    ({"stages": [{"parameter": "option_length", "values": [1]}], "runs": 1, "jobs": 2},
     "unknown plan keys: jobs, runs"),
    ({"stages": [{"parameter": "option_length", "values": [1]},
                 {"parameter": "mof_value", "values": [1], "runs": 1}]},
     "unknown stage 1 keys: runs"),
    # A plan no longer repeats itself, and its runs_per_value holds for every stage.
    ({"stages": [{"parameter": "option_length", "values": [1]}], "two_pass": True},
     "unknown plan keys: two_pass"),
    ({"stages": [{"parameter": "option_length", "values": [1], "runs_per_value": 4}]},
     "unknown stage 0 keys: runs_per_value"),
])
def test_load_plan_rejects_unknown_keys(plan, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_plan(plan, QUICK)


def test_every_shipped_plan_loads():
    plans = sorted((Path(__file__).parent.parent / "demos" / "plans").glob("*.json"))
    assert plans
    for path in plans:
        stages = load_plan(path, Hyperparams())
        assert stages, path


def run_demo(name, *args):
    demo = Path(__file__).parent.parent / "demos" / name
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(demo), *args], env=env,
                          capture_output=True, text=True, timeout=60)


def assert_usage_error(done, message):
    assert done.returncode == 2
    assert done.stderr.startswith("usage: ")
    assert message in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("flag", ["--runs", "--eval", "--jobs"])
def test_the_sweep_demo_rejects_a_count_below_one_with_a_usage_message(flag):
    assert_usage_error(run_demo("sweep_tuning.py", flag, "0"),
                       f"argument {flag}: expected an integer >= 1, got '0'")


def test_the_sweep_demo_rejects_a_missing_plan_with_a_usage_message(tmp_path):
    missing = tmp_path / "nope.json"
    assert_usage_error(run_demo("sweep_tuning.py", "--plan", str(missing)),
                       f"error: plan {missing}: [Errno 2] No such file or directory")


def test_the_sweep_demo_rejects_a_plan_value_the_settings_reject(tmp_path):
    plan = tmp_path / "zero.json"
    plan.write_text(json.dumps({"stages": [{"parameter": "option_length", "values": [0]}]}))
    assert_usage_error(run_demo("sweep_tuning.py", "--plan", str(plan)),
                       f"error: plan {plan}: option_length = 0: option_length must be at least 1")


def test_the_sweep_demo_rejects_a_parameter_that_is_not_a_name(tmp_path):
    plan = tmp_path / "list.json"
    plan.write_text(json.dumps({"stages": [{"parameter": ["mof_value"], "values": [1.0]}]}))
    assert_usage_error(run_demo("sweep_tuning.py", "--plan", str(plan)),
                       f"error: plan {plan}: unknown sweep parameter ['mof_value']")


@pytest.mark.parametrize("argv, message", [
    (["train_eval_duel.py", "--episodes", "0"],
     "argument --episodes: expected an integer >= 1, got 0"),
    (["pattern_benchmarks.py", "--grid", "4"], "grid_length must be at least pollution_diameter"),
    (["plain_q_learning_limits.py", "--discount", "2"],
     "argument --discount: discount_rate must be in [0, 1]"),
    (["environment_tour.py", "--seed", "-1"], "argument --seed: expected an integer >= 0, got -1"),
    (["train_eval_duel.py", "--seed", "-1"], "argument --seed: expected an integer >= 0, got -1"),
    (["plain_q_learning_limits.py", "--seed", "-1"],
     "argument --seed: expected an integer >= 0, got -1"),
])
def test_the_other_demos_reject_a_bad_flag_with_a_usage_message(argv, message):
    assert_usage_error(run_demo(*argv), message)


def test_a_value_out_of_range_after_an_earlier_winner_names_its_parameter():
    # pollution_diameter 6 is valid on the base 20-cell grid but not on the
    # 5-cell grid the first stage fixes; the spec itself cannot tell.
    stages = [quick_spec("grid_length", [5], runs=1),
              quick_spec("pollution_diameter", [6], runs=1)]
    with pytest.raises(SweepValueError,
                       match="^pollution_diameter = 6: grid_length must be at least "
                             "pollution_diameter$"):
        tuning_loop(stages)

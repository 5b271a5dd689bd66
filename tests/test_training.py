"""Episode orchestration, trajectory returns, schedules, demo trainers."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmc_search import training
from hmc_search.cli import UsageError, parse_config
from hmc_search.env import (
    DOWN,
    LEFT,
    RIGHT,
    START,
    UP,
    CloudField,
    make_cloud,
    make_rng,
    spawn_clouds,
)
from hmc_search.policy import mc_update, select_option
from hmc_search.sweep import SweepSpec
from hmc_search.training import (
    CONFIG_TYPES,
    Hyperparams,
    dynamic_demo,
    epsilon_at,
    run_episode,
    setting_value,
    static_demo,
    train_agent,
    trajectory_reward,
    update_window,
)


def zeros(grid_length):
    """An all-zero value table, as the flat list q[cell * 4 + d] the episode loop reads."""
    return [0.0] * (grid_length * grid_length * 4)


def test_default_settings():
    hp = Hyperparams()
    assert (hp.grid_length, hp.pollution_diameter, hp.max_steps) == (20, 5, 400)
    assert (hp.num_episodes, hp.learning_rate, hp.discount_rate) == (1000, 0.1, 0.0)
    assert (hp.epsilon_start, hp.epsilon_final, hp.epsilon_decay) == (1.0, 0.0, 0.001)
    assert (hp.best_learn_value, hp.num_clouds, hp.mof_value) == (1, 1, 10.0)
    assert (hp.stop_learn_value, hp.option_length, hp.reward_scaling) == (1.0, 3, 30.0)
    assert START == (0, 0)


@pytest.mark.parametrize("override", [
    {"num_episodes": 0},
    {"learning_rate": 0.0},
    {"learning_rate": 1.5},
    {"discount_rate": -0.1},
    {"epsilon_start": 0.2, "epsilon_final": 0.5},
    {"epsilon_decay": -1.0},
    {"best_learn_value": 0},
    {"num_clouds": 0},
    {"mof_value": -1.0},
    {"stop_learn_value": 0.0},
    {"stop_learn_value": 1.5},
    {"option_length": 0},
    {"reward_scaling": 0.0},
    {"grid_length": 4, "pollution_diameter": 5},
    {"pollution_diameter": 0},
    {"grid_length": 3, "pollution_diameter": 5},
    {"max_steps": 0},
])
def test_hyperparams_validation(override):
    with pytest.raises(ValueError):
        Hyperparams(**override)


def test_bad_grid_settings_are_rejected_with_their_messages():
    for override, message in (
        ({"pollution_diameter": 0}, "pollution_diameter must be at least 1"),
        ({"grid_length": 3, "pollution_diameter": 5},
         "grid_length must be at least pollution_diameter"),
        ({"max_steps": 0}, "max_steps must be at least 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Hyperparams(**override)


@pytest.mark.parametrize("name", ["learning_rate", "epsilon_decay", "mof_value",
                                  "reward_scaling", "max_steps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_settings_are_rejected(name, value):
    # One check covers every float, including those no range check would
    # catch (a NaN compares false, an infinity passes a lower bound).
    with pytest.raises(ValueError, match=f"^{name} must be finite, not {value!r}$"):
        Hyperparams(**{name: value})


@pytest.mark.parametrize("override, message", [
    ({"best_learn_value": False}, "best_learn_value must be a number, not False"),
    ({"epsilon_final": None}, "epsilon_final must be a number, not None"),
    ({"num_episodes": True}, "num_episodes must be a number, not True"),
    ({"mof_value": False}, "mof_value must be a number, not False"),
    ({"option_length": 3.5}, "option_length must be an integer, not 3.5"),
    ({"learning_rate": "0.1"}, "learning_rate must be a number, not '0.1'"),
    ({"reward_scaling": 10 ** 400}, f"reward_scaling must be finite, not {10 ** 400!r}"),
])
def test_settings_of_the_wrong_type_are_rejected(override, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Hyperparams(**override)
    name, value = next(iter(override.items()))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Hyperparams().with_value(name, value)


def test_every_setting_is_a_number():
    # No setting is a switch; the old bool variant switch is no keyword.
    assert set(CONFIG_TYPES.values()) == {int, float}
    with pytest.raises(TypeError):
        Hyperparams(binary_memory=True)


def test_settings_are_stored_with_their_types():
    hp = Hyperparams(option_length=3.0, mof_value=5, discount_rate=1)
    assert (hp.option_length, hp.mof_value, hp.discount_rate) == (3, 5.0, 1.0)
    assert [type(v) for v in (hp.option_length, hp.mof_value, hp.discount_rate)] == \
        [int, float, float]
    # A whole float trains exactly like its int.
    small = dict(grid_length=8, pollution_diameter=3, max_steps=40, num_episodes=20)
    whole = train_agent(Hyperparams(option_length=3.0, **small), 0)
    exact = train_agent(Hyperparams(option_length=3, **small), 0)
    assert np.array_equal(whole.q, exact.q)


def _type_verdict(kind, value):
    """The stored value, or None if the value is rejected for its type."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        return None
    if kind is int:
        return int(value) if value == int(value) else None
    return float(value)


SETTING_INPUTS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 2.5]),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(CONFIG_TYPES)), SETTING_INPUTS)
def test_configs_plans_and_keywords_share_one_verdict(name, value):
    expected = _type_verdict(CONFIG_TYPES[name], value)
    try:
        stored = setting_value(name, value)
    except ValueError as err:
        assert expected is None
        exact = f"^{re.escape(str(err))}$"
        with pytest.raises(UsageError, match=exact):
            parse_config({name: value})
        with pytest.raises(ValueError, match=exact):
            SweepSpec(parameter=name, values=[value])
        return
    assert stored == expected and type(stored) is CONFIG_TYPES[name]
    [swept] = SweepSpec(parameter=name, values=[value]).values
    assert swept == stored and type(swept) is type(stored)
    try:
        configured = getattr(parse_config({name: value}), name)
    except UsageError as err:
        # Of the right type but out of range: the keyword path says the same.
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            Hyperparams(**{name: stored})
    else:
        assert configured == stored and type(configured) is type(stored)


def test_with_value_returns_modified_copy():
    hp = Hyperparams()
    changed = hp.with_value("option_length", 5)
    assert changed.option_length == 5
    assert hp.option_length == 3


def test_trajectory_reward_examples():
    assert trajectory_reward(30.0, 60, 1) == 0.5
    assert trajectory_reward(30.0, 400, 4) == pytest.approx(0.3)
    assert trajectory_reward(30.0, 123, 0) == 0.0
    with pytest.raises(ValueError):
        trajectory_reward(30.0, 0, 1)
    with pytest.raises(ValueError):
        trajectory_reward(float("nan"), 10, 1)


def test_epsilon_schedule_normalized():
    hp = Hyperparams()
    assert epsilon_at(0, hp) == 1.0
    assert epsilon_at(500, hp) == 0.5
    assert epsilon_at(1000, hp) == 0.0
    assert epsilon_at(5000, hp) == 0.0
    # The midpoint is exact for any episode count.
    hp2 = Hyperparams(num_episodes=2000)
    assert epsilon_at(1000, hp2) == 0.5
    with pytest.raises(ValueError):
        epsilon_at(-1, hp)


def test_update_window():
    assert update_window(Hyperparams()) == 1000
    assert update_window(Hyperparams(stop_learn_value=0.5)) == 500
    assert update_window(Hyperparams(num_episodes=3, stop_learn_value=0.5)) == 2


def test_adjacent_cloud_found_in_one_step():
    # Detection happens on entry, so the fastest possible find is one step.
    hp = Hyperparams(pollution_diameter=1)
    field = CloudField([make_cloud((0, 1), 1, 20)], 20)
    traj = run_episode(zeros(20), hp, "eval", None, field=field)
    assert traj.n_step == 1
    assert traj.n_poll == 1
    assert traj.r_t == 30.0


def test_run_episode_leaves_the_callers_field_unchanged():
    hp = Hyperparams(pollution_diameter=1)
    clouds = [make_cloud((0, 1), 1, 20), make_cloud((19, 19), 1, 20)]
    field = CloudField(list(clouds), 20)
    traj = run_episode(zeros(20), hp, "eval", None, field=field)
    assert traj.n_poll >= 1
    assert field.clouds == clouds


def test_empty_field_runs_to_the_budget():
    # Nothing to collect, so only the budget ends the walk.
    hp = Hyperparams(max_steps=50)
    traj = run_episode(zeros(20), hp, "eval", None, field=CloudField([], 20))
    assert (traj.n_step, traj.n_poll, traj.r_t) == (50, 0, 0.0)
    assert len(traj.cells) == 51


def test_budget_exhaustion_gives_zero_reward():
    hp = Hyperparams(pollution_diameter=1, max_steps=3)
    field = CloudField([make_cloud((19, 19), 1, 20)], 20)
    traj = run_episode(zeros(20), hp, "eval", None, field=field)
    assert traj.n_step == 3
    assert traj.n_poll == 0
    assert traj.r_t == 0.0


def test_eval_episode_is_deterministic():
    hp = Hyperparams()
    field = spawn_clouds(hp.grid_length, hp.pollution_diameter, 1, make_rng(2))
    q = np.random.default_rng((3, 0)).normal(size=20 * 20 * 4).tolist()
    first = run_episode(q, hp, "eval", None, field=field)
    second = run_episode(q, hp, "eval", None, field=field)
    assert first.transitions == second.transitions
    assert first.cells == second.cells
    assert (first.n_step, first.n_poll, first.r_t) == (second.n_step, second.n_poll, second.r_t)


def test_trajectory_accounting():
    hp = Hyperparams()
    rng = make_rng(6)
    for _ in range(20):
        field = spawn_clouds(hp.grid_length, hp.pollution_diameter, hp.num_clouds, rng)
        traj = run_episode(zeros(20), hp, "train", rng, field=field, epsilon=1.0)
        assert traj.n_step <= hp.max_steps
        assert len(traj.cells) == traj.n_step + 1
        assert traj.cells[0] == 0  # START
        if traj.n_poll > 0:
            assert traj.r_t == trajectory_reward(30.0, traj.n_step, traj.n_poll)
        else:
            assert traj.r_t == 0.0


def test_run_episode_epsilon_extremes(monkeypatch):
    hp = Hyperparams(grid_length=10, pollution_diameter=3, max_steps=200)
    q = [2.0 if d == DOWN else 0.0 for _ in range(10 * 10) for d in range(4)]
    field = CloudField([make_cloud((7, 7), 3, 10)], 10)
    # Epsilon 0 draws nothing and walks the greedy episode.
    tape = make_rng(1)
    soft = run_episode(q, hp, "train", tape, field=field, epsilon=0.0)
    assert (tape.used, tape.half) == (0, None)
    assert soft == run_episode(q, hp, "eval", None, field=field)
    # Epsilon 1 explores at every decision.
    modes = []

    def spy(q, mem, s, hp, mode, rng):
        modes.append(mode)
        return select_option(q, mem, s, hp, mode, rng)

    monkeypatch.setattr(training, "select_option", spy)
    traj = run_episode(q, hp, "train", make_rng(1), field=CloudField([], 10), epsilon=1.0)
    assert modes == ["explore"] * len(traj.transitions)
    assert {o for _, o in traj.transitions} == {UP, DOWN, LEFT, RIGHT}


def test_eval_episode_on_a_handed_field_reads_no_tape_word():
    hp = Hyperparams()
    rng = make_rng(5)
    rng.integers(7)  # leave a buffered half, which must survive too
    before = (rng.used, rng.half)
    field = CloudField([make_cloud((9, 9), 5, 20)], 20)
    run_episode(zeros(20), hp, "eval", rng, field=field)
    assert (rng.used, rng.half) == before


def test_multi_cloud_training_counts_every_find():
    hp = Hyperparams(num_episodes=30, num_clouds=4)
    report = train_agent(hp, 0)
    assert max(r.n_poll for r in report.records) > 1
    assert all(r.n_poll <= 4 for r in report.records)


def test_run_episode_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_episode(zeros(20), Hyperparams(), "test", make_rng(0), field=CloudField([], 20))


def test_train_agent_is_deterministic():
    hp = Hyperparams(num_episodes=60)
    a = train_agent(hp, 42)
    b = train_agent(hp, 42)
    assert np.array_equal(a.q, b.q)
    assert [(r.n_step, r.n_poll) for r in a.records] == \
        [(r.n_step, r.n_poll) for r in b.records]
    assert len(a.records) == 60


def test_failed_single_episode_leaves_table_untouched():
    hp = Hyperparams(num_episodes=1, max_steps=8)
    report = train_agent(hp, 0)
    assert report.records[0].n_poll == 0
    assert not report.q.any()


def test_single_episode_updates_match_manual_replay():
    # The kept trajectory is backed up every-visit, in order, with the
    # trajectory return; replaying the episode from the same draws must
    # reproduce the trained table exactly.
    hp = Hyperparams(num_episodes=1, max_steps=8)
    report = train_agent(hp, 11)
    assert report.records[0].n_poll == 1

    rng = make_rng(11)
    field = spawn_clouds(hp.grid_length, hp.pollution_diameter, 1, rng)
    traj = run_episode(zeros(20), hp, "train", rng, field=field, epsilon=1.0)
    expected = zeros(20)
    for s, o in traj.transitions:
        mc_update(expected, s, o, traj.r_t, hp.learning_rate)
    assert np.array_equal(report.q, np.array(expected).reshape(20, 20, 4))
    assert any(expected)


def test_stop_learn_freezes_the_table():
    # With permanent full exploration the episode stream is a pure
    # function of the seed, so a run twice as long with learning stopped
    # halfway must end at the same table as the short full run.
    base = dict(epsilon_start=1.0, epsilon_final=1.0)
    short = train_agent(Hyperparams(num_episodes=40, stop_learn_value=1.0, **base), 5)
    long = train_agent(Hyperparams(num_episodes=80, stop_learn_value=0.5, **base), 5)
    assert short.q.any()
    assert np.array_equal(short.q, long.q)


def test_best_of_attempts_raises_kept_returns():
    one = train_agent(Hyperparams(num_episodes=30, best_learn_value=1), 3)
    five = train_agent(Hyperparams(num_episodes=30, best_learn_value=5), 3)
    assert sum(r.r_t for r in five.records) > sum(r.r_t for r in one.records)


def test_gamma_zero_and_positive_paths_both_run():
    for gamma in (0.0, 0.9):
        report = train_agent(Hyperparams(num_episodes=40, discount_rate=gamma), 1)
        assert report.q.any()


# --- plain Q-learning demos


def test_static_demo_snapshot_zero_is_blank():
    snaps = static_demo(Hyperparams(), 0, n_episodes=50,
                        snapshot_episodes=(0, 50))
    assert set(snaps) == {0, 50}
    assert not snaps[0].any()
    assert snaps[0].shape == (20, 20)


def test_dynamic_demo_first_episode_marks_only_cloud_approaches():
    # Without a discount, only moves that land on the cloud earn reward,
    # so after one episode every nonzero cell must be on the cloud or
    # one step away from it.
    snaps, _ = dynamic_demo(Hyperparams(), 1, n_episodes=5,
                            snapshot_episodes=(1,), n_eval_episodes=1)
    touched = {(int(x), int(y)) for x, y in np.argwhere(snaps[1] != 0)}
    assert touched
    rng = make_rng(1)
    first_cloud = spawn_clouds(20, 5, 1, rng)
    allowed = set()
    for cloud in first_cloud.clouds:
        for (x, y) in cloud.support:
            allowed.add((x, y))
            allowed.update(((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)))
    assert touched <= allowed


def test_dynamic_demo_returns_mean_in_budget():
    _, mean_steps = dynamic_demo(Hyperparams(), 0, n_episodes=60,
                                 snapshot_episodes=(), n_eval_episodes=40)
    assert 0.0 < mean_steps <= 400.0


def test_dynamic_demo_rejects_no_evaluation_episodes():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_eval_episodes must be at least 1"):
            dynamic_demo(Hyperparams(), 0, n_episodes=1, n_eval_episodes=n)


def test_static_demo_values_grow_toward_cloud():
    hp = Hyperparams(discount_rate=0.9)
    snaps = static_demo(hp, 0, n_episodes=400, snapshot_episodes=(100, 400))
    assert snaps[400].max() > snaps[100].max() * 0.5
    assert snaps[400].max() > 0


def test_a_demo_refill_serves_several_episodes(monkeypatch):
    # Each exploring episode reserves 2 * max_steps words; fetching one
    # 1024-word block per reservation made 981 fetches in this run.
    fetches = []

    def counted_rng(seed, stream=0):
        tape = make_rng(seed, stream)
        raw = tape._raw
        tape._raw = lambda n: fetches.append(n) or raw(n)
        return tape

    monkeypatch.setattr(training, "make_rng", counted_rng)
    dynamic_demo(Hyperparams(), 0)
    assert len(fetches) <= 981 // 3
    # A one-word refill still reads one block.
    tape = make_rng(0)
    tape.ensure(1)
    assert len(tape.words) == 1024

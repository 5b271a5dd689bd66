"""The episode loops and the per-center tables against the reference code
in oracle.py, byte for byte.

Random settings cover the grid, cloud size and count, step budget,
option length, attempts per episode, memory weight (0 included) and
kind, discount (0 and positive) and learning window.  Tables with ties,
zeros and walls make episodes that clamp at the border and episodes
that the decision cap ends.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hmc_search import training
from hmc_search.baselines import PatternPath, center_hits
from hmc_search.env import START, CloudField, make_cloud, make_rng, move, spawn_clouds
from hmc_search.evalharness import agent_route
from hmc_search.policy import (
    OptionOutcome,
    execute_option,
    mc_update,
    new_qtable,
    option_walks,
    q_update,
    record_visits,
    select_option,
)
from hmc_search.training import (
    Hyperparams,
    dynamic_demo,
    run_episode,
    static_demo,
    train_agent,
)


def draw_hp(data, max_length=10, **fixed) -> Hyperparams:
    length = data.draw(st.integers(2, max_length), label="grid_length")
    settings_ = dict(
        grid_length=length,
        pollution_diameter=data.draw(st.integers(1, min(length, 5)), label="diameter"),
        max_steps=data.draw(st.integers(1, 60), label="max_steps"),
        option_length=data.draw(st.integers(1, 4), label="option_length"),
        num_clouds=data.draw(st.integers(1, 4), label="num_clouds"),
        best_learn_value=data.draw(st.integers(1, 3), label="best_learn_value"),
        binary_memory=data.draw(st.booleans(), label="binary_memory"),
        mof_value=data.draw(st.sampled_from([0.0, 0.5, 10.0]), label="mof_value"),
        discount_rate=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="discount_rate"),
        stop_learn_value=data.draw(st.sampled_from([0.3, 0.5, 1.0]), label="stop_learn_value"),
        num_episodes=data.draw(st.integers(1, 25), label="num_episodes"),
    )
    settings_.update(fixed)
    return Hyperparams(**settings_)


def draw_table(data, length):
    """A value table: normal values, small-integer ties, zeros, or a wall
    pull (up and left best everywhere, so options clamp at the border)."""
    rng = np.random.default_rng((data.draw(st.integers(0, 2**32 - 1), label="table seed"), 0))
    q = new_qtable(length)
    kind = data.draw(st.sampled_from(["normal", "ties", "zeros", "wall"]), label="table")
    if kind == "normal":
        q[:] = rng.normal(size=q.shape)
    elif kind == "ties":
        q[:] = rng.integers(0, 2, size=q.shape)
    elif kind == "wall":
        q[:, :, 0] = 1.0
        q[:, :, 2] = 1.0
    return q


def draw_field(data, hp):
    count = data.draw(st.integers(0, 4), label="clouds")
    centers = data.draw(st.lists(st.tuples(st.integers(0, hp.grid_length - 1),
                                           st.integers(0, hp.grid_length - 1)),
                                 min_size=count, max_size=count), label="centers")
    return CloudField([make_cloud(c, hp.pollution_diameter, hp.grid_length)
                       for c in centers], hp.grid_length)


def trajectory_key(traj):
    return repr((traj.transitions, traj.cells, traj.n_step, traj.n_poll, traj.r_t,
                 traj.capped))


# --- the per-center tables


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_center_hits_equal_a_first_hit_per_center(data):
    length = data.draw(st.integers(1, 30), label="grid_length")
    diameter = data.draw(st.integers(1, length), label="diameter")
    cell = data.draw(st.tuples(st.integers(0, length - 1), st.integers(0, length - 1)),
                     label="start")
    cells = [cell]
    for direction in data.draw(st.lists(st.integers(0, 3), max_size=60), label="moves"):
        cell = move(cell, direction, length)[0]  # a bump stays in place, as a demo route does
        cells.append(cell)
    path = PatternPath(tuple(cells), "route", first=data.draw(st.integers(0, 1), label="first"))
    assert center_hits(path, length, diameter) == oracle.center_hits(path, length, diameter)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spawned_clouds_are_two_draws_and_make_cloud_each(data):
    length = data.draw(st.integers(1, 30), label="grid_length")
    diameter = data.draw(st.integers(1, length), label="diameter")
    count = data.draw(st.integers(1, 5), label="count")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    tape, reference = make_rng(seed), make_rng(seed)
    # Odd numbers of earlier 32-bit draws leave a buffered half word.
    for _ in range(data.draw(st.integers(0, 3), label="earlier draws")):
        tape.integers(7)
        reference.integers(7)
    field = spawn_clouds(length, diameter, count, tape)
    expected = []
    for _ in range(count):
        x = reference.integers(length)
        y = reference.integers(length)
        expected.append(make_cloud((x, y), diameter, length))
    assert field.clouds == expected
    assert [c.support for c in field.clouds] == [c.support for c in expected]
    assert (tape.used, tape.half) == (reference.used, reference.half)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_table_stamps_equal_support_stamps(data):
    length = data.draw(st.integers(1, 16), label="grid_length")
    centers = data.draw(st.lists(st.tuples(st.integers(0, length - 1),
                                           st.integers(0, length - 1),
                                           st.integers(1, length)), max_size=6),
                        label="centers and diameters")
    field = CloudField([make_cloud((x, y), d, length) for x, y, d in centers], length)
    assert (field.masks, field.levels) == oracle.stamp(field)


# --- the walk table and the per-decision steps


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6))
def test_walks_stop_at_the_border_and_end_on_the_terminal(length, stride):
    walks = option_walks(length, stride)
    for x in range(length):
        for y in range(length):
            for d in range(4):
                key = (x * length + y) * 4 + d
                path, outcome = walks.paths[key], walks.outcomes[key]
                room = (y, length - 1 - y, x, length - 1 - x)[d]
                assert len(path) == min(stride, room)
                points = tuple(divmod(cell, length) for cell in path)
                assert walks.terminal[key] == (points[-1] if points else (x, y))
                # The outcome of the full walk on a field that it misses.
                assert outcome == OptionOutcome((x, y), d, points, len(path), 0,
                                                walks.terminal[key], len(path) < stride)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_per_decision_steps_match_the_reference(data):
    hp = draw_hp(data)
    length = hp.grid_length
    field = draw_field(data, hp)
    pos = data.draw(st.tuples(st.integers(0, length - 1), st.integers(0, length - 1)),
                    label="pos")
    direction = data.draw(st.integers(0, 3), label="direction")
    stride = data.draw(st.integers(1, 6), label="stride")
    budget = data.draw(st.integers(-1, 8), label="steps_remaining")
    outcome, after = execute_option(field, pos, direction, stride, budget)
    expected, expected_after = oracle.execute_option(field, pos, direction, stride, budget)
    assert outcome == expected
    assert after.clouds == expected_after.clouds

    mem = np.zeros((length, length), dtype=np.int64)
    mem_rng = np.random.default_rng((data.draw(st.integers(0, 2**32 - 1)), 0))
    mem[:] = mem_rng.integers(0, 3, size=mem.shape)
    reference = mem.copy()
    record_visits(mem, outcome)
    oracle.record_visits(reference, expected)
    assert mem.tobytes() == reference.tobytes()

    q = draw_table(data, length)
    assert select_option(q, mem, pos, hp, "exploit", None) == \
        oracle.select_option(q, mem, pos, hp, "exploit", None)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_table_updates_match_the_reference(data):
    length = data.draw(st.integers(1, 6))
    q = draw_table(data, length)
    cell = st.tuples(st.integers(0, length - 1), st.integers(0, length - 1))
    s, s_next = data.draw(cell), data.draw(cell)
    o = data.draw(st.integers(0, 3))
    r = data.draw(st.floats(-100, 100))
    alpha = data.draw(st.floats(0.01, 1.0))
    gamma = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    rows = q.tolist()  # the nested lists train_agent keeps
    for update, reference, args in (
            (q_update, oracle.td_update, (s, o, r, s_next, alpha, gamma)),
            (mc_update, oracle.mc_update, (s, o, r, alpha))):
        expected = q.copy()
        reference(expected, *args)
        update(q, *args)
        update(rows, *args)
        assert q.tobytes() == expected.tobytes()
        assert np.array(rows, dtype=np.float64).tobytes() == expected.tobytes()


# --- whole episodes, training and the demos


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_train_agent_matches_the_reference(data):
    hp = draw_hp(data)
    seed = data.draw(st.integers(0, 2**31), label="seed")
    report = train_agent(hp, seed)
    q, records, capped = oracle.train_agent(hp, seed)
    assert report.q.tobytes() == q.tobytes()
    assert repr(report.records) == repr(records)
    assert report.decision_cap_exits == capped


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eval_episodes_and_routes_match_the_reference(data):
    hp = draw_hp(data)
    q = draw_table(data, hp.grid_length)
    field = draw_field(data, hp)
    assert trajectory_key(run_episode(q, hp, "eval", None, field=field)) == \
        trajectory_key(oracle.run_episode(q, hp, "eval", None, field=field))
    seed = data.draw(st.integers(0, 2**31), label="seed")
    assert trajectory_key(run_episode(q, hp, "eval", make_rng(seed))) == \
        trajectory_key(oracle.run_episode(q, hp, "eval", np.random.default_rng((seed, 0))))
    assert agent_route(q, hp) == oracle.agent_route(q, hp)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_demos_match_the_reference(data):
    hp = draw_hp(data, learning_rate=data.draw(st.sampled_from([0.1, 0.5, 1.0])))
    seed = data.draw(st.integers(0, 2**31), label="seed")
    n = data.draw(st.integers(1, 30), label="n_episodes")
    snaps = (0, 1, n // 2, n)
    assert oracle.snapshot_bytes(static_demo(hp, seed, n_episodes=n, snapshot_episodes=snaps)) \
        == oracle.snapshot_bytes(oracle.static_demo(hp, seed, n, snaps))
    snapshots, mean = dynamic_demo(hp, seed, n_episodes=n, snapshot_episodes=snaps,
                                   n_eval_episodes=20)
    expected, expected_mean = oracle.dynamic_demo(hp, seed, n, snaps, 20)
    assert oracle.snapshot_bytes(snapshots) == oracle.snapshot_bytes(expected)
    assert repr(mean) == repr(expected_mean)


@pytest.mark.parametrize("hp, seed", [
    (Hyperparams(discount_rate=0.9), 0), (Hyperparams(discount_rate=0.9), 3),
    (Hyperparams(), 0), (Hyperparams(), 3)])
def test_demos_on_the_default_grid_match_the_reference(hp, seed):
    # The drawn settings above stay at 10 cells; these run the default
    # 20 x 20 grid and its 400-step budget, with and without a discount.
    snaps = (0, 1, 20, 40)
    assert oracle.snapshot_bytes(static_demo(hp, seed, n_episodes=40, snapshot_episodes=snaps)) \
        == oracle.snapshot_bytes(oracle.static_demo(hp, seed, 40, snaps))
    snapshots, mean = dynamic_demo(hp, seed, n_episodes=40, snapshot_episodes=snaps,
                                   n_eval_episodes=20)
    expected, expected_mean = oracle.dynamic_demo(hp, seed, 40, snaps, 20)
    assert oracle.snapshot_bytes(snapshots) == oracle.snapshot_bytes(expected)
    assert repr(mean) == repr(expected_mean)


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_a_demo_step_after_a_wall_bump_sees_the_value_just_written(gamma):
    # Up is best at the start, so the first greedy step bumps the top wall
    # and stays.  Its update drops that value below down's 0.5, so the
    # second greedy step must go down, not up again.
    hp = Hyperparams(grid_length=3, pollution_diameter=1, max_steps=2,
                     learning_rate=1.0, discount_rate=gamma)
    q = [0.0] * 36
    q[0:2] = [1.0, 0.5]
    training._demo_episode(q, hp, [0.0] * 9, training._demo_moves(3), 0.0, make_rng(0))
    expected = [0.0] * 36
    expected[0] = 1.0 + 1.0 * (0.0 + gamma * 1.0 - 1.0)  # q_update's backup of the bump
    assert q == expected  # and down, taken second, earned 0 from an all-zero row


# --- decision-cap exits are recorded


def test_a_wall_bound_greedy_episode_is_capped():
    # Ties pick up, which clamps at the start without a step; with no
    # memory weight nothing turns the agent away until the cap.
    hp = Hyperparams(grid_length=6, pollution_diameter=1, max_steps=10, mof_value=0.0)
    traj = run_episode(new_qtable(6), hp, "eval", None,
                       field=CloudField([make_cloud((5, 5), 1, 6)], 6))
    assert traj.capped
    assert traj.n_step == 0 and len(traj.transitions) == 8 * 10 + 32
    assert traj.cells == [START]


def test_episodes_ended_by_a_find_or_the_budget_are_not_capped():
    hp = Hyperparams(grid_length=6, pollution_diameter=1, max_steps=10)
    q = new_qtable(6)
    q[:, :, 1] = 1.0  # straight down from the start
    found = run_episode(q, hp, "eval", None, field=CloudField([make_cloud((0, 3), 1, 6)], 6))
    assert (found.n_poll, found.n_step, found.capped) == (1, 3, False)
    spent = run_episode(q, hp, "eval", None, field=CloudField([], 6))
    assert spent.n_step == hp.max_steps and not spent.capped


def test_train_report_counts_every_capped_attempt():
    hp = Hyperparams(grid_length=6, pollution_diameter=1, max_steps=10, num_episodes=4,
                     best_learn_value=2, epsilon_start=0.0, mof_value=0.0)
    report = train_agent(hp, 0)
    assert report.decision_cap_exits == 4 * 2
    assert all(r.n_step == 0 and r.n_poll == 0 for r in report.records)
    assert train_agent(Hyperparams(grid_length=6, pollution_diameter=1, max_steps=10,
                                   num_episodes=4), 0).decision_cap_exits == 0


def test_fields_stamp_masks_and_levels_once():
    field = spawn_clouds(8, 3, 3, make_rng(5))
    assert field.masks is field.masks and field.levels is field.levels
    for cell, (mask, level) in enumerate(zip(field.masks, field.levels)):
        pos = divmod(cell, 8)
        covering = [i for i, c in enumerate(field.clouds) if pos in c.support]
        assert mask == sum(1 << i for i in covering)
        assert level == max([field.clouds[i].support[pos] for i in covering], default=0.0)
        assert (level > 0.0) == bool(covering)

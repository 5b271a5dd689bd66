"""Tests for evaluation statistics, duels, score maps, and populations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmc_search.baselines import first_hit, snake_path, spiral_path, steps_to_find
from hmc_search.env import RIGHT, START, CloudField, make_cloud, make_rng, spawn_clouds
from hmc_search.evalharness import (
    DuelOutcome,
    EvalStats,
    agent_route,
    evaluate_agent,
    population_stats,
    route_heatmap,
    run_duels,
    score_agent,
    score_map,
)
from hmc_search.policy import new_qtable
from hmc_search.training import Hyperparams, run_episode, train_agent

QUICK = Hyperparams(num_episodes=40, max_steps=80)


def trained_table(seed=3):
    return train_agent(QUICK, seed).q


def test_eval_stats_lower_median_even():
    stats = EvalStats.from_steps([4, 1, 3, 2], failures=0)
    assert stats.mean == 2.5
    assert stats.median == 2.0
    assert stats.steps == [4, 1, 3, 2]


def test_eval_stats_odd_and_failures():
    stats = EvalStats.from_steps([5, 1, 9], failures=2)
    assert stats.mean == 5.0
    assert stats.median == 5.0
    assert stats.failures == 2


def verdict(agent, opponent):
    """The duel rule for one cloud, as (win, tie, loss) indicators."""
    return (int(agent < opponent), int(agent == opponent), int(agent > opponent))


def test_duel_verdicts():
    # One cloud each: fewer steps wins, equal steps tie, more steps lose.
    assert DuelOutcome.tally([3], [5]) == DuelOutcome(1, 0, 0)
    assert DuelOutcome.tally([5], [5]) == DuelOutcome(0, 1, 0)
    assert DuelOutcome.tally([7], [5]) == DuelOutcome(0, 0, 1)


def test_duel_antisymmetry():
    for a in range(4):
        for b in range(4):
            forward, backward = DuelOutcome.tally([a], [b]), DuelOutcome.tally([b], [a])
            assert (backward.wins, backward.ties, backward.losses) == (
                forward.losses, forward.ties, forward.wins)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_duel_outcome_tally(data):
    # Small values make ties common; wide ones test no overflow of a difference.
    values = data.draw(st.sampled_from([st.integers(0, 3), st.integers(-2**62, 2**62)]),
                       label="values")
    n = data.draw(st.integers(0, 40), label="n")
    agent = data.draw(st.lists(values, min_size=n, max_size=n), label="agent")
    opponent = data.draw(st.lists(values, min_size=n, max_size=n), label="opponent")
    outcome = DuelOutcome.tally(np.array(agent, dtype=np.int64),
                                np.array(opponent, dtype=np.int64))
    assert outcome.wins + outcome.ties + outcome.losses == outcome.total == n
    verdicts = [verdict(a, o) for a, o in zip(agent, opponent)]
    assert [outcome.wins, outcome.ties, outcome.losses] == [
        sum(v[i] for v in verdicts) for i in range(3)]
    swapped = DuelOutcome.tally(opponent, agent)
    assert (swapped.wins, swapped.ties, swapped.losses) == (
        outcome.losses, outcome.ties, outcome.wins)


def test_evaluate_agent_rejects_empty_batch():
    with pytest.raises(ValueError):
        evaluate_agent(new_qtable(20), QUICK, 0, make_rng(0, stream=1))


def test_evaluate_agent_matches_manual_episodes():
    q = trained_table()
    stats = evaluate_agent(q, QUICK, 30, make_rng(7, stream=1))
    rng = make_rng(7, stream=1)
    expected = []
    failures = 0
    for _ in range(30):
        traj = run_episode(q, QUICK, "eval", rng)
        if traj.n_poll > 0:
            expected.append(traj.n_step)
        else:
            expected.append(QUICK.max_steps)
            failures += 1
    assert stats.steps == expected
    assert stats.failures == failures
    assert stats.mean == sum(expected) / 30


def test_evaluate_agent_is_reproducible():
    q = trained_table()
    first = evaluate_agent(q, QUICK, 25, make_rng(11, stream=1))
    second = evaluate_agent(q, QUICK, 25, make_rng(11, stream=1))
    assert first.steps == second.steps


def test_run_duels_matches_manual_replay():
    q = trained_table()
    outcomes = run_duels(q, QUICK, 40, make_rng(5, stream=2))
    assert set(outcomes) == {"snake", "spiral"}

    patterns = {
        "snake": snake_path(QUICK.grid_length, QUICK.pollution_diameter),
        "spiral": spiral_path(QUICK.grid_length, QUICK.pollution_diameter),
    }
    rng = make_rng(5, stream=2)
    verdicts = {name: [] for name in patterns}
    for _ in range(40):
        field = spawn_clouds(QUICK.grid_length, QUICK.pollution_diameter, 1, rng)
        traj = run_episode(q, QUICK, "eval", None, field=field)
        agent = traj.n_step if traj.n_poll > 0 else QUICK.max_steps
        for name, pattern in patterns.items():
            opponent = steps_to_find(pattern, field.clouds[0], QUICK.max_steps)
            verdicts[name].append(verdict(agent, opponent))
    for name in patterns:
        assert outcomes[name] == DuelOutcome(*map(sum, zip(*verdicts[name])))
        assert outcomes[name].total == 40


def test_run_duels_rejects_empty_batch():
    with pytest.raises(ValueError):
        run_duels(new_qtable(20), QUICK, 0, make_rng(0, stream=2))


SMALL = Hyperparams(grid_length=6, pollution_diameter=3, max_steps=40,
                    num_episodes=30, option_length=1)


def test_score_map_covers_every_center():
    q = train_agent(SMALL, 1).q
    pattern = snake_path(6, 3)
    smap = score_map(q, SMALL, pattern)
    assert smap.opponent == "snake"
    assert smap.outcome.shape == (6, 6)
    assert smap.tally.wins + smap.tally.ties + smap.tally.losses == 36
    signs = [int((smap.outcome == sign).sum()) for sign in (1, 0, -1)]
    assert [smap.tally.wins, smap.tally.ties, smap.tally.losses] == signs


def test_score_map_matches_manual_duels():
    q = train_agent(SMALL, 1).q
    pattern = spiral_path(6, 3)
    smap = score_map(q, SMALL, pattern)
    for x in range(6):
        for y in range(6):
            cloud = make_cloud((x, y), 3, 6)
            traj = run_episode(q, SMALL, "eval", None,
                               field=CloudField([cloud], 6))
            agent = traj.n_step if traj.n_poll > 0 else SMALL.max_steps
            opponent = steps_to_find(pattern, cloud, SMALL.max_steps)
            assert smap.agent_steps[x, y] == agent
            assert smap.opponent_steps[x, y] == opponent
            win, _, loss = verdict(agent, opponent)
            assert smap.outcome[x, y] == win - loss


def test_score_map_is_deterministic():
    q = train_agent(SMALL, 2).q
    pattern = snake_path(6, 3)
    first = score_map(q, SMALL, pattern)
    second = score_map(q, SMALL, pattern)
    assert np.array_equal(first.outcome, second.outcome)
    assert np.array_equal(first.agent_steps, second.agent_steps)


def test_route_heatmap_accounting():
    q = trained_table()
    counts = route_heatmap(q, QUICK, 20, make_rng(9, stream=1))
    rng = make_rng(9, stream=1)
    total = sum(run_episode(q, QUICK, "eval", rng).n_step + 1
                for _ in range(20))
    assert int(counts.sum()) == total
    # Every episode starts at the corner, so its count is at least the
    # episode count.
    assert counts[0, 0] >= 20


def test_population_stats_rejects_empty():
    with pytest.raises(ValueError):
        population_stats(QUICK, 0, 0)


def test_population_single_agent_matches_components():
    report = population_stats(QUICK, 1, 13, n_eval=30, n_duel=25)
    assert len(report.agents) == 1
    agent = report.agents[0]
    assert agent.seed == 13

    q = train_agent(QUICK, 13).q
    stats = evaluate_agent(q, QUICK, 30, make_rng(13, stream=1))
    duels = run_duels(q, QUICK, 25, make_rng(13, stream=2))["snake"]
    assert agent.mean_steps == stats.mean
    assert agent.median_steps == stats.median
    assert agent.failures == stats.failures
    assert (agent.wins, agent.ties, agent.losses) == (
        duels.wins, duels.ties, duels.losses)
    assert agent.win_pct == 100.0 * duels.wins / duels.total


def test_population_histograms_conserve_agents():
    report = population_stats(QUICK, 3, 0, n_eval=20, n_duel=20)
    steps_edges, steps_counts = report.steps_hist
    win_edges, win_counts = report.win_hist
    assert len(steps_edges) == 41 and len(steps_counts) == 40
    assert len(win_edges) == 21 and len(win_counts) == 20
    assert int(steps_counts.sum()) == 3
    assert int(win_counts.sum()) == 3
    for agent in report.agents:
        assert 0.0 <= agent.win_pct <= 100.0


def test_score_agent_without_duel_matches_evaluation():
    agent = score_agent(QUICK, 13, 30, 0)
    stats = evaluate_agent(train_agent(QUICK, 13).q, QUICK, 30, make_rng(13, stream=1))
    assert (agent.mean_steps, agent.median_steps, agent.failures) == (
        stats.mean, stats.median, stats.failures)
    assert (agent.wins, agent.ties, agent.losses, agent.win_pct) == (0, 0, 0, 0.0)


# --- the agent scored as a route


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_route_lookup_equals_episode_replay(data):
    length = data.draw(st.integers(2, 9), label="grid_length")
    hp = Hyperparams(
        grid_length=length,
        pollution_diameter=data.draw(st.integers(1, length), label="diameter"),
        max_steps=data.draw(st.integers(1, 60), label="max_steps"),
        option_length=data.draw(st.integers(1, 5), label="option_length"),
        mof_value=data.draw(st.sampled_from([0.0, 0.5, 1.0, 10.0]), label="mof_value"),
        binary_memory=data.draw(st.booleans(), label="binary_memory"),
    )
    # Small integer values make ties, and an all-zero table with no memory
    # weight walks into a wall until the decision cap ends the episode.
    table_seed = data.draw(st.integers(0, 2**32 - 1), label="table seed")
    table_rng = np.random.default_rng((table_seed, 0))
    q = new_qtable(length)
    kind = data.draw(st.sampled_from(["normal", "ties", "zeros"]), label="table")
    if kind == "normal":
        q[:] = table_rng.normal(size=q.shape)
    elif kind == "ties":
        q[:] = table_rng.integers(0, 2, size=q.shape)
    route = agent_route(q, hp)
    for x in range(length):
        for y in range(length):
            cloud = make_cloud((x, y), hp.pollution_diameter, length)
            traj = run_episode(q, hp, "eval", None, field=CloudField([cloud], length))
            assert first_hit(route, cloud) == (traj.n_step if traj.n_poll else None)
            assert list(route.cells[:len(traj.cells)]) == traj.cells


def test_agent_loses_every_center_whose_cloud_covers_the_start():
    # A pattern senses its start cell and scores 0 there; the agent collects
    # only on entering a cell, so it needs at least one step and loses.
    hp = Hyperparams()
    q = new_qtable(20)
    q[:] = np.random.default_rng((4, 0)).normal(size=q.shape)
    smap = score_map(q, hp, snake_path(20, 5))
    covering = smap.opponent_steps == 0
    assert int(covering.sum()) == 8
    assert (smap.agent_steps[covering] >= 1).all()
    assert (smap.outcome[covering] == -1).all()
    cloud = make_cloud((0, 0), 5, 20)
    traj = run_episode(q, hp, "eval", None, field=CloudField([cloud], 20))
    assert traj.n_poll == 1 and traj.n_step >= 1


class FixedDraws:
    """Stands in for a generator: integers() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def integers(self, high):
        return self.values.pop(0)


def test_find_on_the_last_budget_step_is_a_success():
    # The agent walks the top row to the right and reaches (4, 0) on step 4.
    hp = Hyperparams(grid_length=5, pollution_diameter=1, max_steps=4, option_length=1)
    q = new_qtable(5)
    q[:, :, RIGHT] = 1.0
    assert agent_route(q, hp).cells == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
    found = evaluate_agent(q, hp, 1, FixedDraws(4, 0))
    assert (found.steps, found.failures) == ([4], 0)
    missed = evaluate_agent(q, hp, 1, FixedDraws(4, 1))
    assert (missed.steps, missed.failures) == ([4], 1)
    traj = run_episode(q, hp, "eval", None, field=CloudField([make_cloud((4, 0), 1, 5)], 5))
    assert (traj.n_step, traj.n_poll) == (4, 1)


def test_patterns_are_held_to_the_step_budget():
    # The snake needs up to 112 moves on the default grid.  With a 37-step
    # budget every later find scores 37, so a center where the untrained
    # agent also fails is a tie, not a win.
    result = score_map(new_qtable(20), Hyperparams(max_steps=37), snake_path(20, 5))
    assert result.opponent_steps.max() == 37
    assert (result.opponent_steps == 37).sum() == 267
    assert not (result.outcome[result.agent_steps == 37] > 0).any()
    assert (result.tally.wins, result.tally.ties, result.tally.losses) == (111, 162, 127)


def test_agent_and_patterns_start_on_the_same_cell():
    hp = Hyperparams(grid_length=7, pollution_diameter=3)
    q = np.random.default_rng((4, 0)).normal(size=(7, 7, 4))
    routes = (agent_route(q, hp), snake_path(7, 3), spiral_path(7, 3))
    assert {route.cells[0] for route in routes} == {START}

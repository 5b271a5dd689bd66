"""Tests for evaluation statistics, duels, score maps, and populations."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmc_search.baselines import snake_path, spiral_path, steps_to_find
from hmc_search.env import (RIGHT, START, CloudField, draw_centers, make_cloud, make_rng,
                            spawn_clouds)
from hmc_search.evalharness import (
    DuelOutcome,
    EvalStats,
    agent_route,
    center_steps,
    evaluate_agent,
    population_stats,
    route_heatmap,
    run_duels,
    score_agent,
    score_agents,
    score_map,
)
from hmc_search.training import Hyperparams, run_episode, train_agent
from oracle import first_hit

QUICK = Hyperparams(num_episodes=40, max_steps=80)


def trained_table(seed=3):
    return train_agent(QUICK, seed).q


def flat(q):
    """A (grid_length, grid_length, 4) table as the flat list q[cell * 4 + d] the episode
    loop reads."""
    return q.ravel().tolist()


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
        evaluate_agent(agent_route(np.zeros((20, 20, 4)), QUICK), QUICK, 0,
                       make_rng(0, stream=1))


def test_evaluate_agent_matches_manual_episodes():
    q = trained_table()
    stats = evaluate_agent(agent_route(q, QUICK), QUICK, 30, make_rng(7, stream=1))
    rng = make_rng(7, stream=1)
    expected = []
    failures = 0
    for _ in range(30):
        field = spawn_clouds(QUICK.grid_length, QUICK.pollution_diameter, 1, rng)
        traj = run_episode(flat(q), QUICK, "eval", None, field=field)
        if traj.n_poll > 0:
            expected.append(traj.n_step)
        else:
            expected.append(QUICK.max_steps)
            failures += 1
    assert stats.steps == expected
    assert stats.failures == failures
    assert stats.mean == sum(expected) / 30


@pytest.mark.parametrize("kind", ["snake", "spiral", "untrained agent"])
def test_sampled_evaluation_agrees_with_the_exact_mean_over_all_centers(kind):
    # Each episode's cloud center is uniform over the grid, so the mean of n
    # sampled episodes has the exact mean over all centers as its expectation
    # and their SD / sqrt(n) as its standard error.  Over 50 seeds the z
    # scores must look standard normal; this checks draw_centers' uniformity
    # and the budget rule together.
    hp = Hyperparams()
    route = {"snake": snake_path(20, 5), "spiral": spiral_path(20, 5),
             "untrained agent": agent_route(np.zeros((20, 20, 4)), hp)}[kind]
    exact = center_steps(hp, route).ravel()
    n = 1000
    error = exact.std() / np.sqrt(n)
    assert error > 0
    z = np.array([(evaluate_agent(route, hp, n, make_rng(seed, stream=1)).mean - exact.mean())
                  / error for seed in range(50)])
    assert np.abs(z).max() < 4
    assert abs(z.mean()) <= 0.5
    assert 0.7 <= z.std() <= 1.3


def test_evaluate_agent_is_reproducible():
    route = agent_route(trained_table(), QUICK)
    first = evaluate_agent(route, QUICK, 25, make_rng(11, stream=1))
    second = evaluate_agent(route, QUICK, 25, make_rng(11, stream=1))
    assert first.steps == second.steps


def test_run_duels_matches_manual_replay():
    q = trained_table()
    patterns = {
        "snake": snake_path(QUICK.grid_length, QUICK.pollution_diameter),
        "spiral": spiral_path(QUICK.grid_length, QUICK.pollution_diameter),
    }
    outcomes = run_duels(agent_route(q, QUICK), QUICK, 40, make_rng(5, stream=2),
                         *patterns.values())
    assert set(outcomes) == {"snake", "spiral"}

    rng = make_rng(5, stream=2)
    verdicts = {name: [] for name in patterns}
    for _ in range(40):
        field = spawn_clouds(QUICK.grid_length, QUICK.pollution_diameter, 1, rng)
        traj = run_episode(flat(q), QUICK, "eval", None, field=field)
        agent = traj.n_step if traj.n_poll > 0 else QUICK.max_steps
        for name, pattern in patterns.items():
            opponent = steps_to_find(pattern, field.clouds[0], QUICK.max_steps)
            verdicts[name].append(verdict(agent, opponent))
    for name in patterns:
        assert outcomes[name] == DuelOutcome(*map(sum, zip(*verdicts[name])))
        assert outcomes[name].total == 40


def test_run_duels_rejects_empty_batch():
    with pytest.raises(ValueError):
        run_duels(agent_route(np.zeros((20, 20, 4)), QUICK), QUICK, 0,
                  make_rng(0, stream=2), snake_path(20, 5))


SMALL = Hyperparams(grid_length=6, pollution_diameter=3, max_steps=40,
                    num_episodes=30, option_length=1)


def test_score_map_covers_every_center():
    route = agent_route(train_agent(SMALL, 1).q, SMALL)
    smap = score_map(route, SMALL, snake_path(6, 3))
    assert smap.opponent == "snake"
    assert smap.outcome.shape == (6, 6)
    assert smap.tally.wins + smap.tally.ties + smap.tally.losses == 36
    signs = [int((smap.outcome == sign).sum()) for sign in (1, 0, -1)]
    assert [smap.tally.wins, smap.tally.ties, smap.tally.losses] == signs


def test_score_map_matches_manual_duels():
    q = train_agent(SMALL, 1).q
    pattern = spiral_path(6, 3)
    smap = score_map(agent_route(q, SMALL), SMALL, pattern)
    for x in range(6):
        for y in range(6):
            cloud = make_cloud((x, y), 3, 6)
            traj = run_episode(flat(q), SMALL, "eval", None,
                               field=CloudField([cloud], 6))
            agent = traj.n_step if traj.n_poll > 0 else SMALL.max_steps
            opponent = steps_to_find(pattern, cloud, SMALL.max_steps)
            assert smap.agent_steps[x, y] == agent
            assert smap.opponent_steps[x, y] == opponent
            win, _, loss = verdict(agent, opponent)
            assert smap.outcome[x, y] == win - loss


def test_score_map_is_deterministic():
    route = agent_route(train_agent(SMALL, 2).q, SMALL)
    pattern = snake_path(6, 3)
    first = score_map(route, SMALL, pattern)
    second = score_map(route, SMALL, pattern)
    assert np.array_equal(first.outcome, second.outcome)
    assert np.array_equal(first.agent_steps, second.agent_steps)


def test_route_heatmap_accounting():
    q = trained_table()
    counts = route_heatmap(agent_route(q, QUICK), QUICK, 20, make_rng(9, stream=1))
    rng = make_rng(9, stream=1)
    total = 0
    for _ in range(20):
        field = spawn_clouds(QUICK.grid_length, QUICK.pollution_diameter, 1, rng)
        total += run_episode(flat(q), QUICK, "eval", None, field=field).n_step + 1
    assert int(counts.sum()) == total
    # Every episode starts at the corner, so its count is at least the
    # episode count.
    assert counts[0, 0] >= 20


def test_route_heatmap_rejects_an_empty_batch():
    route = agent_route(np.zeros((20, 20, 4)), QUICK)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_episodes must be at least 1"):
            route_heatmap(route, QUICK, n, make_rng(0, stream=1))


def test_a_route_longer_than_the_budget_is_scored_up_to_the_budget():
    # The snake needs up to 112 moves; with a 37-step budget a later find
    # is a failure, and an episode walks at most 38 cells.
    hp = Hyperparams(max_steps=37)
    snake = snake_path(20, 5)
    stats = evaluate_agent(snake, hp, 400, make_rng(0, stream=1))
    assert stats.failures == 267
    assert stats.steps.count(37) == 268  # one find on the budget's last step
    counts = route_heatmap(snake, hp, 400, make_rng(0, stream=1))
    assert int(counts.sum()) == sum(steps + 1 for steps in stats.steps) == 12_647


def test_population_stats_rejects_empty():
    with pytest.raises(ValueError):
        population_stats(QUICK, 0, 0)


def test_population_single_agent_matches_components():
    report = population_stats(QUICK, 1, 13, n_episodes=30)
    assert len(report.agents) == 1
    agent = report.agents[0]
    assert agent.seed == 13

    route = agent_route(train_agent(QUICK, 13).q, QUICK)
    stats = evaluate_agent(route, QUICK, 30, make_rng(13, stream=1))
    duels = run_duels(route, QUICK, 30, make_rng(13, stream=2), snake_path(20, 5))["snake"]
    assert agent.mean_steps == stats.mean
    assert agent.median_steps == stats.median
    assert agent.failures == stats.failures
    assert (agent.wins, agent.ties, agent.losses) == (
        duels.wins, duels.ties, duels.losses)
    assert agent.win_pct == 100.0 * duels.wins / duels.total


def test_population_histograms_conserve_agents():
    report = population_stats(QUICK, 3, 0, n_episodes=20)
    steps_edges, steps_counts = report.steps_hist
    win_edges, win_counts = report.win_hist
    assert len(steps_edges) == 41 and len(steps_counts) == 40
    assert len(win_edges) == 21 and len(win_counts) == 20
    assert int(steps_counts.sum()) == 3
    assert int(win_counts.sum()) == 3
    for agent in report.agents:
        assert 0.0 <= agent.win_pct <= 100.0


# Each stage's return code, if any, and which of numpy, concurrent and
# multiprocessing are loaded after it, run in order in one fresh interpreter.
_LOADED_BY_STAGE = """
import contextlib, io, json, sys

def loaded():
    return sorted({name.split('.')[0] for name in sys.modules}
                  & {'numpy', 'concurrent', 'multiprocessing'})

seen = {}
# perfbench/run.py's SETUP_CODE: what the benchmark's setup_s times.
import hmc_search
from hmc_search import Hyperparams, snake_path, spiral_path
Hyperparams(); snake_path(20, 5); spiral_path(20, 5)
seen['setup'] = loaded()
from hmc_search import cli
seen['import cli'] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    seen['--help'] = [cli.dispatch(['--help']), loaded()]
seen['usage error'] = [cli.dispatch(['train', '--config', 'missing.json']), loaded()]
hmc_search.make_rng(0)
seen['make_rng'] = loaded()
print(json.dumps(seen))
"""


def test_importing_the_package_loads_no_process_pool(tmp_path):
    """Nor numpy, until something draws: not the import, --help or a usage error."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LOADED_BY_STAGE], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "setup": [], "import cli": [], "--help": [0, []], "usage error": [1, []],
        # The first draw loads numpy, so the empty lists above are not vacuous.
        "make_rng": ["numpy"]}


def test_pooled_scores_equal_the_in_process_scores():
    work = [(QUICK, seed, 20, 20) for seed in (3, 4, 5)]
    assert score_agents(work, jobs=2) == score_agents(work, jobs=1)


def test_agent_route_rejects_a_table_of_another_grid():
    small = Hyperparams(grid_length=10, pollution_diameter=3)
    for shape in ((20, 20, 4), (10, 10, 3), (10, 20, 4), (400, 4)):
        with pytest.raises(ValueError, match=r"not \(10, 10, 4\)"):
            agent_route(np.zeros(shape), small)
    assert len(agent_route(np.zeros((10, 10, 4)), small).cells) > 1


def test_score_agent_without_duel_matches_evaluation():
    agent = score_agent(QUICK, 13, 30, 0)
    route = agent_route(train_agent(QUICK, 13).q, QUICK)
    stats = evaluate_agent(route, QUICK, 30, make_rng(13, stream=1))
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
    )
    # Small integer values make ties, and an all-zero table with no memory
    # weight walks into a wall until the decision cap ends the episode.
    table_seed = data.draw(st.integers(0, 2**32 - 1), label="table seed")
    table_rng = np.random.default_rng((table_seed, 0))
    q = np.zeros((length, length, 4))
    kind = data.draw(st.sampled_from(["normal", "ties", "zeros"]), label="table")
    if kind == "normal":
        q[:] = table_rng.normal(size=q.shape)
    elif kind == "ties":
        q[:] = table_rng.integers(0, 2, size=q.shape)
    route = agent_route(q, hp)
    for x in range(length):
        for y in range(length):
            cloud = make_cloud((x, y), hp.pollution_diameter, length)
            traj = run_episode(flat(q), hp, "eval", None, field=CloudField([cloud], length))
            assert first_hit(route, cloud) == (traj.n_step if traj.n_poll else None)
            assert list(route.cells[:len(traj.cells)]) == \
                [divmod(cell, length) for cell in traj.cells]


def test_agent_loses_every_center_whose_cloud_covers_the_start():
    # A pattern senses its start cell and scores 0 there; the agent collects
    # only on entering a cell, so it needs at least one step and loses.
    hp = Hyperparams()
    q = np.zeros((20, 20, 4))
    q[:] = np.random.default_rng((4, 0)).normal(size=q.shape)
    smap = score_map(agent_route(q, hp), hp, snake_path(20, 5))
    covering = smap.opponent_steps == 0
    assert int(covering.sum()) == 8
    assert (smap.agent_steps[covering] >= 1).all()
    assert (smap.outcome[covering] == -1).all()
    cloud = make_cloud((0, 0), 5, 20)
    traj = run_episode(flat(q), hp, "eval", None, field=CloudField([cloud], 20))
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
    q = np.zeros((5, 5, 4))
    q[:, :, RIGHT] = 1.0
    route = agent_route(q, hp)
    assert route.cells == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
    found = evaluate_agent(route, hp, 1, FixedDraws(4, 0))
    assert (found.steps, found.failures) == ([4], 0)
    missed = evaluate_agent(route, hp, 1, FixedDraws(4, 1))
    assert (missed.steps, missed.failures) == ([4], 1)
    traj = run_episode(flat(q), hp, "eval", None,
                       field=CloudField([make_cloud((4, 0), 1, 5)], 5))
    assert (traj.n_step, traj.n_poll) == (4, 1)


def test_patterns_are_held_to_the_step_budget():
    # The snake needs up to 112 moves on the default grid.  With a 37-step
    # budget every later find scores 37, so a center where the untrained
    # agent also fails is a tie, not a win.
    hp = Hyperparams(max_steps=37)
    result = score_map(agent_route(np.zeros((20, 20, 4)), hp), hp, snake_path(20, 5))
    assert result.opponent_steps.max() == 37
    assert (result.opponent_steps == 37).sum() == 267
    assert not (result.outcome[result.agent_steps == 37] > 0).any()
    assert (result.tally.wins, result.tally.ties, result.tally.losses) == (111, 162, 127)


def test_agent_and_patterns_start_on_the_same_cell():
    hp = Hyperparams(grid_length=7, pollution_diameter=3)
    q = np.random.default_rng((4, 0)).normal(size=(7, 7, 4))
    routes = (agent_route(q, hp), snake_path(7, 3), spiral_path(7, 3))
    assert {route.cells[0] for route in routes} == {START}


# --- any route, pattern or agent, is scored by the same functions


@pytest.mark.parametrize("build", [
    lambda hp: snake_path(hp.grid_length, hp.pollution_diameter),
    lambda hp: spiral_path(hp.grid_length, hp.pollution_diameter),
    lambda hp: agent_route(trained_table(), hp),
], ids=["snake", "spiral", "agent"])
def test_a_route_ties_itself_at_every_center(build):
    route = build(QUICK)
    smap = score_map(route, QUICK, route)
    assert smap.opponent == route.kind
    assert (smap.outcome == 0).all()
    assert np.array_equal(smap.agent_steps, smap.opponent_steps)
    assert smap.tally == DuelOutcome(0, QUICK.grid_length ** 2, 0)


def test_a_duel_verdict_does_not_depend_on_the_other_patterns():
    # score_agent duels the snake alone, the duel command both patterns.
    route = agent_route(trained_table(), QUICK)
    snake, spiral = snake_path(20, 5), spiral_path(20, 5)
    both = run_duels(route, QUICK, 50, make_rng(4, stream=2), snake, spiral)
    for pattern in (snake, spiral):
        alone = run_duels(route, QUICK, 50, make_rng(4, stream=2), pattern)
        assert alone == {pattern.kind: both[pattern.kind]}


def test_evaluating_a_pattern_reads_its_center_steps():
    hp = Hyperparams()
    snake = snake_path(20, 5)
    stats = evaluate_agent(snake, hp, 300, make_rng(6, stream=1))
    centers = draw_centers(20, 300, make_rng(6, stream=1))
    assert stats.failures == 0
    assert stats.steps == center_steps(hp, snake)[0].ravel()[centers].tolist()

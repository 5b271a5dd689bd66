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
    duel_signs,
    evaluate_agent,
    population_stats,
    route_heatmap,
    run_duels,
    score_agent,
    score_agents,
    score_map,
)
from hmc_search.policy import write_qtable_csv
from hmc_search.training import Hyperparams, run_episode, train_agent
from oracle import first_hit

QUICK = Hyperparams(num_episodes=40, max_steps=80)


def trained_table(seed=3):
    return train_agent(QUICK, seed).q


def zeros(length):
    """An untrained flat table q[cell * 4 + d] of a length-cell grid."""
    return [0.0] * (4 * length * length)


def normal_table(length):
    """A flat table of standard normal values, with no pull toward a wall."""
    return np.random.default_rng((4, 0)).normal(size=4 * length * length).tolist()


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


def duel(agent_steps, opponent_steps):
    return DuelOutcome.tally(duel_signs(agent_steps, opponent_steps))


def test_duel_verdicts():
    # One cloud each: fewer steps wins, equal steps tie, more steps lose.
    assert duel_signs([3, 5, 7], [5, 5, 5]) == [1, 0, -1]
    assert duel([3], [5]) == DuelOutcome(1, 0, 0)
    assert duel([5], [5]) == DuelOutcome(0, 1, 0)
    assert duel([7], [5]) == DuelOutcome(0, 0, 1)


def test_duel_antisymmetry():
    for a in range(4):
        for b in range(4):
            forward, backward = duel([a], [b]), duel([b], [a])
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
    signs = duel_signs(agent, opponent)
    outcome = DuelOutcome.tally(signs)
    assert outcome.wins + outcome.ties + outcome.losses == outcome.total == n
    verdicts = [verdict(a, o) for a, o in zip(agent, opponent)]
    assert signs == [win - loss for win, _, loss in verdicts]
    assert [outcome.wins, outcome.ties, outcome.losses] == [
        sum(v[i] for v in verdicts) for i in range(3)]
    swapped = duel(opponent, agent)
    assert (swapped.wins, swapped.ties, swapped.losses) == (
        outcome.losses, outcome.ties, outcome.wins)


def test_evaluate_agent_rejects_empty_batch():
    with pytest.raises(ValueError):
        evaluate_agent(agent_route(zeros(20), QUICK), QUICK, 0,
                       make_rng(0, stream=1))


def test_evaluate_agent_matches_manual_episodes():
    q = trained_table()
    stats = evaluate_agent(agent_route(q, QUICK), QUICK, 30, make_rng(7, stream=1))
    rng = make_rng(7, stream=1)
    expected = []
    failures = 0
    for _ in range(30):
        field = spawn_clouds(QUICK.grid_length, QUICK.pollution_diameter, 1, rng)
        traj = run_episode(list(q), QUICK, "eval", None, field=field)
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
             "untrained agent": agent_route(zeros(20), hp)}[kind]
    exact = np.array(center_steps(hp, route)[0])
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
        traj = run_episode(list(q), QUICK, "eval", None, field=field)
        agent = traj.n_step if traj.n_poll > 0 else QUICK.max_steps
        for name, pattern in patterns.items():
            cloud = make_cloud(divmod(field.clouds[0], QUICK.grid_length),
                               QUICK.pollution_diameter, QUICK.grid_length)
            opponent = steps_to_find(pattern, cloud, QUICK.max_steps)
            verdicts[name].append(verdict(agent, opponent))
    for name in patterns:
        assert outcomes[name] == DuelOutcome(*map(sum, zip(*verdicts[name])))
        assert outcomes[name].total == 40


def test_run_duels_rejects_empty_batch():
    with pytest.raises(ValueError):
        run_duels(agent_route(zeros(20), QUICK), QUICK, 0,
                  make_rng(0, stream=2), snake_path(20, 5))


SMALL = Hyperparams(grid_length=6, pollution_diameter=3, max_steps=40,
                    num_episodes=30, option_length=1)


def test_score_map_covers_every_center():
    route = agent_route(train_agent(SMALL, 1).q, SMALL)
    signs = score_map(route, SMALL, snake_path(6, 3))
    assert len(signs) == 36
    assert set(signs) <= {1, 0, -1}
    assert DuelOutcome.tally(signs).total == 36


def test_score_map_matches_manual_duels():
    q = train_agent(SMALL, 1).q
    pattern = spiral_path(6, 3)
    route = agent_route(q, SMALL)
    signs = score_map(route, SMALL, pattern)
    agent_steps, opponent_steps = center_steps(SMALL, route, pattern)
    for x in range(6):
        for y in range(6):
            cloud = make_cloud((x, y), 3, 6)
            traj = run_episode(list(q), SMALL, "eval", None,
                               field=CloudField([x * 6 + y], 6, 3))
            agent = traj.n_step if traj.n_poll > 0 else SMALL.max_steps
            opponent = steps_to_find(pattern, cloud, SMALL.max_steps)
            cell = x * 6 + y
            assert agent_steps[cell] == agent
            assert opponent_steps[cell] == opponent
            win, _, loss = verdict(agent, opponent)
            assert signs[cell] == win - loss


def test_score_map_is_deterministic():
    route = agent_route(train_agent(SMALL, 2).q, SMALL)
    pattern = snake_path(6, 3)
    assert score_map(route, SMALL, pattern) == score_map(route, SMALL, pattern)
    assert center_steps(SMALL, route) == center_steps(SMALL, route)


def test_route_heatmap_accounting():
    q = trained_table()
    counts = route_heatmap(agent_route(q, QUICK), QUICK, 20, make_rng(9, stream=1))
    rng = make_rng(9, stream=1)
    total = 0
    for _ in range(20):
        field = spawn_clouds(QUICK.grid_length, QUICK.pollution_diameter, 1, rng)
        total += run_episode(list(q), QUICK, "eval", None, field=field).n_step + 1
    assert len(counts) == QUICK.grid_length ** 2
    assert sum(counts) == total
    # Every episode starts at the corner, cell 0, so its count is at least
    # the episode count.
    assert counts[0] >= 20


def test_route_heatmap_rejects_an_empty_batch():
    route = agent_route(zeros(20), QUICK)
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
    assert sum(counts) == sum(steps + 1 for steps in stats.steps) == 12_647


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
seen['pattern'] = [cli.dispatch(['pattern', '--out', 'out']), loaded()]
seen['scoremap'] = [cli.dispatch(['scoremap', '--qtable', 'qtable.csv', '--out', 'out']),
                    loaded()]
hmc_search.make_rng(0)
seen['make_rng'] = loaded()
print(json.dumps(seen))
"""


def test_importing_the_package_loads_no_process_pool(tmp_path):
    """Nor numpy, until something draws: not the import, --help, a usage error, pattern
    or scoremap, which reads a table and scores its route against every center."""
    write_qtable_csv(tmp_path / "qtable.csv", normal_table(20))
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LOADED_BY_STAGE], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "setup": [], "import cli": [], "--help": [0, []], "usage error": [1, []],
        "pattern": [0, []], "scoremap": [0, []],
        # The first draw loads numpy, so the empty lists above are not vacuous.
        "make_rng": ["numpy"]}


def test_pooled_scores_equal_the_in_process_scores():
    work = [(QUICK, seed, 20, 20) for seed in (3, 4, 5)]
    assert score_agents(work, jobs=2) == score_agents(work, jobs=1)


def test_score_agents_asks_for_no_more_workers_than_work_items(monkeypatch):
    # A pool forks all its workers on the first submit, so the pool is sized
    # by the work; a stand-in records the size and scores in this process.
    import concurrent.futures
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    work = [(SMALL, seed, 10, 10) for seed in (1, 2, 3)]
    expected = [score_agent(*item) for item in work]
    assert score_agents(work[:2], jobs=4) == expected[:2]
    assert score_agents(work, jobs=2) == expected
    assert sizes == [2, 2]
    # One work item, or one job, is scored in this process with no pool.
    assert score_agents(work[:1], jobs=4) == expected[:1]
    assert score_agents(work, jobs=1) == expected
    assert sizes == [2, 2]


def test_agent_route_rejects_a_table_of_another_grid():
    # The flat tables of a 20-grid, of three directions, of a 10 x 20 grid and
    # one value short; a nested (10, 10, 4) table, as an array and as lists.
    small = Hyperparams(grid_length=10, pollution_diameter=3)
    for q in (zeros(20), [0.0] * 300, [0.0] * 800, zeros(10)[1:], np.zeros((10, 10, 4)),
              [[[0.0] * 4] * 10] * 10):
        message = f"q holds {len(q)} values, not 400 for a 10-cell grid"
        with pytest.raises(ValueError, match=message):
            agent_route(q, small)
    assert len(agent_route(zeros(10), small).cells) > 1


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
    q = zeros(length)
    kind = data.draw(st.sampled_from(["normal", "ties", "zeros"]), label="table")
    if kind == "normal":
        q = table_rng.normal(size=len(q)).tolist()
    elif kind == "ties":
        q = table_rng.integers(0, 2, size=len(q)).astype(float).tolist()
    route = agent_route(q, hp)
    for x in range(length):
        for y in range(length):
            cloud = make_cloud((x, y), hp.pollution_diameter, length)
            traj = run_episode(q, hp, "eval", None,
                               field=CloudField([x * length + y], length, hp.pollution_diameter))
            assert first_hit(route, cloud) == (traj.n_step if traj.n_poll else None)
            assert list(route.cells[:len(traj.cells)]) == \
                [divmod(cell, length) for cell in traj.cells]


def test_agent_loses_every_center_whose_cloud_covers_the_start():
    # A pattern senses its start cell and scores 0 there; the agent collects
    # only on entering a cell, so it needs at least one step and loses.
    hp = Hyperparams()
    q = normal_table(20)
    route, snake = agent_route(q, hp), snake_path(20, 5)
    signs = score_map(route, hp, snake)
    agent_steps, opponent_steps = center_steps(hp, route, snake)
    covering = [cell for cell, steps in enumerate(opponent_steps) if steps == 0]
    assert len(covering) == 8
    assert all(agent_steps[cell] >= 1 for cell in covering)
    assert all(signs[cell] == -1 for cell in covering)
    traj = run_episode(q, hp, "eval", None, field=CloudField([0], 20, 5))
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
    q = zeros(5)
    q[RIGHT::4] = [1.0] * (5 * 5)
    route = agent_route(q, hp)
    assert route.cells == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
    found = evaluate_agent(route, hp, 1, FixedDraws(4, 0))
    assert (found.steps, found.failures) == ([4], 0)
    missed = evaluate_agent(route, hp, 1, FixedDraws(4, 1))
    assert (missed.steps, missed.failures) == ([4], 1)
    traj = run_episode(q, hp, "eval", None,
                       field=CloudField([4 * 5 + 0], 5, 1))
    assert (traj.n_step, traj.n_poll) == (4, 1)


def test_patterns_are_held_to_the_step_budget():
    # The snake needs up to 112 moves on the default grid.  With a 37-step
    # budget every later find scores 37, so a center where the untrained
    # agent also fails is a tie, not a win.
    hp = Hyperparams(max_steps=37)
    route, snake = agent_route(zeros(20), hp), snake_path(20, 5)
    signs = score_map(route, hp, snake)
    agent_steps, opponent_steps = center_steps(hp, route, snake)
    assert max(opponent_steps) == 37
    assert opponent_steps.count(37) == 267
    assert not any(sign > 0 for sign, steps in zip(signs, agent_steps) if steps == 37)
    assert DuelOutcome.tally(signs) == DuelOutcome(111, 162, 127)


def test_score_map_signs_tally_as_duels_over_every_center():
    # Duels on clouds drawn at every center once count what the map shows.
    route = agent_route(trained_table(), QUICK)
    length = QUICK.grid_length
    every_center = [v for x in range(length) for y in range(length) for v in (x, y)]
    for pattern in (snake_path(20, 5), spiral_path(20, 5)):
        duels = run_duels(route, QUICK, length ** 2, FixedDraws(*every_center), pattern)
        assert DuelOutcome.tally(score_map(route, QUICK, pattern)) == duels[pattern.kind]


def test_agent_and_patterns_start_on_the_same_cell():
    hp = Hyperparams(grid_length=7, pollution_diameter=3)
    routes = (agent_route(normal_table(7), hp), snake_path(7, 3), spiral_path(7, 3))
    assert {route.cells[0] for route in routes} == {START}


# --- any route, pattern or agent, is scored by the same functions


@pytest.mark.parametrize("build", [
    lambda hp: snake_path(hp.grid_length, hp.pollution_diameter),
    lambda hp: spiral_path(hp.grid_length, hp.pollution_diameter),
    lambda hp: agent_route(trained_table(), hp),
], ids=["snake", "spiral", "agent"])
def test_a_route_ties_itself_at_every_center(build):
    route = build(QUICK)
    signs = score_map(route, QUICK, route)
    assert signs == [0] * QUICK.grid_length ** 2
    agent_steps, opponent_steps = center_steps(QUICK, route, route)
    assert agent_steps == opponent_steps
    assert DuelOutcome.tally(signs) == DuelOutcome(0, QUICK.grid_length ** 2, 0)


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
    steps, = center_steps(hp, snake)
    assert stats.steps == [steps[center] for center in centers]

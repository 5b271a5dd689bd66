"""End-to-end acceptance checks, one test per shipping requirement.

Each test prints its measured numbers and enforces its runtime budget,
so a verbose run doubles as the acceptance report.
"""
import os
import time

import numpy as np
from scipy.ndimage import distance_transform_edt

from hmc_search.baselines import snake_path, spiral_path, steps_to_find
from hmc_search.cli import dispatch
from hmc_search.env import make_cloud, make_rng, spawn_clouds
from hmc_search.evalharness import evaluate_agent, score_map
from hmc_search.policy import (
    mc_update,
    new_qtable,
    new_visit_memory,
    option_terminal,
    q_update,
    select_option,
)
from hmc_search.sweep import SweepSpec, run_sweep
from hmc_search.training import (
    Hyperparams,
    dynamic_demo,
    epsilon_at,
    static_demo,
    train_agent,
    trajectory_reward,
)

# Step-count aggregates over all 400 cloud centers that the two fixed
# patterns are expected to track.
SNAKE_MEAN_TARGET = 53.51
SNAKE_MEDIAN_TARGET = 54
SPIRAL_MEAN_TARGET = 66.74

JOBS = min(4, os.cpu_count() or 1)


def pattern_steps(pattern, grid_length=20, diameter=5):
    budget = Hyperparams().max_steps
    return [steps_to_find(pattern, make_cloud((x, y), diameter, grid_length), budget)
            for x in range(grid_length) for y in range(grid_length)]


def test_01_pattern_step_aggregates_match_references():
    start = time.perf_counter()
    snake = pattern_steps(snake_path(20, 5))
    spiral = pattern_steps(spiral_path(20, 5))
    snake_mean = sum(snake) / len(snake)
    snake_median = sorted(snake)[(len(snake) - 1) // 2]
    spiral_mean = sum(spiral) / len(spiral)
    elapsed = time.perf_counter() - start
    print(f"snake mean {snake_mean:.4f} median {snake_median}, "
          f"spiral mean {spiral_mean:.4f}, {elapsed:.2f}s")
    assert abs(snake_mean - SNAKE_MEAN_TARGET) <= 0.15 * SNAKE_MEAN_TARGET
    assert abs(snake_median - SNAKE_MEDIAN_TARGET) <= 3
    assert abs(spiral_mean - SPIRAL_MEAN_TARGET) <= 0.15 * SPIRAL_MEAN_TARGET
    assert elapsed < 1.0


def test_02_patterns_cover_all_centers_and_sizes():
    start = time.perf_counter()
    # Direct support check on the standard grid: every center found
    # strictly within the step budget.
    for pattern in (snake_path(20, 5), spiral_path(20, 5)):
        assert max(pattern_steps(pattern)) < 400
    # Distance check across sizes: no cell may sit farther from the
    # path than the detection reach, which is exactly "some path cell
    # lies inside every possible cloud".
    for grid_length in range(10, 41):
        for diameter in range(1, 8):
            if diameter > grid_length:
                continue
            for build in (snake_path, spiral_path):
                path = build(grid_length, diameter)
                mask = np.ones((grid_length, grid_length), dtype=bool)
                for (x, y) in path.cells:
                    mask[x, y] = False
                farthest = float(distance_transform_edt(mask).max())
                assert farthest <= diameter / 2.0 + 1e-9, \
                    (grid_length, diameter, build.__name__)
    elapsed = time.perf_counter() - start
    print(f"coverage verified for 2 patterns x 217 size combos, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_03_plain_q_learning_rarely_finds_respawning_cloud():
    start = time.perf_counter()
    means = []
    for seed in (0, 1, 2):
        _, mean_steps = dynamic_demo(Hyperparams(), seed)
        means.append(mean_steps)
    elapsed = time.perf_counter() - start
    hits = sum(1 for m in means if 370.0 <= m <= 400.0)
    print(f"eval means {[round(m, 2) for m in means]}, "
          f"{hits}/3 in [370, 400], {elapsed:.2f}s")
    assert hits >= 2
    assert elapsed < 60.0


def positive_path_reaches_cloud(grid, support):
    if grid[0, 0] <= 0.0:
        return False
    length = grid.shape[0]
    frontier = [(0, 0)]
    seen = {(0, 0)}
    while frontier:
        x, y = frontier.pop()
        if (x, y) in support:
            return True
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < length and 0 <= ny < length \
                    and (nx, ny) not in seen and grid[nx, ny] > 0.0:
                seen.add((nx, ny))
                frontier.append((nx, ny))
    return False


def test_04_discounted_values_pave_a_path_to_the_fixed_cloud():
    start = time.perf_counter()
    hp = Hyperparams(discount_rate=0.9)
    passes = 0
    for seed in (0, 1, 2):
        snapshots = static_demo(hp, seed, snapshot_episodes=(2000,))
        field = spawn_clouds(hp.grid_length, hp.pollution_diameter, 1, make_rng(seed))
        support = set()
        for cloud in field.clouds:
            support.update(cloud.support)
        if positive_path_reaches_cloud(snapshots[2000], support):
            passes += 1
    elapsed = time.perf_counter() - start
    print(f"positive-value path to cloud for {passes}/3 seeds, {elapsed:.2f}s")
    assert passes >= 2
    assert elapsed < 60.0


def test_05_zero_discount_update_equals_monte_carlo_update():
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    n = 100_000
    xs = rng.integers(20, size=n).tolist()
    ys = rng.integers(20, size=n).tolist()
    ds = rng.integers(4, size=n).tolist()
    nxs = rng.integers(20, size=n).tolist()
    nys = rng.integers(20, size=n).tolist()
    values = rng.normal(0, 40, size=n).tolist()
    bootstraps = rng.normal(0, 40, size=n).tolist()
    rewards = rng.normal(0, 30, size=n).tolist()
    alphas = rng.uniform(0.01, 1.0, size=n).tolist()
    qa = new_qtable(20)
    qb = new_qtable(20)
    worst = 0.0
    for x, y, a, nx, ny, v, b, r, al in zip(xs, ys, ds, nxs, nys, values,
                                            bootstraps, rewards, alphas):
        qa[nx, ny] = b
        qa[x, y, a] = v
        qb[x, y, a] = v
        q_update(qa, (x, y), a, r, (nx, ny), al, 0.0)
        mc_update(qb, (x, y), a, r, al)
        diff = abs(qa[x, y, a] - qb[x, y, a])
        if diff > worst:
            worst = diff
    elapsed = time.perf_counter() - start
    print(f"worst deviation {worst:.2e} over {n} inputs, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_06_memory_filter_shuns_visited_cells_and_ignores_shifts():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    length = 9
    for _ in range(2000):
        q = rng.normal(0, 5, size=(length, length, 4))
        mem = new_visit_memory(length)
        visited = rng.random(size=(length, length)) < 0.4
        mem[visited] = rng.integers(1, 4, size=int(visited.sum()))
        s = (int(rng.integers(length)), int(rng.integers(length)))
        q_range = float(q.max() - q.min())
        params = Hyperparams(grid_length=length, mof_value=q_range + 1.0, option_length=2)

        chosen = select_option(q, mem, s, params, "exploit", None)
        span = params.option_length + 1
        terminals = [option_terminal(s, d, span, length) for d in range(4)]
        if any(mem[t] == 0 for t in terminals):
            assert mem[terminals[chosen]] == 0

        shifted = mem + int(rng.integers(1, 10))
        assert select_option(q, shifted, s, params, "exploit", None) == chosen
    elapsed = time.perf_counter() - start
    print(f"2000 randomized selections verified, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_07_trained_agents_compete_with_the_patterns():
    start = time.perf_counter()
    hp = Hyperparams()
    snake = snake_path(20, 5)
    means = []
    best_wins = 0
    for seed in range(20):
        report = train_agent(hp, seed)
        stats = evaluate_agent(report.q, hp, 1000, make_rng(seed, stream=1))
        means.append(stats.mean)
        wins = score_map(report.q, hp, snake).tally.wins
        best_wins = max(best_wins, wins)
    elapsed = time.perf_counter() - start
    median_mean = float(np.median(means))
    print(f"median of means {median_mean:.2f}, best mean {min(means):.2f}, "
          f"best map wins {best_wins}/400, {elapsed:.1f}s")
    assert median_mean < SPIRAL_MEAN_TARGET
    assert best_wins > 200
    assert min(means) < 60.0
    assert elapsed < 300.0


def test_08_commitment_length_and_memory_weight_tuning_curves():
    start = time.perf_counter()
    length_sweep = run_sweep(SweepSpec(
        parameter="option_length", values=[1, 2, 3, 4, 5, 6],
        runs_per_value=20), jobs=JOBS)
    by_mean = sorted(length_sweep.per_value, key=lambda v: v.mean)
    rank = [v.value for v in by_mean].index(3)
    print("option-length means "
          f"{[round(v.mean, 2) for v in length_sweep.per_value]}, "
          f"value 3 ranked {rank + 1}")
    assert rank <= 1

    weight_sweep = run_sweep(SweepSpec(
        parameter="mof_value", values=[10.0, 20.0],
        runs_per_value=20), jobs=JOBS)
    low, high = weight_sweep.per_value
    gap = abs(low.mean - high.mean)
    combined = low.ci_half + high.ci_half
    elapsed = time.perf_counter() - start
    print(f"memory-weight means {low.mean:.3f}/{high.mean:.3f}, "
          f"gap {gap:.3f} < ci {combined:.3f}, {elapsed:.1f}s")
    assert gap < combined
    assert elapsed < 1800.0


def test_09_trajectory_reward_formula_is_exact():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        scaling = float(rng.uniform(-100.0, 100.0))
        n_step = int(rng.integers(1, 401))
        n_poll = int(rng.integers(0, 11))
        assert trajectory_reward(scaling, n_step, n_poll) == \
            scaling * n_poll / n_step
    assert trajectory_reward(30.0, 17, 0) == 0.0


def test_10_rerun_outputs_are_byte_identical(tmp_path):
    start = time.perf_counter()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert dispatch(["train", "--seed", "4", "--out", str(out_a)]) == 0
    assert dispatch(["train", "--seed", "4", "--out", str(out_b)]) == 0
    assert (out_a / "qtable.csv").read_bytes() == \
        (out_b / "qtable.csv").read_bytes()

    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert dispatch(["scoremap", "--qtable", str(out_a / "qtable.csv"),
                     "--out", str(out_c)]) == 0
    assert dispatch(["scoremap",
                     "--from-manifest", str(out_c / "manifest_scoremap.json"),
                     "--out", str(out_d)]) == 0
    assert (out_c / "scoremap_snake.csv").read_bytes() == \
        (out_d / "scoremap_snake.csv").read_bytes()
    elapsed = time.perf_counter() - start
    print(f"train and scoremap reruns byte-identical, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_11_exploration_schedule_endpoints_are_exact():
    hp = Hyperparams()
    assert epsilon_at(0, hp) == 1.0
    assert epsilon_at(hp.num_episodes // 2, hp) == 0.5
    assert epsilon_at(hp.num_episodes, hp) == 0.0
    assert epsilon_at(hp.num_episodes + 1234, hp) == 0.0
    longer = Hyperparams(num_episodes=2000)
    assert epsilon_at(1000, longer) == 0.5

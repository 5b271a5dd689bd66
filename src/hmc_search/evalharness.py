"""Evaluation: step statistics, duels against patterns, score maps.

All comparisons score the agent and the pattern against the identical
cloud, and duel_signs decides every one: strictly fewer steps wins,
equal steps tie.  Failed agent episodes count the full step
budget, which makes them automatic losses against any finishing pattern.

Every scoring function takes a route (a PatternPath), never a value
table, so the agent is scored like the patterns, by a route and a
per-center table.  agent_route is the one place a value table becomes a
route: the greedy policy reads no random source and walks the same cells
for every cloud until it enters one, where a single-cloud episode ends,
so center_hits gives every center's first hit in one pass over the route.
A random cloud is its center, drawn by draw_centers as spawn_clouds
draws it, and its score a read of the table.  Every per-center result
is a flat list indexed by the cell int x * grid_length + y.
"""
from __future__ import annotations

import os
from dataclasses import astuple, dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .baselines import PatternPath, budget_steps, center_hits, snake_path
from .env import CloudField, draw_centers, make_rng
from .training import Hyperparams, run_episode, train_agent

if TYPE_CHECKING:
    import numpy as np


@dataclass
class EvalStats:
    """Step counts over an evaluation batch, failures scored as max_steps."""

    steps: list[int]
    failures: int
    mean: float
    median: float

    @classmethod
    def from_steps(cls, steps: list[int], failures: int) -> "EvalStats":
        ordered = sorted(steps)
        n = len(ordered)
        mean = sum(ordered) / n
        median = float(ordered[(n - 1) // 2])  # lower median for even n
        return cls(list(steps), failures, mean, median)


def duel_signs(agent_steps, opponent_steps) -> list[int]:
    """+1 where the agent needs strictly fewer steps (a win), 0 on a tie,
    -1 on a loss, element by element: the one duel rule."""
    return [(a < o) - (a > o) for a, o in zip(agent_steps, opponent_steps)]


@dataclass
class DuelOutcome:
    wins: int = 0
    ties: int = 0
    losses: int = 0

    @property
    def total(self) -> int:
        return self.wins + self.ties + self.losses

    @classmethod
    def tally(cls, signs: list[int]) -> "DuelOutcome":
        """Count the wins, ties and losses among duel_signs' signs."""
        return cls(signs.count(1), signs.count(0), signs.count(-1))


def agent_route(q, hp: Hyperparams) -> PatternPath:
    """The greedy agent's route: one eval episode on a field with no cloud.

    It ends at the step budget or the decision cap, as a fruitless greedy
    episode does; lookups start at index 1 (see PatternPath.first).  The
    episode walks the flat table q[cell * 4 + d] as a list, and its cell
    ints become (x, y) here.  Raises ValueError unless len(q) is 4 * grid_length ** 2.
    """
    length = hp.grid_length
    if len(q) != 4 * length**2:
        raise ValueError(f"q holds {len(q)} values, not {4 * length**2} for a {length}-cell grid")
    field = CloudField([], length, hp.pollution_diameter)
    traj = run_episode(list(q), hp, "eval", None, field=field)
    return PatternPath(tuple(divmod(cell, length) for cell in traj.cells), "agent", first=1)


def evaluate_agent(route: PatternPath, hp: Hyperparams, n_episodes: int, rng) -> EvalStats:
    """Single-cloud episodes of the route; a find by the budget's last step succeeds."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    hits = center_hits(route, hp.grid_length, hp.pollution_diameter, hp.max_steps)
    found = [hits[center] for center in draw_centers(hp.grid_length, n_episodes, rng)]
    return EvalStats.from_steps(budget_steps(found, hp.max_steps), found.count(None))


def center_steps(hp: Hyperparams, *paths: PatternPath) -> list[list[int]]:
    """steps_to_find for a cloud centered on every cell, one flat list per path."""
    return [budget_steps(center_hits(path, hp.grid_length, hp.pollution_diameter, hp.max_steps),
                         hp.max_steps) for path in paths]


def run_duels(route: PatternPath, hp: Hyperparams, n: int, rng,
              *patterns: PatternPath) -> dict[str, DuelOutcome]:
    """The route against each pattern on n shared random clouds, by pattern kind."""
    if n < 1:
        raise ValueError("n must be at least 1")
    centers = draw_centers(hp.grid_length, n, rng)
    agent, *opponents = ([steps[c] for c in centers]
                         for steps in center_steps(hp, route, *patterns))
    return {pattern.kind: DuelOutcome.tally(duel_signs(agent, opponent))
            for pattern, opponent in zip(patterns, opponents)}


def score_map(route: PatternPath, hp: Hyperparams, opponent: PatternPath) -> list[int]:
    """duel_signs of the route against opponent at every one of the
    grid_length ** 2 cloud centers.

    Both sides are deterministic, so the map needs no random source.
    """
    return duel_signs(*center_steps(hp, route, opponent))


def route_heatmap(route: PatternPath, hp: Hyperparams, n_episodes: int, rng) -> list[int]:
    """Visit counts per cell over the route's single-cloud episodes.

    Each episode contributes its start cell plus every cell entered until
    its find or the budget, so the grand total is the sum of (steps + 1).
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    length = hp.grid_length
    hits = center_hits(route, length, hp.pollution_diameter, hp.max_steps)
    last = min(len(route.cells) - 1, hp.max_steps)
    ended = [0] * (last + 1)
    for center in draw_centers(length, n_episodes, rng):
        hit = hits[center]
        ended[last if hit is None else hit] += 1
    # Episodes that walk route index i: those that end there or later.
    walked = reversed(list(accumulate(reversed(ended))))
    counts = [0] * (length * length)
    for (x, y), episodes in zip(route.cells, walked):
        counts[x * length + y] += episodes
    return counts


@dataclass
class AgentScore:
    seed: int
    mean_steps: float
    median_steps: float
    failures: int
    wins: int
    ties: int
    losses: int
    win_pct: float


@dataclass
class PopulationReport:
    agents: list[AgentScore]
    steps_hist: tuple[np.ndarray, np.ndarray]  # (bin edges, counts)
    win_hist: tuple[np.ndarray, np.ndarray]


def score_agent(hp: Hyperparams, seed: int, n_eval: int, n_duel: int) -> AgentScore:
    """Train one agent and score its route.

    Evaluation draws its clouds from stream 1 of the seed, the snake duel
    from stream 2.  n_duel 0 skips the duel and leaves its tallies at 0.
    """
    route = agent_route(train_agent(hp, seed).q, hp)
    stats = evaluate_agent(route, hp, n_eval, make_rng(seed, stream=1))
    duels = DuelOutcome()
    if n_duel:
        snake = snake_path(hp.grid_length, hp.pollution_diameter)
        duels = run_duels(route, hp, n_duel, make_rng(seed, stream=2), snake)["snake"]
    win_pct = 100.0 * duels.wins / duels.total if n_duel else 0.0
    return AgentScore(seed, stats.mean, stats.median, stats.failures, *astuple(duels), win_pct)


def score_agents(work, jobs: int = 1) -> list[AgentScore]:
    """score_agent for each (hp, seed, n_eval, n_duel), in order, on up to jobs processes."""
    # A pool forks all its workers up front: no more than the work items or the usable CPUs.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(work), cpus or 1)
    if workers > 1:
        # Imported here: the pool pulls in multiprocessing, which one process never needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(score_agent, *zip(*work)))
    return [score_agent(*item) for item in work]


def population_stats(hp: Hyperparams, n_agents: int, base_seed: int,
                     *, n_episodes: int = 1000, jobs: int = 1) -> PopulationReport:
    """Train many independently seeded agents and report score distributions.

    Seeds run base_seed .. base_seed + n_agents - 1, each agent scored over
    n_episodes evaluation episodes and as many snake duels.  Aggregation
    order is fixed by seed, so results do not depend on worker scheduling.
    """
    import numpy as np
    if n_agents < 1:
        raise ValueError("n_agents must be at least 1")
    agents = score_agents(
        [(hp, base_seed + i, n_episodes, n_episodes) for i in range(n_agents)], jobs)
    means = np.array([a.mean_steps for a in agents])
    win_pcts = np.array([a.win_pct for a in agents])
    steps_counts, steps_edges = np.histogram(means, bins=40, range=(0, hp.max_steps))
    win_counts, win_edges = np.histogram(win_pcts, bins=20, range=(0, 100))
    return PopulationReport(agents, (steps_edges, steps_counts), (win_edges, win_counts))

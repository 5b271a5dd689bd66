"""Evaluation: step statistics, duels against patterns, score maps.

All comparisons score the agent and the pattern against the identical
cloud, and DuelOutcome.tally decides every one: strictly fewer steps
wins, equal steps tie.  Failed agent episodes count the full step
budget, which makes them automatic losses against any finishing pattern.

The agent is scored like the patterns, by a route and a first-hit lookup:
the greedy policy reads no random source and walks the same cells for
every cloud until it enters one, where a single-cloud episode ends.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .baselines import PatternPath, first_hit, snake_path, spiral_path, steps_to_find
from .env import CloudField, make_cloud, make_rng, spawn_clouds
from .policy import QTable
from .training import Hyperparams, run_episode, train_agent


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


@dataclass
class DuelOutcome:
    wins: int = 0
    ties: int = 0
    losses: int = 0

    @property
    def total(self) -> int:
        return self.wins + self.ties + self.losses

    @classmethod
    def tally(cls, agent_steps, opponent_steps) -> "DuelOutcome":
        """Count, element by element: strictly fewer agent steps wins, equal steps tie."""
        agent, opponent = np.asarray(agent_steps), np.asarray(opponent_steps)
        return cls(int((agent < opponent).sum()), int((agent == opponent).sum()),
                   int((agent > opponent).sum()))


def agent_route(q: QTable, hp: Hyperparams) -> PatternPath:
    """The greedy agent's route: one eval episode on a field with no cloud.

    It ends at the step budget or the decision cap, as a fruitless greedy
    episode does; lookups start at index 1 (see PatternPath.first).  The
    episode reads q as rows of Python floats.
    """
    traj = run_episode(q.tolist(), hp, "eval", None, field=CloudField([], hp.grid_length))
    return PatternPath(tuple(traj.cells), "agent", first=1)


def _random_cloud(hp: Hyperparams, rng):
    return spawn_clouds(hp.grid_length, hp.pollution_diameter, 1, rng).clouds[0]


def _first_hits(route: PatternPath, hp: Hyperparams, n_episodes: int, rng) -> list:
    """first_hit of the route on each of n_episodes random clouds."""
    return [first_hit(route, _random_cloud(hp, rng)) for _ in range(n_episodes)]


def _evaluate_route(route: PatternPath, hp: Hyperparams, n_episodes: int, rng) -> EvalStats:
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    hits = _first_hits(route, hp, n_episodes, rng)
    steps = [hp.max_steps if hit is None else hit for hit in hits]
    return EvalStats.from_steps(steps, hits.count(None))


def evaluate_agent(q: QTable, hp: Hyperparams, n_episodes: int, rng) -> EvalStats:
    """Greedy single-cloud episodes; a find on the budget's last step succeeds."""
    return _evaluate_route(agent_route(q, hp), hp, n_episodes, rng)


def steps_table(hp: Hyperparams, clouds, *paths: PatternPath) -> np.ndarray:
    """steps_to_find of every path (rows) on every cloud (columns), each cloud read once."""
    steps = [steps_to_find(path, cloud, hp.max_steps) for cloud in clouds for path in paths]
    return np.array(steps, dtype=np.int64).reshape(-1, len(paths)).T


def _duels(route: PatternPath, hp: Hyperparams, n: int, rng,
           *patterns: PatternPath) -> dict[str, DuelOutcome]:
    """The route against each pattern on n shared random clouds, keyed by kind."""
    if n < 1:
        raise ValueError("n must be at least 1")
    clouds = (_random_cloud(hp, rng) for _ in range(n))
    agent, *opponents = steps_table(hp, clouds, route, *patterns)
    return {pattern.kind: DuelOutcome.tally(agent, steps)
            for pattern, steps in zip(patterns, opponents)}


def run_duels(q: QTable, hp: Hyperparams, n: int, rng) -> dict[str, DuelOutcome]:
    """n independent random clouds, each scored for the agent and both patterns."""
    length, diameter = hp.grid_length, hp.pollution_diameter
    return _duels(agent_route(q, hp), hp, n, rng,
                  snake_path(length, diameter), spiral_path(length, diameter))


def center_steps(hp: Hyperparams, *paths: PatternPath) -> np.ndarray:
    """steps_to_find for a cloud centered on every cell, one (x, y) grid per path."""
    length = hp.grid_length
    clouds = (make_cloud((x, y), hp.pollution_diameter, length)
              for x in range(length) for y in range(length))
    return steps_table(hp, clouds, *paths).reshape(len(paths), length, length)


@dataclass
class ScoreMap:
    """Duel outcome for every possible cloud center."""

    opponent: str
    outcome: np.ndarray  # int8 grid, +1 win / 0 tie / -1 loss
    agent_steps: np.ndarray
    opponent_steps: np.ndarray
    tally: DuelOutcome


def score_map(q: QTable, hp: Hyperparams, opponent: PatternPath) -> ScoreMap:
    """Exhaustive duel over all grid_length ** 2 cloud centers.

    Both sides are deterministic, so the map needs no random source.
    """
    agent_grid, opponent_grid = center_steps(hp, agent_route(q, hp), opponent)
    # +1 where the agent needs fewer steps (a win), 0 on a tie, -1 on a loss.
    outcome = np.sign(opponent_grid - agent_grid).astype(np.int8)
    return ScoreMap(opponent.kind, outcome, agent_grid, opponent_grid,
                    DuelOutcome.tally(agent_grid, opponent_grid))


def route_heatmap(q: QTable, hp: Hyperparams, n_episodes: int, rng) -> np.ndarray:
    """Visit counts per cell over greedy evaluation episodes.

    Each episode contributes its start cell plus every cell entered, so
    the grand total is the sum of (steps + 1) over episodes.
    """
    route = agent_route(q, hp)
    counts = np.zeros((hp.grid_length, hp.grid_length), dtype=np.int64)
    for hit in _first_hits(route, hp, n_episodes, rng):
        for cell in route.cells[:None if hit is None else hit + 1]:
            counts[cell] += 1
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
    stats = _evaluate_route(route, hp, n_eval, make_rng(seed, stream=1))
    duels = DuelOutcome()
    if n_duel:
        snake = snake_path(hp.grid_length, hp.pollution_diameter)
        duels = _duels(route, hp, n_duel, make_rng(seed, stream=2), snake)["snake"]
    win_pct = 100.0 * duels.wins / duels.total if n_duel else 0.0
    return AgentScore(seed, stats.mean, stats.median, stats.failures, *astuple(duels), win_pct)


def score_agents(work, jobs: int = 1) -> list[AgentScore]:
    """score_agent for each (hp, seed, n_eval, n_duel), in order, on jobs processes."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(score_agent, *zip(*work)))
    return [score_agent(*item) for item in work]


def population_stats(hp: Hyperparams, n_agents: int, base_seed: int,
                     *, n_eval: int = 1000, n_duel: int = 1000,
                     jobs: int = 1) -> PopulationReport:
    """Train many independently seeded agents and report score distributions.

    Seeds run base_seed .. base_seed + n_agents - 1.  Aggregation order is
    fixed by seed, so results do not depend on worker scheduling.
    """
    if n_agents < 1:
        raise ValueError("n_agents must be at least 1")
    agents = score_agents(
        [(hp, base_seed + i, n_eval, n_duel) for i in range(n_agents)], jobs)
    means = np.array([a.mean_steps for a in agents])
    win_pcts = np.array([a.win_pct for a in agents])
    steps_counts, steps_edges = np.histogram(means, bins=40, range=(0, hp.max_steps))
    win_counts, win_edges = np.histogram(win_pcts, bins=20, range=(0, 100))
    return PopulationReport(agents, (steps_edges, steps_counts), (win_edges, win_counts))

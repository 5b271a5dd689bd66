"""Episode loop and trainers.

The main trainer runs option-level episodes against randomly spawned
clouds and backs the trajectory return (reward_scaling * clouds_found /
steps_taken, successful episodes only) into the table, Monte Carlo style
when the discount is zero.  The two demo trainers run classic per-step
tabular Q-learning with primitive actions so the failure mode that
motivates the modified agent can be reproduced and inspected.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, get_type_hints

from .baselines import PatternPath, budget_steps, center_hits
from .env import START, CloudField, WordTape, draw_centers, make_rng, spawn_clouds
from .policy import (
    execute_option,
    mc_update,
    option_stride,
    option_terminals,
    q_update,
    record_visits,
    select_option,
)

if TYPE_CHECKING:
    import numpy as np

# A zero-step clamped option consumes no budget; without the memory filter a
# deterministic policy could repeat it forever, so episodes additionally stop
# after this many option selections.
_DECISION_CAP_FACTOR = 8


@dataclass
class Hyperparams:
    """Agent and environment settings; defaults are the tuned reference set.

    The only settings object: no other layer holds a setting or a default.
    """

    grid_length: int = 20
    pollution_diameter: int = 5
    max_steps: int = 400
    num_episodes: int = 1000
    learning_rate: float = 0.1
    discount_rate: float = 0.0
    epsilon_start: float = 1.0
    epsilon_final: float = 0.0
    epsilon_decay: float = 0.001
    best_learn_value: int = 1
    num_clouds: int = 1
    mof_value: float = 10.0
    stop_learn_value: float = 1.0
    # Repeats of the committed direction after its first move; one
    # decision walks option_length + 1 cells.
    option_length: int = 3
    reward_scaling: float = 30.0

    def __post_init__(self):
        for name in CONFIG_TYPES:
            setattr(self, name, setting_value(name, getattr(self, name)))
        # Every integer setting counts something there must be at least one of.
        for name, kind in CONFIG_TYPES.items():
            if kind is int and getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("learning_rate", "stop_learn_value"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        for name in ("discount_rate", "epsilon_start", "epsilon_final"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.epsilon_final > self.epsilon_start:
            raise ValueError("epsilon_final must not exceed epsilon_start")
        for name in ("epsilon_decay", "mof_value"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.reward_scaling > 0.0:
            raise ValueError("reward_scaling must be positive")
        if self.grid_length < self.pollution_diameter:
            raise ValueError("grid_length must be at least pollution_diameter")

    def with_value(self, name: str, value) -> "Hyperparams":
        return replace(self, **{name: value})


# Every setting, with its type: what a JSON config or a sweep may set.
CONFIG_TYPES = get_type_hints(Hyperparams)


def setting_value(name: str, value):
    """What setting name stores for value, or a ValueError naming it.

    Integer settings take whole numbers (stored as int), real settings any
    finite number (stored as float); a bool is no number.
    """
    kind = CONFIG_TYPES[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past float
        raise ValueError(f"{name} must be finite, not {value!r}")
    if kind is float:
        return float(value)
    if value != int(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def reject_unknown_keys(given, known, what: str) -> None:
    """Raise a ValueError naming every key of given that is not in known."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")


@dataclass
class Trajectory:
    """One episode as seen by the learner; a cell is the int x * grid_length + y."""

    transitions: list[tuple[int, int]]  # (state, option direction) per decision
    cells: list[int]  # start cell plus every cell entered, in order
    n_step: int
    n_poll: int
    r_t: float
    capped: bool  # the decision cap ended the episode


@dataclass
class EpisodeRecord:
    episode: int
    epsilon: float
    n_step: int
    n_poll: int
    r_t: float


@dataclass
class TrainReport:
    records: list[EpisodeRecord]
    q: np.ndarray  # shape (grid_length, grid_length, 4), float64
    seed: int
    hyperparams: Hyperparams
    decision_cap_exits: int  # attempts the decision cap ended, over all episodes


def trajectory_reward(s_r: float, n_step: int, n_poll: int) -> float:
    """Trajectory return: s_r * n_poll / n_step."""
    if not math.isfinite(s_r):
        raise ValueError("reward scaling must be finite")
    if n_step < 1:
        raise ValueError("n_step must be at least 1")
    if n_poll < 0:
        raise ValueError("n_poll must be nonnegative")
    return s_r * n_poll / n_step


def epsilon_at(episode: int, hp: Hyperparams) -> float:
    """Linear exploration schedule, normalized to the episode count.

    The decay per episode is (epsilon_start - epsilon_final) /
    num_episodes, so the schedule hits its midpoint halfway through
    training regardless of episode count.  epsilon_decay does not enter.
    """
    if episode < 0:
        raise ValueError("episode must be nonnegative")
    start, final = hp.epsilon_start, hp.epsilon_final
    if episode >= hp.num_episodes:
        return final
    return start + (final - start) * (episode / hp.num_episodes)


def update_window(hp: Hyperparams) -> int:
    """Number of leading episodes with learning enabled."""
    return min(hp.num_episodes, math.ceil(hp.stop_learn_value * hp.num_episodes))


def run_episode(q: list[float], hp: Hyperparams, mode: str, rng: WordTape | None,
                *, field: CloudField, epsilon: float = 0.0) -> Trajectory:
    """Run one option-level episode on field and return its trajectory.

    q is the flat list q[cell * 4 + d], and cells, the trajectory's too,
    are ints x * grid_length + y.  Every episode starts at START.  The
    caller spawns the field, so the episode draws no cloud.  mode "train"
    is epsilon-soft with the given epsilon: each decision explores when its
    raw word from rng is below WordTape.random_bound(epsilon), as random() <
    epsilon, and epsilon 0 draws nothing; mode "eval" is pure greedy and reads no rng word.
    The memory filter is active in both modes but starts from a fresh
    all-zero list mem[cell] each episode and never touches q.  The
    episode ends on the collection that empties the field or when the
    primitive step budget is spent, so an empty field runs to the budget
    (or the decision cap, which sets the trajectory's capped flag).  The
    clouds still to be found are one bitmask over field.clouds, which
    execute_option narrows, so a caller's field is left as it was.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    explore = mode == "train" and epsilon > 0.0
    if explore:
        words, bound = rng.words, WordTape.random_bound(epsilon)
    max_steps = hp.max_steps
    stride = option_stride(hp.option_length)
    mem = [0] * hp.grid_length**2
    pos = START[0] * hp.grid_length + START[1]
    transitions: list[tuple[int, int]] = []
    cells = [pos]
    n_step = 0
    n_poll = 0
    decisions = 0
    decision_cap = _DECISION_CAP_FACTOR * max_steps + 32
    capped = False
    alive = (1 << len(field.clouds)) - 1
    while n_step < max_steps:
        if decisions == decision_cap:
            capped = True
            break
        decisions += 1
        pick = "exploit"
        if explore:
            try:
                word = words[rng.pos]
            except IndexError:
                rng.ensure(1)
                word = words[rng.pos]
            rng.pos += 1
            if word < bound:
                pick = "explore"
        direction = select_option(q, mem, pos, hp, pick, rng)
        outcome, alive = execute_option(field, alive, pos, direction, stride, max_steps - n_step)
        transitions.append((pos, direction))
        record_visits(mem, outcome)
        cells.extend(outcome.path)
        n_step += outcome.primitive_steps
        n_poll += outcome.found_count
        pos = outcome.terminal
        if outcome.found_count and not alive:
            break
    if n_poll > 0:
        r_t = trajectory_reward(hp.reward_scaling, n_step, n_poll)
    else:
        r_t = 0.0
    return Trajectory(transitions, cells, n_step, n_poll, r_t, capped)


def _apply_trajectory(q: list[float], traj: Trajectory, hp: Hyperparams) -> None:
    # Every-visit backup in trajectory order.  With a positive discount the
    # bootstrap target uses the state where the next decision was made.
    if hp.discount_rate == 0.0:
        for s, o in traj.transitions:
            mc_update(q, s, o, traj.r_t, hp.learning_rate)
        return
    states = [s for s, _ in traj.transitions]
    states.append(traj.cells[-1])
    for i, (s, o) in enumerate(traj.transitions):
        q_update(q, s, o, traj.r_t, states[i + 1], hp.learning_rate, hp.discount_rate)


def train_agent(hp: Hyperparams, seed: int) -> TrainReport:
    """Train a fresh table for hp.num_episodes episodes.

    Each episode spawns one cloud configuration, runs it
    hp.best_learn_value times (same clouds, fresh exploration noise), and
    learns only from the attempt with the highest trajectory return.
    Failed episodes (nothing found) never update the table, and no
    episode at or past stop_learn_value * num_episodes does either.  The
    table is kept flat, q[cell * 4 + d], and returned reshaped to (x, y, d).
    """
    import numpy as np
    rng = make_rng(seed)
    length = hp.grid_length
    q = [0.0] * (length * length * 4)
    records: list[EpisodeRecord] = []
    learn_until = update_window(hp)
    cap_exits = 0
    for episode in range(hp.num_episodes):
        epsilon = epsilon_at(episode, hp)
        spawned = spawn_clouds(hp.grid_length, hp.pollution_diameter, hp.num_clouds, rng)
        best: Trajectory | None = None
        for _ in range(hp.best_learn_value):
            traj = run_episode(q, hp, "train", rng, field=spawned, epsilon=epsilon)
            cap_exits += traj.capped
            if best is None or traj.r_t > best.r_t:
                best = traj
        if episode < learn_until and best.n_poll > 0:
            _apply_trajectory(q, best, hp)
        records.append(EpisodeRecord(episode, epsilon, best.n_step, best.n_poll, best.r_t))
    return TrainReport(records, np.reshape(q, (length, length, 4)), seed, hp, cap_exits)


def _demo_epsilon(episode: int, n_episodes: int) -> float:
    # Linear 1 -> 0 over the demo, passing 0.5 at the halfway episode.
    return max(0.0, 1.0 - episode / n_episodes)


def _demo_episode(q: list[float], hp: Hyperparams, levels: list[float], moves: tuple[int, ...],
                  epsilon: float, tape: WordTape) -> None:
    """One primitive-action learning episode for the plain Q-learning demos.

    The cloud field is a sensing landscape that stays in place for the
    whole episode: each step is rewarded with the intensity at the cell
    occupied after the action, plus a 100 find bonus the first time the
    agent stands on a cloud cell.  An episode always runs the full
    budget, and every attempted action consumes a step, wall bumps
    included, so greedy policies cannot stall the clock.

    Runs on the learners' layout: q is indexed cell * 4 + action, levels
    is the field's per-cell intensity (CloudField.levels), positive
    exactly on a cloud, and moves is option_terminals(grid_length, 1).  Its
    backup is q_update's on that layout, inline, and so are the tape's two
    draws: a step reads at most two words, random() < epsilon is
    w < WordTape.random_bound(epsilon), and integers(4) is a 32-bit draw's top two bits.

    A step reads each row of four values at most once:

    - a greedy step takes its row's first maximum by strict > compares,
      so ties go up, down, left, right, as max over the row's keys does;
    - with a positive discount, the scan of the entered cell's row that
      gives the bootstrap max also gives the next greedy key.  The update
      writes only the row of the cell the step started from, so that key
      still holds on the next step unless a wall bump kept the agent on
      that cell; then the next greedy step scans the row again, with the
      value just written;
    - with a zero discount the bootstrap is skipped, as q_update skips it.
    """
    length = hp.grid_length
    alpha, gamma = hp.learning_rate, hp.discount_rate
    explore = epsilon > 0.0
    if explore:
        tape.ensure(2 * hp.max_steps)
        bound = WordTape.random_bound(epsilon)
    words, pos, half = tape.words, tape.pos, tape.half
    cell = START[0] * length + START[1]
    greedy = -1  # the first-max key of cell's row when known, else -1
    found = False
    for _ in range(hp.max_steps):
        if explore and words[pos] < bound:
            key = cell * 4
            if half is None:
                pos += 1
                key += words[pos] >> 30 & 3
                half = words[pos] >> 32
            else:
                key += half >> 30
                half = None
        elif greedy >= 0:
            key = greedy
        else:
            row = key = cell * 4
            a, b, c, d = q[row:row + 4]
            if b > a:
                a = b
                key = row + 1
            if c > a:
                a = c
                key = row + 2
            if d > a:
                key = row + 3
        pos += 1  # the epsilon test's word; pos means nothing when not exploring
        after = moves[key]
        reward = levels[after]
        if not found and reward > 0.0:
            reward += 100.0
            found = True
        old = q[key]
        if gamma:
            row = greedy = after * 4
            a, b, c, d = q[row:row + 4]
            if b > a:
                a = b
                greedy = row + 1
            if c > a:
                a = c
                greedy = row + 2
            if d > a:
                a = d
                greedy = row + 3
            q[key] = old + alpha * (reward + gamma * a - old)
            if after == cell:
                greedy = -1
        else:
            q[key] = old + alpha * (reward - old)
        cell = after
    if explore:
        tape.pos, tape.half = pos, half


def _demo_route(q: list[float], hp: Hyperparams) -> PatternPath:
    """The demos' greedy route on the flat q: max_steps moves from START.

    Each move takes the first of the cell's largest values, as
    _demo_episode's greedy step does, and a wall bump stays in place, so
    cells[i] is where step i ends and lookups start at index 1.
    """
    length = hp.grid_length
    moves = option_terminals(length, 1)
    cell = START[0] * length + START[1]
    cells = [START]
    for _ in range(hp.max_steps):
        cell = moves[max(range(cell * 4, cell * 4 + 4), key=q.__getitem__)]
        cells.append(divmod(cell, length))
    return PatternPath(tuple(cells), "demo", first=1)


def _plain_q(hp: Hyperparams, tape: WordTape, n_episodes: int,
             snapshot_episodes: tuple[int, ...], fixed: CloudField | None):
    """The demos' training loop: per-step Q-learning on the fixed cloud, or
    on a cloud respawned every episode when fixed is None.

    Returns (flat q, {episode: max-Q-per-cell grid}); key 0 is the
    untrained table.
    """
    import numpy as np
    length = hp.grid_length
    q = [0.0] * (length * length * 4)
    moves = option_terminals(length, 1)
    snapshots: dict[int, np.ndarray] = {}

    def snapshot(episode):
        if episode in snapshot_episodes:
            snapshots[episode] = np.array(q).reshape(length, length, 4).max(axis=2)

    snapshot(0)
    for episode in range(n_episodes):
        field = fixed if fixed is not None else spawn_clouds(
            length, hp.pollution_diameter, 1, tape)
        _demo_episode(q, hp, field.levels, moves, _demo_epsilon(episode, n_episodes), tape)
        snapshot(episode + 1)
    return q, snapshots


def static_demo(hp: Hyperparams, seed: int, *, n_episodes: int = 2000,
                snapshot_episodes: tuple[int, ...] = (0, 500, 1000, 2000)):
    """Plain tabular Q-learning against one fixed cloud.

    Returns {episode: max-Q-per-cell grid} snapshots; key 0 is the
    untrained table.  The cloud is placed once at random and stays put
    across all episodes, with the find bonus rearmed each episode, so
    with a positive discount the values propagate back toward the start
    over training.
    """
    tape = make_rng(seed)
    fixed = spawn_clouds(hp.grid_length, hp.pollution_diameter, 1, tape)
    return _plain_q(hp, tape, n_episodes, snapshot_episodes, fixed)[1]


def dynamic_demo(hp: Hyperparams, seed: int, *, n_episodes: int = 2000,
                 snapshot_episodes: tuple[int, ...] = (0, 1, 500, 1000, 2000),
                 n_eval_episodes: int = 1000):
    """Plain tabular Q-learning with the cloud respawned every episode.

    Trains like static_demo but on a moving target, then evaluates the
    final greedy policy (no memory filter) over fresh single-cloud
    episodes, stopping each at its first find.  That policy reads no
    random source and moves the same way whatever the cloud, so its route
    is walked once and each cloud scored by its center's center_hits entry.
    Returns (snapshots, mean evaluation steps) with failed evaluation
    episodes counted as max_steps.
    """
    if n_eval_episodes < 1:
        raise ValueError("n_eval_episodes must be at least 1")
    q, snapshots = _plain_q(hp, make_rng(seed), n_episodes, snapshot_episodes, None)
    hits = center_hits(_demo_route(q, hp), hp.grid_length, hp.pollution_diameter,
                       hp.max_steps)
    centers = draw_centers(hp.grid_length, n_eval_episodes, make_rng(seed, stream=1))
    steps = budget_steps([hits[c] for c in centers], hp.max_steps)
    return snapshots, sum(steps) / n_eval_episodes

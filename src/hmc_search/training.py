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
from typing import get_type_hints

import numpy as np

from .baselines import PatternPath, first_hit
from .env import START, Cell, CloudField, WordTape, make_rng, spawn_clouds
from .policy import (
    QTable,
    QValues,
    execute_option,
    mc_update,
    new_qtable,
    option_stride,
    option_walks,
    q_update,
    record_visits,
    select_option,
)

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
    # A variant switch, not part of the JSON config surface.
    binary_memory: bool = False

    def __post_init__(self):
        for name in _TYPES:
            setattr(self, name, setting_value(name, getattr(self, name)))
        # Every integer setting counts something there must be at least one of.
        for name, kind in _TYPES.items():
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


# The settings a JSON config or a sweep may set, with their types; the bool
# variant switches are left out by their type.
_TYPES = get_type_hints(Hyperparams)
CONFIG_TYPES = {name: kind for name, kind in _TYPES.items() if kind is not bool}


def setting_value(name: str, value):
    """What setting name stores for value, or a ValueError naming it.

    Integer settings take whole numbers (stored as int), real settings any
    finite number (stored as float), switches a bool; a bool is no number.
    """
    kind = _TYPES[name]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float)):
        wanted = "true or false" if kind is bool else "a number"
        raise ValueError(f"{name} must be {wanted}, not {value!r}")
    if kind is bool:
        return value
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
    """One episode as seen by the learner."""

    transitions: list[tuple[Cell, int]]  # (state, option direction) per decision
    cells: list[Cell]  # start cell plus every cell entered, in order
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
    q: QTable
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


def run_episode(q: QValues, hp: Hyperparams, mode: str, rng: WordTape | None,
                *, field: CloudField | None = None,
                epsilon: float | None = None) -> Trajectory:
    """Run one option-level episode and return its trajectory.

    Every episode starts at START.  mode "train" is epsilon-soft with the
    given epsilon (default epsilon_start): each decision explores when a
    random() draw falls below epsilon, and epsilon 0 draws nothing; mode
    "eval" is pure greedy.
    The memory filter is active in both modes but starts from a fresh
    all-zero memory each episode and never touches q.  The
    episode ends on the collection that empties the field or when the
    primitive step budget is spent, so an empty field runs to the budget
    (or the decision cap, which sets the trajectory's capped flag).  A
    caller's field is left as it was: execute_option returns a new field
    rather than changing its argument.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if field is None:
        count = 1 if mode == "eval" else hp.num_clouds
        field = spawn_clouds(hp.grid_length, hp.pollution_diameter, count, rng)
    if epsilon is None:
        epsilon = hp.epsilon_start
    explore = mode == "train" and epsilon > 0.0
    max_steps = hp.max_steps
    stride = option_stride(hp.option_length)
    mem = [[0] * hp.grid_length for _ in range(hp.grid_length)]
    pos = START
    transitions: list[tuple[Cell, int]] = []
    cells: list[Cell] = [pos]
    n_step = 0
    n_poll = 0
    decisions = 0
    decision_cap = _DECISION_CAP_FACTOR * max_steps + 32
    capped = False
    while n_step < max_steps:
        if decisions == decision_cap:
            capped = True
            break
        decisions += 1
        pick = "explore" if explore and rng.random() < epsilon else "exploit"
        direction = select_option(q, mem, pos, hp, pick, rng)
        outcome, field = execute_option(field, pos, direction, stride, max_steps - n_step)
        transitions.append((pos, direction))
        record_visits(mem, outcome)
        cells.extend(outcome.path)
        n_step += outcome.primitive_steps
        n_poll += outcome.found_count
        pos = outcome.terminal
        if outcome.found_count and not field.clouds:
            break
    if n_poll > 0:
        r_t = trajectory_reward(hp.reward_scaling, n_step, n_poll)
    else:
        r_t = 0.0
    return Trajectory(transitions, cells, n_step, n_poll, r_t, capped)


def _apply_trajectory(q: QValues, traj: Trajectory, hp: Hyperparams) -> None:
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
    table is kept as rows q[x][y][d] while training and returned as a QTable.
    """
    rng = make_rng(seed)
    q = new_qtable(hp.grid_length).tolist()
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
    return TrainReport(records, np.array(q, dtype=np.float64), seed, hp, cap_exits)


def _demo_epsilon(episode: int, n_episodes: int) -> float:
    # Linear 1 -> 0 over the demo, passing 0.5 at the halfway episode.
    return max(0.0, 1.0 - episode / n_episodes)


def _demo_episode(q: list[float], hp: Hyperparams, levels: list[float],
                  epsilon: float, tape: WordTape) -> None:
    """One primitive-action learning episode for the plain Q-learning demos.

    The cloud field is a sensing landscape that stays in place for the
    whole episode: each step is rewarded with the intensity at the cell
    occupied after the action, plus a 100 find bonus the first time the
    agent stands on a cloud cell.  An episode always runs the full
    budget, and every attempted action consumes a step, wall bumps
    included, so greedy policies cannot stall the clock.

    Runs on flat state: q is indexed cell * 4 + action and levels is the
    field's per-cell intensity (CloudField.levels), positive exactly on a
    cloud; moves come from the stride-1 option_walks table.  The TD
    backup is q_update's, inline, and so are the tape's two draws: a step
    reads at most two words, random() < epsilon is (w >> 11) < epsilon *
    2**53, and integers(4) is a 32-bit draw's top two bits.
    """
    length = hp.grid_length
    alpha, gamma = hp.learning_rate, hp.discount_rate
    moves = option_walks(length, 1).paths
    explore = epsilon > 0.0
    if explore:
        tape.ensure(2 * hp.max_steps)
    words, pos, half = tape.words, tape.pos, tape.half
    cut = epsilon * 2**53
    cell = START[0] * length + START[1]
    found = False
    for _ in range(hp.max_steps):
        key = cell * 4
        if explore and words[pos] >> 11 < cut:
            if half is None:
                pos += 1
                key += words[pos] >> 30 & 3
                half = words[pos] >> 32
            else:
                key += half >> 30
                half = None
        else:
            best = q[key]
            for i in range(key + 1, key + 4):
                if q[i] > best:
                    best = q[i]
                    key = i
        pos += 1  # the epsilon test's word; pos means nothing when not exploring
        entered = moves[key]
        after = entered[0] if entered else cell
        reward = levels[after]
        if not found and reward > 0.0:
            reward += 100.0
            found = True
        old = q[key]
        base = after * 4
        target = reward + gamma * max(q[base], q[base + 1], q[base + 2], q[base + 3])
        q[key] = old + alpha * (target - old)
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
    moves = option_walks(length, 1).paths
    cell = START[0] * length + START[1]
    cells = [START]
    for _ in range(hp.max_steps):
        entered = moves[max(range(cell * 4, cell * 4 + 4), key=q.__getitem__)]
        cell = entered[0] if entered else cell
        cells.append(divmod(cell, length))
    return PatternPath(tuple(cells), "demo", first=1)


def _plain_q(hp: Hyperparams, tape: WordTape, n_episodes: int,
             snapshot_episodes: tuple[int, ...], fixed: CloudField | None):
    """The demos' training loop: per-step Q-learning on the fixed cloud, or
    on a cloud respawned every episode when fixed is None.

    Returns (flat q, {episode: max-Q-per-cell grid}); key 0 is the
    untrained table.
    """
    length = hp.grid_length
    q = [0.0] * (length * length * 4)
    snapshots: dict[int, np.ndarray] = {}

    def snapshot(episode):
        if episode in snapshot_episodes:
            snapshots[episode] = np.array(q).reshape(length, length, 4).max(axis=2)

    snapshot(0)
    for episode in range(n_episodes):
        field = fixed if fixed is not None else spawn_clouds(
            length, hp.pollution_diameter, 1, tape)
        _demo_episode(q, hp, field.levels, _demo_epsilon(episode, n_episodes), tape)
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
    is walked once and each cloud scored by first_hit.  Returns (snapshots,
    mean evaluation steps) with failed evaluation episodes counted as
    max_steps.
    """
    q, snapshots = _plain_q(hp, make_rng(seed), n_episodes, snapshot_episodes, None)
    route = _demo_route(q, hp)
    eval_tape = make_rng(seed, stream=1)
    total = 0
    for _ in range(n_eval_episodes):
        cloud = spawn_clouds(hp.grid_length, hp.pollution_diameter, 1, eval_tape).clouds[0]
        hit = first_hit(route, cloud)
        total += hp.max_steps if hit is None else hit
    return snapshots, total / n_eval_episodes

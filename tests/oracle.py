"""Reference episode loops for the property tests in test_kernel.py.

These are the episode loops and per-decision steps as they were written
before the walk table, the cloud masks and the flat lists: (x, y) cells,
(grid_length, grid_length, 4) value tables and visit-count arrays,
terminals by option_terminal arithmetic, collections by a scan of every
cloud's support, numpy scalar reads and writes, and the demos' per-step
calls of the public move and sense with a backup of their own.  Scoring
and stamping are here as they were before the per-center tables: a
first_hit per center, and masks and levels stamped from every cloud's
support.  They draw from numpy's own Generator, where the package reads
the same streams through a word tape.  The package must reproduce them
byte for byte.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from hmc_search.env import (
    DELTAS,
    START,
    CloudField,
    make_cloud,
    move,
    sense,
    spawn_clouds,
)
from hmc_search.baselines import PatternPath
from hmc_search.policy import option_stride, option_terminal
from hmc_search.training import (
    _DECISION_CAP_FACTOR,
    EpisodeRecord,
    Trajectory,
    epsilon_at,
    trajectory_reward,
    update_window,
)


def select_option(q, mem, s, hp, mode, rng):
    if mode == "explore":
        return int(rng.integers(4))
    if mode != "exploit":
        raise ValueError(f"unknown mode {mode!r}")
    length = mem.shape[0]
    span = option_stride(hp.option_length)
    row = q[s[0], s[1]]
    best_dir = 0
    best = -math.inf
    for d in range(4):
        visits = mem[option_terminal(s, d, span, length)]
        score = row[d] - hp.mof_value * visits
        if score > best:
            best = score
            best_dir = d
    return best_dir


def choose_option(q, mem, s, hp, epsilon, rng):
    if epsilon > 0.0 and rng.random() < epsilon:
        return select_option(q, mem, s, hp, "explore", rng)
    return select_option(q, mem, s, hp, "exploit", rng)


class Outcome(NamedTuple):
    """An option's outcome, as policy.OptionOutcome holds it, in (x, y) cells."""

    path: tuple
    primitive_steps: int
    found_count: int
    terminal: tuple
    clamped: bool


def execute_option(field, pos, direction, stride, steps_remaining):
    dx, dy = DELTAS[direction]
    limit = field.grid_length - 1
    clouds = list(field.clouds)
    x, y = pos
    path = []
    found = 0
    clamped = False
    for _ in range(min(stride, steps_remaining)):
        nx, ny = x + dx, y + dy
        if nx < 0 or nx > limit or ny < 0 or ny > limit:
            clamped = True
            break
        x, y = nx, ny
        path.append((x, y))
        hits = sum(1 for cloud in clouds if (x, y) in cloud.support)
        if hits:
            found += hits
            clouds = [c for c in clouds if (x, y) not in c.support]
            if not clouds:
                break
    outcome = Outcome(tuple(path), len(path), found, path[-1] if path else pos, clamped)
    return outcome, CloudField(clouds, field.grid_length)


def first_hit(path, cloud):
    """Index of the first path cell, from path.first on, in the cloud support.

    None on a miss, so that a miss stays distinct from a hit at any index.
    """
    support = cloud.support
    for index, cell in enumerate(path.cells[path.first:], path.first):
        if cell in support:
            return index
    return None


def center_hits(path, grid_length, diameter):
    return [first_hit(path, make_cloud(divmod(center, grid_length), diameter, grid_length))
            for center in range(grid_length * grid_length)]


def stamp(field):
    """(masks, levels) of field, stamped from the cloud supports."""
    length = field.grid_length
    masks = [0] * (length * length)
    levels = [0.0] * (length * length)
    for i, cloud in enumerate(field.clouds):
        for (x, y), level in cloud.support.items():
            masks[x * length + y] |= 1 << i
            levels[x * length + y] = max(levels[x * length + y], level)
    return masks, levels


def record_visits(mem, outcome):
    for cell in outcome.path:
        mem[cell] += 1
    if outcome.clamped:
        mem[outcome.terminal] += 1
    return mem


def mc_update(q, s, o, r_t, alpha):
    x, y = s
    q[x, y, o] += alpha * (r_t - q[x, y, o])


def td_update(q, s, o, r, s_next, alpha, gamma):
    x, y = s
    nx, ny = s_next
    target = r + gamma * q[nx, ny].max()
    q[x, y, o] += alpha * (target - q[x, y, o])


def run_episode(q, hp, mode, rng, *, field, epsilon=0.0):
    max_steps = hp.max_steps
    stride = option_stride(hp.option_length)
    mem = np.zeros((hp.grid_length, hp.grid_length), dtype=np.int64)
    pos = START
    transitions, cells = [], [pos]
    n_step = n_poll = decisions = 0
    emptied = False
    decision_cap = _DECISION_CAP_FACTOR * max_steps + 32
    while n_step < max_steps and decisions < decision_cap:
        decisions += 1
        if mode == "train":
            direction = choose_option(q, mem, pos, hp, epsilon, rng)
        else:
            direction = select_option(q, mem, pos, hp, "exploit", rng)
        outcome, field = execute_option(field, pos, direction, stride, max_steps - n_step)
        transitions.append((pos, direction))
        record_visits(mem, outcome)
        cells.extend(outcome.path)
        n_step += outcome.primitive_steps
        n_poll += outcome.found_count
        pos = outcome.terminal
        if outcome.found_count and not field.clouds:
            emptied = True
            break
    # Neither the last find nor the budget ended it: the decision cap did.
    capped = not emptied and n_step < max_steps
    r_t = trajectory_reward(hp.reward_scaling, n_step, n_poll) if n_poll else 0.0
    return Trajectory(transitions, cells, n_step, n_poll, r_t, capped)


def train_agent(hp, seed):
    """(q, records, decision-cap exits) of the trainer."""
    rng = np.random.default_rng((seed, 0))
    q = np.zeros((hp.grid_length, hp.grid_length, 4))
    records = []
    capped = 0
    for episode in range(hp.num_episodes):
        epsilon = epsilon_at(episode, hp)
        spawned = spawn_clouds(hp.grid_length, hp.pollution_diameter, hp.num_clouds, rng)
        best = None
        for _ in range(hp.best_learn_value):
            traj = run_episode(q, hp, "train", rng, field=spawned, epsilon=epsilon)
            capped += traj.capped
            if best is None or traj.r_t > best.r_t:
                best = traj
        if episode < update_window(hp) and best.n_poll > 0:
            if hp.discount_rate == 0.0:
                for s, o in best.transitions:
                    mc_update(q, s, o, best.r_t, hp.learning_rate)
            else:
                states = [s for s, _ in best.transitions] + [best.cells[-1]]
                for i, (s, o) in enumerate(best.transitions):
                    td_update(q, s, o, best.r_t, states[i + 1], hp.learning_rate,
                              hp.discount_rate)
        records.append(EpisodeRecord(episode, epsilon, best.n_step, best.n_poll, best.r_t))
    return q, records, capped


def agent_route(q, hp):
    traj = run_episode(q, hp, "eval", None, field=CloudField([], hp.grid_length))
    return PatternPath(tuple(traj.cells), "agent", first=1)


def _greedy_action(q, pos):
    row = q[pos[0], pos[1]]
    best = 0
    for d in range(1, 4):
        if row[d] > row[best]:
            best = d
    return best


def demo_episode(q, hp, field, epsilon, rng, learn):
    support = set()
    for cloud in field.clouds:
        support.update(cloud.support)
    pos = START
    found_at = None
    for step in range(hp.max_steps):
        if learn and epsilon > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(4))
        else:
            action = _greedy_action(q, pos)
        new_pos, _ = move(pos, action, hp.grid_length)
        reward = sense(field, new_pos)
        if found_at is None and new_pos in support:
            reward += 100.0
            found_at = step + 1
            if not learn:
                return found_at
        if learn:
            td_update(q, pos, action, reward, new_pos, hp.learning_rate, hp.discount_rate)
        pos = new_pos
    return found_at


def plain_q(hp, rng, n_episodes, snapshot_episodes, fixed):
    q = np.zeros((hp.grid_length, hp.grid_length, 4))
    snapshots = {}
    if 0 in snapshot_episodes:
        snapshots[0] = q.max(axis=2).copy()
    for episode in range(n_episodes):
        field = fixed if fixed is not None else spawn_clouds(
            hp.grid_length, hp.pollution_diameter, 1, rng)
        demo_episode(q, hp, field, max(0.0, 1.0 - episode / n_episodes), rng, learn=True)
        if episode + 1 in snapshot_episodes:
            snapshots[episode + 1] = q.max(axis=2).copy()
    return q, snapshots


def static_demo(hp, seed, n_episodes, snapshot_episodes):
    rng = np.random.default_rng((seed, 0))
    fixed = spawn_clouds(hp.grid_length, hp.pollution_diameter, 1, rng)
    return plain_q(hp, rng, n_episodes, snapshot_episodes, fixed)[1]


def dynamic_demo(hp, seed, n_episodes, snapshot_episodes, n_eval_episodes):
    rng = np.random.default_rng((seed, 0))
    q, snapshots = plain_q(hp, rng, n_episodes, snapshot_episodes, None)
    eval_rng = np.random.default_rng((seed, 1))
    total = 0
    for _ in range(n_eval_episodes):
        spawned = spawn_clouds(hp.grid_length, hp.pollution_diameter, 1, eval_rng)
        steps = demo_episode(q, hp, spawned, 0.0, eval_rng, learn=False)
        total += steps if steps is not None else hp.max_steps
    return snapshots, total / n_eval_episodes


def snapshot_bytes(snapshots: dict) -> bytes:
    return repr(sorted(snapshots)).encode() + b"".join(
        np.ascontiguousarray(snapshots[k]).tobytes() for k in sorted(snapshots))

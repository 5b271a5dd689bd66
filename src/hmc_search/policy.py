"""Action-value tables, fixed-direction options, and memory-filtered selection.

An option commits to one primitive move in a direction plus a fixed
number of repeats of that move, so a decision with option_length 3 walks
up to 4 cells.  The value table is indexed by (cell, direction).  During
greedy selection a visit-count memory is subtracted from the table
values (scaled by the filter strength) so already searched regions lose
out against fresh ones; the stored values themselves are never touched
by the filter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .env import DELTAS, DIRECTION_NAMES, Cell, CloudField, RandomSource

if TYPE_CHECKING:
    from .training import Hyperparams

QTable = np.ndarray  # shape (grid_length, grid_length, 4), float64
VisitMemory = np.ndarray  # shape (grid_length, grid_length), int64


def new_qtable(grid_length: int) -> QTable:
    return np.zeros((grid_length, grid_length, 4), dtype=np.float64)


def new_visit_memory(grid_length: int) -> VisitMemory:
    """Per-episode visit counts, all zero at episode start."""
    return np.zeros((grid_length, grid_length), dtype=np.int64)


def option_stride(option_length: int) -> int:
    """Primitive moves per decision: the first move plus the repeats."""
    if option_length < 1:
        raise ValueError("option_length must be at least 1")
    return option_length + 1


@dataclass
class OptionOutcome:
    """What actually happened while executing one option."""

    start: Cell
    direction: int
    path: list[Cell]  # cells entered, in order; excludes start
    primitive_steps: int
    found_count: int
    terminal: Cell
    clamped: bool


def q_update(q: QTable, s: Cell, o: int, r: float, s_next: Cell,
             alpha: float, gamma: float) -> QTable:
    """One temporal-difference backup on entry (s, o).  Mutates q in place."""
    if not math.isfinite(r):
        raise ValueError("reward must be finite")
    x, y = s
    nx, ny = s_next
    target = r + gamma * q[nx, ny].max()
    q[x, y, o] += alpha * (target - q[x, y, o])
    return q


def mc_update(q: QTable, s: Cell, o: int, r_t: float, alpha: float) -> QTable:
    """Monte Carlo backup toward the trajectory return.  Mutates q in place."""
    if not math.isfinite(r_t):
        raise ValueError("reward must be finite")
    x, y = s
    q[x, y, o] += alpha * (r_t - q[x, y, o])
    return q


def option_terminal(s: Cell, direction: int, stride: int, grid_length: int) -> Cell:
    """Terminal cell after stride clamped moves in a direction, by arithmetic."""
    dx, dy = DELTAS[direction]
    limit = grid_length - 1
    x = min(limit, max(0, s[0] + dx * stride))
    y = min(limit, max(0, s[1] + dy * stride))
    return (x, y)


def select_option(q: QTable, mem: VisitMemory, s: Cell, hp: Hyperparams,
                  mode: str, rng: RandomSource | None) -> int:
    """Pick a direction.

    explore: uniform over the four directions, memory ignored.
    exploit: argmax over q(s, o) - mof_value * mem(terminal(o)), where the
    terminal is a dry run of the full option stride with no cloud
    interaction.  Ties keep the first direction in up, down, left, right
    order.
    """
    if mode == "explore":
        return int(rng.integers(4))
    if mode != "exploit":
        raise ValueError(f"unknown mode {mode!r}")
    length = mem.shape[0]
    span = option_stride(hp.option_length)
    weight = hp.mof_value
    binary = hp.binary_memory
    row = q[s[0], s[1]]
    best_dir = 0
    best = -math.inf
    for d in range(4):
        visits = mem[option_terminal(s, d, span, length)]
        if binary and visits > 1:
            visits = 1
        score = row[d] - weight * visits
        if score > best:
            best = score
            best_dir = d
    return best_dir


def choose_option(q: QTable, mem: VisitMemory, s: Cell, hp: Hyperparams,
                  epsilon: float, rng: RandomSource) -> int:
    """Epsilon-soft wrapper: explore with probability epsilon, else exploit."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return select_option(q, mem, s, hp, "explore", rng)
    return select_option(q, mem, s, hp, "exploit", rng)


def execute_option(field: CloudField, pos: Cell, direction: int,
                   stride: int, steps_remaining: int):
    """Walk up to stride primitive steps in one direction.

    Callers executing a full option pass option_stride(option_length).
    Stops early when the budget runs out, when a move clamps at the
    border, or when a collection empties the field.  Collection happens
    on entering a cell; only successful moves count as primitive steps.
    Returns (OptionOutcome, updated CloudField).
    """
    dx, dy = DELTAS[direction]
    limit = field.grid_length - 1
    clouds = list(field.clouds)
    x, y = pos
    path: list[Cell] = []
    found = 0
    clamped = False
    for _ in range(min(stride, steps_remaining)):
        nx, ny = x + dx, y + dy
        if nx < 0 or nx > limit or ny < 0 or ny > limit:
            clamped = True
            break
        x, y = nx, ny
        path.append((x, y))
        hits = 0
        for cloud in clouds:
            if (x, y) in cloud.support:
                hits += 1
        if hits:
            found += hits
            clouds = [c for c in clouds if (x, y) not in c.support]
            if not clouds:
                break
    outcome = OptionOutcome(
        start=pos,
        direction=direction,
        path=path,
        primitive_steps=len(path),
        found_count=found,
        terminal=path[-1] if path else pos,
        clamped=clamped,
    )
    return outcome, CloudField(clouds, field.grid_length)


def record_visits(mem: VisitMemory, outcome: OptionOutcome) -> VisitMemory:
    """Count every cell the option entered; a clamped terminal counts once more."""
    for cell in outcome.path:
        mem[cell] += 1
    if outcome.clamped:
        mem[outcome.terminal] += 1
    return mem


def write_qtable_csv(path, q: QTable) -> None:
    with open(path, "w", newline="") as handle:
        handle.write("x,y,direction,value\n")
        for x, plane in enumerate(q.tolist()):
            for y, row in enumerate(plane):
                for name, value in zip(DIRECTION_NAMES, row):
                    handle.write(f"{x},{y},{name},{format(value, '.6g')}\n")


def read_qtable_csv(path) -> QTable:
    """Load a table written by write_qtable_csv.

    Raises ValueError unless every (x, y, direction) row of a square grid
    appears exactly once, with a known direction and a finite value.
    """
    index = {name: i for i, name in enumerate(DIRECTION_NAMES)}
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if header != "x,y,direction,value":
            raise ValueError(f"unexpected qtable header {header!r}")
        rows = [line.strip() for line in handle if line.strip()]
    length = math.isqrt(len(rows) // 4)
    if length < 1 or 4 * length * length != len(rows):
        raise ValueError(f"{len(rows)} rows are not 4 per cell of a square grid")
    q = np.full((length, length, 4), math.nan)
    for line in rows:
        try:
            x, y, name, value = line.split(",")
            key = (int(x), int(y), index[name])
            value = float(value)
        except (ValueError, KeyError):
            raise ValueError(f"malformed row {line!r}") from None
        if not (0 <= key[0] < length and 0 <= key[1] < length):
            raise ValueError(f"row {line!r} lies outside a {length}-cell grid")
        if not math.isfinite(value):
            raise ValueError(f"row {line!r} has a non-finite value")
        if not math.isnan(q[key]):
            raise ValueError(f"row {line!r} repeats an (x, y, direction)")
        q[key] = value
    return q

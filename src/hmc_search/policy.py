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
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .env import DELTAS, DIRECTION_NAMES, Cell, CloudField, WordTape, move

if TYPE_CHECKING:
    from .training import Hyperparams

QTable = np.ndarray  # shape (grid_length, grid_length, 4), float64
# Action values, read and written as q[x][y][d]: a QTable, or the nested lists
# train_agent keeps because list items are cheaper than numpy scalars.
QValues = QTable | list[list[list[float]]]
# Visit counts, read and written as mem[x][y]: new_visit_memory's int64
# array, or the nested lists run_episode keeps because list items are cheaper.
VisitMemory = np.ndarray | list[list[int]]


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


@dataclass(frozen=True, slots=True)
class OptionOutcome:
    """What actually happened while executing one option.

    Frozen, because the walk table hands one outcome to every free walk.
    """

    start: Cell
    direction: int
    path: tuple[Cell, ...]  # cells entered, in order; excludes start
    primitive_steps: int
    found_count: int
    terminal: Cell
    clamped: bool


def q_update(q: QValues, s: Cell, o: int, r: float, s_next: Cell,
             alpha: float, gamma: float) -> QValues:
    """One temporal-difference backup on entry (s, o).  Mutates q in place."""
    if not math.isfinite(r):
        raise ValueError("reward must be finite")
    x, y = s
    nx, ny = s_next
    row = q[x][y]
    old = row[o]
    target = r + gamma * max(q[nx][ny])
    row[o] = old + alpha * (target - old)
    return q


def mc_update(q: QValues, s: Cell, o: int, r_t: float, alpha: float) -> QValues:
    """Monte Carlo backup toward the trajectory return.  Mutates q in place."""
    if not math.isfinite(r_t):
        raise ValueError("reward must be finite")
    x, y = s
    row = q[x][y]
    old = row[o]
    row[o] = old + alpha * (r_t - old)
    return q


def option_terminal(s: Cell, direction: int, stride: int, grid_length: int) -> Cell:
    """Terminal cell after stride clamped moves in a direction, by arithmetic."""
    dx, dy = DELTAS[direction]
    limit = grid_length - 1
    x = min(limit, max(0, s[0] + dx * stride))
    y = min(limit, max(0, s[1] + dy * stride))
    return (x, y)


class OptionWalks(NamedTuple):
    """Every option walk of one grid, indexed by cell * 4 + direction.

    A cell is the int x * grid_length + y.  paths[i] holds the cells the
    full stride enters before the border stops it, outcomes[i] is the
    OptionOutcome of that walk on a field it misses (its path holds the
    same cells as (x, y)), and terminal[i] is the option_terminal (x, y).
    """

    paths: tuple[tuple[int, ...], ...]
    outcomes: tuple[OptionOutcome, ...]
    terminal: tuple[Cell, ...]


@lru_cache(maxsize=8)
def option_walks(grid_length: int, stride: int) -> OptionWalks:
    """The walk table of (grid_length, stride), built by move on first use.

    The one walk geometry: options read it, and with stride 1 it is the
    primitive move table of the plain Q-learning demos.
    """
    coords = [(x, y) for x in range(grid_length) for y in range(grid_length)]
    paths, outcomes, terminal = [], [], []
    for start in coords:
        for d in range(4):
            pos, cells = start, []
            for _ in range(stride):
                pos, moved = move(pos, d, grid_length)
                if not moved:
                    break
                cells.append(pos[0] * grid_length + pos[1])
            paths.append(tuple(cells))
            tx, ty = option_terminal(start, d, stride, grid_length)
            terminal.append(coords[tx * grid_length + ty])
            outcomes.append(OptionOutcome(start, d, tuple(coords[cell] for cell in cells),
                                          len(cells), 0, terminal[-1], len(cells) < stride))
    # Tuples and frozen outcomes, because every caller shares the cached table.
    return OptionWalks(tuple(paths), tuple(outcomes), tuple(terminal))


def select_option(q: QValues, mem: VisitMemory, s: Cell, hp: Hyperparams,
                  mode: str, rng: WordTape | None) -> int:
    """Pick a direction.

    explore: uniform over the four directions, memory ignored.
    exploit: argmax over q(s, o) - mof_value * mem(terminal(o)), where the
    terminal is a dry run of the full option stride with no cloud
    interaction.  Ties keep the first direction in up, down, left, right
    order.
    """
    if mode == "explore":
        return rng.integers(4)
    if mode != "exploit":
        raise ValueError(f"unknown mode {mode!r}")
    length = len(mem)
    # option_stride's count; Hyperparams holds option_length >= 1.
    terminal = option_walks(length, hp.option_length + 1).terminal
    weight = hp.mof_value
    binary = hp.binary_memory
    x, y = s
    base = (x * length + y) * 4
    row = q[x][y]
    best_dir = 0
    best = -math.inf
    for d in range(4):
        tx, ty = terminal[base + d]
        visits = mem[tx][ty]
        if binary and visits > 1:
            visits = 1
        score = row[d] - weight * visits
        if score > best:
            best = score
            best_dir = d
    return best_dir


def execute_option(field: CloudField, pos: Cell, direction: int,
                   stride: int, steps_remaining: int):
    """Walk up to stride primitive steps in one direction.

    Callers executing a full option pass option_stride(option_length).
    Stops early when the budget runs out, when a move clamps at the
    border, or when a collection empties the field.  Collection happens
    on entering a cell; only successful moves count as primitive steps.
    Returns (OptionOutcome, field after the collections): the field itself
    when nothing was collected, else a new one.  A full walk that enters no
    cloud returns the walk table's shared outcome.
    """
    length = field.grid_length
    walks = option_walks(length, stride)
    key = (pos[0] * length + pos[1]) * 4 + direction
    walk = walks.paths[key]
    n = len(walk)
    masks = field.masks
    if steps_remaining > n:
        # Most options enter no cloud; only a walk that does is counted cell by cell.
        if not any(map(masks.__getitem__, walk)):
            return walks.outcomes[key], field
        clamped = n < stride
    else:
        n, clamped = max(0, steps_remaining), False
        walk = walk[:n]
    found = 0
    alive = everything = (1 << len(field.clouds)) - 1
    for entered, cell in enumerate(walk, 1):
        hit = masks[cell] & alive
        if hit:
            found += hit.bit_count()
            alive &= ~hit
            if not alive:
                n, clamped = entered, False
                break
    if alive != everything:
        field = CloudField([c for i, c in enumerate(field.clouds) if alive >> i & 1], length)
    path = walks.outcomes[key].path[:n]
    terminal = path[-1] if path else pos
    return OptionOutcome(pos, direction, path, n, found, terminal, clamped), field


def record_visits(mem: VisitMemory, outcome: OptionOutcome) -> VisitMemory:
    """Count every cell the option entered; a clamped terminal counts once more."""
    for x, y in outcome.path:
        mem[x][y] += 1
    if outcome.clamped:
        x, y = outcome.terminal
        mem[x][y] += 1
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

"""Action-value tables, fixed-direction options, and memory-filtered selection.

An option commits to one primitive move in a direction plus a fixed
number of repeats of that move, so a decision with option_length 3 walks
up to 4 cells.  The value table is indexed by (cell, direction).  During
greedy selection a visit-count memory is subtracted from the table
values (scaled by the filter strength) so already searched regions lose
out against fresh ones; the stored values themselves are never touched
by the filter.

Inside the learners a cell is the int x * grid_length + y, the values a
flat list q[cell * 4 + d] and the visit counts a flat list mem[cell], as
list items are cheaper than numpy scalars; a trained table's form at the
API and in its CSV is a (grid_length, grid_length, 4) float64 array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .env import DELTAS, DIRECTION_NAMES, Cell, CloudField, WordTape, move

if TYPE_CHECKING:
    import numpy as np

    from .training import Hyperparams


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

    path: tuple[int, ...]  # cells entered, in order; excludes the start
    primitive_steps: int
    found_count: int
    terminal: int
    clamped: bool


def q_update(q: list[float], s: int, o: int, r: float, s_next: int,
             alpha: float, gamma: float) -> list[float]:
    """One temporal-difference backup on entry (s, o).  Mutates q in place.

    A zero discount reads no bootstrap row: for a finite row,
    old + alpha * (r + 0.0 * max - old) equals old + alpha * (r - old) bit
    for bit, -0.0 included, which is mc_update's backup toward r.
    """
    if not math.isfinite(r):
        raise ValueError("reward must be finite")
    key = s * 4 + o
    old = q[key]
    if gamma:
        row = s_next * 4
        r += gamma * max(q[row:row + 4])
    q[key] = old + alpha * (r - old)
    return q


def mc_update(q: list[float], s: int, o: int, r_t: float, alpha: float) -> list[float]:
    """Monte Carlo backup toward the trajectory return.  Mutates q in place."""
    if not math.isfinite(r_t):
        raise ValueError("reward must be finite")
    key = s * 4 + o
    old = q[key]
    q[key] = old + alpha * (r_t - old)
    return q


def option_terminal(s: Cell, direction: int, stride: int, grid_length: int) -> Cell:
    """Terminal cell after stride clamped moves in a direction, by arithmetic."""
    dx, dy = DELTAS[direction]
    limit = grid_length - 1
    x = min(limit, max(0, s[0] + dx * stride))
    y = min(limit, max(0, s[1] + dy * stride))
    return (x, y)


@lru_cache(maxsize=8)
def option_walks(grid_length: int, stride: int) -> tuple[OptionOutcome, ...]:
    """Every option walk of one grid, indexed by cell * 4 + direction.

    Entry i is the OptionOutcome of the full stride on a field it misses:
    the cells it enters before the border stops it and the cell it ends
    on.  The one walk geometry, built by move on first use: options read
    it, and with stride 1 it is the primitive move table of the plain
    Q-learning demos.
    """
    walks = []
    for x in range(grid_length):
        for y in range(grid_length):
            for d in range(4):
                pos, cells = (x, y), []
                for _ in range(stride):
                    pos, moved = move(pos, d, grid_length)
                    if not moved:
                        break
                    cells.append(pos[0] * grid_length + pos[1])
                # pos is where the walk stopped: its last cell, or the start.
                walks.append(OptionOutcome(tuple(cells), len(cells), 0,
                                           pos[0] * grid_length + pos[1], len(cells) < stride))
    # A tuple of frozen outcomes, because every caller shares the cached table.
    return tuple(walks)


@lru_cache(maxsize=8)
def option_terminals(grid_length: int, stride: int) -> tuple[int, ...]:
    """option_walks' terminal cells, indexed by cell * 4 + direction."""
    return tuple(walk.terminal for walk in option_walks(grid_length, stride))


def select_option(q: list[float], mem: list[int], s: int, hp: Hyperparams,
                  mode: str, rng: WordTape | None) -> int:
    """Pick a direction.

    explore: uniform over the four directions, memory ignored; the tape's
    integers(4), read inline, as Lemire's method never redraws for 4.
    exploit: argmax over q(s, o) - mof_value * mem(terminal(o)), where the
    terminal is a dry run of the full option stride with no cloud
    interaction.  Ties keep the first direction in up, down, left, right
    order, and a NaN score never wins.
    """
    if mode == "explore":
        half = rng.half
        if half is None:  # a new word: its low half's top bits, the high half buffered
            try:
                word = rng.words[rng.pos]
            except IndexError:
                rng.ensure(1)
                word = rng.words[rng.pos]
            rng.pos += 1
            rng.half = word >> 32
            return word >> 30 & 3
        rng.half = None
        return half >> 30
    if mode != "exploit":
        raise ValueError(f"unknown mode {mode!r}")
    # option_stride's count; Hyperparams holds option_length >= 1.
    ends = option_terminals(hp.grid_length, hp.option_length + 1)
    key = s * 4
    up, down, left, right = (mem[ends[key]], mem[ends[key + 1]],
                             mem[ends[key + 2]], mem[ends[key + 3]])
    weight = hp.mof_value
    best, pick = -math.inf, 0
    if (score := q[key] - weight * up) > best:
        best = score
    if (score := q[key + 1] - weight * down) > best:
        best, pick = score, 1
    if (score := q[key + 2] - weight * left) > best:
        best, pick = score, 2
    if q[key + 3] - weight * right > best:
        pick = 3
    return pick


def execute_option(field: CloudField, alive: int, pos: int, direction: int,
                   stride: int, steps_remaining: int) -> tuple[OptionOutcome, int]:
    """Walk up to stride primitive steps in one direction.

    Callers executing a full option pass option_stride(option_length).
    Bit i of alive is set while field.clouds[i] is still to be found.
    Stops early when the budget runs out, when a move clamps at the
    border, or when a collection clears the last bit.  Collection happens
    on entering a cell; only successful moves count as primitive steps.
    Returns (OptionOutcome, alive after the collections).  A full walk that
    enters no live cloud returns the walk table's shared outcome.
    """
    free = option_walks(field.grid_length, stride)[pos * 4 + direction]
    walk = free.path
    n = len(walk)
    masks = field.masks
    if steps_remaining > n:
        # Most options enter no live cloud; only a walk that does is counted cell by cell.
        for cell in walk:
            if masks[cell] & alive:
                break
        else:
            return free, alive
        clamped = free.clamped
    else:
        n, clamped = max(0, steps_remaining), False
        walk = walk[:n]
    found = 0
    for entered, cell in enumerate(walk, 1):
        hit = masks[cell] & alive
        if hit:
            found += hit.bit_count()
            alive &= ~hit
            if not alive:
                n, clamped = entered, False
                break
    path = walk[:n]
    return OptionOutcome(path, n, found, path[-1] if path else pos, clamped), alive


def record_visits(mem: list[int], outcome: OptionOutcome) -> list[int]:
    """Count every cell the option entered; a clamped terminal counts once more."""
    for cell in outcome.path:
        mem[cell] += 1
    if outcome.clamped:
        mem[outcome.terminal] += 1
    return mem


def write_qtable_csv(path, q: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        handle.write("x,y,direction,value\n")
        for x, plane in enumerate(q.tolist()):
            for y, row in enumerate(plane):
                for name, value in zip(DIRECTION_NAMES, row):
                    handle.write(f"{x},{y},{name},{format(value, '.6g')}\n")


def read_qtable_csv(path) -> np.ndarray:
    """Load a table written by write_qtable_csv.

    Raises ValueError unless every (x, y, direction) row of a square grid
    appears exactly once, with a known direction and a finite value.
    """
    import numpy as np
    index = {name: i for i, name in enumerate(DIRECTION_NAMES)}
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if header != "x,y,direction,value":
            raise ValueError(f"unexpected qtable header {header!r}")
        rows = [line.strip() for line in handle if line.strip()]
    length = math.isqrt(len(rows) // 4)
    if length < 1 or 4 * length * length != len(rows):
        raise ValueError(f"{len(rows)} rows are not 4 per cell of a square grid")
    values: list[float | None] = [None] * (4 * length * length)
    for line in rows:
        try:
            x, y, name, value = line.split(",")
            x, y, d = int(x), int(y), index[name]
            value = float(value)
        except (ValueError, KeyError):
            raise ValueError(f"malformed row {line!r}") from None
        if not (0 <= x < length and 0 <= y < length):
            raise ValueError(f"row {line!r} lies outside a {length}-cell grid")
        if not math.isfinite(value):
            raise ValueError(f"row {line!r} has a non-finite value")
        key = (x * length + y) * 4 + d
        if values[key] is not None:
            raise ValueError(f"row {line!r} repeats an (x, y, direction)")
        values[key] = value
    return np.array(values, dtype=np.float64).reshape(length, length, 4)

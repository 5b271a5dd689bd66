"""Action-value tables, fixed-direction options, and memory-filtered selection.

An option commits to one primitive move in a direction plus a fixed
number of repeats of that move, so a decision with option_length 3 walks
up to 4 cells.  The value table is indexed by (cell, direction).  During
greedy selection a visit-count memory is subtracted from the table
values (scaled by the filter strength) so already searched regions lose
out against fresh ones; the stored values themselves are never touched
by the filter.

A cell is the int x * grid_length + y.  The option learner's value
table is the flat q[cell * 4 + d], a list inside its loop and an
array("d") of float64 at the API and in the CSV; the visit counts are a
flat list mem[cell].  The plain Q-learning demos keep their own table,
one list of four values per cell, which never leaves training.py.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .env import DELTAS, DIRECTION_NAMES, Cell, WordTape, move


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


def q_update(q: list[float], transitions: list[tuple[int, int]], r: float, final: int,
             alpha: float, gamma: float) -> list[float]:
    """TD backups of a trajectory's (state, direction) transitions, in order, in place.

    Entry i bootstraps from the state of transition i + 1, the last from
    final; r is checked once, before the first write.  A zero discount reads
    no bootstrap row: for a finite row, old + alpha * (r + 0.0 * max - old)
    equals old + alpha * (r - old) bit for bit, -0.0 included: mc_update's rule.
    """
    if not math.isfinite(r):
        raise ValueError("reward must be finite")
    for (s, o), after in zip(transitions, [s for s, _ in transitions[1:]] + [final]):
        key = s * 4 + o
        old = q[key]
        target = r + gamma * max(q[after * 4:after * 4 + 4]) if gamma else r
        q[key] = old + alpha * (target - old)
    return q


def mc_update(q: list[float], transitions: list[tuple[int, int]], r_t: float,
              alpha: float) -> list[float]:
    """Monte Carlo backups of a trajectory's transitions toward its return r_t,
    in order, in place; r_t is checked once, before the first write."""
    if not math.isfinite(r_t):
        raise ValueError("reward must be finite")
    for s, o in transitions:
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


def select_option(q: list[float], mem: list[int], s: int, ends: tuple[int, ...],
                  mode: str, rng: WordTape | None, weight: float) -> int:
    """Pick a direction.

    ends is option_terminals(grid_length, stride) and weight the filter
    strength mof_value, both looked up once per episode by run_episode.
    explore: uniform over the four directions, memory ignored; the tape's
    integers(4), read inline, as Lemire's method never redraws for 4.
    exploit: argmax over q(s, o) - weight * mem(terminal(o)), where the
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
    key = s * 4
    up, down, left, right = (mem[ends[key]], mem[ends[key + 1]],
                             mem[ends[key + 2]], mem[ends[key + 3]])
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


def execute_option(masks: list[int], alive: int, pos: int, walk: OptionOutcome,
                   steps_remaining: int) -> tuple[OptionOutcome, int]:
    """Walk the option walk from pos as far as the field and budget allow.

    walk is the walk table's entry option_walks(grid_length, stride)[pos *
    4 + direction], and masks the field's CloudField.masks: bit i of masks[cell]
    is set where cloud i lies, and bit i of alive while it is still to be
    found.  Stops early when the budget runs out, when a move clamps at the
    border, or when a collection clears the last bit.  Collection happens
    on entering a cell; only successful moves count as primitive steps.
    Returns (OptionOutcome, alive after the collections).  A full walk that
    enters no live cloud returns walk itself.
    """
    path = walk.path
    n = walk.primitive_steps
    if steps_remaining > n:
        # Most options enter no live cloud; only a walk that does is counted cell by cell.
        for cell in path:
            if masks[cell] & alive:
                break
        else:
            return walk, alive
        clamped = walk.clamped
    else:
        n, clamped = max(0, steps_remaining), False
        path = path[:n]
    found = 0
    for entered, cell in enumerate(path, 1):
        hit = masks[cell] & alive
        if hit:
            found += hit.bit_count()
            alive &= ~hit
            if not alive:
                n, clamped = entered, False
                break
    path = path[:n]
    return OptionOutcome(path, n, found, path[-1] if path else pos, clamped), alive


def record_visits(mem: list[int], outcome: OptionOutcome) -> list[int]:
    """Count every cell the option entered; a clamped terminal counts once more."""
    for cell in outcome.path:
        mem[cell] += 1
    if outcome.clamped:
        mem[outcome.terminal] += 1
    return mem


@lru_cache(maxsize=8)
def row_heads(grid_length: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The CSV head "x,y,direction" of every key cell * 4 + d, in key order, and the dict
    back to the key; built from the grid's cell texts on first use, never at import."""
    cells = [f"{x},{y}," for x in range(grid_length) for y in range(grid_length)]
    heads = tuple(cell + name for cell in cells for name in DIRECTION_NAMES)
    return heads, {head: key for key, head in enumerate(heads)}


def _grid_length(count: int, what: str) -> int:
    """The side of the square grid that has 4 of count entries per cell; else ValueError."""
    length = math.isqrt(count // 4)
    if length < 1 or 4 * length * length != count:
        raise ValueError(f"{count} {what} are not 4 per cell of a square grid")
    return length


def write_qtable_csv(path, q) -> None:
    """Write the flat table q[cell * 4 + d] of a square grid, every value a row, in key
    order.  A table of another length raises read_qtable_csv's ValueError, writing no file."""
    heads = row_heads(_grid_length(len(q), "values"))[0]
    rows = [f"{head},{value:.6g}\n" for head, value in zip(heads, q)]
    with open(path, "w", newline="") as handle:
        handle.write("".join(["x,y,direction,value\n", *rows]))


def read_qtable_csv(path) -> array:
    """Load a table written by write_qtable_csv as the flat array("d") q[cell * 4 + d].

    Raises ValueError unless every (x, y, direction) row of a square grid
    appears exactly once, with a known direction and a finite value.  Each row's head
    is looked up in row_heads; a head the writer never writes is parsed field by field.
    """
    index = {name: i for i, name in enumerate(DIRECTION_NAMES)}
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if header != "x,y,direction,value":
            raise ValueError(f"unexpected qtable header {header!r}")
        rows = [line for line in map(str.strip, handle) if line]
    length = _grid_length(len(rows), "rows")
    keys = row_heads(length)[1]
    values: list[float | None] = [None] * (4 * length * length)
    for line in rows:
        head, _, value = line.rpartition(",")
        key = keys.get(head)
        try:
            if key is None:  # parse every field, the value too, before the range check
                x, y, name, value = line.split(",")
                x, y, d = int(x), int(y), index[name]
                key = (x * length + y) * 4 + d if 0 <= x < length and 0 <= y < length else -1
            value = float(value)
        except (ValueError, KeyError):
            raise ValueError(f"malformed row {line!r}") from None
        if key < 0:
            raise ValueError(f"row {line!r} lies outside a {length}-cell grid")
        if not math.isfinite(value):
            raise ValueError(f"row {line!r} has a non-finite value")
        if values[key] is not None:
            raise ValueError(f"row {line!r} repeats an (x, y, direction)")
        values[key] = value
    return array("d", values)

"""Deterministic exhaustive search patterns and their step counts.

Both patterns start at env.START, the top-left corner where the agent starts,
and are spaced so that no cloud disc fits between two passes: a cloud is
detected once any path cell lies within diameter / 2 of its center.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .env import START, Cell, Cloud, cloud_row


@dataclass(frozen=True)
class PatternPath:
    """A fixed search route: in-grid cells, start included, each 4-adjacent
    to the one before (a plain Q-learning demo's route also stays in place
    where it bumps a wall).

    first is the first index that can find a cloud: 0 for a pattern, 1 for
    the greedy agent, which collects a cloud only on entering a cell.
    """

    cells: tuple[Cell, ...]
    kind: str
    first: int = 0


def _extend(cells: list[Cell], x: int, y: int) -> None:
    # Append the straight run of cells from cells[-1] to (x, y), exclusive
    # of the current endpoint.  Axis-aligned targets only.
    cx, cy = cells[-1]
    if cx != x and cy != y:
        raise ValueError("diagonal segment")
    step_x = (x > cx) - (x < cx)
    step_y = (y > cy) - (y < cy)
    while (cx, cy) != (x, y):
        cx += step_x
        cy += step_y
        cells.append((cx, cy))


def sweep_rows(grid_length: int, diameter: int) -> list[int]:
    """Rows the serpentine sweeps, first at the top border, spaced diameter.

    A final row at the bottom border is appended when the natural spacing
    would leave the bottom band wider than the detection reach.
    """
    if diameter > grid_length:
        raise ValueError("diameter exceeds grid_length")
    reach = diameter // 2
    rows = list(range(0, grid_length, diameter))
    if rows[-1] < grid_length - 1 - reach:
        rows.append(grid_length - 1)
    return rows


def snake_path(grid_length: int, diameter: int) -> PatternPath:
    """Serpentine sweep: alternate full-width rows, connected at the edges."""
    rows = sweep_rows(grid_length, diameter)
    cells: list[Cell] = [START]
    for row in rows:
        x, _ = cells[-1]
        _extend(cells, x, row)
        _extend(cells, grid_length - 1 - x, row)
    return PatternPath(tuple(cells), "snake")


def ring_spacing(diameter: int) -> int:
    """Largest inward ring spacing that leaves no diagonal corner gap.

    Between two square rings the worst-off cell sits just past the outer
    ring's corner, reach + 1 cells along both axes; it must still be
    within diameter / 2 of the inner ring's corner, which caps the
    spacing at reach + 1 + diameter / (2 * sqrt(2)).
    """
    reach = diameter // 2
    cap = reach + 1 + int(diameter / (2.0 * math.sqrt(2)) + 1e-12)
    return max(1, min(diameter, cap))


def ring_insets(grid_length: int, diameter: int) -> list[int]:
    """Insets of the concentric square rings, outermost (the border) first.

    A tighter final ring is appended when the region inside the last
    natural ring would be deeper than the detection reach.
    """
    if diameter > grid_length:
        raise ValueError("diameter exceeds grid_length")
    reach = diameter // 2
    spacing = ring_spacing(diameter)
    insets = [0]
    while grid_length - 2 * (insets[-1] + spacing) >= 1:
        insets.append(insets[-1] + spacing)
    if (grid_length - 1 - 2 * insets[-1]) // 2 > reach:
        insets.append((grid_length - 1 - 2 * reach) // 2)
    return insets


def _ring(cells: list[Cell], inset: int, grid_length: int) -> None:
    # Clockwise perimeter of the square ring at the given inset, starting
    # and ending next to its top-left corner, which must be cells[-1].
    low, high = inset, grid_length - 1 - inset
    if low == high:
        return
    _extend(cells, high, low)
    _extend(cells, high, high)
    _extend(cells, low, high)
    _extend(cells, low, low + 1)


def spiral_path(grid_length: int, diameter: int) -> PatternPath:
    """Concentric inward rings joined by straight bridges, center last."""
    insets = ring_insets(grid_length, diameter)
    cells: list[Cell] = [START]
    _ring(cells, 0, grid_length)
    for inset in insets[1:]:
        # Bridge from the previous ring's endpoint to the next top-left corner.
        _, y = cells[-1]
        _extend(cells, inset, y)
        _extend(cells, inset, inset)
        _ring(cells, inset, grid_length)
    return PatternPath(tuple(cells), "spiral")


def center_hits(path: PatternPath, grid_length: int, diameter: int,
                max_steps: int) -> list[int | None]:
    """The first path index, from path.first up to max_steps, that lies in
    the cloud centered on each cell c = x * grid_length + y; None on a miss.

    The disc is symmetric, so the clouds that cover a cell are centered on
    its env.cloud_row cells.  One pass finds each distinct cell's first
    index; their rows are then written latest first, so each center keeps
    the last index written, its first hit, and each row is read once.
    """
    first: dict[Cell, int] = {}
    for index in range(path.first, min(len(path.cells), max_steps + 1)):
        first.setdefault(path.cells[index], index)
    hits: list[int | None] = [None] * (grid_length * grid_length)
    for (x, y), index in reversed(first.items()):
        for center in cloud_row(grid_length, diameter, x * grid_length + y)[0]:
            hits[center] = index
    return hits


def budget_steps(hits, max_steps: int) -> list[int]:
    """steps_to_find from center_hits: a miss scores max_steps."""
    return [max_steps if hit is None else hit for hit in hits]


def steps_to_find(path: PatternPath, cloud: Cloud, max_steps: int) -> int:
    """Moves from the start until the path, from path.first on, first
    touches the cloud support: the per-cloud reference for center_hits.

    A pattern's start cell is index 0, so a cloud covering it costs zero
    moves.  The count is capped at max_steps, the budget every searcher is
    held to, so a miss and a hit past the budget both score max_steps.
    """
    support = cloud.support
    for index, cell in enumerate(path.cells[path.first:], path.first):
        if cell in support:
            return min(index, max_steps)
    return max_steps

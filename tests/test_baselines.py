"""Tests for the deterministic search patterns and their step accounting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt

from hmc_search.baselines import (
    PatternPath,
    first_hit,
    ring_insets,
    ring_spacing,
    snake_path,
    spiral_path,
    steps_to_find,
    sweep_rows,
    write_path_csv,
)
from hmc_search.env import START, make_cloud
from hmc_search.training import Hyperparams

BUDGET = Hyperparams().max_steps


def all_steps(pattern, grid_length=20, diameter=5):
    return [steps_to_find(pattern, make_cloud((x, y), diameter, grid_length), BUDGET)
            for x in range(grid_length) for y in range(grid_length)]


def assert_valid_route(pattern, grid_length):
    assert pattern.cells[0] == START
    for (x, y) in pattern.cells:
        assert 0 <= x < grid_length and 0 <= y < grid_length
    for (x0, y0), (x1, y1) in zip(pattern.cells, pattern.cells[1:]):
        assert abs(x1 - x0) + abs(y1 - y0) == 1


def test_sweep_rows_standard_grid():
    assert sweep_rows(20, 5) == [0, 5, 10, 15, 19]


def test_sweep_rows_appends_bottom_row_only_when_needed():
    # d=7 leaves rows [0, 7, 14]; the band under row 14 is deeper than
    # the reach of 3, so the bottom border row is added.
    assert sweep_rows(20, 7) == [0, 7, 14, 19]
    # d=5 on an 11-grid ends at row 10, already the bottom border.
    assert sweep_rows(11, 5) == [0, 5, 10]


def test_sweep_rows_rejects_oversized_diameter():
    with pytest.raises(ValueError):
        sweep_rows(5, 7)


def test_snake_shape():
    path = snake_path(20, 5)
    assert path.kind == "snake"
    assert len(path.cells) - 1 == 114
    assert path.cells[-1] == (19, 19)
    assert_valid_route(path, 20)


def test_snake_single_cell_grid():
    path = snake_path(1, 1)
    assert path.cells == ((0, 0),)


def test_ring_spacing_values():
    assert ring_spacing(1) == 1
    assert ring_spacing(3) == 3
    assert ring_spacing(5) == 4
    assert ring_spacing(7) == 6


def test_ring_insets_standard_grid():
    assert ring_insets(20, 5) == [0, 4, 8]


def test_ring_insets_rejects_oversized_diameter():
    with pytest.raises(ValueError):
        ring_insets(5, 7)


def test_spiral_shape():
    path = spiral_path(20, 5)
    assert path.kind == "spiral"
    assert len(path.cells) - 1 == 143
    assert_valid_route(path, 20)


def test_steps_to_find_cloud_at_start():
    cloud = make_cloud((0, 0), 1, 20)
    assert steps_to_find(snake_path(20, 1), cloud, BUDGET) == 0


def test_steps_to_find_snake_first_row():
    # Center (10, 2) with diameter 5 reaches up to row 0 at x in {9..11},
    # so the first sweep touches it after 9 moves.
    cloud = make_cloud((10, 2), 5, 20)
    assert steps_to_find(snake_path(20, 5), cloud, BUDGET) == 9


def test_steps_to_find_miss_returns_budget():
    cloud = make_cloud((19, 19), 1, 20)
    stub = PatternPath(((0, 0),), "snake")
    assert steps_to_find(stub, cloud, BUDGET) == BUDGET
    assert steps_to_find(stub, cloud, max_steps=7) == 7


def test_first_hit_tells_a_miss_from_a_hit_at_the_budget():
    row = PatternPath(tuple((x, 0) for x in range(8)), "snake")
    assert first_hit(row, make_cloud((7, 0), 1, 20)) == 7
    assert steps_to_find(row, make_cloud((7, 0), 1, 20), max_steps=7) == 7
    assert steps_to_find(row, make_cloud((7, 0), 1, 20), max_steps=5) == 5
    assert first_hit(row, make_cloud((7, 5), 1, 20)) is None
    assert steps_to_find(row, make_cloud((7, 5), 1, 20), max_steps=7) == 7


def test_first_hit_starts_at_the_first_sensing_cell():
    cells = ((0, 0), (1, 0), (0, 0))
    cloud = make_cloud((0, 0), 1, 20)
    assert first_hit(PatternPath(cells, "snake"), cloud) == 0
    assert first_hit(PatternPath(cells, "agent", first=1), cloud) == 2


def test_snake_frozen_aggregates():
    steps = all_steps(snake_path(20, 5))
    assert len(steps) == 400
    assert sum(steps) == 21292
    assert sum(steps) / 400 == 53.23
    assert sorted(steps)[199] == 54
    assert max(steps) == 112


def test_spiral_frozen_aggregates():
    steps = all_steps(spiral_path(20, 5))
    assert len(steps) == 400
    assert sum(steps) == 27859
    assert sum(steps) / 400 == 69.6475
    assert sorted(steps)[199] == 70
    assert max(steps) == 140


def coverage_gap(pattern, grid_length, diameter):
    # Distance from each cell to the nearest path cell; full coverage
    # means no cell sits farther than the detection reach.
    mask = np.ones((grid_length, grid_length), dtype=bool)
    for (x, y) in pattern.cells:
        mask[x, y] = False
    return float(distance_transform_edt(mask).max()) - diameter / 2.0


def test_distance_oracle_matches_step_counts():
    # Independent check on the 20/5 grid: the nearest-path-cell distance
    # bound holds exactly when every center is found within budget.
    for pattern in (snake_path(20, 5), spiral_path(20, 5)):
        assert coverage_gap(pattern, 20, 5) <= 1e-9
        assert max(all_steps(pattern)) < BUDGET


@pytest.mark.parametrize("grid_length", [10, 13, 20, 27, 33, 40])
def test_patterns_cover_and_stay_valid(grid_length):
    for diameter in range(1, 8):
        if diameter > grid_length:
            continue
        for build in (snake_path, spiral_path):
            path = build(grid_length, diameter)
            assert_valid_route(path, grid_length)
            assert coverage_gap(path, grid_length, diameter) <= 1e-9


@st.composite
def grids(draw):
    grid_length = draw(st.integers(1, 60), label="grid_length")
    return grid_length, draw(st.integers(1, grid_length), label="diameter")


@settings(max_examples=50, deadline=None)
@given(grids())
def test_patterns_find_a_cloud_at_every_center_of_any_grid(grid):
    grid_length, diameter = grid
    reach = diameter // 2
    rows = sweep_rows(grid_length, diameter)
    assert rows[0] == 0
    assert all(0 < b - a <= diameter for a, b in zip(rows, rows[1:]))
    assert rows[-1] >= grid_length - 1 - reach
    insets = ring_insets(grid_length, diameter)
    assert insets[0] == 0
    assert all(0 < b - a <= ring_spacing(diameter) for a, b in zip(insets, insets[1:]))
    assert (grid_length - 1 - 2 * insets[-1]) // 2 <= reach
    for build in (snake_path, spiral_path):
        path = build(grid_length, diameter)
        assert_valid_route(path, grid_length)
        # first_hit finds the cloud centered on c exactly when a path cell lies
        # in the same clipped disc around c, that is when c lies in the disc
        # around a path cell; so the discs around the path must cover the grid.
        # (A first_hit per center costs seconds on a 60-cell grid.)
        covered = set()
        for cell in set(path.cells):
            covered.update(make_cloud(cell, diameter, grid_length).support)
        assert len(covered) == grid_length ** 2


def test_write_path_csv(tmp_path):
    target = tmp_path / "pattern.csv"
    path = snake_path(6, 3)
    write_path_csv(target, path)
    raw = target.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.splitlines()
    assert lines[0] == "step,x,y"
    assert len(lines) == len(path.cells) + 1
    assert lines[1] == "0,0,0"
    last = len(path.cells) - 1
    x, y = path.cells[-1]
    assert lines[-1] == f"{last},{x},{y}"

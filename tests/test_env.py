"""Grid, cloud geometry, sensing, movement, and seeded spawning."""
import math

import pytest

from hmc_search.env import (
    DELTAS,
    DOWN,
    LEFT,
    RIGHT,
    START,
    UP,
    CloudField,
    disc_offsets,
    make_cloud,
    make_rng,
    move,
    sense,
    spawn_clouds,
)
from hmc_search.training import Hyperparams


def test_direction_deltas():
    assert DELTAS[UP] == (0, -1)
    assert DELTAS[DOWN] == (0, 1)
    assert DELTAS[LEFT] == (-1, 0)
    assert DELTAS[RIGHT] == (1, 0)


def test_grid_config_defaults():
    hp = Hyperparams()
    assert hp.grid_length == 20
    assert hp.pollution_diameter == 5
    assert START == (0, 0)
    assert hp.max_steps == 400


def test_single_cell_cloud():
    cloud = make_cloud((5, 5), 1, 20)
    assert cloud.support == {(5, 5): 1.0}


def test_interior_diameter_5_support_has_21_cells():
    # 5x5 block minus the four corners, whose distance sqrt(8) > 2.5.
    cloud = make_cloud((10, 10), 5, 20)
    assert len(cloud.support) == 21
    for (x, y) in ((8, 8), (12, 8), (8, 12), (12, 12)):
        assert (x, y) not in cloud.support


def test_corner_cloud_is_clipped_to_8_cells():
    cloud = make_cloud((0, 0), 5, 20)
    assert len(cloud.support) == 8
    assert all(x >= 0 and y >= 0 for x, y in cloud.support)


def test_cloud_center_outside_grid_rejected():
    with pytest.raises(ValueError):
        make_cloud((20, 3), 5, 20)


def test_intensity_profile():
    cloud = make_cloud((10, 10), 5, 20)
    assert cloud.support[(10, 10)] == 1.0
    assert cloud.support[(12, 10)] == pytest.approx(1.0 - 4.0 / 6.0)
    assert all(level > 0.0 for level in cloud.support.values())


def test_disc_offsets_match_euclidean_rule():
    for diameter in range(1, 8):
        offsets = disc_offsets(diameter)
        radius = diameter / 2.0
        seen = {(dx, dy) for dx, dy, _ in offsets}
        reach = diameter // 2
        for dy in range(-reach - 1, reach + 2):
            for dx in range(-reach - 1, reach + 2):
                inside = math.hypot(dx, dy) <= radius
                assert ((dx, dy) in seen) == inside


def test_support_symmetry_for_interior_center():
    cloud = make_cloud((10, 10), 5, 21)
    for (x, y), level in cloud.support.items():
        dx, dy = x - 10, y - 10
        for sx, sy in ((dx, dy), (-dx, dy), (dx, -dy), (-dx, -dy),
                       (dy, dx), (-dy, dx), (dy, -dx), (-dy, -dx)):
            mirrored = (10 + sx, 10 + sy)
            assert cloud.support[mirrored] == pytest.approx(level)


def test_clipping_monotonicity():
    interior = make_cloud((10, 10), 5, 20)
    for corner in ((0, 0), (19, 0), (0, 19), (19, 19)):
        assert len(make_cloud(corner, 5, 20).support) <= len(interior.support)


def test_sense_zero_outside_max_over_clouds_inside():
    field = CloudField([make_cloud((5, 5), 5, 20), make_cloud((7, 5), 5, 20)], 20)
    assert sense(field, (15, 15)) == 0.0
    assert sense(field, (5, 5)) == 1.0
    # (6, 5) is one cell from each center; overlapping clouds do not add up.
    expected = 1.0 - 2.0 / 6.0
    assert sense(field, (6, 5)) == pytest.approx(expected)


def test_sense_positive_iff_in_some_support():
    field = spawn_clouds(20, 5, 3, make_rng(11))
    covered = set()
    for cloud in field.clouds:
        covered.update(cloud.support)
    for x in range(20):
        for y in range(20):
            assert (sense(field, (x, y)) > 0.0) == ((x, y) in covered)


def test_move_examples():
    assert move((0, 0), UP, 20) == ((0, 0), False)
    assert move((3, 3), RIGHT, 20) == ((4, 3), True)
    assert move((19, 10), RIGHT, 20) == ((19, 10), False)


def test_move_stays_in_bounds_and_identity_iff_clamped():
    for x in range(5):
        for y in range(5):
            for d in range(4):
                new_pos, moved = move((x, y), d, 5)
                nx, ny = new_pos
                assert 0 <= nx < 5 and 0 <= ny < 5
                assert moved == (new_pos != (x, y))
                if moved:
                    assert (nx - x, ny - y) == DELTAS[d]


def test_spawn_determinism_and_draw_layout():
    first = spawn_clouds(20, 5, 4, make_rng(123))
    second = spawn_clouds(20, 5, 4, make_rng(123))
    assert [c.center for c in first.clouds] == [c.center for c in second.clouds]
    # Each cloud consumes exactly an x draw then a y draw.
    rng = make_rng(123)
    expected = []
    for _ in range(4):
        x = int(rng.integers(20))
        y = int(rng.integers(20))
        expected.append((x, y))
    assert [c.center for c in first.clouds] == expected


def test_spawn_centers_cover_whole_grid():
    rng = make_rng(7)
    seen = set()
    for _ in range(500):
        seen.update(c.center for c in spawn_clouds(20, 5, 4, rng).clouds)
    xs = {x for x, _ in seen}
    ys = {y for _, y in seen}
    assert xs == set(range(20)) and ys == set(range(20))


def test_spawn_rejects_zero_count():
    with pytest.raises(ValueError):
        spawn_clouds(20, 5, 0, make_rng(0))


def test_make_rng_streams():
    assert make_rng(5).random() == make_rng(5).random()
    assert make_rng(5, 1).random() != make_rng(5, 2).random()
    with pytest.raises(ValueError):
        make_rng(-1)

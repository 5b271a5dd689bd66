"""Grid, cloud geometry, sensing, movement, seeded spawning, and the word tape."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hmc_search.env import (
    DELTAS,
    DOWN,
    LEFT,
    RIGHT,
    START,
    UP,
    CloudField,
    WordTape,
    cloud_mask,
    cloud_row,
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


def test_a_clouds_support_is_built_once_on_first_read():
    # The reference's per-step loops read supports, so each cloud keeps its own.
    cloud = make_cloud((3, 4), 5, 20)
    assert "support" not in vars(cloud)
    support = cloud.support
    assert vars(cloud)["support"] is support
    assert cloud.support is support


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
    field = CloudField([5 * 20 + 5, 7 * 20 + 5], 20, 5)
    assert sense(field, (15, 15)) == 0.0
    assert sense(field, (5, 5)) == 1.0
    # (6, 5) is one cell from each center; overlapping clouds do not add up.
    expected = 1.0 - 2.0 / 6.0
    assert sense(field, (6, 5)) == pytest.approx(expected)


def test_sense_positive_iff_in_some_support():
    field = spawn_clouds(20, 5, 3, make_rng(11))
    covered = set()
    for center in field.clouds:
        covered.update(make_cloud(divmod(center, 20), 5, 20).support)
    for x in range(20):
        for y in range(20):
            assert (sense(field, (x, y)) > 0.0) == ((x, y) in covered)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sense_is_the_max_over_the_clouds_supports(data):
    # Fields of one diameter: empty, overlapping, centered on the border,
    # and discs as wide as the grid.
    length = data.draw(st.integers(1, 12), label="grid_length")
    diameter = data.draw(st.integers(1, length), label="diameter")
    centers = data.draw(st.lists(st.integers(0, length * length - 1), max_size=5),
                        label="centers")
    field = CloudField(centers, length, diameter)
    supports = [make_cloud(divmod(center, length), diameter, length).support
                for center in centers]
    for cell in range(length * length):
        pos = divmod(cell, length)
        expected = max([support[pos] for support in supports if pos in support], default=0.0)
        assert sense(field, pos) == expected


def test_cloud_row_keeps_at_most_2_15_rows():
    # Every row of 8 grids of side 64, as many as 8 whole tables of that side held.
    assert cloud_row.cache_info().maxsize == 1 << 15


def test_cloud_mask_keeps_at_most_1024_masks():
    # Every center of a grid of side 32, the largest whose one-cloud masks are shared.
    assert cloud_mask.cache_info().maxsize == 1 << 10


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_a_one_cloud_fields_masks_are_its_stamped_masks(data):
    length = data.draw(st.integers(1, 40), label="grid_length")
    diameter = data.draw(st.integers(1, length), label="diameter")
    center = data.draw(st.integers(0, length * length - 1), label="center")
    field = CloudField([center], length, diameter)
    assert list(field.masks) == oracle.stamp(field)[0]


def test_one_cloud_fields_share_a_mask_only_on_grids_up_to_side_32():
    cloud_mask.cache_clear()
    for length in (1, 20, 32):
        center = length * length - 1
        first, second = (CloudField([center], length, min(3, length)) for _ in range(2))
        assert first.masks is second.masks and isinstance(first.masks, tuple)
    assert cloud_mask.cache_info()[1:] == (3, 1 << 10, 3)  # misses, maxsize, currsize
    # Larger grids, and fields of several clouds or none, stamp masks of their own.
    for clouds, length in (([5], 33), ([5], 64), ([5, 5], 20), ([], 20)):
        first, second = (CloudField(list(clouds), length, 3) for _ in range(2))
        assert first.masks == second.masks and first.masks is not second.masks
    assert cloud_mask.cache_info()[1:] == (3, 1 << 10, 3)


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
    assert first == second
    # Each cloud consumes exactly an x draw then a y draw.
    rng = make_rng(123)
    expected = []
    for _ in range(4):
        x = int(rng.integers(20))
        y = int(rng.integers(20))
        expected.append(x * 20 + y)
    assert first.clouds == expected


def test_spawn_centers_cover_whole_grid():
    rng = make_rng(7)
    seen = set()
    for _ in range(500):
        seen.update(divmod(c, 20) for c in spawn_clouds(20, 5, 4, rng).clouds)
    xs = {x for x, _ in seen}
    ys = {y for _, y in seen}
    assert xs == set(range(20)) and ys == set(range(20))


def test_spawn_rejects_zero_count():
    with pytest.raises(ValueError):
        spawn_clouds(20, 5, 0, make_rng(0))


def test_make_rng_streams():
    assert oracle.random(make_rng(5)) == oracle.random(make_rng(5))
    assert oracle.random(make_rng(5, 1)) != oracle.random(make_rng(5, 2))
    with pytest.raises(ValueError):
        make_rng(-1)


# --- the word tape

# integers(n) ranges: small ones, ones whose Lemire step rejects often
# (3 * 2**30 about a quarter of its draws, 2**31 + 1 about half), the
# 32-bit edges, and any.
TAPE_RANGES = st.one_of(
    st.sampled_from([1, 2, 4, 20, 49, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]),
    st.integers(1, 2**32))
TAPE_OPS = st.one_of(
    st.just(("random", None)),
    TAPE_RANGES.map(lambda n: ("integers", n)),
    st.integers(0, 5000).map(lambda k: ("ensure", k)))


def draw(source, op, n):
    """One draw from a Generator or an oracle.Tape."""
    return source.random() if op == "random" else int(source.integers(n))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), ops=st.lists(TAPE_OPS, max_size=400))
def test_a_tape_draws_what_numpy_draws_and_ends_in_its_state(seed, ops):
    # Numpy promises no stream stability for Generator: a release that
    # changes its streams fails here, and the package's outputs would move.
    reference = np.random.default_rng(seed)
    start = reference.bit_generator.state
    tape = oracle.Tape(WordTape(np.random.default_rng(seed).bit_generator.random_raw))
    for op, n in ops:
        if op == "ensure":
            tape.tape.ensure(n)
            assert len(tape.tape.words) - tape.tape.pos >= n
        else:
            assert draw(tape, op, n) == draw(reference, op, n)
    # Rebuilt from the words the tape used plus its buffered half.
    rebuilt = np.random.PCG64()
    rebuilt.state = start
    rebuilt.advance(tape.used)
    state = rebuilt.state
    state.update(has_uint32=int(tape.half is not None), uinteger=tape.half or 0)
    expected = reference.bit_generator.state
    assert state["state"] == expected["state"]
    assert state["has_uint32"] == expected["has_uint32"]
    if expected["has_uint32"]:  # else numpy leaves a stale value in uinteger
        assert state["uinteger"] == expected["uinteger"]
    rebuilt.state = state
    follower = np.random.Generator(rebuilt)
    for op, n in [("integers", 4), ("random", None), ("integers", 3 * 2**30),
                  ("integers", 49), ("random", None)]:
        value = draw(reference, op, n)
        assert draw(follower, op, n) == value
        assert draw(tape, op, n) == value


def test_make_rng_reads_default_rng():
    tape, rng = oracle.Tape(make_rng(9, 2)), np.random.default_rng((9, 2))
    assert [tape.integers(20), tape.random(), tape.integers(1), tape.integers(49)] == \
        [rng.integers(20), rng.random(), rng.integers(1), rng.integers(49)]
    assert tape.used == 2  # integers(1) draws nothing; two 32-bit draws share a word
    rng = np.random.default_rng((123, 0))
    centers = spawn_clouds(20, 5, 4, make_rng(123)).clouds
    assert centers == [rng.integers(20) * 20 + rng.integers(20) for _ in range(4)]
    assert all(type(center) is int for center in centers)
    with pytest.raises(ValueError):
        make_rng(-1)


@pytest.mark.parametrize("n", [0, -4, 2**32 + 1])
def test_tape_integers_rejects_a_range_outside_1_to_2_pow_32(n):
    with pytest.raises(ValueError, match="integers needs 1 <= n <= 2\\*\\*32"):
        make_rng(0).integers(n)


# random() < p on a raw word w is (w >> 11) * 2**-53 < p; the hot loops
# test it as w < WordTape.random_bound(p).
def reference_draw_below(w, p):
    return (w >> 11) * 2**-53 < p


@settings(max_examples=500, deadline=None)
@given(p=st.floats(0.0, 1.0), w=st.integers(0, 2**64 - 1), near=st.integers(-2**12, 2**12))
def test_a_word_is_below_the_random_bound_exactly_when_its_draw_is_below_p(p, w, near):
    bound = WordTape.random_bound(p)
    assert (w < bound) == reference_draw_below(w, p)
    # Random words almost never land near the bound, so test words there too.
    w = min(max(bound + near, 0), 2**64 - 1)
    assert (w < bound) == reference_draw_below(w, p)


@pytest.mark.parametrize("p, whole", [(0.5, True), (2**-53, True), (1 - 2**-53, True),
                                      (0.1, False), (1 / 3, False)])
def test_the_random_bound_splits_the_words_between_two_neighbours(p, whole):
    assert (p * 2**53).is_integer() == whole
    bound = math.ceil(p * 2**53) << 11
    assert WordTape.random_bound(p) == bound
    below, at = bound - 1, bound
    assert below < WordTape.random_bound(p) and reference_draw_below(below, p)
    assert not at < WordTape.random_bound(p) and not reference_draw_below(at, p)
    # The reference random() decodes the two words of a tape the same way.
    tape = WordTape(lambda n: np.array([below, at] * n, dtype=np.uint64)[:n])
    assert (oracle.random(tape) < p, oracle.random(tape) < p) == (True, False)


@pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
def test_a_probability_of_one_or_more_lets_every_word_pass(p):
    assert WordTape.random_bound(p) == 1 << 64
    assert 2**64 - 1 < WordTape.random_bound(p)


def test_a_probability_of_zero_lets_no_word_pass():
    assert WordTape.random_bound(0.0) == 0

"""Value updates, option execution, memory-filtered selection, table I/O."""
import dataclasses
import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from hmc_search.env import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    CloudField,
    make_rng,
)
from hmc_search.policy import (
    execute_option,
    mc_update,
    option_stride,
    option_terminal,
    option_terminals,
    option_walks,
    q_update,
    read_qtable_csv,
    record_visits,
    select_option,
    write_qtable_csv,
)
from hmc_search.training import Hyperparams


def at(x, y, length=20):
    """The cell int of (x, y), as the learners keep it."""
    return x * length + y


def points(cells, length=20):
    """Cell ints as (x, y)."""
    return tuple(divmod(cell, length) for cell in cells)


def flat(q):
    """A (grid_length, grid_length, 4) table as the flat list q[cell * 4 + d]."""
    return q.ravel().tolist()


def grid(q, length):
    """A flat table as a (grid_length, grid_length, 4) array, to index by (x, y, d)."""
    return np.array(q, dtype=np.float64).reshape(length, length, 4)


def new_memory(grid_length):
    """Visit counts of a fresh episode, the flat list mem[cell] select_option reads."""
    return [0] * (grid_length * grid_length)


def params(mof_value=10.0, option_length=3, length=20):
    return Hyperparams(grid_length=length, mof_value=mof_value, option_length=option_length)


def episode_terminals(p):
    """The option terminals of p's grid and stride, as run_episode looks them up."""
    return option_terminals(p.grid_length, option_stride(p.option_length))


# What run_episode looks up once per episode for params(): the option
# terminals and the filter weight.
ENDS, WEIGHT = episode_terminals(params()), params().mof_value
# The masks of a 20-grid with no cloud.
NO_CLOUDS = CloudField([], 20, 5).masks


def walk(pos, direction, stride):
    """The 20-grid walk table entry execute_option takes for pos and direction."""
    return option_walks(20, stride)[pos * 4 + direction]


# --- update rules


def test_q_update_zero_fixed_point():
    q = flat(np.zeros((4, 4, 4)))
    q_update(q, [(at(1, 1, 4), UP)], 0.0, at(1, 0, 4), 0.1, 0.9)
    assert grid(q, 4)[1, 1, UP] == 0.0


def test_q_update_direct_substitution():
    q = flat(np.zeros((4, 4, 4)))
    q_update(q, [(at(1, 1, 4), RIGHT)], 100.0, at(2, 1, 4), 0.1, 0.9)
    assert grid(q, 4)[1, 1, RIGHT] == pytest.approx(10.0)


def test_q_update_decay_toward_bootstrap():
    table = np.zeros((4, 4, 4))
    table[1, 1, LEFT] = 10.0
    table[0, 1, :] = 10.0
    q = flat(table)
    q_update(q, [(at(1, 1, 4), LEFT)], 0.0, at(0, 1, 4), 0.1, 0.9)
    assert grid(q, 4)[1, 1, LEFT] == pytest.approx(9.9)


def test_q_update_touches_one_entry():
    q = flat(np.zeros((4, 4, 4)))
    q_update(q, [(at(2, 3, 4), DOWN)], 5.0, at(2, 3, 4), 0.5, 0.0)
    touched = np.nonzero(grid(q, 4))
    assert list(zip(*touched)) == [(2, 3, DOWN)]


def test_mc_update_examples():
    q = flat(np.zeros((4, 4, 4)))
    mc_update(q, [(at(0, 0, 4), UP)], 0.5, 0.1)
    assert q[UP] == pytest.approx(0.05)
    q[UP] = 0.5
    mc_update(q, [(at(0, 0, 4), UP)], 0.5, 0.1)
    assert q[UP] == 0.5


def test_updates_reject_non_finite_reward():
    q = flat(np.zeros((4, 4, 4)))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            q_update(q, [(0, UP)], bad, at(0, 1, 4), 0.1, 0.0)
        with pytest.raises(ValueError):
            mc_update(q, [(0, UP)], bad, 0.1)


# Finite values small enough that no backup overflows, both zeros included.
VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(old=VALUES, r=VALUES, alpha=st.floats(0.01, 1.0),
       row=st.lists(VALUES, min_size=4, max_size=4), o=st.integers(0, 3))
# r + 0.0 * max is +0.0 where r is -0.0; the backup must still agree.
@example(old=0.0, r=-0.0, alpha=0.5, row=[1.0, 0.0, 0.0, 0.0], o=0)
@example(old=-0.0, r=-0.0, alpha=0.5, row=[1.0, 0.0, 0.0, 0.0], o=0)
def test_mc_equals_q_update_at_zero_discount(old, r, alpha, row, o):
    q = np.zeros((2, 2, 4))
    q[0, 0, o] = old
    q[1, 1] = row  # the bootstrap row, which a zero discount ignores
    a, b = flat(q), flat(q)
    q_update(a, [(at(0, 0, 2), o)], r, at(1, 1, 2), alpha, 0.0)
    mc_update(b, [(at(0, 0, 2), o)], r, alpha)
    assert np.array(a).tobytes() == np.array(b).tobytes()


def test_zero_discount_q_update_reads_no_bootstrap_row():
    q = np.zeros((3, 3, 4))
    q[1, 1, DOWN] = 2.0
    q[2, 2] = math.nan
    table = flat(q)
    q_update(table, [(at(1, 1, 3), DOWN)], 5.0, at(2, 2, 3), 0.5, 0.0)
    assert grid(table, 3)[1, 1, DOWN] == 2.0 + 0.5 * (5.0 - 2.0)
    # A positive discount reads it.
    table = flat(q)
    q_update(table, [(at(1, 1, 3), DOWN)], 5.0, at(2, 2, 3), 0.5, 0.9)
    assert math.isnan(grid(table, 3)[1, 1, DOWN])


def test_mc_update_converges_geometrically():
    q = flat(np.zeros((3, 3, 4)))
    q[UP] = 8.0
    target = 2.0
    for k in range(1, 30):
        mc_update(q, [(at(0, 0, 3), UP)], target, 0.1)
        assert abs(q[UP] - target) == pytest.approx(0.9 ** k * 6.0)


# --- option geometry


def test_option_stride_counts_first_move_plus_repeats():
    assert option_stride(1) == 2
    assert option_stride(3) == 4
    with pytest.raises(ValueError):
        option_stride(0)


def test_option_terminal_clamps_at_borders():
    assert option_terminal((5, 5), RIGHT, 3, 20) == (8, 5)
    assert option_terminal((18, 5), RIGHT, 3, 20) == (19, 5)
    assert option_terminal((0, 1), UP, 4, 20) == (0, 0)
    assert option_terminal((10, 10), DOWN, 4, 20) == (10, 14)


def test_execute_option_walks_full_stride():
    field = CloudField([], 20, 5)
    outcome, alive = execute_option(field.masks, 0, at(5, 5), walk(at(5, 5), RIGHT, 3), 400)
    assert outcome.terminal == at(8, 5)
    assert outcome.primitive_steps == 3
    assert points(outcome.path) == ((6, 5), (7, 5), (8, 5))
    assert not outcome.clamped
    assert alive == 0


def test_a_free_walk_returns_the_walk_tables_outcome_and_the_callers_mask():
    field = CloudField([at(15, 15)], 20, 1)
    shared = option_walks(20, 4)[at(5, 5) * 4 + RIGHT]
    outcome, alive = execute_option(field.masks, 1, at(5, 5), walk(at(5, 5), RIGHT, 4), 400)
    assert outcome is shared and alive == 1
    assert execute_option(NO_CLOUDS, 0, at(5, 5), walk(at(5, 5), RIGHT, 4), 400)[0] is shared
    # A cloud already found is no hit, so a walk across it is free too.
    found = CloudField([at(7, 5), at(15, 15)], 20, 1)
    outcome, alive = execute_option(found.masks, 0b10, at(5, 5), walk(at(5, 5), RIGHT, 4), 400)
    assert outcome is shared and alive == 0b10
    # A budget that only just covers the walk builds its own, equal outcome.
    cut, _ = execute_option(field.masks, 1, at(5, 5), walk(at(5, 5), RIGHT, 4), 4)
    assert cut == shared and cut is not shared
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.found_count = 1


def test_execute_option_stops_at_border():
    outcome, _ = execute_option(NO_CLOUDS, 0, at(18, 5), walk(at(18, 5), RIGHT, 3), 400)
    assert outcome.terminal == at(19, 5)
    assert outcome.primitive_steps == 1
    assert outcome.clamped


def test_execute_option_stops_on_final_collection():
    field = CloudField([at(9, 5)], 20, 1)
    outcome, alive = execute_option(field.masks, 1, at(7, 5), walk(at(7, 5), RIGHT, 3), 400)
    assert outcome.terminal == at(9, 5)
    assert outcome.primitive_steps == 2
    assert outcome.found_count == 1
    assert alive == 0


def test_execute_option_collects_every_cloud_on_a_shared_cell():
    # (5, 5) lies in both supports, so entering it takes both clouds at once;
    # the caller's field keeps them.
    field = CloudField([at(5, 5), at(6, 5)], 20, 3)
    outcome, alive = execute_option(field.masks, 0b11, at(5, 4), walk(at(5, 4), DOWN, 3), 400)
    assert outcome.found_count == 2
    assert points(outcome.path) == ((5, 5),)
    assert alive == 0
    assert len(field.clouds) == 2


def test_execute_option_continues_while_clouds_remain():
    field = CloudField([at(6, 5), at(15, 15)], 20, 1)
    outcome, alive = execute_option(field.masks, 0b11, at(5, 5), walk(at(5, 5), RIGHT, 3), 400)
    assert outcome.found_count == 1
    assert outcome.primitive_steps == 3
    assert [c for i, c in enumerate(field.clouds) if alive >> i & 1] == [at(15, 15)]


def test_execute_option_respects_step_budget():
    outcome, _ = execute_option(NO_CLOUDS, 0, at(5, 5), walk(at(5, 5), RIGHT, 4), 2)
    assert outcome.primitive_steps == 2
    assert outcome.terminal == at(7, 5)


def test_execute_option_zero_step_when_pinned_to_wall():
    outcome, _ = execute_option(NO_CLOUDS, 0, at(0, 3), walk(at(0, 3), LEFT, 4), 400)
    assert outcome.primitive_steps == 0
    assert outcome.path == ()
    assert outcome.terminal == at(0, 3)
    assert outcome.clamped


def test_execute_option_path_is_a_straight_run():
    rng = np.random.default_rng((4, 0))
    for _ in range(200):
        x = int(rng.integers(20))
        y = int(rng.integers(20))
        d = int(rng.integers(4))
        stride = int(rng.integers(1, 7))
        outcome, _ = execute_option(NO_CLOUDS, 0, at(x, y), walk(at(x, y), d, stride), 400)
        assert outcome.primitive_steps <= stride
        prev = (x, y)
        for cell in points(outcome.path):
            assert abs(cell[0] - prev[0]) + abs(cell[1] - prev[1]) == 1
            prev = cell
        assert divmod(outcome.terminal, 20) == option_terminal(
            (x, y), d, outcome.primitive_steps, 20)


# --- visit memory


def test_record_visits_counts_path_cells():
    mem = new_memory(20)
    outcome, _ = execute_option(NO_CLOUDS, 0, at(5, 5), walk(at(5, 5), RIGHT, 3), 400)
    record_visits(mem, outcome)
    assert mem[at(6, 5)] == 1 and mem[at(7, 5)] == 1 and mem[at(8, 5)] == 1
    assert sum(mem) == 3


def test_record_visits_empty_path_no_change():
    mem = new_memory(20)
    outcome, _ = execute_option(NO_CLOUDS, 0, at(0, 3), walk(at(0, 3), LEFT, 4), 400)
    record_visits(mem, outcome)
    # The zero-step clamp still marks its terminal once.
    assert mem[at(0, 3)] == 1
    assert sum(mem) == 1


def test_record_visits_clamped_terminal_counts_twice():
    mem = new_memory(20)
    outcome, _ = execute_option(NO_CLOUDS, 0, at(17, 5), walk(at(17, 5), RIGHT, 4), 400)
    assert outcome.clamped and outcome.terminal == at(19, 5)
    record_visits(mem, outcome)
    assert mem[at(18, 5)] == 1
    assert mem[at(19, 5)] == 2


def test_record_visits_never_decrements():
    mem = new_memory(20)
    rng = make_rng(3)
    for _ in range(100):
        x = int(rng.integers(20))
        y = int(rng.integers(20))
        d = int(rng.integers(4))
        outcome, _ = execute_option(NO_CLOUDS, 0, at(x, y), walk(at(x, y), d, 4), 400)
        before = list(mem)
        record_visits(mem, outcome)
        assert all(now >= then for now, then in zip(mem, before))


# --- selection


def test_explore_mode_is_uniform():
    q = np.zeros((20, 20, 4))
    q[5, 5] = [9.0, 0.0, 0.0, 0.0]
    q = flat(q)
    mem = new_memory(20)
    rng = make_rng(17)
    counts = [0, 0, 0, 0]
    n = 10_000
    for _ in range(n):
        counts[select_option(q, mem, at(5, 5), ENDS, "explore", rng, WEIGHT)] += 1
    # Each direction is Binomial(n, 1/4); allow 3 sigma around the mean.
    sigma = (n * 0.25 * 0.75) ** 0.5
    for c in counts:
        assert abs(c - n / 4) < 3 * sigma


@pytest.mark.parametrize("skip, buffered", [(1022, False), (1022, True), (1023, False),
                                            (1023, True), (1024, False), (2047, True)])
def test_explore_mode_reads_the_tapes_integers_four(skip, buffered):
    # The tape reads blocks of 1024 words; draws start before, on and after
    # a block's last word, with and without a buffered half word.
    mem = new_memory(20)
    q = flat(np.zeros((20, 20, 4)))
    tape, reference = oracle.Tape(make_rng(11)), oracle.Tape(make_rng(11))
    for t in (tape, reference):
        for _ in range(skip - buffered):
            t.random()
        if buffered:
            t.integers(7)
    for _ in range(2100):
        assert select_option(q, mem, at(5, 5), ENDS, "explore", tape.tape, WEIGHT) == \
            reference.integers(4)
        assert (tape.used, tape.half) == (reference.used, reference.half)


@pytest.mark.parametrize("row, expected", [
    ([math.nan, 1.0, 0.0, 0.0], DOWN),
    ([0.0, math.nan, 2.0, math.nan], LEFT),
    ([-math.inf, math.nan, -math.inf, -5.0], RIGHT),
    ([-math.inf] * 4, UP),
    ([math.nan] * 4, UP),
    ([1.0, 1.0, math.inf, math.inf], LEFT)])
def test_exploit_scores_compare_as_a_loop_from_minus_infinity(row, expected):
    # The first strictly greater score wins; NaN never does, and a row with
    # no score above -inf keeps up.
    q = flat(np.zeros((20, 20, 4)))
    q[at(10, 10) * 4:at(10, 10) * 4 + 4] = row
    assert select_option(q, new_memory(20), at(10, 10), ENDS, "exploit", None, WEIGHT) == expected


def test_exploit_filter_redirects_from_visited_terminal():
    q = np.zeros((20, 20, 4))
    q[10, 10] = [0.9, 0.8, 0.7, 0.6]
    mem = new_memory(20)
    up_terminal = option_terminal((10, 10), UP, option_stride(3), 20)
    mem[at(*up_terminal)] = 1
    assert select_option(flat(q), mem, at(10, 10), ENDS, "exploit", None, WEIGHT) == DOWN


def test_exploit_uniform_memory_shift_keeps_argmax():
    q = np.zeros((20, 20, 4))
    q[10, 10] = [0.9, 0.8, 0.7, 0.6]
    q = flat(q)
    clean = new_memory(20)
    shifted = new_memory(20)
    for d in range(4):
        shifted[at(*option_terminal((10, 10), d, option_stride(3), 20))] = 1
    assert (select_option(q, clean, at(10, 10), ENDS, "exploit", None, WEIGHT)
            == select_option(q, shifted, at(10, 10), ENDS, "exploit", None, WEIGHT)
            == UP)


def test_exploit_tie_break_order():
    q = np.zeros((20, 20, 4))
    mem = new_memory(20)
    assert select_option(flat(q), mem, at(10, 10), ENDS, "exploit", None, WEIGHT) == UP
    q[10, 10] = [0.0, 1.0, 1.0, 0.0]
    assert select_option(flat(q), mem, at(10, 10), ENDS, "exploit", None, WEIGHT) == DOWN


def test_exploit_terminal_uses_full_stride():
    # One decision spans option_length + 1 cells, so the filter must look
    # that far ahead, not option_length cells.
    q = np.zeros((20, 20, 4))
    q[10, 10] = [0.0, 0.0, 0.0, 1.0]
    q = flat(q)
    mem = new_memory(20)
    mem[at(14, 10)] = 1  # stride-4 terminal of moving right
    assert select_option(q, mem, at(10, 10), ENDS, "exploit", None, WEIGHT) == UP
    mem[at(14, 10)] = 0
    mem[at(13, 10)] = 1  # three cells out: not the terminal, no penalty
    assert select_option(q, mem, at(10, 10), ENDS, "exploit", None, WEIGHT) == RIGHT


def test_strong_filter_prefers_any_unvisited_terminal():
    rng = np.random.default_rng((21, 0))
    for _ in range(500):
        q = np.zeros((9, 9, 4))
        q[:] = rng.uniform(-1.0, 1.0, size=q.shape)
        mem = rng.integers(0, 3, size=(9, 9))
        x = int(rng.integers(9))
        y = int(rng.integers(9))
        q_range = float(q.max() - q.min())
        p = params(mof_value=q_range + 1.0, option_length=2, length=9)
        chosen = select_option(flat(q), mem.ravel().tolist(), at(x, y, 9),
                               episode_terminals(p), "exploit", None, p.mof_value)
        terminals = [option_terminal((x, y), d, option_stride(2), 9)
                     for d in range(4)]
        visited = [mem[t] > 0 for t in terminals]
        if not all(visited):
            assert not visited[chosen]


def test_select_option_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        select_option(flat(np.zeros((20, 20, 4))), new_memory(20), 0, ENDS, "greedy",
                      None, WEIGHT)


# --- persistence


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 12),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=64))
# The 6-cell table of normal values at scale 30 that the example round trips used.
@example(length=6, values=np.random.default_rng((8, 0)).normal(scale=30.0, size=144).tolist())
def test_qtable_csv_roundtrip_keeps_six_digits_and_its_bytes(tmp_path_factory, length, values):
    # Any finite values, repeated to fill the flat table of a length-cell grid.
    q = [values[key % len(values)] for key in range(4 * length * length)]
    first = tmp_path_factory.mktemp("qtable") / "a.csv"
    write_qtable_csv(first, q)
    back = read_qtable_csv(first)
    assert back.typecode == "d"
    assert back.tobytes() == array("d", [float(format(v, ".6g")) for v in q]).tobytes()
    second = first.with_name("b.csv")
    write_qtable_csv(second, back)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().split("\n")
    # One row per key, in key order; "\n" line ends, no "\r".
    assert lines[0] == "x,y,direction,value" and lines[-1] == ""
    assert [line.rsplit(",", 1)[0] for line in lines[1:-1]] == [
        f"{x},{y},{name}" for x in range(length) for y in range(length)
        for name in ("up", "down", "left", "right")]
    assert b"\r" not in first.read_bytes()


def test_a_table_of_no_square_grid_is_refused_on_write_and_rejected_on_read(tmp_path):
    path = tmp_path / "qtable.csv"
    with pytest.raises(ValueError, match="^12 values are not 4 per cell of a square grid$"):
        write_qtable_csv(path, [1.0] * 12)
    assert not path.exists()
    # The 12 rows the writer refuses, written by the reference writer.
    oracle.write_qtable_csv(path, [1.0] * 12)
    with pytest.raises(ValueError, match="^12 rows are not 4 per cell of a square grid$"):
        read_qtable_csv(path)


def test_qtable_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        read_qtable_csv(path)


# Values whose text is a corner of the .6g format: signed zeros, a small
# exponent, a large one, and more digits than the format keeps.
CORNER_VALUES = st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 3e300, -3e300, 123456789.0])


@settings(max_examples=200, deadline=None)
@given(size=st.one_of(st.integers(1, 12).map(lambda length: 4 * length * length),
                      st.integers(0, 4 * 12 * 12 + 7)),
       values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 CORNER_VALUES), min_size=1, max_size=64),
       kind=st.sampled_from(["list", "array", "ndarray"]))
@example(size=0, values=[1.0], kind="list")
@example(size=3, values=[1.0], kind="array")
@example(size=12, values=[1.0], kind="ndarray")
def test_the_table_writer_writes_the_reference_bytes(tmp_path_factory, size, values, kind):
    """A square table, as a list, an array("d") or an ndarray: the bytes of the
    reference writer.  Any other size, 0 included: the reader's ValueError and no file."""
    q = [values[key % len(values)] for key in range(size)]
    q = {"list": q, "array": array("d", q), "ndarray": np.array(q, dtype=float)}[kind]
    directory = tmp_path_factory.mktemp("qtable")
    path, reference = directory / "q.csv", directory / "reference.csv"
    length = math.isqrt(size // 4)
    if size and 4 * length * length == size:
        write_qtable_csv(path, q)
        oracle.write_qtable_csv(reference, q)
        assert path.read_bytes() == reference.read_bytes()
    else:
        with pytest.raises(ValueError,
                           match=f"^{size} values are not 4 per cell of a square grid$"):
            write_qtable_csv(path, q)
        assert not path.exists()


def _edit_field(row, field, edit):
    """row with one comma-separated field edited; a row too short to have it, as it is."""
    fields = row.split(",")
    if field < len(fields):
        fields[field] = edit(fields[field])
    return ",".join(fields)


@st.composite
def mutated_tables(draw):
    """A written table of a 1- to 12-cell grid, then one to four mutations of its rows
    and line ends, as the text of a file."""
    length = draw(st.integers(1, 12))
    values = draw(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     CORNER_VALUES), min_size=1, max_size=16))
    heads = [f"{x},{y},{name}" for x in range(length) for y in range(length)
             for name in ("up", "down", "left", "right")]
    rows = [f"{head},{format(values[key % len(values)], '.6g')}"
            for key, head in enumerate(heads)]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"]))] * (len(rows) + 1)
    for _ in range(draw(st.integers(1, 4))):
        if not rows:
            break
        # Half the mutations hit one of the first two rows, so that they stack.
        i = draw(st.one_of(st.integers(0, min(1, len(rows) - 1)),
                           st.integers(0, len(rows) - 1)))
        kind = draw(st.sampled_from([
            "shuffle", "line end", "blank", "x or y text", "repeat", "copy over", "drop",
            "off grid", "direction", "3 fields", "5 fields", "non-finite", "inner space",
            "padded", "off grid and non-numeric"]))
        if kind == "shuffle":
            rows = draw(st.permutations(rows))
        elif kind == "line end":
            ends[i] = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        elif kind == "blank":
            rows.insert(i, draw(st.sampled_from(["", " ", "\t", " \x0c"])))
        elif kind == "x or y text":
            edit = draw(st.sampled_from(["{} ", " {}", "+{}", "0{}", "00{}"]))
            rows[i] = _edit_field(rows[i], draw(st.integers(0, 1)), edit.format)
        elif kind == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), rows[i])
        elif kind == "copy over":
            rows[draw(st.integers(0, len(rows) - 1))] = rows[i]
        elif kind == "drop":
            del rows[i]
        elif kind == "off grid":
            off = str(draw(st.sampled_from([length, length + 3, -1])))
            rows[i] = _edit_field(rows[i], draw(st.integers(0, 1)), lambda _: off)
        elif kind == "direction":
            name = draw(st.sampled_from(["north", "Up", "upp", "", "up ", "4"]))
            rows[i] = _edit_field(rows[i], 2, lambda _: name)
        elif kind == "3 fields":
            rows[i] = rows[i].rpartition(",")[0]
        elif kind == "5 fields":
            rows[i] += ",1"
        elif kind == "non-finite":
            text = draw(st.sampled_from(["nan", "-inf", "inf", "NaN"]))
            rows[i] = _edit_field(rows[i], 3, lambda _: text)
        elif kind == "padded":
            pad = draw(st.sampled_from([" ", "\t", "\x0c", "\x85"]))
            rows[i] = draw(st.sampled_from([pad + rows[i], rows[i] + pad]))
        elif kind == "inner space":
            at = draw(st.integers(0, len(rows[i])))
            rows[i] = rows[i][:at] + draw(st.sampled_from(["\x0c", "\x85"])) + rows[i][at:]
        else:
            rows[i] = _edit_field(_edit_field(rows[i], 0, lambda _: str(length + 87)),
                                  3, lambda _: "abc")
    lines = ["x,y,direction,value", *rows]
    return "".join(line + end for line, end in zip(lines, ends + ["\n"] * len(lines)))


def _read_outcome(read, path):
    try:
        return read(path).tobytes()
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=500, deadline=None)
@given(text=mutated_tables())
@example(text="x,y,direction,value\n" + "".join(
    f"{x},{y},{name},0\n" for x in range(2) for y in range(2)
    for name in ("up", "down", "left", "right")).replace("1,1,up,0", "99,1,up,abc"))
def test_the_table_reader_agrees_with_the_reference_on_mutated_files(tmp_path_factory, text):
    """Shuffled rows, CR and CRLF line ends, blank and padded lines, x and y texts the
    writer never writes, repeated, dropped and off-grid rows, unknown directions, 3 or 5
    fields, non-finite values, \\x0c and \\x85 inside a line: the reference's array, or
    its ValueError message for the first bad row."""
    path = tmp_path_factory.mktemp("qtable") / "q.csv"
    path.write_bytes(text.encode())
    assert _read_outcome(read_qtable_csv, path) == _read_outcome(oracle.read_qtable_csv, path)


@pytest.mark.parametrize("row, message", [
    # Every field is parsed before the range check, so a row that is both
    # off the grid and non-numeric is malformed.
    ("99,0,up,abc", "malformed row '99,0,up,abc'"),
    ("99,0,up,1", "row '99,0,up,1' lies outside a 20-cell grid"),
    ("00,0,up,inf", "row '00,0,up,inf' has a non-finite value"),
    ("0,+0,up,1", "row '0,+0,up,1' repeats an (x, y, direction)"),
    ("0,0\x0c,up,1", "row '0,0\\x0c,up,1' repeats an (x, y, direction)"),
])
def test_a_bad_row_of_a_20_grid_table_keeps_its_message(tmp_path, row, message):
    path = tmp_path / "q.csv"
    write_qtable_csv(path, [0.0] * 1600)
    lines = path.read_text().split("\n")
    lines[5] = row
    path.write_text("\n".join(lines))
    assert (_read_outcome(read_qtable_csv, path) == _read_outcome(oracle.read_qtable_csv, path)
            == f"ValueError: {message}")

"""Value updates, option execution, memory-filtered selection, table I/O."""
import dataclasses

import numpy as np
import pytest

from hmc_search.env import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    CloudField,
    make_cloud,
    make_rng,
)
from hmc_search.policy import (
    execute_option,
    mc_update,
    new_qtable,
    new_visit_memory,
    option_stride,
    option_terminal,
    option_walks,
    q_update,
    read_qtable_csv,
    record_visits,
    select_option,
    write_qtable_csv,
)
from hmc_search.training import Hyperparams


def params(mof_value=10.0, option_length=3, binary=False):
    return Hyperparams(mof_value=mof_value, option_length=option_length,
                       binary_memory=binary)


# --- update rules


def test_q_update_zero_fixed_point():
    q = new_qtable(4)
    q_update(q, (1, 1), UP, 0.0, (1, 0), 0.1, 0.9)
    assert q[1, 1, UP] == 0.0


def test_q_update_direct_substitution():
    q = new_qtable(4)
    q_update(q, (1, 1), RIGHT, 100.0, (2, 1), 0.1, 0.9)
    assert q[1, 1, RIGHT] == pytest.approx(10.0)


def test_q_update_decay_toward_bootstrap():
    q = new_qtable(4)
    q[1, 1, LEFT] = 10.0
    q[0, 1, :] = 10.0
    q_update(q, (1, 1), LEFT, 0.0, (0, 1), 0.1, 0.9)
    assert q[1, 1, LEFT] == pytest.approx(9.9)


def test_q_update_touches_one_entry():
    q = new_qtable(4)
    q_update(q, (2, 3), DOWN, 5.0, (2, 3), 0.5, 0.0)
    touched = np.nonzero(q)
    assert list(zip(*touched)) == [(2, 3, DOWN)]


def test_mc_update_examples():
    q = new_qtable(4)
    mc_update(q, (0, 0), UP, 0.5, 0.1)
    assert q[0, 0, UP] == pytest.approx(0.05)
    q[0, 0, UP] = 0.5
    mc_update(q, (0, 0), UP, 0.5, 0.1)
    assert q[0, 0, UP] == 0.5


def test_updates_reject_non_finite_reward():
    q = new_qtable(4)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            q_update(q, (0, 0), UP, bad, (0, 1), 0.1, 0.0)
        with pytest.raises(ValueError):
            mc_update(q, (0, 0), UP, bad, 0.1)


def test_mc_equals_q_update_at_zero_discount():
    rng = np.random.default_rng((99, 0))
    for _ in range(2000):
        start = float(rng.normal(scale=50))
        r = float(rng.normal(scale=100))
        alpha = float(rng.uniform(0.01, 1.0))
        a = new_qtable(3)
        b = new_qtable(3)
        a[1, 1, DOWN] = start
        b[1, 1, DOWN] = start
        b[2, 2, :] = rng.normal(size=4)  # bootstrap row must be irrelevant
        mc_update(a, (1, 1), DOWN, r, alpha)
        q_update(b, (1, 1), DOWN, r, (2, 2), alpha, 0.0)
        assert abs(a[1, 1, DOWN] - b[1, 1, DOWN]) <= 1e-12


def test_mc_update_converges_geometrically():
    q = new_qtable(3)
    q[0, 0, UP] = 8.0
    target = 2.0
    for k in range(1, 30):
        mc_update(q, (0, 0), UP, target, 0.1)
        assert abs(q[0, 0, UP] - target) == pytest.approx(0.9 ** k * 6.0)


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
    field = CloudField([], 20)
    outcome, after = execute_option(field, (5, 5), RIGHT, 3, 400)
    assert outcome.terminal == (8, 5)
    assert outcome.primitive_steps == 3
    assert outcome.path == ((6, 5), (7, 5), (8, 5))
    assert not outcome.clamped
    assert after.clouds == []


def test_a_free_walk_returns_the_walk_tables_outcome_and_the_callers_field():
    field = CloudField([make_cloud((15, 15), 1, 20)], 20)
    shared = option_walks(20, 4).outcomes[(5 * 20 + 5) * 4 + RIGHT]
    outcome, after = execute_option(field, (5, 5), RIGHT, 4, 400)
    assert outcome is shared and after is field
    assert execute_option(CloudField([], 20), (5, 5), RIGHT, 4, 400)[0] is shared
    # A budget that only just covers the walk builds its own, equal outcome.
    cut, _ = execute_option(field, (5, 5), RIGHT, 4, 4)
    assert cut == shared and cut is not shared
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.found_count = 1


def test_execute_option_stops_at_border():
    outcome, _ = execute_option(CloudField([], 20), (18, 5), RIGHT, 3, 400)
    assert outcome.terminal == (19, 5)
    assert outcome.primitive_steps == 1
    assert outcome.clamped


def test_execute_option_stops_on_final_collection():
    cloud = make_cloud((9, 5), 1, 20)
    field = CloudField([cloud], 20)
    outcome, after = execute_option(field, (7, 5), RIGHT, 3, 400)
    assert outcome.terminal == (9, 5)
    assert outcome.primitive_steps == 2
    assert outcome.found_count == 1
    assert after.clouds == []


def test_execute_option_collects_every_cloud_on_a_shared_cell():
    # (5, 5) lies in both supports, so entering it takes both clouds at once;
    # the caller's field keeps them.
    field = CloudField([make_cloud((5, 5), 3, 20), make_cloud((6, 5), 3, 20)], 20)
    outcome, after = execute_option(field, (5, 4), DOWN, 3, 400)
    assert outcome.found_count == 2
    assert outcome.path == ((5, 5),)
    assert after.clouds == []
    assert len(field.clouds) == 2


def test_execute_option_continues_while_clouds_remain():
    near = make_cloud((6, 5), 1, 20)
    far = make_cloud((15, 15), 1, 20)
    outcome, after = execute_option(CloudField([near, far], 20), (5, 5), RIGHT, 3, 400)
    assert outcome.found_count == 1
    assert outcome.primitive_steps == 3
    assert [c.center for c in after.clouds] == [(15, 15)]


def test_execute_option_respects_step_budget():
    outcome, _ = execute_option(CloudField([], 20), (5, 5), RIGHT, 4, 2)
    assert outcome.primitive_steps == 2
    assert outcome.terminal == (7, 5)


def test_execute_option_zero_step_when_pinned_to_wall():
    outcome, _ = execute_option(CloudField([], 20), (0, 3), LEFT, 4, 400)
    assert outcome.primitive_steps == 0
    assert outcome.path == ()
    assert outcome.terminal == (0, 3)
    assert outcome.clamped


def test_execute_option_path_is_a_straight_run():
    rng = np.random.default_rng((4, 0))
    for _ in range(200):
        x = int(rng.integers(20))
        y = int(rng.integers(20))
        d = int(rng.integers(4))
        stride = int(rng.integers(1, 7))
        outcome, _ = execute_option(CloudField([], 20), (x, y), d, stride, 400)
        assert outcome.primitive_steps <= stride
        prev = (x, y)
        for cell in outcome.path:
            assert abs(cell[0] - prev[0]) + abs(cell[1] - prev[1]) == 1
            prev = cell
        assert outcome.terminal == option_terminal(
            (x, y), d, outcome.primitive_steps, 20)


# --- visit memory


def test_record_visits_counts_path_cells():
    mem = new_visit_memory(20)
    outcome, _ = execute_option(CloudField([], 20), (5, 5), RIGHT, 3, 400)
    record_visits(mem, outcome)
    assert mem[(6, 5)] == 1 and mem[(7, 5)] == 1 and mem[(8, 5)] == 1
    assert mem.sum() == 3


def test_record_visits_empty_path_no_change():
    mem = new_visit_memory(20)
    outcome, _ = execute_option(CloudField([], 20), (0, 3), LEFT, 4, 400)
    record_visits(mem, outcome)
    # The zero-step clamp still marks its terminal once.
    assert mem[(0, 3)] == 1
    assert mem.sum() == 1


def test_record_visits_clamped_terminal_counts_twice():
    mem = new_visit_memory(20)
    outcome, _ = execute_option(CloudField([], 20), (17, 5), RIGHT, 4, 400)
    assert outcome.clamped and outcome.terminal == (19, 5)
    record_visits(mem, outcome)
    assert mem[(18, 5)] == 1
    assert mem[(19, 5)] == 2


def test_record_visits_never_decrements():
    mem = new_visit_memory(20)
    rng = make_rng(3)
    for _ in range(100):
        x = int(rng.integers(20))
        y = int(rng.integers(20))
        outcome, _ = execute_option(
            CloudField([], 20), (x, y), int(rng.integers(4)), 4, 400)
        before = mem.copy()
        record_visits(mem, outcome)
        assert (mem >= before).all()


# --- selection


def test_explore_mode_is_uniform():
    q = new_qtable(20)
    q[5, 5] = [9.0, 0.0, 0.0, 0.0]
    mem = new_visit_memory(20)
    rng = make_rng(17)
    counts = [0, 0, 0, 0]
    n = 10_000
    for _ in range(n):
        counts[select_option(q, mem, (5, 5), params(), "explore", rng)] += 1
    # Each direction is Binomial(n, 1/4); allow 3 sigma around the mean.
    sigma = (n * 0.25 * 0.75) ** 0.5
    for c in counts:
        assert abs(c - n / 4) < 3 * sigma


def test_exploit_filter_redirects_from_visited_terminal():
    q = new_qtable(20)
    q[10, 10] = [0.9, 0.8, 0.7, 0.6]
    mem = new_visit_memory(20)
    up_terminal = option_terminal((10, 10), UP, option_stride(3), 20)
    mem[up_terminal] = 1
    assert select_option(q, mem, (10, 10), params(), "exploit", None) == DOWN


def test_exploit_uniform_memory_shift_keeps_argmax():
    q = new_qtable(20)
    q[10, 10] = [0.9, 0.8, 0.7, 0.6]
    clean = new_visit_memory(20)
    shifted = new_visit_memory(20)
    for d in range(4):
        shifted[option_terminal((10, 10), d, option_stride(3), 20)] = 1
    assert (select_option(q, clean, (10, 10), params(), "exploit", None)
            == select_option(q, shifted, (10, 10), params(), "exploit", None)
            == UP)


def test_exploit_tie_break_order():
    q = new_qtable(20)
    mem = new_visit_memory(20)
    assert select_option(q, mem, (10, 10), params(), "exploit", None) == UP
    q[10, 10] = [0.0, 1.0, 1.0, 0.0]
    assert select_option(q, mem, (10, 10), params(), "exploit", None) == DOWN


def test_exploit_terminal_uses_full_stride():
    # One decision spans option_length + 1 cells, so the filter must look
    # that far ahead, not option_length cells.
    q = new_qtable(20)
    q[10, 10] = [0.0, 0.0, 0.0, 1.0]
    mem = new_visit_memory(20)
    mem[14, 10] = 1  # stride-4 terminal of moving right
    assert select_option(q, mem, (10, 10), params(), "exploit", None) == UP
    mem[14, 10] = 0
    mem[13, 10] = 1  # three cells out: not the terminal, no penalty
    assert select_option(q, mem, (10, 10), params(), "exploit", None) == RIGHT


def test_strong_filter_prefers_any_unvisited_terminal():
    rng = np.random.default_rng((21, 0))
    for _ in range(500):
        q = new_qtable(9)
        q[:] = rng.uniform(-1.0, 1.0, size=q.shape)
        mem = new_visit_memory(9)
        mem[:] = rng.integers(0, 3, size=mem.shape)
        x = int(rng.integers(9))
        y = int(rng.integers(9))
        q_range = float(q.max() - q.min())
        p = params(mof_value=q_range + 1.0, option_length=2)
        chosen = select_option(q, mem, (x, y), p, "exploit", None)
        terminals = [option_terminal((x, y), d, option_stride(2), 9)
                     for d in range(4)]
        visited = [mem[t] > 0 for t in terminals]
        if not all(visited):
            assert not visited[chosen]


def test_binary_memory_caps_repeat_penalty():
    q = new_qtable(20)
    q[10, 10] = [0.0, 5.0, 0.0, 0.0]
    mem = new_visit_memory(20)
    mem[option_terminal((10, 10), DOWN, option_stride(3), 20)] = 3
    # Counting memory: penalty 30 sinks the 5.0 entry.
    assert select_option(q, mem, (10, 10), params(), "exploit", None) == UP
    # Binary memory: penalty capped at 10, 5.0 - 10 < 0 still loses.
    assert select_option(q, mem, (10, 10), params(binary=True), "exploit", None) == UP
    q[10, 10, DOWN] = 15.0
    assert select_option(q, mem, (10, 10), params(binary=True), "exploit", None) == DOWN


def test_select_option_rejects_unknown_mode():
    with pytest.raises(ValueError):
        select_option(new_qtable(4), new_visit_memory(4), (0, 0), params(),
                      "greedy", None)


# --- persistence


def test_qtable_csv_roundtrip_six_digit_fidelity(tmp_path):
    rng = np.random.default_rng((8, 0))
    q = new_qtable(6)
    q[:] = rng.normal(scale=30.0, size=q.shape)
    path = tmp_path / "qtable.csv"
    write_qtable_csv(path, q)
    back = read_qtable_csv(path)
    assert back.shape == q.shape
    assert np.allclose(back, q, rtol=1e-5, atol=1e-7)


def test_qtable_csv_write_is_byte_stable(tmp_path):
    rng = np.random.default_rng((8, 0))
    q = new_qtable(6)
    q[:] = rng.normal(scale=30.0, size=q.shape)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_qtable_csv(first, q)
    write_qtable_csv(second, read_qtable_csv(first))
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.startswith("x,y,direction,value\n")
    assert "\r" not in text


def test_qtable_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        read_qtable_csv(path)

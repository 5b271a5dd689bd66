"""The episode loops and the per-center tables against the reference code
in oracle.py, byte for byte.

Random settings cover the grid, cloud size and count, step budget,
option length, attempts per episode, memory weight (0 included) and
kind, discount (0 and positive) and learning window.  Tables with ties,
zeros and walls make episodes that clamp at the border and episodes
that the decision cap ends.

The package's learners keep cells as ints x * grid_length + y; the option
learner keeps its table as a flat list and the demos as one list of four
values per cell.  The reference keeps (x, y) cells and arrays.  The tests
translate between the two where they compare them.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hmc_search import training
from hmc_search.baselines import PatternPath, center_hits
from hmc_search.env import (DELTAS, CloudField, WordTape, make_cloud, make_rng, move,
                            spawn_clouds)
from hmc_search.evalharness import agent_route
from hmc_search.policy import (
    OptionOutcome,
    execute_option,
    mc_update,
    option_stride,
    option_terminal,
    option_terminals,
    option_walks,
    q_update,
    record_visits,
    select_option,
)
from hmc_search.training import (
    Hyperparams,
    dynamic_demo,
    run_episode,
    static_demo,
    train_agent,
)


def draw_hp(data, max_length=10, **fixed) -> Hyperparams:
    length = data.draw(st.integers(2, max_length), label="grid_length")
    settings_ = dict(
        grid_length=length,
        pollution_diameter=data.draw(st.integers(1, min(length, 5)), label="diameter"),
        max_steps=data.draw(st.integers(1, 60), label="max_steps"),
        option_length=data.draw(st.integers(1, 4), label="option_length"),
        num_clouds=data.draw(st.integers(1, 4), label="num_clouds"),
        best_learn_value=data.draw(st.integers(1, 3), label="best_learn_value"),
        mof_value=data.draw(st.sampled_from([0.0, 0.5, 10.0]), label="mof_value"),
        discount_rate=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="discount_rate"),
        stop_learn_value=data.draw(st.sampled_from([0.3, 0.5, 1.0]), label="stop_learn_value"),
        num_episodes=data.draw(st.integers(1, 25), label="num_episodes"),
    )
    settings_.update(fixed)
    return Hyperparams(**settings_)


def draw_table(data, length):
    """A value table: normal values, small-integer ties, zeros, or a wall
    pull (up and left best everywhere, so options clamp at the border)."""
    rng = np.random.default_rng((data.draw(st.integers(0, 2**32 - 1), label="table seed"), 0))
    q = np.zeros((length, length, 4))
    kind = data.draw(st.sampled_from(["normal", "ties", "zeros", "wall"]), label="table")
    if kind == "normal":
        q[:] = rng.normal(size=q.shape)
    elif kind == "ties":
        q[:] = rng.integers(0, 2, size=q.shape)
    elif kind == "wall":
        q[:, :, 0] = 1.0
        q[:, :, 2] = 1.0
    return q


def draw_field(data, hp):
    count = data.draw(st.integers(0, 4), label="clouds")
    centers = data.draw(st.lists(st.tuples(st.integers(0, hp.grid_length - 1),
                                           st.integers(0, hp.grid_length - 1)),
                                 min_size=count, max_size=count), label="centers")
    return CloudField([x * hp.grid_length + y for x, y in centers], hp.grid_length,
                      hp.pollution_diameter)


def flat(q):
    """A (grid_length, grid_length, 4) table as the learners' flat list q[cell * 4 + d]."""
    return q.ravel().tolist()


def demo_moves(length):
    """The demos' stride-1 moves: the four destination cells of each cell."""
    ends = option_terminals(length, 1)
    return [ends[k:k + 4] for k in range(0, len(ends), 4)]


def as_points(outcome, length):
    """An OptionOutcome as the reference's Outcome, in (x, y) cells."""
    return oracle.Outcome(tuple(divmod(c, length) for c in outcome.path),
                          outcome.primitive_steps, outcome.found_count,
                          divmod(outcome.terminal, length), outcome.clamped)


def surviving(clouds, alive):
    """The clouds whose bit is set in alive, in order."""
    return [cloud for i, cloud in enumerate(clouds) if alive >> i & 1]


def decode(key, length):
    """A table key cell * 4 + direction as the reference's ((x, y), direction)."""
    cell, direction = divmod(key, 4)
    return divmod(cell, length), direction


def trajectory_key(traj, length=None):
    """The trajectory as text, all but its route; with a length, its table
    keys are decoded as the reference's ((x, y), direction) pairs and its
    final cell read as (x, y).  The reference's final cell is its cells[-1]."""
    transitions, final = traj.transitions, traj.final
    if length is not None:
        transitions = [decode(key, length) for key in transitions]
        final = divmod(final, length)
    return repr((transitions, final, traj.n_step, traj.n_poll, traj.r_t, traj.capped))


def route_points(traj, length):
    """An eval trajectory's route, its cell ints read as (x, y)."""
    return [divmod(cell, length) for cell in traj.cells]


# --- the per-center tables


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_center_hits_equal_a_first_hit_per_center(data):
    length = data.draw(st.integers(1, 30), label="grid_length")
    diameter = data.draw(st.integers(1, length), label="diameter")
    cell = data.draw(st.tuples(st.integers(0, length - 1), st.integers(0, length - 1)),
                     label="start")
    cells = [cell]
    for direction in data.draw(st.lists(st.integers(0, 3), max_size=60), label="moves"):
        cell = move(cell, direction, length)[0]  # a bump stays in place, as a demo route does
        cells.append(cell)
    path = PatternPath(tuple(cells), "route", first=data.draw(st.integers(0, 1), label="first"))
    # Budgets shorter than the route turn its later hits into misses.
    budget = data.draw(st.integers(1, len(cells) + 1), label="max_steps")
    expected = [hit if hit is not None and hit <= budget else None
                for hit in oracle.center_hits(path, length, diameter)]
    assert center_hits(path, length, diameter, budget) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spawned_clouds_are_two_draws_and_make_cloud_each(data):
    length = data.draw(st.integers(1, 30), label="grid_length")
    diameter = data.draw(st.integers(1, length), label="diameter")
    count = data.draw(st.integers(1, 5), label="count")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    tape, reference = oracle.Tape(make_rng(seed)), oracle.Tape(make_rng(seed))
    # Odd numbers of earlier 32-bit draws leave a buffered half word.
    for _ in range(data.draw(st.integers(0, 3), label="earlier draws")):
        tape.integers(7)
        reference.integers(7)
    field = spawn_clouds(length, diameter, count, tape.tape)
    expected = []
    for _ in range(count):
        x = reference.integers(length)
        y = reference.integers(length)
        expected.append(x * length + y)
    assert (field.clouds, field.grid_length, field.diameter) == (expected, length, diameter)
    # The field's tables are those of make_cloud at each center.
    assert (list(field.masks), field.levels) == oracle.stamp(field)
    assert (tape.used, tape.half) == (reference.used, reference.half)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_table_stamps_equal_support_stamps(data):
    length = data.draw(st.integers(1, 16), label="grid_length")
    diameter = data.draw(st.integers(1, length), label="diameter")
    centers = data.draw(st.lists(st.integers(0, length * length - 1), max_size=6),
                        label="centers")
    field = CloudField(centers, length, diameter)
    assert (list(field.masks), field.levels) == oracle.stamp(field)


# --- the walk table and the per-decision steps


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6))
def test_walks_stop_at_the_border_and_end_on_the_terminal(length, stride):
    walks = option_walks(length, stride)
    for x in range(length):
        for y in range(length):
            for d in range(4):
                walk = walks[(x * length + y) * 4 + d]
                room = (y, length - 1 - y, x, length - 1 - x)[d]
                n = min(stride, room)
                dx, dy = DELTAS[d]
                assert [divmod(cell, length) for cell in walk.path] == \
                    [(x + dx * i, y + dy * i) for i in range(1, n + 1)]
                tx, ty = option_terminal((x, y), d, stride, length)
                # The outcome of the full walk on a field that it misses.
                assert walk == OptionOutcome(walk.path, n, 0, tx * length + ty, n < stride)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_per_decision_steps_match_the_reference(data):
    hp = draw_hp(data)
    length = hp.grid_length
    field = draw_field(data, hp)
    pos = data.draw(st.tuples(st.integers(0, length - 1), st.integers(0, length - 1)),
                    label="pos")
    direction = data.draw(st.integers(0, 3), label="direction")
    stride = data.draw(st.integers(1, 6), label="stride")
    budget = data.draw(st.integers(-1, 8), label="steps_remaining")
    cell = pos[0] * length + pos[1]
    outcome, alive = execute_option(field.masks, (1 << len(field.clouds)) - 1, cell,
                                    option_walks(length, stride)[cell * 4 + direction], budget)
    clouds = oracle.clouds_of(field)
    expected, expected_after = oracle.execute_option(clouds, length, pos, direction, stride,
                                                     budget)
    assert as_points(outcome, length) == expected
    assert surviving(clouds, alive) == expected_after

    reference = np.zeros((length, length), dtype=np.int64)
    mem_rng = np.random.default_rng((data.draw(st.integers(0, 2**32 - 1)), 0))
    reference[:] = mem_rng.integers(0, 3, size=reference.shape)
    mem = reference.ravel().tolist()
    record_visits(mem, outcome)
    oracle.record_visits(reference, expected)
    assert mem == reference.ravel().tolist()

    q = draw_table(data, length)
    ends = option_terminals(length, option_stride(hp.option_length))
    assert select_option(flat(q), mem, cell, ends, "exploit", None, hp.mof_value) == \
        oracle.select_option(q, reference, pos, hp, "exploit", None)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_execute_option_narrows_alive_as_the_reference_drops_clouds(data):
    # The reference walks a field of the live clouds alone; the package
    # walks the whole field under a mask of them.
    length = data.draw(st.integers(2, 10), label="grid_length")
    diameter = data.draw(st.integers(1, min(length, 5)), label="diameter")
    count = data.draw(st.integers(1, 6), label="clouds")
    # Centers from a small block, so that clouds overlap and share centers.
    span = data.draw(st.integers(1, length), label="center span")
    centers = data.draw(st.lists(st.tuples(st.integers(0, span - 1), st.integers(0, span - 1)),
                                 min_size=count, max_size=count), label="centers")
    field = CloudField([x * length + y for x, y in centers], length, diameter)
    clouds = oracle.clouds_of(field)
    alive = data.draw(st.integers(0, (1 << count) - 1), label="alive")
    pos = data.draw(st.tuples(st.integers(0, length - 1), st.integers(0, length - 1)),
                    label="pos")
    direction = data.draw(st.integers(0, 3), label="direction")
    stride = data.draw(st.integers(1, 6), label="stride")
    budget = stride + data.draw(st.integers(-2, 2), label="budget - stride")
    cell = pos[0] * length + pos[1]
    outcome, left = execute_option(field.masks, alive, cell,
                                   option_walks(length, stride)[cell * 4 + direction], budget)
    expected, expected_after = oracle.execute_option(
        surviving(clouds, alive), length, pos, direction, stride, budget)
    assert as_points(outcome, length) == expected
    assert left & ~alive == 0
    assert surviving(clouds, left) == expected_after


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_table_updates_match_the_reference(data):
    length = data.draw(st.integers(1, 6))
    q = draw_table(data, length)
    cell = st.tuples(st.integers(0, length - 1), st.integers(0, length - 1))
    s, s_next = data.draw(cell), data.draw(cell)
    o = data.draw(st.integers(0, 3))
    r = data.draw(st.floats(-100, 100))
    alpha = data.draw(st.floats(0.01, 1.0))
    gamma = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    rows = flat(q)  # the flat list train_agent keeps
    cell, cell_next = s[0] * length + s[1], s_next[0] * length + s_next[1]
    for update, reference, args, flat_args in (
            (q_update, oracle.td_update, (s, o, r, s_next, alpha, gamma),
             ([cell * 4 + o], r, cell_next, alpha, gamma)),
            (mc_update, oracle.mc_update, (s, o, r, alpha), ([cell * 4 + o], r, alpha))):
        reference(q, *args)
        update(rows, *flat_args)
        assert np.array(rows, dtype=np.float64).tobytes() == q.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trajectory_backups_match_the_reference_one_transition_at_a_time(data):
    # Keys drawn from a few cells repeat, and a state's own row may be the
    # bootstrap row of another transition.
    length = data.draw(st.integers(1, 4), label="grid_length")
    q = draw_table(data, length)
    cell = st.integers(0, min(length * length, 3) - 1)
    transitions = data.draw(st.lists(st.tuples(cell, st.integers(0, 3)), max_size=12),
                            label="transitions")
    final = data.draw(cell, label="final")
    r = data.draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100, 100)), label="r")
    alpha = data.draw(st.floats(0.01, 1.0), label="alpha")
    gamma = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="gamma")
    keys = [s * 4 + o for s, o in transitions]  # what a trajectory records
    points = [(divmod(s, length), o) for s, o in transitions]
    states = [s for s, _ in points] + [divmod(final, length)]
    td, mc = q.copy(), q.copy()
    for i, (s, o) in enumerate(points):
        oracle.td_update(td, s, o, r, states[i + 1], alpha, gamma)
        oracle.mc_update(mc, s, o, r, alpha)
    rows = flat(q)
    assert q_update(rows, keys, r, final, alpha, gamma) is rows
    assert np.array(rows, dtype=np.float64).tobytes() == td.tobytes()
    rows = flat(q)
    assert mc_update(rows, keys, r, alpha) is rows
    assert np.array(rows, dtype=np.float64).tobytes() == mc.tobytes()
    # A non-finite return raises before the first write.
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="bad return")
    rows = flat(q)
    with pytest.raises(ValueError):
        q_update(rows, keys, bad, final, alpha, gamma)
    with pytest.raises(ValueError):
        mc_update(rows, keys, bad, alpha)
    assert np.array(rows, dtype=np.float64).tobytes() == q.tobytes()


# --- whole episodes, training and the demos


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_train_agent_matches_the_reference(data):
    hp = draw_hp(data)
    seed = data.draw(st.integers(0, 2**31), label="seed")
    report = train_agent(hp, seed)
    q, records, capped = oracle.train_agent(hp, seed)
    assert report.q.tobytes() == q.tobytes()
    assert repr(report.records) == repr(records)
    assert report.decision_cap_exits == capped


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eval_episodes_and_routes_match_the_reference(data):
    hp = draw_hp(data)
    q = draw_table(data, hp.grid_length)
    field = draw_field(data, hp)
    length = hp.grid_length
    traj = run_episode(flat(q), hp, "eval", None, field=field)
    expected = oracle.run_episode(q, hp, "eval", None, clouds=oracle.clouds_of(field))
    # Each decision is recorded as its table key, an int, not as a pair.
    assert all(type(key) is int and decode(key, length) == pair
               for key, pair in zip(traj.transitions, expected.transitions, strict=True))
    assert trajectory_key(traj, length) == trajectory_key(expected)
    assert route_points(traj, length) == expected.cells
    seed = data.draw(st.integers(0, 2**31), label="seed")
    # The tape and numpy's Generator spawn the same cloud for a seed.
    spawned = spawn_clouds(length, hp.pollution_diameter, 1, make_rng(seed))
    reference = spawn_clouds(length, hp.pollution_diameter, 1, np.random.default_rng((seed, 0)))
    traj = run_episode(flat(q), hp, "eval", None, field=spawned)
    expected = oracle.run_episode(q, hp, "eval", None, clouds=oracle.clouds_of(reference))
    assert trajectory_key(traj, length) == trajectory_key(expected)
    assert route_points(traj, length) == expected.cells
    assert agent_route(flat(q), hp) == oracle.agent_route(q, hp)


@pytest.mark.parametrize("skip", [1020, 1021, 1022, 1023, 1024])
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("epsilon", [1.0, 0.5])
def test_training_episodes_read_the_tape_across_a_block_end(skip, buffered, epsilon):
    # The tape reads 1024-word blocks.  Skipping up to its end puts an
    # epsilon word or an explore draw on a block's last word, with and
    # without a buffered half; the reference calls the oracle's random() and
    # the tape's integers(4) where the episode reads the words itself.
    hp = Hyperparams(grid_length=8, pollution_diameter=1, max_steps=60, num_clouds=2)
    field = CloudField([7 * 8 + 7, 3 * 8 + 6], 8, 1)
    q = np.zeros((8, 8, 4))
    q[:] = np.random.default_rng((5, 0)).normal(size=q.shape)  # no wall pull: many decisions
    tape, reference = oracle.Tape(make_rng(2)), oracle.Tape(make_rng(2))
    for t in (tape, reference):
        for _ in range(skip - buffered):
            t.random()
        if buffered:
            t.integers(7)
    traj = run_episode(flat(q), hp, "train", tape.tape, field=field, epsilon=epsilon)
    expected = oracle.run_episode(q, hp, "train", reference, clouds=oracle.clouds_of(field),
                                  epsilon=epsilon)
    assert trajectory_key(traj, 8) == trajectory_key(expected)
    assert (tape.used, tape.half) == (reference.used, reference.half)
    assert tape.used > 1024


def boundary_tape(p):
    """A tape whose raw words alternate between the last word that draws
    random() < p and the first that does not, as an oracle.Tape."""
    bound = math.ceil(p * 2**53) << 11
    words = itertools.cycle([bound - 1, bound])
    return oracle.Tape(
        WordTape(lambda n: np.array([next(words) for _ in range(n)], dtype=np.uint64)))


@pytest.mark.parametrize("epsilon", [0.5, 0.1])
def test_episodes_on_the_boundary_words_explore_as_the_reference(epsilon):
    # Random words almost never land on the bound; here every epsilon word
    # does, or lies just below it.  The reference calls the oracle's random().
    hp = Hyperparams(grid_length=8, pollution_diameter=1, max_steps=60, num_clouds=2,
                     discount_rate=0.5)
    field = CloudField([7 * 8 + 7, 3 * 8 + 6], 8, 1)
    clouds = oracle.clouds_of(field)
    q = np.zeros((8, 8, 4))
    q[:] = np.random.default_rng((5, 0)).normal(size=q.shape)
    tape, reference = boundary_tape(epsilon), boundary_tape(epsilon)
    traj = run_episode(flat(q), hp, "train", tape.tape, field=field, epsilon=epsilon)
    expected = oracle.run_episode(q, hp, "train", reference, clouds=clouds, epsilon=epsilon)
    assert trajectory_key(traj, 8) == trajectory_key(expected)
    assert {key & 3 for key in traj.transitions} == {0, 1, 2, 3}
    assert (tape.used, tape.half) == (reference.used, reference.half)
    rows, moves = q.reshape(-1, 4).tolist(), demo_moves(8)
    for _ in range(3):
        training._demo_episode(rows, hp, field.levels, moves, epsilon, tape.tape)
        oracle.demo_episode(q, hp, clouds, epsilon, reference, learn=True)
        assert np.array(rows).tobytes() == q.tobytes()
        assert (tape.used, tape.half) == (reference.used, reference.half)


def test_a_demo_episode_at_epsilon_zero_reads_no_tape_word():
    tape = oracle.Tape(make_rng(4))
    tape.integers(7)  # leave a buffered half, which must survive too
    before = (tape.used, tape.half)
    hp = Hyperparams(grid_length=8, pollution_diameter=1, max_steps=60)
    training._demo_episode([[0.0] * 4 for _ in range(64)], hp, [0.0] * 64, demo_moves(8),
                           0.0, tape.tape)
    assert (tape.used, tape.half) == before


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_demo_episodes_on_tied_tables_match_the_reference(data):
    # Every value is one of four, so most rows hold ties, many of them not
    # at zero: the greedy step must take the first maximum, and after a wall
    # bump (every move on a one-cell grid) rescan the row it just wrote.
    length = data.draw(st.integers(1, 6), label="grid_length")
    hp = Hyperparams(
        grid_length=length,
        pollution_diameter=data.draw(st.integers(1, length), label="diameter"),
        max_steps=data.draw(st.integers(1, 40), label="max_steps"),
        learning_rate=data.draw(st.sampled_from([0.5, 1.0]), label="learning_rate"),
        discount_rate=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="discount_rate"))
    values = data.draw(st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0]),
                                min_size=length * length * 4, max_size=length * length * 4),
                       label="values")
    center = data.draw(st.integers(0, length * length - 1), label="center")
    epsilons = data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1, max_size=4),
                         label="epsilons")
    seed = data.draw(st.integers(0, 2**31), label="seed")
    field = CloudField([center], length, hp.pollution_diameter)
    q = np.reshape(values, (length, length, 4))
    rows, moves = q.reshape(-1, 4).tolist(), demo_moves(length)
    tape, reference = oracle.Tape(make_rng(seed)), oracle.Tape(make_rng(seed))
    for epsilon in epsilons:
        training._demo_episode(rows, hp, field.levels, moves, epsilon, tape.tape)
        oracle.demo_episode(q, hp, oracle.clouds_of(field), epsilon, reference, learn=True)
        assert np.array(rows).tobytes() == q.tobytes()
        assert (tape.used, tape.half) == (reference.used, reference.half)


def test_training_stamps_each_spawned_field_once(monkeypatch):
    # Every attempt of an episode walks the one spawned field under its own
    # bitmask, so train_heavy's settings stamp masks once per episode.
    stamps = []
    stamp = CloudField.masks.func

    def counted(field):
        stamps.append(len(field.clouds))
        return stamp(field)

    monkeypatch.setattr(CloudField.masks, "func", counted)
    hp = Hyperparams(num_clouds=3, best_learn_value=3)
    train_agent(hp, 0)
    assert stamps == [3] * hp.num_episodes


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_demos_match_the_reference(data):
    hp = draw_hp(data, learning_rate=data.draw(st.sampled_from([0.1, 0.5, 1.0])))
    seed = data.draw(st.integers(0, 2**31), label="seed")
    n = data.draw(st.integers(1, 30), label="n_episodes")
    snaps = (0, 1, n // 2, n)
    assert oracle.snapshot_bytes(static_demo(hp, seed, n_episodes=n, snapshot_episodes=snaps)) \
        == oracle.snapshot_bytes(oracle.static_demo(hp, seed, n, snaps))
    snapshots, mean = dynamic_demo(hp, seed, n_episodes=n, snapshot_episodes=snaps,
                                   n_eval_episodes=20)
    expected, expected_mean = oracle.dynamic_demo(hp, seed, n, snaps, 20)
    assert oracle.snapshot_bytes(snapshots) == oracle.snapshot_bytes(expected)
    assert repr(mean) == repr(expected_mean)


@pytest.mark.parametrize("hp, seed", [
    (Hyperparams(discount_rate=0.9), 0), (Hyperparams(discount_rate=0.9), 3),
    (Hyperparams(), 0), (Hyperparams(), 3)])
def test_demos_on_the_default_grid_match_the_reference(hp, seed):
    # The drawn settings above stay at 10 cells; these run the default
    # 20 x 20 grid and its 400-step budget, with and without a discount.
    snaps = (0, 1, 20, 40)
    assert oracle.snapshot_bytes(static_demo(hp, seed, n_episodes=40, snapshot_episodes=snaps)) \
        == oracle.snapshot_bytes(oracle.static_demo(hp, seed, 40, snaps))
    snapshots, mean = dynamic_demo(hp, seed, n_episodes=40, snapshot_episodes=snaps,
                                   n_eval_episodes=20)
    expected, expected_mean = oracle.dynamic_demo(hp, seed, 40, snaps, 20)
    assert oracle.snapshot_bytes(snapshots) == oracle.snapshot_bytes(expected)
    assert repr(mean) == repr(expected_mean)


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_a_demo_step_after_a_wall_bump_sees_the_value_just_written(gamma):
    # Up is best at the start, so the first greedy step bumps the top wall
    # and stays.  Its update drops that value below down's 0.5, so the
    # second greedy step must go down, not up again.
    hp = Hyperparams(grid_length=3, pollution_diameter=1, max_steps=2,
                     learning_rate=1.0, discount_rate=gamma)
    rows = [[0.0] * 4 for _ in range(9)]
    rows[0][0:2] = [1.0, 0.5]
    training._demo_episode(rows, hp, [0.0] * 9, demo_moves(3), 0.0, make_rng(0))
    expected = [[0.0] * 4 for _ in range(9)]
    expected[0][0] = 1.0 + 1.0 * (0.0 + gamma * 1.0 - 1.0)  # q_update's backup of the bump
    assert rows == expected  # and down, taken second, earned 0 from an all-zero row


# --- decision-cap exits are recorded


def test_a_wall_bound_greedy_episode_is_capped():
    # Ties pick up, which clamps at the start without a step; with no
    # memory weight nothing turns the agent away until the cap.
    hp = Hyperparams(grid_length=6, pollution_diameter=1, max_steps=10, mof_value=0.0)
    traj = run_episode([0.0] * (6 * 6 * 4), hp, "eval", None,
                       field=CloudField([5 * 6 + 5], 6, 1))
    assert traj.capped
    assert traj.n_step == 0 and len(traj.transitions) == 8 * 10 + 32
    assert traj.cells == [0]  # START


def test_episodes_ended_by_a_find_or_the_budget_are_not_capped():
    hp = Hyperparams(grid_length=6, pollution_diameter=1, max_steps=10)
    q = np.zeros((6, 6, 4))
    q[:, :, 1] = 1.0  # straight down from the start
    q = flat(q)
    found = run_episode(q, hp, "eval", None, field=CloudField([0 * 6 + 3], 6, 1))
    assert (found.n_poll, found.n_step, found.capped) == (1, 3, False)
    spent = run_episode(q, hp, "eval", None, field=CloudField([], 6, 1))
    assert spent.n_step == hp.max_steps and not spent.capped


def test_train_report_counts_every_capped_attempt():
    hp = Hyperparams(grid_length=6, pollution_diameter=1, max_steps=10, num_episodes=4,
                     best_learn_value=2, epsilon_start=0.0, mof_value=0.0)
    report = train_agent(hp, 0)
    assert report.decision_cap_exits == 4 * 2
    assert all(r.n_step == 0 and r.n_poll == 0 for r in report.records)
    assert train_agent(Hyperparams(grid_length=6, pollution_diameter=1, max_steps=10,
                                   num_episodes=4), 0).decision_cap_exits == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_tables_are_stamped_apart_on_first_read(data):
    length = data.draw(st.integers(1, 12), label="grid_length")
    diameter = data.draw(st.integers(1, length), label="diameter")
    centers = data.draw(st.lists(st.integers(0, length * length - 1), max_size=5),
                        label="centers")
    expected_masks, expected_levels = oracle.stamp(CloudField(centers, length, diameter))
    for first, second in (("masks", "levels"), ("levels", "masks")):
        field = CloudField(list(centers), length, diameter)
        table = getattr(field, first)
        assert second not in vars(field)  # reading one table stamps no other
        assert getattr(field, first) is table
        assert getattr(field, second) is getattr(field, second)
    assert (list(field.masks), field.levels) == (expected_masks, expected_levels)


def test_fields_stamp_masks_and_levels_once():
    field = spawn_clouds(8, 3, 3, make_rng(5))
    assert field.masks is field.masks and field.levels is field.levels
    clouds = [make_cloud(divmod(center, 8), 3, 8) for center in field.clouds]
    for cell, (mask, level) in enumerate(zip(field.masks, field.levels)):
        pos = divmod(cell, 8)
        covering = [i for i, c in enumerate(clouds) if pos in c]
        assert mask == sum(1 << i for i in covering)
        assert level == max([clouds[i][pos] for i in covering], default=0.0)
        assert (level > 0.0) == bool(covering)

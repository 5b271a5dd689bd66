"""Tour of the search world mechanics: grid, clouds, sensing, options, memory.

Walks through the building blocks one at a time and prints what each
returns, so the output reads as a guided tour of the simulator.
"""
import argparse

from hmc_search import (
    DIRECTION_NAMES,
    RIGHT,
    START,
    Hyperparams,
    execute_option,
    make_rng,
    option_stride,
    select_option,
    sense,
    spawn_clouds,
)


def show_field(field, grid_length):
    rows = []
    for y in range(grid_length):
        line = []
        for x in range(grid_length):
            level = sense(field, (x, y))
            line.append("." if level == 0 else str(min(9, int(level * 10))))
        rows.append("".join(line))
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    hp = Hyperparams()
    print(f"grid {hp.grid_length}x{hp.grid_length}, "
          f"cloud diameter {hp.pollution_diameter}, "
          f"step budget {hp.max_steps}, start {START}")

    rng = make_rng(args.seed)
    field = spawn_clouds(hp.grid_length, hp.pollution_diameter, 3, rng)
    print(f"\nspawned {len(field.clouds)} clouds at "
          f"{[c.center for c in field.clouds]}")
    print("sensed intensity per cell (tenths, . = zero):")
    print(show_field(field, hp.grid_length))

    cloud = field.clouds[0]
    cx, cy = cloud.center
    profile = [round(sense(field, (x, cy)), 3)
               for x in range(max(0, cx - 3), min(hp.grid_length, cx + 4))]
    print(f"\nintensity along the row through {cloud.center}: {profile}")
    print(f"cells in that cloud: {len(cloud.support)}")

    # Inside the learners a cell is the int x * grid_length + y, and the
    # value table and visit memory are flat lists indexed by it.
    length = hp.grid_length
    stride = option_stride(hp.option_length)
    print(f"\none decision commits to a direction for {stride} cells "
          f"(first move plus {hp.option_length} repeats)")
    # An episode keeps the clouds still to be found as a bitmask over
    # field.clouds; the walk clears the bit of every cloud it enters.
    start = START[0] * length + START[1]
    alive = (1 << len(field.clouds)) - 1
    outcome, alive = execute_option(field, alive, start, RIGHT, stride, hp.max_steps)
    print(f"walking {DIRECTION_NAMES[RIGHT]} from {START}: "
          f"path {[divmod(cell, length) for cell in outcome.path]}, "
          f"ended at {divmod(outcome.terminal, length)}, "
          f"clouds collected {outcome.found_count}, "
          f"{alive.bit_count()} still to find")

    # A visited end cell is penalized at decision time, steering the
    # next option elsewhere even though all values are equal.
    q = [0.0] * (length * length * 4)
    mem = [0] * (length * length)
    for cell in outcome.path:
        mem[cell] += 1
    pos = outcome.terminal
    choice = select_option(q, mem, pos, hp, "exploit", None)
    print(f"\nafter marking that walk in memory, the greedy choice at "
          f"{divmod(pos, length)} turns {DIRECTION_NAMES[choice]}")
    counted = sum(1 for visits in mem if visits)
    print(f"memory now marks {counted} cells; it resets at every episode "
          "start and never changes the value table")


if __name__ == "__main__":
    main()

"""Tour of the search world mechanics: grid, clouds, sensing, options, memory.

Walks through the building blocks one at a time and prints what each
returns, so the output reads as a guided tour of the simulator.  The
option story is told from one greedy episode's trajectory.
"""
import argparse

from hmc_search import (
    DIRECTION_NAMES,
    START,
    Hyperparams,
    make_cloud,
    make_rng,
    option_stride,
    run_episode,
    spawn_clouds,
)


def show_field(field, grid_length):
    rows = []
    for y in range(grid_length):
        line = []
        for x in range(grid_length):
            level = field.levels[x * grid_length + y]
            line.append("." if level == 0 else str(min(9, int(level * 10))))
        rows.append("".join(line))
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error(f"argument --seed: expected an integer >= 0, got {args.seed}")

    hp = Hyperparams()
    print(f"grid {hp.grid_length}x{hp.grid_length}, "
          f"cloud diameter {hp.pollution_diameter}, "
          f"step budget {hp.max_steps}, start {START}")

    rng = make_rng(args.seed)
    field = spawn_clouds(hp.grid_length, hp.pollution_diameter, 3, rng)
    length = hp.grid_length
    print(f"\nspawned {len(field.clouds)} clouds at "
          f"{[divmod(c, length) for c in field.clouds]}")
    print("sensed intensity per cell (tenths, . = zero):")
    print(show_field(field, hp.grid_length))

    # A field holds its clouds as center cells, and a cell is the int
    # x * grid_length + y; levels holds what the agent senses on each.
    cloud = make_cloud(divmod(field.clouds[0], length), hp.pollution_diameter, length)
    cx, cy = cloud.center
    profile = [round(field.levels[x * length + cy], 3)
               for x in range(max(0, cx - 3), min(length, cx + 4))]
    print(f"\nintensity along the row through {cloud.center}: {profile}")
    print(f"cells in that cloud: {len(cloud.support)}")

    stride = option_stride(hp.option_length)
    print(f"\none decision commits to a direction for {stride} cells "
          f"(first move plus {hp.option_length} repeats)")
    # With an all-zero value table every option ties, so only the visit
    # memory steers the greedy agent: a visited end cell is penalized at
    # decision time, and the next option turns elsewhere.
    q = [0.0] * (length * length * 4)
    traj = run_episode(q, hp, "eval", None, field=field)
    starts = [cell for cell, _ in traj.transitions]
    ends = starts[1:] + [traj.cells[-1]]
    print("the greedy episode's first decisions on that field:")
    for (cell, direction), end in list(zip(traj.transitions, ends))[:6]:
        print(f"  at {divmod(cell, length)} walk {DIRECTION_NAMES[direction]}, "
              f"ending at {divmod(end, length)}")
    print(f"it made {len(traj.transitions)} decisions in {traj.n_step} steps "
          f"and stood on {len(traj.cells)} cells, start included, "
          f"{len(set(traj.cells))} of them distinct")
    print(f"it found {traj.n_poll} of {len(field.clouds)} clouds, "
          f"a trajectory return of {traj.r_t:.3f}")
    print("the memory resets at every episode start and never changes the value table")


if __name__ == "__main__":
    main()

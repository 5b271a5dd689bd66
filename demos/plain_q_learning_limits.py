"""What plain per-step Q-learning can and cannot do on this task.

Part one trains against a cloud that never moves: with a positive
discount the learned values grow a connected positive corridor from the
start to the cloud.  Part two respawns the cloud every episode: the
same learner then has nothing stable to latch onto and its greedy
policy misses most clouds, which is the failure that motivates the
option-based agent.
"""
import argparse

from hmc_search import (
    Hyperparams,
    dynamic_demo,
    make_cloud,
    make_rng,
    spawn_clouds,
    static_demo,
)


def positive_component_from_start(grid, length):
    """Cells joined to the start by positive values; grid is flat, x * length + y."""
    if grid[0] <= 0:
        return set()
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < length and 0 <= ny < length \
                    and (nx, ny) not in seen and grid[nx * length + ny] > 0:
                seen.add((nx, ny))
                frontier.append((nx, ny))
    return seen


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--discount", type=float, default=0.9,
                        help="discount for the fixed-cloud part")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error(f"argument --seed: expected an integer >= 0, got {args.seed}")
    try:
        fixed_hp = Hyperparams(discount_rate=args.discount)
    except ValueError as err:
        parser.error(f"argument --discount: {err}")
    print(f"fixed cloud, discount {args.discount}, seed {args.seed}:")
    snapshots = static_demo(fixed_hp, args.seed)
    length, diameter = fixed_hp.grid_length, fixed_hp.pollution_diameter
    field = spawn_clouds(length, diameter, 1, make_rng(args.seed))
    cloud = make_cloud(divmod(field.clouds[0], length), diameter, length)
    support = set(cloud.support)
    print(f"  cloud center {cloud.center}, "
          f"{len(support)} cells")
    for episode in sorted(snapshots):
        grid = snapshots[episode]
        positive = sum(value > 0 for value in grid)
        component = positive_component_from_start(grid, length)
        reached = bool(component & support)
        print(f"  after {episode:4d} episodes: {positive:3d} cells positive, "
              f"start connects to {len(component):3d} of them, "
              f"cloud reached: {reached}")

    print("\nrespawning cloud, discount 0.0 (the plain learner default):")
    _, mean_steps = dynamic_demo(Hyperparams(), args.seed)
    budget = Hyperparams().max_steps
    print(f"  greedy evaluation over 1000 fresh clouds: "
          f"mean {mean_steps:.1f} steps of a {budget}-step budget")
    print(f"  (a search that always failed would score {budget}.0)")


if __name__ == "__main__":
    main()

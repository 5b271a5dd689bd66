"""Exhaustive search patterns: geometry, rendering, and step statistics.

Builds the serpentine and inward-spiral routes, draws them, and scores
how many moves each needs to reach a cloud at every possible center.
"""
import argparse
import os

from hmc_search import (
    Hyperparams,
    make_cloud,
    ring_insets,
    snake_path,
    spiral_path,
    steps_to_find,
    sweep_rows,
)
from hmc_search.baselines import write_path_csv


def render(pattern, grid_length):
    grid = [["."] * grid_length for _ in range(grid_length)]
    for x, y in pattern.cells:
        grid[y][x] = "#"
    sx, sy = pattern.cells[0]
    grid[sy][sx] = "S"
    return "\n".join("".join(row) for row in grid)


def center_stats(pattern, grid_length, diameter, max_steps):
    steps = [steps_to_find(pattern, make_cloud((x, y), diameter, grid_length), max_steps)
             for x in range(grid_length) for y in range(grid_length)]
    ordered = sorted(steps)
    return {
        "mean": sum(steps) / len(steps),
        "median": ordered[(len(ordered) - 1) // 2],
        "worst": ordered[-1],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=20)
    parser.add_argument("--diameter", type=int, default=5)
    parser.add_argument("--csv", metavar="DIR",
                        help="also write both routes as CSV files")
    args = parser.parse_args()

    snake = snake_path(args.grid, args.diameter)
    spiral = spiral_path(args.grid, args.diameter)
    print(f"serpentine sweeps rows {sweep_rows(args.grid, args.diameter)}, "
          f"{len(snake.cells) - 1} moves:")
    print(render(snake, args.grid))
    print(f"\nspiral walks rings at insets "
          f"{ring_insets(args.grid, args.diameter)}, "
          f"{len(spiral.cells) - 1} moves:")
    print(render(spiral, args.grid))

    budget = Hyperparams().max_steps
    print(f"\nmoves to reach a diameter-{args.diameter} cloud, over all "
          f"{args.grid * args.grid} centers:")
    for name, pattern in (("snake", snake), ("spiral", spiral)):
        stats = center_stats(pattern, args.grid, args.diameter, budget)
        print(f"  {name:7} mean {stats['mean']:7.2f}   "
              f"median {stats['median']:3d}   worst {stats['worst']:3d}")

    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        for name, pattern in (("snake", snake), ("spiral", spiral)):
            target = os.path.join(args.csv, f"{name}.csv")
            write_path_csv(target, pattern)
            print(f"wrote {target}")


if __name__ == "__main__":
    main()

"""Exhaustive search patterns: geometry, rendering, and step statistics.

Builds the serpentine and inward-spiral routes, draws them, and scores
how many moves each needs to reach a cloud at every possible center.
`hmc-search pattern --out DIR` writes both routes and their step counts as CSV files.
"""
import argparse

from hmc_search import (
    EvalStats,
    Hyperparams,
    ring_insets,
    snake_path,
    spiral_path,
    sweep_rows,
)
from hmc_search.evalharness import center_steps


def render(pattern, grid_length):
    grid = [["."] * grid_length for _ in range(grid_length)]
    for x, y in pattern.cells:
        grid[y][x] = "#"
    sx, sy = pattern.cells[0]
    grid[sy][sx] = "S"
    return "\n".join("".join(row) for row in grid)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=20)
    parser.add_argument("--diameter", type=int, default=5)
    args = parser.parse_args()
    # The settings check the grid and diameter, so bad flags end in a usage message.
    try:
        hp = Hyperparams(grid_length=args.grid, pollution_diameter=args.diameter)
    except ValueError as err:
        parser.error(str(err))

    snake = snake_path(args.grid, args.diameter)
    spiral = spiral_path(args.grid, args.diameter)
    print(f"serpentine sweeps rows {sweep_rows(args.grid, args.diameter)}, "
          f"{len(snake.cells) - 1} moves:")
    print(render(snake, args.grid))
    print(f"\nspiral walks rings at insets "
          f"{ring_insets(args.grid, args.diameter)}, "
          f"{len(spiral.cells) - 1} moves:")
    print(render(spiral, args.grid))

    print(f"\nmoves to reach a diameter-{args.diameter} cloud, over all "
          f"{args.grid * args.grid} centers:")
    for pattern, steps in zip((snake, spiral), center_steps(hp, snake, spiral)):
        stats = EvalStats.from_steps(steps, 0)
        print(f"  {pattern.kind:7} mean {stats.mean:7.2f}   "
              f"median {stats.median:3.0f}   worst {max(stats.steps):3d}")


if __name__ == "__main__":
    main()

"""Train one option-based agent, score it, and duel the fixed patterns.

Runs the full workflow on the default settings: training with the
trajectory reward, greedy evaluation with the memory filter, random
duels, the exhaustive per-center score map, and a look at where the
learned route actually goes.
"""
import argparse

from hmc_search import (
    DuelOutcome,
    Hyperparams,
    agent_route,
    evaluate_agent,
    make_rng,
    route_heatmap,
    run_duels,
    score_map,
    snake_path,
    spiral_path,
    train_agent,
)


def outcome_rows(signs, length):
    symbols = {1: "+", 0: "=", -1: "-"}
    for y in range(length):
        yield "".join(symbols[signs[x * length + y]] for x in range(length))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=1000,
                        help="evaluation episode count")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error(f"argument --seed: expected an integer >= 0, got {args.seed}")
    if args.episodes < 1:
        parser.error(f"argument --episodes: expected an integer >= 1, got {args.episodes}")

    hp = Hyperparams()
    report = train_agent(hp, args.seed)
    tail = report.records[-100:]
    successes = sum(1 for r in tail if r.n_poll > 0)
    print(f"trained {hp.num_episodes} episodes (seed {args.seed}); "
          f"last 100: {successes} succeeded, "
          f"mean {sum(r.n_step for r in tail) / len(tail):.1f} steps")

    # Every scoring function takes a route; the greedy agent's is walked once.
    route = agent_route(report.q, hp)
    stats = evaluate_agent(route, hp, args.episodes,
                           make_rng(args.seed, stream=1))
    print(f"\ngreedy evaluation over {args.episodes} random clouds: "
          f"mean {stats.mean:.2f}, median {stats.median:.0f}, "
          f"failures {stats.failures}")

    snake = snake_path(hp.grid_length, hp.pollution_diameter)
    spiral = spiral_path(hp.grid_length, hp.pollution_diameter)
    duels = run_duels(route, hp, args.episodes,
                      make_rng(args.seed, stream=2), snake, spiral)
    for name in ("snake", "spiral"):
        o = duels[name]
        print(f"vs {name:7} wins {o.wins:4d}  ties {o.ties:3d}  "
              f"losses {o.losses:4d}  ({100.0 * o.wins / o.total:.1f}% won)")

    signs = score_map(route, hp, snake)
    tally = DuelOutcome.tally(signs)
    print(f"\nper-center map vs snake: {tally.wins} wins, {tally.ties} "
          f"ties, {tally.losses} losses out of {tally.total}")
    print("\n".join(outcome_rows(signs, hp.grid_length)))

    # Per-cell results are flat lists indexed by the cell int x * grid_length + y.
    counts = route_heatmap(route, hp, 200, make_rng(args.seed, stream=1))
    top = sorted(enumerate(counts), key=lambda item: -item[1])[:5]
    top = [(divmod(cell, hp.grid_length), count) for cell, count in top]
    print(f"\nmost visited cells over 200 greedy episodes: {top}")
    print(f"cells never visited: {counts.count(0)}/{len(counts)}")


if __name__ == "__main__":
    main()

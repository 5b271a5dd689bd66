"""Train one option-based agent, score it, and duel the fixed patterns.

Runs the full workflow on the default settings: training with the
trajectory reward, greedy evaluation with the memory filter, random
duels, the exhaustive per-center score map, and a look at where the
learned route actually goes.
"""
import argparse

import numpy as np

from hmc_search import (
    Hyperparams,
    evaluate_agent,
    make_rng,
    route_heatmap,
    run_duels,
    score_map,
    snake_path,
    train_agent,
)


def outcome_rows(result):
    symbols = {1: "+", 0: "=", -1: "-"}
    length = result.outcome.shape[0]
    for y in range(length):
        yield "".join(symbols[int(result.outcome[x, y])]
                      for x in range(length))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=1000,
                        help="evaluation episode count")
    args = parser.parse_args()

    hp = Hyperparams()
    report = train_agent(hp, args.seed)
    tail = report.records[-100:]
    successes = sum(1 for r in tail if r.n_poll > 0)
    print(f"trained {hp.num_episodes} episodes (seed {args.seed}); "
          f"last 100: {successes} succeeded, "
          f"mean {sum(r.n_step for r in tail) / len(tail):.1f} steps")

    stats = evaluate_agent(report.q, hp, args.episodes,
                           make_rng(args.seed, stream=1))
    print(f"\ngreedy evaluation over {args.episodes} random clouds: "
          f"mean {stats.mean:.2f}, median {stats.median:.0f}, "
          f"failures {stats.failures}")

    duels = run_duels(report.q, hp, args.episodes,
                      make_rng(args.seed, stream=2))
    for name in ("snake", "spiral"):
        o = duels[name]
        print(f"vs {name:7} wins {o.wins:4d}  ties {o.ties:3d}  "
              f"losses {o.losses:4d}  ({100.0 * o.wins / o.total:.1f}% won)")

    result = score_map(report.q, hp, snake_path(hp.grid_length,
                                                hp.pollution_diameter))
    tally = result.tally
    print(f"\nper-center map vs snake: {tally.wins} wins, {tally.ties} "
          f"ties, {tally.losses} losses out of {tally.total}")
    print("\n".join(outcome_rows(result)))

    counts = route_heatmap(report.q, hp, 200, make_rng(args.seed, stream=1))
    flat = [((x, y), int(counts[x, y]))
            for x in range(hp.grid_length) for y in range(hp.grid_length)]
    top = sorted(flat, key=lambda item: -item[1])[:5]
    print(f"\nmost visited cells over 200 greedy episodes: {top}")
    print(f"cells never visited: {int(np.count_nonzero(counts == 0))}/400")


if __name__ == "__main__":
    main()

"""Sweep one training knob and read the tuning curve.

By default runs a quick commitment-length sweep with a few seeds per
value; pass --plan to execute a JSON plan (see demos/plans/) through
the staged tuning loop instead.  Full-scale settings match the plan
files and take a few minutes.
"""
import argparse

from hmc_search import Hyperparams, SweepSpec, load_plan, run_sweep, tuning_loop
from hmc_search.sweep import SweepValueError


def print_result(result):
    print(f"sweep over {result.parameter}:")
    for entry in result.per_value:
        marker = " <-- best" if entry.value == result.best_value else ""
        print(f"  {entry.value!s:>6}: mean {entry.mean:7.2f} "
              f"+- {entry.ci_half:5.2f}{marker}")


def positive_int(text):
    """argparse type: an integer of at least 1, else a usage error."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", help="JSON plan file to run staged")
    parser.add_argument("--runs", type=positive_int, default=3,
                        help="training runs per candidate value")
    parser.add_argument("--eval", type=positive_int, default=200,
                        help="evaluation episodes per run")
    parser.add_argument("--jobs", type=positive_int, default=1)
    args = parser.parse_args()

    base = Hyperparams()
    if args.plan:
        # A plan that cannot be read or run ends in a usage message, as the CLI's does.
        try:
            stages = load_plan(args.plan, base, runs_per_value=args.runs,
                               n_eval_episodes=args.eval)
        except (OSError, ValueError) as err:
            parser.error(f"plan {args.plan}: {err}")
        try:
            final, results = tuning_loop(stages, jobs=args.jobs)
        except SweepValueError as err:
            parser.error(f"plan {args.plan}: {err}")
        for result in results:
            print_result(result)
        print("\nwinning settings: " + ", ".join(
            f"{r.parameter}={r.best_value}" for r in results))
        return

    spec = SweepSpec(parameter="option_length", values=[1, 2, 3, 4],
                     base=base, runs_per_value=args.runs,
                     n_eval_episodes=args.eval)
    result = run_sweep(spec, jobs=args.jobs)
    print_result(result)
    print("\nlonger commitments help up to a point; rerun with "
          "--runs 20 --eval 1000 for tight intervals")


if __name__ == "__main__":
    main()

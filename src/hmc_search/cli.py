"""Command line front end.

Every subcommand resolves its settings from, in rising precedence:
built-in defaults, --config JSON, --from-manifest, explicit flags.  It
then writes its result files plus a run manifest into the output
directory (--out, else HMC_SEARCH_OUT, else ./out).  Re-running a
subcommand with --from-manifest pointing at an earlier manifest
reproduces the result files byte for byte.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile

import numpy as np

from .baselines import snake_path, spiral_path, write_path_csv
from .env import make_rng
from .evalharness import (center_steps, evaluate_agent, population_stats, route_heatmap,
                          run_duels, score_map)
from .policy import read_qtable_csv, write_qtable_csv
from .sweep import load_plan, tuning_loop
from .training import (CONFIG_TYPES, Hyperparams, dynamic_demo, static_demo,
                       train_agent)

CONFIG_KEYS = tuple(CONFIG_TYPES)


class UsageError(Exception):
    pass


def parse_config(source) -> Hyperparams:
    """Strict JSON config: unknown keys rejected, missing keys defaulted."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source) as handle:
                raw = json.load(handle)
        except OSError as err:
            raise UsageError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise UsageError(f"malformed config JSON: {err}") from err
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"config key {key!r} must be a number")
        if CONFIG_TYPES[key] is int:
            if int(value) != value:
                raise UsageError(f"config key {key!r} must be an integer")
            value = int(value)
        else:
            value = float(value)
        values[key] = value
    try:
        return Hyperparams(**values)
    except ValueError as err:
        raise UsageError(str(err)) from err


def config_dict(hp: Hyperparams) -> dict:
    return {key: getattr(hp, key) for key in CONFIG_KEYS}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json_atomic(path, payload) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmc-search",
        description="Train, evaluate, and duel a pollution-cloud search agent.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text, **extra):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON settings file")
        cmd.add_argument("--seed", type=int, help="random seed (default 0)")
        cmd.add_argument("--out", help="output directory (default $HMC_SEARCH_OUT or ./out)")
        cmd.add_argument("--runs", type=int, help=extra.pop("runs_help", "number of runs"))
        cmd.add_argument("--episodes", type=int, help="episode count for this command")
        cmd.add_argument("--jobs", type=int, help="worker processes for batched runs")
        cmd.add_argument("--from-manifest", dest="from_manifest",
                         help="re-run with the settings stored in an earlier manifest")
        return cmd

    add("train", "train an agent and save its value table")
    for name in ("eval", "duel", "scoremap", "route"):
        cmd = add(name, {
            "eval": "score a saved agent over random episodes",
            "duel": "duel a saved agent against both patterns",
            "scoremap": "exhaustive per-center duel against one pattern",
            "route": "visit-count heatmap of the greedy policy",
        }[name])
        cmd.add_argument("--qtable", help="value table CSV (default OUT/qtable.csv)")
        if name == "scoremap":
            cmd.add_argument("--opponent", choices=("snake", "spiral"),
                             help="pattern to duel (default snake)")
    add("pattern", "emit both pattern paths and their per-center step counts")
    cmd = add("sweep", "run a sweep plan", runs_help="runs per candidate value")
    cmd.add_argument("--plan", help="sweep plan JSON file")
    add("population", "train a population of agents and report distributions",
        runs_help="number of agents")
    add("demo-static", "plain Q-learning against one fixed cloud")
    add("demo-dynamic", "plain Q-learning against a moving cloud")
    return parser


def _load_manifest(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _resolve(args) -> dict:
    """Merge defaults, config file, manifest, and flags into one options dict."""
    manifest = {}
    if args.from_manifest:
        manifest = _load_manifest(args.from_manifest)
        if manifest.get("command") != args.command:
            raise UsageError(
                f"manifest was written by {manifest.get('command')!r}, "
                f"not {args.command!r}"
            )
    if args.config:
        hp = parse_config(args.config)
    elif manifest:
        hp = parse_config(manifest["config"])
    else:
        hp = Hyperparams()
    stored = manifest.get("options", {})

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in stored and stored[key] is not None:
            return stored[key]
        return default

    out = args.out or os.environ.get("HMC_SEARCH_OUT") or "out"
    seed = pick(args.seed, "seed", 0)
    if manifest and args.seed is None:
        seed = manifest.get("seed", seed)
    if seed < 0:
        raise UsageError("seed must be nonnegative")
    return {
        "hp": hp,
        "out": out,
        "seed": int(seed),
        "runs": pick(args.runs, "runs", None),
        "episodes": pick(args.episodes, "episodes", None),
        "jobs": pick(args.jobs, "jobs", 1),
        "qtable": pick(getattr(args, "qtable", None), "qtable", None),
        "opponent": pick(getattr(args, "opponent", None), "opponent", "snake"),
        "plan": pick(getattr(args, "plan", None), "plan", None),
    }


def _qtable_path(opts) -> str:
    return opts["qtable"] or os.path.join(opts["out"], "qtable.csv")


def _load_qtable(opts):
    path = _qtable_path(opts)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no value table at {path}; train first or pass --qtable")
    length = opts["hp"].grid_length
    try:
        q = read_qtable_csv(path)
        if q.shape[0] != length:
            raise ValueError(f"it is for a {q.shape[0]}-cell grid, not grid_length {length}")
    except ValueError as err:
        raise UsageError(f"bad value table {path}: {err}") from err
    return q


def cmd_train(opts):
    hp = opts["hp"]
    report = train_agent(hp, opts["seed"])
    table_path = os.path.join(opts["out"], "qtable.csv")
    write_qtable_csv(table_path, report.q)
    write_csv(
        os.path.join(opts["out"], "train_report.csv"),
        ("episode", "epsilon", "n_step", "n_poll", "r_t"),
        ((r.episode, r.epsilon, r.n_step, r.n_poll, r.r_t) for r in report.records),
    )
    tail = report.records[-min(100, len(report.records)):]
    metrics = {
        "episodes": hp.num_episodes,
        "tail_mean_steps": sum(r.n_step for r in tail) / len(tail),
        "tail_success_rate": sum(1 for r in tail if r.n_poll > 0) / len(tail),
    }
    return ["qtable.csv", "train_report.csv"], metrics


def cmd_eval(opts):
    hp = opts["hp"]
    q = _load_qtable(opts)
    n = opts["episodes"] or 1000
    stats = evaluate_agent(q, hp, n, make_rng(opts["seed"], stream=1))
    write_csv(
        os.path.join(opts["out"], "eval_steps.csv"),
        ("episode", "steps"),
        ((i, s) for i, s in enumerate(stats.steps)),
    )
    metrics = {
        "episodes": n,
        "mean_steps": stats.mean,
        "median_steps": stats.median,
        "failures": stats.failures,
    }
    return ["eval_steps.csv"], metrics


def cmd_duel(opts):
    hp = opts["hp"]
    q = _load_qtable(opts)
    n = opts["runs"] or 1000
    outcomes = run_duels(q, hp, n, make_rng(opts["seed"], stream=2))
    write_csv(
        os.path.join(opts["out"], "duels.csv"),
        ("opponent", "wins", "ties", "losses"),
        ((name, o.wins, o.ties, o.losses) for name, o in sorted(outcomes.items())),
    )
    metrics = {name: {"wins": o.wins, "ties": o.ties, "losses": o.losses}
               for name, o in outcomes.items()}
    metrics["iterations"] = n
    return ["duels.csv"], metrics


def cmd_scoremap(opts):
    hp = opts["hp"]
    q = _load_qtable(opts)
    name = opts["opponent"]
    pattern = (snake_path if name == "snake" else spiral_path)(
        hp.grid_length, hp.pollution_diameter)
    result = score_map(q, hp, pattern)
    labels = {1: "win", 0: "tie", -1: "loss"}
    out_name = f"scoremap_{name}.csv"
    write_csv(
        os.path.join(opts["out"], out_name),
        ("x", "y", "outcome"),
        ((x, y, labels[int(result.outcome[x, y])])
         for x in range(hp.grid_length) for y in range(hp.grid_length)),
    )
    metrics = {"opponent": name, "wins": result.wins, "ties": result.ties,
               "losses": result.losses}
    return [out_name], metrics


def cmd_route(opts):
    hp = opts["hp"]
    q = _load_qtable(opts)
    n = opts["episodes"] or 1000
    counts = route_heatmap(q, hp, n, make_rng(opts["seed"], stream=1))
    write_csv(
        os.path.join(opts["out"], "route.csv"),
        ("x", "y", "count"),
        ((x, y, int(counts[x, y]))
         for x in range(hp.grid_length) for y in range(hp.grid_length)),
    )
    return ["route.csv"], {"episodes": n, "total_visits": int(counts.sum())}


def cmd_pattern(opts):
    hp = opts["hp"]
    length, diameter = hp.grid_length, hp.pollution_diameter
    patterns = [snake_path(length, diameter), spiral_path(length, diameter)]
    outputs = []
    metrics = {}
    for pattern, steps in zip(patterns, center_steps(hp, *patterns)):
        name = pattern.kind
        write_path_csv(os.path.join(opts["out"], f"{name}.csv"), pattern)
        write_csv(
            os.path.join(opts["out"], f"{name}_steps.csv"),
            ("x", "y", "steps"),
            ((x, y, int(steps[x, y]))
             for x in range(length) for y in range(length)),
        )
        flat = np.sort(steps.ravel())
        metrics[name] = {
            "path_moves": len(pattern.cells) - 1,
            "mean_steps": float(flat.mean()),
            "median_steps": float(flat[(flat.size - 1) // 2]),
        }
        outputs += [f"{name}.csv", f"{name}_steps.csv"]
    return outputs, metrics


def cmd_sweep(opts):
    if not opts["plan"]:
        raise UsageError("sweep requires --plan")
    stages, plan_opts = load_plan(
        opts["plan"], opts["hp"],
        base_seed=opts["seed"],
        runs_per_value=opts["runs"],
        n_eval_episodes=opts["episodes"] or 1000,
    )
    final_hp, results = tuning_loop(
        stages,
        two_pass=plan_opts["two_pass"],
        select_on=plan_opts["select_on"],
        jobs=opts["jobs"],
    )
    outputs = []
    winners = []
    for i, result in enumerate(results):
        name = f"sweep_{i:02d}_{result.parameter}.csv"
        write_csv(
            os.path.join(opts["out"], name),
            ("value", "mean_steps", "ci_half_width"),
            ((v.value, v.mean, v.ci_half) for v in result.per_value),
        )
        outputs.append(name)
        winners.append({"parameter": result.parameter, "best_value": result.best_value})
    summary_path = os.path.join(opts["out"], "sweep_summary.json")
    _write_json_atomic(summary_path, {
        "winners": winners,
        "final_config": config_dict(final_hp),
    })
    outputs.append("sweep_summary.json")
    return outputs, {"stages": len(results), "final_config": config_dict(final_hp)}


def cmd_population(opts):
    hp = opts["hp"]
    n_agents = opts["runs"] or 100
    n_eval = opts["episodes"] or 1000
    report = population_stats(
        hp, n_agents, opts["seed"],
        n_eval=n_eval, n_duel=n_eval, jobs=opts["jobs"],
    )
    write_csv(
        os.path.join(opts["out"], "population_agents.csv"),
        ("seed", "mean_steps", "median_steps", "failures",
         "wins", "ties", "losses", "win_pct"),
        ((a.seed, a.mean_steps, a.median_steps, a.failures,
          a.wins, a.ties, a.losses, a.win_pct) for a in report.agents),
    )
    for name, (edges, counts) in (
        ("population_steps_hist.csv", report.steps_hist),
        ("population_wins_hist.csv", report.win_hist),
    ):
        write_csv(
            os.path.join(opts["out"], name),
            ("bin", "count"),
            ((float(edges[i]), int(counts[i])) for i in range(len(counts))),
        )
    means = [a.mean_steps for a in report.agents]
    metrics = {
        "agents": n_agents,
        "best_mean_steps": min(means),
        "median_of_means": float(np.median(means)),
        "best_win_pct": max(a.win_pct for a in report.agents),
    }
    outputs = ["population_agents.csv", "population_steps_hist.csv",
               "population_wins_hist.csv"]
    return outputs, metrics


def _write_snapshots(path, snapshots) -> None:
    rows = []
    for episode in sorted(snapshots):
        grid = snapshots[episode]
        for x in range(grid.shape[0]):
            for y in range(grid.shape[1]):
                rows.append((episode, x, y, float(grid[x, y])))
    write_csv(path, ("episode", "x", "y", "max_q"), rows)


def cmd_demo_static(opts):
    snapshots = static_demo(opts["hp"], opts["seed"])
    _write_snapshots(os.path.join(opts["out"], "demo_static_snapshots.csv"), snapshots)
    final = snapshots[max(snapshots)]
    metrics = {"snapshots": sorted(snapshots), "final_max_q": float(final.max())}
    return ["demo_static_snapshots.csv"], metrics


def cmd_demo_dynamic(opts):
    n_eval = opts["episodes"] or 1000
    snapshots, mean_steps = dynamic_demo(opts["hp"], opts["seed"],
                                         n_eval_episodes=n_eval)
    _write_snapshots(os.path.join(opts["out"], "demo_dynamic_snapshots.csv"), snapshots)
    metrics = {"snapshots": sorted(snapshots), "mean_eval_steps": mean_steps,
               "eval_episodes": n_eval}
    return ["demo_dynamic_snapshots.csv"], metrics


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "duel": cmd_duel,
    "scoremap": cmd_scoremap,
    "route": cmd_route,
    "pattern": cmd_pattern,
    "sweep": cmd_sweep,
    "population": cmd_population,
    "demo-static": cmd_demo_static,
    "demo-dynamic": cmd_demo_dynamic,
}


def dispatch(argv) -> int:
    parser = build_parser()
    parser.error = lambda message: (_ for _ in ()).throw(UsageError(message))
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        opts = _resolve(args)
        os.makedirs(opts["out"], exist_ok=True)
        started = _utc_now()
        outputs, metrics = _COMMANDS[args.command](opts)
        manifest = {
            "command": args.command,
            "config": config_dict(opts["hp"]),
            "seed": opts["seed"],
            "options": {
                "runs": opts["runs"],
                "episodes": opts["episodes"],
                "qtable": opts["qtable"],
                "opponent": opts["opponent"],
                "plan": opts["plan"],
            },
            "outputs": outputs,
            "metrics": metrics,
            "started_at": started,
            "finished_at": _utc_now(),
        }
        _write_json_atomic(
            os.path.join(opts["out"], f"manifest_{args.command}.json"), manifest)
        return 0
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

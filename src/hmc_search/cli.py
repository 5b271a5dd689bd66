"""Command line front end.

Each subcommand is registered once, next to its handler, with the extra
flags it reads and their defaults; the parser, option resolution and the
manifest derive from that table.  Settings resolve from, in rising
precedence: the table defaults, --from-manifest, explicit flags.  A run
writes its result files plus a manifest into the output directory (--out,
else HMC_SEARCH_OUT, else ./out).  Re-running a subcommand with
--from-manifest pointing at an earlier manifest reproduces the result
files byte for byte.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys
import tempfile
from dataclasses import asdict, astuple
from typing import Callable, NamedTuple

from . import __version__
from .baselines import PatternPath, snake_path, spiral_path
from .env import RNG_CONTRACT, make_rng
from .evalharness import (EvalStats, agent_route, center_steps, evaluate_agent,
                          population_stats, route_heatmap, run_duels, score_map)
from .policy import read_qtable_csv, write_qtable_csv
from .sweep import SweepValueError, load_plan, tuning_loop
from .training import (CONFIG_TYPES, Hyperparams, dynamic_demo, reject_unknown_keys,
                       static_demo, train_agent)


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
        except ValueError as err:
            raise UsageError(f"malformed config JSON: {err}") from err
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    try:
        reject_unknown_keys(raw, CONFIG_TYPES, "config")
        return Hyperparams(**raw)
    except ValueError as err:
        raise UsageError(str(err)) from err


def config_dict(hp: Hyperparams) -> dict:
    return {key: getattr(hp, key) for key in CONFIG_TYPES}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _fmt_exact(value) -> str:
    """_fmt's text if it reads back as value, else repr: distinct values stay apart."""
    text = _fmt(value)
    if isinstance(value, float) and float(text) != value:
        return repr(value)
    return text


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(_fmt, row)) + "\n")


def _grid_rows(grid, *lead):
    """(*lead, x, y, grid[x, y]) for every cell, x major, as Python scalars."""
    for x, column in enumerate(grid.tolist()):
        for y, value in enumerate(column):
            yield (*lead, x, y, value)


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


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return integer


# The argparse spec of every flag, written once.  Every command takes the
# shared flags, with these defaults; it takes the others only if it declares them.
_SHARED = {"config": None, "seed": 0, "out": None, "from-manifest": None}
_FLAGS = {
    "config": {"help": "JSON settings file"},
    "seed": {"type": _int_at_least(0), "help": "random seed"},
    "out": {"help": "output directory (default $HMC_SEARCH_OUT or ./out)"},
    "from-manifest": {"help": "re-run with the settings stored in an earlier manifest"},
    "qtable": {"help": "value table CSV (default OUT/qtable.csv)"},
    "episodes": {"type": _int_at_least(1), "help": "episodes to run"},
    "runs": {"type": _int_at_least(1), "help": "duels, agents, or runs per sweep value"},
    "jobs": {"type": _int_at_least(1), "help": "worker processes"},
    "opponent": {"choices": ("snake", "spiral"), "help": "pattern to duel"},
    "plan": {"help": "sweep plan JSON file"},
}


class Command(NamedTuple):
    run: Callable[[dict], tuple[list, dict]]
    help: str
    flags: dict  # extra flag name -> default


COMMANDS: dict[str, Command] = {}


def _command(name: str, help_text: str, **flags):
    """Register the decorated handler as subcommand name, reading flags."""
    def register(run):
        COMMANDS[name] = Command(run, help_text, flags)
        return run
    return register


def _load_route(opts) -> PatternPath:
    """The greedy route of the value table at --qtable."""
    path = opts["qtable"]
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no value table at {path}; train first or pass --qtable")
    try:
        return agent_route(read_qtable_csv(path), opts["hp"])
    except ValueError as err:
        raise UsageError(f"bad value table {path}: {err}") from err


@_command("train", "train an agent and save its value table")
def cmd_train(opts):
    hp = opts["hp"]
    report = train_agent(hp, opts["seed"])
    write_qtable_csv(os.path.join(opts["out"], "qtable.csv"), report.q)
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
        "decision_cap_exits": report.decision_cap_exits,
    }
    return ["qtable.csv", "train_report.csv"], metrics


@_command("eval", "score a saved agent over random episodes", qtable=None, episodes=1000)
def cmd_eval(opts):
    hp = opts["hp"]
    route = _load_route(opts)
    stats = evaluate_agent(route, hp, opts["episodes"], make_rng(opts["seed"], stream=1))
    write_csv(
        os.path.join(opts["out"], "eval_steps.csv"),
        ("episode", "steps"),
        ((i, s) for i, s in enumerate(stats.steps)),
    )
    metrics = {
        "episodes": opts["episodes"],
        "mean_steps": stats.mean,
        "median_steps": stats.median,
        "failures": stats.failures,
    }
    return ["eval_steps.csv"], metrics


@_command("duel", "duel a saved agent against both patterns on shared clouds",
          qtable=None, runs=1000)
def cmd_duel(opts):
    hp = opts["hp"]
    route = _load_route(opts)
    length, diameter = hp.grid_length, hp.pollution_diameter
    outcomes = run_duels(route, hp, opts["runs"], make_rng(opts["seed"], stream=2),
                         snake_path(length, diameter), spiral_path(length, diameter))
    write_csv(
        os.path.join(opts["out"], "duels.csv"),
        ("opponent", "wins", "ties", "losses"),
        ((name, *astuple(o)) for name, o in sorted(outcomes.items())),
    )
    metrics = {name: asdict(o) for name, o in outcomes.items()}
    metrics["iterations"] = opts["runs"]
    return ["duels.csv"], metrics


@_command("scoremap", "exhaustive per-center duel against one pattern",
          qtable=None, opponent="snake")
def cmd_scoremap(opts):
    hp = opts["hp"]
    route = _load_route(opts)
    name = opts["opponent"]
    pattern = (snake_path if name == "snake" else spiral_path)(
        hp.grid_length, hp.pollution_diameter)
    result = score_map(route, hp, pattern)
    out_name = f"scoremap_{name}.csv"
    write_csv(os.path.join(opts["out"], out_name), ("x", "y", "outcome"),
              ((x, y, ("loss", "tie", "win")[v + 1]) for x, y, v in _grid_rows(result.outcome)))
    metrics = {"opponent": name, **asdict(result.tally)}
    return [out_name], metrics


@_command("route", "visit-count heatmap of the greedy policy", qtable=None, episodes=1000)
def cmd_route(opts):
    hp = opts["hp"]
    route = _load_route(opts)
    counts = route_heatmap(route, hp, opts["episodes"], make_rng(opts["seed"], stream=1))
    write_csv(os.path.join(opts["out"], "route.csv"), ("x", "y", "count"), _grid_rows(counts))
    return ["route.csv"], {"episodes": opts["episodes"], "total_visits": int(counts.sum())}


@_command("pattern", "emit both pattern paths and their per-center step counts")
def cmd_pattern(opts):
    hp = opts["hp"]
    length, diameter = hp.grid_length, hp.pollution_diameter
    patterns = [snake_path(length, diameter), spiral_path(length, diameter)]
    outputs = []
    metrics = {}
    for pattern, steps in zip(patterns, center_steps(hp, *patterns)):
        name = pattern.kind
        write_csv(os.path.join(opts["out"], f"{name}.csv"), ("step", "x", "y"),
                  ((i, x, y) for i, (x, y) in enumerate(pattern.cells)))
        write_csv(os.path.join(opts["out"], f"{name}_steps.csv"), ("x", "y", "steps"),
                  _grid_rows(steps))
        stats = EvalStats.from_steps(steps.ravel().tolist(), 0)
        metrics[name] = {
            "path_moves": len(pattern.cells) - 1,
            "mean_steps": stats.mean,
            "median_steps": stats.median,
        }
        outputs += [f"{name}.csv", f"{name}_steps.csv"]
    return outputs, metrics


@_command("sweep", "run a staged tuning plan", plan=None, runs=None, episodes=1000, jobs=1)
def cmd_sweep(opts):
    if opts["plan"] is None:
        raise UsageError("sweep requires --plan")
    try:
        stages = load_plan(
            opts["plan"], opts["hp"],
            base_seed=opts["seed"],
            runs_per_value=opts["runs"],
            n_eval_episodes=opts["episodes"],
        )
    except (OSError, ValueError) as err:
        raise UsageError(f"plan {opts['plan']}: {err}") from err
    try:
        final_hp, results = tuning_loop(stages, jobs=opts["jobs"])
    except SweepValueError as err:
        raise UsageError(f"plan {opts['plan']}: {err}") from err
    outputs = []
    winners = []
    for i, result in enumerate(results):
        name = f"sweep_{i:02d}_{result.parameter}.csv"
        write_csv(
            os.path.join(opts["out"], name),
            ("value", "mean_steps", "ci_half_width"),
            ((_fmt_exact(v.value), v.mean, v.ci_half) for v in result.per_value),
        )
        outputs.append(name)
        winners.append({"parameter": result.parameter, "best_value": result.best_value})
    final_config = config_dict(final_hp)
    _write_json_atomic(os.path.join(opts["out"], "sweep_summary.json"),
                       {"winners": winners, "final_config": final_config})
    outputs.append("sweep_summary.json")
    return outputs, {"stages": len(results), "final_config": final_config}


@_command("population", "train a population of agents and report distributions",
          runs=100, episodes=1000, jobs=1)
def cmd_population(opts):
    import numpy as np
    report = population_stats(opts["hp"], opts["runs"], opts["seed"],
                              n_episodes=opts["episodes"], jobs=opts["jobs"])
    write_csv(
        os.path.join(opts["out"], "population_agents.csv"),
        ("seed", "mean_steps", "median_steps", "failures",
         "wins", "ties", "losses", "win_pct"),
        (astuple(a) for a in report.agents),
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
        "agents": opts["runs"],
        "best_mean_steps": min(means),
        "median_of_means": float(np.median(means)),
        "best_win_pct": max(a.win_pct for a in report.agents),
    }
    outputs = ["population_agents.csv", "population_steps_hist.csv",
               "population_wins_hist.csv"]
    return outputs, metrics


def _write_snapshots(path, snapshots) -> None:
    write_csv(path, ("episode", "x", "y", "max_q"),
              (row for episode, grid in sorted(snapshots.items())
               for row in _grid_rows(grid, episode)))


@_command("demo-static", "plain Q-learning against one fixed cloud")
def cmd_demo_static(opts):
    snapshots = static_demo(opts["hp"], opts["seed"])
    _write_snapshots(os.path.join(opts["out"], "demo_static_snapshots.csv"), snapshots)
    final = snapshots[max(snapshots)]
    metrics = {"snapshots": sorted(snapshots), "final_max_q": float(final.max())}
    return ["demo_static_snapshots.csv"], metrics


@_command("demo-dynamic", "plain Q-learning against a respawning cloud", episodes=1000)
def cmd_demo_dynamic(opts):
    snapshots, mean_steps = dynamic_demo(opts["hp"], opts["seed"],
                                         n_eval_episodes=opts["episodes"])
    _write_snapshots(os.path.join(opts["out"], "demo_dynamic_snapshots.csv"), snapshots)
    metrics = {"snapshots": sorted(snapshots), "mean_eval_steps": mean_steps,
               "eval_episodes": opts["episodes"]}
    return ["demo_dynamic_snapshots.csv"], metrics


class _Parser(argparse.ArgumentParser):
    # Usage errors of the top-level parser and of every subparser exit 1.
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every registered command, built once per process."""
    parser = _Parser(
        prog="hmc-search",
        description="Train, evaluate, and duel a pollution-cloud search agent.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in COMMANDS.items():
        # Absent flags stay out of the namespace, so only explicit ones override.
        cmd = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for flag, default in {**_SHARED, **command.flags}.items():
            spec = dict(_FLAGS[flag])
            if default is not None:
                spec["help"] += f" (default {default})"
            cmd.add_argument(f"--{flag}", **spec)
    return parser


def _load_manifest(path, command: str) -> dict:
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except OSError as err:
        raise UsageError(f"cannot read manifest: {err}") from err
    except ValueError as err:
        raise UsageError(f"malformed manifest JSON {path}: {err}") from err
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("options", {}), dict)):
        raise UsageError(f"manifest {path} is not a JSON object with config and options objects")
    if type(version := manifest.get("format", 1)) is not int or version > 1:
        raise UsageError(f"manifest {path} has format {version!r}, not 1 or older")
    if manifest.get("command") != command:
        raise UsageError(
            f"manifest was written by {manifest.get('command')!r}, not {command!r}")
    return manifest


def _resolve(argv) -> dict:
    """Table defaults, then the values stored in --from-manifest, then flags."""
    parser = build_parser()
    explicit = vars(parser.parse_args(argv))
    if explicit["command"] is None:
        raise UsageError("a subcommand is required (see --help)")
    declared = COMMANDS[explicit["command"]].flags
    opts = {**_SHARED, **declared}
    config = {}
    if "from_manifest" in explicit:
        path = explicit["from_manifest"]
        manifest = _load_manifest(path, explicit["command"])
        stored = manifest.get("options", {})
        # Stored values pass the flags' own checks; older manifests hold
        # nulls and keys of other commands, which are skipped.
        stored_argv = [f"--seed={manifest.get('seed')}"] + [
            f"--{flag}={stored[flag]}" for flag in declared if stored.get(flag) is not None]
        try:
            opts.update(vars(parser.parse_args([explicit["command"], *stored_argv])))
        except UsageError as err:
            raise UsageError(f"manifest {path}: {err}") from err
        config = manifest["config"]
    opts.update(explicit)
    opts["hp"] = parse_config(explicit.get("config", config))
    opts["out"] = opts["out"] or os.environ.get("HMC_SEARCH_OUT") or "out"
    if "qtable" in declared and opts["qtable"] is None:
        # The manifest records the table actually read, so a rerun into
        # another directory reads the same one.
        opts["qtable"] = os.path.join(opts["out"], "qtable.csv")
    return opts


def dispatch(argv) -> int:
    made = []  # directories this run creates, deepest first
    try:
        opts = _resolve(argv)
        command = COMMANDS[opts["command"]]
        path = os.path.abspath(opts["out"])
        while not os.path.exists(path):
            made.append(path)
            path = os.path.dirname(path)
        os.makedirs(opts["out"], exist_ok=True)
        started = _utc_now()
        outputs, metrics = command.run(opts)
        import numpy as np  # loaded by then: every command draws or builds arrays
        manifest = {
            "format": 1,
            "command": opts["command"],
            "config": config_dict(opts["hp"]),
            "seed": opts["seed"],
            "options": {flag: opts[flag] for flag in command.flags},
            "outputs": outputs,
            "metrics": metrics,
            "started_at": started,
            "finished_at": _utc_now(),
            "provenance": {"hmc_search": __version__, "python": sys.version.split()[0],
                           "numpy": np.__version__, "rng": RNG_CONTRACT},  # reruns ignore it
        }
        _write_json_atomic(
            os.path.join(opts["out"], f"manifest_{opts['command']}.json"), manifest)
        return 0
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        status = 1
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        status = 2
    # A failed run takes back the directories it made, unless it wrote into them.
    for path in made:
        try:
            os.rmdir(path)
        except OSError:
            break
    return status


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command line front end.

Each subcommand is registered once, next to its handler, with the extra
flags it reads and their defaults; the parser, option resolution and the
manifest derive from that table.  Settings resolve from, in rising
precedence: the table defaults, --from-manifest, explicit flags.  A run
writes its result files plus a manifest into the output directory (--out,
else HMC_SEARCH_OUT, else ./out).  Re-running a subcommand with
--from-manifest pointing at an earlier manifest reproduces the result
files byte for byte.  A handler names each result file once, where it writes it,
through _output, and the manifest lists those names in write order.  Every file,
the manifest last, is written whole to a hidden partial; then the old manifest goes
and the partials are renamed over their names in write order.  A failure, Ctrl-C
included, removes the partials and the directories the run made.  Files follow the umask.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import statistics
import sys
from dataclasses import asdict, astuple
from typing import Callable, NamedTuple

from . import __version__
from .baselines import PatternPath, snake_path, spiral_path
from .env import RNG_CONTRACT, make_rng
from .evalharness import (DuelOutcome, EvalStats, agent_route, center_steps, evaluate_agent,
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


def _fmt_exact(value) -> str:
    """A float's .6g text if it reads back as value, else its repr, so that distinct
    values stay apart; str of anything else."""
    if not isinstance(value, float):
        return str(value)
    text = format(value, ".6g")
    return text if float(text) == value else repr(value)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        # A float cell's .6g text, inline: a call per cell cost more than the formatting.
        lines.append(",".join([f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]))
    lines.append("")
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines))


def _grid_rows(grid, length, *lead):
    """(*lead, x, y, grid[x * length + y]) for every cell of a flat list, x major."""
    for cell, value in enumerate(grid):
        yield (*lead, *divmod(cell, length), value)


def _write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


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
    run: Callable[[dict], dict]  # opts -> metrics
    help: str
    flags: dict  # extra flag name -> default


COMMANDS: dict[str, Command] = {}
_PARTIAL = ".{}.partial"  # a file's name until its run succeeds


def _command(name: str, help_text: str, **flags):
    """Register the decorated handler as subcommand name, reading flags."""
    def register(run):
        COMMANDS[name] = Command(run, help_text, flags)
        return run
    return register


def _output(opts, name: str) -> str:
    """The partial path to write file name to; a run that succeeds renames it to name."""
    opts["outputs"].append(name)
    if os.path.isdir(path := os.path.join(opts["out"], name)):  # no rename could replace it
        raise IsADirectoryError(f"result path {path} is a directory")
    return os.path.join(opts["out"], _PARTIAL.format(name))


def _load_route(opts) -> tuple[PatternPath, dict]:
    """The greedy route of the value table at --qtable, and its metrics.

    route_capped is whether the decision cap cut the route: on
    agent_route's empty field the only other end is the step budget.
    """
    path, hp = opts["qtable"], opts["hp"]
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no value table at {path}; train first or pass --qtable")
    try:
        route = agent_route(read_qtable_csv(path), hp)
    except ValueError as err:
        raise UsageError(f"bad value table {path}: {err}") from err
    return route, {"route_capped": len(route.cells) - 1 < hp.max_steps}


@_command("train", "train an agent and save its value table")
def cmd_train(opts):
    hp = opts["hp"]
    report = train_agent(hp, opts["seed"])
    write_qtable_csv(_output(opts, "qtable.csv"), report.q)
    write_csv(_output(opts, "train_report.csv"), ("episode", "epsilon", "n_step", "n_poll", "r_t"),
              ((r.episode, r.epsilon, r.n_step, r.n_poll, r.r_t) for r in report.records))
    tail = report.records[-min(100, len(report.records)):]
    return {
        "episodes": hp.num_episodes,
        "tail_mean_steps": sum(r.n_step for r in tail) / len(tail),
        "tail_success_rate": sum(1 for r in tail if r.n_poll > 0) / len(tail),
        "decision_cap_exits": report.decision_cap_exits,
    }


@_command("eval", "score a saved agent over random episodes", qtable=None, episodes=1000)
def cmd_eval(opts):
    hp = opts["hp"]
    route, metrics = _load_route(opts)
    stats = evaluate_agent(route, hp, opts["episodes"], make_rng(opts["seed"], stream=1))
    write_csv(_output(opts, "eval_steps.csv"), ("episode", "steps"), enumerate(stats.steps))
    return dict(metrics, episodes=opts["episodes"], mean_steps=stats.mean,
                median_steps=stats.median, failures=stats.failures)


@_command("duel", "duel a saved agent against both patterns on shared clouds",
          qtable=None, runs=1000)
def cmd_duel(opts):
    hp = opts["hp"]
    route, metrics = _load_route(opts)
    length, diameter = hp.grid_length, hp.pollution_diameter
    outcomes = run_duels(route, hp, opts["runs"], make_rng(opts["seed"], stream=2),
                         snake_path(length, diameter), spiral_path(length, diameter))
    write_csv(_output(opts, "duels.csv"), ("opponent", "wins", "ties", "losses"),
              ((name, *astuple(o)) for name, o in sorted(outcomes.items())))
    metrics.update({name: asdict(o) for name, o in outcomes.items()}, iterations=opts["runs"])
    return metrics


@_command("scoremap", "exhaustive per-center duel against one pattern",
          qtable=None, opponent="snake")
def cmd_scoremap(opts):
    hp = opts["hp"]
    route, metrics = _load_route(opts)
    name = opts["opponent"]
    pattern = (snake_path if name == "snake" else spiral_path)(
        hp.grid_length, hp.pollution_diameter)
    signs = score_map(route, hp, pattern)
    write_csv(_output(opts, f"scoremap_{name}.csv"), ("x", "y", "outcome"),
              ((x, y, ("loss", "tie", "win")[v + 1])
               for x, y, v in _grid_rows(signs, hp.grid_length)))
    return dict(metrics, opponent=name, **asdict(DuelOutcome.tally(signs)))


@_command("route", "visit-count heatmap of the greedy policy", qtable=None, episodes=1000)
def cmd_route(opts):
    hp = opts["hp"]
    route, metrics = _load_route(opts)
    counts = route_heatmap(route, hp, opts["episodes"], make_rng(opts["seed"], stream=1))
    write_csv(_output(opts, "route.csv"), ("x", "y", "count"), _grid_rows(counts, hp.grid_length))
    return dict(metrics, episodes=opts["episodes"], total_visits=sum(counts))


@_command("pattern", "emit both pattern paths and their per-center step counts")
def cmd_pattern(opts):
    hp = opts["hp"]
    length, diameter = hp.grid_length, hp.pollution_diameter
    patterns = [snake_path(length, diameter), spiral_path(length, diameter)]
    metrics = {}
    for pattern, steps in zip(patterns, center_steps(hp, *patterns)):
        name = pattern.kind
        write_csv(_output(opts, f"{name}.csv"), ("step", "x", "y"),
                  ((i, x, y) for i, (x, y) in enumerate(pattern.cells)))
        write_csv(_output(opts, f"{name}_steps.csv"), ("x", "y", "steps"),
                  _grid_rows(steps, length))
        stats = EvalStats.from_steps(steps, 0)
        metrics[name] = {
            "path_moves": len(pattern.cells) - 1,
            "mean_steps": stats.mean,
            "median_steps": stats.median,
        }
    return metrics


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
    winners = []
    for i, result in enumerate(results):
        write_csv(_output(opts, f"sweep_{i:02d}_{result.parameter}.csv"),
                  ("value", "mean_steps", "ci_half_width"),
                  ((_fmt_exact(v.value), v.mean, v.ci_half) for v in result.per_value))
        winners.append({"parameter": result.parameter, "best_value": result.best_value})
    final_config = config_dict(final_hp)
    _write_json(_output(opts, "sweep_summary.json"),
                {"winners": winners, "final_config": final_config})
    return {"stages": len(results), "final_config": final_config}


@_command("population", "train a population of agents and report distributions",
          runs=100, episodes=1000, jobs=1)
def cmd_population(opts):
    report = population_stats(opts["hp"], opts["runs"], opts["seed"],
                              n_episodes=opts["episodes"], jobs=opts["jobs"])
    write_csv(_output(opts, "population_agents.csv"),
              ("seed", "mean_steps", "median_steps", "failures",
               "wins", "ties", "losses", "win_pct"),
              (astuple(a) for a in report.agents))
    for name, (edges, counts) in (
        ("population_steps_hist.csv", report.steps_hist),
        ("population_wins_hist.csv", report.win_hist),
    ):
        write_csv(_output(opts, name), ("bin", "count"),
                  ((float(edges[i]), int(counts[i])) for i in range(len(counts))))
    means = [a.mean_steps for a in report.agents]
    return {
        "agents": opts["runs"],
        "best_mean_steps": min(means),
        "median_of_means": statistics.median(means),
        "best_win_pct": max(a.win_pct for a in report.agents),
    }


def _write_snapshots(opts, name: str, snapshots) -> None:
    write_csv(_output(opts, name), ("episode", "x", "y", "max_q"),
              (row for episode, grid in sorted(snapshots.items())
               for row in _grid_rows(grid, opts["hp"].grid_length, episode)))


@_command("demo-static", "plain Q-learning against one fixed cloud")
def cmd_demo_static(opts):
    snapshots = static_demo(opts["hp"], opts["seed"])
    _write_snapshots(opts, "demo_static_snapshots.csv", snapshots)
    return {"snapshots": sorted(snapshots), "final_max_q": max(snapshots[max(snapshots)])}


@_command("demo-dynamic", "plain Q-learning against a respawning cloud", episodes=1000)
def cmd_demo_dynamic(opts):
    snapshots, mean_steps = dynamic_demo(opts["hp"], opts["seed"],
                                         n_eval_episodes=opts["episodes"])
    _write_snapshots(opts, "demo_dynamic_snapshots.csv", snapshots)
    return {"snapshots": sorted(snapshots), "mean_eval_steps": mean_steps,
            "eval_episodes": opts["episodes"]}


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
    if type(version := manifest.get("format", 1)) is not int or version != 1:
        raise UsageError(f"manifest {path} has format {version!r}; this version reads "
                         "format 1, or a manifest with no format key")
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
    outputs = []  # the files this run writes, in write order; the manifest comes last
    try:
        opts = _resolve(argv)
        command = COMMANDS[opts["command"]]
        path = os.path.abspath(opts["out"])
        while not os.path.exists(path):
            made.append(path)
            path = os.path.dirname(path)
        os.makedirs(opts["out"], exist_ok=True)
        started = _utc_now()
        opts["outputs"] = outputs
        metrics = command.run(opts)
        # null when the command never loaded numpy, as pattern does not.
        numpy_version = getattr(sys.modules.get("numpy"), "__version__", None)
        manifest = {
            "format": 1,
            "command": opts["command"],
            "config": config_dict(opts["hp"]),
            "seed": opts["seed"],
            "options": {flag: opts[flag] for flag in command.flags},
            "outputs": list(outputs),  # the results, without the manifest itself
            "metrics": metrics,
            "started_at": started,
            "finished_at": _utc_now(),
            "provenance": {"hmc_search": __version__, "python": sys.version.split()[0],
                           "numpy": numpy_version, "rng": RNG_CONTRACT},  # reruns ignore it
        }
        _write_json(_output(opts, f"manifest_{opts['command']}.json"), manifest)
        # The old manifest goes first: no manifest may describe files a failed rename left.
        if os.path.exists(manifest_path := os.path.join(opts["out"], outputs[-1])):
            os.remove(manifest_path)
        for name in outputs:
            os.replace(os.path.join(opts["out"], _PARTIAL.format(name)),
                       os.path.join(opts["out"], name))
        return 0
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # one with no text, as MemoryError() has, is named by its type
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2
    finally:  # on a failure, KeyboardInterrupt included, no partial and no new directory stays
        for name in outputs:
            if os.path.isfile(partial := os.path.join(opts["out"], _PARTIAL.format(name))):
                os.remove(partial)
        for path in made:  # unless the run wrote into it, as one that succeeded did
            try:
                os.rmdir(path)
            except OSError:
                break


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

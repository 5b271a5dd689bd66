"""Hyperparameter sweeps with confidence intervals.

A sweep trains a batch of independently seeded agents per candidate
value, scores each by mean evaluation steps, and picks the value with
the lowest mean.  A tuning loop chains sweeps, fixing each winner into
the base settings before the next stage, optionally running the whole
plan a second time for confirmation.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .evalharness import score_agents
from .training import CONFIG_TYPES, Hyperparams


def confidence_interval(samples) -> tuple[float, float]:
    """(mean, 95% half width) via the normal approximation 1.96 * s / sqrt(n).

    Uses the n-1 sample standard deviation; a single sample gets half
    width zero.
    """
    values = list(samples)
    n = len(values)
    if n == 0:
        raise ValueError("samples must be nonempty")
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(var) / math.sqrt(n)


class SweepValueError(ValueError):
    """A candidate value the settings reject, named with its parameter."""


@dataclass
class SweepSpec:
    parameter: str
    values: list
    base: Hyperparams = field(default_factory=Hyperparams)
    runs_per_value: int = 20
    base_seed: int = 0
    n_eval_episodes: int = 1000
    record_duels: bool = False

    def __post_init__(self):
        if self.parameter not in CONFIG_TYPES:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if not self.values:
            raise ValueError("values must be nonempty")
        # A value must have its setting's type; a bool is not a number here.
        integer = CONFIG_TYPES[self.parameter] is int
        for value in self.values:
            if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
                kind = "an integer" if integer else "a number"
                raise ValueError(f"{self.parameter} values must be {kind}, not {value!r}")
        runs = self.runs_per_value
        if isinstance(runs, bool) or not isinstance(runs, int) or runs < 1:
            raise ValueError(f"runs_per_value must be an integer >= 1, not {runs!r}")


@dataclass
class SweepValueResult:
    value: object
    run_means: list[float]
    mean: float
    ci_half: float
    win_rates: list[float] | None = None


@dataclass
class SweepResult:
    parameter: str
    per_value: list[SweepValueResult]
    best_value: object


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Train and score runs_per_value agents for every candidate value.

    The same seed block base_seed .. base_seed + runs_per_value - 1 is
    reused across values so candidates face identical evaluation noise.
    Equal (spec, seeds) always reproduce the same result; ties on the
    mean go to the earlier candidate, so list cheaper values first.
    """
    n_eval = spec.n_eval_episodes
    n_duel = n_eval if spec.record_duels else 0
    work = []
    for value in spec.values:
        # Whether a value is in range can depend on an earlier stage's winner.
        try:
            hp = spec.base.with_value(spec.parameter, value)
        except ValueError as err:
            raise SweepValueError(f"{spec.parameter} = {value!r}: {err}") from err
        for run in range(spec.runs_per_value):
            work.append((hp, spec.base_seed + run, n_eval, n_duel))
    scored = score_agents(work, jobs)
    per_value = []
    for i, value in enumerate(spec.values):
        block = scored[i * spec.runs_per_value:(i + 1) * spec.runs_per_value]
        run_means = [agent.mean_steps for agent in block]
        mean, ci_half = confidence_interval(run_means)
        win_rates = [agent.wins / n_duel for agent in block] if n_duel else None
        per_value.append(SweepValueResult(value, run_means, mean, ci_half, win_rates))
    best = min(range(len(per_value)), key=lambda i: per_value[i].mean)
    return SweepResult(spec.parameter, per_value, spec.values[best])


def tuning_loop(stages: list[SweepSpec], *, two_pass: bool = False,
                select_on: str = "steps", jobs: int = 1):
    """Run sweeps in order, fixing each winner before the next stage.

    With two_pass the whole plan repeats once more, starting from the
    first pass's winners.  select_on "wins" picks the value with the
    highest duel win rate instead of the lowest mean steps.  Returns
    (final Hyperparams, all SweepResults in execution order).
    """
    if select_on not in ("steps", "wins"):
        raise ValueError("select_on must be 'steps' or 'wins'")
    if not stages:
        raise ValueError("stages must be nonempty")
    hp = stages[0].base
    results: list[SweepResult] = []
    passes = 2 if two_pass else 1
    for _ in range(passes):
        for stage in stages:
            spec = dataclasses.replace(
                stage, base=hp,
                record_duels=stage.record_duels or select_on == "wins",
            )
            result = run_sweep(spec, jobs=jobs)
            if select_on == "wins":
                rates = [sum(v.win_rates) / len(v.win_rates) for v in result.per_value]
                best = max(range(len(rates)), key=lambda i: rates[i])
                result = SweepResult(result.parameter, result.per_value,
                                     spec.values[best])
            hp = hp.with_value(spec.parameter, result.best_value)
            results.append(result)
    return hp, results


def load_plan(source, base: Hyperparams, *, base_seed: int = 0,
              runs_per_value: int | None = None,
              n_eval_episodes: int = 1000):
    """Build (stages, options) from a JSON plan file or an equivalent dict.

    Plan shape: {"stages": [{"parameter": ..., "values": [...],
    "runs_per_value"?}, ...], "runs_per_value"?, "two_pass"?, "select_on"?}.
    A runs_per_value argument overrides everything in the file.  Raises
    ValueError on a plan of another shape, on a value of the wrong type for
    its parameter and on a runs_per_value that is not an integer >= 1, and
    OSError on an unreadable file.  Whether a value is in range is checked
    by run_sweep, against the settings the stage starts from.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "read"):
        if hasattr(source, "read"):
            plan = json.load(source)
        else:
            with open(source) as handle:
                plan = json.load(handle)
    else:
        plan = source
    if not isinstance(plan, dict) or not isinstance(plan.get("stages"), list):
        raise ValueError("plan must be an object with a 'stages' list")
    select_on = plan.get("select_on", "steps")
    if select_on not in ("steps", "wins"):
        raise ValueError(f"select_on must be 'steps' or 'wins', not {select_on!r}")
    default_runs = plan.get("runs_per_value", 20)
    stages = []
    for i, entry in enumerate(plan["stages"]):
        if not (isinstance(entry, dict) and "parameter" in entry
                and isinstance(entry.get("values"), list)):
            raise ValueError(f"stage {i} must be an object with a 'parameter' "
                             "and a 'values' list")
        runs = runs_per_value
        if runs is None:
            runs = entry.get("runs_per_value", default_runs)
        stages.append(SweepSpec(
            parameter=entry["parameter"],
            values=list(entry["values"]),
            base=base,
            runs_per_value=runs,
            base_seed=base_seed,
            n_eval_episodes=n_eval_episodes,
        ))
    options = {
        "two_pass": bool(plan.get("two_pass", False)),
        "select_on": select_on,
    }
    return stages, options

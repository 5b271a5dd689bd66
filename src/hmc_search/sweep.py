"""Hyperparameter sweeps with confidence intervals.

A sweep trains a batch of independently seeded agents per candidate
value, scores each by mean evaluation steps, and picks the value its
select_on rule names: the lowest mean steps, or the highest mean snake
duel win rate.  A tuning loop chains sweeps, fixing each winner into
the base settings before the next stage.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

from .evalharness import score_agents
from .training import CONFIG_TYPES, Hyperparams, reject_unknown_keys, setting_value


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
    select_on: str = "steps"  # "wins" also duels every run against the snake

    def __post_init__(self):
        if not isinstance(self.parameter, str) or self.parameter not in CONFIG_TYPES:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if not self.values:
            raise ValueError("values must be nonempty")
        # Types only: run_sweep checks ranges against the stage's settings.
        self.values = [setting_value(self.parameter, v) for v in self.values]
        runs = self.runs_per_value
        if isinstance(runs, bool) or not isinstance(runs, int) or runs < 1:
            raise ValueError(f"runs_per_value must be an integer >= 1, not {runs!r}")
        if self.select_on not in ("steps", "wins"):
            raise ValueError(f"select_on must be 'steps' or 'wins', not {self.select_on!r}")


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
    selection score go to the earlier candidate, so list cheaper values
    first.
    """
    n_eval = spec.n_eval_episodes
    n_duel = n_eval if spec.select_on == "wins" else 0
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
    # max and min both keep the earliest of equal candidates.
    if spec.select_on == "wins":
        best = max(per_value, key=lambda v: sum(v.win_rates) / len(v.win_rates))
    else:
        best = min(per_value, key=lambda v: v.mean)
    return SweepResult(spec.parameter, per_value, best.value)


def tuning_loop(stages: list[SweepSpec], *, jobs: int = 1):
    """Run sweeps in order, fixing each winner before the next stage.

    Returns (final Hyperparams, one SweepResult per stage, in order).
    """
    if not stages:
        raise ValueError("stages must be nonempty")
    hp = stages[0].base
    results: list[SweepResult] = []
    for stage in stages:
        result = run_sweep(dataclasses.replace(stage, base=hp), jobs=jobs)
        hp = hp.with_value(stage.parameter, result.best_value)
        results.append(result)
    return hp, results


def load_plan(source, base: Hyperparams, *, base_seed: int = 0,
              runs_per_value: int | None = None,
              n_eval_episodes: int = 1000) -> list[SweepSpec]:
    """Build the list of stages from a JSON plan file's path or an equivalent dict.

    Plan shape: {"stages": [{"parameter": ..., "values": [...]}, ...],
    "runs_per_value"?, "select_on"?}.  runs_per_value and select_on go on
    every stage; a runs_per_value argument overrides the file's.  Raises
    ValueError on a plan of another shape, with unknown keys or no stages,
    or with a field SweepSpec rejects, and OSError on an unreadable file.
    Whether a value is in range is checked by run_sweep, against the
    settings the stage starts from.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as handle:
            plan = json.load(handle)
    else:
        plan = source
    if not isinstance(plan, dict) or not isinstance(plan.get("stages"), list):
        raise ValueError("plan must be an object with a 'stages' list")
    reject_unknown_keys(plan, ("stages", "runs_per_value", "select_on"), "plan")
    if not plan["stages"]:
        raise ValueError("stages must be nonempty")
    if runs_per_value is None:
        runs_per_value = plan.get("runs_per_value", 20)
    stages = []
    for i, entry in enumerate(plan["stages"]):
        if not (isinstance(entry, dict) and "parameter" in entry
                and isinstance(entry.get("values"), list)):
            raise ValueError(f"stage {i} must be an object with a 'parameter' "
                             "and a 'values' list")
        reject_unknown_keys(entry, ("parameter", "values"), f"stage {i}")
        stages.append(SweepSpec(
            parameter=entry["parameter"],
            values=entry["values"],
            base=base,
            runs_per_value=runs_per_value,
            base_seed=base_seed,
            n_eval_episodes=n_eval_episodes,
            select_on=plan.get("select_on", "steps"),
        ))
    return stages

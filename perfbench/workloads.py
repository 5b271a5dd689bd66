"""The benchmark's workloads, run in a fresh interpreter per workload.

Usage (normally started by run.py, which also measures set-up time):

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

The workload seed only draws the unit seeds; the program sees nothing
but the generated command lines and arguments.  Every unit's outputs are
checked: invariants for any seed, and sha256 digests for unit seeds that
have one recorded in digests.json.  The last stdout line is a JSON object
with the measured values, the unit counts and the provenance.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hmc_search
from hmc_search import cli, training
from hmc_search.baselines import snake_path, spiral_path, steps_to_find
from hmc_search.env import make_cloud
from hmc_search.training import Hyperparams

import calibrate
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

GRID, DIAMETER, MAX_STEPS = 20, 5, 400
# Per-center step aggregates of the two patterns, as test_01 pins them.
SNAKE_MEAN, SNAKE_MEDIAN, SPIRAL_MEAN = 53.51, 54, 66.74


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _in_budget(value) -> bool:
    return 1 <= int(value) <= MAX_STEPS


# Units call the package through module attributes (cli.dispatch,
# training.train_agent), looked up at call time, so that a traced run goes
# through the wrappers; the output checks use the names imported above and
# stay out of the trace.
def _dispatch(argv: list[str]) -> None:
    code = cli.dispatch(argv)
    if code != 0:
        raise RuntimeError(f"hmc-search {' '.join(argv)} exited {code}")


def _cli_outputs(out: Path) -> dict[str, bytes]:
    # Manifests carry timestamps, so only the result files are compared.
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file() and not p.name.startswith("manifest_")}


def pattern_errors() -> tuple[list[str], dict[str, list[int]]]:
    """Per-center pattern steps, checked against the test_01 aggregates."""
    errors = []
    steps = {}
    for build in (snake_path, spiral_path):
        pattern = build(GRID, DIAMETER)
        steps[pattern.kind] = [
            steps_to_find(pattern, make_cloud((x, y), DIAMETER, GRID), MAX_STEPS)
            for x in range(GRID) for y in range(GRID)]
    snake, spiral = steps["snake"], steps["spiral"]
    if abs(statistics.fmean(snake) - SNAKE_MEAN) > 0.15 * SNAKE_MEAN:
        errors.append("snake mean steps off the reference")
    if abs(sorted(snake)[(len(snake) - 1) // 2] - SNAKE_MEDIAN) > 3:
        errors.append("snake median steps off the reference")
    if abs(statistics.fmean(spiral) - SPIRAL_MEAN) > 0.15 * SPIRAL_MEAN:
        errors.append("spiral mean steps off the reference")
    if max(snake + spiral) >= MAX_STEPS:
        errors.append("a pattern misses a cloud center")
    return errors, steps


class Workload:
    """One unit of work per seed; run() does the work, check() judges outputs."""

    agents = 1  # agents trained per unit
    train_episodes = 1000  # training episodes per unit
    greedy_episodes = 0  # greedy episodes in the unit's "greedy" stage
    pooled = False  # runs its agents in a process pool

    def run(self, seed: int, out: Path, jobs: int):
        """Do one unit; return ((start, end) per stage, returned value)."""
        raise NotImplementedError

    def outputs(self, out: Path, result) -> dict[str, bytes]:
        return _cli_outputs(out)

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        raise NotImplementedError

    def demo_steps(self, result) -> int:
        return 0


class AgentPipeline(Workload):
    """train, eval, duel and both score maps through the CLI, per seed."""

    greedy_episodes = 1000 + 1000 + 2 * GRID * GRID

    def run(self, seed, out, jobs):
        common = ["--seed", str(seed), "--out", str(out)]
        t0 = time.perf_counter()
        _dispatch(["train", *common])
        t1 = time.perf_counter()
        _dispatch(["eval", *common])
        _dispatch(["duel", *common])
        _dispatch(["scoremap", "--opponent", "snake", *common])
        _dispatch(["scoremap", "--opponent", "spiral", *common])
        t2 = time.perf_counter()
        return {"train": (t0, t1), "greedy": (t1, t2)}, None

    def check(self, outputs):
        errors = []
        expected = {"qtable.csv", "train_report.csv", "eval_steps.csv", "duels.csv",
                    "scoremap_snake.csv", "scoremap_spiral.csv"}
        if set(outputs) != expected:
            return [f"outputs {sorted(outputs)} differ from {sorted(expected)}"]
        if len(_rows(outputs["qtable.csv"])) != GRID * GRID * 4:
            errors.append("qtable.csv does not hold one row per (cell, direction)")
        report = _rows(outputs["train_report.csv"])
        if len(report) != 1000 or not all(_in_budget(r["n_step"]) for r in report):
            errors.append("train_report.csv: wrong length or a step count outside [1, max_steps]")
        steps = _rows(outputs["eval_steps.csv"])
        if len(steps) != 1000 or not all(_in_budget(r["steps"]) for r in steps):
            errors.append("eval_steps.csv: wrong length or a step count outside [1, max_steps]")
        duels = {r["opponent"]: r for r in _rows(outputs["duels.csv"])}
        if sorted(duels) != ["snake", "spiral"] or any(
                int(r["wins"]) + int(r["ties"]) + int(r["losses"]) != 1000
                for r in duels.values()):
            errors.append("duels.csv: wins + ties + losses differ from the runs")
        pattern_problems, pattern_steps = pattern_errors()
        errors += pattern_problems
        for name in ("snake", "spiral"):
            rows = _rows(outputs[f"scoremap_{name}.csv"])
            centers = {(int(r["x"]), int(r["y"])) for r in rows}
            labels = [r["outcome"] for r in rows]
            if len(rows) != GRID * GRID or len(centers) != GRID * GRID or \
                    labels.count("win") + labels.count("tie") + labels.count("loss") != GRID * GRID:
                errors.append(f"scoremap_{name}.csv: not one win/tie/loss per center")
                continue
            # The agent collects only on entering a cell, so it loses every
            # center whose cloud covers the start, where the pattern scores 0.
            covered = [label for label, steps in zip(labels, pattern_steps[name]) if steps == 0]
            if not covered or any(label != "loss" for label in covered):
                errors.append(f"scoremap_{name}.csv: start-covering centers are not losses")
        return errors


class TrainHeavy(Workload):
    """train_agent alone on three-cloud fields with three attempts per episode."""

    hp = Hyperparams(num_clouds=3, best_learn_value=3)

    def run(self, seed, out, jobs):
        return {}, training.train_agent(self.hp, seed)

    def outputs(self, out, report):
        lines = ["episode,epsilon,n_step,n_poll,r_t"] + [
            f"{r.episode},{r.epsilon!r},{r.n_step},{r.n_poll},{r.r_t!r}" for r in report.records]
        return {"qtable.f64": report.q.tobytes(),
                "train_report.csv": ("\n".join(lines) + "\n").encode()}

    def check(self, outputs):
        errors = []
        q = np.frombuffer(outputs["qtable.f64"], dtype=np.float64)
        if q.size != GRID * GRID * 4 or not np.isfinite(q).all():
            errors.append("q-table has the wrong size or a non-finite value")
        records = _rows(outputs["train_report.csv"])
        if len(records) != 1000:
            errors.append("train report does not hold one record per episode")
        for r in records:
            n_step, n_poll, r_t = int(r["n_step"]), int(r["n_poll"]), float(r["r_t"])
            expected = self.hp.reward_scaling * n_poll / n_step if n_poll else 0.0
            if not _in_budget(n_step) or not 0 <= n_poll <= 3 or r_t != expected:
                errors.append(f"episode {r['episode']}: steps, finds or return out of contract")
                break
        return errors


class PlainQ(Workload):
    """dynamic_demo at its default size: per-step Q-learning, no options."""

    train_episodes = 2000

    def run(self, seed, out, jobs):
        return {}, training.dynamic_demo(Hyperparams(), seed)

    def outputs(self, out, result):
        snapshots, mean = result
        keys = sorted(snapshots)
        grids = np.stack([snapshots[k] for k in keys])
        return {"snapshot_episodes.txt": repr(keys).encode(),
                "snapshots.f64": grids.tobytes(),
                "eval_mean.txt": repr(mean).encode()}

    def check(self, outputs):
        errors = []
        if outputs["snapshot_episodes.txt"] != b"[0, 1, 500, 1000, 2000]":
            errors.append("unexpected snapshot episodes")
        grids = np.frombuffer(outputs["snapshots.f64"], dtype=np.float64)
        if grids.size != 5 * GRID * GRID or not np.isfinite(grids).all() or \
                grids[:GRID * GRID].any():
            errors.append("snapshots have the wrong size, a non-finite value or a trained start")
        if not 1.0 <= float(outputs["eval_mean.txt"]) <= MAX_STEPS:
            errors.append("mean evaluation steps outside [1, max_steps]")
        return errors

    def demo_steps(self, result):
        # 2000 learning episodes run the full budget; each evaluation episode
        # stops at its find and a failure runs the budget, so mean * 1000 is
        # the exact evaluation step total.
        return 2000 * MAX_STEPS + round(result[1] * 1000)


class SweepPool(Workload):
    """A three-value sweep plan through the CLI and its process pool."""

    values = [2, 3, 4]
    runs = 2
    agents = len(values) * runs
    train_episodes = agents * 1000
    pooled = True

    def run(self, seed, out, jobs):
        plan = out.parent / "plan.json"
        if not plan.exists():
            plan.write_text(json.dumps({
                "stages": [{"parameter": "option_length", "values": self.values}],
                "select_on": "wins"}))
        _dispatch(["sweep", "--plan", str(plan), "--runs", str(self.runs),
                   "--episodes", "200", "--jobs", str(jobs),
                   "--seed", str(seed), "--out", str(out)])
        return {}, None

    def check(self, outputs):
        errors = []
        if set(outputs) != {"sweep_00_option_length.csv", "sweep_summary.json"}:
            return [f"unexpected outputs {sorted(outputs)}"]
        rows = _rows(outputs["sweep_00_option_length.csv"])
        if [int(r["value"]) for r in rows] != self.values or not all(
                1 <= float(r["mean_steps"]) <= MAX_STEPS and float(r["ci_half_width"]) >= 0
                for r in rows):
            errors.append("sweep CSV: wrong values, mean steps or interval")
        summary = json.loads(outputs["sweep_summary.json"])
        best = summary["winners"][0]["best_value"]
        if best not in self.values or summary["final_config"]["option_length"] != best:
            errors.append("sweep summary: winner missing from the plan or from the final config")
        return errors


WORKLOADS = {
    "agent_pipeline": AgentPipeline(),
    "train_heavy": TrainHeavy(),
    "plain_q": PlainQ(),
    "sweep_pool": SweepPool(),
}


@dataclass
class Unit:
    seed: int
    wall: float = 0.0
    slice_s: float = 0.0  # mean reference slice seconds while the unit ran
    stages: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    output_bytes: int = 0
    demo_steps: int = 0


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def output_errors(workload: Workload, outputs: dict[str, bytes], expected) -> list[str]:
    """Invariant violations, plus a digest mismatch where digests are recorded."""
    errors = workload.check(outputs)
    if expected is not None and expected != digests(outputs):
        errors.append("output digests differ from those recorded in digests.json")
    return errors


def run_unit(workload: Workload, seed: int, jobs: int, recorded: dict,
             meter: calibrate.Speedometer | None = None) -> Unit:
    """One unit; with a meter, its times leave out the meter's slices.

    The unit's host speed is the mean slice time while it ran, or, for a
    unit on several cores, that of the meter's blocks right after it.
    """
    unit = Unit(seed)
    out = Path(tempfile.mkdtemp(prefix="unit-", dir=WORK))

    def own(start, end):
        return end - start - (sum(meter.during(start, end)) if meter else 0.0)

    start = end = time.perf_counter()
    try:
        stages, result = workload.run(seed, out, jobs)
        end = time.perf_counter()
        unit.wall = own(start, end)
        unit.stages = {name: own(*span) for name, span in stages.items()}
        outputs = workload.outputs(out, result)
        unit.output_bytes = sum(p.stat().st_size for p in out.iterdir())
        unit.demo_steps = workload.demo_steps(result)
        unit.digests = digests(outputs)
        unit.errors = output_errors(workload, outputs, recorded.get(str(seed)))
    except Exception as err:  # a failed unit is counted, not fatal
        unit.errors.append(f"{type(err).__name__}: {err}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if meter:
        # A unit that failed at once has no slices of its own.
        unit.slice_s = statistics.fmean(
            meter.block() if meter.jobs > 1 else meter.during(start, end)
            or [calibrate.kernel_seconds()])
    for message in unit.errors:
        print(f"unit seed {seed}: {message}", file=sys.stderr)
    return unit


def unit_seeds(workload_seed: int):
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(1_000_000)


def run_for(workload, seeds, seconds, jobs, recorded) -> list[Unit]:
    """Run units while the next one should end within the time; at least one.

    A Speedometer (calibrate.py) samples the host speed while they run.
    """
    units = []
    start = time.perf_counter()
    elapsed = 0.0
    with calibrate.Speedometer(jobs if workload.pooled else 1) as meter:
        while not units or elapsed * (len(units) + 1) / len(units) <= seconds:
            units.append(run_unit(workload, next(seeds), jobs, recorded, meter))
            elapsed = time.perf_counter() - start
    return units


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload: Workload, units: list[Unit]) -> dict[str, float]:
    """Timings in reference seconds (calibrate.py), medians over the units."""
    ok = [u for u in units if not u.errors] or units

    def ref(unit, seconds):
        return calibrate.reference_seconds(seconds, unit.slice_s)

    return {
        "wall_s": _median([ref(u, u.wall) for u in ok]),
        "agent_s": _median([ref(u, u.wall) / workload.agents for u in ok]),
        "train_episodes_per_s": _median(
            [workload.train_episodes / ref(u, u.stages.get("train", u.wall)) for u in ok]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload: Workload, untraced: list[Unit], traced: list[Unit],
              tracer: Tracer, inner: Tracer | None, efficiency: float) -> dict[str, float]:
    layers = {k: v / len(traced) for k, v in tracer.layer_totals().items()}
    if inner is not None:
        # Spans of pool workers stay in the workers, so the layers below the
        # pool come from the jobs-1 pass; cli and sweep from the jobs-N pass.
        layers = {**inner.layer_totals(),
                  **{k: v for k, v in layers.items() if k.startswith(("cli.", "sweep."))}}

    def get(key):
        return layers.get(key, 0.0)

    def ratio(part, whole):
        return get(part) / get(whole) if get(whole) else 0.0

    ok = [u for u in untraced if not u.errors] or untraced
    units = untraced + traced
    metrics = {k: v for k, v in layers.items() if k.endswith((".calls", ".self_s"))}
    for key in ("policy.select_option.explore", "policy.select_option.exploit",
                "policy.primitive_steps", "policy.clamped_options", "training.decisions",
                "training.failed_episodes", "training.decision_cap_exits",
                "evalharness.eval_episodes"):
        metrics[key] = get(key)
    metrics.update({
        "policy.useful_option_ratio": ratio("policy.useful_options", "policy.options"),
        "training.learned_episode_ratio":
            ratio("training.learned_episodes", "training.trained_episodes"),
        "sweep.pool.efficiency": efficiency,
        "cli.output_bytes": _median([u.output_bytes for u in traced]),
        "trace.overhead_ratio": sum(u.wall for u in traced) / sum(u.wall for u in untraced) - 1,
        "error_rate": sum(1 for u in units if u.errors) / len(units),
        "untraced.eval_episodes_per_s": _median(
            [workload.greedy_episodes / u.stages["greedy"] for u in ok if "greedy" in u.stages]),
        "untraced.demo_steps_per_s": _median(
            [u.demo_steps / u.wall for u in ok if u.demo_steps]),
    })
    return metrics


def traced_run(workload: Workload, name: str, seeds, seconds: float, jobs: int,
               recorded: dict) -> tuple[list[Unit], dict[str, float]]:
    """Untraced units for a third of the time, then the same seeds traced."""
    untraced = run_for(workload, seeds, seconds / 3, jobs, recorded)
    tracer = Tracer()
    with tracer.installed():
        traced = [run_unit(workload, u.seed, jobs, recorded) for u in untraced]
    pairs = list(zip(untraced, traced))
    inner, efficiency, extra = None, 0.0, []
    if workload.pooled:
        inner = Tracer()
        with inner.installed():
            serial = run_unit(workload, untraced[0].seed, 1, recorded)
        efficiency = serial.wall / (jobs * traced[0].wall)
        pairs.append((untraced[0], serial))
        extra.append(serial)
    for plain, again in pairs:
        if plain.digests != again.digests:
            again.errors.append("traced outputs differ from untraced outputs")
            print(f"unit seed {plain.seed}: traced outputs differ", file=sys.stderr)
    tracer.save(WORK / f"spans_{name}.npz")
    if inner is not None:
        inner.save(WORK / f"spans_{name}_jobs1.npz")
    return untraced + traced + extra, per_layer(workload, untraced, traced, tracer, inner,
                                                efficiency)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests in digests.json")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(hmc_search.__file__).resolve().parent.parent != src:
        print(f"error: hmc_search imported from {hmc_search.__file__}, not {src}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    jobs = min(2, os.cpu_count() or 1)
    all_recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = all_recorded.get(args.workload, {})
    seeds = unit_seeds(args.seed)

    if args.trace == 0:
        units = run_for(workload, seeds, args.seconds, jobs, recorded)
        metrics = end_to_end(workload, units)
    else:
        units, metrics = traced_run(workload, args.workload, seeds, args.seconds, jobs, recorded)

    if args.record_digests:
        all_recorded[args.workload] = {
            **recorded, **{str(u.seed): u.digests for u in units if not u.errors}}
        DIGESTS.write_text(json.dumps(all_recorded, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "attempted": len(units),
        "failed": sum(1 for u in units if u.errors),
        "metrics": metrics,
        "samples": {"units": len(units), "unit_wall_s": [u.wall for u in units],
                    "unit_slice_s": [u.slice_s for u in units],
                    "reference_slice_s": calibrate.REFERENCE_SLICE_S},
        "provenance": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "hmc_search": hmc_search.__version__,
            "workload_seed": args.seed,
            "unit_seeds": [u.seed for u in units],
            "jobs": jobs,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

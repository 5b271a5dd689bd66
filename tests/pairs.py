"""Paired benchmark runs of two checkouts, with an A/A control, into one BENCH file.

    python tests/pairs.py PARENT CHANGE --workload W --pairs N --seconds S --out BENCH.json

PARENT and CHANGE are checkouts.  perfbench/run.py imports the src/ of its
own checkout, so the script copies three trees into a scratch directory,
each with CHANGE's perfbench/ and BENCHMARK.json: the parent (PARENT's
src/), the change (CHANGE's src/) and a copy of the parent.  Each round
runs `perfbench/run.py --workload W --seed SEED --seconds S --trace 0` once
in each tree, with PYTHONDONTWRITEBYTECODE=1, in an order that turns over
from round to round through all six.  The parent against the change is the
claim; the parent against its copy, in the same session, is the A/A
control: the ratio that noise alone gives.  The script refuses to start if
either checkout holds a __pycache__, which the copy would carry and which
speeds a fresh interpreter's start.

--out is read if it exists, and it must then name the same host and
commits.  The run goes in as one session, keyed WORKLOAD@SECONDSs/seedSEED:

    {"host": {nproc, python, numpy, platform}, "commits": {parent, change},
     "sessions": {"agent_pipeline@25s/seed0": {
        "command", "pairs", "order": [[side, side, side], ...],
        "failed": {side: operations failed}, "correct": true,
        "metrics": {"agent_pipeline.wall_s": {
            "better": "lower", "bound": 0.25,
            "parent": {"median", "q1", "q3", "runs"},
            "change" and "parent_copy": {"median", "q1", "q3", "runs", "ratio",
                "better_pairs", "beyond_parent_iqr", "within_bound", "claim_met"}}}}}}

A value's median and quartiles are over the runs (inclusive quartiles); a
ratio is that side's median over the parent's; better_pairs counts the
rounds in which that side read better than the parent, ties counting for
neither; beyond_parent_iqr says whether the medians differ by more than the
distance between the parent runs' quartiles; within_bound whether the side's
median is worse than the parent's by no more than the metric's bound in
BENCHMARK.json; claim_met whether a gain claimed for the side would hold: it
read better in at least 9 of 10 rounds, and its median differs from the
parent's beyond that spread in the better direction.

After writing --out the script prints one line per metric of the session
to stderr: the parent's and the change's medians, the change's ratio,
better rounds and claim_met, and the A/A copy's ratio.  Standard library only.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change", "parent_copy")
ORDERS = list(itertools.permutations(SIDES))


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict[str, list[dict[str, float]]], spec: dict) -> dict:
    """Per metric `workload.name` of the runs: each side's statistics against the parent's.

    runs maps each side to its per-run values, round by round; spec is BENCHMARK.json.
    """
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    summary = {}
    for key in runs["parent"][0]:
        better, bound = rules[key.split(".", 1)[1]]
        sign = 1 if better == "higher" else -1
        parent = [run[key] for run in runs["parent"]]
        row = {"better": better, "bound": bound, "parent": stats(parent)}
        base, iqr = row["parent"]["median"], row["parent"]["q3"] - row["parent"]["q1"]
        for side in SIDES[1:]:
            values = [run[key] for run in runs[side]]
            row[side] = side_row = stats(values)
            median = side_row["median"]
            better_pairs = sum(sign * (value - old) > 0 for value, old in zip(values, parent))
            beyond, gain = abs(median - base) > iqr, sign * (median - base)
            side_row.update(
                ratio=median / base, better_pairs=better_pairs, beyond_parent_iqr=beyond,
                within_bound=gain >= -bound * base,
                claim_met=10 * better_pairs >= 9 * len(values) and beyond and gain > 0)
        summary[key] = row
    return summary


def summary_line(session: str, key: str, row: dict) -> str:
    """One metric of a summarized session, as the line the script prints."""
    change = row["change"]
    return (f"{session} {key}: parent {row['parent']['median']:.6g}, change "
            f"{change['median']:.6g}, ratio {change['ratio']:.3f}, better "
            f"{change['better_pairs']}/{len(change['runs'])}, claim_met {change['claim_met']}, "
            f"A/A {row['parent_copy']['ratio']:.3f}")


def run_once(tree: Path, argv: list[str]) -> dict:
    """run.py's JSON result line, run in tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tree, env=env,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {tree} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def describe(checkout: Path) -> str | None:
    """git describe --always --dirty of a checkout, or None outside git."""
    done = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def host() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "hmc_search").is_dir():
            parser.error(f"{checkout} holds no src/hmc_search")
        cached = next(checkout.rglob("__pycache__"), None)
        if cached is not None:
            parser.error(f"{cached} would speed its side's start; remove it first")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    record = {"host": host(), "commits": {side: describe(getattr(args, side))
                                          for side in ("parent", "change")}}
    if args.out.exists():
        earlier = json.loads(args.out.read_text())
        if {key: earlier.get(key) for key in record} != record:
            parser.error(f"{args.out} names another host or other commits")
        record = earlier
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", "0"]
    runs = {side: [] for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    correct = True
    with tempfile.TemporaryDirectory(prefix="pairs-") as work:
        trees = {side: Path(work, side) for side in SIDES}
        for side, tree in trees.items():
            source = args.change if side == "change" else args.parent
            shutil.copytree(source / "src", tree / "src")
            shutil.copytree(args.change / "perfbench", tree / "perfbench")
            shutil.copy(args.change / "BENCHMARK.json", tree)
        order = [ORDERS[i % len(ORDERS)] for i in range(args.pairs)]
        for i, sides in enumerate(order):
            for side in sides:
                result = run_once(trees[side], command)
                failed[side] += result["failed"]
                correct = correct and result["correct"]
                runs[side].append({
                    name if args.workload == "all" else f"{args.workload}.{name}":
                        metric["value"] for name, metric in result["metrics"].items()})
            print(f"round {i + 1}/{args.pairs} done: {' '.join(sides)}", file=sys.stderr)
    session = f"{args.workload}@{args.seconds:g}s/seed{args.seed}"
    metrics = summarize(runs, spec)
    record.setdefault("sessions", {})[session] = {
        "command": "python3 perfbench/run.py " + " ".join(command), "pairs": args.pairs,
        "order": order, "failed": failed, "correct": correct, "metrics": metrics}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for key, row in metrics.items():
        print(summary_line(session, key, row), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

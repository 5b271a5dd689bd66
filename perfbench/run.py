"""Benchmark entry point: one workload per fresh interpreter, metrics by name.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

With --trace 0 it measures set-up time in several fresh interpreters,
runs the workload's units in another fresh interpreter (workloads.py) and
prints every end-to-end metric of BENCHMARK.json.  With --trace 1 the
same interpreter also replays the units with every layer wrapped and it
prints the per-layer metrics instead.  The last stdout line is the JSON
result; a copy with samples and provenance goes to .perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
SETUP_SLICES = 20
# A run must end within 180 s; leave room for set-up and reporting.
CHILD_TIMEOUT_S = 165
SETUP_CODE = (
    "import sys, pathlib, hmc_search\n"
    "from hmc_search import Hyperparams, snake_path, spiral_path\n"
    "Hyperparams(); snake_path(20, 5); spiral_path(20, 5)\n"
    "sys.exit(pathlib.Path(hmc_search.__file__).resolve().parent.parent != "
    "pathlib.Path(sys.argv[1]).resolve())\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Median time of a fresh interpreter importing and building the basics.

    In reference seconds, like the workload timings (calibrate.py): each
    start is scaled by the mean of kernel slices run just before and just
    after it.
    """
    def slice_seconds():
        return statistics.fmean(calibrate.kernel_seconds() for _ in range(SETUP_SLICES))

    times = []
    calibrate.kernel()  # warm-up
    before = slice_seconds()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                       env=child_env(), check=True, timeout=60)
        seconds = time.perf_counter() - start
        after = slice_seconds()
        times.append(calibrate.reference_seconds(seconds, (before + after) / 2))
        before = after
    return statistics.median(times)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    setup = setup_seconds() if trace == 0 else None
    done = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S - (time.perf_counter() - started))
    if done.returncode != 0:
        raise RuntimeError(f"workload {workload} exited {done.returncode}")
    child = json.loads(done.stdout.strip().splitlines()[-1])
    values = dict(child["metrics"], setup_s=setup)
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    provenance = dict(child["provenance"], git_commit=git_commit(),
                      platform=platform.platform(), trace=trace, seconds=seconds)
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    (work / f"result_{workload}_seed{seed}_trace{trace}.json").write_text(json.dumps(
        dict(result, workload=workload, samples=child["samples"], provenance=provenance),
        indent=1) + "\n")
    print(f"{workload}: provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"{workload}: {child['samples']['units']} units, "
          f"{child['failed']} failed of {child['attempted']} attempted")
    for name, metric in metrics.items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hmc_search" / "__init__.py").is_file():
        print(f"error: no hmc_search sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
        else:
            results = {w: run_workload(spec, w, args.seed, args.seconds, args.trace)
                       for w in names}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": metric for w, r in results.items()
                            for name, metric in r["metrics"].items()},
            }
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError,
            IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte parity of every command's result files, run in one process.

For each config and seed this runs, through hmc_search.cli.dispatch,
train, eval, duel, both score maps, route, pattern, both plain Q-learning
demos, a population and a one-stage two-value sweep (those two at --jobs 1
and at --jobs 2), and an eval rerun from eval's manifest.  It writes the
sha256 of every file they leave as one JSON object keyed
config/seed/file.  A manifest is hashed without its timestamps, its path
options and its provenance, which differ between checkouts and runs.

    python tests/parity.py --out digests.json [--src SRC]
    python tests/parity.py --compare OLD.json NEW.json

--src is the source tree hmc_search is imported from, by default the src
beside this script's directory, so that one copy of the script hashes any
checkout.  --compare prints each file whose digest differs or that only
one side has, and exits 1 if there is any.  Standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

CONFIGS = {
    "defaults": {},
    "clouds": {"grid_length": 8, "pollution_diameter": 3, "num_clouds": 3,
               "best_learn_value": 3},
    "discounted": {"grid_length": 11, "pollution_diameter": 4, "discount_rate": 0.9,
                   "option_length": 2},
    # perfbench's train_heavy: three clouds, three attempts per episode.
    "train_heavy": {"num_clouds": 3, "best_learn_value": 3},
    # A budget below both pattern paths (114 and 143 moves), so that they run out.
    "short_budget": {"max_steps": 80},
    "option_length_1": {"option_length": 1},
}
SEEDS = (0, 1, 7)
PLAN = {"stages": [{"parameter": "option_length", "values": [1, 3]}]}
# The commands that write into the run's own directory; run() adds the
# pooled ones, once per --jobs value, and the rerun.
STAGES = (["train"], ["eval"], ["duel"], ["scoremap", "--opponent", "snake"],
          ["scoremap", "--opponent", "spiral"], ["route"], ["pattern"], ["demo-static"],
          ["demo-dynamic"])
# Manifest keys and options that name a time, a place or a build, not a result.
_VOLATILE = ("started_at", "finished_at", "provenance")
_PATH_OPTIONS = ("qtable", "plan")


def run(config: dict, seed: int, out: str) -> None:
    """Run every stage on config and seed, writing into out."""
    from hmc_search.cli import dispatch
    os.makedirs(out, exist_ok=True)
    for name, payload in (("config.json", config), ("plan.json", PLAN)):
        with open(os.path.join(out, name), "w") as handle:
            json.dump(payload, handle)
    common = ["--config", os.path.join(out, "config.json"), "--seed", str(seed)]
    stages = [[*argv, *common, "--out", out] for argv in STAGES]
    for jobs in ("1", "2"):
        pooled = ["--jobs", jobs, *common, "--out", os.path.join(out, f"jobs{jobs}")]
        stages += [["population", "--runs", "3", "--episodes", "100", *pooled],
                   ["sweep", "--runs", "2", "--episodes", "100",
                    "--plan", os.path.join(out, "plan.json"), *pooled]]
    stages.append(["eval", "--from-manifest", os.path.join(out, "manifest_eval.json"),
                   "--out", os.path.join(out, "rerun")])
    for argv in stages:
        if dispatch(argv) != 0:
            raise RuntimeError(f"failed: {' '.join(argv)}")


def file_digest(path: str) -> str:
    """sha256 of a result file; of a manifest without its volatile fields."""
    with open(path, "rb") as handle:
        data = handle.read()
    if os.path.basename(path).startswith("manifest_"):
        manifest = json.loads(data)
        for key in _VOLATILE:
            manifest.pop(key, None)
        for key in _PATH_OPTIONS:
            manifest.get("options", {}).pop(key, None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by its /-separated relative path."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            found[os.path.relpath(path, root).replace(os.sep, "/")] = file_digest(path)
    return found


def digests() -> dict[str, str]:
    """config/seed/file -> sha256 for every config and seed."""
    found = {}
    with tempfile.TemporaryDirectory() as work:
        for name, config in CONFIGS.items():
            for seed in SEEDS:
                out = os.path.join(work, name, f"seed{seed}")
                run(config, seed, out)
                found.update({f"{name}/seed{seed}/{key}": value
                              for key, value in tree_digests(out).items()})
    return found


def compare(old: dict, new: dict) -> list[str]:
    """One line per file whose digest differs or that only one side has."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"{key}: only in old")
        elif key not in old:
            lines.append(f"{key}: only in new")
        elif old[key] != new[key]:
            lines.append(f"{key}: differs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="digest JSON to write")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "src"),
        help="source tree to import hmc_search from")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="digest JSONs to compare instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        tables = []
        for path in args.compare:
            with open(path) as handle:
                tables.append(json.load(handle))
        lines = compare(*tables)
        for line in lines:
            print(line)
        return 1 if lines else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    sys.path.insert(0, os.path.abspath(args.src))
    import hmc_search
    print(f"hashing the outputs of {os.path.dirname(hmc_search.__file__)}", file=sys.stderr)
    found = digests()
    with open(args.out, "w") as handle:
        json.dump(found, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of hmc_search from outside the package.

A Tracer wraps public functions of the package's modules, records one
span (name, start, end, parent) per call in compact in-memory arrays,
and lets an observer read counts from each call's arguments and return
value.  Nothing under src/ knows about it: the wrappers are installed by
replacing module attributes and removed again by restoring them.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "hmc_search"


def _select_mode(counts, args, kwargs, result):
    mode = args[4] if len(args) > 4 else kwargs["mode"]
    counts[f"policy.select_option.{mode}"] += 1


def _option_outcome(counts, args, kwargs, result):
    outcome = result[0]
    counts["policy.options"] += 1
    counts["policy.primitive_steps"] += outcome.primitive_steps
    counts["policy.clamped_options"] += outcome.clamped
    counts["policy.useful_options"] += outcome.primitive_steps > 0


def _episode(counts, args, kwargs, traj):
    hp, mode = args[1], args[2]
    field = kwargs.get("field")
    if field is not None:
        clouds = len(field.clouds)
    else:
        clouds = 1 if mode == "eval" else hp.num_clouds
    counts["training.decisions"] += len(traj.transitions)
    counts["training.failed_episodes"] += traj.n_poll == 0
    # Clouds left with budget to spare: the decision cap ended the episode.
    counts["training.decision_cap_exits"] += (
        traj.n_poll < clouds and traj.n_step < hp.max_steps)
    counts["training.episodes"] += 1
    counts["evalharness.eval_episodes"] += mode == "eval"


def _trained(counts, args, kwargs, report):
    hp = report.hyperparams
    learn_until = hp.stop_learn_value * hp.num_episodes
    counts["training.trained_episodes"] += len(report.records)
    counts["training.learned_episodes"] += sum(
        1 for r in report.records if r.episode < learn_until and r.n_poll > 0)


# Public functions traced, as "module.function", with the observer that
# reads counts from each call.
TARGETS = {
    "env.spawn_clouds": None,
    "env.make_cloud": None,
    "env.sense": None,
    "env.move": None,
    "policy.select_option": _select_mode,
    "policy.execute_option": _option_outcome,
    "policy.record_visits": None,
    "policy.mc_update": None,
    "policy.q_update": None,
    "policy.write_qtable_csv": None,
    "policy.read_qtable_csv": None,
    "training.run_episode": _episode,
    "training.train_agent": _trained,
    "training.dynamic_demo": None,
    "baselines.steps_to_find": None,
    "baselines.snake_path": None,
    "baselines.spiral_path": None,
    "evalharness.evaluate_agent": None,
    "evalharness.run_duels": None,
    "evalharness.score_map": None,
    "sweep.run_sweep": None,
    "cli.dispatch": None,
}


class Tracer:
    """Spans in parallel arrays: name id, start and end in ns, parent index."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, observe=None):
        nid = self._name(name)
        clock = time.perf_counter_ns
        name_id, start, end, parent, opened = (
            self.name_id, self.start, self.end, self.parent, self._open)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(opened[-1] if opened else -1)
            end.append(0)
            opened.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                opened.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__traced__ = fn
        return traced

    def install(self) -> None:
        """Wrap each target and patch it into every package module holding it.

        Modules such as training and evalharness import functions by name,
        so the wrapper replaces every module attribute bound to the original.
        """
        originals = {}
        for qualified in TARGETS:
            module_name, attr = qualified.rsplit(".", 1)
            originals[qualified] = getattr(
                importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for qualified, observe in TARGETS.items():
            original = originals[qualified]
            wrapper = self.wrap(qualified, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32))

    def layer_totals(self) -> dict[str, float]:
        """Per traced name: call count and self seconds, plus observer counts."""
        name_id, start, end, parent = self.arrays()
        own = self_times(start, end, parent)
        calls = np.bincount(name_id, minlength=len(self.names))
        busy = np.bincount(name_id, weights=own, minlength=len(self.names))
        totals: dict[str, float] = dict(self.counts)
        for i, name in enumerate(self.names):
            totals[f"{name}.calls"] = int(calls[i])
            totals[f"{name}.self_s"] = float(busy[i]) / 1e9
        return totals

    def save(self, path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 start_ns=start, end_ns=end, parent=parent)


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct children cover, in ns.

    Spans come from one thread, so children of one span never overlap
    and their coverage is the sum of their durations.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = (end - start).astype(np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered

"""Self-tests of the benchmark's own code.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""
import signal
import sys
import time

import numpy as np

from hmc_search import policy, training
from hmc_search.training import Hyperparams

import calibrate
import workloads
from tracer import TARGETS, Tracer, self_times

SMALL = Hyperparams(grid_length=10, num_episodes=30)


def _package_bindings():
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "hmc_search" or name.startswith("hmc_search.")
            for key, value in vars(module).items() if callable(value)}


def test_self_time_subtracts_the_direct_children():
    # root [0, 100] holds a [10, 40] and b [50, 60]; a holds leaf [20, 30].
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 60]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [60.0, 20.0, 10.0, 10.0]


def test_install_patches_every_importer_and_restore_puts_originals_back():
    before = _package_bindings()
    tracer = Tracer()
    with tracer.installed():
        # training imported select_option by name; both bindings are wrapped.
        assert training.select_option is policy.select_option
        assert training.select_option.__traced__ is before[("hmc_search.policy", "select_option")]
        for qualified in TARGETS:
            module, attr = qualified.rsplit(".", 1)
            assert hasattr(getattr(sys.modules[f"hmc_search.{module}"], attr), "__traced__")
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_run_is_byte_identical_and_counts_from_return_values():
    plain = training.train_agent(SMALL, 3)
    tracer = Tracer()
    with tracer.installed():
        traced = training.train_agent(SMALL, 3)
    assert traced.q.tobytes() == plain.q.tobytes()

    totals = tracer.layer_totals()
    assert totals["training.train_agent.calls"] == 1
    assert totals["training.run_episode.calls"] == SMALL.num_episodes
    decisions = totals["training.decisions"]
    assert decisions == totals["policy.select_option.calls"] == \
        totals["policy.execute_option.calls"] == totals["policy.record_visits.calls"]
    assert totals["policy.select_option.explore"] + totals["policy.select_option.exploit"] \
        == decisions
    assert totals["training.trained_episodes"] == SMALL.num_episodes

    name_id, start, end, parent = tracer.arrays()
    root = int(np.flatnonzero(name_id == tracer.names.index("training.train_agent"))[0])
    assert parent[root] == -1
    assert 0 < totals["training.train_agent.self_s"] < (end[root] - start[root]) / 1e9
    episodes = name_id == tracer.names.index("training.run_episode")
    assert (parent[episodes] == root).all()


def test_output_check_rejects_a_tampered_csv(tmp_path):
    workload = workloads.WORKLOADS["agent_pipeline"]
    workload.run(7, tmp_path, 1)
    outputs = workload.outputs(tmp_path, None)
    recorded = workloads.digests(outputs)
    assert workloads.output_errors(workload, outputs, recorded) == []

    # A changed value passes every invariant but not the recorded digest.
    changed = dict(outputs, **{"qtable.csv": outputs["qtable.csv"].replace(
        b"\n0,0,up,", b"\n0,0,up,1", 1)})
    assert changed["qtable.csv"] != outputs["qtable.csv"]
    assert workloads.output_errors(workload, changed, None) == []
    assert workloads.output_errors(workload, changed, recorded) == [
        "output digests differ from those recorded in digests.json"]

    # A zero-step evaluation episode breaks an invariant whatever the seed.
    lines = outputs["eval_steps.csv"].split(b"\n")
    lines[1] = b"0,0"
    broken = dict(outputs, **{"eval_steps.csv": b"\n".join(lines)})
    assert any("eval_steps.csv" in e for e in workloads.output_errors(workload, broken, None))


def test_timings_are_scaled_to_the_reference_kernel_time():
    workload = workloads.WORKLOADS["train_heavy"]
    # A unit that took 4 s while a kernel slice took twice its reference
    # time counts 2 s.
    slow_host = workloads.Unit(1, wall=4.0, slice_s=2 * calibrate.REFERENCE_SLICE_S)
    fast_host = workloads.Unit(2, wall=2.0, slice_s=calibrate.REFERENCE_SLICE_S)
    for unit in (slow_host, fast_host):
        metrics = workloads.end_to_end(workload, [unit])
        assert metrics["wall_s"] == metrics["agent_s"] == 2.0
        assert metrics["train_episodes_per_s"] == workload.train_episodes / 2.0
    assert calibrate.kernel() == calibrate.kernel()


def test_speedometer_slices_interleave_and_the_handler_is_restored():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Speedometer() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * calibrate.INTERVAL_S:
            pass
        end = time.perf_counter()
    during = meter.during(start, end)
    assert len(during) >= 3 and 0 < sum(during) < end - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

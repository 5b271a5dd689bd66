"""tests/pairs.py summarizes canned run.py results into one BENCH session, with
the A/A control beside the claim, and refuses a checkout that holds a __pycache__."""
import json
import shutil
from pathlib import Path

import pairs
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "train_episodes_per_s", "better": "higher", "bound": 0.25}]}


def test_summary_counts_better_pairs_against_the_parent():
    canned = {
        "parent": [1.0, 2.0, 3.0, 4.0, 5.0],
        "change": [0.5, 2.5, 2.0, 3.0, 4.0],  # lower in 4 of 5 rounds
        "parent_copy": [1.0, 2.0, 3.0, 4.0, 6.0],  # one tie and one worse
    }
    runs = {side: [{"w.wall_s": value, "w.train_episodes_per_s": 1 / value}
                   for value in values] for side, values in canned.items()}
    summary = pairs.summarize(runs, SPEC)
    wall = summary["w.wall_s"]
    assert (wall["better"], wall["bound"]) == ("lower", 0.25)
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": canned["parent"]}
    change = wall["change"]
    assert (change["median"], change["q1"], change["q3"]) == (2.5, 2.0, 3.0)
    assert change["ratio"] == 2.5 / 3.0 and change["better_pairs"] == 4
    assert not change["beyond_parent_iqr"] and change["within_bound"]
    copy = wall["parent_copy"]
    assert (copy["ratio"], copy["better_pairs"], copy["within_bound"]) == (1.0, 0, True)
    # Higher is better: the same rounds win, and the bound is a fall.
    rate = summary["w.train_episodes_per_s"]["change"]
    assert rate["better_pairs"] == 4 and rate["ratio"] == 0.4 / (1 / 3)
    assert rate["beyond_parent_iqr"] is False and rate["within_bound"] is True
    far = {**runs, "change": [{"w.wall_s": 10.0, "w.train_episodes_per_s": 0.1}] * 5}
    assert pairs.summarize(far, SPEC)["w.wall_s"]["change"]["within_bound"] is False
    assert pairs.summarize(far, SPEC)["w.wall_s"]["change"]["beyond_parent_iqr"] is True


@pytest.mark.parametrize("change, met", [
    ([4, 5, 6, 7, 8, 9, 10, 11, 12, 20], True),  # 9 of 10 rounds lower, beyond the spread
    ([4, 5, 6, 7, 8, 9, 10, 11, 19, 20], False),  # 8 of 10 rounds lower
    ([9, 10, 11, 12, 13, 14, 15, 16, 17, 18], False),  # 10 of 10 lower, within the spread
    ([16, 17, 18, 19, 20, 21, 22, 23, 24, 25], False),  # beyond the spread, but higher
])
def test_a_claim_is_met_by_9_of_10_better_rounds_beyond_the_parents_spread(change, met):
    parent = list(range(10, 20))  # median 14.5, quartiles 12.25 and 16.75
    runs = {side: [{"w.wall_s": float(value)} for value in values]
            for side, values in (("parent", parent), ("change", change),
                                 ("parent_copy", parent))}
    summary = pairs.summarize(runs, SPEC)["w.wall_s"]
    assert summary["change"]["claim_met"] is met
    assert summary["parent_copy"]["claim_met"] is False


def checkout(path: Path) -> Path:
    (path / "src" / "hmc_search").mkdir(parents=True)
    shutil.copytree(ROOT / "perfbench", path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", path)
    return path


def test_a_session_rotates_the_order_and_records_each_side(tmp_path, monkeypatch, capsys):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    seen = []

    def canned(tree, argv):
        seen.append((tree.name, argv))
        wall = {"parent": 2.0, "change": 1.0, "parent_copy": 2.0}[tree.name] + len(seen) / 100
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    monkeypatch.setattr(pairs, "run_once", canned)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "agent_pipeline", "--pairs", "3",
            "--seconds", "2.5", "--out", str(out)]
    assert pairs.main(argv) == 0
    assert [name for name, _ in seen] == [*pairs.ORDERS[0], *pairs.ORDERS[1], *pairs.ORDERS[2]]
    assert seen[0][1] == ["--workload", "agent_pipeline", "--seed", "0", "--seconds", "2.5",
                          "--trace", "0"]
    record = json.loads(out.read_text())
    assert set(record) == {"host", "commits", "sessions"}
    session = record["sessions"]["agent_pipeline@2.5s/seed0"]
    assert session["order"] == [list(order) for order in pairs.ORDERS[:3]]
    assert (session["pairs"], session["failed"], session["correct"]) == (
        3, {"parent": 0, "change": 0, "parent_copy": 0}, True)
    row = session["metrics"]["agent_pipeline.wall_s"]
    assert row["change"]["better_pairs"] == 3 and row["parent_copy"]["better_pairs"] < 3
    # After the file, one summary line per metric: the parent ran 2.01, 2.04 and
    # 2.08 s, the change 1.02, 1.06 and 1.07, the copy 2.03, 2.05 and 2.09.
    *rounds, summary = capsys.readouterr().err.splitlines()
    assert rounds == [f"round {i + 1}/3 done: {' '.join(pairs.ORDERS[i])}" for i in range(3)]
    assert summary == ("agent_pipeline@2.5s/seed0 agent_pipeline.wall_s: parent 2.04, "
                       "change 1.06, ratio 0.520, better 3/3, claim_met True, A/A 1.005")
    # A second session joins the file; a __pycache__ in either checkout stops the script.
    assert pairs.main([*argv[:-3], "1", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["sessions"]) == {"agent_pipeline@2.5s/seed0",
                                                            "agent_pipeline@1s/seed0"}
    (change / "src" / "hmc_search" / "__pycache__").mkdir()
    with pytest.raises(SystemExit):
        pairs.main(argv)

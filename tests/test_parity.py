"""tests/parity.py hashes two runs of one config and seed alike, and its
--compare names a changed result file and nothing else."""
import json
import shutil

import parity

SMALL = {"grid_length": 6, "pollution_diameter": 2, "max_steps": 30, "num_episodes": 50}


def test_parity_compare_names_only_a_changed_file(tmp_path, capsys):
    # Two runs in two directories: manifests differ in times and paths only.
    for name in ("a", "b"):
        parity.run(SMALL, 1, str(tmp_path / name))
    old, new = (parity.tree_digests(str(tmp_path / name)) for name in ("a", "b"))
    assert old == new
    manifests = {f"manifest_{command}.json" for command in (
        "train", "eval", "duel", "scoremap", "route", "pattern", "demo-static", "demo-dynamic")}
    manifests |= {f"jobs{jobs}/manifest_{command}.json"
                  for jobs in (1, 2) for command in ("population", "sweep")}
    assert manifests | {"rerun/manifest_eval.json"} <= old.keys()
    assert old["rerun/eval_steps.csv"] == old["eval_steps.csv"]
    # The same run with one digit of one CSV changed.
    shutil.copytree(tmp_path / "b", tmp_path / "c")
    changed = tmp_path / "c" / "eval_steps.csv"
    data = bytearray(changed.read_bytes())
    data[-2] ^= 1
    changed.write_bytes(data)
    tables = {"old": old, "new": new, "changed": parity.tree_digests(str(tmp_path / "c"))}
    for name, table in tables.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(table))
    capsys.readouterr()
    assert parity.main(["--compare", str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 0
    assert capsys.readouterr().out == ""
    assert parity.main(["--compare", str(tmp_path / "old.json"),
                        str(tmp_path / "changed.json")]) == 1
    assert capsys.readouterr().out == "eval_steps.csv: differs\n"

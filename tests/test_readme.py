"""The README's Python quick start runs as written, and its settings table is whole."""
import re
from pathlib import Path

from hmc_search.training import CONFIG_TYPES, Hyperparams

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_python_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    mean, wins = capsys.readouterr().out.split()
    assert float(mean) > 0 and int(wins) >= 0


def test_the_settings_table_lists_every_setting_with_its_default():
    table = README.read_text().split("| key ", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)`\s*\| ([^|]+?)\s*\|", table, re.MULTILINE)
    assert [name for name, _ in rows] == list(CONFIG_TYPES)
    defaults = Hyperparams()
    for name, default in rows:
        assert float(default) == getattr(defaults, name), name

"""The README's Python quick start runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_python_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    mean, wins = capsys.readouterr().out.split()
    assert float(mean) > 0 and int(wins) >= 0

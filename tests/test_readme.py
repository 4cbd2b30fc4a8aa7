"""The README's library quick start runs as written and its claims hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    namespace: dict = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == 5
    # "True, 0 ≤ margin" for the CNOT.
    assert namespace["v"].is_pe and namespace["v"].margin >= 0.0

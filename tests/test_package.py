"""Package surface: the public names and the README's library example."""

import re
from pathlib import Path

import pendavg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_readme_quick_start_runs(capsys):
    for name in pendavg.__all__:
        assert hasattr(pendavg, name), name
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 zeros, 2 orbit classes"
    residual, distance = map(float, lines[1].split())
    assert residual <= 1e-10
    assert distance <= 1e-2

"""Package surface: the public names, the README's library example and config schema."""

import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pendavg
from pendavg.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _quick_start():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_public_names_resolve_and_readme_quick_start_runs(capsys):
    for name in pendavg.__all__:
        assert hasattr(pendavg, name), name
    exec(compile(_quick_start(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 zeros, 2 orbit classes"
    residual, distance = map(float, lines[1].split())
    assert residual <= 1e-10
    assert distance <= 1e-2


def _references(node, owners=frozenset()):
    """Names and attributes that code under ``node`` refers to.

    A reference inside the ``def`` or ``class`` body of the name it refers
    to does not count, so recursion is not use.  Docstrings and comments
    hold no names, and an import binds a name without referring to it.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owners = owners | {node.name}
    if isinstance(node, ast.Name):
        found = {node.id} - owners
    elif isinstance(node, ast.Attribute):
        found = {node.attr} - owners
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _references(child, owners)
    return found


def test_every_public_name_is_used_outside_the_tests():
    # The pipeline, the benchmark or the README's quick start calls each
    # export; a reference only the tests need belongs in tests/oracles.py.
    paths = [p for p in (ROOT / "src" / "pendavg").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "pendbench").glob("*.py")
    texts = [p.read_text(encoding="utf-8") for p in paths] + [_quick_start()]
    used = set().union(*(_references(ast.parse(text)) for text in texts))
    assert sorted(set(pendavg.__all__) - used) == []


def test_readme_config_schema_is_the_defaults():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config file schema"):]
    schema = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    defaults = asdict(ExperimentConfig())
    defaults["epsilons"] = list(defaults["epsilons"])
    assert schema == defaults


def test_scipy_is_never_imported():
    # numpy is the one dependency: the integrator's coefficients are
    # literals, so neither the package nor a verify run loads scipy.
    code = (
        "import contextlib, io, sys\n"
        "import pendavg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert pendavg.cli.main(['verify', '--preset', 'corollary1', '--eps', '1e-2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"

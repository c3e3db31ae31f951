"""The package surface: each module's __all__, re-exported once by the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rainbowlab
from rainbowlab import errors, fragments, hampow, hypergraph, rainbow, seeding, threshold

MODULES = (errors, fragments, hampow, hypergraph, rainbow, seeding, threshold)


def test_package_all_is_the_union_of_module_lists():
    names = rainbowlab.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))


def test_every_public_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rainbowlab, name) is getattr(module, name)
    assert isinstance(rainbowlab.__version__, str)


def test_star_import_binds_exactly_the_public_names():
    script = (
        "import json\n"
        "ns = {}\n"
        "exec('from rainbowlab import *', ns)\n"
        "print(json.dumps(sorted(set(ns) - {'__builtins__'})))\n"
    )
    paths = [str(Path(rainbowlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    bound = json.loads(proc.stdout)
    assert bound == sorted(rainbowlab.__all__)
    assert "random" not in bound


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, re-exports or annotates with."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations and __all__ entries name things as strings
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_package_modules_use_every_name_they_import():
    package = Path(rainbowlab.__file__).parent
    unused = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _unused_imports(path.read_text()))
    }
    assert unused == {}


def test_unused_import_scan_sees_a_dead_import():
    source = "import math\nfrom typing import Iterator, Sequence\nx: 'Sequence[int]' = []\n"
    assert _unused_imports(source) == ["line 1: math", "line 2: Iterator"]

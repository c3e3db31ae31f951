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


def _imports(source: str, keep) -> list[str]:
    """The absolute imports whose top-level module name passes keep; a
    relative import is the package itself, and is skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend(f"line {node.lineno}: {name}" for name in names if keep(name.split(".")[0]))
    return found


def _foreign_imports(source: str, package: str) -> list[str]:
    """Imports of anything but the package itself and the standard library."""
    return _imports(source, lambda top: top not in (package, *sys.stdlib_module_names))


def _concurrency_imports(source: str) -> list[str]:
    """Imports of the modules that start processes or threads."""
    return _imports(source, {"multiprocessing", "threading", "_thread", "concurrent"}.__contains__)


def test_package_imports_only_itself_and_the_standard_library():
    package = Path(rainbowlab.__file__).parent
    foreign = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _foreign_imports(path.read_text(), "rainbowlab"))
    }
    assert foreign == {}


def test_import_scan_sees_a_foreign_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import errors\n"
        "from .seeding import mix\n"
        "from rainbowlab.hampow import PowerParams\n"
        "from scipy.special import comb\n"
        "def f():\n"
        "    import yaml\n"
    )
    assert _foreign_imports(source, "rainbowlab") == ["line 2: numpy", "line 6: scipy.special", "line 8: yaml"]


def test_only_seeding_starts_processes_or_threads():
    # every parallel loop goes through seeding._fan_out and its fork rule
    package = Path(rainbowlab.__file__).parent
    found = {
        path.name: hits
        for path in sorted(package.glob("*.py"))
        if path.name != "seeding.py" and (hits := _concurrency_imports(path.read_text()))
    }
    assert found == {}
    assert _concurrency_imports((package / "seeding.py").read_text())


def test_concurrency_scan_sees_each_spelling():
    source = (
        "import os, multiprocessing.pool\n"
        "from threading import Thread\n"
        "from .seeding import _fan_out\n"
        "def f():\n"
        "    import concurrent.futures as cf\n"
        "    from multiprocessing import get_context\n"
    )
    assert _concurrency_imports(source) == [
        "line 1: multiprocessing.pool",
        "line 2: threading",
        "line 5: concurrent.futures",
        "line 6: multiprocessing",
    ]


def _read_names(trees) -> set[str]:
    """Every name the trees read: as a loaded name, an attribute or an
    imported name."""
    read: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names a module defines that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _read_names(trees.values())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found.extend(
                f"{module} line {node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            )
    return found


def test_package_reads_every_private_name_it_defines():
    package = Path(rainbowlab.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_private_name_scan_sees_a_dead_definition():
    sources = {
        "a.py": (
            "_used = 1\n"
            "_dead, _also = 2, 3\n"
            "_typed: int = _also\n"
            "def _helper():\n"
            "    return _used\n"
            "class _Gone:\n"
            "    _inner = 0\n"
            "__all__ = []\n"
        ),
        "b.py": "from .a import _helper\n_helper()\n",
    }
    assert _unread_private_names(sources) == [
        "a.py line 2: _dead",
        "a.py line 3: _typed",
        "a.py line 6: _Gone",
    ]


def _unread_exports(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public top-level functions and classes, listed in __all__ or not, that
    neither the package (outside their def and __all__ entry) nor the readers
    read.  Tests are no readers: a function only tests call is a test oracle,
    and belongs in the tests."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _read_names([*trees.values(), *map(ast.parse, readers.values())])
    return [
        f"{module} line {node.lineno}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_") and node.name not in read
    ]


def _package_and_bench() -> tuple[dict[str, str], dict[str, str]]:
    """The package's sources and the benchmark's, by file name."""
    package = Path(rainbowlab.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    readers = {path.name: path.read_text() for path in sorted(bench.glob("*.py"))}
    return sources, readers


def test_every_exported_function_feeds_the_package_or_the_benchmark():
    assert _unread_exports(*_package_and_bench()) == []


def test_export_scan_sees_an_unread_export():
    sources = {
        "a.py": (
            "__all__ = ['LIMIT', 'Kind', 'used', 'dead', 'benched']\n"
            "LIMIT = 3\n"
            "class Kind:\n"
            "    pass\n"
            "def used():\n"
            "    return LIMIT\n"
            "def dead():\n"
            "    return used()\n"
            "def benched():\n"
            "    pass\n"
        ),
        "b.py": "from .a import Kind\n",
    }
    assert _unread_exports(sources, {"run.py": "import rl\nrl.benched()\n"}) == ["a.py line 7: dead"]
    assert _unread_exports(sources, {}) == ["a.py line 7: dead", "a.py line 9: benched"]


def test_export_scan_sees_public_names_left_out_of_all():
    sources = {
        "a.py": (
            "__all__ = ['listed']\n"
            "def listed():\n"
            "    return Helper()\n"
            "class Helper:\n"
            "    pass\n"
            "class Orphan:\n"
            "    pass\n"
            "def unlisted():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
        ),
        "b.py": "from .a import listed\n",
    }
    assert _unread_exports(sources, {}) == ["a.py line 6: Orphan", "a.py line 8: unlisted"]


def _unread_members(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public fields, properties and methods of public top-level classes
    whose name neither the package nor the readers load as an attribute.
    Keyword arguments and stores are no reads, and tests are no readers."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {
        node.attr
        for tree in [*trees.values(), *map(ast.parse, readers.values())]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                else:
                    continue
                if not name.startswith("_") and name not in loaded:
                    found.append(f"{module} line {node.lineno}: {cls.name}.{name}")
    return found


def test_every_public_member_feeds_the_package_or_the_benchmark():
    assert _unread_members(*_package_and_bench()) == []


def test_member_scan_sees_an_unread_field_property_and_method():
    sources = {
        "a.py": (
            "class Report:\n"
            "    size: int\n"
            "    dead: int\n"
            "    tested: int\n"
            "    _inner: int\n"
            "    LIMIT = 3\n"
            "    @property\n"
            "    def ratio(self):\n"
            "        return self.size\n"
            "    @property\n"
            "    def unused(self):\n"
            "        return 0\n"
            "    def to_json(self):\n"
            "        return {}\n"
            "    def spare(self):\n"
            "        self.dead = 1\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "class _Hidden:\n"
            "    gone: int\n"
            "def make():\n"
            "    return Report(dead=1)\n"
        ),
    }
    # Report.tested is read only by a test, which is no reader: it is flagged
    readers = {"run.py": "import rl\nrl.make().ratio\nprint(rl.make().to_json())\n"}
    assert _unread_members(sources, readers) == [
        "a.py line 3: Report.dead",
        "a.py line 4: Report.tested",
        "a.py line 11: Report.unused",
        "a.py line 15: Report.spare",
    ]
    assert len(_unread_members(sources, {})) == 6  # also ratio and to_json


# each module imports only from strictly earlier layers; __init__ re-exports
# them all and is no layer
LAYERS = (
    {"errors"},
    {"seeding"},
    {"hypergraph"},
    {"hampow"},
    {"rainbow"},
    {"threshold", "fragments"},
    {"cli"},
)


def _layer_breaches(sources: dict[str, str], layers) -> list[str]:
    """The relative imports of a package module from its own layer or a
    later one, whether the import names the module or a name in it."""
    rank = {module: i for i, layer in enumerate(layers) for module in layer}
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                found.extend(
                    f"{module} line {node.lineno}: {target}" for target in targets if rank[target] >= rank[module]
                )
    return found


def test_each_module_imports_only_from_earlier_layers():
    package = Path(rainbowlab.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py")) if path.stem != "__init__"}
    assert set(sources) == set().union(*LAYERS)
    assert _layer_breaches(sources, LAYERS) == []
    # the scan reads relative imports; no module imports the package by name
    assert [hit for source in sources.values() for hit in _imports(source, {"rainbowlab"}.__contains__)] == []


def test_layer_scan_sees_an_import_from_the_same_or_a_later_layer():
    layers = ({"base"}, {"left", "right"}, {"top"})
    sources = {
        "base": "import os\n",
        "left": "from .base import x\nfrom . import base\nfrom .right import y\n",
        "right": "def f():\n    from .top import z\n",
        "top": "from . import base, left, top\n",
    }
    assert _layer_breaches(sources, layers) == [
        "left line 3: right",
        "right line 2: top",
        "top line 1: top",
    ]

"""The package surface: each module's __all__, re-exported once by the package."""

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

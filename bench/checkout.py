"""Locate the checkout the benchmark runs in and import its package source."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_rainbowlab():
    """Import rainbowlab from this checkout's src/, never from elsewhere."""
    pkg_dir = SRC / "rainbowlab"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {pkg_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rainbowlab

    if Path(rainbowlab.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"benchmark: imported rainbowlab from {rainbowlab.__file__}, not {pkg_dir}")
    return rainbowlab

"""Locate the checkout's ``src/`` and import ``treedecode`` from it, never from elsewhere."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_treedecode():
    package = SRC / "treedecode"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a treedecode checkout")
    sys.path.insert(0, str(SRC))
    import treedecode

    if Path(treedecode.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported treedecode from {treedecode.__file__}, not {package}")
    return treedecode

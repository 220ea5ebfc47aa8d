"""The profiler's per-phase buckets (scripts/profile_hotpath.py)."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "profile_hotpath.py"
_spec = importlib.util.spec_from_file_location("profile_hotpath", SCRIPT)
profile_hotpath = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_hotpath)


def _defined_functions() -> "set[str]":
    """Every function and method name defined anywhere in src/repro,
    nested helpers included."""
    names: "set[str]" = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
    return names


def test_every_phase_name_is_a_defined_function():
    defined = _defined_functions()
    stale = {phase: [name for name in names if name not in defined]
             for phase, names in profile_hotpath.PHASES.items()}
    assert not any(stale.values()), f"stale PHASES names: {stale}"


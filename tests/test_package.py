"""Package surface: the exported names and the standard-library-only imports."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import multimod as mm

ORACLES = ("multilayer_modularity_direct", "best_partition_exhaustive")


def test_every_exported_name_resolves():
    assert len(set(mm.__all__)) == len(mm.__all__)
    missing = [name for name in mm.__all__ if not hasattr(mm, name)]
    assert missing == []


def test_oracles_are_not_exported():
    for name in ORACLES:
        assert name not in mm.__all__
        assert not hasattr(mm, name)
        assert not hasattr(mm.synthbench, name)


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(Path(mm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []

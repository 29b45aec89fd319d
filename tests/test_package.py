"""Package surface: the exported names."""

from __future__ import annotations

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

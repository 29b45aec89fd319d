"""Package surface: the exported names, the standard-library-only imports
and the one layer ordering."""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

import multimod as mm

ORACLES = ("multilayer_modularity_direct", "best_partition_exhaustive")

# the callables that make a network's ordering: the ordering itself, the
# builder, and the network's internal constructor, which stores it
ORDERING_MAKERS = {"LayerOrdering", "build_network", "MultilayerNetwork"}


# the public surface; a name leaves it only with a note in CHANGES.md
EXPORTED = {
    "GuardError", "InputError", "PolicyError",
    "LayerOrdering", "LayerStats", "MultilayerNetwork",
    "PairingScheme", "build_network", "parse_network_text", "read_network",
    "write_network",
    "CommunityStructure", "read_communities", "write_communities", "write_flat_partition",
    "CouplingPolicy", "ResolutionPolicy", "ScoreReport", "ScoreTerm",
    "asymmetric_coupling", "distance_penalty",
    "multilayer_modularity", "multislice_modularity", "newman_modularity",
    "symmetric_coupling", "time_aware_coupling",
    "DetectConfig", "DetectResult", "MultilayerObjective", "MultisliceObjective",
    "aggregate_majority", "generalized_louvain", "nmi",
    "PlantedSpec", "planted_multilayer",
    "__version__",
}


def test_exported_names_are_pinned():
    assert set(mm.__all__) == EXPORTED
    # deleted: partner_layers_idx answers the same question on indices
    assert not hasattr(mm, "supporting_layers")
    assert not hasattr(mm.community, "supporting_layers")
    # deleted: only tests called them; aggregate_majority runs _layer_louvain,
    # and the tests write planted networks with their own helper
    for name, module in (("louvain_layer", mm.detect), ("save_planted", mm.synthbench)):
        assert not hasattr(mm, name)
        assert not hasattr(module, name)
    # deleted: the coupling plan counts the coupling edges and the total
    # degree, and the network's same-entity pair count needs no wrapper
    for name in ("coupling_count", "coupling_edges", "total_degree"):
        assert not hasattr(mm.MultilayerNetwork, name)
    assert not hasattr(mm, "coupling_pair_total")
    assert not hasattr(mm.modularity, "coupling_pair_total")
    # deleted: multislice_parameters sums the shared entities of the layer pairs
    assert not hasattr(mm.MultilayerNetwork, "same_entity_pair_count")
    # deleted: newman_modularity reads the structure's counts, not a view of the layer
    assert not hasattr(mm, "LayerGraph")
    assert not hasattr(mm.mlgraph, "LayerGraph")
    assert not hasattr(mm.MultilayerNetwork, "layer_graph")


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


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # exception types derive their signature from a builtin
        return {}


def test_only_the_network_holds_an_ordering():
    # scoring and detection read net.ordering: no other public function,
    # constructor or method of the package takes an ordering to replace it;
    # and the coupling plan decides which layer pairs couple, so none takes
    # a beta to switch the couplings off
    checked = set()
    takers = {"ordering": set(), "beta": set()}

    def note(name, obj):
        parameters = _parameters(obj)
        for parameter, names in takers.items():
            if parameter in parameters:
                names.add(name)

    for path in sorted(Path(mm.__file__).parent.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"multimod.{path.stem}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            checked.add(name)
            note(name, obj)
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                    if not method_name.startswith("_"):
                        note(f"{name}.{method_name}", method)
    assert {name for name in mm.__all__ if callable(getattr(mm, name))} <= checked
    assert sorted(takers["ordering"] - ORDERING_MAKERS) == []
    assert sorted(takers["beta"]) == []

"""Package surface: the exported names, the standard-library-only imports
and the one layer ordering."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

import multimod as mm

from conftest import python_fresh

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
    "CouplingPolicy", "ResolutionPolicy", "ScoreReport", "ScoreTerm", "distance_penalty",
    "multilayer_modularity", "multislice_modularity", "newman_modularity",
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
    # deleted: only tests called them; the tests read the index-level
    # accessors, as_assignment and the redundancy counts instead, and the
    # redundancy counts walk each community themselves
    for name in ("tuples", "entity_layers", "is_present", "intra_degree", "layer_entities"):
        assert not hasattr(mm.MultilayerNetwork, name)
    for name in ("assignment_of", "members", "redundant_pairs", "_walk"):
        assert not hasattr(mm.CommunityStructure, name)
    for name in ("recompute_total", "community_total"):
        assert not hasattr(mm.ScoreReport, name)
    # deleted: only tests called it; a time-aware term is asymmetric_coupling
    # times the distance_penalty the coupling plan gives its record
    assert not hasattr(mm, "time_aware_coupling")
    for name in ("time_aware_coupling", "_require_natural"):
        assert not hasattr(mm.modularity, name)
    # deleted: ScoreReport defaults its policy to None, the last field it served
    assert not hasattr(mm.mlgraph, "_OMITTED")
    # deleted: both readers iterate _lines, which reads the lines and
    # reports a bad byte first
    for name in ("_read_lines", "_bad_bytes_first"):
        assert not hasattr(mm.mlgraph, name)
    # deleted: the q term values each plan record from its own counts and
    # picks its resolution from the policy; the tests check it against
    # literal rationals
    for name in ("symmetric_coupling", "asymmetric_coupling"):
        assert not hasattr(mm, name)
        assert not hasattr(mm.modularity, name)
    assert not hasattr(mm.ResolutionPolicy, "value")


def _names(node) -> list:
    """The names an AST node imports, reads or looks up as an attribute."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def test_only_the_two_builders_assemble():
    # build_network and read_network refuse self-loops where they read their
    # records, then call the assembler; nothing else reaches it
    package = Path(mm.__file__).parent
    outside = [path.name for path in sorted(package.glob("*.py")) if path.stem != "mlgraph"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if "_assemble" in _names(node)]
    assert outside == []
    assert not hasattr(mm.detect, "_assemble")
    tree = ast.parse((package / "mlgraph.py").read_text(encoding="utf-8"))
    callers = {function.name for function in tree.body if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Call) and _names(node.func) == ["_assemble"]}
    assert callers == {"build_network", "read_network"}


def test_only_the_coupling_plan_applies_the_distance_penalty():
    # the time-aware penalty is decided once: the scorer and the gain engine
    # read it from the plan's records
    def penalties(tree) -> int:
        return sum(isinstance(node, ast.Call) and _names(node.func) == ["distance_penalty"]
                   for node in ast.walk(tree))

    package = Path(mm.__file__).parent
    calls = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        plans = [function for function in tree.body
                 if isinstance(function, ast.FunctionDef) and function.name == "coupling_plan"]
        calls[path.name] = (penalties(tree), sum(penalties(plan) for plan in plans))
    assert {name: counts for name, counts in calls.items() if counts != (0, 0)} == {
        "modularity.py": (1, 1)}


def _squares(tree) -> bool:
    """Whether ``tree`` squares a name, ``x ** 2`` or ``... * x * x``: the
    null model of a community term, which squares the community's degree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp):
            continue
        if isinstance(node.op, ast.Pow) and getattr(node.right, "value", None) == 2:
            return True
        if isinstance(node.op, ast.Mult) and isinstance(node.right, ast.Name):
            left = node.left.right if isinstance(node.left, ast.BinOp) \
                and isinstance(node.left.op, ast.Mult) else node.left
            if _names(left) == [node.right.id]:
                return True
    return False


def test_each_objective_has_one_community_term():
    # a community's counts become its term in one function per objective,
    # and each scorer calls its own, from nowhere else in the package
    package = Path(mm.__file__).parent
    terms = {"_newman_term": "newman_modularity", "_qms_term": "multislice_modularity",
             "_q_term": "multilayer_modularity"}
    squaring = []
    callers = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            if path.name == "modularity.py" and _squares(function):
                squaring.append(function.name)
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id in terms:
                    callers.setdefault(node.func.id, []).append(function.name)
    assert callers == {term: [scorer] for term, scorer in terms.items()}
    # the gain engine in detect.py keeps its own measured fast paths
    assert squaring == list(terms)


def test_only_the_redundancy_builds_a_rational():
    # the scores divide integers instead, so no score loads fractions and
    # decimal; CommunityStructure.redundancy imports it where it builds one
    importers = []
    for path in sorted(Path(mm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            for node in ast.iter_child_nodes(function):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and "fractions" in (
                        [node.module] if isinstance(node, ast.ImportFrom)
                        else [alias.name for alias in node.names]):
                    importers.append(f"{path.name}: {getattr(function, 'name', None)}")
    assert importers == ["community.py: redundancy"]


def _text_reads(tree) -> int:
    """Calls under ``tree`` that open a file to read text: ``read_text``, and
    the built-in or a path's ``open`` with no binary, writing or update mode
    (``os.open`` takes flags, not a mode, and opens no text)."""
    count = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or _names(node.func) not in (["open"], ["read_text"]):
            continue
        if _names(node.func) == ["read_text"]:
            count += 1
            continue
        builtin = isinstance(node.func, ast.Name)
        if not builtin and _names(node.func.value) == ["os"]:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        modes += node.args[1:2] if builtin else node.args[:1]
        mode = modes[0].value if modes else "r"
        count += not set(mode) & set("bwax+")
    return count


def test_only_the_line_source_reads_text():
    # the readers see a file only through _lines, which reports a bad byte first
    package = Path(mm.__file__).parent
    readers = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if _text_reads(node):
                readers.setdefault(path.name, []).append(getattr(node, "name", None))
    assert readers == {"mlgraph.py": ["_lines"]}


def test_one_function_checks_the_policy_types():
    # the objective and the scorer refuse a wrong policy type through one check
    package = Path(mm.__file__).parent
    checkers = set()
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            for function in scope.body if isinstance(scope, (ast.Module, ast.ClassDef)) else ():
                if not isinstance(function, ast.FunctionDef):
                    continue
                name = function.name if isinstance(scope, ast.Module) \
                    else f"{scope.name}.{function.name}"
                # the body only: a default policy in the signature is no check
                named = {n for statement in function.body for node in ast.walk(statement)
                         for n in _names(node)}
                if "isinstance" in named and {"ResolutionPolicy", "CouplingPolicy"} & named:
                    checkers.add(name)
                if "_check_policies" in named:
                    callers.add(name)
    assert checkers == {"_check_policies"}
    assert callers == {"MultilayerObjective.__new__", "multilayer_modularity"}


def test_read_network_builds_its_ordering_in_one_call():
    # the mode picks the sequence and scheme; LayerOrdering does every check
    package = Path(mm.__file__).parent
    tree = ast.parse((package / "mlgraph.py").read_text(encoding="utf-8"))
    reader, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "read_network")
    calls = [_names(node.func) for node in ast.walk(reader) if isinstance(node, ast.Call)]
    assert calls.count(["LayerOrdering"]) == 1
    assert ["natural"] not in calls and ["unordered"] not in calls


def test_detection_names_no_entity_ids():
    # detection hands the structure index label tables: the per-layer
    # networks it builds carry the parent's indices as their entity ids
    package = Path(mm.__file__).parent
    tree = ast.parse((package / "detect.py").read_text(encoding="utf-8"))
    named = {name for node in ast.walk(tree) for name in _names(node)}
    assert named & {"entity_ids", "entity_index", "from_entity_partition"} == set()


def test_every_exported_name_resolves():
    assert len(set(mm.__all__)) == len(mm.__all__)
    missing = [name for name in mm.__all__ if not hasattr(mm, name)]
    assert missing == []


def test_namespace_is_lazy():
    # in a fresh process: each exported name and submodule is loaded on first
    # access, as the object its home module defines, and listed before then
    proc = python_fresh("-c", "\n".join([
        "import importlib, json, multimod",
        "eager = sorted(n for n in multimod.__all__ if n in vars(multimod))",
        "listed = dir(multimod)",
        "homes = multimod._HOME",
        "same = {n: getattr(multimod, n) is getattr(importlib.import_module('multimod.' + m), n)",
        "        for n, m in homes.items()}",
        "modules = {m: getattr(multimod, m) is importlib.import_module('multimod.' + m)",
        "           for m in multimod._LAZY}",
        "print(json.dumps([eager, listed, homes, same, modules]))"]))
    eager, listed, homes, same, modules = json.loads(proc.stdout)
    assert eager == ["GuardError", "InputError", "PolicyError", "__version__"]
    assert sorted(homes) == sorted(set(mm.__all__) - set(eager))
    assert len(homes) == sum(len(names) for names in mm._LAZY.values())
    assert set(mm.__all__) | set(mm._LAZY) <= set(listed)
    assert set(same.values()) == {True}
    assert modules == dict.fromkeys(["mlgraph", "community", "modularity", "detect",
                                     "synthbench"], True)
    for name, module in homes.items():
        assert getattr(mm, name).__module__ == f"multimod.{module}"


def test_dir_lists_the_surface_and_the_submodules_in_order():
    listed = dir(mm)
    assert listed == sorted(listed)
    assert set(mm.__all__) | set(mm._LAZY) <= set(listed)


def test_oracles_are_not_exported():
    for name in ORACLES:
        assert name not in mm.__all__
        assert not hasattr(mm, name)
        assert not hasattr(mm.synthbench, name)


def test_package_imports_only_the_standard_library():
    # the standard library's SHA-256 module is _sha256 up to Python 3.11 and
    # _sha2 from 3.12; each interpreter's list names only its own
    stdlib = sys.stdlib_module_names | {"_sha2", "_sha256"}
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
                        if m.split(".")[0] not in stdlib]
    assert outside == []


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, about 1 MB and several milliseconds a
    # process: the records are named tuples instead
    importers = []
    for path in sorted(Path(mm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            importers += [path.name for m in modules if m == "dataclasses"]
    assert importers == []


def test_every_module_parses_with_the_oldest_supported_grammar():
    # pyproject.toml claims Python 3.10, which the suite may not run on:
    # parse each module with 3.10's grammar, which refuses 3.11's except*
    for path in sorted(Path(mm.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


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

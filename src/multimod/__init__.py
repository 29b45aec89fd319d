"""Multilayer network modularity scoring and community detection.

The namespace is lazy (PEP 562): ``import multimod`` loads only the errors.
Each other exported name, and each submodule, is imported on first access
and then kept in this module's globals, so a process pays only for the
modules it uses.
"""

from importlib import import_module as _import_module

from .errors import GuardError, InputError, PolicyError

__version__ = "0.1.0"

# the submodules loaded on first access, each with the exported names it
# defines: with the errors and the version, the whole public surface
_LAZY = {
    "mlgraph": ("LayerOrdering", "LayerStats", "MultilayerNetwork", "PairingScheme",
                "build_network", "parse_network_text", "read_network", "write_network"),
    "community": ("CommunityStructure", "read_communities", "write_communities",
                  "write_flat_partition"),
    "modularity": ("CouplingPolicy", "ResolutionPolicy", "ScoreReport", "ScoreTerm",
                   "asymmetric_coupling", "distance_penalty", "multilayer_modularity",
                   "multislice_modularity", "newman_modularity", "symmetric_coupling"),
    "detect": ("DetectConfig", "DetectResult", "MultilayerObjective", "MultisliceObjective",
               "aggregate_majority", "generalized_louvain", "nmi"),
    "synthbench": ("PlantedSpec", "planted_multilayer"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
__all__ = ["GuardError", "InputError", "PolicyError", *_HOME, "__version__"]


def __getattr__(name):
    if name in _LAZY:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})

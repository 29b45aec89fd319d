"""Multilayer network modularity scoring and community detection."""

from .errors import GuardError, InputError, PolicyError
from .mlgraph import (LayerGraph, LayerOrdering, LayerStats, MultilayerNetwork,
                      PairingScheme, build_network, parse_network_text,
                      read_network, write_network)
from .community import (CommunityStructure, read_communities, write_communities,
                        write_flat_partition)
from .modularity import (CouplingPolicy, ResolutionPolicy, ScoreReport, ScoreTerm,
                         asymmetric_coupling, distance_penalty,
                         multilayer_modularity, multislice_modularity,
                         newman_modularity, symmetric_coupling, time_aware_coupling)
from .detect import (DetectConfig, DetectResult, MultilayerObjective,
                     MultisliceObjective, aggregate_majority, generalized_louvain, nmi)
from .synthbench import PlantedSpec, planted_multilayer

__version__ = "0.1.0"

__all__ = [
    "GuardError", "InputError", "PolicyError",
    "LayerGraph", "LayerOrdering", "LayerStats", "MultilayerNetwork",
    "PairingScheme", "build_network", "parse_network_text", "read_network",
    "write_network",
    "CommunityStructure", "read_communities", "write_communities",
    "write_flat_partition",
    "CouplingPolicy", "ResolutionPolicy", "ScoreReport", "ScoreTerm",
    "asymmetric_coupling", "distance_penalty",
    "multilayer_modularity", "multislice_modularity", "newman_modularity",
    "symmetric_coupling", "time_aware_coupling",
    "DetectConfig", "DetectResult", "MultilayerObjective", "MultisliceObjective",
    "aggregate_majority", "generalized_louvain", "nmi",
    "PlantedSpec", "planted_multilayer",
    "__version__",
]

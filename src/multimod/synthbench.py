"""Synthetic multilayer networks with planted communities.

The planted generator draws each layer as an independent planted-partition
graph over the entities present in that layer, with one shared ground-truth
entity partition.
"""

from __future__ import annotations

import random

from .errors import InputError
from .mlgraph import LayerOrdering, PairingScheme, _nonnegative, _record, build_network


class PlantedSpec(_record("PlantedSpec",
                          "entities communities layers p_in p_out presence seed")):
    """Parameters of the planted-partition multilayer generator."""

    __slots__ = ()

    def __new__(cls, entities: int, communities: int, layers: int, p_in: float, p_out: float,
                presence: float = 1.0, seed: int = 0):
        # a seed of None would seed from the OS, and a bool is an int but no count
        for name, value in (("entities", entities), ("communities", communities),
                            ("layers", layers), ("seed", seed)):
            if type(value) is not int:
                raise InputError(f"{name} must be an int, not {value!r}")
        for name, value in (("p_in", p_in), ("p_out", p_out), ("presence", presence)):
            if not _nonnegative(value):
                raise InputError(f"{name} must be a finite number >= 0, not {value!r}")
        if not p_out <= p_in <= 1:
            raise InputError("need 0 <= p_out <= p_in <= 1")
        if not 0 < presence <= 1:
            raise InputError("need 0 < presence <= 1")
        if not 0 < communities <= entities:
            raise InputError("need 0 < communities <= entities")
        if layers < 1:
            raise InputError("need at least one layer")
        return super().__new__(cls, entities, communities, layers, p_in, p_out, presence, seed)


def planted_multilayer(spec: PlantedSpec):
    """Generate (network, planted entity partition) deterministically from the seed.

    Entities are present in each layer with the given probability and forced
    into one uniformly chosen layer when they would otherwise vanish; edges
    within a layer appear with p_in inside a planted community and p_out
    across communities.
    """
    rng = random.Random(spec.seed)
    n, k, ell = spec.entities, spec.communities, spec.layers
    entities = [f"n{i:03d}" for i in range(n)]
    layers = [f"l{j:02d}" for j in range(ell)]
    planted = {entities[i]: i * k // n for i in range(n)}

    present = [[rng.random() < spec.presence for _ in range(ell)] for _ in range(n)]
    for i in range(n):
        if not any(present[i]):
            present[i][rng.randrange(ell)] = True

    edges = []
    presence_decl = []
    for j in range(ell):
        members = [i for i in range(n) if present[i][j]]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                u, v = members[a], members[b]
                p = spec.p_in if planted[entities[u]] == planted[entities[v]] else spec.p_out
                if rng.random() < p:
                    edges.append((layers[j], entities[u], entities[v]))
        presence_decl.extend((layers[j], entities[i]) for i in members)

    ordering = LayerOrdering.natural(layers, PairingScheme.ADJACENT) if ell > 1 \
        else LayerOrdering.unordered()
    net = build_network(entities=entities, layers=layers, edges=edges,
                        presence=presence_decl, ordering=ordering)
    return net, planted


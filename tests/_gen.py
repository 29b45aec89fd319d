"""Seeded random generators for small test instances, a writer for
generated networks and their planted labels, and a network's occurrences."""

from __future__ import annotations

import random

from multimod import (CommunityStructure, CouplingPolicy, LayerOrdering, PairingScheme,
                      asymmetric_coupling, build_network, multilayer_modularity,
                      write_flat_partition, write_network)


def save_planted(net, planted: dict, network_path, labels_path) -> None:
    """Write a generated network and its planted labels as a sidecar file."""
    write_network(net, network_path)
    write_flat_partition(planted, labels_path)


def occurrence_ids(net) -> list:
    """Every present (entity, layer) pair of ``net``, entity-major."""
    return [(net.entity_ids[ei], net.layer_ids[li])
            for ei in range(net.num_entities) for li in net.entity_layers_idx(ei)]


def random_single_layer(rng: random.Random, max_nodes: int = 30):
    """Random connected-enough single-layer network plus a random partition."""
    n = rng.randint(2, max_nodes)
    nodes = list(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                edges.append(("L", i, j))
    if not edges:
        edges.append(("L", 0, 1))
    net = build_network(layers=["L"], edges=edges,
                        presence=[("L", v) for v in nodes])
    k = rng.randint(1, max(1, n // 2))
    partition = {v: rng.randrange(k) for v in nodes}
    return net, partition


def random_multilayer(rng: random.Random, max_tuples: int = 12, max_layers: int = 4):
    """Random tiny multilayer network with at most ``max_tuples`` occurrences.

    Guarantees at least one edge and every entity present somewhere.
    """
    while True:
        n = rng.randint(2, 5)
        ell = rng.randint(1, max_layers)
        layers = [f"l{j}" for j in range(ell)]
        present = {}
        for i in range(n):
            mine = [l for l in layers if rng.random() < 0.7]
            if not mine:
                mine = [layers[rng.randrange(ell)]]
            present[i] = mine
        n_tuples = sum(len(v) for v in present.values())
        if n_tuples > max_tuples:
            continue
        edges = []
        for l in layers:
            members = [i for i in range(n) if l in present[i]]
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    if rng.random() < 0.5:
                        edges.append((l, members[a], members[b]))
        if not edges:
            continue
        presence = [(l, i) for i in present for l in present[i]]
        net = build_network(layers=layers, edges=edges, presence=presence)
        return net


def random_structure(rng: random.Random, net, max_communities: int = 4) -> CommunityStructure:
    """Random per-occurrence community structure over ``net``."""
    k = rng.randint(1, max_communities)
    assignment = {t: rng.randrange(k) for t in occurrence_ids(net)}
    return CommunityStructure(net, assignment)


def natural_orderings(net):
    """The two natural orderings of a network's layers, dense order."""
    return (
        LayerOrdering.natural(net.layer_ids, PairingScheme.ADJACENT),
        LayerOrdering.natural(net.layer_ids, PairingScheme.PAIRWISE),
    )


def time_aware_terms(net, cs) -> list:
    """``(aware, plain, far)`` for each community and layer of ``cs`` on
    ``net``, which has a natural ordering: the term's coupling under
    time-aware and under plain asym-inner coupling, and whether the layer
    pairs with a layer at distance >= 2 where the community's asymmetric
    coupling is positive."""
    aware = multilayer_modularity(net, cs, coupling=CouplingPolicy.asym_inner(time_aware=True))
    plain = multilayer_modularity(net, cs, coupling=CouplingPolicy.asym_inner())
    out = []
    for a, p in zip(aware.terms, plain.terms, strict=True):
        i = net.layer_index(a.layer)
        far = any(net.layer_index(other) - i >= 2
                  and asymmetric_coupling(cs, a.community, a.layer, other) > 0
                  for other in net.valid_pairings(a.layer))
        out.append((a.coupling, p.coupling, far))
    return out


def with_ordering(net, ordering):
    """``net`` rebuilt under ``ordering``: the same entity ids, layer order,
    presences and edges. A natural ``ordering`` must list the layers in
    ``net``'s order, since it fixes the dense layer order."""
    ids = net.entity_ids
    out = build_network(
        entities=ids, layers=net.layer_ids,
        edges=[(layer, ids[u], ids[v])
               for li, layer in enumerate(net.layer_ids) for u, v in net.edges_idx(li)],
        presence=[(layer, ids[e])
                  for li, layer in enumerate(net.layer_ids) for e in sorted(net.presence_idx(li))],
        ordering=ordering)
    assert out.layer_ids == net.layer_ids and out.entity_ids == ids
    return out


def blocked_multilayer(rng: random.Random, blocks: int = 100, block_size: int = 12,
                       layers: int = 4, p_in: float = 0.4, presence: float = 0.8,
                       p_split: float = 0.2):
    """Seeded network of ``blocks * block_size`` entities whose edges fall
    inside blocks, so many pairs are linked in several layers, and a
    per-occurrence structure that follows the blocks, except that each
    occurrence moves to the next block's community with probability
    ``p_split``: many entities then lie in two communities.

    Returns ``(network, structure)``; every entity is present somewhere.
    """
    n = blocks * block_size
    layer_ids = [f"l{j}" for j in range(layers)]
    present = [[rng.random() < presence for _ in range(layers)] for _ in range(n)]
    for row in present:
        if not any(row):
            row[rng.randrange(layers)] = True
    edges = []
    for j, layer in enumerate(layer_ids):
        for b in range(blocks):
            members = [u for u in range(b * block_size, (b + 1) * block_size) if present[u][j]]
            for a, u in enumerate(members):
                for v in members[a + 1:]:
                    if rng.random() < p_in:
                        edges.append((layer, u, v))
    net = build_network(entities=range(n), layers=layer_ids, edges=edges,
                        presence=[(layer_ids[j], u) for u in range(n)
                                  for j in range(layers) if present[u][j]])
    assignment = {}
    for u, layer in occurrence_ids(net):
        block = u // block_size
        if rng.random() < p_split:
            block = (block + 1) % blocks
        assignment[(u, layer)] = block
    return net, CommunityStructure(net, assignment)


def ring_of_cliques(cliques: int, size: int, layers: int):
    """``cliques`` cliques of ``size`` entities in a ring, copied into every
    one of ``layers`` layers: clique i holds entities ``i * size`` to
    ``(i + 1) * size - 1``, and its last entity is linked to the next
    clique's first. Two or more layers get a natural adjacent ordering."""
    layer_ids = [f"l{j}" for j in range(layers)]
    n = cliques * size
    ring = [(u, v) for c in range(cliques) for u in range(c * size, (c + 1) * size)
            for v in range(u + 1, (c + 1) * size)]
    ring += [((c + 1) * size - 1, (c + 1) * size % n) for c in range(cliques)]
    ordering = (LayerOrdering.natural(layer_ids, PairingScheme.ADJACENT) if layers > 1
                else LayerOrdering())
    return build_network(entities=range(n), layers=layer_ids, ordering=ordering,
                         edges=[(layer, u, v) for layer in layer_ids for u, v in ring])

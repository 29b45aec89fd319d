"""Independent brute-force evaluators used as oracles by the tests.

These deliberately follow the literal double-sum formulations with no shared
code or caching, so they stay independent of the optimized implementations
they check. The multilayer direct evaluator and the exhaustive searcher are
guarded against instances too large for that treatment and raise
``multimod.GuardError`` when a guard trips.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from fractions import Fraction

import multimod as mm

_DIRECT_PAIR_GUARD = 10_000
_EXHAUSTIVE_TUPLE_GUARD = 12


def literal_avg_path_length(adj, nodes) -> float:
    """Mean shortest-path length over connected ordered pairs: one
    dict-based BFS per source."""
    total = 0
    pairs = 0
    for s in nodes:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj.get(u, ()):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist.values())
        pairs += len(dist) - 1
    return total / pairs if pairs else 0.0


def literal_mean_clustering(adj, nodes) -> float:
    """Mean local clustering coefficient, counting neighbour links pair by
    pair; nodes of degree < 2 contribute 0."""
    values = []
    for v in nodes:
        nb = adj.get(v, frozenset())
        k = len(nb)
        if k < 2:
            values.append(0.0)
            continue
        nbl = list(nb)
        links = 0
        for i, u in enumerate(nbl):
            au = adj[u]
            links += sum(1 for w in nbl[i + 1:] if w in au)
        values.append(2 * links / (k * (k - 1)))
    return statistics.fmean(values)


def newman_direct(nodes, edges, partition):
    """Classic modularity as a literal double sum over ordered node pairs."""
    m = len(set(frozenset(e) for e in edges))
    deg = {u: 0 for u in nodes}
    eset = set()
    for u, v in edges:
        if frozenset((u, v)) in eset:
            continue
        eset.add(frozenset((u, v)))
        deg[u] += 1
        deg[v] += 1
    total = 0.0
    for u in nodes:
        for v in nodes:
            if partition[u] != partition[v]:
                continue
            a = 1.0 if u != v and frozenset((u, v)) in eset else 0.0
            total += a - deg[u] * deg[v] / (2.0 * m)
    return total / (2.0 * m)


def multislice_direct(net, assignment, gammas, omega):
    """Multislice score as a literal double sum over ordered occurrence pairs.

    ``assignment`` maps (entity, layer) to a label; ``gammas`` is one value
    per layer in dense order.
    """
    occurrences = list(net.tuples())
    layer_edges = {}
    layer_deg = {}
    for layer in net.layer_ids:
        li = net.layer_index(layer)
        edges = {frozenset((net.entity_ids[u], net.entity_ids[v]))
                 for u, v in net.edges_idx(li)}
        layer_edges[layer] = edges
        deg = {}
        for e in edges:
            for x in e:
                deg[x] = deg.get(x, 0) + 1
        layer_deg[layer] = deg

    coupling_edges = 0
    for entity in net.entity_ids:
        layers = sorted(net.entity_layers(entity), key=str)
        coupling_edges += len(layers) * (len(layers) - 1) // 2
    norm = 2 * net.num_edges() + 2 * omega * coupling_edges

    gamma_of = {layer: gammas[net.layer_index(layer)] for layer in net.layer_ids}
    total = 0.0
    for u, li in occurrences:
        for v, lj in occurrences:
            if assignment[(u, li)] != assignment[(v, lj)]:
                continue
            if li == lj:
                if u == v:
                    a = 0.0
                else:
                    a = 1.0 if frozenset((u, v)) in layer_edges[li] else 0.0
                du = layer_deg[li].get(u, 0)
                dv = layer_deg[li].get(v, 0)
                two_e = 2 * len(layer_edges[li])
                total += a - gamma_of[li] * du * dv / two_e
            elif u == v:
                total += omega
    return total / norm


# -- literal evaluation of the multilayer score ------------------------------------


def literal_pair_layers(net, flat) -> dict:
    """Supporting layer indices of every entity-index pair (u, v), u < v,
    inside ``flat`` that is linked somewhere, by scanning every layer's
    edge list."""
    pair_layers = {}
    for li in range(net.num_layers):
        for u, v in net.edges_idx(li):
            if u in flat and v in flat:
                pair_layers.setdefault((u, v), set()).add(li)
    return pair_layers


def _literal_degree(net, ei, li) -> int:
    return sum(1 for u, v in net.edges_idx(li) if ei in (u, v))


def _literal_pairings(net, li, ordering):
    ids = net.layer_ids
    if not ordering.is_natural:
        return [net.layer_index(l) for l in ids if l != ids[li]]
    pos = ordering.position(ids[li])
    if ordering.scheme is mm.PairingScheme.ADJACENT:
        succ = ordering.sequence[pos + 1:pos + 2]
    else:
        succ = ordering.sequence[pos + 1:]
    return [net.layer_index(l) for l in succ]


def multilayer_modularity_direct(net: mm.MultilayerNetwork, cs: mm.CommunityStructure,
                                 resolution: mm.ResolutionPolicy | None = None,
                                 coupling: mm.CouplingPolicy | None = None,
                                 ordering: mm.LayerOrdering | None = None) -> float:
    """Multilayer modularity by literal nested summation.

    Degrees, projections, redundant pairs and coupling values are all
    recomputed in place from the raw edge lists, with no shared caches, so
    this serves as an independent check of the optimized scorer. Guarded to
    networks with at most 10^4 occurrence pairs.
    """
    resolution = mm.ResolutionPolicy.constant(1.0) if resolution is None else resolution
    coupling = mm.CouplingPolicy.none() if coupling is None else coupling
    ordering = net.ordering if ordering is None else ordering
    n_tuples = net.num_tuples()
    if n_tuples * n_tuples > _DIRECT_PAIR_GUARD:
        raise mm.GuardError(f"direct evaluation guard exceeded ({n_tuples} occurrences)")
    if net.num_edges() == 0:
        raise mm.InputError("multilayer modularity is undefined on an edgeless network")

    beta = coupling.beta
    ell = net.num_layers

    # total degree, by enumeration
    norm = 0
    for li in range(ell):
        for ei in net.presence_idx(li):
            norm += _literal_degree(net, ei, li)
    if beta:
        for a in range(ell):
            for b in range(a + 1, ell):
                pa = _literal_pairings(net, a, ordering)
                pb = _literal_pairings(net, b, ordering)
                if b in pa or a in pb:
                    norm += 2 * len(net.presence_idx(a) & net.presence_idx(b))

    assign = {(net.entity_index(e), net.layer_index(l)): c
              for (e, l), c in cs.as_assignment().items()}
    k = cs.num_communities

    total = 0.0
    for c in range(k):
        flat = {ei for (ei, li), cc in assign.items() if cc == c}
        pair_layers = literal_pair_layers(net, flat)
        for li in range(ell):
            dint = 0
            d = 0
            for u, v in net.edges_idx(li):
                if assign.get((u, li)) == c and assign.get((v, li)) == c:
                    dint += 2
            for ei in net.presence_idx(li):
                if assign.get((ei, li)) == c:
                    d += _literal_degree(net, ei, li)
            if resolution.kind == "constant":
                gamma = resolution.gamma
            else:
                nrp = sum(1 for ls in pair_layers.values() if len(ls) >= 2 and li in ls)
                gamma = 2.0 / (1.0 + math.log2(1.0 + nrp))
            coup = 0.0
            if beta:
                proj_i = {ei for ei in net.presence_idx(li) if assign.get((ei, li)) == c}
                for lj in _literal_pairings(net, li, ordering):
                    proj_j = {ei for ei in net.presence_idx(lj) if assign.get((ei, lj)) == c}
                    shared_nodes = len(net.presence_idx(li) & net.presence_idx(lj))
                    if shared_nodes == 0:
                        continue
                    sym = Fraction(len(proj_i & proj_j), shared_nodes)
                    if coupling.kind == "symmetric":
                        value = float(sym)
                    elif coupling.kind == "asym-inner":
                        if not proj_i:
                            value = 0.0
                        else:
                            value = float(sym * Fraction(len(net.presence_idx(li)), len(proj_i)))
                    else:
                        if not proj_j:
                            value = 0.0
                        else:
                            value = float(sym * Fraction(len(net.presence_idx(lj)), len(proj_j)))
                    if coupling.time_aware:
                        dist = abs(ordering.position(net.layer_ids[lj])
                                   - ordering.position(net.layer_ids[li]))
                        value *= mm.distance_penalty(dist)
                    coup += value
            total += dint - gamma * d * d / norm + beta * coup
    return total / norm


# -- exhaustive optimum over tiny instances ------------------------------------------


def _restricted_growth_strings(n: int, max_blocks: int):
    """All set partitions of range(n) as restricted-growth strings, in
    lexicographic order, with at most ``max_blocks`` blocks."""
    code = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(code)
            return
        for c in range(min(used + 1, max_blocks)):
            code[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def best_partition_exhaustive(net: mm.MultilayerNetwork,
                              resolution: mm.ResolutionPolicy | None = None,
                              coupling: mm.CouplingPolicy | None = None,
                              ordering: mm.LayerOrdering | None = None,
                              max_communities: int | None = None):
    """Exhaustive optimum of the multilayer score over occurrence partitions.

    Returns (assignment, best_score) where assignment maps each (entity, layer)
    occurrence to a community index. Ties resolve to the lexicographically
    smallest restricted-growth string. Guarded to at most 12 occurrences.
    """
    tuples = list(net.tuples())
    if len(tuples) > _EXHAUSTIVE_TUPLE_GUARD:
        raise mm.GuardError(
            f"exhaustive search guard exceeded ({len(tuples)} occurrences, limit "
            f"{_EXHAUSTIVE_TUPLE_GUARD})")
    if max_communities is None:
        max_communities = len(tuples)

    best_code = None
    best_value = None
    for code in _restricted_growth_strings(len(tuples), max_communities):
        assignment = {tuples[i]: code[i] for i in range(len(tuples))}
        cs = mm.CommunityStructure(net, assignment)
        value = mm.multilayer_modularity(net, cs, resolution, coupling, ordering).total
        if best_value is None or value > best_value:
            best_value = value
            best_code = code
    return {tuples[i]: best_code[i] for i in range(len(tuples))}, best_value

"""Independent brute-force evaluators used as oracles by the tests.

These deliberately follow the literal double-sum formulations with no shared
code or caching, so they stay independent of the optimized implementations
they check. The multilayer direct evaluator and the exhaustive searcher are
guarded against instances too large for that treatment and raise
``multimod.GuardError`` when a guard trips.

The edge-list parser, network builder and reader, the community reader,
the classic modularity's group-and-count, and the community rebuild,
literal gain engines, local-moving loop and aggregation baseline at the
end, are different in kind: they are earlier,
unoptimised forms of the package's own code, and serve to check that the
optimised forms give the same networks, structures, aggregates, error
messages and bit-identical gains and runs. The coupling values are exact
rationals from the member sets, and the union counts of two communities
are found edge by edge, to feed the package's own community terms.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import deque
from fractions import Fraction

import multimod as mm
from multimod.community import log_decay
from multimod.detect import (DetectResult, _Comm, _make_unit, _MultilayerEngine,
                             _MultisliceEngine)
from multimod.mlgraph import _assemble
from multimod.modularity import _q_term, _qms_term, coupling_plan, multislice_parameters

from _gen import occurrence_ids

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


def literal_parse_network_text(text: str):
    """The edge-list parser in its earlier form: strip each line, then split."""
    layers = []
    seen_layers = set()
    edges = []
    presences = []
    order = None

    def note_layer(l):
        if l not in seen_layers:
            seen_layers.add(l)
            layers.append(l)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "%order":
            if order is not None:
                raise mm.InputError(f"line {lineno}: duplicate %order directive")
            if len(tokens) < 2:
                raise mm.InputError(f"line {lineno}: %order needs at least one layer")
            order = tuple(tokens[1:])
            if len(set(order)) != len(order):
                raise mm.InputError(f"line {lineno}: %order names a layer twice")
            for l in order:
                note_layer(l)
        elif tokens[0] == "%presence":
            if len(tokens) != 3:
                raise mm.InputError(f"line {lineno}: %presence expects 'L u'")
            note_layer(tokens[1])
            presences.append((tokens[1], tokens[2]))
        elif tokens[0].startswith("%"):
            raise mm.InputError(f"line {lineno}: unknown directive {tokens[0]!r}")
        else:
            if len(tokens) != 3:
                raise mm.InputError(f"line {lineno}: expected 3 tokens")
            note_layer(tokens[0])
            edges.append((tokens[0], tokens[1], tokens[2]))
    return layers, edges, presences, order


def literal_build_network(entities=(), layers=(), edges=(), ordering=mm.LayerOrdering(),
                          presence=()) -> dict:
    """The network builder in its earlier form, through a set of sorted edge
    tuples per layer. Returns the fields it gave the network: ids, presence,
    adjacency (nodes ascending, each mapped to its ascending neighbour
    tuple), sorted edge tuples, ascending entity layer tuples and ordering."""
    layer_list = list(layers)
    if len(set(layer_list)) != len(layer_list):
        raise mm.InputError("duplicate layer id in layer declaration")
    if not layer_list:
        raise mm.InputError("a multilayer network needs at least one layer")
    if ordering.is_natural:
        if set(ordering.sequence) != set(layer_list) or len(ordering.sequence) != len(layer_list):
            raise mm.InputError("layer ordering is not a permutation of the declared layers")
        layer_list = list(ordering.sequence)
    layer_index = {l: i for i, l in enumerate(layer_list)}

    entity_list = []
    entity_index = {}

    def intern(entity):
        if entity not in entity_index:
            entity_index[entity] = len(entity_list)
            entity_list.append(entity)
        return entity_index[entity]

    for e in entities:
        intern(e)

    present = [set() for _ in layer_list]
    edge_sets = [set() for _ in layer_list]
    for layer, entity in presence:
        if layer not in layer_index:
            raise mm.InputError(f"presence declaration references unknown layer {layer!r}")
        present[layer_index[layer]].add(intern(entity))
    for layer, u, v in edges:
        if layer not in layer_index:
            raise mm.InputError(f"edge ({u!r}, {v!r}) references unknown layer {layer!r}")
        ui, vi = intern(u), intern(v)
        if ui == vi:
            raise mm.InputError(f"self-loop on {u!r} in layer {layer!r}")
        li = layer_index[layer]
        present[li].update((ui, vi))
        edge_sets[li].add((min(ui, vi), max(ui, vi)))

    entity_layers = [set() for _ in entity_list]
    for li, p in enumerate(present):
        for ei in p:
            entity_layers[ei].add(li)
    for ei, ls in enumerate(entity_layers):
        if not ls:
            raise mm.InputError(f"entity {entity_list[ei]!r} is not present in any layer")

    adj = []
    for li in range(len(layer_list)):
        a = {}
        for u, v in edge_sets[li]:
            a.setdefault(u, set()).add(v)
            a.setdefault(v, set()).add(u)
        adj.append({u: tuple(sorted(a[u])) for u in sorted(a)})

    return dict(
        entity_ids=tuple(entity_list),
        layer_ids=tuple(layer_list),
        presence=tuple(frozenset(p) for p in present),
        adj=tuple(adj),
        edges=tuple(tuple(sorted(es)) for es in edge_sets),
        entity_layers=tuple(tuple(sorted(ls)) for ls in entity_layers),
        ordering=ordering,
    )


def literal_read_network(text: str, ordering_mode: str = "auto", time_aware: bool = False) -> dict:
    """The network reader in its earlier form: the literal parser, the
    ordering the mode selects, then the literal builder over the parsed id
    tuples. Returns the literal builder's fields."""
    layers, edges, presences, order = literal_parse_network_text(text)
    if ordering_mode == "auto":
        ordering_mode = "natural-adjacent" if order is not None else "none"
    if ordering_mode == "none":
        sequence = scheme = None
    elif ordering_mode in ("natural-adjacent", "natural-pairwise"):
        scheme = (mm.PairingScheme.ADJACENT if ordering_mode.endswith("adjacent")
                  else mm.PairingScheme.PAIRWISE)
        sequence = order if order is not None else tuple(layers)
    else:
        raise mm.InputError(f"unknown ordering mode {ordering_mode!r}")
    # the ordering refuses a time-aware flag without a natural order
    ordering = mm.LayerOrdering(sequence, scheme, time_aware)
    return literal_build_network(layers=layers, edges=edges, presence=presences,
                                 ordering=ordering)


def literal_read_communities(net, path) -> dict:
    """The community reader in its earlier form: records into a dict keyed by
    (entity index, layer index) or by entity, then the occurrences in
    entity-major order. Returns ``{(entity, layer): community}`` in that
    order, communities numbered by first appearance, as ``as_assignment``
    gives it."""
    text = mm.mlgraph.read_utf8(path)
    extended = {}  # (entity index, layer index) -> label
    flat = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if len(tokens) == 3:
            if flat:
                raise mm.InputError(f"line {lineno}: extended record in a flattened file")
            entity, layer, label = tokens
            try:
                key = (net.entity_index(entity), net.layer_index(layer))
            except KeyError as exc:
                raise mm.InputError(f"line {lineno}: {exc.args[0]}") from None
            if key in extended:
                raise mm.InputError(f"line {lineno}: duplicate assignment for ({entity}, {layer})")
            extended[key] = label
        elif len(tokens) == 2:
            if extended:
                raise mm.InputError(f"line {lineno}: flattened record in an extended file")
            entity, label = tokens
            try:
                net.entity_index(entity)
            except KeyError as exc:
                raise mm.InputError(f"line {lineno}: {exc.args[0]}") from None
            if entity in flat:
                raise mm.InputError(f"line {lineno}: duplicate assignment for {entity}")
            flat[entity] = label
        elif tokens:
            raise mm.InputError(f"line {lineno}: expected 2 or 3 tokens")
    if extended:
        for ei, li in extended:
            if ei not in net.presence_idx(li):
                raise mm.InputError(
                    f"assignment references ({net.entity_ids[ei]!r}, {net.layer_ids[li]!r}) "
                    f"but the entity is not present in that layer")
    elif flat:
        for entity in net.entity_ids:
            if entity not in flat:
                raise mm.InputError(f"entity {entity!r} has no community assignment")
        extended = {(net.entity_index(e), li): flat[e]
                    for e in net.entity_ids for li in net.entity_layers_idx(net.entity_index(e))}
    else:
        raise mm.InputError("community file is empty")
    dense = {}
    out = {}
    for entity, layer in occurrence_ids(net):
        key = (net.entity_index(entity), net.layer_index(layer))
        if key not in extended:
            raise mm.InputError(f"unassigned occurrence ({entity!r}, {layer!r})")
        out[(entity, layer)] = dense.setdefault(extended[key], len(dense))
    return out


def literal_newman(net, partition):
    """Classic modularity of an entity partition of a single-layer network,
    as the package once computed it: group the layer's nodes by label and
    count each group's degree and internal degree on the adjacency."""
    two_m = 2 * net.num_edges(net.layer_ids[0])
    if two_m == 0:
        raise mm.InputError("modularity is undefined on an edgeless graph")
    adj = net.adj_idx(0)
    groups = {}
    for ei in sorted(net.presence_idx(0)):
        entity = net.entity_ids[ei]
        if entity not in partition:
            raise mm.InputError(f"node {entity!r} has no community assignment")
        groups.setdefault(partition[entity], set()).add(ei)
    parts = []
    for label in sorted(groups, key=str):
        members = groups[label]
        deg = 0
        dint = 0
        for v in members:
            nb = adj.get(v, ())
            deg += len(nb)
            dint += len(members.intersection(nb))
        parts.append(dint / two_m - (deg / two_m) ** 2)
    return math.fsum(parts)


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
    occurrences = occurrence_ids(net)
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
        layers = net.entity_layers_idx(net.entity_index(entity))
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


def literal_redundant_partners(net) -> dict:
    """Entity index -> ``[(partner, supporting layer indices)]`` over every
    pair linked in at least two layers, from ``literal_pair_layers`` over
    all entities."""
    partners = {v: [] for v in range(net.num_entities)}
    for (u, v), layers in literal_pair_layers(net, range(net.num_entities)).items():
        if len(layers) >= 2:
            partners[u].append((v, sorted(layers)))
            partners[v].append((u, sorted(layers)))
    return partners


def _literal_degree(net, ei, li) -> int:
    return sum(1 for u, v in net.edges_idx(li) if ei in (u, v))


def _literal_pairings(net, li):
    ids = net.layer_ids
    ordering = net.ordering
    if not ordering.is_natural:
        return [net.layer_index(l) for l in ids if l != ids[li]]
    pos = ordering.sequence.index(ids[li])
    if ordering.scheme is mm.PairingScheme.ADJACENT:
        succ = ordering.sequence[pos + 1:pos + 2]
    else:
        succ = ordering.sequence[pos + 1:]
    return [net.layer_index(l) for l in succ]


def literal_coupling_pairs(net, coupling) -> list:
    """``(i, j, penalty)`` for every layer pair ``_literal_pairings``
    admits, by ``i`` and then in pairing order, whether or not the layers
    share an entity; none under coupling ``none``. A time-aware penalty
    comes from the two layers' positions in the ordering's sequence."""
    if not coupling.beta:
        return []
    ids = net.layer_ids
    seq = net.ordering.sequence
    pairs = []
    for i in range(net.num_layers):
        for j in _literal_pairings(net, i):
            penalty = 1.0
            if coupling.time_aware:
                penalty = mm.distance_penalty(abs(seq.index(ids[j]) - seq.index(ids[i])))
            pairs.append((i, j, penalty))
    return pairs


def literal_total_degree(net, coupling) -> int:
    """Total degree of the multilayer graph by enumeration: the intra-layer
    degree of every occurrence, plus 2 for every entity present in both
    layers of a pair that either layer's literal pairings admit."""
    ell = net.num_layers
    norm = 0
    for li in range(ell):
        for ei in net.presence_idx(li):
            norm += _literal_degree(net, ei, li)
    if coupling.beta:
        for a in range(ell):
            for b in range(a + 1, ell):
                pa = _literal_pairings(net, a)
                pb = _literal_pairings(net, b)
                if b in pa or a in pb:
                    norm += 2 * len(net.presence_idx(a) & net.presence_idx(b))
    return norm


def multilayer_modularity_direct(net: mm.MultilayerNetwork, cs: mm.CommunityStructure,
                                 resolution: mm.ResolutionPolicy | None = None,
                                 coupling: mm.CouplingPolicy | None = None) -> float:
    """Multilayer modularity by literal nested summation.

    Degrees, projections, redundant pairs and coupling values are all
    recomputed in place from the raw edge lists, with no shared caches, so
    this serves as an independent check of the optimized scorer. Guarded to
    networks with at most 10^4 occurrence pairs.
    """
    resolution = mm.ResolutionPolicy.constant(1.0) if resolution is None else resolution
    coupling = mm.CouplingPolicy.none() if coupling is None else coupling
    ordering = net.ordering
    n_tuples = net.num_tuples()
    if n_tuples * n_tuples > _DIRECT_PAIR_GUARD:
        raise mm.GuardError(f"direct evaluation guard exceeded ({n_tuples} occurrences)")
    if net.num_edges() == 0:
        raise mm.InputError("multilayer modularity is undefined on an edgeless network")

    beta = coupling.beta
    ell = net.num_layers
    norm = literal_total_degree(net, coupling)

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
                for lj in _literal_pairings(net, li):
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
                        dist = abs(ordering.sequence.index(net.layer_ids[lj])
                                   - ordering.sequence.index(net.layer_ids[li]))
                        value *= mm.distance_penalty(dist)
                    coup += value
            total += dint - gamma * d * d / norm + beta * coup
    return total / norm


# -- literal coupling values and the term of a union ---------------------------------


def _literal_projection(cs, c, layer) -> set:
    """Entities of community ``c`` on ``layer``, from the assignment."""
    return {e for (e, l), cc in cs.as_assignment().items() if l == layer and cc == c}


def _literal_layer(net, layer) -> set:
    """Entities present on ``layer``, by id."""
    li = net.layer_index(layer)
    return {net.entity_ids[e] for e in net.presence_idx(li)}


def literal_symmetric_coupling(cs, c, layer_i, layer_j) -> Fraction:
    """The paper's symmetric coupling of community ``c`` between two layers:
    its members on both over the entities the layers share; 0 when they
    share none."""
    shared = _literal_layer(cs.net, layer_i) & _literal_layer(cs.net, layer_j)
    if not shared:
        return Fraction(0)
    both = _literal_projection(cs, c, layer_i) & _literal_projection(cs, c, layer_j)
    return Fraction(len(both), len(shared))


def literal_asymmetric_coupling(cs, c, layer_i, layer_j) -> Fraction:
    """The symmetric coupling times the source layer ``layer_i``'s size over
    the community's projection on it; 0 for an empty projection."""
    proj = _literal_projection(cs, c, layer_i)
    if not proj:
        return Fraction(0)
    size = len(_literal_layer(cs.net, layer_i))
    return literal_symmetric_coupling(cs, c, layer_i, layer_j) * Fraction(size, len(proj))


def time_aware_terms(net, cs) -> list:
    """``(aware, plain, far)`` for each community and layer of ``cs`` on
    ``net``, which has a natural ordering: the term's coupling under
    time-aware and under plain asym-inner coupling, and whether the layer
    pairs with a layer at distance >= 2 where the community's asymmetric
    coupling is positive."""
    aware = mm.multilayer_modularity(net, cs,
                                     coupling=mm.CouplingPolicy.asym_inner(time_aware=True))
    plain = mm.multilayer_modularity(net, cs, coupling=mm.CouplingPolicy.asym_inner())
    out = []
    for a, p in zip(aware.terms, plain.terms, strict=True):
        i = net.layer_index(a.layer)
        far = any(net.layer_index(other) - i >= 2
                  and literal_asymmetric_coupling(cs, a.community, a.layer, other) > 0
                  for other in net.valid_pairings(a.layer))
        out.append((a.coupling, p.coupling, far))
    return out


def union_counts(net, cs, a, b) -> dict:
    """The counts a community term reads, for the union of communities
    ``a`` and ``b`` of ``cs``: each is the two communities' own counts plus
    the cross counts between them, found edge by edge and set by set; the
    redundant pair counts, which do not add, are counted over the union's
    flattened membership. Maps are keyed by layer index, and ``inter`` by
    the ordered layer pair ``(i, j)``."""
    ell = net.num_layers
    pa, pb = ([cs._proj[c].get(li, set()) for li in range(ell)] for c in (a, b))
    dint, deg, size = {}, {}, {}
    for li in range(ell):
        cross = sum((u in pa[li] and v in pb[li]) or (u in pb[li] and v in pa[li])
                    for u, v in net.edges_idx(li))
        dint[li] = cs._dint[a].get(li, 0) + cs._dint[b].get(li, 0) + 2 * cross
        deg[li] = cs._deg[a].get(li, 0) + cs._deg[b].get(li, 0)
        size[li] = len(pa[li]) + len(pb[li])
    cross_pairs = sum(len(pa[i] & pb[j]) for i in range(ell) for j in range(ell) if i != j)
    pairs = cs.coupled_instance_pairs(a) + cs.coupled_instance_pairs(b) + cross_pairs
    inter = {(i, j): len(pa[i] & pa[j]) + len(pb[i] & pb[j])
             + len(pa[i] & pb[j]) + len(pb[i] & pa[j])
             for i in range(ell) for j in range(ell) if i != j}
    flat = set().union(*pa, *pb)
    supports = [ls for ls in literal_pair_layers(net, flat).values() if len(ls) >= 2]
    nrp = [sum(li in ls for ls in supports) for li in range(ell)]
    return {"dint": dint, "deg": deg, "size": size, "pairs": pairs, "inter": inter,
            "nrp": nrp}


def check_merged_term(net, cs, a, b, objective) -> None:
    """Assert that ``objective``'s community term on the union counts of
    ``a`` and ``b`` is, bit for bit, the term its scorer gives the community
    that merges them: under ``q`` the per-layer rows and their sum, under
    both the total, which adds the other communities' terms."""
    merged = mm.CommunityStructure(
        net, {t: a if c == b else c for t, c in cs.as_assignment().items()})
    first = next(t for t, c in cs.as_assignment().items() if c in (a, b))
    m = merged.as_assignment()[first]
    u = union_counts(net, cs, a, b)
    if isinstance(objective, mm.MultisliceObjective):
        gammas, two_es, norm, omega = multislice_parameters(net, objective.gamma,
                                                            objective.omega)
        term = _qms_term(u["dint"], u["deg"], u["pairs"], gammas, two_es, omega)
        others = [_qms_term(merged._dint[c], merged._deg[c], merged.coupled_instance_pairs(c),
                            gammas, two_es, omega) for c in merged.communities() if c != m]
        total = mm.multislice_modularity(net, merged, objective.gamma, objective.omega)
    else:
        resolution, coupling = objective
        records, norm = coupling_plan(net, coupling)
        by_layer = [[r for r in records if r[0] == li] for li in range(net.num_layers)]
        inter = [[u["inter"][(i, j)] for i, j, *_ in rs] for rs in by_layer]
        term, rows = _q_term(u["dint"], u["deg"], u["size"],
                             u["nrp"] if resolution.kind == "redundancy" else None, inter,
                             by_layer, norm, resolution.gamma, coupling.kind == "symmetric")
        report = mm.multilayer_modularity(net, merged, resolution, coupling)
        got = {c: [(t.intra, t.null_model, t.coupling) for t in report.terms
                   if t.community == c] for c in merged.communities()}
        assert rows == got[m]
        scored = math.fsum(intra - null + coup for intra, null, coup in got[m])
        assert term.hex() == scored.hex()
        others = [math.fsum(intra - null + coup for intra, null, coup in got[c])
                  for c in merged.communities() if c != m]
        total = report.total
    assert total.hex() == (math.fsum([term, *others]) / norm).hex()


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
                              resolution: mm.ResolutionPolicy = mm.ResolutionPolicy.constant(1.0),
                              coupling: mm.CouplingPolicy = mm.CouplingPolicy.none(),
                              max_communities: int | None = None):
    """Exhaustive optimum of the multilayer score over occurrence partitions.

    Returns (assignment, best_score) where assignment maps each (entity, layer)
    occurrence to a community index. Ties resolve to the lexicographically
    smallest restricted-growth string. Guarded to at most 12 occurrences.
    """
    tuples = occurrence_ids(net)
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
        value = mm.multilayer_modularity(net, cs, resolution, coupling).total
        if best_value is None or value > best_value:
            best_value = value
            best_code = code
    return {tuples[i]: best_code[i] for i in range(len(tuples))}, best_value


# -- literal gain evaluation and local moving --------------------------------------


def new_comm(engine, tuples):
    """The aggregates of a community holding the (entity index, layer index)
    ``tuples``, rebuilt from scratch: what ``engine`` must hold after moving
    them in one by one. The multilayer intersections and redundant pairs are
    counted only for a multilayer engine."""
    comm = _Comm(engine.net.num_layers)
    proj = {}  # l -> the entities the community holds in l
    for e, l in tuples:
        proj.setdefault(l, set()).add(e)
        comm.flat[e] = comm.flat.get(e, 0) + 1
    for l, members in proj.items():
        adj = engine.net.adj_idx(l)
        comm.size[l] = len(members)
        comm.deg[l] = sum(len(adj.get(v, ())) for v in members)
    if not isinstance(engine, _MultilayerEngine):
        return comm
    layers = sorted(proj)
    for a, i in enumerate(layers):
        for j in layers[a + 1:]:
            comm.inter[(i, j)] = len(proj[i] & proj[j])
    if engine.redundancy:
        for layers in literal_pair_layers(engine.net, comm.flat).values():
            if len(layers) >= 2:
                for l in layers:
                    comm.nrp[l] += 1
    return comm


def where_table(net, assign) -> list:
    """The per-layer table ``gather`` reads (``where[l][e]`` is the community
    of entity ``e`` in layer ``l``), built from an ``(entity index, layer
    index) -> community`` mapping."""
    where = [[None] * net.num_entities for _ in range(net.num_layers)]
    for (e, l), c in assign.items():
        where[l][e] = c
    return where


def literal_gather(net, unit, where) -> dict:
    """``[k_s, occ]`` for every community the unit touches, counted without
    the engine's walk: ``k_s`` from every edge of the unit's layer
    (``edges_idx``), taken from both ends, and ``occ`` by testing every
    other layer's presence set for each of the unit's entities."""
    l = unit.layer
    members = set(unit.entities)
    found = {}
    for a, b in net.edges_idx(l):
        for v, u in ((a, b), (b, a)):
            if v in members:
                found.setdefault(where[l][u], [0, {}])[0] += 1
    for v in unit.entities:
        for lj in range(net.num_layers):
            if lj != l and v in net.presence_idx(lj):
                occ = found.setdefault(where[lj][v], [0, {}])[1]
                occ[lj] = occ.get(lj, 0) + 1
    return found


def _ddint(unit, k_s, removing):
    """Change of a community's internal degree in the unit's layer, given
    the unit's ``k_s`` edges into it (its own ``within`` edges count twice
    in ``k_s`` when removing)."""
    if removing:
        return -(2 * k_s - 2 * unit.within)
    return 2 * (k_s + unit.within)


class LiteralMultilayerEngine(_MultilayerEngine):
    """The multilayer gain engine with its gains evaluated the literal way:
    the coupled pairs, their penalties and the normalization are derived
    from the literal pairings (``literal_coupling_pairs``,
    ``literal_total_degree``), not from the coupling plan; every pair
    touching the moved layer is resolved anew per call, before and after
    the move, every decay is computed from the logarithm, and the redundant
    pairs come from its own partner lists (``literal_redundant_partners``).
    The bookkeeping (``gather``, ``apply``) is the engine's own. ``delta``
    gives one community's gain per call, so every ``dq`` and patch of the
    engine's ``evaluate`` must equal this one's exactly."""

    def __init__(self, net, objective):
        super().__init__(net, objective)
        self.partners = literal_redundant_partners(net) if self.redundancy else None
        self.resolution = objective.resolution
        self.coupling = objective.coupling
        self.norm = float(literal_total_degree(net, self.coupling))
        records = literal_coupling_pairs(net, self.coupling)
        ell = net.num_layers
        self.vsize = [len(net.presence_idx(l)) for l in range(ell)]
        self.vinter = {(a, b): net.shared_count_idx(a, b)
                       for a in range(ell) for b in range(a + 1, ell)}
        self.touching = {l: [r for r in records if l in (r[0], r[1])] for l in range(ell)}

    def _gamma(self, nrp):
        if not self.redundancy:
            return self.resolution.gamma
        return log_decay(nrp)

    def _record_value(self, comm, rec, layer=None, psize_delta=0, dinter=None):
        """Coupling value of one (i, j, penalty) record, optionally with the
        pending projection-size and intersection deltas applied at `layer`."""
        i, j, penalty = rec
        key = (i, j) if i < j else (j, i)
        vint = self.vinter[key]
        if vint == 0:
            return 0.0
        inter = comm.inter.get(key, 0)
        if dinter is not None and layer in key:
            other = key[0] if key[1] == layer else key[1]
            inter += dinter.get(other, 0)
        if self.coupling.kind == "symmetric":
            return inter / vint * penalty
        src = i if self.coupling.kind == "asym-inner" else j
        psize = comm.size[src]
        if src == layer:
            psize += psize_delta
        if psize == 0:
            return 0.0
        return inter / vint * self.vsize[src] / psize * penalty

    def delta(self, comm, unit, counts, removing):
        l = unit.layer
        S = unit.entities
        k_s, occ = counts
        ddint = _ddint(unit, k_s, removing)
        ddeg = -unit.degsum if removing else unit.degsum
        psize_delta = -len(S) if removing else len(S)
        dinter = {lj: -cnt for lj, cnt in occ.items()} if removing else occ

        dnrp = {}
        if self.redundancy:
            # a redundant pair counts while both ends are in the flattened
            # community; only entities entering or leaving it change that
            sign = -1 if removing else 1
            moved = set()
            for v in S:
                if comm.flat.get(v, 0) != (1 if removing else 0):
                    continue
                for u, sl in self.partners[v]:
                    # partner in the community before the move xor already moved
                    if (comm.flat.get(u, 0) > 0) != (u in moved):
                        for lj in sl:
                            dnrp[lj] = dnrp.get(lj, 0) + sign
                moved.add(v)

        # objective delta; fixed layer order keeps float accumulation reproducible
        affected = sorted({l, *dnrp})
        d_null = 0.0
        for lj in affected:
            d_old = comm.deg[lj]
            d_new = d_old + (ddeg if lj == l else 0)
            g_old = self._gamma(comm.nrp[lj])
            g_new = self._gamma(comm.nrp[lj] + dnrp.get(lj, 0))
            d_null += g_new * d_new * d_new - g_old * d_old * d_old

        d_coup = 0.0
        for rec in self.touching[l]:
            before = self._record_value(comm, rec)
            after = self._record_value(comm, rec, layer=l,
                                       psize_delta=psize_delta, dinter=dinter)
            d_coup += after - before

        dq = (ddint - d_null / self.norm + d_coup) / self.norm
        return dq, (dinter, dnrp)


class LiteralMultisliceEngine(_MultisliceEngine):
    """The multislice gain engine with one community's gain per call, read
    from the per-layer occurrence counts of the engines' one ``gather``:
    ``delta`` sums them into the coupled occurrence pairs."""

    def delta(self, comm, unit, counts, removing):
        l = unit.layer
        k_s, occ = counts
        ddint = _ddint(unit, k_s, removing)
        d_old = comm.deg[l]
        # occurrence pairs the unit's entities form with the community elsewhere
        dcpairs = sum(occ.values())
        if removing:
            d_new = d_old - unit.degsum
            dcpairs = -dcpairs
        else:
            d_new = d_old + unit.degsum
        d_null = self.gammas[l] * (d_new * d_new - d_old * d_old) / self.two_e[l]
        dq = (ddint - d_null + 2.0 * self.omega * dcpairs) / self.norm
        return dq, ({}, {})


def literal_engine(net, objective):
    """The literal engine of ``objective`` on ``net``."""
    if isinstance(objective, mm.MultisliceObjective):
        return LiteralMultisliceEngine(net, objective)
    return LiteralMultilayerEngine(net, objective)


def literal_generalized_louvain(net, config):
    """Greedy local moving with aggregation, re-evaluating every unit on
    every visit and every candidate with its own ``delta`` call of the
    literal engine: ``generalized_louvain`` without the skip of units whose
    neighbourhood did not change (within a level or across one), and with
    the aggregation it builds and throws away after the last allowed pass."""
    if net.num_edges() == 0:
        raise mm.InputError("cannot detect communities on an edgeless network")
    engine = literal_engine(net, config.objective)
    rng = random.Random(config.seed)

    occurrences = [(net.entity_index(e), net.layer_index(l)) for e, l in occurrence_ids(net)]
    assign = {}
    comms = {}
    units = []
    for cid, (e, l) in enumerate(occurrences):
        unit = _make_unit(net, l, (e,))
        units.append(unit)
        assign[(e, l)] = cid
        comms[cid] = new_comm(engine, [(e, l)])
    where = where_table(net, assign)

    passes = 0
    moves = 0
    while passes < config.max_passes:
        # local moving at the current granularity
        while passes < config.max_passes:
            passes += 1
            order = list(range(len(units)))
            rng.shuffle(order)
            pass_gain = 0.0
            for ui in order:
                unit = units[ui]
                src = assign[(unit.entities[0], unit.layer)]
                found = engine.gather(unit, where)
                candidates = sorted(c for c in found if c != src)
                if not candidates:
                    continue
                dq_rem, patch_rem = engine.delta(comms[src], unit, found.get(src, [0, {}]),
                                                 removing=True)
                best_gain = 0.0
                best_cid = None
                best_patch = None
                for cid in candidates:
                    dq_ins, patch_ins = engine.delta(comms[cid], unit, found[cid], removing=False)
                    gain = dq_rem + dq_ins
                    if gain > best_gain:
                        best_gain = gain
                        best_cid = cid
                        best_patch = patch_ins
                if best_cid is None:
                    continue
                engine.apply(comms[src], unit, patch_rem, -1)
                engine.apply(comms[best_cid], unit, best_patch, 1)
                if not comms[src].flat:
                    del comms[src]
                for v in unit.entities:
                    assign[(v, unit.layer)] = best_cid
                    where[unit.layer][v] = best_cid
                pass_gain += best_gain
                moves += 1
            if pass_gain <= config.min_gain:
                break
        # aggregate into per-layer super-nodes of the current communities
        blocks = {}
        for (e, l), cid in assign.items():
            blocks.setdefault((cid, l), []).append(e)
        if len(blocks) == len(units):
            break
        units = [_make_unit(net, l, members)
                 for (cid, l), members in sorted(blocks.items())]

    assignment = {(net.entity_ids[e], net.layer_ids[l]): cid
                  for (e, l), cid in assign.items()}
    cs = mm.CommunityStructure(net, assignment)
    return DetectResult(structure=cs, objective=config.objective.score(net, cs),
                        passes=passes, moves=moves)


def _literal_single_layer_network(net, layer):
    """The layer alone: its present entities, indexed in ascending parent
    index, and its edges, assembled from the parent's adjacency."""
    li = net.layer_index(layer)
    members = sorted(net.presence_idx(li))
    index = {e: i for i, e in enumerate(members)}
    adj = net.adj_idx(li)
    presence = []
    edges = []
    for i, u in enumerate(members):
        presence += (0, i)
        for v in adj.get(u, ()):
            if u < v:
                edges += (0, i, index[v])
    return _assemble({net.entity_ids[e]: i for e, i in index.items()}, (layer,), presence,
                     edges, mm.LayerOrdering.unordered())


def literal_aggregate_majority(net, config):
    """The aggregation baseline in two passes: every layer's Louvain run
    first, each layer's communities sorted by their lowest entity and matched
    to the global labels through per-layer maps, then the vote over those
    maps. A layer with no occurrence (only the ordering names it) is left
    out."""
    layers = [layer for layer in net.layer_ids if net.presence_idx(net.layer_index(layer))]
    for layer in layers:
        if net.num_edges(layer) == 0:
            raise mm.InputError(f"layer {layer!r} has no edges")
    config.objective.gain_engine(net)

    layer_config = mm.DetectConfig(objective=mm.MultisliceObjective(gamma=1.0, omega=0.0),
                                   seed=config.seed, max_passes=config.max_passes,
                                   min_gain=config.min_gain)
    sub_results = [mm.generalized_louvain(_literal_single_layer_network(net, layer), layer_config)
                   for layer in layers]

    proto = {}  # global label -> set of entities seen with it so far
    next_label = 0
    matched = []
    for res in sub_results:
        groups = {}
        for e, c in res.partition.items():
            groups.setdefault(c, set()).add(e)
        local = sorted(groups, key=lambda c: min(net.entity_index(e) for e in groups[c]))
        mapping = {}
        if proto:
            scored = []
            for a in local:
                for g, members in proto.items():
                    ov = len(groups[a] & members)
                    if ov:
                        scored.append((-ov, g, a))
            used_g = set()
            used_a = set()
            for neg_ov, g, a in sorted(scored):
                if g in used_g or a in used_a:
                    continue
                mapping[a] = g
                used_g.add(g)
                used_a.add(a)
        for a in local:
            if a not in mapping:
                mapping[a] = next_label
                next_label += 1
        for a in local:
            proto.setdefault(mapping[a], set()).update(groups[a])
        matched.append({e: mapping[c] for e, c in res.partition.items()})

    partition = {}
    for entity in net.entity_ids:
        votes = {}
        for layer_map in matched:
            if entity in layer_map:
                g = layer_map[entity]
                votes[g] = votes.get(g, 0) + 1
        partition[entity] = min(votes, key=lambda g: (-votes[g], g))

    cs = mm.CommunityStructure.from_entity_partition(net, partition)
    return DetectResult(structure=cs, objective=config.objective.score(net, cs),
                        passes=sum(r.passes for r in sub_results),
                        moves=sum(r.moves for r in sub_results))

"""Community detection over multilayer networks.

The main routine is a Louvain-style greedy optimizer that assigns every
(entity, layer) occurrence separately: occurrences are visited in seeded
shuffled order and moved to the neighboring or coupled community with the
best positive gain (one pass over the occurrence gathers its counts to every
such community); once a full pass stalls, occurrences sharing a community
and a layer are fused into super-node blocks and the moving continues at the
coarser granularity. Gains are exact objective differences computed from
integer per-community aggregates, so the objective never decreases.

A visit whose outcome is already known is skipped: when an occurrence (or
block) is evaluated and stays put, the unit records the communities it
read with the move count, and later visits skip it until one of those
communities changes. The skip is exact. A unit's gains depend only on its
layer and entities, on the ``where`` entries ``gather`` reads (the
assignments of its neighbours and of its entities' other occurrences) and
on the aggregates of its own and its candidate communities. Each of those
changes only through a move, and a move marks both communities it touches:
the aggregates it changes, and the one an occurrence the unit read leaves.
Community ids are never reused. Skipped visits would have moved nothing
and gained nothing, and the shuffle still runs every pass, so the run is
the same as without the skip.

Aggregation groups the units by community and layer. Units partition the
occurrences and all of a unit's entities share one community, so the block
of a community in a layer is the union of the units it holds there, and it
equals a unit of the previous level exactly when its group has one member.
A group of one unit stays that unit, with its record; a larger group is a
new block without one. The carried record is exact too. Aggregation moves
nothing, so it changes neither the ``where`` entries nor any community's
aggregates; community ids and the per-community move counts persist across
levels; and the shuffle of a pass depends only on the number of units,
which the carry does not change.

The assignment is one per-layer table, ``where[l][e]``: the community of
entity ``e`` in layer ``l``. ``gather`` reads it, aggregation reads each
unit's community from it, and the final structure is built from it.

One gain engine serves both objectives: a shared base keeps each
community's projection sizes, flattened membership and degrees and applies
the moves, and each objective adds only what its gain reads. One ``gather``
serves both: it counts, for every community a unit touches, the unit's
edges into it and how many of the unit's entities it holds in each other
layer (the change of each projection intersection; the multislice score
sums them into the occurrence pairs worth omega each).
``evaluate`` then returns the removal's and every candidate's gain in one
call per visit, reading the unit's layer, sizes and tables once; the
multilayer score adds redundant-pair counts, the multislice score a
constant per-pair coupling. The multilayer gains read the scorer's
coupling plan (``coupling_plan``, under the network's layer ordering, the
only one an objective uses): its normalization, and its records copied
into per-layer coupling terms with nothing resolved again. They also read
the network's linked-pair query (``partner_layers_idx``). Redundancy
decays come from a table built at construction, up to the largest
redundant-pair count any layer can reach. A gain adds only the terms a
move can change. A coupling term whose intersection does not change is
exactly +0.0, unless it is asymmetric with the moved layer as its source,
and adding +0.0 to a sum that starts at +0.0 changes nothing, so skipping
those terms keeps every gain bit-identical. Each objective class builds
its own engine (``gain_engine``) and scores a structure through the
scoring module (``score``); the reported objective is always that score.

Also here: the per-layer aggregation baseline with majority voting, and
normalized mutual information.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from types import MappingProxyType

from .community import CommunityStructure, log_decay
from .errors import InputError, PolicyError
from .mlgraph import LayerOrdering, MultilayerNetwork, _assemble
from .modularity import (CouplingPolicy, ResolutionPolicy, coupling_plan,
                         _check_multislice_values, multilayer_modularity,
                         multislice_modularity, multislice_parameters)

_EMPTY = ()


@dataclass(frozen=True)
class MultisliceObjective:
    """Optimize the multislice score with fixed gamma(s) and coupling weight."""

    gamma: object = 1.0  # scalar or per-layer sequence
    omega: float = 0.0

    def __post_init__(self):
        # the checks that need no network, before any file is read; the
        # per-layer count and the edgeless layers are checked by the engine
        _check_multislice_values(self.gamma, self.omega)

    def gain_engine(self, net):
        return _MultisliceEngine(net, self)

    def score(self, net, cs) -> float:
        return multislice_modularity(net, cs, self.gamma, self.omega)


@dataclass(frozen=True)
class MultilayerObjective:
    """Optimize the multilayer score under the given policies."""

    resolution: ResolutionPolicy = field(default_factory=lambda: ResolutionPolicy.constant(1.0))
    coupling: CouplingPolicy = field(default_factory=CouplingPolicy.none)

    def gain_engine(self, net):
        return _MultilayerEngine(net, self)

    def score(self, net, cs) -> float:
        return multilayer_modularity(net, cs, self.resolution, self.coupling).total


@dataclass(frozen=True)
class DetectConfig:
    objective: object = field(default_factory=MultilayerObjective)
    seed: int = 0
    max_passes: int = 50
    min_gain: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.objective, (MultilayerObjective, MultisliceObjective)):
            raise PolicyError(f"unknown objective {self.objective!r}")
        if not (math.isfinite(self.min_gain) and self.min_gain > 0):
            raise PolicyError("min_gain must be a finite number > 0")
        if self.max_passes < 1:
            raise PolicyError("max_passes must be >= 1")


@dataclass(frozen=True)
class DetectResult:
    structure: CommunityStructure
    partition: dict            # entity -> community (majority vote)
    objective: float           # re-scored value of `structure`
    passes: int
    moves: int


class _Comm:
    """Mutable per-community aggregates; all counters are exact integers.
    ``inter`` and ``nrp`` stay empty under the multislice objective."""

    __slots__ = ("size", "flat", "deg", "inter", "nrp")

    def __init__(self):
        self.size = {}          # l -> entities held in l (the projection's size)
        self.flat = {}          # e -> occurrence count
        self.deg = {}           # l -> int
        self.inter = {}         # (i, j) i < j -> entities held in both i and j
        self.nrp = {}           # l -> redundant pairs supported by l


class _Unit:
    """A movable block: one or more occurrences of a single layer."""

    __slots__ = ("layer", "entities", "within", "degsum", "seen")

    def __init__(self, layer, entities, within, degsum):
        self.layer = layer
        self.entities = entities
        self.within = within    # edges among the block's entities in `layer`
        self.degsum = degsum    # their total intra-layer degree
        self.seen = None        # (move count, communities read) when it last stayed put


_NO_PATCH = ({}, {})
# no other-layer occurrences: ``gather`` shares it among the communities a
# unit reaches only through edges, and a patch may hold it
_NO_OCC = MappingProxyType({})
# the counts of a community the unit does not touch
_UNTOUCHED = (0, _NO_OCC)


def _make_unit(net, layer, entities):
    entities = tuple(sorted(entities))
    adj = net.adj_idx(layer)
    eset = set(entities)
    within = sum(len(eset.intersection(adj.get(v, _EMPTY))) for v in entities) // 2
    degsum = sum(len(adj.get(v, _EMPTY)) for v in entities)
    return _Unit(layer, entities, within, degsum)


class _Engine:
    """Community bookkeeping shared by both objectives: :meth:`gather`, the
    counts both gains read for every community a unit touches (Blondel et
    al. 2008; ``where[l][e]`` is the community of entity ``e`` in layer
    ``l``), and :meth:`apply`. A subclass supplies ``evaluate(comms, unit,
    found, src, candidates)``, one call per visit: a list of ``(dq,
    patch)``, the unit's removal from ``src`` first and then its insertion
    into each candidate, in candidate order. ``dq`` is the exact objective
    change and the patch the pending ``(dinter, dnrp)`` changes
    :meth:`apply` commits; the per-unit set-up is read once per visit. A
    community the unit does not touch has no entry in ``found`` and reads
    as ``_UNTOUCHED``. A singleton community is an empty ``_Comm`` with its
    occurrence applied under ``_NO_PATCH``: one occurrence has no
    intersections and no redundant pairs."""

    def __init__(self, net):
        self.net = net

    def gather(self, unit, where):
        """``[k_s, occ]`` for every community the unit touches, in one pass
        over it: ``k_s`` is the number of the unit's edges into the
        community in the unit's layer, and ``occ`` maps each other layer to
        how many of the unit's entities the community holds there (the
        change of its intersection with the unit's layer; the multislice
        gain sums them into its coupled occurrence pairs). A community
        reached only through edges shares ``_UNTOUCHED``'s empty read-only
        map until its first other-layer occurrence is counted."""
        l = unit.layer
        adj = self.net.adj_idx(l)
        here = where[l]
        found = {}
        for v in unit.entities:
            for u in adj.get(v, _EMPTY):
                c = here[u]
                counts = found.get(c)
                if counts is None:
                    found[c] = [1, _NO_OCC]
                else:
                    counts[0] += 1
            for lj in self.net.entity_layers_idx(v):
                if lj != l:
                    c = where[lj][v]
                    counts = found.get(c)
                    if counts is None:
                        found[c] = [0, {lj: 1}]
                    elif counts[1]:
                        occ = counts[1]
                        occ[lj] = occ.get(lj, 0) + 1
                    else:
                        counts[1] = {lj: 1}
        return found

    def apply(self, comm, unit, patch, removing):
        l = unit.layer
        if removing:
            comm.size[l] -= len(unit.entities)
            for v in unit.entities:
                comm.flat[v] -= 1
                if comm.flat[v] == 0:
                    del comm.flat[v]
            comm.deg[l] -= unit.degsum
        else:
            comm.size[l] = comm.size.get(l, 0) + len(unit.entities)
            for v in unit.entities:
                comm.flat[v] = comm.flat.get(v, 0) + 1
            comm.deg[l] = comm.deg.get(l, 0) + unit.degsum
        dinter, dnrp = patch
        for lj, dv in dinter.items():
            key = (l, lj) if l < lj else (lj, l)
            comm.inter[key] = comm.inter.get(key, 0) + dv
        for lj, dv in dnrp.items():
            comm.nrp[lj] = comm.nrp.get(lj, 0) + dv


class _MultilayerEngine(_Engine):
    """Exact gains of the multilayer objective: projection intersections
    (``inter``) and redundant-pair counts (``nrp``) on top of the shared
    bookkeeping."""

    def __init__(self, net, objective):
        super().__init__(net)
        coupling = objective.coupling
        records, norm = coupling_plan(net, coupling)
        self.norm = float(norm)
        self.gamma = objective.resolution.gamma
        self.redundancy = objective.resolution.kind == "redundancy"
        # entity -> (partner, supporting layers) over pairs linked in >= 2 layers
        self.rp_adj = None
        self.decay = None
        if self.redundancy:
            self.rp_adj = [[(u, sl) for u, sl in net.partner_layers_idx(v).items() if len(sl) >= 2]
                           for v in range(net.num_entities)]
            # log_decay(n) at index n, up to the most redundant pairs any
            # layer can hold: every pair appears once from each end
            most = sum(len(sl) for pairs in self.rp_adj for _, sl in pairs) // 2
            self.decay = [log_decay(n) for n in range(most + 1)]

        # the coupling records touching each layer: (key, other layer,
        # projection source, shared entities, source layer size, penalty).
        # ``own_terms`` keeps the asymmetric ones whose source is the layer
        # itself: the only ones a move that changes no intersection can change
        self.symmetric = coupling.kind == "symmetric"
        self.terms = [[] for _ in range(net.num_layers)]
        self.own_terms = [[] for _ in range(net.num_layers)]
        for i, j, src, vint, vsize, penalty in records:
            key = (i, j) if i < j else (j, i)
            self.terms[i].append((key, j, src, vint, vsize, penalty))
            self.terms[j].append((key, i, src, vint, vsize, penalty))
            if not self.symmetric:
                self.own_terms[src].append((key, j if src == i else i, src, vint, vsize, penalty))

    def evaluate(self, comms, unit, found, src, candidates):
        """The exact objective change and patch of moving ``unit`` out of
        ``src`` and then into each candidate.

        Terms that are exactly +0.0 are not added. A coupling term whose
        intersection does not change (``dinter.get(other, 0) == 0``) has
        the same float before and after the move, so it adds +0.0, under
        symmetric coupling and under asymmetric coupling whose source
        projection is not the moved layer; only ``own_terms`` remain when
        ``dinter`` is empty. ``d_coup`` starts at +0.0, and a round-to-nearest
        sum that starts from +0.0 never yields -0.0, so adding +0.0 changes
        nothing. When no redundant-pair count changes, the null term is the
        unit's layer's alone, read without a sort: it is never -0.0 (gamma
        and every decay are >= 0), so it equals that sum from +0.0.

        The redundant-pair walk stays per community: it reads only the
        entities that enter or leave that community's flattened membership.
        """
        l = unit.layer
        S = unit.entities
        size = len(S)
        single = S[0] if size == 1 else None
        within = unit.within
        degsum = unit.degsum
        norm = self.norm
        gamma = self.gamma
        redundancy = self.redundancy
        rp_adj = self.rp_adj
        decay = self.decay
        symmetric = self.symmetric
        terms = self.terms[l]
        own_terms = self.own_terms[l]

        out = []
        removing = True
        for cid in (src, *candidates):
            comm = comms[cid]
            k_s, occ = found.get(cid, _UNTOUCHED)
            if removing:
                # the unit's own ``within`` edges count twice in ``k_s``
                ddint = -(2 * k_s - 2 * within)
                ddeg = -degsum
                dinter = {lj: -cnt for lj, cnt in occ.items()}
                sign, crossing, psize_delta = -1, 1, -size
            else:
                ddint = 2 * (k_s + within)
                ddeg = degsum
                dinter = occ
                sign, crossing, psize_delta = 1, 0, size

            dnrp = {}
            if redundancy:
                # a redundant pair counts while both ends are in the flattened
                # community; only entities entering or leaving it (their count
                # there is ``crossing``) change that
                flat = comm.flat
                # the single-entity branch is kept on purpose, not a duplicate
                # path: it is chosen by unit size, and the general walk alone
                # ran 4.1% more bytecodes on the planted-ml benchmark run
                if single is not None:
                    if flat.get(single, 0) == crossing:
                        for u, sl in rp_adj[single]:
                            if u in flat:  # ``apply`` deletes zero counts
                                for lj in sl:
                                    dnrp[lj] = dnrp.get(lj, 0) + sign
                else:
                    moved = set()
                    for v in S:
                        if flat.get(v, 0) != crossing:
                            continue
                        for u, sl in rp_adj[v]:
                            # partner in the community before the move xor already moved
                            if (flat.get(u, 0) > 0) != (u in moved):
                                for lj in sl:
                                    dnrp[lj] = dnrp.get(lj, 0) + sign
                        moved.add(v)

            # objective delta; fixed layer order keeps float accumulation reproducible
            deg = comm.deg
            if dnrp:
                nrp = comm.nrp
                d_null = 0.0
                for lj in sorted({l, *dnrp}):
                    d_old = deg.get(lj, 0)
                    d_new = d_old + (ddeg if lj == l else 0)
                    n_old = nrp.get(lj, 0)
                    d_null += (decay[n_old + dnrp.get(lj, 0)] * d_new * d_new
                               - decay[n_old] * d_old * d_old)
            else:
                d_old = deg.get(l, 0)
                d_new = d_old + ddeg
                g = decay[comm.nrp.get(l, 0)] if redundancy else gamma
                d_null = g * d_new * d_new - g * d_old * d_old

            d_coup = 0.0
            inter = comm.inter
            if symmetric:
                for key, other, _, vint, _, penalty in (terms if dinter else own_terms):
                    n = inter.get(key, 0)
                    d_coup += (n + dinter.get(other, 0)) / vint * penalty - n / vint * penalty
            else:
                sizes = comm.size
                for key, other, side, vint, vs, penalty in (terms if dinter else own_terms):
                    n = inter.get(key, 0)
                    psize = sizes.get(side, 0)
                    before = n / vint * vs / psize * penalty if psize else 0.0
                    if side == l:
                        psize += psize_delta
                    after = ((n + dinter.get(other, 0)) / vint * vs / psize * penalty
                             if psize else 0.0)
                    d_coup += after - before

            out.append(((ddint - d_null / norm + d_coup) / norm, (dinter, dnrp)))
            removing = False
        return out


class _MultisliceEngine(_Engine):
    """Exact gains of the multislice objective: a per-layer gamma null model
    and a constant omega per same-entity occurrence pair, the sum of the
    per-layer counts ``gather`` returns."""

    def __init__(self, net, objective):
        super().__init__(net)
        self.gammas, self.two_e, self.norm = multislice_parameters(
            net, objective.gamma, objective.omega)
        self.omega = float(objective.omega)

    def evaluate(self, comms, unit, found, src, candidates):
        """The exact objective change of moving ``unit`` out of ``src`` and
        then into each candidate; every patch is ``_NO_PATCH``."""
        l = unit.layer
        within = unit.within
        degsum = unit.degsum
        gamma = self.gammas[l]
        two_e = self.two_e[l]
        omega2 = 2.0 * self.omega
        norm = self.norm

        # the unit's own ``within`` edges count twice in ``k_s``; the
        # occurrence pairs it forms with a community are its per-layer counts
        k_s, occ = found.get(src, _UNTOUCHED)
        pairs = sum(occ.values()) if occ else 0
        d_old = comms[src].deg.get(l, 0)
        d_new = d_old - degsum
        d_null = gamma * (d_new * d_new - d_old * d_old) / two_e
        out = [((-(2 * k_s - 2 * within) - d_null + omega2 * -pairs) / norm, _NO_PATCH)]
        for cid in candidates:
            k_s, occ = found.get(cid, _UNTOUCHED)
            pairs = sum(occ.values()) if occ else 0
            d_old = comms[cid].deg.get(l, 0)
            d_new = d_old + degsum
            d_null = gamma * (d_new * d_new - d_old * d_old) / two_e
            out.append(((2 * (k_s + within) - d_null + omega2 * pairs) / norm, _NO_PATCH))
        return out


def generalized_louvain(net: MultilayerNetwork, config: DetectConfig) -> DetectResult:
    """Greedy local moving over entity-layer occurrences with aggregation.

    Occurrences start in singleton communities and are visited in seeded
    shuffled order; each is moved to the candidate community (those of its
    intra-layer neighbors and of the same entity's other occurrences) with
    the best strictly positive gain, ties toward the lowest community index.
    When a full pass gains at most ``min_gain``, occurrences are fused into
    per-layer super-node blocks of their communities and the process repeats
    on the blocks, stopping once aggregation no longer coarsens anything (or
    ``max_passes`` sweeps have run; no aggregation follows the last one).

    Each visit gathers the unit's counts once and asks the engine for every
    gain in one call; the choice of move is made here, for both engines.
    A unit that was evaluated and stayed put is skipped on later visits
    until one of the communities it read (its own and every candidate) is
    changed by a move. Aggregation groups the units by community and layer;
    a group of one unit is that unit, so it keeps its record and the skip
    carries across levels. Its outcome cannot differ before then, so the
    skip changes no assignment, pass count, move count or objective; the
    module docstring gives the argument.

    The reported objective is the objective's ``score`` of the final
    structure, through the scoring module, not the incremental bookkeeping.
    """
    if net.num_edges() == 0:
        raise InputError("cannot detect communities on an edgeless network")
    engine = config.objective.gain_engine(net)
    rng = random.Random(config.seed)

    # layer -> entity -> community, the one store of the assignment
    where = [[None] * net.num_entities for _ in range(net.num_layers)]
    comms = {}
    units = []  # one singleton per occurrence, entity-major
    for e in range(net.num_entities):
        for l in net.entity_layers_idx(e):
            cid = len(units)
            unit = _make_unit(net, l, (e,))
            units.append(unit)
            where[l][e] = cid
            comms[cid] = _Comm()
            engine.apply(comms[cid], unit, _NO_PATCH, removing=False)

    passes = 0
    moves = 0
    changed = [0] * len(units)  # community -> move count at its last change
    while True:
        # local moving at the current granularity
        while passes < config.max_passes:
            passes += 1
            order = list(range(len(units)))
            rng.shuffle(order)
            pass_gain = 0.0
            for ui in order:
                unit = units[ui]
                seen = unit.seen
                if seen is not None and all(changed[c] <= seen[0] for c in seen[1]):
                    continue  # nothing it reads has changed: it stays again
                here = where[unit.layer]
                src = here[unit.entities[0]]
                found = engine.gather(unit, where)
                candidates = sorted(c for c in found if c != src)
                if not candidates:
                    unit.seen = (moves, (src,))
                    continue
                (dq_rem, patch_rem), *inserts = engine.evaluate(comms, unit, found, src,
                                                                candidates)
                best_gain = 0.0
                best_cid = None
                best_patch = None
                for cid, (dq_ins, patch_ins) in zip(candidates, inserts):
                    gain = dq_rem + dq_ins
                    if gain > best_gain:
                        best_gain = gain
                        best_cid = cid
                        best_patch = patch_ins
                if best_cid is None:
                    unit.seen = (moves, (src, *candidates))
                    continue
                engine.apply(comms[src], unit, patch_rem, removing=True)
                engine.apply(comms[best_cid], unit, best_patch, removing=False)
                if not comms[src].flat:
                    del comms[src]
                for v in unit.entities:
                    here[v] = best_cid
                pass_gain += best_gain
                moves += 1
                changed[src] = changed[best_cid] = moves
            if pass_gain <= config.min_gain:
                break
        if passes >= config.max_passes:
            break
        # aggregate into per-layer super-nodes of the current communities; a
        # group of one unit is that unit and keeps its record
        groups = {}
        for unit in units:
            l = unit.layer
            groups.setdefault((where[l][unit.entities[0]], l), []).append(unit)
        if len(groups) == len(units):
            break
        units = [group[0] if len(group) == 1
                 else _make_unit(net, l, [e for unit in group for e in unit.entities])
                 for (_, l), group in sorted(groups.items())]

    cs = CommunityStructure._from_labels(net, where)
    return DetectResult(structure=cs, partition=cs.flatten_majority(),
                        objective=config.objective.score(net, cs),
                        passes=passes, moves=moves)


def _layer_louvain(net, layer, seed, max_passes, min_gain) -> DetectResult:
    """Louvain on ``layer`` alone (modularity at gamma 1): a network of the
    layer's present entities, indexed in ascending parent index, and of its
    edges."""
    li = net.layer_index(layer)
    index = {e: i for i, e in enumerate(sorted(net.presence_idx(li)))}
    presence = [x for i in index.values() for x in (0, i)]
    edges = [x for u, v in net.edges_idx(li) for x in (0, index[u], index[v])]
    alone = _assemble({net.entity_ids[e]: i for e, i in index.items()}, (layer,), presence,
                      edges, LayerOrdering.unordered())
    config = DetectConfig(objective=MultisliceObjective(gamma=1.0, omega=0.0),
                          seed=seed, max_passes=max_passes, min_gain=min_gain)
    return generalized_louvain(alone, config)


def aggregate_majority(net: MultilayerNetwork, config: DetectConfig) -> DetectResult:
    """Aggregation baseline: per-layer Louvain, greedy label matching by
    maximum entity overlap, then per-entity majority vote.

    Layers are taken in index order, and each layer's communities in the
    order of their lowest entity. The global labels are the indices of the
    prototypes, the entities seen with each label so far. A layer's
    community goes to the free label it overlaps most (ties toward the
    lower label, then the earlier community) or else to a new label, and
    each of its entities gets one vote for that label. An entity takes the
    label with the most votes, ties toward the lower label.

    The matched labeling is expanded to every occurrence and re-scored with
    the objective carried by ``config``; passes and moves are summed over
    the per-layer runs.
    """
    for layer in net.layer_ids:
        if net.num_edges(layer) == 0:
            raise InputError(f"layer {layer!r} has no edges")
    config.objective.gain_engine(net)  # rejects bad parameters before any Louvain run

    proto = []  # global label -> set of entities seen with it so far
    votes = {}  # entity -> global label -> layers that gave it
    passes = moves = 0
    for layer in net.layer_ids:
        res = _layer_louvain(net, layer, config.seed, config.max_passes, config.min_gain)
        passes += res.passes
        moves += res.moves
        groups = [res.structure.projection(c, layer) for c in res.structure.communities()]
        scored = []
        for a, group in enumerate(groups):
            for g, members in enumerate(proto):
                ov = len(group & members)
                if ov:
                    scored.append((-ov, g, a))
        mapping = [None] * len(groups)
        used = set()
        for _, g, a in sorted(scored):
            if g not in used and mapping[a] is None:
                mapping[a] = g
                used.add(g)
        for a, group in enumerate(groups):
            g = mapping[a]
            if g is None:
                g = len(proto)
                proto.append(set())
            proto[g].update(group)
            for e in group:
                tally = votes.setdefault(e, {})
                tally[g] = tally.get(g, 0) + 1

    partition = {e: min(tally, key=lambda g: (-tally[g], g)) for e, tally in votes.items()}
    cs = CommunityStructure.from_entity_partition(net, partition)
    return DetectResult(structure=cs, partition=cs.flatten_majority(),
                        objective=config.objective.score(net, cs),
                        passes=passes, moves=moves)


def nmi(partition_a: dict, partition_b: dict) -> float:
    """Normalized mutual information of two partitions of the same universe,
    with arithmetic-mean normalization; two zero-entropy partitions are
    considered identical (NMI 1)."""
    if set(partition_a) != set(partition_b):
        raise InputError("partitions cover different entity universes")
    n = len(partition_a)
    if n == 0:
        raise InputError("partitions are empty")
    joint = {}
    ca = {}
    cb = {}
    for e in partition_a:
        a, b = partition_a[e], partition_b[e]
        joint[(a, b)] = joint.get((a, b), 0) + 1
        ca[a] = ca.get(a, 0) + 1
        cb[b] = cb.get(b, 0) + 1
    h_a = -sum(c / n * math.log(c / n) for c in ca.values())
    h_b = -sum(c / n * math.log(c / n) for c in cb.values())
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    info = 0.0
    for (a, b), c in joint.items():
        info += c / n * math.log(c * n / (ca[a] * cb[b]))
    value = 2.0 * info / (h_a + h_b)
    return min(1.0, max(0.0, value))

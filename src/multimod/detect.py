"""Community detection over multilayer networks.

The main routine is a Louvain-style greedy optimizer that assigns every
(entity, layer) occurrence separately: occurrences are visited in seeded
shuffled order and moved to the neighboring or coupled community with the
best positive gain (one pass over the occurrence gathers its counts to every
such community); once a full pass stalls, occurrences sharing a community
and a layer are fused into super-node blocks and the moving continues at the
coarser granularity. Gains are exact objective differences computed from
integer per-community aggregates, so the objective never decreases.

Work whose outcome is already known is skipped: when an occurrence (or
block) is evaluated and stays put, the unit records the move count ``t``
and the communities it read (its own and every one it touched), and later
visits skip it until one of those communities changes. The skip is exact.
A unit's gains depend only on its layer and entities, on the ``where``
entries ``gather`` reads (the assignments of its neighbours and of its
entities' other occurrences) and on the aggregates of its own and its
candidate communities. Each of those changes only through a move, and a
move marks both communities it touches: the aggregates it changes, and the
one an occurrence the unit read leaves. So a community the unit touches
now but did not read at ``t`` has changed since. Community ids are never
reused. Skipped visits would have moved nothing and gained nothing, and the
shuffle still runs every pass, so the run is the same as without the skip.

A visit that is not skipped, to a unit whose own community has not changed
since ``t``, scores only the candidates changed since ``t``. At ``t`` every
gain was <= 0; the removal's gain and each unchanged candidate's insertion
gain are the same floats now, so none of those candidates can win the
strictly positive best, and the choice among the rest is unchanged. The
record it leaves names every community it touched, not just those scored.

Within a visit, the multilayer engine stops scoring a candidate once it
provably cannot win. Take an insertion that changes no intersection and no
redundant-pair count (``dinter`` and ``dnrp`` both empty, known after the
redundant-pair walk). Its null term is ``g * d_new * d_new - g * d_old *
d_old`` with ``d_new >= d_old >= 0`` and ``g`` (gamma, or a decay) ``>= 0``,
so it is ``>= +0.0``. Its coupling terms are own terms alone, each ``n``
shared entities over a source projection that only grows, so each is
``<= 0`` and so is their sum from +0.0. Round-to-nearest is monotone in
every operand, so ``(ddint - d_null / norm + d_coup) / norm <= ddint /
norm`` and the gain ``dq_rem + dq_ins <= dq_rem + ddint / norm``. When that
bound is ``<=`` the running best, the candidate cannot win the strict
comparison, and its null and coupling terms are not computed; the
candidates before and after it are scored and compared as before.

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
``evaluate`` then scores the removal and the candidates in one call per
visit, reading the unit's layer, sizes and tables once, and returns the
move: the running best of ``dq_rem + dq_ins``. The multilayer score adds
redundant-pair counts, the multislice score a constant per-pair coupling.
Each community keeps its per-layer counts (projection sizes, degrees,
redundant pairs) in lists indexed by layer. The multilayer gains read the scorer's
coupling plan (``coupling_plan``, under the network's layer ordering, the
only one an objective uses): its normalization, and its records copied
into per-layer coupling terms with nothing resolved again. They also read
the network's linked-pair query (``partner_layers_idx``). Redundancy
decays come from a table built at construction, up to the largest
redundant-pair count any layer can reach. A gain adds only the terms a
move can change. A coupling term whose intersection does not change is
exactly zero, unless it is asymmetric with the moved layer as its source
and a non-empty intersection, and adding a zero to a sum that starts at
+0.0 changes nothing, so skipping those terms keeps every gain
bit-identical. Each objective class builds
its own engine (``gain_engine``) and scores a structure through the
scoring module (``score``); the reported objective is always that score.

Also here: the per-layer aggregation baseline with majority voting, and
normalized mutual information.
"""

from __future__ import annotations

import math
import random
from types import MappingProxyType

from .community import CommunityStructure, _degrees, log_decay
from .errors import InputError, PolicyError
from .mlgraph import MultilayerNetwork, _nonnegative, _record, build_network
from .modularity import (CouplingPolicy, ResolutionPolicy, coupling_plan,
                         _check_multislice_values, _check_policies, multilayer_modularity,
                         multislice_modularity, multislice_parameters)


class MultisliceObjective(_record("MultisliceObjective", "gamma omega")):
    """Optimize the multislice score with fixed gamma(s) and coupling weight."""

    __slots__ = ()

    def __new__(cls, gamma: object = 1.0, omega: float = 0.0):  # gamma: scalar or per layer
        # the checks that need no network, before any file is read, and the
        # floats they return are held; the per-layer count and the edgeless
        # layers are checked by the engine
        return super().__new__(cls, *_check_multislice_values(gamma, omega))

    def gain_engine(self, net):
        return _MultisliceEngine(net, self)

    def score(self, net, cs) -> float:
        return multislice_modularity(net, cs, self.gamma, self.omega)


class MultilayerObjective(_record("MultilayerObjective", "resolution coupling")):
    """Optimize the multilayer score under the given policies."""

    __slots__ = ()

    def __new__(cls, resolution: ResolutionPolicy = ResolutionPolicy.constant(1.0),
                coupling: CouplingPolicy = CouplingPolicy.none()):
        _check_policies(resolution, coupling)
        return super().__new__(cls, resolution, coupling)

    def gain_engine(self, net):
        return _MultilayerEngine(net, self)

    def score(self, net, cs) -> float:
        return multilayer_modularity(net, cs, self.resolution, self.coupling).total


class DetectConfig(_record("DetectConfig", "objective seed max_passes min_gain")):
    __slots__ = ()

    def __new__(cls, objective: object = MultilayerObjective(), seed: int = 0,
                max_passes: int = 50, min_gain: float = 1e-9):
        if not isinstance(objective, (MultilayerObjective, MultisliceObjective)):
            raise PolicyError(f"unknown objective {objective!r}")
        # a seed of None would seed from the OS
        for name, value in (("seed", seed), ("max_passes", max_passes)):
            if type(value) is not int:
                raise PolicyError(f"{name} must be an int, not {value!r}")
        if not (_nonnegative(min_gain) and min_gain > 0):
            raise PolicyError(f"min_gain must be a finite number > 0, not {min_gain!r}")
        if max_passes < 1:
            raise PolicyError("max_passes must be >= 1")
        return super().__new__(cls, objective, seed, max_passes, min_gain)


class DetectResult(_record("DetectResult", "structure objective passes moves")):
    """``objective`` is the re-scored value of ``structure``."""

    __slots__ = ()

    @property
    def partition(self) -> MappingProxyType:
        """Entity -> community, read-only: the majority vote the structure
        keeps from first use."""
        return self.structure.flatten_majority()


class _Comm:
    """Mutable per-community aggregates; all counters are exact integers.
    ``size``, ``deg`` and ``nrp`` hold one count per layer of the network.
    ``inter`` stays empty and ``nrp`` zero under the multislice objective."""

    __slots__ = ("size", "flat", "deg", "inter", "nrp")

    def __init__(self, layers):
        self.size = [0] * layers  # l -> entities held in l (the projection's size)
        self.flat = {}            # e -> occurrence count
        self.deg = [0] * layers   # l -> total intra-layer degree held in l
        self.inter = {}           # (i, j) i < j -> entities held in both i and j
        self.nrp = [0] * layers   # l -> redundant pairs supported by l


class _Unit:
    """A movable block: one or more occurrences of a single layer."""

    __slots__ = ("layer", "entities", "within", "degsum", "seen")

    def __init__(self, layer, entities, within, degsum):
        self.layer = layer
        self.entities = entities
        self.within = within    # edges among the block's entities in `layer`
        self.degsum = degsum    # their total intra-layer degree
        self.seen = None        # (move count, communities read) when it last stayed put


# no other-layer occurrences: ``gather`` shares it among the communities a
# unit reaches only through edges, and a patch may hold it, as its
# intersection changes or as its redundant-pair changes
_NO_OCC = MappingProxyType({})
# the patch of a move that changes no intersection and no redundant pair
_NO_PATCH = (_NO_OCC, _NO_OCC)
# the counts of a community the unit does not touch
_UNTOUCHED = (0, _NO_OCC)


def _make_unit(net, layer, entities):
    entities = tuple(sorted(entities))
    degsum, dint = _degrees(net.adj_idx(layer), set(entities))
    return _Unit(layer, entities, dint // 2, degsum)


class _Engine:
    """Community bookkeeping shared by both objectives: :meth:`gather`, the
    counts both gains read for every community a unit touches (Blondel et
    al. 2008; ``where[l][e]`` is the community of entity ``e`` in layer
    ``l``), and :meth:`apply`. A subclass supplies ``evaluate(comms, unit,
    found, src, candidates, floor=0.0)``, one call per visit, which returns
    ``(dq_rem, patch_rem, best)``: the unit's removal from ``src``, and the
    move the local-moving rule picks. ``best`` is ``(dq_ins, cid,
    patch_ins)`` for the first candidate, in candidate order, whose
    ``dq_rem + dq_ins`` is the greatest and above ``floor``, or None when
    no candidate's is. Each ``dq`` is the exact objective change, computed
    in one float order, and each patch the pending ``(dinter, dnrp)``
    changes :meth:`apply` commits; the per-unit set-up is read once per
    visit and no list of gains is built. With ``floor=-math.inf`` and one
    candidate, ``best`` holds that candidate's own ``dq`` and patch. A
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
            for u in adj.get(v, ()):
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

    def apply(self, comm, unit, patch, sign):
        """Add the unit and ``patch`` to ``comm`` (``sign`` 1) or remove them
        (``sign`` -1); an entity whose count reaches 0 leaves ``flat``."""
        l = unit.layer
        comm.size[l] += sign * len(unit.entities)
        flat = comm.flat
        for v in unit.entities:
            n = flat.get(v, 0) + sign
            if n:
                flat[v] = n
            else:
                del flat[v]
        comm.deg[l] += sign * unit.degsum
        dinter, dnrp = patch
        for lj, dv in dinter.items():
            key = (l, lj) if l < lj else (lj, l)
            comm.inter[key] = comm.inter.get(key, 0) + dv
        nrp = comm.nrp
        for lj, dv in dnrp.items():
            nrp[lj] += dv


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

    def evaluate(self, comms, unit, found, src, candidates, floor=0.0):
        """The exact objective change and patch of moving ``unit`` out of
        ``src``, and the best move into a candidate (see ``_Engine``).

        Terms that are exactly zero are not added. A coupling term whose
        intersection does not change (``d = dinter.get(other, 0)`` is 0)
        has the same float before and after the move, so it adds +0.0,
        under symmetric coupling and under asymmetric coupling whose source
        projection is not the moved layer; only ``own_terms`` remain when
        ``dinter`` is empty. An own term with ``d`` and the intersection
        ``n`` both 0 is a zero before and after, whatever its projection
        size, so it adds a zero too. ``d_coup`` starts at +0.0, and a
        round-to-nearest sum that starts from +0.0 never yields -0.0, so
        adding either zero changes nothing. When no redundant-pair count
        changes, the null term is the unit's layer's alone, read without a
        sort: it is never -0.0 (gamma and every decay are >= 0), so it
        equals that sum from +0.0.

        The redundant-pair walk stays per community: it reads only the
        entities that enter or leave that community's flattened membership.
        A patch with no redundant-pair change shares the read-only
        ``_NO_OCC``.

        An insertion with no ``dinter`` and no ``dnrp`` whose bound
        ``dq_rem + ddint / norm`` is at most the running best is dropped
        before its null and coupling terms (the module docstring gives the
        argument). ``generalized_louvain`` passes the candidates whose gains
        it needs, not always every community the unit touches (see its
        docstring). On the benchmark's three planted-ml networks (perfbench
        generator seeds 7000000-7000002) its 124,146 visits reach 870,944
        gains, removals included, against 1,054,393 when every touched
        community is scored; 462,986 of the 746,798 insertions change no
        intersection and no redundant-pair count, and the bound stops
        348,704 of them.
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

        dq_rem = patch_rem = best = None
        best_gain = floor
        removing = True
        for cid in (src, *candidates):
            comm = comms[cid]
            k_s, occ = found.get(cid, _UNTOUCHED)
            if removing:
                # the unit's own ``within`` edges count twice in ``k_s``
                ddint = -(2 * k_s - 2 * within)
                ddeg = -degsum
                dinter = {lj: -cnt for lj, cnt in occ.items()} if occ else _NO_OCC
                sign, crossing, psize_delta = -1, 1, -size
            else:
                ddint = 2 * (k_s + within)
                ddeg = degsum
                dinter = occ
                sign, crossing, psize_delta = 1, 0, size

            dnrp = _NO_OCC
            if redundancy:
                # a redundant pair counts while both ends are in the flattened
                # community; only entities entering or leaving it (their count
                # there is ``crossing``) change that
                flat = comm.flat
                # the single-entity branch is kept on purpose, not a duplicate
                # path: it is chosen by unit size, and the general walk alone
                # ran 4.1% more bytecodes on the planted-ml benchmark run. Its
                # entity crosses exactly when the community holds it in no
                # other layer, which is when ``occ`` is empty
                if single is not None:
                    if not occ:
                        for u, sl in rp_adj[single]:
                            if u in flat:  # ``apply`` deletes zero counts
                                if dnrp is _NO_OCC:
                                    dnrp = {}
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
                                if dnrp is _NO_OCC:
                                    dnrp = {}
                                for lj in sl:
                                    dnrp[lj] = dnrp.get(lj, 0) + sign
                        moved.add(v)

            if not (removing or occ or dnrp) and dq_rem + ddint / norm <= best_gain:
                continue  # the insertion bound: the null and coupling terms only lower it

            # objective delta; fixed layer order keeps float accumulation reproducible
            deg = comm.deg
            nrp = comm.nrp
            if dnrp:
                d_null = 0.0
                for lj in sorted({l, *dnrp}):
                    d_old = deg[lj]
                    d_new = d_old + (ddeg if lj == l else 0)
                    n_old = nrp[lj]
                    d_null += (decay[n_old + dnrp.get(lj, 0)] * d_new * d_new
                               - decay[n_old] * d_old * d_old)
            else:
                d_old = deg[l]
                d_new = d_old + ddeg
                g = decay[nrp[l]] if redundancy else gamma
                d_null = g * d_new * d_new - g * d_old * d_old

            d_coup = 0.0
            inter = comm.inter
            if symmetric:
                for key, other, _, vint, _, penalty in (terms if dinter else own_terms):
                    d = dinter.get(other, 0)
                    if not d:
                        continue
                    n = inter.get(key, 0)
                    d_coup += (n + d) / vint * penalty - n / vint * penalty
            else:
                sizes = comm.size
                for key, other, side, vint, vs, penalty in (terms if dinter else own_terms):
                    d = dinter.get(other, 0)
                    n = inter.get(key, 0)
                    if not d and (side != l or not n):
                        continue
                    psize = sizes[side]
                    before = n / vint * vs / psize * penalty if psize else 0.0
                    if side == l:
                        psize += psize_delta
                    after = (n + d) / vint * vs / psize * penalty if psize else 0.0
                    d_coup += after - before

            dq = (ddint - d_null / norm + d_coup) / norm
            if removing:
                dq_rem = dq
                patch_rem = (dinter, dnrp)
                removing = False
            elif dq_rem + dq > best_gain:
                best_gain = dq_rem + dq
                best = (dq, cid, (dinter, dnrp))
        return dq_rem, patch_rem, best


class _MultisliceEngine(_Engine):
    """Exact gains of the multislice objective: a per-layer gamma null model
    and a constant omega per same-entity occurrence pair, the sum of the
    per-layer counts ``gather`` returns. Every candidate is scored: a
    bound like the multilayer one would read the same counts and take
    about as many operations as the gain itself."""

    def __init__(self, net, objective):
        super().__init__(net)
        self.gammas, self.two_e, self.norm, self.omega = multislice_parameters(
            net, objective.gamma, objective.omega)

    def evaluate(self, comms, unit, found, src, candidates, floor=0.0):
        """The exact objective change of moving ``unit`` out of ``src``, and
        the best move into a candidate (see ``_Engine``); every patch is
        ``_NO_PATCH``."""
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
        d_old = comms[src].deg[l]
        d_new = d_old - degsum
        d_null = gamma * (d_new * d_new - d_old * d_old) / two_e
        dq_rem = (-(2 * k_s - 2 * within) - d_null + omega2 * -pairs) / norm
        best = None
        best_gain = floor
        for cid in candidates:
            k_s, occ = found.get(cid, _UNTOUCHED)
            pairs = sum(occ.values()) if occ else 0
            d_old = comms[cid].deg[l]
            d_new = d_old + degsum
            d_null = gamma * (d_new * d_new - d_old * d_old) / two_e
            dq = (2 * (k_s + within) - d_null + omega2 * pairs) / norm
            if dq_rem + dq > best_gain:
                best_gain = dq_rem + dq
                best = (dq, cid, _NO_PATCH)
        return dq_rem, _NO_PATCH, best


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

    Each visit gathers the unit's counts once and asks the engine, in one
    call, for the removal's gain and the best move among the candidates it
    needs; the engine applies the move rule, the same for both objectives,
    and the move is made here. A unit that was evaluated and stayed put is skipped on later
    visits until one of the communities it read (its own and every
    candidate) is changed by a move; while its own community is unchanged,
    only the candidates changed since are scored. Aggregation groups the
    units by community and layer; a group of one unit is that unit, so it
    keeps its record and the skip carries across levels. Neither the skip
    nor the narrowing changes any assignment, pass count, move count or
    objective; the module docstring gives the argument.

    The reported objective is the objective's ``score`` of the final
    structure, through the scoring module, not the incremental bookkeeping.
    """
    if net.num_edges() == 0:
        raise InputError("cannot detect communities on an edgeless network")
    engine = config.objective.gain_engine(net)
    rng = random.Random(config.seed)

    ell = net.num_layers
    # layer -> entity -> community, the one store of the assignment
    where = [[None] * net.num_entities for _ in range(ell)]
    comms = {}
    # one singleton per occurrence, entity-major; its index is its community
    units = [_make_unit(net, l, (e,))
             for e in range(net.num_entities) for l in net.entity_layers_idx(e)]
    for cid, unit in enumerate(units):
        where[unit.layer][unit.entities[0]] = cid
        comms[cid] = _Comm(ell)
        engine.apply(comms[cid], unit, _NO_PATCH, 1)

    passes = 0
    moves = 0
    changed = [0] * len(units)  # community -> move count at its last change
    while passes < config.max_passes:
        # one pass of local moving at the current granularity
        passes += 1
        order = units[:]
        rng.shuffle(order)
        pass_gain = 0.0
        for unit in order:
            seen = unit.seen
            if seen is not None:
                t, read = seen
                if max(map(changed.__getitem__, read)) <= t:
                    continue  # nothing it reads has changed: it stays again
            here = where[unit.layer]
            src = here[unit.entities[0]]
            found = engine.gather(unit, where)
            if seen is None or changed[src] > t:
                candidates = sorted(found)
                if src in found:
                    candidates.remove(src)
            else:
                # its own community is as it was when it last stayed put:
                # only a candidate changed since then can win
                candidates = sorted(c for c in found if changed[c] > t)
            dq_rem, patch_rem, best = engine.evaluate(comms, unit, found, src, candidates)
            if best is None:
                # its own community and every one it touched, each once
                unit.seen = (moves, tuple(found) if src in found else (src, *found))
                continue
            dq_ins, dst, patch_ins = best
            engine.apply(comms[src], unit, patch_rem, -1)
            engine.apply(comms[dst], unit, patch_ins, 1)
            if not comms[src].flat:
                del comms[src]
            for v in unit.entities:
                here[v] = dst
            pass_gain += dq_rem + dq_ins
            moves += 1
            changed[src] = changed[dst] = moves
        if pass_gain > config.min_gain or passes == config.max_passes:
            continue
        # the pass stalled: aggregate into per-layer super-nodes of the current
        # communities; a group of one unit is that unit and keeps its record
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
    return DetectResult(structure=cs, objective=config.objective.score(net, cs),
                        passes=passes, moves=moves)


def _layer_louvain(net, layer, config) -> DetectResult:
    """Louvain on ``layer`` alone under ``config`` (modularity at gamma 1):
    a network of the layer's present entities and of its edges, whose
    entity ids are the parent's indices, declared in ascending order."""
    li = net.layer_index(layer)
    alone = build_network(layers=(layer,),
                          presence=[(layer, e) for e in sorted(net.presence_idx(li))],
                          edges=[(layer, u, v) for u, v in net.edges_idx(li)])
    return generalized_louvain(alone, config)


def aggregate_majority(net: MultilayerNetwork, config: DetectConfig) -> DetectResult:
    """Aggregation baseline: per-layer Louvain, greedy label matching by
    maximum entity overlap, then per-entity majority vote.

    Layers with an occurrence are taken in index order (a layer that only
    the ordering names holds no entity to vote), and each layer's
    communities in the order of their lowest entity. The global labels are
    the indices of the prototypes, the entities seen with each label so
    far. A layer's community goes to the free label it overlaps most (ties
    toward the lower label, then the earlier community) or else to a new
    label, and each of its entities gets one vote for that label. An entity
    takes the label with the most votes, ties toward the lower label.

    The per-layer runs are independent, so they run in up to min(layers,
    usable CPUs) forked processes (``_workers.layer_map``); their results
    are matched in layer order, so the outcome does not depend on how many
    ran at once. The matched labeling is expanded to every occurrence and
    re-scored with the objective carried by ``config``; passes and moves
    are summed over the per-layer runs.
    """
    layers = [layer for li, layer in enumerate(net.layer_ids) if net.presence_idx(li)]
    for layer in layers:
        if net.num_edges(layer) == 0:
            raise InputError(f"layer {layer!r} has no edges")
    config.objective.gain_engine(net)  # rejects bad parameters before any Louvain run

    from ._workers import layer_map  # here, so that gl detection never loads it

    layer_config = config._replace(objective=MultisliceObjective(gamma=1.0, omega=0.0))

    def run(layer):  # each community as parent entity indices, which marshal carries
        res = _layer_louvain(net, layer, layer_config)
        cs = res.structure
        return res.passes, res.moves, [tuple(cs.projection(c, layer)) for c in cs.communities()]

    proto = []  # global label -> set of entities seen with it so far
    votes = [{} for _ in range(net.num_entities)]  # entity -> global label -> layers that gave it
    passes = moves = 0
    for layer_passes, layer_moves, groups in layer_map(run, layers):
        passes += layer_passes
        moves += layer_moves
        scored = []
        for a, group in enumerate(groups):
            for g, members in enumerate(proto):
                ov = len(members.intersection(group))
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
                tally = votes[e]
                tally[g] = tally.get(g, 0) + 1

    # every entity is present in some voting layer, so every tally has a vote
    cs = CommunityStructure._from_entity_labels(
        net, [min(tally, key=lambda g: (-tally[g], g)) for tally in votes])
    return DetectResult(structure=cs, objective=config.objective.score(net, cs),
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

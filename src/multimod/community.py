"""Community structures over entity-layer pairs.

A community structure partitions every present (entity, layer) occurrence of
a network into communities. Besides the plain partition bookkeeping this
module carries the redundancy machinery: which entity pairs of a community
are connected in one layer (P1) or several layers (P2), which layers support
a pair, and the per-layer resolution factor derived from those counts.

A community is indexed by its per-layer projections alone. Its flattened
membership F, every entity with an occurrence in it, is their union; its
same-entity occurrence pairs are their overlaps summed over layer pairs.
A community's pairs are taken over F and supported by every layer linking them.
The counts come from one set-algebra pass per community, run on first use:
for each entity u of F and each layer l of u, ``s_l = adj_l(u) & F``; the
partners in two or more of those sets are u's redundant partners R. Layer
l's redundant pair count sums ``len(s_l & R)`` and the connected pair count
sums the size of the union of the ``s_l``, each halved because every pair
is seen from both ends. All counts are exact integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .errors import InputError
from .mlgraph import MultilayerNetwork, check_ids, read_utf8


def log_decay(x) -> float:
    """``2 / (1 + log2(1 + x))``, the decay of the redundancy resolution and
    of the time-aware distance penalty: 2 at 0, 1 at 1, then towards 0."""
    return 2.0 / (1.0 + math.log2(1.0 + x))


# marks an occurrence without a label in a label table; any other value,
# None included, is a label
_UNASSIGNED = object()


def _absent(entity, layer) -> InputError:
    return InputError(f"assignment references ({entity!r}, {layer!r}) but the entity "
                      f"is not present in that layer")


class CommunityStructure:
    """Immutable partition of all present entity-layer pairs.

    Community labels are normalized to dense indices 0..k-1 by first
    appearance in entity-major tuple order; empty communities disappear.
    """

    def __init__(self, net: MultilayerNetwork, assignment):
        """``assignment`` maps every present (entity, layer) pair to a label."""
        labels = [[_UNASSIGNED] * net.num_entities for _ in range(net.num_layers)]
        for (entity, layer), label in assignment.items():
            ei = net.entity_index(entity)
            li = net.layer_index(layer)
            if ei not in net.presence_idx(li):
                raise _absent(entity, layer)
            if labels[li][ei] is not _UNASSIGNED:
                raise InputError(f"duplicate assignment for ({entity!r}, {layer!r})")
            labels[li][ei] = label
        self._build(net, labels)

    @classmethod
    def _from_labels(cls, net: MultilayerNetwork, labels) -> "CommunityStructure":
        """Build from a label table: ``labels[li][ei]`` labels entity ``ei``
        in layer ``li``. Only present occurrences are read."""
        cs = cls.__new__(cls)
        cs._build(net, labels)
        return cs

    @classmethod
    def _from_entity_labels(cls, net: MultilayerNetwork, row) -> "CommunityStructure":
        """Build from one label per entity (``row[ei]``), the same in every
        layer the entity is present in."""
        for ei, label in enumerate(row):
            if label is _UNASSIGNED:
                raise InputError(f"entity {net.entity_ids[ei]!r} has no community assignment")
        return cls._from_labels(net, [row] * net.num_layers)

    def _build(self, net, labels):
        self.net = net
        dense = {}  # label -> community
        where = [[None] * net.num_entities for _ in range(net.num_layers)]
        proj = []
        for ei in range(net.num_entities):  # entity-major tuple order
            for li in net.entity_layers_idx(ei):
                label = labels[li][ei]
                c = dense.get(label)
                if c is None:
                    if label is _UNASSIGNED:
                        raise InputError(f"unassigned occurrence "
                                         f"({net.entity_ids[ei]!r}, {net.layer_ids[li]!r})")
                    c = dense[label] = len(proj)
                    proj.append({})
                where[li][ei] = c
                proj[c].setdefault(li, set()).add(ei)

        self._where = where  # layer -> entity -> community, None where absent
        self._proj = proj    # community -> layer -> set of entities
        k = len(proj)
        self._deg = [dict() for _ in range(k)]
        self._dint = [dict() for _ in range(k)]
        for c in range(k):
            for li, members in self._proj[c].items():
                adj = net.adj_idx(li)
                deg = 0
                dint = 0
                for ei in members:
                    nb = adj.get(ei, ())
                    deg += len(nb)
                    dint += len(members.intersection(nb))
                self._deg[c][li] = deg
                self._dint[c][li] = dint
        self._counts = [None] * k   # redundancy counts, on first use
        self._coupled = [None] * k  # coupled instance pairs, on first use

    @classmethod
    def from_entity_partition(cls, net: MultilayerNetwork, partition) -> "CommunityStructure":
        """Expand an entity partition to every layer where the entity is present."""
        return cls._from_entity_labels(
            net, [partition.get(entity, _UNASSIGNED) for entity in net.entity_ids])

    # -- partition accessors -------------------------------------------------

    @property
    def num_communities(self) -> int:
        return len(self._proj)

    def communities(self) -> range:
        return range(len(self._proj))

    def assignment_of(self, entity, layer) -> int:
        ei = self.net.entity_index(entity)
        c = self._where[self.net.layer_index(layer)][ei]
        if c is None:
            raise InputError(f"({entity!r}, {layer!r}) is not a present occurrence")
        return c

    def members(self, c: int) -> tuple:
        """The occurrences of ``c``, in entity-major order."""
        ids = self.net.entity_ids
        layer_ids = self.net.layer_ids
        return tuple((ids[ei], layer_ids[li])
                     for ei, li in sorted((ei, li) for li, p in self._proj[c].items() for ei in p))

    def projection(self, c: int, layer) -> frozenset:
        """Entities of community ``c`` that lay on ``layer``."""
        li = self.net.layer_index(layer)
        proj = self._proj[c].get(li, frozenset())
        return frozenset(self.net.entity_ids[ei] for ei in proj)

    def projection_size(self, c: int, layer) -> int:
        return len(self._proj[c].get(self.net.layer_index(layer), ()))

    def shared_projection_count(self, c: int, layer_a, layer_b) -> int:
        pa = self._proj[c].get(self.net.layer_index(layer_a), frozenset())
        pb = self._proj[c].get(self.net.layer_index(layer_b), frozenset())
        return len(pa & pb)

    def degree(self, c: int, layer) -> int:
        return self._deg[c].get(self.net.layer_index(layer), 0)

    def internal_degree(self, c: int, layer) -> int:
        return self._dint[c].get(self.net.layer_index(layer), 0)

    def coupled_instance_pairs(self, c: int) -> int:
        """Unordered pairs of same-entity occurrences inside community ``c``,
        its projection overlaps over its layer pairs; computed on first use."""
        pairs = self._coupled[c]
        if pairs is None:
            pairs = self._coupled[c] = sum(
                len(a & b) for a, b in combinations(self._proj[c].values(), 2))
        return pairs

    # -- redundancy machinery --------------------------------------------------

    def _walk(self, c: int):
        """For each entity ``u`` of the flattened membership of ``c``: ``u``,
        ``[(layer index, partners of u in c linked in that layer)]``, the
        partners linked in some layer and those linked in two or more."""
        net = self.net
        adj = [net.adj_idx(li) for li in range(net.num_layers)]
        flat = frozenset().union(*self._proj[c].values())
        for u in flat:
            per_layer = []
            seen = set()
            red = set()
            for li in net.entity_layers_idx(u):
                nb = adj[li].get(u)
                if nb:
                    s = flat.intersection(nb)
                    if s:
                        red |= seen & s
                        seen |= s
                        per_layer.append((li, s))
            yield u, per_layer, seen, red

    def _redundancy_counts(self, c: int) -> tuple:
        """``(per-layer redundant pair counts, connected pair count)`` of
        ``c``, computed on first use. Each pair is seen from both ends."""
        cached = self._counts[c]
        if cached is None:
            counts = [0] * self.net.num_layers
            linked = 0
            for _, per_layer, seen, red in self._walk(c):
                linked += len(seen)
                if red:
                    for li, s in per_layer:
                        counts[li] += len(s & red)
            cached = self._counts[c] = ([n // 2 for n in counts], linked // 2)
        return cached

    def redundant_pairs(self, c: int):
        """(P1, P2): entity pairs of ``c`` linked in >= 1 layer and >= 2 layers."""
        ids = self.net.entity_ids
        p1 = set()
        p2 = set()
        for u, _, seen, red in self._walk(c):
            p1.update((ids[u], ids[v]) for v in seen if u < v)
            p2.update((ids[u], ids[v]) for v in red if u < v)
        return frozenset(p1), frozenset(p2)

    def redundancy(self, c: int) -> Fraction:
        """Supporting-layer mass of the redundant pairs of ``c``, normalized by
        the layer count times the number of connected pairs; 0 when the
        community has no connected pair."""
        counts, linked = self._redundancy_counts(c)
        if not linked:
            return Fraction(0)
        return Fraction(sum(counts), self.net.num_layers * linked)

    def redundant_pair_count(self, c: int, layer) -> int:
        """Number of redundant pairs of ``c`` supported by ``layer``."""
        return self._redundancy_counts(c)[0][self.net.layer_index(layer)]

    def redundancy_resolution(self, c: int, layer) -> float:
        """Resolution factor for (layer, community) derived from redundancy.

        Equals 2 when the layer supports no redundant pair of the community
        and decays into (0, 1] as the count grows.
        """
        return log_decay(self.redundant_pair_count(c, layer))

    # -- flattening --------------------------------------------------------------

    def flatten_majority(self) -> dict:
        """Entity partition by majority vote over the entity's occurrences.

        Ties break toward the lowest community index.
        """
        out = {}
        where = self._where
        for ei in range(self.net.num_entities):
            votes = {}
            for li in self.net.entity_layers_idx(ei):
                c = where[li][ei]
                votes[c] = votes.get(c, 0) + 1
            best = min(votes, key=lambda c: (-votes[c], c))
            out[self.net.entity_ids[ei]] = best
        return out

    def as_assignment(self) -> dict:
        """Plain {(entity, layer): community} mapping, in entity-major order."""
        net = self.net
        return {(net.entity_ids[ei], net.layer_ids[li]): self._where[li][ei]
                for ei in range(net.num_entities) for li in net.entity_layers_idx(ei)}


# -- community file format -------------------------------------------------------
#
# One record per line. Extended form: "u L c" assigns entity u in layer L to
# community c. Flattened form: "u c" assigns every occurrence of u to c.
# The two forms must not be mixed in one file; '#' starts a comment.


def read_communities(net: MultilayerNetwork, path) -> CommunityStructure:
    """Read a community file in one pass, straight into the structure's
    label table. A malformed or inconsistent line is an :class:`InputError`
    that names it; then, in an extended file, the first record of an
    absent occurrence, and the first present occurrence without a record
    in entity-major order; in a flattened file, the first entity without
    a record."""
    text = read_utf8(path)
    extended = None  # "u L c" records: layer -> entity -> label
    flat = None      # "u c" records: entity -> label
    absent = None    # the first extended record of an absent occurrence
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if len(tokens) == 3:
            if flat is not None:
                raise InputError(f"line {lineno}: extended record in a flattened file")
            entity, layer, label = tokens
            try:
                ei = net.entity_index(entity)
                li = net.layer_index(layer)
            except KeyError as exc:
                raise InputError(f"line {lineno}: {exc.args[0]}") from None
            if extended is None:
                extended = [[_UNASSIGNED] * net.num_entities for _ in range(net.num_layers)]
            row = extended[li]
            if row[ei] is not _UNASSIGNED:
                raise InputError(f"line {lineno}: duplicate assignment for ({entity}, {layer})")
            row[ei] = label
            if absent is None and ei not in net.presence_idx(li):
                absent = (ei, li)
        elif len(tokens) == 2:
            if extended is not None:
                raise InputError(f"line {lineno}: flattened record in an extended file")
            entity, label = tokens
            try:
                ei = net.entity_index(entity)
            except KeyError as exc:
                raise InputError(f"line {lineno}: {exc.args[0]}") from None
            if flat is None:
                flat = [_UNASSIGNED] * net.num_entities
            if flat[ei] is not _UNASSIGNED:
                raise InputError(f"line {lineno}: duplicate assignment for {entity}")
            flat[ei] = label
        elif tokens:
            raise InputError(f"line {lineno}: expected 2 or 3 tokens")
    if extended is not None:
        if absent is not None:
            raise _absent(net.entity_ids[absent[0]], net.layer_ids[absent[1]])
        return CommunityStructure._from_labels(net, extended)
    if flat is not None:
        return CommunityStructure._from_entity_labels(net, flat)
    raise InputError("community file is empty")


def write_communities(cs: CommunityStructure, path) -> None:
    """Write the extended (per occurrence) community file; an id the format
    cannot hold is an :class:`InputError`."""
    check_ids(cs.net.entity_ids, "entity")
    check_ids(cs.net.layer_ids, "layer")
    lines = [f"{entity} {layer} {c}" for (entity, layer), c in cs.as_assignment().items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_flat_partition(partition: dict, path) -> None:
    """Write a flattened community file from an entity partition; an id or
    label the format cannot hold is an :class:`InputError`."""
    check_ids(partition, "entity")
    check_ids(dict.fromkeys(partition.values()), "community")
    lines = [f"{entity} {partition[entity]}" for entity in sorted(partition, key=str)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

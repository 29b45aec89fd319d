"""Immutable multilayer network model.

A multilayer network couples one shared entity set across several layers.
Each layer carries its own presence set and its own undirected, unweighted
intra-layer edges. Inter-layer links are implicit: an entity present in two
layers couples those layers through its two occurrences. Entities may be
present in a layer without any incident edge there (declared presence).

Networks are immutable once built; every query below is a pure function of
the network and safe to call concurrently.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from enum import Enum
from itertools import chain
from pathlib import Path

from .errors import InputError


def _record(typename, field_names):
    """The named-tuple base of the immutable record class ``typename``.

    A subclass with defaults or checks states them in its ``__new__``. The
    base's ``_make``, and so ``_replace``, goes through that constructor, so
    a replaced field is checked as a constructed one is.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def _nonnegative(value) -> bool:
    """Whether ``value`` is a finite real number >= 0; a bool is a flag, not a number."""
    try:
        return not isinstance(value, bool) and math.isfinite(value) and value >= 0
    except (TypeError, ValueError, OverflowError):  # no number, a signalling NaN, too large
        return False


class PairingScheme(Enum):
    """Which layer pairs may couple when the layers are naturally ordered."""

    ADJACENT = "adjacent"  # each layer pairs with its immediate successor
    PAIRWISE = "pairwise"  # each layer pairs with every later layer


class LayerOrdering(_record("LayerOrdering", "sequence scheme time_aware")):
    """Optional natural order over the layers plus the pairing constraint.

    ``sequence is None`` means the layers are unordered and every layer pairs
    with every other one. A natural ordering is held as a tuple of distinct,
    hashable layer ids (not a string) and needs a pairing scheme;
    ``time_aware`` additionally requires a natural ordering.
    """

    __slots__ = ()

    def __new__(cls, sequence: tuple | None = None, scheme: PairingScheme | None = None,
                time_aware: bool = False):
        if not isinstance(time_aware, bool):
            raise InputError(f"time_aware must be a bool, not {time_aware!r}")
        if sequence is None:
            if scheme is not None or time_aware:
                raise InputError("unordered layers admit no pairing scheme or time-awareness")
        else:
            try:
                if isinstance(sequence, str):  # it would iterate as its characters
                    raise TypeError
                sequence = tuple(sequence)
                distinct = len(set(sequence))
            except TypeError:  # a string, not iterable, or an unhashable layer id
                raise InputError(f"a layer ordering must be a sequence of hashable layer "
                                 f"ids, not {sequence!r}") from None
            if distinct != len(sequence):
                raise InputError("layer ordering contains duplicates")
            if not isinstance(scheme, PairingScheme):
                raise InputError(f"a natural layer ordering requires a pairing scheme, "
                                 f"not {scheme!r}")
        return super().__new__(cls, sequence, scheme, time_aware)

    @classmethod
    def unordered(cls) -> "LayerOrdering":
        return cls()

    @classmethod
    def natural(cls, sequence, scheme: PairingScheme = PairingScheme.ADJACENT,
                time_aware: bool = False) -> "LayerOrdering":
        return cls(sequence, scheme, time_aware)

    @property
    def is_natural(self) -> bool:
        return self.sequence is not None


class LayerStats(_record("LayerStats",
                         "degree_mean degree_std avg_path_length clustering_coefficient")):
    """Single-layer structural summary."""

    __slots__ = ()


class MultilayerNetwork:
    """Entities, layers, per-layer presence and adjacency, optional ordering.

    Use :func:`build_network` or :func:`read_network` to construct instances;
    the constructor is internal.
    """

    def __init__(self, entity_index, layer_ids, presence, adj, edge_counts, entity_layers,
                 ordering):
        self._entity_ids = tuple(entity_index)
        self._entity_index = entity_index  # entity id -> dense index, kept as given
        self._layer_ids = layer_ids
        self._layer_index = {l: i for i, l in enumerate(layer_ids)}
        self._presence = presence          # per layer: frozenset of entity indices
        self._adj = adj                    # per layer: dict idx -> ascending tuple of idx
        self._edge_counts = edge_counts    # per layer: number of edges
        self._entity_layers = entity_layers  # per entity: ascending tuple of layer indices
        self._shared = {}                  # (a, b) a <= b -> shared entity count, on demand
        self.ordering = ordering

    # -- basic accessors ---------------------------------------------------

    @property
    def entity_ids(self) -> tuple:
        return self._entity_ids

    @property
    def layer_ids(self) -> tuple:
        return self._layer_ids

    @property
    def num_entities(self) -> int:
        return len(self._entity_ids)

    @property
    def num_layers(self) -> int:
        return len(self._layer_ids)

    def entity_index(self, entity) -> int:
        try:
            return self._entity_index[entity]
        except KeyError:
            raise KeyError(f"unknown entity {entity!r}") from None

    def layer_index(self, layer) -> int:
        try:
            return self._layer_index[layer]
        except KeyError:
            raise KeyError(f"unknown layer {layer!r}") from None

    def num_edges(self, layer=None) -> int:
        if layer is None:
            return sum(self._edge_counts)
        return self._edge_counts[self.layer_index(layer)]

    def num_tuples(self) -> int:
        return sum(len(ls) for ls in self._entity_layers)

    # index-level accessors used by the scoring and detection modules
    def presence_idx(self, li: int) -> frozenset:
        return self._presence[li]

    def adj_idx(self, li: int) -> dict:
        """The layer's adjacency: every entity with an edge in the layer,
        in ascending index order, mapped to the strictly ascending tuple of
        its neighbours' indices."""
        return self._adj[li]

    def edges_idx(self, li: int) -> tuple:
        """The layer's edges as sorted ``(u, v)`` index pairs with ``u < v``.
        Derived from the adjacency on every call; count with ``num_edges``."""
        return tuple((u, v) for u, nb in self._adj[li].items() for v in nb if u < v)

    def entity_layers_idx(self, ei: int) -> tuple:
        """The indices of the layers entity ``ei`` is present in, ascending."""
        return self._entity_layers[ei]

    def partner_layers_idx(self, ei: int) -> dict:
        """Every entity linked to ``ei`` in some layer, mapped to the ascending
        list of layer indices that link the pair. Computed on demand."""
        out = {}
        for li in self._entity_layers[ei]:
            for u in self._adj[li].get(ei, ()):
                out.setdefault(u, []).append(li)
        return out

    # -- pairing queries ----------------------------------------------------

    def valid_pairings(self, layer) -> list:
        """Layers that ``layer`` may couple with under the network's ordering,
        in deterministic order.

        Unordered: every other layer. Natural order with the adjacent scheme:
        the immediate successor only. Natural order with the pair-wise scheme:
        all strict successors.
        """
        li = self.layer_index(layer)
        if not self.ordering.is_natural:
            return [l for l in self._layer_ids if l != layer]
        # a natural ordering is the dense layer order (see build_network)
        stop = li + 2 if self.ordering.scheme is PairingScheme.ADJACENT else None
        return list(self._layer_ids[li + 1:stop])

    def shared_entity_count(self, layer_a, layer_b) -> int:
        return self.shared_count_idx(self.layer_index(layer_a), self.layer_index(layer_b))

    def shared_count_idx(self, ia: int, ib: int) -> int:
        """Entities present in both layers; computed once per layer pair."""
        key = (ia, ib) if ia <= ib else (ib, ia)
        count = self._shared.get(key)
        if count is None:
            count = self._shared[key] = len(self._presence[ia] & self._presence[ib])
        return count

    # -- dataset statistics --------------------------------------------------

    def node_coverage(self) -> float:
        """Mean over layers of the fraction of entities present in the layer."""
        if self.num_entities == 0:
            raise InputError("network has no entities")
        n = self.num_entities
        return sum(len(p) / n for p in self._presence) / self.num_layers

    def edge_coverage(self) -> float:
        """Mean over layers of the layer's share of all edges (1/num_layers)."""
        m = self.num_edges()
        if m == 0:
            raise InputError("network has no edges")
        return sum(count / m for count in self._edge_counts) / self.num_layers

    def monoplex_stats(self, layer) -> LayerStats:
        """Degree mean/std (population), average shortest-path length over
        connected pairs, and mean local clustering coefficient for one layer.

        Nodes of degree < 2 contribute 0 to clustering; with no connected pair
        the average path length is reported as 0.0, and a layer with no
        present entity reports 0.0 for every field.
        """
        import statistics  # here, so that loading a network does not import it

        li = self.layer_index(layer)
        nodes = sorted(self._presence[li])
        if not nodes:
            return LayerStats(0.0, 0.0, 0.0, 0.0)
        adj = self._adj[li]
        degrees = [len(adj.get(v, ())) for v in nodes]
        return LayerStats(
            degree_mean=statistics.fmean(degrees),
            degree_std=statistics.pstdev(degrees),
            avg_path_length=_avg_path_length(adj, nodes),
            clustering_coefficient=_mean_clustering(adj, nodes),
        )


# Sources per bit-parallel BFS block: each node holds one int of this many
# bits, about 512 bytes per node, where one block over all sources would need
# n * n / 8 bytes.
_SOURCE_BLOCK = 4096


def _avg_path_length(adj, nodes) -> float:
    """Mean shortest-path length over connected ordered pairs.

    All sources of a block advance together (multi-source BFS, Then et al.,
    PVLDB 8(4), 2014): bit ``s`` of ``reach[v]`` says that source ``s`` is
    within the current number of hops of ``v``. Each level ORs the bits a
    neighbour gained at the previous level into ``v``; only neighbours of
    nodes that gained bits are visited. Every count is an exact integer, so
    the result equals a per-source BFS.
    """
    index = {v: i for i, v in enumerate(nodes)}
    nbrs = [[index[u] for u in adj.get(v, ())] for v in nodes]
    n = len(nodes)
    total = 0
    pairs = 0
    for lo in range(0, n, _SOURCE_BLOCK):
        hi = min(lo + _SOURCE_BLOCK, n)
        reach = [0] * n
        gained = {}  # node -> source bits first reached at the current level
        for s in range(lo, hi):
            reach[s] = gained[s] = 1 << (s - lo)
        d = 0
        while gained:
            d += 1
            offered = {}
            for v, bits in gained.items():
                for u in nbrs[v]:
                    offered[u] = offered.get(u, 0) | bits
            gained = {}
            for u, bits in offered.items():
                bits &= ~reach[u]
                if bits:
                    reach[u] |= bits
                    gained[u] = bits
                    total += d * bits.bit_count()
        pairs += sum(r.bit_count() for r in reach) - (hi - lo)
    return total / pairs if pairs else 0.0


def _mean_clustering(adj, nodes) -> float:
    """Mean local clustering coefficient over ``nodes``.

    A node's links (edges among its neighbours) are its triangles. Each
    triangle ``a < b < c`` is found once, as ``c`` in the later neighbours
    of both ``a`` and ``b``, and counted at all three nodes; the later
    neighbours are a suffix of each ascending neighbour tuple.
    """
    import statistics

    later = {v: set(nb[bisect_right(nb, v):]) for v, nb in adj.items()}
    links = dict.fromkeys(adj, 0)
    for a, after_a in later.items():
        for b in after_a:
            for c in after_a & later[b]:
                links[a] += 1
                links[b] += 1
                links[c] += 1
    values = []
    for v in nodes:
        k = len(adj.get(v, ()))
        values.append(2 * links[v] / (k * (k - 1)) if k >= 2 else 0.0)
    return statistics.fmean(values)


def _layer_sequence(layers, ordering: LayerOrdering) -> tuple:
    """The dense layer order: the distinct declared ``layers``, or the
    natural ordering's sequence, which must be a permutation of them."""
    if not layers:
        raise InputError("a multilayer network needs at least one layer")
    if ordering.is_natural:
        if set(ordering.sequence) != set(layers):
            raise InputError("layer ordering is not a permutation of the declared layers")
        return ordering.sequence
    return tuple(layers)


# flat edge entries (three per edge) that _assemble scatters, then frees, at a time
_SCATTER = 3 * 4096


def _assemble(entity_index, layer_ids, presence, edges, ordering) -> MultilayerNetwork:
    """The network over dense indices, from edges that hold no self-loop;
    ``build_network`` and ``read_network`` refuse self-loops where they
    read their records, then end here.

    ``entity_index`` maps each entity id to its index and becomes the
    network's own. ``presence`` is a flat ``[layer, entity, ...]`` list of
    declared occurrences and ``edges`` a flat ``[layer, u, v, ...]`` list,
    both in indices and in declaration order; ``edges`` is emptied as it is
    read, so callers pass a list of their own. Duplicate edges collapse. An
    entity present in no layer is an :class:`InputError`. Each node's
    neighbours are gathered in a list, then stored as a sorted tuple without
    duplicates, one layer at a time.
    """
    ids = tuple(entity_index)
    present = [set() for _ in layer_ids]
    lists = [defaultdict(list) for _ in layer_ids]
    it = iter(presence)
    for li, e in zip(it, it):
        present[li].add(e)
    while edges:
        # scattered from the end, a slice at a time, each deleted once read,
        # so the flat list shrinks while the neighbour lists grow. An
        # iterator set to the slice's start reads it without a copy
        start = max(0, len(edges) - _SCATTER)
        it = iter(edges)
        it.__setstate__(start)
        for li, u, v in zip(it, it, it):
            a = lists[li]
            a[u].append(v)
            a[v].append(u)
        del edges[start:]

    adj = []
    edge_counts = []
    for li, p in enumerate(present):
        # a layer's lists go once its tuples are built
        a = lists[li]
        lists[li] = None
        p.update(a)  # every edge endpoint is present
        adj.append({u: tuple(sorted(set(a[u]))) for u in sorted(a)})
        edge_counts.append(sum(map(len, adj[li].values())) // 2)
    del a

    entity_layers = [[] for _ in ids]
    for li, p in enumerate(present):
        for ei in p:
            entity_layers[ei].append(li)
    for ei, ls in enumerate(entity_layers):
        if not ls:
            raise InputError(f"entity {ids[ei]!r} is not present in any layer")

    return MultilayerNetwork(
        entity_index=entity_index,
        layer_ids=tuple(layer_ids),
        presence=tuple(frozenset(p) for p in present),
        adj=tuple(adj),
        edge_counts=tuple(edge_counts),
        entity_layers=tuple(map(tuple, entity_layers)),
        ordering=ordering,
    )


def build_network(entities=(), layers=(), edges=(), ordering: LayerOrdering = LayerOrdering(),
                  presence=()) -> MultilayerNetwork:
    """Assemble a normalized, deduplicated multilayer network.

    Args:
        entities: optional upfront entity declarations (ids, any hashable).
        layers: layer ids in declaration order; duplicates are an error.
        edges: iterable of (layer, u, v) intra-layer edges; endpoints register
            the entities; duplicates collapse; self-loops are rejected.
        ordering: a LayerOrdering, unordered by default; a natural ordering
            must be a permutation of the layers and fixes the dense layer
            indexing. Anything else is an :class:`InputError`.
        presence: iterable of (layer, entity) declaring presence without edges.

    Entities are indexed in first-seen order: declared, then by presence,
    then by edge. Every entity must end up present in at least one layer.
    """
    layer_list = list(layers)
    if len(set(layer_list)) != len(layer_list):
        raise InputError("duplicate layer id in layer declaration")
    if not isinstance(ordering, LayerOrdering):
        raise InputError(f"expected a LayerOrdering, not {ordering!r}")
    layer_ids = _layer_sequence(layer_list, ordering)
    layer_index = {l: i for i, l in enumerate(layer_ids)}

    # entity id -> dense index, in first-seen order; setdefault interns with one lookup
    entity_index = {}
    intern = entity_index.setdefault
    for e in entities:
        intern(e, len(entity_index))
    flat_presence = []
    for layer, entity in presence:
        li = layer_index.get(layer)
        if li is None:
            raise InputError(f"presence declaration references unknown layer {layer!r}")
        flat_presence += (li, intern(entity, len(entity_index)))
    flat_edges = []
    for layer, u, v in edges:
        li = layer_index.get(layer)
        if li is None:
            raise InputError(f"edge ({u!r}, {v!r}) references unknown layer {layer!r}")
        ui = intern(u, len(entity_index))
        vi = intern(v, len(entity_index))
        if ui == vi:  # here, so that it comes before a later edge's unknown layer
            raise InputError(f"self-loop on {u!r} in layer {layer!r}")
        flat_edges += (li, ui, vi)
    return _assemble(entity_index, layer_ids, flat_presence, flat_edges, ordering)


# -- edge-list text format ----------------------------------------------------
#
# One record per line, whitespace separated:
#   L u v            intra-layer edge between entities u and v in layer L
#   %presence L u    entity u is present in layer L without requiring an edge
#   %order L1 L2 ..  natural order over all layers (at most once)
#   # ...            comment, also allowed after a record
# Identifiers are arbitrary non-whitespace tokens without '#'; a layer id
# does not start with '%'. Files are UTF-8; a leading byte-order mark is skipped.

_UNWRITABLE = re.compile(r"[\s#]")  # \s: every character str.split() splits on


def read_utf8(path) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark; other
    bytes are an :class:`InputError` that names the first bad byte's offset
    in the file. The readers call it only to report such a byte."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return text.removeprefix("\ufeff")


# Characters read at a time by _lines, before the rest of the line
_CHUNK = 1 << 16


@contextmanager
def _lines(path):
    """The lines of a UTF-8 file as ``(lineno, line)`` pairs, those of
    ``enumerate(read_utf8(path).splitlines(), start=1)``. The text reader
    reads blocks of about ``_CHUNK`` characters, each completed to the end
    of its line by ``readline``, so the whole text never exists at once and
    no line or CRLF is split. A bad byte anywhere in the file is reported as
    :func:`read_utf8` reports it, before any :class:`InputError` raised
    while the lines are read; the file is closed on every exit."""
    def blocks():  # the lines in lists, which chain hands out one by one
        with open(path, encoding="utf-8-sig", newline="") as handle:
            while text := handle.read(_CHUNK):
                yield (text + handle.readline()).splitlines()

    source = blocks()
    try:
        yield enumerate(chain.from_iterable(source), start=1)
    except (InputError, UnicodeDecodeError):
        read_utf8(path)  # raises when the file holds a bad byte
        raise
    finally:
        source.close()


def check_ids(ids, kind: str, leads_record: bool = False) -> None:
    """Raise :class:`InputError` for one of the distinct ``ids`` that the
    text formats would not read back as written: empty, holding whitespace
    or '#', written as the same token as another id (1 and '1'), or, when it
    is a record's first token (``leads_record``), starting with '%'."""
    written = set()
    for x in ids:
        text = str(x)
        if not text or _UNWRITABLE.search(text) or (leads_record and text.startswith("%")):
            rule = "a nonempty token without whitespace or '#'"
            if leads_record:
                rule += ", not starting with '%'"
            raise InputError(f"cannot write {kind} id {x!r}: it must be {rule}")
        if text in written:
            raise InputError(f"cannot write {kind} id {x!r}: another {kind} id "
                             f"is also written as {text!r}")
        written.add(text)


def _parse_indices(lines) -> tuple:
    """One pass over ``(lineno, line)`` pairs of edge-list text, straight into indices.

    Returns ``(entities, layers, presence, edges, order, loop)``.
    ``entities`` and ``layers`` map each id to an index, in order of first
    mention. ``presence`` is a flat ``[layer, entity, ...]`` list of the
    ``%presence`` records and ``edges`` a flat ``[layer, u, v, ...]`` list of
    the edge records, both in file order, duplicates and self-loops kept.
    ``order`` is the ``%order`` sequence, or None, and ``loop`` the refusal
    of the first self-loop, or None. A malformed line, a second
    ``%order``, an ``%order`` naming a layer twice, or a directive naming a
    layer id that starts with '%', is an :class:`InputError` that names the
    line.
    """
    entities = {}
    layers = {}
    presence = []
    edges = []
    append = edges.append
    order = None
    loop = None
    for lineno, line in lines:
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head[0] != "%":
            if len(tokens) != 3:
                raise InputError(f"line {lineno}: expected 3 tokens")
            _, u, v = tokens
            try:  # most ids are known already
                li = layers[head]
                ui = entities[u]
                vi = entities[v]
            except KeyError:
                li = layers.setdefault(head, len(layers))
                ui = entities.setdefault(u, len(entities))
                vi = entities.setdefault(v, len(entities))
            if ui == vi and loop is None:
                loop = f"self-loop on {u!r} in layer {head!r}"
            append(li)
            append(ui)
            append(vi)
        elif head == "%order":
            if order is not None:
                raise InputError(f"line {lineno}: duplicate %order directive")
            if len(tokens) < 2:
                raise InputError(f"line {lineno}: %order needs at least one layer")
            order = tuple(tokens[1:])
            if len(set(order)) != len(order):
                raise InputError(f"line {lineno}: %order names a layer twice")
            for layer in order:
                if layer[0] == "%":
                    raise InputError(f"line {lineno}: layer id {layer!r} starts with '%'")
                layers.setdefault(layer, len(layers))
        elif head == "%presence":
            if len(tokens) != 3:
                raise InputError(f"line {lineno}: %presence expects 'L u'")
            _, layer, u = tokens
            if layer[0] == "%":
                raise InputError(f"line {lineno}: layer id {layer!r} starts with '%'")
            presence += (layers.setdefault(layer, len(layers)),
                         entities.setdefault(u, len(entities)))
        else:
            raise InputError(f"line {lineno}: unknown directive {head!r}")
    return entities, layers, presence, edges, order, loop


def parse_network_text(text: str):
    """Parse edge-list text into (layers, edges, presences, order or None):
    the layer ids in order of first mention, and the ``(layer, u, v)`` edge
    and ``(layer, entity)`` presence records in file order. ``read_network``
    reads the same records into indices instead."""
    entities, layers, presence, edges, order, _ = _parse_indices(
        enumerate(text.splitlines(), start=1))
    ids = tuple(entities)
    names = tuple(layers)
    it = iter(edges)
    edges = [(names[li], ids[u], ids[v]) for li, u, v in zip(it, it, it)]
    it = iter(presence)
    return list(names), edges, [(names[li], ids[e]) for li, e in zip(it, it)], order


def _presence_first(entities, presence, edges) -> dict:
    """Renumber the parsed entities in ``build_network``'s order, ``%presence``
    records before edges, whatever the order of the lines: ``presence`` and
    ``edges`` are rewritten in place and the new entity index is returned."""
    declared = dict.fromkeys(presence[1::2])
    if all(i == e for i, e in enumerate(declared)):
        return entities  # already in that order
    order = [*declared, *(e for e in range(len(entities)) if e not in declared)]
    new = [0] * len(order)
    for i, e in enumerate(order):
        new[e] = i
    presence[1::2] = [new[e] for e in presence[1::2]]
    edges[1::3] = [new[u] for u in edges[1::3]]
    edges[2::3] = [new[v] for v in edges[2::3]]
    ids = tuple(entities)
    return {ids[e]: i for i, e in enumerate(order)}


def read_network(path, ordering_mode: str = "auto", time_aware: bool = False) -> MultilayerNetwork:
    """Read a network file.

    ordering_mode selects the LayerOrdering:
      "auto"              natural adjacent order when the file has %order,
                          otherwise unordered
      "none"              unordered, even if the file declares %order
      "natural-adjacent"  natural order (the %order sequence, or declaration
                          order when absent) with adjacent pairing
      "natural-pairwise"  same with pair-wise pairing

    The file is read in chunks, never whole, and parsed in one pass into
    indices (``_parse_indices``), then assembled from them, with
    ``build_network``'s entity order, layer order and errors. A bad byte
    anywhere in the file is reported before any malformed line, and the
    ordering's errors before the first self-loop. The mode picks the
    sequence and scheme, and :class:`LayerOrdering` checks them with ``time_aware``.
    """
    with _lines(path) as lines:
        entities, layers, presence, edges, order, loop = _parse_indices(lines)
    if ordering_mode == "auto":
        ordering_mode = "natural-adjacent" if order is not None else "none"
    if ordering_mode == "none":
        sequence = scheme = None
    elif ordering_mode in ("natural-adjacent", "natural-pairwise"):
        sequence = order if order is not None else tuple(layers)
        scheme = PairingScheme(ordering_mode.removeprefix("natural-"))
    else:
        raise InputError(f"unknown ordering mode {ordering_mode!r}")
    ordering = LayerOrdering(sequence, scheme, time_aware)
    layer_ids = _layer_sequence(tuple(layers), ordering)
    if loop is not None:
        raise InputError(loop)
    if layer_ids != tuple(layers):  # a natural ordering renumbers the layers
        position = {l: i for i, l in enumerate(layer_ids)}
        new = [position[l] for l in layers]
        presence[0::2] = [new[li] for li in presence[0::2]]
        edges[0::3] = [new[li] for li in edges[0::3]]
    entities = _presence_first(entities, presence, edges)
    return _assemble(entities, layer_ids, presence, edges, ordering)


def write_network(net: MultilayerNetwork, path) -> None:
    """Write a network in the edge-list format; reading it back gives the
    same ids, layer order, presences and edges. Each layer's presence lines
    come before its edges, so layers are first mentioned in index order. An
    id the format cannot hold, or a layer with no occurrence in an unordered
    network (only ``%order`` names such a layer), is an :class:`InputError`,
    and nothing is written."""
    check_ids(net.layer_ids, "layer", leads_record=True)
    check_ids(net.entity_ids, "entity")
    if not net.ordering.is_natural:
        for li, layer in enumerate(net.layer_ids):
            if not net.presence_idx(li):
                raise InputError(f"cannot write layer {layer!r}: it has no occurrence, "
                                 f"and only a natural ordering keeps such a layer")
    lines = []
    if net.ordering.is_natural:
        lines.append("%order " + " ".join(str(l) for l in net.ordering.sequence))
    for li, layer in enumerate(net.layer_ids):
        adj = net.adj_idx(li)
        for ei in sorted(net.presence_idx(li)):
            if not adj.get(ei):
                lines.append(f"%presence {layer} {net.entity_ids[ei]}")
        for u, v in net.edges_idx(li):
            lines.append(f"{layer} {net.entity_ids[u]} {net.entity_ids[v]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

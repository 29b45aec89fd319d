"""Quality functions for single-layer and multilayer community structures.

Three scores live here; each takes the network and a
:class:`CommunityStructure` and reads each community's degree and internal
degree per layer from the structure. ``newman_modularity`` is the classic
measure on a single-layer network. ``multislice_modularity`` couples the
occurrences of an entity across every unordered layer pair with a constant
weight and keeps a layer-local null model. ``multilayer_modularity``
normalizes globally, lets the resolution factor vary per layer and
community, and scores the inter-layer couplings through community
projections, optionally restricted and penalized by a natural layer
ordering. The ordering is the network's
(``net.ordering``); no score takes another. Which layer pairs couple, the
projection each asymmetric coupling is rescaled by, the penalties, the
natural-ordering check and the normalization they imply are decided once,
in :func:`coupling_plan`, which the multilayer gain engine reads as well.
The scorer values each planned coupling with the public
:func:`symmetric_coupling` or :func:`asymmetric_coupling`, times the
planned penalty, so the paper's coupling formula is written once: a
time-aware term is the asymmetric value times :func:`distance_penalty` of
the layers' distance. Only the gain engine and the normalization read the
plan's shared and size counts.

Projection-based coupling values are returned as exact rationals; the
composite scores are floats accumulated with ``math.fsum`` in a fixed order
(community index, then layer index), so results are bit-reproducible.
"""

from __future__ import annotations

import math

from .community import CommunityStructure, log_decay
from .errors import InputError, PolicyError
from .mlgraph import MultilayerNetwork, _nonnegative, _record


class ResolutionPolicy(_record("ResolutionPolicy", "kind gamma")):
    """Null-model multiplier: a constant, or derived from community redundancy."""

    __slots__ = ()

    def __new__(cls, kind: str, gamma: float = 1.0):  # kind: "constant" | "redundancy"
        if kind not in ("constant", "redundancy"):
            raise PolicyError(f"unknown resolution policy {kind!r}")
        if not _nonnegative(gamma):
            raise PolicyError(f"{kind} resolution requires a finite gamma >= 0")
        return super().__new__(cls, kind, float(gamma))

    @classmethod
    def constant(cls, gamma: float = 1.0) -> "ResolutionPolicy":
        return cls("constant", gamma)

    @classmethod
    def redundancy(cls) -> "ResolutionPolicy":
        return cls("redundancy")

    def value(self, cs: CommunityStructure, c: int, layer) -> float:
        if self.kind == "constant":
            return self.gamma
        return cs.redundancy_resolution(c, layer)


class CouplingPolicy(_record("CouplingPolicy", "kind time_aware")):
    """Inter-layer coupling selector; ``none`` switches the coupling term off."""

    __slots__ = ()

    # kind: "none" | "symmetric" | "asym-inner" | "asym-outer"
    def __new__(cls, kind: str, time_aware: bool = False):
        if kind not in ("none", "symmetric", "asym-inner", "asym-outer"):
            raise PolicyError(f"unknown coupling policy {kind!r}")
        if not isinstance(time_aware, bool):
            raise PolicyError(f"time_aware must be a bool, not {time_aware!r}")
        if time_aware and kind not in ("asym-inner", "asym-outer"):
            raise PolicyError("time-aware coupling requires an asymmetric policy")
        return super().__new__(cls, kind, time_aware)

    @classmethod
    def none(cls) -> "CouplingPolicy":
        return cls("none")

    @classmethod
    def symmetric(cls) -> "CouplingPolicy":
        return cls("symmetric")

    @classmethod
    def asym_inner(cls, time_aware: bool = False) -> "CouplingPolicy":
        return cls("asym-inner", time_aware)

    @classmethod
    def asym_outer(cls, time_aware: bool = False) -> "CouplingPolicy":
        return cls("asym-outer", time_aware)

    @property
    def beta(self) -> int:
        return 0 if self.kind == "none" else 1


class ScoreTerm(_record("ScoreTerm", "community layer intra null_model coupling")):
    """Raw (un-normalized) contribution of one community in one layer."""

    __slots__ = ()


class ScoreReport(_record("ScoreReport", "total normalization terms policy")):
    """Decomposed multilayer modularity value.

    ``total`` is the fsum over communities, in index order, of each
    community's fsum of ``intra - null_model + coupling`` over its
    ``terms``, divided by ``normalization``: the TSV and JSON rows add up
    to it exactly.
    """

    __slots__ = ()

    def __new__(cls, total: float, normalization: int, terms: tuple = (),
                policy: dict | None = None):
        # None, not {}: a default dict would be one dict shared by every report
        return super().__new__(cls, total, normalization, terms,
                               {} if policy is None else policy)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "normalization": self.normalization,
            "policy": dict(self.policy),
            "terms": [
                {"community": t.community, "layer": str(t.layer), "intra": t.intra,
                 "null_model": t.null_model, "coupling": t.coupling}
                for t in self.terms
            ],
        }

    def to_tsv(self) -> str:
        lines = ["community\tlayer\tintra\tnull_model\tcoupling"]
        for t in self.terms:
            lines.append(f"{t.community}\t{t.layer}\t{t.intra!r}\t{t.null_model!r}\t{t.coupling!r}")
        return "\n".join(lines) + "\n"


# -- classic modularity ---------------------------------------------------------


def _check_structure(net: MultilayerNetwork, cs: CommunityStructure) -> None:
    """Refuse a structure built on another network: a score reads both, by
    index, and an equal network is not enough."""
    if cs.net is not net:
        raise InputError("the community structure was built on another network")


def newman_modularity(net: MultilayerNetwork, cs: CommunityStructure) -> float:
    """Classic modularity (Newman & Girvan 2004) of ``cs`` on a single-layer
    network, from each community's degree and internal degree."""
    _check_structure(net, cs)
    if net.num_layers != 1:
        raise PolicyError("the newman objective requires a single-layer network")
    layer = net.layer_ids[0]
    two_m = 2 * net.num_edges(layer)
    if two_m == 0:
        raise InputError("modularity is undefined on an edgeless graph")
    return math.fsum(cs.internal_degree(c, layer) / two_m - (cs.degree(c, layer) / two_m) ** 2
                     for c in cs.communities())


# -- multislice modularity --------------------------------------------------------


def _finite(total: float, name: str) -> float:
    """``total``, unless a parameter so large overflowed it: a PolicyError."""
    if not math.isfinite(total):
        raise PolicyError(f"{name} modularity is not finite ({total!r}); a parameter is too large")
    return total


def _check_multislice_values(gamma, omega) -> tuple:
    """Reject a gamma (a scalar, or a list or tuple of values per layer) or an
    omega that is not a finite number >= 0, the checks that need no network;
    return both as floats, a per-layer gamma as a tuple."""
    per_layer = isinstance(gamma, (list, tuple))
    if not all(_nonnegative(g) for g in (gamma if per_layer else (gamma,))):
        raise PolicyError("gamma must be a finite number >= 0")
    if not _nonnegative(omega):
        raise PolicyError("omega must be a finite number >= 0")
    return (tuple(map(float, gamma)) if per_layer else float(gamma)), float(omega)


def multislice_parameters(net: MultilayerNetwork, gamma, omega: float):
    """Validate multislice parameters against ``net``.

    Returns the per-layer gamma list (a scalar is broadcast), each layer's
    ``2 m_l``, the normalization and omega as a float. The normalization is
    twice the edge count plus twice omega times the same-entity occurrence
    pairs, sum_e C(L_e, 2), counted as the shared entities of the unordered
    layer pairs. Each layer uses its own
    null model, so any layer that contains assigned occurrences but no edges
    is an error, and so is a zero normalization (a network with no edge).
    """
    gamma, omega = _check_multislice_values(gamma, omega)
    ell = net.num_layers
    gammas = list(gamma) if isinstance(gamma, tuple) else [gamma] * ell
    if len(gammas) != ell:
        raise PolicyError(f"expected {ell} per-layer gamma values, got {len(gammas)}")
    for li, layer in enumerate(net.layer_ids):
        if net.presence_idx(li) and not net.num_edges(layer):
            raise InputError(
                f"layer {layer!r} has assigned occurrences but no edges; "
                f"its null model is undefined")
    two_e = [2 * net.num_edges(layer) for layer in net.layer_ids]
    pairs = sum(net.shared_count_idx(i, j) for j in range(ell) for i in range(j))
    norm = sum(two_e) + 2 * omega * pairs
    if norm == 0:
        raise InputError("degenerate normalization: network has no edges and no couplings")
    return gammas, two_e, norm, omega


def multislice_modularity(net: MultilayerNetwork, cs: CommunityStructure,
                          gamma=1.0, omega: float = 0.0) -> float:
    """Multislice modularity with constant inter-layer coupling weight.

    Args:
        gamma: per-layer resolution, a scalar broadcast to all layers or a
            list or tuple with one value per layer (dense layer order).
        omega: coupling weight applied to every unordered layer pair sharing
            an entity's occurrences.

    Parameters are checked by :func:`multislice_parameters`; a gamma or
    omega so large that the score is not finite is a :class:`PolicyError`.
    """
    _check_structure(net, cs)
    gammas, two_es, norm, omega = multislice_parameters(net, gamma, omega)
    community_sums = []
    for c in cs.communities():
        layer_terms = []
        for li, layer in enumerate(net.layer_ids):
            two_e = two_es[li]
            if two_e == 0:
                continue
            d = cs.degree(c, layer)
            layer_terms.append(cs.internal_degree(c, layer) - gammas[li] * d * d / two_e)
        layer_terms.append(2.0 * omega * cs.coupled_instance_pairs(c))
        community_sums.append(math.fsum(layer_terms))
    return _finite(math.fsum(community_sums) / norm, "multislice")


# -- projection-based inter-layer coupling --------------------------------------


def symmetric_coupling(cs: CommunityStructure, c: int, layer_i, layer_j) -> Fraction:
    """Shared projection of the community over the shared node set of the two
    layers; 0 when the layers share no entity."""
    from fractions import Fraction  # here, so that only building a rational loads it

    shared_nodes = cs.net.shared_entity_count(layer_i, layer_j)
    if shared_nodes == 0:
        return Fraction(0)
    return Fraction(cs.shared_projection_count(c, layer_i, layer_j), shared_nodes)


def asymmetric_coupling(cs: CommunityStructure, c: int, layer_i, layer_j) -> Fraction:
    """Symmetric coupling rescaled by how small the community's projection on
    the source layer is relative to that layer; 0 for an empty projection.

    Values may exceed 1; no clamping is applied.
    """
    from fractions import Fraction

    proj = cs.projection_size(c, layer_i)
    if proj == 0:
        return Fraction(0)
    li = cs.net.layer_index(layer_i)
    layer_size = len(cs.net.presence_idx(li))
    return symmetric_coupling(cs, c, layer_i, layer_j) * Fraction(layer_size, proj)


def distance_penalty(distance: int) -> float:
    """Smooth decay factor for coupling layers ``distance`` positions apart."""
    # a bool is an int, but no distance
    if type(distance) is not int or distance < 1:
        raise PolicyError(f"layer distance must be an int >= 1, not {distance!r}")
    return log_decay(distance)


def coupling_plan(net: MultilayerNetwork, coupling: CouplingPolicy):
    """Everything ``coupling`` decides on ``net``: ``(records, norm)``.

    Each record is ``(i, j, src, shared, size, penalty)``, one per valid
    pairing of dense layer indices ``i`` -> ``j`` under the network's
    ordering whose layers share ``shared`` > 0 entities, ordered by ``i``
    and then by pairing; there are none under coupling ``none``. ``src`` is the layer
    whose community projection an asymmetric coupling is rescaled by (``j``
    under asym-outer, ``i`` otherwise) and ``size`` its entity count. The
    penalty is 1.0 unless the coupling is time-aware, which needs a natural
    ordering. ``norm`` is the total degree of the multilayer graph: 2 per
    intra-layer edge and 2 per coupling edge the records admit. An
    unordered network lists each layer pair from both sides, so its
    records count each coupling edge twice.

    The scorer reads ``i``, ``j``, ``src`` and ``penalty`` and values each
    record with the public coupling functions, source layer first;
    ``shared`` and ``size`` are read only by ``norm`` and the gain engine.
    """
    if coupling.time_aware and not net.ordering.is_natural:
        raise PolicyError("time-aware coupling requires a natural layer ordering")
    records = []
    if coupling.beta:
        outer = coupling.kind == "asym-outer"
        for i, layer in enumerate(net.layer_ids):
            for other in net.valid_pairings(layer):
                # time-aware: j is a successor of i in the dense (natural) order
                j = net.layer_index(other)
                shared = net.shared_count_idx(i, j)
                if shared:
                    src = j if outer else i
                    penalty = distance_penalty(j - i) if coupling.time_aware else 1.0
                    records.append((i, j, src, shared, len(net.presence_idx(src)), penalty))
    coupled = sum(record[3] for record in records)
    norm = 2 * net.num_edges() + 2 * (coupled if net.ordering.is_natural else coupled // 2)
    if norm == 0:
        raise InputError("degenerate normalization: network has no edges and no couplings")
    return records, norm


# -- multilayer modularity --------------------------------------------------------


def _check_policies(resolution, coupling) -> None:
    """Refuse policies of the wrong types, for the objective and the scorer alike."""
    for value, kind in ((resolution, ResolutionPolicy), (coupling, CouplingPolicy)):
        if not isinstance(value, kind):
            raise PolicyError(f"expected a {kind.__name__}, not {value!r}")


def multilayer_modularity(net: MultilayerNetwork, cs: CommunityStructure,
                          resolution: ResolutionPolicy = ResolutionPolicy.constant(1.0),
                          coupling: CouplingPolicy = CouplingPolicy.none()) -> ScoreReport:
    """Multilayer modularity with pluggable resolution and coupling policies.

    For each community and layer the score accumulates the internal degree,
    subtracts the resolution-weighted squared community degree over the total
    degree, and adds the coupling value against every validly paired layer.
    The sum is normalized by the total degree of the multilayer graph, which
    counts the coupling edges the chosen policy actually admits
    (:func:`coupling_plan`).

    A single layer with constant resolution 1 and coupling ``none`` reduces
    exactly to classic modularity. On several layers the one-community
    partition then scores ``1 - sum_l (m_l / m) ** 2`` (``1 - 1/L`` for L
    layers of equal edge count m_l), a baseline to read ``q`` values against.
    A policy of the wrong type is refused as ``MultilayerObjective`` refuses it.
    """
    _check_structure(net, cs)
    _check_policies(resolution, coupling)
    if net.num_edges() == 0:
        raise InputError("multilayer modularity is undefined on an edgeless network")
    records, norm = coupling_plan(net, coupling)
    ids = net.layer_ids
    by_layer = [[] for _ in ids]
    for record in records:
        by_layer[record[0]].append(record)
    value = symmetric_coupling if coupling.kind == "symmetric" else asymmetric_coupling

    terms = []
    community_sums = []
    for c in cs.communities():
        layer_terms = []
        for li, layer in enumerate(ids):
            intra = float(cs.internal_degree(c, layer))
            d = cs.degree(c, layer)
            null = resolution.value(cs, c, layer) * d * d / norm
            # source layer first; a symmetric value is the same either way
            coup = math.fsum(float(value(cs, c, ids[src], ids[j if src == i else i])) * penalty
                             for i, j, src, _, _, penalty in by_layer[li])
            terms.append(ScoreTerm(c, layer, intra, null, coup))
            layer_terms.append(intra - null + coup)
        community_sums.append(math.fsum(layer_terms))
    total = _finite(math.fsum(community_sums) / norm, "multilayer")

    ordering = net.ordering
    policy = {
        "objective": "multilayer",
        "resolution": resolution.kind,
        "gamma": resolution.gamma if resolution.kind == "constant" else None,
        "coupling": coupling.kind,
        "time_aware": coupling.time_aware,
        "ordering": "natural" if ordering.is_natural else "unordered",
        "scheme": ordering.scheme.value if ordering.is_natural else None,
        "beta": coupling.beta,
    }
    return ScoreReport(total=total, normalization=norm, terms=tuple(terms), policy=policy)

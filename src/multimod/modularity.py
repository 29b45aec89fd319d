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
:func:`symmetric_coupling` or :func:`asymmetric_coupling`, so the paper's
coupling formula is written once; only the gain engine and the
normalization read the plan's shared and size counts.

Projection-based coupling values are returned as exact rationals; the
composite scores are floats accumulated with ``math.fsum`` in a fixed order
(community index, then layer index), so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .community import CommunityStructure, log_decay
from .errors import InputError, PolicyError
from .mlgraph import MultilayerNetwork


@dataclass(frozen=True)
class ResolutionPolicy:
    """Null-model multiplier: a constant, or derived from community redundancy."""

    kind: str  # "constant" | "redundancy"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "redundancy"):
            raise PolicyError(f"unknown resolution policy {self.kind!r}")
        if self.kind == "constant" and not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise PolicyError("constant resolution requires a finite gamma >= 0")

    @classmethod
    def constant(cls, gamma: float = 1.0) -> "ResolutionPolicy":
        return cls("constant", float(gamma))

    @classmethod
    def redundancy(cls) -> "ResolutionPolicy":
        return cls("redundancy")

    def value(self, cs: CommunityStructure, c: int, layer) -> float:
        if self.kind == "constant":
            return self.gamma
        return cs.redundancy_resolution(c, layer)


@dataclass(frozen=True)
class CouplingPolicy:
    """Inter-layer coupling selector; ``none`` switches the coupling term off."""

    kind: str  # "none" | "symmetric" | "asym-inner" | "asym-outer"
    time_aware: bool = False

    def __post_init__(self):
        if self.kind not in ("none", "symmetric", "asym-inner", "asym-outer"):
            raise PolicyError(f"unknown coupling policy {self.kind!r}")
        if self.time_aware and self.kind not in ("asym-inner", "asym-outer"):
            raise PolicyError("time-aware coupling requires an asymmetric policy")

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


@dataclass(frozen=True)
class ScoreTerm:
    """Raw (un-normalized) contribution of one community in one layer."""

    community: int
    layer: object
    intra: float
    null_model: float
    coupling: float


@dataclass(frozen=True)
class ScoreReport:
    """Decomposed multilayer modularity value.

    ``total`` always equals the fsum of per-community term sums divided by
    ``normalization``; :meth:`recompute_total` replays that exact reduction.
    """

    total: float
    normalization: int
    terms: tuple = ()
    policy: dict = field(default_factory=dict)

    def community_total(self, c: int) -> float:
        return math.fsum(t.intra - t.null_model + t.coupling
                         for t in self.terms if t.community == c)

    def recompute_total(self) -> float:
        communities = sorted({t.community for t in self.terms})
        return math.fsum(self.community_total(c) for c in communities) / self.normalization

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


def newman_modularity(net: MultilayerNetwork, cs: CommunityStructure) -> float:
    """Classic modularity (Newman & Girvan 2004) of ``cs`` on a single-layer
    network, from each community's degree and internal degree."""
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


def _check_multislice_values(gamma, omega) -> None:
    """Reject a gamma (a scalar or one value per layer) or an omega that is
    not a finite number >= 0: the multislice checks that need no network."""
    gammas = (gamma,) if isinstance(gamma, (int, float)) else gamma
    if not all(math.isfinite(g) and g >= 0 for g in gammas):
        raise PolicyError("gamma must be a finite number >= 0")
    if not (math.isfinite(omega) and omega >= 0):
        raise PolicyError("omega must be a finite number >= 0")


def multislice_parameters(net: MultilayerNetwork, gamma, omega: float):
    """Validate multislice parameters against ``net``.

    Returns the per-layer gamma list (a scalar is broadcast), each layer's
    ``2 m_l`` and the normalization: twice the edge count plus twice omega
    times the same-entity occurrence pairs, sum_e C(L_e, 2), counted as the
    shared entities of the unordered layer pairs. Each layer uses its own
    null model, so any layer that contains assigned occurrences but no edges
    is an error.
    """
    ell = net.num_layers
    if isinstance(gamma, (int, float)):
        gammas = [float(gamma)] * ell
    else:
        gammas = [float(g) for g in gamma]
        if len(gammas) != ell:
            raise PolicyError(f"expected {ell} per-layer gamma values, got {len(gammas)}")
    _check_multislice_values(gammas, omega)
    for li, layer in enumerate(net.layer_ids):
        if net.presence_idx(li) and not net.num_edges(layer):
            raise InputError(
                f"layer {layer!r} has assigned occurrences but no edges; "
                f"its null model is undefined")
    two_e = [2 * net.num_edges(layer) for layer in net.layer_ids]
    pairs = sum(net.shared_count_idx(i, j) for j in range(ell) for i in range(j))
    return gammas, two_e, sum(two_e) + 2 * float(omega) * pairs


def multislice_modularity(net: MultilayerNetwork, cs: CommunityStructure,
                          gamma=1.0, omega: float = 0.0) -> float:
    """Multislice modularity with constant inter-layer coupling weight.

    Args:
        gamma: per-layer resolution, a scalar broadcast to all layers or a
            sequence with one value per layer (dense layer order).
        omega: coupling weight applied to every unordered layer pair sharing
            an entity's occurrences.

    Parameters are checked by :func:`multislice_parameters`; a gamma or
    omega so large that the score is not finite is a :class:`PolicyError`.
    """
    gammas, two_es, norm = multislice_parameters(net, gamma, omega)
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
    shared_nodes = cs.net.shared_entity_count(layer_i, layer_j)
    if shared_nodes == 0:
        return Fraction(0)
    return Fraction(cs.shared_projection_count(c, layer_i, layer_j), shared_nodes)


def asymmetric_coupling(cs: CommunityStructure, c: int, layer_i, layer_j) -> Fraction:
    """Symmetric coupling rescaled by how small the community's projection on
    the source layer is relative to that layer; 0 for an empty projection.

    Values may exceed 1; no clamping is applied.
    """
    proj = cs.projection_size(c, layer_i)
    if proj == 0:
        return Fraction(0)
    li = cs.net.layer_index(layer_i)
    layer_size = len(cs.net.presence_idx(li))
    return symmetric_coupling(cs, c, layer_i, layer_j) * Fraction(layer_size, proj)


def distance_penalty(distance: int) -> float:
    """Smooth decay factor for coupling layers ``distance`` positions apart."""
    if distance < 1:
        raise PolicyError("layer distance must be >= 1")
    return log_decay(distance)


def _require_natural(net: MultilayerNetwork) -> None:
    if not net.ordering.is_natural:
        raise PolicyError("time-aware coupling requires a natural layer ordering")


def time_aware_coupling(cs: CommunityStructure, c: int, layer_i, layer_j) -> float:
    """Asymmetric coupling scaled down by the positional distance of the two
    layers in the network's natural order; distance 1 applies no penalty."""
    net = cs.net
    _require_natural(net)
    # a natural ordering is the dense layer order, so indices are positions
    distance = abs(net.layer_index(layer_j) - net.layer_index(layer_i))
    return float(asymmetric_coupling(cs, c, layer_i, layer_j)) * distance_penalty(distance)


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
    if coupling.time_aware:
        _require_natural(net)
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


def multilayer_modularity(net: MultilayerNetwork, cs: CommunityStructure,
                          resolution: ResolutionPolicy | None = None,
                          coupling: CouplingPolicy | None = None) -> ScoreReport:
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
    """
    resolution = ResolutionPolicy.constant(1.0) if resolution is None else resolution
    coupling = CouplingPolicy.none() if coupling is None else coupling
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

"""Quality functions for single-layer and multilayer community structures.

Three scores live here; each takes the network and a
:class:`CommunityStructure`. ``newman_modularity`` is the classic measure
on a single-layer network. ``multislice_modularity`` couples the
occurrences of an entity across every unordered layer pair with a constant
weight and keeps a layer-local null model. ``multilayer_modularity``
normalizes globally, lets the resolution factor vary per layer and
community, and scores the inter-layer couplings through community
projections, optionally restricted and penalized by the network's natural
layer ordering (``net.ordering``); no score takes another. Which layer
pairs couple, the projection each asymmetric coupling is rescaled by, the
penalties, the natural-ordering check and the normalization they imply
are decided once, in :func:`coupling_plan`, which the multilayer gain
engine reads as well.

Each objective writes its community term once, as a pure function of the
community's integer counts (``_newman_term``, ``_qms_term``, ``_q_term``),
which its scorer reads from the structure's per-layer maps by layer index.
The ``q`` term values a planned coupling from the plan record's own
counts with one integer division, which rounds the exact rational once.
Scores are accumulated with ``math.fsum`` in a fixed order (community
index, then layer index), so results are bit-reproducible.
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


def _newman_term(dint: int, deg: int, two_m: int) -> float:
    """A community's classic term from its internal degree and degree; the
    qms term at one layer divides after the sum and differs in the last bit."""
    return dint / two_m - (deg / two_m) ** 2


def newman_modularity(net: MultilayerNetwork, cs: CommunityStructure) -> float:
    """Classic modularity (Newman & Girvan 2004) of ``cs`` on a single-layer
    network, from each community's degree and internal degree."""
    _check_structure(net, cs)
    if net.num_layers != 1:
        raise PolicyError("the newman objective requires a single-layer network")
    two_m = 2 * net.num_edges(net.layer_ids[0])
    if two_m == 0:
        raise InputError("modularity is undefined on an edgeless graph")
    return math.fsum(_newman_term(cs._dint[c].get(0, 0), cs._deg[c].get(0, 0), two_m)
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


def _qms_term(dint: dict, deg: dict, pairs: int, gammas, two_es, omega: float) -> float:
    """A community's unnormalized multislice term from its internal degree
    and degree maps (layer index -> count) and its same-entity occurrence
    pairs: ``dint - gamma d^2 / 2m`` per layer with edges, plus the pairs."""
    terms = []
    for li, two_e in enumerate(two_es):
        if two_e:
            d = deg.get(li, 0)
            terms.append(dint.get(li, 0) - gammas[li] * d * d / two_e)
    terms.append(2.0 * omega * pairs)
    return math.fsum(terms)


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
    total = math.fsum(_qms_term(cs._dint[c], cs._deg[c], cs.coupled_instance_pairs(c),
                                gammas, two_es, omega) for c in cs.communities())
    return _finite(total / norm, "multislice")


# -- inter-layer coupling plan --------------------------------------------------


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

    The ``q`` term and the gain engine value each record from its own
    ``shared`` and ``size`` counts and the community's projections.
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


def _q_term(dint: dict, deg: dict, proj: dict, nrp, inter, by_layer, norm: int,
            gamma: float, symmetric: bool) -> tuple:
    """``(term, rows)`` of one community under the multilayer objective,
    from its internal degree, degree and projection size maps (layer index
    -> count), its redundant pair counts per layer (None under the constant
    resolution ``gamma``) and, in ``inter[li]``, its projections'
    intersection for each plan record of ``by_layer[li]``. A record ``(i,
    j, src, shared, size, penalty)`` with intersection ``n`` is worth ``n /
    shared`` when symmetric, ``n * size / (shared * proj[src])`` when
    asymmetric (0.0 for an empty source projection), times ``penalty``.
    ``rows`` holds each layer's ``(intra, null, coupling)``; ``term`` is the
    unnormalized fsum of their ``intra - null + coupling``."""
    rows = []
    for li, records in enumerate(by_layer):
        d = deg.get(li, 0)
        null = (gamma if nrp is None else log_decay(nrp[li])) * d * d / norm
        values = []
        for n, (_, _, src, shared, size, penalty) in zip(inter[li], records):
            if symmetric:
                value = n / shared
            else:
                p = proj.get(src, 0)
                value = n * size / (shared * p) if p else 0.0
            values.append(value * penalty)
        rows.append((float(dint.get(li, 0)), null, math.fsum(values)))
    return math.fsum(intra - null + coup for intra, null, coup in rows), rows


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
    redundancy = resolution.kind == "redundancy"
    symmetric = coupling.kind == "symmetric"

    terms = []
    community_sums = []
    for c in cs.communities():
        p = cs._proj[c]
        inter = [[len(p[i] & p[j]) if i in p and j in p else 0 for i, j, *_ in layer_records]
                 for layer_records in by_layer]
        term, rows = _q_term(cs._dint[c], cs._deg[c], {li: len(s) for li, s in p.items()},
                             cs._redundancy_counts(c)[0] if redundancy else None, inter,
                             by_layer, norm, resolution.gamma, symmetric)
        terms += (ScoreTerm(c, layer, *row) for layer, row in zip(ids, rows))
        community_sums.append(term)
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

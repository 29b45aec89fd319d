"""Independent output checks: multislice modularity and NMI recomputed from
the generated inputs with the standard library alone, plus file digests."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

REL_TOL = 1e-9


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_extended(path: Path) -> dict:
    """{(entity, layer): label} from an extended community file."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens:
            entity, layer, label = tokens
            out[(entity, layer)] = label
    return out


def read_flat(path: Path) -> dict:
    """{entity: label} from a flattened community file."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens:
            entity, label = tokens
            out[entity] = label
    return out


class MultisliceOracle:
    """Multislice modularity with constant coupling omega over every unordered
    layer pair in which an entity is present, computed by direct sums over the
    edge list: sum over communities and layers of (2 e_in - gamma d^2 / 2m_l)
    plus 2 omega times the same-entity occurrence pairs inside a community, all
    over 2m + 2 omega C."""

    def __init__(self, edges, occurrences):
        self.edges = list(edges)
        self.occurrences = list(occurrences)
        self.layer_edges = {}
        self.degree = {}
        for layer, u, v in self.edges:
            self.layer_edges[layer] = self.layer_edges.get(layer, 0) + 1
            self.degree[(u, layer)] = self.degree.get((u, layer), 0) + 1
            self.degree[(v, layer)] = self.degree.get((v, layer), 0) + 1
        layers_of = {}
        for entity, _ in self.occurrences:
            layers_of[entity] = layers_of.get(entity, 0) + 1
        self.coupling_pairs = sum(n * (n - 1) // 2 for n in layers_of.values())

    def evaluator(self, assignment: dict):
        """Return value(gamma, omega) for one {(entity, layer): label} assignment."""
        internal = 0
        for layer, u, v in self.edges:
            if assignment[(u, layer)] == assignment[(v, layer)]:
                internal += 2
        degree = {}
        copies = {}
        for entity, layer in self.occurrences:
            c = assignment[(entity, layer)]
            degree[(c, layer)] = degree.get((c, layer), 0) + self.degree.get((entity, layer), 0)
            copies[(c, entity)] = copies.get((c, entity), 0) + 1
        squares = [(d * d, 2 * self.layer_edges[layer]) for (_, layer), d in degree.items()
                   if layer in self.layer_edges]
        pairs = sum(k * (k - 1) // 2 for k in copies.values())

        def value(gamma: float, omega: float) -> float:
            terms = [internal, 2.0 * omega * pairs]
            terms.extend(-gamma * sq / two_m for sq, two_m in squares)
            return math.fsum(terms) / (2 * len(self.edges) + 2 * omega * self.coupling_pairs)

        return value


def close(reported: float, expected: float) -> bool:
    return math.isclose(reported, expected, rel_tol=REL_TOL, abs_tol=REL_TOL)


def nmi(partition_a: dict, partition_b: dict) -> float:
    """Normalized mutual information with arithmetic-mean normalization."""
    n = len(partition_a)
    joint, count_a, count_b = {}, {}, {}
    for entity, a in partition_a.items():
        b = partition_b[entity]
        joint[(a, b)] = joint.get((a, b), 0) + 1
        count_a[a] = count_a.get(a, 0) + 1
        count_b[b] = count_b.get(b, 0) + 1
    h_a = -math.fsum(c / n * math.log(c / n) for c in count_a.values())
    h_b = -math.fsum(c / n * math.log(c / n) for c in count_b.values())
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    info = math.fsum(c / n * math.log(c * n / (count_a[a] * count_b[b]))
                     for (a, b), c in joint.items())
    return min(1.0, max(0.0, 2.0 * info / (h_a + h_b)))

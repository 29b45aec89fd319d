"""Seeded planted-partition inputs for the benchmark, standard library only.

Edges are drawn by geometric skipping over the pair index space (Batagelj &
Brandes 2005, "Efficient generation of large random networks"): the gap to
the next present pair is drawn directly, so the cost is proportional to the
edges produced, not to the n^2 pairs considered. The generator is kept here,
apart from the package, so that the workloads stay fixed whatever happens to
the package's own generator.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Spec:
    """One planted multilayer network.

    Entity i belongs to planted community i * communities // entities, and is
    present in each layer with probability ``presence`` (an entity drawn into
    no layer is placed in one chosen uniformly). Inside a layer, a pair of
    present entities is linked with ``p_in`` inside a community and ``p_out``
    across communities.
    """

    entities: int
    communities: int
    layers: int
    presence: float
    p_in: float
    p_out: float


def _skip_sample(rng: random.Random, total: int, p: float):
    """Yield the indices in range(total) kept with probability p each."""
    if p <= 0.0 or total <= 0:
        return
    if p >= 1.0:
        yield from range(total)
        return
    log_q = math.log(1.0 - p)
    i = -1
    while True:
        i += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if i >= total:
            return
        yield i


def _pair_in_triangle(index: int):
    """Map a pair index to (a, b), a < b, for pairs enumerated by b then a."""
    b = int((1 + math.isqrt(1 + 8 * index)) // 2)
    while b * (b - 1) // 2 > index:
        b -= 1
    while (b + 1) * b // 2 <= index:
        b += 1
    return index - b * (b - 1) // 2, b


def planted(spec: Spec, seed: int):
    """Return (entity ids, layer ids, edges, isolated occurrences, planted labels).

    ``edges`` is a list of (layer, u, v); ``isolated`` lists (layer, u) for
    occurrences with no edge in their layer; ``labels`` maps entity -> label.
    """
    rng = random.Random(seed)
    n, k, ell = spec.entities, spec.communities, spec.layers
    width = len(str(n - 1))
    entities = [f"n{i:0{width}d}" for i in range(n)]
    layers = [f"l{j}" for j in range(ell)]
    community = [i * k // n for i in range(n)]
    labels = {entities[i]: f"c{community[i]}" for i in range(n)}

    present = [[rng.random() < spec.presence for _ in range(ell)] for _ in range(n)]
    for row in present:
        if not any(row):
            row[rng.randrange(ell)] = True

    edges = []
    isolated = []
    for j, layer in enumerate(layers):
        groups = [[] for _ in range(k)]
        for i in range(n):
            if present[i][j]:
                groups[community[i]].append(i)
        first = len(edges)
        for group in groups:
            for index in _skip_sample(rng, len(group) * (len(group) - 1) // 2, spec.p_in):
                a, b = _pair_in_triangle(index)
                edges.append((layer, group[a], group[b]))
        for ga in range(k):
            for gb in range(ga + 1, k):
                left, right = groups[ga], groups[gb]
                for index in _skip_sample(rng, len(left) * len(right), spec.p_out):
                    edges.append((layer, left[index // len(right)], right[index % len(right)]))
        touched = {u for _, u, _ in edges[first:]} | {v for _, _, v in edges[first:]}
        for group in groups:
            isolated.extend((layer, i) for i in group if i not in touched)
    named_edges = [(layer, entities[u], entities[v]) for layer, u, v in edges]
    named_isolated = [(layer, entities[i]) for layer, i in isolated]
    return entities, layers, named_edges, named_isolated, labels, present


def network_text(layers, edges, isolated) -> str:
    """Edge-list text with a natural %order over the layers."""
    lines = ["%order " + " ".join(layers)]
    lines.extend(f"%presence {layer} {u}" for layer, u in isolated)
    lines.extend(f"{layer} {u} {v}" for layer, u, v in edges)
    return "\n".join(lines) + "\n"


def flat_text(labels: dict) -> str:
    return "\n".join(f"{u} {c}" for u, c in labels.items()) + "\n"


def perturbed_extended_text(entities, layers, present, labels, keep: float,
                            extra_labels: int, seed: int) -> str:
    """Extended community file: each occurrence keeps its planted label with
    probability ``keep`` and otherwise draws one of ``extra_labels`` new labels."""
    rng = random.Random(seed ^ 0x5EED)
    lines = []
    for i, u in enumerate(entities):
        for j, layer in enumerate(layers):
            if present[i][j]:
                label = labels[u] if rng.random() < keep else f"x{rng.randrange(extra_labels)}"
                lines.append(f"{u} {layer} {label}")
    return "\n".join(lines) + "\n"


def write(path: Path, text: str) -> str:
    """Write ``text`` to ``path`` and return its sha256."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()

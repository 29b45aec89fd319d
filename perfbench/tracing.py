"""Traced in-process replay of the CLI session.

Each command's call sequence is replayed with the package's public names
(those in ``multimod.__all__``), and a span is recorded around every call,
from outside the package: nothing is patched and no private name is used.
Spans stay in memory and are written with the results at the end of a run.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from workloads import GIVEN, NETWORK, SWEEP_OMEGAS

# Per-layer metric -> span names (a span is "<module>.<public function>"; mlgraph.read_text
# is the file read that read_network does before parsing). The quality step's spans
# (flatten_majority, nmi) are the benchmark's own work and count in no metric.
LAYER_SPANS = {
    "mlgraph.parse_s": ("mlgraph.parse_network_text",),
    "mlgraph.build_s": ("mlgraph.build_network",),
    "mlgraph.total_s": ("mlgraph.read_text", "mlgraph.parse_network_text",
                        "mlgraph.build_network", "mlgraph.monoplex_stats"),
    "community.read_s": ("community.read_communities",),
    "community.total_s": ("community.read_communities", "community.write_communities",
                          "community.write_flat_partition"),
    "modularity.total_s": ("modularity.multilayer_modularity",
                           "modularity.multislice_modularity"),
    "detect.total_s": ("detect.generalized_louvain", "detect.aggregate_majority"),
}

_COUPLING = {"none": "none", "sym": "symmetric", "asym-inner": "asym-inner",
             "asym-outer": "asym-outer"}


class Tracer:
    """Spans as (name, start, end, parent index, command id), in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, command: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, command)


class Replay:
    """Replays one round of a workload's session with spans around each call."""

    def __init__(self, mm, tracer: Tracer, workdir: Path, planted: dict):
        self.mm = mm
        self.tracer = tracer
        self.workdir = workdir
        self.planted = planted
        self.values = {}  # command key -> value comparable with the CLI's output

    def run(self, command, command_id: str) -> None:
        self._span = lambda name: self.tracer.span(name, command_id)
        with self.tracer.span("command." + command.kind, command_id):
            getattr(self, "_" + command.kind)(command)

    def quality(self, command_id: str) -> None:
        """The benchmark's own quality step: NMI of the session's partitions
        against the planted labels."""
        self._span = lambda name: self.tracer.span(name, command_id)
        with self.tracer.span("command.quality", command_id):
            for value in self.values.values():
                partition = value.get("partition")
                if partition is None and "structure" in value:
                    with self._span("community.flatten_majority"):
                        partition = value["structure"].flatten_majority()
                if partition is not None:
                    with self._span("detect.nmi"):
                        value["nmi"] = self.mm.nmi(partition, self.planted)

    # -- shared steps -----------------------------------------------------------

    def _load(self, ordering_mode: str, time_aware: bool):
        mm = self.mm
        with self._span("mlgraph.read_text"):
            text = (self.workdir / NETWORK).read_text(encoding="utf-8")
        with self._span("mlgraph.parse_network_text"):
            layers, edges, presences, order = mm.parse_network_text(text)
        if ordering_mode == "auto":
            ordering_mode = "natural-adjacent" if order is not None else "none"
        if ordering_mode == "none":
            ordering = mm.LayerOrdering.unordered()
        else:
            scheme = (mm.PairingScheme.ADJACENT if ordering_mode.endswith("adjacent")
                      else mm.PairingScheme.PAIRWISE)
            sequence = order if order is not None else tuple(layers)
            ordering = mm.LayerOrdering.natural(sequence, scheme, time_aware)
        with self._span("mlgraph.build_network"):
            return mm.build_network(layers=layers, edges=edges, presence=presences,
                                    ordering=ordering)

    def _load_flags(self, flags):
        if flags.objective == "q":
            return self._load(flags.ordering, flags.time_aware)
        return self._load("none", False)

    def _read(self, net, name: str):
        with self._span("community.read_communities"):
            return self.mm.read_communities(net, self.workdir / name)

    def _score_value(self, net, cs, flags) -> float:
        mm = self.mm
        if flags.objective == "q":
            resolution, coupling = self._policies(flags)
            with self._span("modularity.multilayer_modularity"):
                return mm.multilayer_modularity(net, cs, resolution, coupling).total
        with self._span("modularity.multislice_modularity"):
            return mm.multislice_modularity(net, cs, flags.gamma, flags.omega)

    def _policies(self, flags):
        mm = self.mm
        if flags.resolution == "redundancy":
            resolution = mm.ResolutionPolicy.redundancy()
        else:
            resolution = mm.ResolutionPolicy.constant(float(flags.resolution.split(":", 1)[1]))
        return resolution, mm.CouplingPolicy(_COUPLING[flags.coupling], time_aware=flags.time_aware)

    def _objective(self, flags):
        if flags.objective == "q":
            resolution, coupling = self._policies(flags)
            return self.mm.MultilayerObjective(resolution=resolution, coupling=coupling)
        return self.mm.MultisliceObjective(gamma=flags.gamma, omega=flags.omega)

    # -- one method per command kind -----------------------------------------------

    def _stats(self, command):
        net = self._load("auto", False)
        for layer in net.layer_ids:
            with self._span("mlgraph.monoplex_stats"):
                net.monoplex_stats(layer)
        self.values[command.key] = {"edges": net.num_edges(), "occurrences": net.num_tuples()}

    def _detect(self, command, method=None):
        mm = self.mm
        net = self._load_flags(command.flags)
        seed = int(command.argv[command.argv.index("--seed") + 1])
        config = mm.DetectConfig(objective=self._objective(command.flags), seed=seed)
        if method == "aggregate":
            with self._span("detect.aggregate_majority"):
                result = mm.aggregate_majority(net, config)
        else:
            with self._span("detect.generalized_louvain"):
                result = mm.generalized_louvain(net, config)
        extended = self.workdir / ("replay-" + command.outputs[0])
        flattened = self.workdir / ("replay-" + command.outputs[1])
        with self._span("community.write_communities"):
            mm.write_communities(result.structure, extended)
        with self._span("community.write_flat_partition"):
            mm.write_flat_partition(result.partition, flattened)
        self.values[command.key] = {
            "objective": result.objective, "passes": result.passes, "moves": result.moves,
            "communities": result.structure.num_communities, "partition": result.partition,
            "files": (extended, flattened), "edges": net.num_edges(),
            "occurrences": net.num_tuples()}

    def _aggregate(self, command):
        self._detect(command, method="aggregate")

    def _score(self, command):
        net = self._load_flags(command.flags)
        cs = self._read(net, command.argv[2])
        value = {"objective": self._score_value(net, cs, command.flags),
                 "communities": cs.num_communities, "edges": net.num_edges(),
                 "occurrences": net.num_tuples()}
        if command.argv[2] == GIVEN:
            value["structure"] = cs
        self.values[command.key] = value

    def _sweep(self, command):
        net = self._load("none", False)
        cs = self._read(net, command.argv[2])
        rows = []
        for omega in SWEEP_OMEGAS:
            with self._span("modularity.multislice_modularity"):
                rows.append(self.mm.multislice_modularity(net, cs, 1.0, omega))
        self.values[command.key] = {"rows": rows}


def span_totals(spans, command_id: str) -> dict:
    """Duration by span name over the direct children of one command span."""
    roots = {i for i, s in enumerate(spans) if s[4] == command_id and s[3] is None}
    totals = {}
    for name, start, end, parent, _ in spans:
        if parent in roots:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def command_wall(spans, command_id: str) -> float:
    return sum(end - start for _, start, end, parent, cid in spans
               if cid == command_id and parent is None)


"""The benchmark's workloads: generated inputs and the CLI session run on them."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import gen

NETWORK = "network.mlg"
PLANTED = "planted.flat"
GIVEN = "given.communities"


@dataclass(frozen=True)
class Flags:
    """Scoring/detection flags shared by `score` and `detect`."""

    objective: str
    resolution: str = "constant:1"
    coupling: str = "none"
    time_aware: bool = False
    ordering: str = "none"
    gamma: float = 1.0
    omega: float = 0.0

    def argv(self) -> list:
        out = ["--objective", self.objective]
        if self.objective == "q":
            out += ["--resolution", self.resolution, "--coupling", self.coupling,
                    "--ordering", self.ordering]
            if self.time_aware:
                out.append("--time-aware")
        else:
            out += ["--gamma", repr(self.gamma), "--omega", repr(self.omega)]
        return out


@dataclass(frozen=True)
class Command:
    """One CLI invocation of the session.

    ``kind`` is the user-facing command (stats, detect, aggregate, score,
    sweep); ``rescores`` names the detect command whose output a score
    command re-scores; ``outputs`` are files digested after every run.
    """

    key: str
    kind: str
    argv: tuple
    flags: Flags | None = None
    outputs: tuple = ()
    rescores: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    spec: gen.Spec
    smoke_spec: gen.Spec
    flags: Flags
    copies: int = 1  # independent networks per run, to average out input variance
    setups: int = 3  # set-up samples per round
    # command keys run on the first network only: their time hardly depends on the input
    first_only: tuple = ()
    given_communities: bool = False
    commands_for: object = field(default=None, repr=False)

    def commands(self, seed: int) -> list:
        return self.commands_for(self, seed)


def _detect(key, flags, seed, prefix, method="gl"):
    argv = ["detect", NETWORK]
    if method != "gl":
        argv += ["--method", method]
    argv += flags.argv() + ["--seed", str(seed), "--out", prefix]
    outputs = (f"{prefix}.communities", f"{prefix}.flat", f"{prefix}.manifest.json")
    return Command(key, "aggregate" if method == "aggregate" else "detect", tuple(argv),
                   flags, outputs)


def _rescore(detect: Command) -> Command:
    path = detect.outputs[0]
    argv = ("score", NETWORK, path, *detect.flags.argv(), "--output", "json")
    return Command(f"score-{detect.key}", "score", argv, detect.flags, rescores=detect.key)


def _planted_ms(workload, seed):
    detect = _detect("detect", workload.flags, seed, "gl")
    aggregate = _detect("aggregate", workload.flags, seed, "agg", method="aggregate")
    return [Command("stats", "stats", ("stats", NETWORK)), detect, aggregate,
            _rescore(detect), _rescore(aggregate)]


def _planted_ml(workload, seed):
    detect = _detect("detect", workload.flags, seed, "gl")
    return [detect, _rescore(detect)]


def _score_large(workload, seed):
    return [Command("score", "score", ("score", NETWORK, GIVEN, *workload.flags.argv()),
                    workload.flags),
            Command("sweep", "sweep", ("sweep", NETWORK, GIVEN, "--protocol", "omega"))]


MID = gen.Spec(entities=1000, communities=10, layers=4, presence=0.8, p_in=0.1, p_out=0.005)
MID_SMOKE = gen.Spec(entities=60, communities=3, layers=3, presence=0.8, p_in=0.3, p_out=0.02)
LARGE = gen.Spec(entities=10_000, communities=100, layers=4, presence=0.8,
                 p_in=8 / 79, p_out=2 / 7920)
LARGE_SMOKE = gen.Spec(entities=300, communities=10, layers=3, presence=0.8,
                       p_in=8 / 23, p_out=2 / 216)

WORKLOADS = {
    w.name: w for w in (
        Workload("planted-ms", MID, MID_SMOKE, Flags("qms", omega=1.0), copies=3,
                 first_only=("stats",), commands_for=_planted_ms),
        Workload("planted-ml", MID, MID_SMOKE,
                 Flags("q", resolution="redundancy", coupling="asym-inner", time_aware=True,
                       ordering="natural-adjacent"),
                 copies=3, commands_for=_planted_ml),
        Workload("score-large", LARGE, LARGE_SMOKE,
                 Flags("q", resolution="redundancy", coupling="asym-outer", time_aware=True,
                       ordering="natural-adjacent"),
                 setups=1, given_communities=True, commands_for=_score_large),
    )
}

SWEEP_OMEGAS = [i * 0.1 for i in range(21)]  # sweep --protocol omega: gamma 1, omega 0..2


@dataclass
class Inputs:
    """Generated files plus what the checks need to know about them."""

    files: dict          # name -> sha256
    sizes: dict          # name -> bytes
    edges: list          # (layer, u, v)
    occurrences: list    # (entity, layer)
    planted: dict        # entity -> planted label


def make_inputs(workload: Workload, seed: int, workdir: Path, smoke: bool) -> Inputs:
    spec = workload.smoke_spec if smoke else workload.spec
    entities, layers, edges, isolated, labels, present = gen.planted(spec, seed)
    texts = {NETWORK: gen.network_text(layers, edges, isolated), PLANTED: gen.flat_text(labels)}
    if workload.given_communities:
        texts[GIVEN] = gen.perturbed_extended_text(entities, layers, present, labels,
                                                   keep=0.9, extra_labels=150, seed=seed)
    files = {name: gen.write(workdir / name, text) for name, text in texts.items()}
    sizes = {name: len(text.encode("utf-8")) for name, text in texts.items()}
    occurrences = [(u, layer) for i, u in enumerate(entities)
                   for j, layer in enumerate(layers) if present[i][j]]
    return Inputs(files, sizes, edges, occurrences, labels)

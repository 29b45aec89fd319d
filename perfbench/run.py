"""Benchmark of the multimod CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planted-ms --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, then repeats the workload's
CLI session (one fresh ``python3 -m multimod.cli`` process per command, one
after another) in rounds until ``--seconds`` are used, checking every
output. With ``--trace 1`` each round also replays the session in-process
with spans around the package's public calls. Human-readable detail goes
to lines starting with "#", the full record to perfbench/results/, and the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from tracing import LAYER_SPANS, Replay, Tracer, command_wall, span_totals  # noqa: E402
from workloads import GIVEN, NETWORK, PLANTED, SWEEP_OMEGAS, WORKLOADS, make_inputs  # noqa: E402

# name -> (unit, better); must match BENCHMARK.json (the self-test checks it).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "command_gm_cal": ("cal", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    "cli.unaccounted_s": ("s", "lower"),
    **{name: ("s", "lower") for name in LAYER_SPANS},
    "mlgraph.input_bytes": ("count", "lower"),
    "mlgraph.occurrences": ("count", "lower"),
    "mlgraph.edges": ("count", "lower"),
    "community.communities": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

MIN_ROUNDS = 2
SMOKE_ROUNDS = 2
HARD_LIMIT_S = 170.0  # a command still running then is killed and counted failed
CALIBRATION_N = 20_000
HASH_SEEDS = 2**32
# setup_s is quoted at this calibration time: the loop's median on the 2-core
# Intel Xeon VM the bounds were set on
CALIBRATION_REF_S = 0.12


def calibration() -> float:
    """Seconds for a fixed pure-Python graph build and breadth-first search,
    the same kind of work as the program's: it tells a slow machine period
    apart from a slow commit."""
    start = perf_counter()
    adj = {}
    for i in range(CALIBRATION_N):
        for j in (1, 7, 31):
            v = (i * j * 2654435761 + j) % CALIBRATION_N
            adj.setdefault(i, set()).add(v)
            adj.setdefault(v, set()).add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        reached = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        frontier = reached
    return perf_counter() - start


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "loadavg_before": os.getloadavg()}


class Instance:
    """One generated network of the workload, with its own directory and the
    state the correctness gate keeps about it."""

    def __init__(self, index: int, workload, seed: int, workdir: Path, smoke: bool):
        self.name = f"n{index}"
        self.dir = workdir / self.name
        self.dir.mkdir()
        self.seed = seed * 1000 + index
        self.inputs = make_inputs(workload, self.seed, self.dir, smoke)
        self.commands = [c for c in workload.commands(self.seed)
                         if index == 0 or c.key not in workload.first_only]
        self.oracle = check.MultisliceOracle(self.inputs.edges, self.inputs.occurrences)
        self.digests = {}    # command key -> output digests of round 0
        self.manifests = {}  # detect command key -> manifest
        self.outputs = {}    # command key -> value parsed from the CLI output
        self.q_planted = None
        self.session_s = 0.0  # wall time of this network's last session


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, smoke: bool,
                 corrupt: bool, workdir: Path, launcher: subprocess.Popen):
        self.launcher = launcher
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.corrupt = corrupt
        self.work = workdir
        self.started = perf_counter()
        self.attempted = 0
        self.failures = []
        # PYTHONHASHSEED takes only 0..2**32-1, and the seed may be any integer
        self.hash_seed = seed * 1000 % HASH_SEEDS
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONHASHSEED", None)

    # -- bookkeeping --------------------------------------------------------------

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def cli(self, argv: list, cwd: Path) -> dict:
        """Run one fresh process, each with its own hash seed; wall time and max RSS."""
        self.hash_seed = (self.hash_seed + 1) % HASH_SEEDS
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        request = {"argv": [sys.executable, *argv], "cwd": str(cwd),
                   "env": dict(self.env, PYTHONHASHSEED=str(self.hash_seed)),
                   "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": max(1.0, HARD_LIMIT_S - (perf_counter() - self.started))}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        answer = json.loads(self.launcher.stdout.readline())
        return {"wall": answer["wall"], "rss_mb": answer["rss_kb"] / 1024.0,
                "code": answer["code"],
                "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
                "stderr": err_path.read_text(encoding="utf-8", errors="replace")[-400:]}

    def multimod(self, argv, cwd: Path) -> dict:
        return self.cli(["-m", "multimod.cli", *argv], cwd)

    # -- the run -------------------------------------------------------------------

    def run(self) -> dict:
        w = self.workload
        context = machine()
        t = perf_counter()
        self.instances = [Instance(i, w, self.seed, self.work, self.smoke)
                          for i in range(w.copies)]
        generate_s = perf_counter() - t
        self.commands = self.instances[0].commands  # every key the session has
        final = next((c.key for c in self.commands if c.kind in ("detect", "aggregate")),
                     self.commands[0].key)
        for inst in self.instances:
            self.planted_score(inst)

        samples = {f"{inst.name}/{c.key}": [] for inst in self.instances for c in inst.commands}
        rss = {inst.name: {} for inst in self.instances}  # largest RSS by command
        setup, setup_cal, calib, rounds_s, startup = [], [], [], [], []
        communities = {}  # network -> communities in its final partition, last replay
        tracer = Tracer()
        if self.trace:
            sys.path.insert(0, str(SRC))
            import multimod
            if Path(multimod.__file__).resolve().parent != SRC / "multimod":
                raise RuntimeError(f"imported multimod from {multimod.__file__}, not {SRC}")
            # keep the benchmark's own objects out of the replay's garbage collections
            gc.freeze()
        min_rounds = SMOKE_ROUNDS if self.smoke else MIN_ROUNDS
        measure_start = perf_counter()
        rounds = 0
        while True:
            round_start = perf_counter()
            for _ in range(w.setups):
                calib.append(calibration())
                setup.append(self.setup_sample())
                setup_cal.append(setup[-1] / calib[-1])
            if self.trace:
                startup.append(self.cli(["-c", "import multimod.cli"], self.work)["wall"])
            partial = False
            for inst in self.instances:
                # after the first round, an untraced run may stop between networks
                # once the first network has been repeated
                if (rounds and not self.trace and not self.smoke and inst is not self.instances[0]
                        and perf_counter() - measure_start + inst.session_s > self.seconds):
                    partial = True
                    break
                session_start = perf_counter()
                for command in inst.commands:
                    if rounds and command.rescores and not self.trace:
                        # later rounds' outputs must match round 0's digests, so
                        # re-scoring them again checks nothing new
                        continue
                    calib.append(calibration())
                    result = self.multimod(command.argv, inst.dir)
                    samples[f"{inst.name}/{command.key}"].append(result["wall"])
                    rss[inst.name][command.key] = max(rss[inst.name].get(command.key, 0.0),
                                                      result["rss_mb"])
                    self.check(inst, command, result, rounds)
                inst.session_s = perf_counter() - session_start
            if self.trace:
                for inst in self.instances:
                    replay = Replay(multimod, tracer, inst.dir, inst.inputs.planted)
                    for command in inst.commands:
                        replay.run(command, f"{rounds}:{inst.name}/{command.key}")
                    replay.quality(f"{rounds}:{inst.name}/quality")
                    self.check_replay(inst, replay)
                    communities[inst.name] = replay.values[final]["communities"]
            rounds += 1
            rounds_s.append(perf_counter() - round_start)
            elapsed = perf_counter() - measure_start
            if partial:
                break
            if rounds >= min_rounds and (self.smoke or elapsed + rounds_s[-1] > self.seconds):
                break
            if perf_counter() - self.started + rounds_s[-1] > HARD_LIMIT_S - 10:
                break
        context["loadavg_after"] = os.getloadavg()
        medians = {key: statistics.median(v) for key, v in samples.items()}
        record = {
            "workload": w.name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "smoke": self.smoke, "rounds": rounds,
            "machine": context, "calibration_s": calib, "round_s": rounds_s,
            "generate_s": generate_s,
            "inputs_sha256": {f"{i.name}/{k}": v for i in self.instances
                              for k, v in i.inputs.files.items()},
            "input_bytes": {f"{i.name}/{k}": v for i in self.instances
                            for k, v in i.inputs.sizes.items()},
            "setup_samples_s": setup, "command_samples_s": samples,
            "command_median_s": medians, "command_rss_mb": rss,
            "argv": {f"{i.name}/{c.key}": list(c.argv) for i in self.instances
                     for c in i.commands},
            "digests": {i.name: i.digests for i in self.instances},
            "quality": {i.name: self.quality(i) for i in self.instances},
            "failures": self.failures,
        }
        record["session_s"] = math.fsum(medians.values())
        # each user command (the re-scoring checks left out), summed over the networks
        record["command_cal"] = {
            c.key: math.fsum(medians.get(f"{i.name}/{c.key}", 0.0) for i in self.instances)
            / statistics.fmean(calib)
            for c in self.commands if c.rescores is None}
        if self.trace:
            record["spans"] = tracer.spans
            record["startup_samples_s"] = startup
            metrics = self.per_layer(tracer.spans, samples, startup, rounds, communities)
            units = PER_LAYER
        else:
            metrics = {
                # each sample over the calibration timed just before it: the machine's
                # speed changes within seconds, and set-up samples are short
                "setup_s": CALIBRATION_REF_S * statistics.median(setup_cal),
                # every command weighs the same, so doubling any one of them shows
                "command_gm_cal": statistics.geometric_mean(record["command_cal"].values()),
                # the mean over the networks: the peak depends on the partition found
                "peak_rss_mb": statistics.fmean(max(by_command.values())
                                                for by_command in rss.values()),
            }
            units = END_TO_END
        record["metrics"] = metrics
        record["result"] = {
            "correct": not self.failures, "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                        for name in units}}
        return record

    def setup_sample(self) -> float:
        """A fresh process that imports multimod and loads the workload's inputs."""
        flags = self.workload.flags
        ordering = flags.ordering if flags.objective == "q" else "auto"
        lines = ["import multimod"]
        for inst in self.instances:
            lines.append(f"net = multimod.read_network({inst.name + '/' + NETWORK!r}, "
                         f"ordering_mode={ordering!r}, time_aware={flags.time_aware!r})")
            if self.workload.given_communities:
                lines.append(f"multimod.read_communities(net, {inst.name + '/' + GIVEN!r})")
        result = self.cli(["-c", "\n".join(lines)], self.work)
        self.expect(result["code"] == 0, f"setup exited {result['code']}: {result['stderr']}")
        return result["wall"]

    def planted_score(self, inst) -> None:
        """Score of the planted partition under the workload's flags (for q_gap)."""
        if self.workload.given_communities:
            return
        result = self.multimod(["score", NETWORK, PLANTED, *self.workload.flags.argv(),
                                "--output", "json"], inst.dir)
        if self.expect(result["code"] == 0, f"{inst.name}: planted score exited "
                       f"{result['code']}: {result['stderr']}"):
            inst.q_planted = json.loads(result["stdout"])["total"]

    # -- correctness gate -----------------------------------------------------------

    def check(self, inst, command, result, round_id: int) -> None:
        where = f"{inst.name}/{command.key} round {round_id}"
        if not self.expect(result["code"] == 0,
                           f"{where} exited {result['code']}: {result['stderr']}"):
            return
        digests = {"stdout": hashlib.sha256(result["stdout"].encode()).hexdigest()}
        for name in command.outputs:
            digests[name] = check.sha256_file(inst.dir / name)
        if command.key in inst.digests:
            self.expect(digests == inst.digests[command.key],
                        f"{where}: output differs from round 0")
        else:
            inst.digests[command.key] = digests
            getattr(self, "_check_" + command.kind)(inst, command, result, where)
        if command.kind in ("detect", "aggregate") and self.corrupt:
            _corrupt(inst.dir / command.outputs[0])

    def _check_stats(self, inst, command, result, where):
        lines = set(result["stdout"].splitlines())
        self.expect(f"entities\t{len(inst.inputs.planted)}" in lines, f"{where}: entity count")
        self.expect(f"edges\t{len(inst.inputs.edges)}" in lines, f"{where}: edge count")

    def _check_detect(self, inst, command, result, where):
        manifest = json.loads((inst.dir / command.outputs[2]).read_text(encoding="utf-8"))
        inst.manifests[command.key] = manifest
        assignment = check.read_extended(inst.dir / command.outputs[0])
        self.expect(sorted(assignment) == sorted(inst.inputs.occurrences),
                    f"{where}: community file does not cover every occurrence once")
        self.expect(len(set(assignment.values())) == manifest["communities"],
                    f"{where}: community count differs from the manifest")
        self.expect(manifest["sha256"]["extended"]
                    == check.sha256_file(inst.dir / command.outputs[0]),
                    f"{where}: manifest digest differs from the file")
        if command.flags.objective == "qms":
            value = inst.oracle.evaluator(assignment)(command.flags.gamma, command.flags.omega)
            self.expect(check.close(manifest["objective_value"], value),
                        f"{where}: objective {manifest['objective_value']!r} differs from "
                        f"the independent multislice value {value!r}")

    _check_aggregate = _check_detect

    def _check_score(self, inst, command, result, where):
        if command.rescores is None:
            total = _tsv_total(result["stdout"])
            inst.outputs[command.key] = total
            self.expect(total is not None and math.isfinite(total) and -1.0 <= total <= 1.0,
                        f"{where}: total {total!r} is not a modularity")
            return
        total = json.loads(result["stdout"])["total"]
        inst.outputs[command.key] = total
        reported = inst.manifests.get(command.rescores, {}).get("objective_value")
        self.expect(total == reported,
                    f"{where}: score {total!r} does not reproduce the manifest "
                    f"objective {reported!r}")

    def _check_sweep(self, inst, command, result, where):
        rows = [line.split("\t") for line in result["stdout"].splitlines()[1:]]
        self.expect(len(rows) == len(SWEEP_OMEGAS), f"{where}: {len(rows)} sweep rows")
        value = inst.oracle.evaluator(check.read_extended(inst.dir / GIVEN))
        for row, omega in zip(rows, SWEEP_OMEGAS):
            self.expect(float(row[1]) == omega and check.close(float(row[2]), value(1.0, omega)),
                        f"{where}: sweep row {row} differs from the independent value")
        inst.outputs[command.key] = [float(row[2]) for row in rows]

    def check_replay(self, inst, replay) -> None:
        """The traced replay must produce what the CLI produced."""
        for command in inst.commands:
            value = replay.values.get(command.key, {})
            where = f"{inst.name}/{command.key} replay"
            if command.kind in ("detect", "aggregate"):
                manifest = inst.manifests.get(command.key, {})
                self.expect(value.get("objective") == manifest.get("objective_value"),
                            f"{where}: objective differs from the CLI")
                self.expect([check.sha256_file(p) for p in value.get("files", ())]
                            == [inst.digests.get(command.key, {}).get(n)
                                for n in command.outputs[:2]],
                            f"{where}: output files differ from the CLI")
            elif command.kind == "score":
                self.expect(value.get("objective") == inst.outputs.get(command.key),
                            f"{where}: score differs from the CLI")
            elif command.kind == "sweep":
                self.expect(value.get("rows") == inst.outputs.get(command.key),
                            f"{where}: sweep differs from the CLI")

    # -- reported values ---------------------------------------------------------------

    def quality(self, inst) -> dict:
        out = {}
        for command in inst.commands:
            manifest = inst.manifests.get(command.key)
            if manifest is None:
                continue
            flat = check.read_flat(inst.dir / command.outputs[1])
            prefix = "" if command.kind == "detect" else command.kind + "_"
            out[prefix + "q_found"] = manifest["objective_value"]
            if inst.q_planted is not None:
                out[prefix + "q_gap"] = manifest["objective_value"] - inst.q_planted
            out[prefix + "nmi"] = check.nmi(flat, inst.inputs.planted)
            out[prefix + "communities"] = manifest["communities"]
            out[prefix + "passes"] = manifest["passes"]
            out[prefix + "moves"] = manifest["moves"]
        if inst.q_planted is not None:
            out["q_planted"] = inst.q_planted
        return out

    def per_layer(self, spans, samples, startup, rounds, communities) -> dict:
        # the CLI's commands only: the replay's quality step has no CLI counterpart
        names = [f"{inst.name}/{c.key}" for inst in self.instances for c in inst.commands]
        session_ids = [[f"{r}:{name}" for name in names] for r in range(rounds)]
        by_round = []
        for ids in session_ids:
            totals = {}
            for cid in ids:
                for name, seconds in span_totals(spans, cid).items():
                    totals[name] = totals.get(name, 0.0) + seconds
            by_round.append(totals)
        metrics = {name: statistics.median(math.fsum(t.get(n, 0.0) for n in span_names)
                                           for t in by_round)
                   for name, span_names in LAYER_SPANS.items()}
        traced = [math.fsum(t.values()) for t in by_round]
        replay_wall = [math.fsum(command_wall(spans, cid) for cid in ids)
                       for ids in session_ids]
        cli_total = [math.fsum(v[r] for v in samples.values()) for r in range(rounds)]
        metrics.update({
            "cli.startup_s": statistics.median(startup),
            "cli.unaccounted_s": statistics.median(cli_total) - statistics.median(traced),
            "mlgraph.input_bytes": sum(size for inst in self.instances
                                       for name, size in inst.inputs.sizes.items()
                                       if name != PLANTED),
            "mlgraph.occurrences": sum(len(inst.inputs.occurrences) for inst in self.instances),
            "mlgraph.edges": sum(len(inst.inputs.edges) for inst in self.instances),
            "community.communities": sum(communities.values()),
            "trace.overhead_s": statistics.median(
                wall - spent for wall, spent in zip(replay_wall, traced)),
        })
        return metrics


def _corrupt(path: Path) -> None:
    """Test hook: move one occurrence to a community of its own."""
    lines = path.read_text(encoding="utf-8").splitlines()
    entity, layer, _ = lines[0].split()
    lines[0] = f"{entity} {layer} corrupted"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tsv_total(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("total\t"):
            return float(line.split("\t", 1)[1])
    return None


def print_detail(record: dict) -> None:
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"rounds {record['rounds']} generate {record['generate_s']:.3f}s")
    m = record["machine"]
    print(f"# machine python {m['python']} nproc {m['nproc']} cpu {m['cpu_model']!r} "
          f"load {m['loadavg_before'][0]:.2f}->{m['loadavg_after'][0]:.2f} calibration "
          f"mean {statistics.fmean(record['calibration_s']):.4f}s")
    print(f"# session_s {record['session_s']!r} s (sum of command medians, raw wall time)")
    print(f"# setup median {statistics.median(record['setup_samples_s'])!r} s (raw wall time)")
    for key, value in record["command_cal"].items():
        print(f"# command_cal {key} {value!r} cal")
    for name, digest in record["inputs_sha256"].items():
        print(f"# input {name} {record['input_bytes'][name]} bytes sha256 {digest}")
    for key, seconds in record["command_median_s"].items():
        samples = " ".join(f"{s:.3f}" for s in record["command_samples_s"][key])
        print(f"# command {key:16s} median {seconds:8.4f} s  samples [{samples}]  "
              f"argv {' '.join(record['argv'][key])}")
    quality = {}
    for readings in record["quality"].values():
        for key, value in readings.items():
            quality.setdefault(key, []).append(value)
    for key, values in quality.items():
        print(f"# quality {key} {' '.join(repr(v) for v in values)}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    units = PER_LAYER if record["trace"] else END_TO_END
    for name, value in record["metrics"].items():
        unit, better = units[name]
        print(f"# metric {name} {value!r} {unit} ({better} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two rounds, for the self-test")
    parser.add_argument("--corrupt-communities", action="store_true", dest="corrupt",
                        help="test hook: corrupt every detect output before it is re-scored")
    args = parser.parse_args(argv)
    if not (SRC / "multimod" / "cli.py").is_file():
        print(f"error: no multimod sources at {SRC}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        record = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       args.smoke, args.corrupt, work, launcher).run()
    finally:
        launcher.stdin.close()
        launcher.wait()
        launcher.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_detail(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

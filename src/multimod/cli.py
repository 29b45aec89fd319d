"""Command-line front end: stats, score, detect, sweep.

Exit codes: 0 success, 2 input or parse error, 3 policy conflict,
4 resource guard tripped, 141 standard output closed by its reader.

Each command imports the modules it runs inside its ``cmd_*`` function, so
a process loads only what its command needs: ``stats`` the network and the
worker map, ``sweep`` also the community and scoring modules, ``score``
also detection for the q and qms objectives (a newman score builds none),
``detect`` everything.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import GuardError, InputError, PolicyError

_COUPLING_KINDS = {
    "none": "none",
    "sym": "symmetric",
    "asym-inner": "asym-inner",
    "asym-outer": "asym-outer",
}


def _parse_resolution(text: str):
    from .modularity import ResolutionPolicy

    if text == "redundancy":
        return ResolutionPolicy.redundancy()
    if text.startswith("constant:"):
        try:
            gamma = float(text.split(":", 1)[1])
        except ValueError:
            raise PolicyError(f"bad resolution value {text!r}") from None
        return ResolutionPolicy.constant(gamma)
    raise PolicyError(f"unknown resolution {text!r}, expected constant:<float> or redundancy")


def _objective(args):
    """The objective the flags name: a ``MultilayerObjective`` for q, a
    ``MultisliceObjective`` for qms, None for newman. The commands build it,
    and so check their flags, before they read any file, so a bad flag
    costs no load. Each branch imports only its own objective class."""
    if args.time_aware and args.ordering == "none":
        raise PolicyError("--time-aware requires --ordering natural-adjacent or natural-pairwise")
    if args.objective == "qms":
        from .detect import MultisliceObjective
        return MultisliceObjective(gamma=args.gamma, omega=args.omega)
    if args.objective != "q":
        return None
    from .detect import MultilayerObjective
    from .modularity import CouplingPolicy

    resolution = _parse_resolution(args.resolution)  # checked before the coupling
    return MultilayerObjective(resolution=resolution, coupling=CouplingPolicy(
        _COUPLING_KINDS[args.coupling], time_aware=args.time_aware))


def _objective_record(args) -> dict:
    """The flags the objective reads, as ``detect``'s manifest and ``score``'s
    qms and newman JSON record them."""
    if args.objective == "q":
        return {"objective": "q", "resolution": args.resolution,
                "coupling": args.coupling, "time_aware": args.time_aware}
    if args.objective == "qms":
        return {"objective": "qms", "gamma": args.gamma, "omega": args.omega}
    return {"objective": "newman"}


def _add_policy_flags(parser, objectives=("q", "qms", "newman")):
    parser.add_argument("--objective", choices=objectives, default="q")
    parser.add_argument("--resolution", default="constant:1",
                        help="constant:<float> or redundancy (default constant:1)")
    parser.add_argument("--coupling", choices=sorted(_COUPLING_KINDS), default="none")
    parser.add_argument("--time-aware", action="store_true", dest="time_aware")
    parser.add_argument("--ordering", choices=["none", "natural-adjacent", "natural-pairwise"],
                        default="none")
    parser.add_argument("--gamma", type=float, default=1.0,
                        help="multislice resolution (qms objective)")
    parser.add_argument("--omega", type=float, default=0.0,
                        help="multislice coupling weight (qms objective)")


def cmd_stats(args) -> int:
    from ._workers import layer_map
    from .mlgraph import LayerStats, _mean, _pstdev, read_network

    net = read_network(args.network, ordering_mode="auto")
    # the layers' statistics in up to min(layers, usable CPUs) processes, as
    # four floats each, which marshal carries bit for bit
    stats = layer_map(lambda layer: tuple(net.monoplex_stats(layer)), net.layer_ids)
    per_layer = [(layer, LayerStats(*s)) for layer, s in zip(net.layer_ids, stats)]
    lines = ["key\tvalue"]
    lines.append(f"entities\t{net.num_entities}")
    lines.append(f"edges\t{net.num_edges()}")
    lines.append(f"layers\t{net.num_layers}")
    lines.append(f"node_coverage\t{net.node_coverage():.2f}")
    lines.append(f"edge_coverage\t{net.edge_coverage():.2f}")
    for key, pick in (("degree_mean", lambda s: s.degree_mean),
                      ("avg_path_length", lambda s: s.avg_path_length),
                      ("clustering", lambda s: s.clustering_coefficient)):
        values = [pick(s) for _, s in per_layer]
        lines.append(f"{key}_mean\t{_mean(values)!r}")
        lines.append(f"{key}_std\t{_pstdev(values)!r}")
    lines.append("")
    lines.append("layer\tnodes\tedges\tdegree_mean\tdegree_std\tavg_path_length\tclustering")
    for li, (layer, s) in enumerate(per_layer):
        lines.append(f"{layer}\t{len(net.presence_idx(li))}\t{net.num_edges(layer)}\t"
                     f"{s.degree_mean!r}\t{s.degree_std!r}\t{s.avg_path_length!r}\t"
                     f"{s.clustering_coefficient!r}")
    print("\n".join(lines))
    return 0


def cmd_score(args) -> int:
    import json

    from .community import read_communities
    from .mlgraph import read_network
    from .modularity import multilayer_modularity, newman_modularity

    objective = _objective(args)
    net = read_network(args.network, ordering_mode=args.ordering)
    cs = read_communities(net, args.communities)
    if args.objective == "q":
        report = multilayer_modularity(net, cs, objective.resolution, objective.coupling)
        if args.output == "json":
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"objective\tq\ntotal\t{report.total!r}\nnormalization\t{report.normalization}")
            print()
            print(report.to_tsv(), end="")
    else:
        value = objective.score(net, cs) if objective else newman_modularity(net, cs)
        if args.output == "json":
            print(json.dumps({**_objective_record(args), "total": value}, sort_keys=True))
        else:
            print(f"objective\t{args.objective}\ntotal\t{value!r}")
    return 0


# bytes the manifest digests read at a time, so an output is never held whole
_DIGEST_BLOCK = 1 << 16


def _sha256(path) -> str:
    # the interpreter's own SHA-256 first, as the standard library's random
    # module takes its SHA-512: hashlib would map the OpenSSL library for the
    # digests of two files. Imported here, so that only detect pays for it.
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    digest = sha256()
    with open(path, "rb") as handle:
        while block := handle.read(_DIGEST_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def cmd_detect(args) -> int:
    import json

    from .community import write_communities, write_flat_partition
    from .detect import DetectConfig, aggregate_majority, generalized_louvain
    from .mlgraph import read_network

    config = DetectConfig(objective=_objective(args), seed=args.seed,
                          max_passes=args.max_passes, min_gain=args.min_gain)
    # fail before the load and the detection; a prefix naming a directory
    # would write hidden files (".communities") into it
    if os.path.basename(args.out) in ("", ".", ".."):
        raise InputError(f"output prefix {args.out!r} names a directory, not a file prefix")
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise InputError(f"output directory {out_dir!r} does not exist")
    net = read_network(args.network, ordering_mode=args.ordering)
    if args.method == "gl":
        result = generalized_louvain(net, config)
    else:
        result = aggregate_majority(net, config)

    extended = f"{args.out}.communities"
    flattened = f"{args.out}.flat"
    manifest_path = f"{args.out}.manifest.json"
    write_communities(result.structure, extended)
    write_flat_partition(result.partition, flattened)

    manifest = {
        "command": "detect",
        "version": __version__,
        "network": str(args.network),
        "ordering": args.ordering,
        "method": args.method,
        "seed": args.seed,
        "max_passes": args.max_passes,
        "min_gain": args.min_gain,
        "objective": _objective_record(args),
        "objective_value": result.objective,
        "communities": result.structure.num_communities,
        "passes": result.passes,
        "moves": result.moves,
        "outputs": {"extended": extended, "flattened": flattened},
        "sha256": {"extended": _sha256(extended), "flattened": _sha256(flattened)},
    }
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"objective\t{result.objective!r}")
    print(f"communities\t{result.structure.num_communities}")
    print(f"passes\t{result.passes}")
    print(f"moves\t{result.moves}")
    print(f"wrote\t{extended}")
    print(f"wrote\t{flattened}")
    print(f"wrote\t{manifest_path}")
    return 0


_SWEEP_RANGES = {"gamma": (0.0, 2.0), "gamma-omega": (0.0, 1.0), "omega": (0.0, 2.0)}
# rows one sweep may score and hold in memory; --step 1e-4 over [0, 2] is 20001
_SWEEP_MAX_ROWS = 100_000


def _sweep_points(args) -> list:
    """The sweep's (gamma, omega) rows, from the flags alone; each is
    checked here, so a bad point costs no load."""
    from .modularity import _check_multislice_values

    default_start, default_stop = _SWEEP_RANGES[args.protocol]
    start = default_start if args.start is None else args.start
    stop = default_stop if args.stop is None else args.stop
    for name, value in (("--start", start), ("--stop", stop), ("--step", args.step)):
        if not math.isfinite(value):
            raise PolicyError(f"{name} must be a finite number")
    if args.step <= 0:
        raise PolicyError("--step must be > 0")
    if stop < start:
        raise PolicyError("--stop must be >= --start")
    if (stop - start) / args.step + 1 > _SWEEP_MAX_ROWS:
        raise GuardError(f"--step {args.step!r} over [{start!r}, {stop!r}] gives more than "
                         f"{_SWEEP_MAX_ROWS} rows")

    points = []
    i = 0
    while True:
        t = start + i * args.step
        if t > stop + 1e-9:
            break
        t = min(t, stop)  # a point within the tolerance past --stop reads as --stop
        if args.protocol == "gamma":
            gamma, omega = t, 0.0
        elif args.protocol == "gamma-omega":
            gamma, omega = t, 1.0 - t
            if omega < 0:
                raise PolicyError("gamma-omega protocol requires gamma <= 1 so omega stays >= 0")
        else:
            gamma, omega = 1.0, t
        _check_multislice_values(gamma, omega)
        points.append((gamma, omega))
        if t == stop:  # the last row, also where start + i * step rounds back to t
            break
        i += 1
    return points


def cmd_sweep(args) -> int:
    from .community import read_communities
    from .mlgraph import read_network
    from .modularity import multislice_modularity

    points = _sweep_points(args)
    net = read_network(args.network, ordering_mode="none")  # qms reads no ordering
    cs = read_communities(net, args.communities)
    rows = ["gamma\tomega\tq_ms"]
    for gamma, omega in points:
        value = multislice_modularity(net, cs, gamma, omega)
        rows.append(f"{gamma!r}\t{omega!r}\t{value!r}")
    print("\n".join(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multimod",
                                     description="Multilayer modularity scoring and detection")
    parser.add_argument("--version", action="version", version=f"multimod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset and per-layer statistics")
    p_stats.add_argument("network")
    p_stats.set_defaults(func=cmd_stats)

    p_score = sub.add_parser("score", help="score a community file against a network")
    p_score.add_argument("network")
    p_score.add_argument("communities")
    _add_policy_flags(p_score)
    p_score.add_argument("--output", choices=["tsv", "json"], default="tsv")
    p_score.set_defaults(func=cmd_score)

    p_detect = sub.add_parser("detect", help="detect communities")
    p_detect.add_argument("network")
    p_detect.add_argument("--method", choices=["gl", "aggregate"], default="gl")
    _add_policy_flags(p_detect, objectives=("q", "qms"))
    p_detect.add_argument("--seed", type=int, default=0)
    p_detect.add_argument("--max-passes", type=int, default=50, dest="max_passes")
    p_detect.add_argument("--min-gain", type=float, default=1e-9, dest="min_gain")
    p_detect.add_argument("--out", default="detect", help="output path prefix")
    p_detect.set_defaults(func=cmd_detect)

    p_sweep = sub.add_parser("sweep", help="multislice parameter sweeps")
    p_sweep.add_argument("network")
    p_sweep.add_argument("communities")
    p_sweep.add_argument("--protocol", choices=sorted(_SWEEP_RANGES), required=True)
    p_sweep.add_argument("--step", type=float, default=0.1)
    p_sweep.add_argument("--start", type=float, default=None)
    p_sweep.add_argument("--stop", type=float, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a reader who quit is found here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout quit: nothing more can reach it, and the
        # interpreter's last flush must not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except PolicyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

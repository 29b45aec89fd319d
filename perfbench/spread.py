"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 --seconds 35 [--workloads planted-ms,score-large]

Runs perfbench/run.py once per (seed, workload), workloads round-robin so
machine drift spreads over all of them, and prints for each end-to-end
metric its median and its quartile spread (q3 - q1) / median, the
statistics.quantiles(n=4) definition, next to the bound in BENCHMARK.json.
Also prints the per-command times and quality readings the runs recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in seeds(args.seeds):
        for workload in workloads:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            record = json.loads((HERE / "results" /
                                 f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            runs[workload].append((result, record))
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f}s "
                  f"correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for workload in workloads:
        print(f"\n== {workload} ({len(runs[workload])} runs)")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in runs[workload]]
            line = (f"  {metric['name']:22s} median {statistics.median(values):.6g} "
                    f"{metric['unit']}")
            if len(values) >= 2:
                s = spread(values)
                line += f"  spread {s:.4f}"
                if "bound" in metric:
                    line += f"  bound {metric['bound']}  bound/3 {metric['bound'] / 3:.4f}"
                    if s > metric["bound"]:
                        ok = False
                        line += "  OVER BOUND"
            print(line)
        raw = {
            "raw session_s": [record["session_s"] for _, record in runs[workload]],
            "raw setup_s": [statistics.median(record["setup_samples_s"])
                            for _, record in runs[workload]],
            "calibration_s": [statistics.fmean(record["calibration_s"])
                              for _, record in runs[workload]],
        }
        for _, record in runs[workload]:
            for key, value in record["command_cal"].items():
                raw.setdefault(f"{key} cal", []).append(value)
        for key, values in raw.items():
            print(f"  {key:22s} median {statistics.median(values):.6g}"
                  + (f"  spread {spread(values):.4f}" if len(values) >= 2 else ""))
        commands = {}
        quality = {}
        for _, record in runs[workload]:
            for key, value in record["command_median_s"].items():
                commands.setdefault(key, []).append(value)
            for readings in record["quality"].values():
                for key, value in readings.items():
                    quality.setdefault(key, []).append(value)
            if not record["result"]["correct"]:
                ok = False
        for key, values in commands.items():
            print(f"  command {key:16s} median {statistics.median(values):.4f} s")
        for key, values in quality.items():
            print(f"  quality {key:22s} median {statistics.median(values):.6g} "
                  f"[{min(values):.6g}, {max(values):.6g}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

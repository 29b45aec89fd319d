"""Self-test of the benchmark on tiny inputs.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int, *extra: str, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert declared == table
    assert set(WORKLOADS) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_unit_and_direction(workload, trace):
    proc = smoke(workload, trace)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert isinstance(reading["value"], (int, float))
        if not trace:
            assert reading["value"] > 0
        assert (f"# metric {metric['name']} {reading['value']!r} {metric['unit']} "
                f"({metric['better']} is better)") in proc.stdout


@pytest.mark.parametrize("seed", [1933879311, 2**40 + 7])
def test_large_seeds_pass(seed):
    # the per-process hash seeds derived from the seed must stay below 2**32
    result = last_json(smoke("planted-ms", 0, seed=seed))
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("workload", ["planted-ms", "planted-ml"])
def test_gate_trips_on_corrupted_community_file(workload):
    proc = smoke(workload, 0, "--corrupt-communities")
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "does not reproduce the manifest objective" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = smoke("planted-ms", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generator_is_seeded_and_sparse():
    spec = gen.Spec(entities=200, communities=4, layers=2, presence=0.9, p_in=0.2, p_out=0.01)
    first = gen.planted(spec, 3)
    assert gen.planted(spec, 3) == first
    assert gen.planted(spec, 4)[2] != first[2]
    _, _, edges, _, labels, _ = first
    assert len(set(edges)) == len(edges)
    inside = sum(labels[u] == labels[v] for _, u, v in edges)
    # about 45 of 50 members present per layer: 2 layers x 4 x C(45, 2) x 0.2 ~ 1584 inside
    # and 2 layers x 6 community pairs x 45^2 x 0.01 ~ 243 across
    assert 1400 < inside < 1770
    assert 170 < len(edges) - inside < 320
    assert all(u != v for _, u, v in edges)

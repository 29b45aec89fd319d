"""Shared fixtures: small hand-built networks used across the suite."""

from __future__ import annotations

import glob
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multimod as mm
from multimod import mlgraph

# A three-layer network with a natural order and a known entity partition.
# Layer node sets: V1 = e01..e12, V2 = e01..e09, V3 = e04..e12.
# Communities: C1 = {e01, e02, e10}, C2 = {e03..e06}, C3 = {e07,e08,e09,e11,e12},
# so C1 projects 3 entities on L1 and 2 on L2 (both also on L1).
ORDERED3_ENTITIES = [f"e{i:02d}" for i in range(1, 13)]
ORDERED3_PRESENCE = (
    [("L1", e) for e in ORDERED3_ENTITIES]
    + [("L2", e) for e in ORDERED3_ENTITIES[:9]]
    + [("L3", e) for e in ORDERED3_ENTITIES[3:]]
)
ORDERED3_EDGES = [
    ("L1", "e01", "e02"), ("L1", "e01", "e10"), ("L1", "e03", "e04"),
    ("L1", "e04", "e05"), ("L1", "e05", "e06"), ("L1", "e07", "e08"),
    ("L1", "e08", "e09"), ("L1", "e11", "e12"),
    ("L2", "e01", "e02"), ("L2", "e03", "e04"), ("L2", "e05", "e06"),
    ("L2", "e07", "e08"), ("L2", "e07", "e09"),
    ("L3", "e04", "e05"), ("L3", "e04", "e06"), ("L3", "e07", "e09"),
    ("L3", "e08", "e11"), ("L3", "e11", "e12"),
]
ORDERED3_PARTITION = {
    "e01": "C1", "e02": "C1", "e10": "C1",
    "e03": "C2", "e04": "C2", "e05": "C2", "e06": "C2",
    "e07": "C3", "e08": "C3", "e09": "C3", "e11": "C3", "e12": "C3",
}


def build_ordered3(scheme=mm.PairingScheme.ADJACENT, time_aware=False):
    ordering = mm.LayerOrdering.natural(("L1", "L2", "L3"), scheme, time_aware)
    return mm.build_network(entities=ORDERED3_ENTITIES, layers=["L1", "L2", "L3"],
                            edges=ORDERED3_EDGES, presence=ORDERED3_PRESENCE,
                            ordering=ordering)


def ordered3_network_text() -> str:
    lines = ["%order L1 L2 L3"]
    lines += [f"%presence {l} {e}" for l, e in ORDERED3_PRESENCE]
    lines += [f"{l} {u} {v}" for l, u, v in ORDERED3_EDGES]
    return "\n".join(lines) + "\n"


def ordered3_partition_text() -> str:
    return "\n".join(f"{e} {c}" for e, c in sorted(ORDERED3_PARTITION.items())) + "\n"


@pytest.fixture
def ordered3():
    return build_ordered3()


@pytest.fixture
def ordered3_cs(ordered3):
    return mm.CommunityStructure.from_entity_partition(ordered3, ORDERED3_PARTITION)


TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


@pytest.fixture
def two_triangles():
    """Single layer, two disjoint triangles over entities 0..5."""
    return mm.build_network(layers=["L"], edges=[("L", u, v) for u, v in TRIANGLES])


@pytest.fixture
def twin_triangle_layers():
    """Two identical layers, each two disjoint triangles over entities 0..5."""
    edges = [(l, u, v) for l in ("x", "y") for u, v in TRIANGLES]
    return mm.build_network(layers=["x", "y"], edges=edges)


# Every line break str.splitlines knows; the readers' line numbers follow them all.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.fixture(params=[1, 2, 3, 5, 7, None], ids=lambda size: f"chunk{size or '-default'}")
def chunk(request, monkeypatch):
    """The file readers' chunk size in characters; None leaves the default.
    A tiny chunk splits a CRLF between the chunk's ``read`` and the
    ``readline`` that completes its line."""
    if request.param is not None:
        monkeypatch.setattr(mlgraph, "_CHUNK", request.param)
    return request.param


def line_source_matches_text(path) -> bool:
    """Whether the readers' line source gives the lines of the whole text of
    ``path``, numbered from 1: ``enumerate(read_utf8(path).splitlines(), start=1)``."""
    with mlgraph._lines(path) as lines:
        return list(lines) == list(enumerate(mlgraph.read_utf8(path).splitlines(), start=1))


@pytest.fixture
def opened_files(monkeypatch):
    """The files the readers' line source opens, in opening order."""
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(mlgraph, "open", recording_open, raising=False)
    return opened


def python_fresh(*args, python=sys.executable):
    """The interpreter ``python`` (by default the running one) on ``args`` in
    a fresh process that imports this package, with a timeout: an unbounded
    run fails instead of hanging the suite."""
    src = Path(mm.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([python, *args],
                          capture_output=True, text=True, timeout=60, env=env)


def live_children() -> dict:
    """pid -> command line of each live child process of this process, as
    /proc lists the children of each of its threads; None where /proc lists
    no children (no /proc, or a kernel that does not keep the lists). A
    zombie, dead and waiting to be reaped, is not live."""
    lists = glob.glob("/proc/self/task/*/children")
    if not lists:
        return None
    alive = {}
    for path in lists:
        try:
            pids = Path(path).read_text().split()
        except OSError:  # the thread ended
            continue
        for pid in pids:
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:  # the child ended
                continue
            if state != "Z":
                alive[int(pid)] = cmdline.replace(b"\0", b" ").decode(errors="replace").strip()
    return alive


@pytest.fixture(scope="session", autouse=True)
def no_leaked_children():
    """Fails the run when a child process of pytest is alive after the last
    test: a child that holds the output pipe keeps a piped run from
    returning after the summary. It only reports; it kills nothing."""
    yield
    alive = live_children()
    if alive:
        pytest.fail("child processes outlived the tests: " + "; ".join(
            f"pid {pid}: {cmdline!r}" for pid, cmdline in sorted(alive.items())), pytrace=False)

"""The per-layer map over forked workers: the serial map's results and
errors, whatever the number of usable CPUs, and no process left behind."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import multimod as mm
from multimod import _workers
from multimod.cli import main
from multimod.errors import InputError

from conftest import live_children

# five layers: two CPUs split them 2 + 3, three CPUs 1 + 2 + 2
FIVE_LAYERS = mm.PlantedSpec(entities=80, communities=4, layers=5, p_in=0.3, p_out=0.02,
                             presence=0.8, seed=11)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the usable CPUs ``layer_map`` sees, and counts its forks."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        return forks

    return use


@pytest.fixture(scope="module")
def five_layers():
    net, _ = mm.planted_multilayer(FIVE_LAYERS)
    assert net.num_layers == 5 and all(net.num_edges(layer) for layer in net.layer_ids)
    return net


def _aggregate(net):
    config = mm.DetectConfig(objective=mm.MultisliceObjective(gamma=1.0, omega=1.0), seed=3)
    res = mm.aggregate_majority(net, config)
    assert_no_children()
    return (res.structure.as_assignment(), res.partition, res.objective, res.passes, res.moves)


def _stats(capsys, path):
    assert main(["stats", str(path)]) == 0
    assert_no_children()
    return capsys.readouterr()


@pytest.mark.parametrize("count", [2, 3])
def test_same_as_serial(cpus, capsys, tmp_path, five_layers, count):
    """``aggregate_majority`` and ``stats`` give the one-CPU results when
    the layers are split unevenly over forked workers."""
    path = tmp_path / "net.mlg"
    mm.write_network(five_layers, path)
    forks = cpus(1)
    serial = _aggregate(five_layers), _stats(capsys, path)
    assert not forks
    cpus(count)
    assert (_aggregate(five_layers), _stats(capsys, path)) == serial
    assert len(forks) == 2 * (count - 1)


def test_child_error_reads_as_serial(cpus, monkeypatch, five_layers):
    """An error in a child's share is raised again by the parent, which
    computes that share itself, with the serial run's message."""
    louvain = mm.detect._layer_louvain
    last = five_layers.layer_ids[-1]

    def failing(net, layer, *args):
        if layer == last:
            raise InputError(f"layer {layer!r} refused")
        return louvain(net, layer, *args)

    monkeypatch.setattr("multimod.detect._layer_louvain", failing)
    messages = []
    for count in (1, 2):
        forks = cpus(count)
        with pytest.raises(InputError) as info:
            _aggregate(five_layers)
        assert_no_children()
        messages.append(str(info.value))
    assert len(forks) == 1
    assert messages == [f"layer {last!r} refused"] * 2


def test_killed_or_unwritable_child_share_is_recomputed(cpus):
    """A child killed mid-share, or one whose results marshal cannot write,
    leaves its share to the parent."""
    parent = os.getpid()

    def dies_in_child(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x * x

    def unwritable_in_child(x):
        return object() if os.getpid() != parent else x * x

    forks = cpus(3)
    for fn in (dies_in_child, unwritable_in_child):
        assert _workers.layer_map(fn, range(7)) == [x * x for x in range(7)]
        assert_no_children()
    assert len(forks) == 4


def test_parent_error_reaps_every_child(cpus):
    """An error in the parent's own share ends the call with no child left."""
    cpus(2)

    def fail_first(x):
        if x == 0:
            raise ValueError("first")
        return x

    with pytest.raises(ValueError, match="first"):
        _workers.layer_map(fail_first, range(4))
    assert_no_children()


def test_failed_fork_maps_in_process(monkeypatch):
    def no_fork():
        raise OSError("no process")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", no_fork)
    assert _workers.layer_map(str, range(5)) == [str(x) for x in range(5)]
    assert_no_children()


@pytest.mark.parametrize("case", ["one item", "one cpu", "live thread", "no fork",
                                  "no affinity"])
def test_serial_without_fork(monkeypatch, case):
    """One item, one usable CPU, a second live thread, or a platform without
    ``os.fork`` or ``sched_getaffinity``: the map runs in process."""
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    items = range(4)
    if case == "one item":
        items = [3]
    elif case == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "no fork":
        monkeypatch.delattr(os, "fork")
    elif case == "no affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(10,))
    if case == "live thread":
        thread.start()
    try:
        assert _workers.layer_map(lambda x: x + 1, items) == [x + 1 for x in items]
    finally:
        stop.set()
        if case == "live thread":
            thread.join(10)
            assert not thread.is_alive()
    assert_no_children()


def test_live_children_lists_a_running_child_and_not_a_zombie():
    # the session's leaked-child check reads these lists
    if live_children() is None:
        pytest.skip("/proc lists no child processes here")
    running = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    ended = subprocess.Popen([sys.executable, "-c", ""])
    try:
        deadline = time.monotonic() + 30
        while Path(f"/proc/{ended.pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z":
            assert time.monotonic() < deadline, "the empty child did not exit"
            time.sleep(0.01)
        alive = live_children()
        assert "time.sleep(60)" in alive[running.pid]
        assert ended.pid not in alive
    finally:
        running.kill()
        running.wait(timeout=30)
        ended.wait(timeout=30)
    alive = live_children()
    assert running.pid not in alive and ended.pid not in alive

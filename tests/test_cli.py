"""Command-line interface: outputs, round-trips, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

import multimod as mm
import multimod.cli as cli
from multimod import detect, mlgraph, modularity
from multimod.cli import main

from _brute import multislice_direct
from _gen import save_planted
from conftest import ordered3_network_text, ordered3_partition_text, python_fresh


_POLICY = {"--objective", "--resolution", "--coupling", "--time-aware", "--ordering",
           "--gamma", "--omega"}
# each command's option strings; a flag comes or goes only with a note in CHANGES.md
OPTIONS = {
    None: {"-h", "--help", "--version"},
    "stats": {"-h", "--help"},
    "score": {"-h", "--help", *_POLICY, "--output"},
    "detect": {"-h", "--help", *_POLICY, "--method", "--seed", "--max-passes", "--min-gain",
               "--out"},
    "sweep": {"-h", "--help", "--protocol", "--step", "--start", "--stop"},
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv):
    """The CLI in a fresh process."""
    return python_fresh("-m", "multimod.cli", *argv)


def parse_kv(block: str) -> dict:
    out = {}
    for line in block.splitlines():
        if "\t" in line:
            key, _, value = line.partition("\t")
            out[key] = value
    return out


@pytest.fixture
def ordered3_files(tmp_path):
    npath = tmp_path / "net.mlg"
    cpath = tmp_path / "comm.txt"
    npath.write_text(ordered3_network_text(), encoding="utf-8")
    cpath.write_text(ordered3_partition_text(), encoding="utf-8")
    return str(npath), str(cpath)


@pytest.fixture
def triangle_files(tmp_path):
    npath = tmp_path / "tri.mlg"
    cpath = tmp_path / "tri.comm"
    npath.write_text("L a b\nL b c\nL a c\n", encoding="utf-8")
    cpath.write_text("a 0\nb 0\nc 0\n", encoding="utf-8")
    return str(npath), str(cpath)


class TestStats:
    def test_triangle(self, capsys, triangle_files):
        code, out, _ = run(capsys, ["stats", triangle_files[0]])
        assert code == 0
        kv = parse_kv(out.split("\n\n")[0])
        assert kv["entities"] == "3"
        assert kv["edges"] == "3"
        assert kv["clustering_mean"] == "1.0"

    def test_full_coverage_three_layers(self, capsys, tmp_path):
        lines = []
        for l in ("r1", "r2", "r3"):
            for i in range(29):
                lines.append(f"%presence {l} v{i:02d}")
            lines += [f"{l} v{i:02d} v{i + 1:02d}" for i in range(0, 28, 2)]
        path = tmp_path / "full.mlg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, ["stats", str(path)])
        assert code == 0
        kv = parse_kv(out.split("\n\n")[0])
        assert kv["node_coverage"] == "1.00"
        assert kv["edge_coverage"] == "0.33"

    def test_layer_without_occurrence(self, capsys, tmp_path):
        # %order may name a layer nothing occurs in; its row reads all zeros
        path = tmp_path / "gap.mlg"
        path.write_text("%order A B C\nA x y\nA y z\nC x z\n", encoding="utf-8")
        code, out, _ = run(capsys, ["stats", str(path)])
        assert code == 0
        assert out == (
            "key\tvalue\nentities\t3\nedges\t3\nlayers\t3\n"
            "node_coverage\t0.56\nedge_coverage\t0.33\n"
            "degree_mean_mean\t0.7777777777777777\ndegree_mean_std\t0.5665577237325317\n"
            "avg_path_length_mean\t0.7777777777777777\n"
            "avg_path_length_std\t0.5665577237325317\n"
            "clustering_mean\t0.0\nclustering_std\t0.0\n\n"
            "layer\tnodes\tedges\tdegree_mean\tdegree_std\tavg_path_length\tclustering\n"
            "A\t3\t2\t1.3333333333333333\t0.4714045207910317\t1.3333333333333333\t0.0\n"
            "B\t0\t0\t0.0\t0.0\t0.0\t0.0\n"
            "C\t2\t1\t1.0\t0.0\t1.0\t0.0\n")

    def test_malformed_line(self, capsys, tmp_path):
        path = tmp_path / "bad.mlg"
        path.write_text("L a b\nL a\n", encoding="utf-8")
        code, _, err = run(capsys, ["stats", str(path)])
        assert code == 2
        assert "line 2: expected 3 tokens" in err

    @pytest.mark.parametrize("directive", ["%order %a L", "%presence %a x"])
    def test_directive_layer_starting_with_percent(self, capsys, tmp_path, directive):
        path = tmp_path / "bad.mlg"
        path.write_text(f"L a b\n{directive}\n", encoding="utf-8")
        code, _, err = run(capsys, ["stats", str(path)])
        assert code == 2
        assert "line 2: layer id '%a' starts with '%'" in err

    @pytest.mark.parametrize("argv", [
        ["stats", "{net}"],
        ["score", "{net}", "{comm}", "--ordering", "none"],
        ["sweep", "{net}", "{comm}", "--protocol", "omega"],
        ["detect", "{net}", "--out", "{out}"],
    ])
    def test_order_naming_a_layer_twice(self, capsys, tmp_path, argv):
        # refused in every ordering mode, not only where the order is used
        net = tmp_path / "net.mlg"
        net.write_text("L2 x y\n%order L1 L1\nL1 a b\nL1 b c\n", encoding="utf-8")
        comm = tmp_path / "comm.txt"
        comm.write_text("a 0\nb 0\nc 0\nx 1\ny 1\n", encoding="utf-8")
        paths = {"net": net, "comm": comm, "out": tmp_path / "run"}
        code, out, err = run(capsys, [a.format(**paths) for a in argv])
        assert code == 2
        assert out == ""
        assert err == "error: line 2: %order names a layer twice\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["comm.txt", "net.mlg"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["stats", str(tmp_path / "nope.mlg")])
        assert code == 2

    def test_order_without_entities(self, capsys, tmp_path):
        path = tmp_path / "empty.mlg"
        path.write_text("%order a\n", encoding="utf-8")
        code, out, err = run(capsys, ["stats", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: network has no entities\n"


class TestScore:
    def test_newman_equals_q_on_single_layer(self, capsys, triangle_files):
        npath, cpath = triangle_files
        _, out_q, _ = run(capsys, ["score", npath, cpath, "--objective", "q",
                                   "--resolution", "constant:1", "--coupling", "none"])
        _, out_n, _ = run(capsys, ["score", npath, cpath, "--objective", "newman"])
        q = float(parse_kv(out_q)["total"])
        q_n = float(parse_kv(out_n)["total"])
        assert abs(q - q_n) <= 1e-12

    def test_asym_inner_adjacent_coupling_entry(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["score", npath, cpath, "--objective", "q",
                                    "--coupling", "asym-inner",
                                    "--ordering", "natural-adjacent"])
        assert code == 0
        table = out.split("\n\n")[1]
        rows = [line.split("\t") for line in table.strip().splitlines()[1:]]
        # community of e01 on the first ordered layer couples only to the next
        # layer, contributing 8/9 before normalization
        c1_row = [r for r in rows if r[0] == "0" and r[1] == "L1"][0]
        assert float(c1_row[4]) == pytest.approx(8 / 9, abs=1e-15)

    def test_json_output(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["score", npath, cpath, "--objective", "q",
                                    "--coupling", "sym", "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["policy"]["coupling"] == "symmetric"
        assert len(doc["terms"]) == 9

    def test_qms_matches_oracle(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["score", npath, cpath, "--objective", "qms",
                                    "--gamma", "1", "--omega", "0.5"])
        assert code == 0
        value = float(parse_kv(out)["total"])
        net = mm.read_network(npath, ordering_mode="none")
        cs = mm.read_communities(net, cpath)
        oracle = multislice_direct(net, cs.as_assignment(),
                                   [1.0] * net.num_layers, 0.5)
        assert value == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("files,flags", [
        ("ordered3_files", ["--objective", "qms", "--gamma", "1", "--omega", "0.5"]),
        ("triangle_files", ["--objective", "newman"]),
    ], ids=["qms", "newman"])
    def test_json_total_equals_tsv_total(self, capsys, request, files, flags):
        npath, cpath = request.getfixturevalue(files)
        code, tsv, _ = run(capsys, ["score", npath, cpath, *flags])
        assert code == 0
        code, out, _ = run(capsys, ["score", npath, cpath, *flags, "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == flags[1]
        assert doc["total"] == float(parse_kv(tsv)["total"])

    def test_time_aware_without_ordering(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, _, err = run(capsys, ["score", npath, cpath, "--objective", "q",
                                    "--coupling", "asym-inner", "--time-aware"])
        assert code == 3
        assert "requires --ordering" in err

    def test_newman_needs_single_layer(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        for output in ("tsv", "json"):
            code, out, err = run(capsys, ["score", npath, cpath, "--objective", "newman",
                                          "--output", output])
            assert code == 3
            assert out == ""
            assert err == "error: the newman objective requires a single-layer network\n"

    @pytest.mark.parametrize("labels,output,expected", [
        ("a 0\nb 0\nc 0\n", "tsv", "objective\tnewman\ntotal\t0.0\n"),
        ("a 0\nb 0\nc 0\n", "json", '{"objective": "newman", "total": 0.0}\n'),
        ("a 0\nb 0\nc 1\n", "tsv", "objective\tnewman\ntotal\t-0.2222222222222222\n"),
        ("a 0\nb 0\nc 1\n", "json", '{"objective": "newman", "total": -0.2222222222222222}\n'),
    ], ids=["one-tsv", "one-json", "split-tsv", "split-json"])
    def test_newman_output_pinned(self, capsys, triangle_files, labels, output, expected):
        npath, cpath = triangle_files
        Path(cpath).write_text(labels, encoding="utf-8")
        code, out, err = run(capsys, ["score", npath, cpath, "--objective", "newman",
                                      "--output", output])
        assert (code, out, err) == (0, expected, "")

    def test_qms_json_pinned(self, capsys, ordered3_files):
        code, out, err = run(capsys, ["score", *ordered3_files, "--objective", "qms",
                                      "--gamma", "1", "--omega", "0.5", "--output", "json"])
        assert (code, out, err) == (0, '{"gamma": 1.0, "objective": "qms", "omega": 0.5, '
                                       '"total": 0.7616666666666667}\n', "")

    def test_unknown_entity_in_communities(self, capsys, tmp_path, triangle_files):
        npath, _ = triangle_files
        cpath = tmp_path / "bad.comm"
        cpath.write_text("zzz 0\n", encoding="utf-8")
        code, _, err = run(capsys, ["score", npath, str(cpath)])
        assert code == 2


class TestDetect:
    def test_round_trip_and_determinism(self, capsys, tmp_path, ordered3_files):
        npath, _ = ordered3_files
        prefix = str(tmp_path / "run")
        argv = ["detect", npath, "--method", "gl", "--objective", "q",
                "--coupling", "sym", "--seed", "11", "--out", prefix]
        code, _, _ = run(capsys, argv)
        assert code == 0
        first = {ext: (tmp_path / f"run.{ext}").read_bytes()
                 for ext in ("communities", "flat", "manifest.json")}
        code, _, _ = run(capsys, argv)
        assert code == 0
        for ext, blob in first.items():
            assert (tmp_path / f"run.{ext}").read_bytes() == blob

        manifest = json.loads(first["manifest.json"])
        code, out, _ = run(capsys, ["score", npath, f"{prefix}.communities",
                                    "--objective", "q", "--coupling", "sym"])
        assert code == 0
        scored = float(parse_kv(out)["total"])
        assert scored == pytest.approx(manifest["objective_value"], abs=1e-12)

    def test_aggregate_method(self, capsys, tmp_path, ordered3_files):
        npath, _ = ordered3_files
        prefix = str(tmp_path / "agg")
        code, out, _ = run(capsys, ["detect", npath, "--method", "aggregate",
                                    "--out", prefix])
        assert code == 0
        assert (tmp_path / "agg.flat").exists()
        assert int(parse_kv(out)["communities"]) >= 1

    def test_multislice_objective(self, capsys, tmp_path, ordered3_files):
        npath, _ = ordered3_files
        prefix = str(tmp_path / "qms")
        code, out, _ = run(capsys, ["detect", npath, "--objective", "qms",
                                    "--gamma", "1", "--omega", "0.5",
                                    "--seed", "2", "--out", prefix])
        assert code == 0
        manifest = json.loads((tmp_path / "qms.manifest.json").read_text())
        assert manifest["objective"]["omega"] == 0.5
        code, score_out, _ = run(capsys, ["score", npath, f"{prefix}.communities",
                                          "--objective", "qms",
                                          "--gamma", "1", "--omega", "0.5"])
        assert code == 0
        scored = float(parse_kv(score_out)["total"])
        assert scored == pytest.approx(manifest["objective_value"], abs=1e-12)


    @pytest.mark.parametrize("method", ["gl", "aggregate"])
    def test_manifest_objective_is_the_score_record(self, capsys, tmp_path, ordered3_files,
                                                    method):
        # one record of the objective's flags: the manifest and score's JSON
        flags = ["--objective", "qms", "--gamma", "0.5", "--omega", "2"]
        prefix = str(tmp_path / "run")
        code, _, _ = run(capsys, ["detect", ordered3_files[0], "--method", method, *flags,
                                  "--out", prefix])
        assert code == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text(encoding="utf-8"))
        code, out, _ = run(capsys, ["score", *ordered3_files, *flags, "--output", "json"])
        assert code == 0
        record = json.loads(out)
        del record["total"]
        assert manifest["objective"] == record == {"objective": "qms", "gamma": 0.5,
                                                   "omega": 2.0}

    def test_aggregate_qms_on_edgeless_network_refused(self, capsys, tmp_path):
        # layers named by %order alone: the multislice normalization is zero
        npath = tmp_path / "empty.mlg"
        npath.write_text("%order L1 L2\n", encoding="utf-8")
        code, out, err = run(capsys, ["detect", str(npath), "--method", "aggregate",
                                      "--objective", "qms", "--out", str(tmp_path / "run")])
        assert (code, out) == (2, "")
        assert err == "error: degenerate normalization: network has no edges and no couplings\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["empty.mlg"]

    @pytest.mark.parametrize("method,detector", [("gl", "generalized_louvain"),
                                                 ("aggregate", "aggregate_majority")])
    def test_missing_out_directory_fails_before_detection(self, capsys, tmp_path, monkeypatch,
                                                          ordered3_files, method, detector):
        def never(*args, **kwargs):
            raise AssertionError("detection started")

        monkeypatch.setattr(detect, detector, never)
        missing = tmp_path / "missing"
        code, out, err = run(capsys, ["detect", ordered3_files[0], "--method", method,
                                      "--out", str(missing / "run")])
        assert code == 2
        assert out == ""
        assert str(missing) in err and "does not exist" in err
        assert not missing.exists()

    @pytest.mark.parametrize("prefix", ["./", "results/", "results" + os.sep + ".", ".."])
    def test_directory_prefix_fails_before_detection(self, capsys, tmp_path, monkeypatch,
                                                     ordered3_files, prefix):
        def never(*args, **kwargs):
            raise AssertionError("detection started")

        monkeypatch.setattr(detect, "generalized_louvain", never)
        work = tmp_path / "work"
        (work / "results").mkdir(parents=True)
        monkeypatch.chdir(work)
        code, out, err = run(capsys, ["detect", ordered3_files[0], "--out", prefix])
        assert code == 2
        assert out == ""
        assert repr(prefix) in err and "names a directory" in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
            [Path(f).name for f in ordered3_files] + ["work", "results"])


class TestSweep:
    def test_row_count(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["sweep", npath, cpath, "--protocol", "gamma",
                                    "--step", "0.5"])
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "gamma\tomega\tq_ms"
        assert len(rows) == 1 + 5

    def test_omega_monotone_on_shared_communities(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["sweep", npath, cpath, "--protocol", "omega"])
        assert code == 0
        values = [float(r.split("\t")[2]) for r in out.strip().splitlines()[1:]]
        assert len(values) == 21
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_gamma_protocol_is_affine_and_matches_oracle(self, capsys, tmp_path):
        npath = tmp_path / "one.mlg"
        cpath = tmp_path / "one.comm"
        npath.write_text("L a b\nL b c\nL a c\nL c d\n", encoding="utf-8")
        cpath.write_text("a 0\nb 0\nc 0\nd 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["sweep", str(npath), str(cpath),
                                    "--protocol", "gamma", "--step", "1"])
        assert code == 0
        values = [float(r.split("\t")[2]) for r in out.strip().splitlines()[1:]]
        assert len(values) == 3
        net = mm.read_network(npath)
        cs = mm.read_communities(net, cpath)
        for gamma, got in zip((0.0, 1.0, 2.0), values):
            oracle = multislice_direct(net, cs.as_assignment(), [gamma], 0.0)
            assert got == pytest.approx(oracle, abs=1e-12)
        # affine and decreasing in gamma for a single community
        assert values[0] > values[1] > values[2]
        assert (values[1] - values[0]) == pytest.approx(values[2] - values[1], abs=1e-12)

    def test_gamma_omega_protocol_range_guard(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["sweep", npath, cpath, "--protocol", "gamma-omega"])
        assert code == 0
        code, _, err = run(capsys, ["sweep", npath, cpath, "--protocol", "gamma-omega",
                                    "--stop", "2"])
        assert code == 3

    def test_last_point_within_tolerance_reads_as_stop(self, capsys, ordered3_files):
        # 0.09 + 13 * 0.07 is 1.0000000000000002, past the default --stop 1.0
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["sweep", npath, cpath, "--protocol", "gamma-omega",
                                    "--start", "0.09", "--step", "0.07"])
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 14
        assert rows[-1].startswith("1.0\t0.0\t")

    def test_step_that_does_not_divide_the_range(self, capsys, ordered3_files):
        # 0 + 7 * 0.3 passes the default --stop 2.0 by more than the
        # tolerance, so the sweep ends at the row before it, with no 2.0 row
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["sweep", npath, cpath, "--protocol", "omega",
                                    "--step", "0.3"])
        assert code == 0
        rows = [row.split("\t") for row in out.strip().splitlines()[1:]]
        assert [(gamma, omega) for gamma, omega, _ in rows] == [
            ("1.0", "0.0"), ("1.0", "0.3"), ("1.0", "0.6"), ("1.0", "0.8999999999999999"),
            ("1.0", "1.2"), ("1.0", "1.5"), ("1.0", "1.7999999999999998")]

    def test_bad_step(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, _, _ = run(capsys, ["sweep", npath, cpath, "--protocol", "omega",
                                  "--step", "0"])
        assert code == 3

    def test_point_that_does_not_move_ends(self, monkeypatch):
        # 1e308 + i * 0.1 rounds back to 1e308: the row that reads as --stop
        # is the last, though no later point ever passes it
        check = modularity._check_multislice_values
        calls = []

        def counted(gamma, omega):
            calls.append((gamma, omega))
            if len(calls) > 1000:
                raise AssertionError("the sweep does not end")
            check(gamma, omega)

        monkeypatch.setattr(modularity, "_check_multislice_values", counted)
        args = argparse.Namespace(protocol="omega", start=1e308, stop=1e308, step=0.1)
        assert cli._sweep_points(args) == [(1.0, 1e308)]
        assert calls == [(1.0, 1e308)]

    def test_huge_gamma_point_refused(self, triangle_files):
        proc = run_fresh(["sweep", *triangle_files, "--protocol", "gamma",
                          "--start", "1e308", "--stop", "1e308"])
        assert proc.returncode == 3
        assert "not finite" in proc.stderr
        assert proc.stdout == ""

    def test_start_equal_to_stop_gives_one_row(self, capsys, ordered3_files):
        npath, cpath = ordered3_files
        code, out, _ = run(capsys, ["sweep", npath, cpath, "--protocol", "omega",
                                    "--start", "0.5", "--stop", "0.5"])
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("1.0\t0.5\t")


class TestFlagsBeforeLoad:
    """A bad flag, or a missing output directory, is refused before any
    file is read: with the network reader replaced by one that fails the
    test, the exit codes are those of the flag."""

    @pytest.fixture(autouse=True)
    def no_load(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the network was read")

        monkeypatch.setattr(mlgraph, "read_network", never)

    @pytest.mark.parametrize("argv,code", [
        (["score", "NET", "COMM", "--resolution", "bogus"], 3),
        (["score", "NET", "COMM", "--resolution", "constant:x"], 3),
        (["score", "NET", "COMM", "--resolution", "constant:nan"], 3),
        (["score", "NET", "COMM", "--coupling", "sym", "--time-aware",
          "--ordering", "natural-adjacent"], 3),
        (["score", "NET", "COMM", "--time-aware"], 3),
        (["detect", "NET", "--resolution", "bogus", "--out", "OUT"], 3),
        (["detect", "NET", "--objective", "qms", "--time-aware", "--out", "OUT"], 3),
        (["score", "NET", "COMM", "--objective", "qms", "--omega", "nan"], 3),
        (["score", "NET", "COMM", "--objective", "qms", "--gamma", "-1"], 3),
        (["detect", "NET", "--objective", "qms", "--gamma", "-1", "--out", "OUT"], 3),
        (["detect", "NET", "--objective", "qms", "--omega", "inf", "--out", "OUT"], 3),
        (["detect", "NET", "--method", "aggregate", "--objective", "qms", "--omega=-0.5",
          "--out", "OUT"], 3),
        (["detect", "NET", "--min-gain", "0", "--out", "OUT"], 3),
        (["detect", "NET", "--method", "aggregate", "--max-passes", "0", "--out", "OUT"], 3),
        (["detect", "NET", "--out", "MISSING"], 2),
        (["sweep", "NET", "COMM", "--protocol", "omega", "--step", "0"], 3),
        (["sweep", "NET", "COMM", "--protocol", "omega", "--start", "nan"], 3),
        (["sweep", "NET", "COMM", "--protocol", "omega", "--stop=-1"], 3),
        (["sweep", "NET", "COMM", "--protocol", "gamma-omega", "--stop", "2"], 3),
        (["sweep", "NET", "COMM", "--protocol", "omega", "--step", "1e-9"], 4),
        (["sweep", "NET", "COMM", "--protocol", "gamma", "--start=-1"], 3),
        (["sweep", "NET", "COMM", "--protocol", "omega", "--start=-0.5"], 3),
        (["sweep", "NET", "COMM", "--protocol", "gamma-omega", "--start=-0.5"], 3),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
    def test_refused_without_reading(self, capsys, tmp_path, argv, code):
        # the paths need not exist: nothing may open them
        paths = {"NET": str(tmp_path / "missing.mlg"), "COMM": str(tmp_path / "missing.comm"),
                 "OUT": str(tmp_path / "run"), "MISSING": str(tmp_path / "missing" / "run")}
        got, out, err = run(capsys, [paths.get(a, a) for a in argv])
        assert got == code
        assert out == ""
        assert err.startswith("error: ")

    def test_qms_score_ignores_the_resolution_flag(self, capsys, triangle_files, monkeypatch):
        # --resolution belongs to the q objective; qms scoring reads the files
        monkeypatch.undo()  # the real network reader
        code, out, _ = run(capsys, ["score", *triangle_files, "--objective", "qms",
                                    "--resolution", "bogus"])
        assert code == 0
        assert out.startswith("objective\tqms\n")


class TestHostileInputs:
    @pytest.mark.parametrize("argv", [
        ["score", "NET", "COMM", "--objective", "qms", "--omega", "nan"],
        ["score", "NET", "COMM", "--objective", "qms", "--omega", "inf"],
        ["score", "NET", "COMM", "--objective", "qms", "--gamma", "nan"],
        ["score", "NET", "COMM", "--resolution", "constant:nan"],
        ["score", "NET", "COMM", "--resolution", "constant:inf"],
        ["detect", "NET", "--min-gain", "nan", "--out", "OUT"],
        ["detect", "NET", "--min-gain", "inf", "--out", "OUT"],
        ["detect", "NET", "--objective", "qms", "--omega", "nan", "--out", "OUT"],
        ["detect", "NET", "--method", "aggregate", "--objective", "qms", "--gamma", "inf",
         "--out", "OUT"],
        ["detect", "NET", "--resolution", "constant:nan", "--out", "OUT"],
    ], ids=lambda argv: " ".join(argv[3 if argv[0] == "score" else 2:]))
    def test_non_finite_parameters(self, capsys, tmp_path, triangle_files, argv):
        npath, cpath = triangle_files
        paths = {"NET": npath, "COMM": cpath, "OUT": str(tmp_path / "run")}
        code, out, err = run(capsys, [paths.get(a, a) for a in argv])
        assert code == 3
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["score", "NET", "COMM", "--objective", "qms", "--omega", "1e308"],
        ["score", "NET", "COMM", "--objective", "qms", "--omega", "1e308", "--output", "json"],
        ["score", "NET", "COMM", "--objective", "qms", "--gamma", "1e308"],
        ["score", "NET", "COMM", "--resolution", "constant:1e308"],
        ["score", "NET", "COMM", "--resolution", "constant:1e308", "--output", "json"],
        ["sweep", "NET", "COMM", "--protocol", "omega", "--start", "1e308", "--stop", "1e308",
         "--step", "1e308"],
        ["detect", "NET", "--objective", "qms", "--omega", "1e308", "--out", "OUT"],
        ["detect", "NET", "--objective", "qms", "--gamma", "1e308", "--out", "OUT"],
        ["detect", "NET", "--resolution", "constant:1e308", "--out", "OUT"],
        ["detect", "NET", "--method", "aggregate", "--objective", "qms", "--omega", "1e308",
         "--out", "OUT"],
        ["detect", "NET", "--method", "aggregate", "--resolution", "constant:1e308",
         "--out", "OUT"],
    ], ids=lambda argv: " ".join(argv[0:1] + argv[3 if argv[0] != "detect" else 2:]))
    def test_overflowing_score_refused(self, capsys, tmp_path, ordered3_files, argv):
        # finite parameters whose score overflows to -inf or NaN: no score is
        # printed and no file written
        npath, cpath = ordered3_files
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        paths = {"NET": npath, "COMM": cpath, "OUT": str(out_dir / "run")}
        code, out, err = run(capsys, [paths.get(a, a) for a in argv])
        assert code == 3
        assert "not finite" in err
        assert out == ""
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--start", "nan"], ["--stop", "nan"], ["--step", "nan"], ["--step", "inf"],
        ["--stop", "inf"], ["--start=-inf"],
    ], ids=" ".join)
    def test_sweep_non_finite_bounds(self, triangle_files, flags):
        proc = run_fresh(["sweep", *triangle_files, "--protocol", "omega", *flags])
        assert proc.returncode == 3
        assert "must be a finite number" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("flags", [
        ["--step", "1e-9"], ["--step", "5e-324"], ["--start=-1e308", "--stop", "1e308"],
    ], ids=" ".join)
    def test_sweep_row_guard(self, triangle_files, flags):
        # refused before any scoring: the first flags would build about 2e9 rows
        proc = run_fresh(["sweep", *triangle_files, "--protocol", "omega", *flags])
        assert proc.returncode == 4
        assert "rows" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("protocol", ["gamma", "gamma-omega", "omega"])
    def test_sweep_fine_step_admitted(self, capsys, triangle_files, protocol):
        code, out, _ = run(capsys, ["sweep", *triangle_files, "--protocol", protocol,
                                    "--step", "1e-4"])
        assert code == 0
        start, stop = cli._SWEEP_RANGES[protocol]
        assert len(out.splitlines()) == 1 + round((stop - start) / 1e-4) + 1

    def test_stats_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.mlg"
        path.write_bytes(b"\xff\xfe L1 a b\n")
        code, _, err = run(capsys, ["stats", str(path)])
        assert code == 2
        assert "bad.mlg: not UTF-8" in err

    def test_score_communities_not_utf8(self, capsys, tmp_path, triangle_files):
        cpath = tmp_path / "bad.comm"
        cpath.write_bytes(b"a 0\nb \xe9\nc 0\n")
        code, _, err = run(capsys, ["score", triangle_files[0], str(cpath)])
        assert code == 2
        assert "bad.comm: not UTF-8" in err


HEAVY_MODULES = ("multiprocessing", "concurrent.futures", "pickle", "dataclasses", "inspect")
# the package modules each command loads, besides the package itself: a
# network load needs mlgraph alone, the scores community and modularity,
# score's q and qms objectives detect, and no command the synthetic benchmark
_SCORING = {"cli", "errors", "mlgraph", "community", "modularity"}
COMMANDS = {
    "score": (["score", "{net}", "{comm}"], _SCORING | {"detect"}),
    "score-newman": (["score", "{tri_net}", "{tri_comm}", "--objective", "newman"], _SCORING),
    "sweep": (["sweep", "{net}", "{comm}", "--protocol", "omega"], _SCORING),
    "stats": (["stats", "{net}"], {"cli", "errors", "mlgraph", "_workers"}),
    "detect": (["detect", "{net}", "--out", "{out}"], _SCORING | {"detect"}),
    "aggregate": (["detect", "{net}", "--method", "aggregate", "--out", "{out}"],
                  _SCORING | {"detect", "_workers"}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_only_detect_loads_hashlib(ordered3_files, triangle_files, tmp_path, command):
    """Only ``detect`` writes digests, so no other command loads hashlib
    and the OpenSSL library behind it; no command loads a process pool,
    pickle, dataclasses or inspect, whose imports would slow every start;
    only ``stats`` loads fractions, through statistics, since these runs
    build no rational; and ``import multimod`` loads only the errors, each
    command only the package modules it runs (a newman score, on the
    one-layer triangle, builds no objective)."""
    argv, modules = COMMANDS[command]
    net, comm = ordered3_files
    tri_net, tri_comm = triangle_files
    argv = [arg.format(net=net, comm=comm, tri_net=tri_net, tri_comm=tri_comm,
                       out=tmp_path / "out") for arg in argv]
    watched = ("hashlib", "fractions", *HEAVY_MODULES)
    proc = python_fresh("-c", "\n".join([
        "import json, sys",
        f"watched = {watched!r}",
        "before = [m in sys.modules for m in watched]",
        "package = lambda: sorted(m[9:] for m in sys.modules if m.startswith('multimod.'))",
        "import multimod",
        "imported = package()",
        "from multimod.cli import main",
        f"code = main({argv!r})",
        "print(json.dumps([code, [b or m not in sys.modules for b, m in zip(before, watched)],",
        "                  imported, package()]))"]))
    code, (hashlib_absent, fractions_absent, *heavy_absent), imported, loaded = json.loads(
        proc.stdout.splitlines()[-1])
    assert code == 0
    if argv[0] != "detect":
        assert hashlib_absent
    assert fractions_absent == (command != "stats")
    assert heavy_absent == [True] * len(HEAVY_MODULES)
    assert imported == ["errors"]
    assert set(loaded) == modules


@pytest.mark.parametrize("argv", [
    ["sweep", "{net}", "{comm}", "--protocol", "gamma", "--step", "0.0001"],
    ["stats", "{net}"],
], ids=["sweep-20001-rows", "stats"])
def test_closed_stdout_exits_141(triangle_files, argv):
    # the reader quits before the output is written, whether the command
    # writes more than a pipe holds (the sweep's 20,001 rows) or less (stats,
    # whose output stdout's buffer holds until the end): no error message,
    # and the status a shell reports for a producer killed by SIGPIPE
    net, comm = triangle_files
    argv = [arg.format(net=net, comm=comm) for arg in argv]
    proc = python_fresh("-c", "\n".join([
        "import os, subprocess, sys",
        "env = {k: v for k, v in os.environ.items() if k != 'PYTHONUNBUFFERED'}",
        f"child = subprocess.Popen([sys.executable, '-m', 'multimod.cli', *{argv!r}], env=env,",
        "                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)",
        "child.stdout.close()",
        "err = child.stderr.read()",
        "print(child.wait(timeout=60), repr(err))"]))
    assert proc.stdout.splitlines()[-1] == "141 b''"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists no open descriptors")
def test_closed_stdout_leaves_no_descriptor_open(monkeypatch, triangle_files):
    # in one process, each command whose reader quit exits 141 and closes
    # the descriptor it opened to point stdout at os.devnull
    net, _ = triangle_files

    def stats_onto_closed_pipe():
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            return main(["stats", str(net)])

    before = len(os.listdir("/proc/self/fd"))
    assert [stats_onto_closed_pipe() for _ in range(3)] == [141] * 3
    assert len(os.listdir("/proc/self/fd")) == before


# Outputs pinned on seeded planted networks: scores, optimizer trajectory
# and written files must stay byte-identical across refactors. The `wrote`
# lines and the manifest carry temporary paths and are left out. A pin runs
# on GOLDEN_SPEC unless GOLDEN_SPECS names a larger network for it.
GOLDEN_SPEC = mm.PlantedSpec(entities=60, communities=4, layers=3, p_in=0.4,
                             p_out=0.01, presence=0.85, seed=5)
GOLDEN = {
    "gl-qms": (
        ["detect", "--objective", "qms", "--omega", "1"],
        {"stdout": ["objective\t0.37431933626709", "communities\t38",
                    "passes\t10", "moves\t136"],
         "communities": "d94459b50ac02be7bb17244f8e3660d9e6d3ac8807fba4965b2524bbabd201d5",
         "flat": "f43db3a5d9b2472bbb33510b0fb9603f21ecf0250285b1c3c54d8203713a9b1b"}),
    "aggregate-qms": (
        ["detect", "--method", "aggregate", "--objective", "qms", "--omega", "1"],
        {"stdout": ["objective\t0.7533458648344477", "communities\t4",
                    "passes\t28", "moves\t201"],
         "communities": "771f2ec9de37e2fcaf4fd924abc0b942655641ac8d7e10952d2d8b4eed87619d",
         "flat": "8409e9cd47826fcab2a898f694dc8dcd164064169e2b1eb1baaa7a9bed25b0f7"}),
    "gl-q-redundancy": (
        ["detect", "--objective", "q", "--resolution", "redundancy",
         "--coupling", "asym-inner", "--time-aware", "--ordering", "natural-adjacent"],
        {"stdout": ["objective\t0.7673426250406147", "communities\t2",
                    "passes\t12", "moves\t201"],
         "communities": "053f40b9ad8de6e1bf3ba9a3df847103d825025b1233ba95d672061d1dae0cc5",
         "flat": "bbe888bafea788c8354810ff8332c86ee25ce9dfcfbb1382621a113f749f395c"}),
    "score-q-redundancy": (
        ["score", "--objective", "q", "--resolution", "redundancy",
         "--coupling", "asym-outer", "--time-aware", "--ordering", "natural-pairwise"],
        {"stdout": "f06acc33e1ceef0aa017039baa8be70614c4cb349a04a885e98334ff2bb03766"}),
    "stats": (
        ["stats"],
        {"stdout": "71f0eeafa274440f957b14fbc22d991893d89a66eb974d1a67ab1a057b65ebdc"}),
    # on GOLDEN_LARGE_SPEC, where hundreds of units move over several passes
    "gl-qms-large": (
        ["detect", "--objective", "qms", "--omega", "1"],
        {"stdout": ["objective\t0.20232270940017016", "communities\t239",
                    "passes\t6", "moves\t562"],
         "communities": "de565834b8bd0694dbc2b6870cf6cb4f4f2e092ce993952079440e2e94021c69",
         "flat": "095c2f2c93e7cbb67adc1262d66c8adf31762435bd6c6148767667aecc56558a"}),
    "gl-q-redundancy-large": (
        ["detect", "--objective", "q", "--resolution", "redundancy",
         "--coupling", "asym-inner", "--time-aware", "--ordering", "natural-adjacent"],
        {"stdout": ["objective\t0.8426513887782361", "communities\t1",
                    "passes\t15", "moves\t1352"],
         "communities": "66790633671b82d7ae35e48bcef9d40ed142774f1a8ab1048961ba2cfc02c93e",
         "flat": "da44bf7e8579ba6f688a5a4896a6aebc5ffb8a910631971447e926a956706b4f"}),
}
GOLDEN_LARGE_SPEC = mm.PlantedSpec(entities=250, communities=5, layers=4, p_in=0.2,
                                   p_out=0.01, presence=0.8, seed=11)
GOLDEN_SPECS = {"gl-qms-large": GOLDEN_LARGE_SPEC, "gl-q-redundancy-large": GOLDEN_LARGE_SPEC}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(capsys, tmp_path, name):
    argv, expected = GOLDEN[name]
    net, planted = mm.planted_multilayer(GOLDEN_SPECS.get(name, GOLDEN_SPEC))
    npath, lpath = tmp_path / "net.mlg", tmp_path / "planted.flat"
    save_planted(net, planted, npath, lpath)
    command, *flags = argv
    if command == "stats":
        code, out, _ = run(capsys, [command, str(npath), *flags])
        got = {"stdout": _sha256(out.encode("utf-8"))}
    elif command == "score":
        code, out, _ = run(capsys, [command, str(npath), str(lpath), *flags])
        got = {"stdout": _sha256(out.encode("utf-8"))}
    else:
        prefix = tmp_path / "run"
        code, out, _ = run(capsys, [command, str(npath), *flags, "--out", str(prefix)])
        got = {"stdout": [l for l in out.splitlines() if not l.startswith("wrote\t")],
               "communities": _sha256((tmp_path / "run.communities").read_bytes()),
               "flat": _sha256((tmp_path / "run.flat").read_bytes())}
    assert code == 0
    assert got == expected


@pytest.mark.parametrize("size", [0, 40, 1000], ids=["empty", "under-a-block", "many-blocks"])
def test_manifest_digest_reads_blocks(monkeypatch, tmp_path, size):
    # with 64-byte blocks, 1000 bytes span sixteen, the last one partial
    reads = []

    class RecordingFile(io.FileIO):
        def read(self, n=-1):
            reads.append(n)
            return super().read(n)

    monkeypatch.setattr(cli, "_DIGEST_BLOCK", 64)
    monkeypatch.setattr(cli, "open", lambda path, mode: RecordingFile(path, "r"), raising=False)
    path = tmp_path / "output"
    data = bytes(i % 251 for i in range(size))
    path.write_bytes(data)
    assert cli._sha256(path) == _sha256(data)
    assert reads == [64] * (size // 64 + 1 + (size % 64 > 0))


def test_options_are_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = {None: parser, **sub.choices}
    assert {name: {flag for action in p._actions for flag in action.option_strings}
            for name, p in commands.items()} == OPTIONS

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines alongside the pytest report.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import multimod as mm
from multimod.cli import main as cli_main

from _brute import best_partition_exhaustive, multilayer_modularity_direct
from _gen import (natural_orderings, random_multilayer, random_single_layer, random_structure,
                  save_planted, with_ordering)
from conftest import ORDERED3_PARTITION, build_ordered3


def report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_exact_projection_coupling_values():
    started = time.time()
    net = build_ordered3()
    cs = mm.CommunityStructure.from_entity_partition(net, ORDERED3_PARTITION)
    c1 = cs.assignment_of("e01", "L1")
    inner = mm.asymmetric_coupling(cs, c1, "L1", "L2")
    outer = mm.asymmetric_coupling(cs, c1, "L2", "L1")
    assert inner == Fraction(8, 9)
    assert outer == Fraction(1)
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(1, "exact asymmetric coupling values")


def test_criterion_2_single_layer_reductions():
    started = time.time()
    rng = random.Random(20_240_001)
    for _ in range(200):
        net, partition = random_single_layer(rng, max_nodes=30)
        cs = mm.CommunityStructure.from_entity_partition(net, partition)
        q_newman = mm.newman_modularity(net, cs)
        q_multilayer = mm.multilayer_modularity(
            net, cs, mm.ResolutionPolicy.constant(1), mm.CouplingPolicy.none()).total
        q_multislice = mm.multislice_modularity(net, cs, 1.0, 0.0)
        assert abs(q_multilayer - q_newman) <= 1e-12
        assert abs(q_multislice - q_newman) <= 1e-12
    elapsed = time.time() - started
    assert elapsed < 10.0
    report(2, "reduction suite, 200 graphs")


def test_criterion_3_oracle_equivalence():
    started = time.time()
    rng = random.Random(20_240_002)
    resolutions = [mm.ResolutionPolicy.constant(0.5), mm.ResolutionPolicy.constant(1.0),
                   mm.ResolutionPolicy.constant(2.0), mm.ResolutionPolicy.redundancy()]
    checks = 0
    for _ in range(500):
        net = random_multilayer(rng, max_tuples=12, max_layers=4)
        cs = random_structure(rng, net)
        orderings = [mm.LayerOrdering.unordered(), *natural_orderings(net)]
        for ordering in orderings:
            onet = with_ordering(net, ordering)
            ocs = mm.CommunityStructure(onet, cs.as_assignment())
            couplings = [mm.CouplingPolicy.symmetric(), mm.CouplingPolicy.asym_inner(),
                         mm.CouplingPolicy.asym_outer()]
            if ordering.is_natural:
                couplings += [mm.CouplingPolicy.asym_inner(time_aware=True),
                              mm.CouplingPolicy.asym_outer(time_aware=True)]
            for resolution in resolutions:
                for coupling in couplings:
                    fast = mm.multilayer_modularity(onet, ocs, resolution, coupling).total
                    slow = multilayer_modularity_direct(onet, ocs, resolution, coupling)
                    assert abs(fast - slow) <= 1e-12
                    checks += 1
    elapsed = time.time() - started
    assert checks >= 500 * 13 * 4
    assert elapsed < 60.0
    report(3, f"oracle equivalence, {checks} checks")


def test_criterion_4_range_and_invariant_suites():
    rng = random.Random(20_240_003)
    pool = [random_multilayer(rng, max_tuples=12, max_layers=4) for _ in range(400)]

    # resolution factor law: in (0, 1] once the layer supports a redundant
    # pair, exactly 2 otherwise; redundancy always within [0, 1]
    cases = 0
    i = 0
    while cases < 10_000:
        net = pool[i % len(pool)]
        i += 1
        cs = random_structure(rng, net)
        for c in cs.communities():
            assert 0 <= cs.redundancy(c) <= 1
            for layer in net.layer_ids:
                nrp = cs.redundant_pair_count(c, layer)
                gamma = cs.redundancy_resolution(c, layer)
                if nrp == 0:
                    assert gamma == 2.0
                else:
                    assert 0.0 < gamma <= 1.0
                cases += 1
    gamma_cases = cases

    # symmetric coupling: bounded and symmetric in its layer arguments
    cases = 0
    i = 0
    while cases < 10_000:
        net = pool[i % len(pool)]
        i += 1
        if net.num_layers < 2:
            continue
        cs = random_structure(rng, net)
        for c in cs.communities():
            for a in net.layer_ids:
                for b in net.layer_ids:
                    if a == b:
                        continue
                    value = mm.symmetric_coupling(cs, c, a, b)
                    assert 0 <= value <= 1
                    assert value == mm.symmetric_coupling(cs, c, b, a)
                    cases += 1
    sym_cases = cases

    # time-aware coupling never exceeds the plain asymmetric value and
    # matches it exactly at positional distance 1
    cases = 0
    i = 0
    while cases < 10_000:
        net = pool[i % len(pool)]
        i += 1
        if net.num_layers < 2:
            continue
        ordering = natural_orderings(net)[1]
        net = with_ordering(net, ordering)
        cs = random_structure(rng, net)
        seq = ordering.sequence
        for c in cs.communities():
            for a in range(len(seq)):
                for b in range(a + 1, len(seq)):
                    asym = float(mm.asymmetric_coupling(cs, c, seq[a], seq[b]))
                    aware = mm.time_aware_coupling(cs, c, seq[a], seq[b])
                    assert aware <= asym + 1e-15
                    if b - a == 1:
                        assert aware == asym
                    elif asym > 0:
                        assert aware < asym
                    cases += 1
    aware_cases = cases

    # pairing counts under both schemes
    cases = 0
    while cases < 10_000:
        ell = rng.randint(1, 30)
        layers = [f"L{j}" for j in range(ell)]
        pairwise = rng.random() < 0.5
        scheme = mm.PairingScheme.PAIRWISE if pairwise else mm.PairingScheme.ADJACENT
        net = mm.build_network(layers=layers, presence=[(l, "x") for l in layers],
                               ordering=mm.LayerOrdering.natural(layers, scheme))
        total = sum(len(net.valid_pairings(l)) for l in layers)
        assert total == ((ell * ell - ell) // 2 if pairwise else ell - 1)
        cases += 1
    pairing_cases = cases

    report(4, f"property suites ({gamma_cases}/{sym_cases}/{aware_cases}/{pairing_cases} cases)")


def test_criterion_5_detection_recovery():
    started = time.time()
    resolution = mm.ResolutionPolicy.constant(1)
    coupling = mm.CouplingPolicy.symmetric()
    config = mm.DetectConfig(
        objective=mm.MultilayerObjective(resolution=resolution, coupling=coupling), seed=0)

    spec = mm.PlantedSpec(entities=40, communities=2, layers=3,
                          p_in=0.9, p_out=0.05, presence=1.0, seed=42)
    net, planted = mm.planted_multilayer(spec)
    result = mm.generalized_louvain(net, config)
    recovery = mm.nmi(result.partition, planted)
    assert recovery >= 0.9

    near_optimal = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        tiny = random_multilayer(rng, max_tuples=8, max_layers=3)
        cfg = mm.DetectConfig(
            objective=mm.MultilayerObjective(resolution=resolution, coupling=coupling),
            seed=seed)
        found = mm.generalized_louvain(tiny, cfg)
        _, best = best_partition_exhaustive(tiny, resolution, coupling)
        assert found.objective <= best + 1e-12
        if found.objective >= 0.95 * best - 1e-12:
            near_optimal += 1
    assert near_optimal >= 90
    elapsed = time.time() - started
    assert elapsed < 120.0
    report(5, f"recovery NMI {recovery:.3f}, near-optimal {near_optimal}/100")


def test_criterion_6_omega_sweep_monotone(tmp_path, capsys):
    spec = mm.PlantedSpec(entities=24, communities=3, layers=3,
                          p_in=0.85, p_out=0.1, presence=1.0, seed=6)
    net, planted = mm.planted_multilayer(spec)
    npath = tmp_path / "net.mlg"
    cpath = tmp_path / "labels.txt"
    save_planted(net, planted, npath, cpath)
    code = cli_main(["sweep", str(npath), str(cpath), "--protocol", "omega",
                     "--step", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "gamma\tomega\tq_ms"
    values = [float(r.split("\t")[2]) for r in rows[1:]]
    assert len(values) == 21
    assert all(later >= earlier - 1e-12 for earlier, later in zip(values, values[1:]))
    report(6, "omega sweep non-decreasing")


def test_criterion_7_redundancy_resolution_direction():
    coupling = mm.CouplingPolicy.symmetric()
    for seed in range(20):
        spec = mm.PlantedSpec(entities=24, communities=3, layers=3,
                              p_in=0.85, p_out=0.1, presence=1.0, seed=seed)
        net, planted = mm.planted_multilayer(spec)
        cs = mm.CommunityStructure.from_entity_partition(net, planted)
        with_redundancy = mm.multilayer_modularity(
            net, cs, mm.ResolutionPolicy.redundancy(), coupling).total
        with_constant = mm.multilayer_modularity(
            net, cs, mm.ResolutionPolicy.constant(1), coupling).total
        assert with_redundancy >= with_constant
    report(7, "redundancy-based resolution never scores below constant 1")


def test_criterion_8_stats_coverage(tmp_path, capsys):
    lines = []
    for layer in ("r1", "r2", "r3"):
        for i in range(29):
            lines.append(f"%presence {layer} v{i:02d}")
        lines += [f"{layer} v{i:02d} v{i + 1:02d}" for i in range(0, 28, 2)]
    path = tmp_path / "full.mlg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli_main(["stats", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    fields = dict(line.split("\t", 1) for line in out.split("\n\n")[0].splitlines()
                  if "\t" in line)
    assert fields["node_coverage"] == "1.00"
    assert fields["edge_coverage"] == "0.33"
    report(8, "full-coverage stats mechanics")

"""Detection: Louvain variants, aggregation baseline, NMI."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

import multimod as mm
import multimod.detect as detect
from multimod.community import log_decay
from multimod.errors import InputError, PolicyError

from multimod.detect import _make_unit, _MultilayerEngine, _MultisliceEngine

from _brute import (LiteralMultilayerEngine, best_partition_exhaustive,
                    literal_aggregate_majority, literal_engine, literal_gather,
                    literal_generalized_louvain, new_comm, where_table)
from _gen import natural_orderings, random_multilayer, with_ordering

TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


def louvain_partition(net, layer, seed=0):
    """Classic Louvain partition of one layer's graph (node -> community):
    the per-layer run of the aggregation baseline, at the default passes
    and minimum gain."""
    return detect._layer_louvain(net, layer, seed, 50, 1e-9).partition


@pytest.fixture(scope="module")
def benchmark_sized():
    """A planted network the size of the benchmark's: 1000 entities, 10
    communities, 4 layers, about 3.2k occurrences."""
    spec = mm.PlantedSpec(entities=1000, communities=10, layers=4, p_in=0.1,
                          p_out=0.005, presence=0.8, seed=7)
    return mm.planted_multilayer(spec)[0]


def constant_symmetric(seed=0):
    return mm.DetectConfig(
        objective=mm.MultilayerObjective(resolution=mm.ResolutionPolicy.constant(1),
                                         coupling=mm.CouplingPolicy.symmetric()),
        seed=seed)


class TestLouvainLayer:
    def test_two_triangles_found(self, two_triangles):
        part = louvain_partition(two_triangles, "L", seed=0)
        groups = {}
        for e, c in part.items():
            groups.setdefault(c, set()).add(e)
        assert sorted(map(sorted, groups.values())) == [[0, 1, 2], [3, 4, 5]]
        q = mm.newman_modularity(
            two_triangles, mm.CommunityStructure.from_entity_partition(two_triangles, part))
        assert q == pytest.approx(0.5)
        # exhaustive optimum over all partitions confirms 0.5 is the best
        _, qstar = best_partition_exhaustive(two_triangles)
        assert qstar == pytest.approx(0.5, abs=1e-12)
        assert q <= qstar + 1e-12

    def test_single_clique(self):
        edges = [("L", u, v) for u in range(5) for v in range(u + 1, 5)]
        net = mm.build_network(layers=["L"], edges=edges)
        part = louvain_partition(net, "L", seed=1)
        assert len(set(part.values())) == 1
        _, qstar = best_partition_exhaustive(net)
        q = mm.newman_modularity(net, mm.CommunityStructure.from_entity_partition(net, part))
        assert q == pytest.approx(qstar, abs=1e-12)

    def test_seed_change_same_objective(self, two_triangles):
        structures = (mm.CommunityStructure.from_entity_partition(
                          two_triangles, louvain_partition(two_triangles, "L", seed=s))
                      for s in range(5))
        values = {mm.newman_modularity(two_triangles, cs) for cs in structures}
        assert len({round(v, 12) for v in values}) == 1

    def test_edgeless_layer(self):
        net = mm.build_network(layers=["L", "M"], edges=[("L", 0, 1)],
                               presence=[("M", 0)])
        with pytest.raises(InputError):
            louvain_partition(net, "M")


class TestGeneralizedLouvain:
    def test_recovers_twin_triangles(self, twin_triangle_layers):
        res = mm.generalized_louvain(twin_triangle_layers, constant_symmetric(seed=3))
        groups = {}
        for e, c in res.partition.items():
            groups.setdefault(c, set()).add(e)
        assert sorted(map(sorted, groups.values())) == [[0, 1, 2], [3, 4, 5]]
        # matches the exhaustive optimum restricted to three communities
        _, qstar = best_partition_exhaustive(
            twin_triangle_layers, mm.ResolutionPolicy.constant(1),
            mm.CouplingPolicy.symmetric(), max_communities=3)
        assert res.objective == pytest.approx(qstar, abs=1e-12)

    def test_single_layer_equals_louvain(self, two_triangles):
        config = mm.DetectConfig(objective=mm.MultisliceObjective(gamma=1.0, omega=0.0),
                                 seed=7)
        res = mm.generalized_louvain(two_triangles, config)
        part = louvain_partition(two_triangles, "L", seed=7)
        q = mm.newman_modularity(
            two_triangles, mm.CommunityStructure.from_entity_partition(two_triangles, part))
        assert res.objective == pytest.approx(q, abs=1e-12)

    def test_planted_recovery(self):
        spec = mm.PlantedSpec(entities=40, communities=2, layers=2,
                              p_in=0.9, p_out=0.05, presence=1.0, seed=12)
        net, planted = mm.planted_multilayer(spec)
        res = mm.generalized_louvain(net, constant_symmetric(seed=0))
        assert mm.nmi(res.partition, planted) >= 0.9

    def test_determinism(self, twin_triangle_layers):
        a = mm.generalized_louvain(twin_triangle_layers, constant_symmetric(seed=5))
        b = mm.generalized_louvain(twin_triangle_layers, constant_symmetric(seed=5))
        assert a.partition == b.partition
        assert a.objective == b.objective
        assert (a.passes, a.moves) == (b.passes, b.moves)
        assert a.structure.as_assignment() == b.structure.as_assignment()

    def test_reported_objective_rescoring(self):
        rng = random.Random(17)
        for _ in range(10):
            net = random_multilayer(rng)
            config = constant_symmetric(seed=1)
            res = mm.generalized_louvain(net, config)
            report = mm.multilayer_modularity(net, res.structure,
                                              mm.ResolutionPolicy.constant(1),
                                              mm.CouplingPolicy.symmetric())
            assert res.objective == pytest.approx(report.total, abs=1e-12)

    def test_objective_not_below_singletons(self):
        rng = random.Random(29)
        for _ in range(10):
            net = random_multilayer(rng)
            singletons = mm.CommunityStructure(
                net, {t: i for i, t in enumerate(net.tuples())})
            base = mm.multilayer_modularity(net, singletons,
                                            mm.ResolutionPolicy.constant(1),
                                            mm.CouplingPolicy.symmetric()).total
            res = mm.generalized_louvain(net, constant_symmetric(seed=2))
            assert res.objective >= base - 1e-12

    def test_oracle_dominates_on_tiny_instances(self):
        rng = random.Random(41)
        checked = 0
        while checked < 15:
            net = random_multilayer(rng, max_tuples=8, max_layers=3)
            res = mm.generalized_louvain(net, constant_symmetric(seed=checked))
            _, qstar = best_partition_exhaustive(
                net, mm.ResolutionPolicy.constant(1), mm.CouplingPolicy.symmetric())
            assert res.objective <= qstar + 1e-12
            checked += 1

    def test_redundancy_objective_runs(self, twin_triangle_layers):
        config = mm.DetectConfig(
            objective=mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                                             coupling=mm.CouplingPolicy.symmetric()),
            seed=4)
        res = mm.generalized_louvain(twin_triangle_layers, config)
        report = mm.multilayer_modularity(twin_triangle_layers, res.structure,
                                          mm.ResolutionPolicy.redundancy(),
                                          mm.CouplingPolicy.symmetric())
        assert res.objective == pytest.approx(report.total, abs=1e-12)

    def test_edgeless_network(self):
        net = mm.build_network(layers=["L"], presence=[("L", "a")])
        with pytest.raises(InputError):
            mm.generalized_louvain(net, constant_symmetric())

    def test_objective_reported_under_network_ordering(self):
        # the same network natural-adjacent and unordered: the unordered
        # pairing couples more layer pairs, which changes the normalization
        spec = mm.PlantedSpec(entities=30, communities=3, layers=3,
                              p_in=0.6, p_out=0.05, presence=0.9, seed=8)
        natural, _ = mm.planted_multilayer(spec)
        assert natural.ordering.is_natural
        assert natural.ordering.scheme is mm.PairingScheme.ADJACENT
        unordered = with_ordering(natural, mm.LayerOrdering.unordered())
        objective = mm.MultilayerObjective(resolution=mm.ResolutionPolicy.constant(1),
                                           coupling=mm.CouplingPolicy.symmetric())
        for method in (mm.generalized_louvain, mm.aggregate_majority):
            reported = []
            for net in (natural, unordered):
                res = method(net, mm.DetectConfig(objective=objective, seed=1))
                assert res.objective == mm.multilayer_modularity(
                    net, res.structure, objective.resolution, objective.coupling).total
                reported.append(res.objective)
            assert reported[0] != reported[1]


    @staticmethod
    def random_case(rng, net):
        """A random objective, and ``net`` or ``net`` rebuilt under a random
        natural ordering."""
        if rng.random() < 0.5:
            return net, mm.MultisliceObjective(
                gamma=[rng.choice((0.5, 1.0, 1.5)) for _ in net.layer_ids],
                omega=rng.choice((0.0, 0.3, 1.0, 2.0)))
        kind = rng.choice(("none", "symmetric", "asym-inner", "asym-outer"))
        ordering = rng.choice((None, *natural_orderings(net)))
        time_aware = kind.startswith("asym") and ordering is not None and rng.random() < 0.5
        if time_aware:
            ordering = mm.LayerOrdering.natural(net.layer_ids, ordering.scheme, True)
        resolution = rng.choice((mm.ResolutionPolicy.constant(rng.choice((0.5, 1.0))),
                                 mm.ResolutionPolicy.redundancy()))
        if ordering is not None:
            net = with_ordering(net, ordering)
        return net, mm.MultilayerObjective(resolution=resolution,
                                           coupling=mm.CouplingPolicy(kind, time_aware))

    @staticmethod
    def assert_same_run(net, config):
        got = mm.generalized_louvain(net, config)
        want = literal_generalized_louvain(net, config)
        assert got.structure.as_assignment() == want.structure.as_assignment()
        assert (got.passes, got.moves) == (want.passes, want.moves)
        assert got.objective == want.objective

    def test_matches_literal_loop(self):
        # skipping units whose communities did not change must not alter the run
        rng = random.Random(97)
        checked = 0
        while checked < 40:
            spec = mm.PlantedSpec(entities=rng.randint(6, 60), communities=rng.randint(1, 5),
                                  layers=rng.randint(1, 4), p_in=rng.uniform(0.1, 0.6),
                                  p_out=rng.uniform(0.0, 0.05), presence=rng.uniform(0.5, 1.0),
                                  seed=rng.randrange(10**6))
            net, _ = mm.planted_multilayer(spec)
            if any(not net.edges_idx(l) for l in range(net.num_layers)):
                continue  # the multislice null model needs an edge per layer
            net, objective = self.random_case(rng, net)
            config = mm.DetectConfig(objective=objective, seed=rng.randrange(100),
                                     max_passes=rng.choice((1, 2, 3, 50)))
            self.assert_same_run(net, config)
            checked += 1

    @pytest.mark.parametrize("seed", [3, 21])
    def test_matches_literal_loop_on_planted(self, seed):
        spec = mm.PlantedSpec(entities=200, communities=4, layers=3, p_in=0.15,
                              p_out=0.01, presence=0.8, seed=seed)
        net, _ = mm.planted_multilayer(spec)
        timed = with_ordering(
            net, mm.LayerOrdering.natural(net.layer_ids, mm.PairingScheme.ADJACENT, True))
        redundancy = mm.MultilayerObjective(
            resolution=mm.ResolutionPolicy.redundancy(),
            coupling=mm.CouplingPolicy.asym_inner(time_aware=True))
        for onet, objective in ((timed, redundancy),
                                (net, mm.MultisliceObjective(gamma=1.0, omega=1.0))):
            for run_seed in (0, seed):
                self.assert_same_run(onet, mm.DetectConfig(objective=objective, seed=run_seed))

    @pytest.mark.parametrize("omega", [1.0, 2.0])
    def test_matches_literal_loop_on_stall_network(self, omega):
        # multislice local moving stalls here at omega >= 1 with every
        # entity a community of its own
        spec = mm.PlantedSpec(entities=100, communities=3, layers=3, p_in=0.3,
                              p_out=0.02, seed=1)
        net, _ = mm.planted_multilayer(spec)
        objective = mm.MultisliceObjective(gamma=1.0, omega=omega)
        for run_seed in (0, 7):
            self.assert_same_run(net, mm.DetectConfig(objective=objective, seed=run_seed))

    def test_matches_literal_loop_on_benchmark_sized_network(self, benchmark_sized):
        # aggregation keeps most units here, and with them their skip records
        objective = mm.MultisliceObjective(gamma=1.0, omega=1.0)
        self.assert_same_run(benchmark_sized, mm.DetectConfig(objective=objective, seed=7))

    def test_skip_carries_across_aggregation(self, monkeypatch, benchmark_sized):
        events = []

        class LoggedRandom(random.Random):
            def shuffle(self, x):
                events.append(len(x))
                super().shuffle(x)

        def counted_gather(self, unit, where):
            events.append(None)
            return gather(self, unit, where)

        gather = _MultisliceEngine.gather
        monkeypatch.setattr(detect, "random", SimpleNamespace(Random=LoggedRandom))
        monkeypatch.setattr(_MultisliceEngine, "gather", counted_gather)
        mm.generalized_louvain(benchmark_sized, mm.DetectConfig(
            objective=mm.MultisliceObjective(gamma=1.0, omega=1.0), seed=7))
        passes = []  # [units, gathers] per pass
        for event in events:
            if event is None:
                passes[-1][1] += 1
            else:
                passes.append([event, 0])
        assert passes[0] == [benchmark_sized.num_tuples()] * 2
        after = [now for before, now in zip(passes, passes[1:])
                 if now[0] != before[0] and 2 * now[0] > before[0]]
        assert after  # an aggregation that keeps most units
        for units, gathers in after:
            assert gathers < units

    @pytest.mark.parametrize("max_passes", [1, 3])
    def test_stops_at_max_passes_without_aggregating(self, monkeypatch, max_passes):
        spec = mm.PlantedSpec(entities=60, communities=3, layers=3, p_in=0.3,
                              p_out=0.02, presence=0.8, seed=4)
        net, _ = mm.planted_multilayer(spec)
        # at max_passes 3 the first two passes stall and aggregate before the third
        config = mm.DetectConfig(objective=mm.MultisliceObjective(gamma=1.0, omega=1.0),
                                 seed=2, max_passes=max_passes, min_gain=0.05)
        want = literal_generalized_louvain(net, config)
        assert want.passes == max_passes

        events = []

        class LoggedRandom(random.Random):
            def shuffle(self, x):
                events.append("pass")
                super().shuffle(x)

        def logged_make_unit(*args):
            events.append("unit")
            return make_unit(*args)

        make_unit = detect._make_unit
        monkeypatch.setattr(detect, "random", SimpleNamespace(Random=LoggedRandom))
        monkeypatch.setattr(detect, "_make_unit", logged_make_unit)
        got = mm.generalized_louvain(net, config)
        assert got.structure.as_assignment() == want.structure.as_assignment()
        assert (got.passes, got.moves, got.objective) == (want.passes, want.moves, want.objective)
        assert events.count("pass") == max_passes
        assert events[-1] == "pass"  # no unit is built after the last pass
        aggregated = events.count("unit") > net.num_tuples()
        assert aggregated == (max_passes == 3)


class TestGather:
    def test_one_gather_equals_literal_count(self):
        # both engines inherit the one walk; neither carries its own copy
        assert "gather" not in vars(_MultilayerEngine)
        assert "gather" not in vars(_MultisliceEngine)
        rng = random.Random(97)
        multilayer = mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                                            coupling=mm.CouplingPolicy.asym_inner())
        multislice = mm.MultisliceObjective(gamma=1.0, omega=1.0)
        checked = 0  # networks the multislice engine is built on
        for _ in range(60):
            net = random_multilayer(rng)
            objectives = [multilayer]
            if all(net.edges_idx(l) for l in range(net.num_layers) if net.presence_idx(l)):
                objectives.append(multislice)  # the layer-local null needs an edge per layer
                checked += 1
            engines = [objective.gain_engine(net) for objective in objectives]
            engines += [literal_engine(net, objective) for objective in objectives]
            occurrences = [(net.entity_index(e), net.layer_index(l)) for e, l in net.tuples()]
            k = rng.randint(1, 4)
            where = where_table(net, {t: rng.randrange(k) for t in occurrences})
            layers = [l for l in range(net.num_layers) if net.presence_idx(l)]
            for _ in range(10):
                l = rng.choice(layers)
                present = sorted(net.presence_idx(l))
                size = 1 if rng.random() < 0.4 else rng.randint(1, len(present))
                unit = _make_unit(net, l, rng.sample(present, size))
                want = literal_gather(net, unit, where)
                for engine in engines:
                    found = engine.gather(unit, where)
                    assert {c: [k_s, dict(occ)] for c, (k_s, occ) in found.items()} == want
        assert checked >= 20


class TestIncrementalGains:
    """Engine gains must equal exact objective differences, move by move."""

    @staticmethod
    def check_moves(rng, net, engine, rescore):
        """Move random single occurrences between two communities and check
        each gain against ``rescore`` and the live aggregates against a
        from-scratch rebuild of the same split."""
        occurrences = [(net.entity_index(e), net.layer_index(l)) for e, l in net.tuples()]
        split = {t: rng.randrange(2) for t in occurrences}
        comms = {c: new_comm(engine, [t for t in occurrences if split[t] == c])
                 for c in (0, 1)}

        def score():
            assignment = {(net.entity_ids[e], net.layer_ids[l]): split[(e, l)]
                          for e, l in occurrences}
            return rescore(mm.CommunityStructure(net, assignment))

        for _ in range(25):
            t = rng.choice(occurrences)
            src = split[t]
            dst = 1 - src
            if sum(1 for x in split.values() if x == src) == 1:
                continue  # keep both communities nonempty for rescoring
            before = score()
            unit = _make_unit(net, t[1], (t[0],))
            found = engine.gather(unit, where_table(net, split))
            (dq_r, patch_r), (dq_i, patch_i) = engine.evaluate(comms, unit, found, src, [dst])
            engine.apply(comms[src], unit, patch_r, removing=True)
            engine.apply(comms[dst], unit, patch_i, removing=False)
            split[t] = dst
            assert dq_r + dq_i == pytest.approx(score() - before, abs=1e-12)
            # incremental aggregates must match a from-scratch rebuild
            for c in (0, 1):
                rebuilt = new_comm(engine, [o for o in occurrences if split[o] == c])
                for field in ("size", "flat", "deg", "inter", "nrp"):
                    live = {k: v for k, v in getattr(comms[c], field).items() if v}
                    fresh = {k: v for k, v in getattr(rebuilt, field).items() if v}
                    assert live == fresh

    @pytest.mark.parametrize("resolution,coupling", [
        (mm.ResolutionPolicy.constant(1), mm.CouplingPolicy.symmetric()),
        (mm.ResolutionPolicy.redundancy(), mm.CouplingPolicy.symmetric()),
        (mm.ResolutionPolicy.redundancy(), mm.CouplingPolicy.asym_inner()),
        (mm.ResolutionPolicy.constant(0.5), mm.CouplingPolicy.asym_outer()),
    ])
    def test_gains_match_rescoring(self, resolution, coupling):
        rng = random.Random(73)
        for _ in range(8):
            net = random_multilayer(rng)
            objective = mm.MultilayerObjective(resolution=resolution, coupling=coupling)
            self.check_moves(rng, net, _MultilayerEngine(net, objective),
                             lambda cs: mm.multilayer_modularity(net, cs, resolution,
                                                                 coupling).total)

    def test_time_aware_gains_under_natural_orderings(self):
        # an unordered random network rebuilt under each natural ordering
        rng = random.Random(79)
        resolution = mm.ResolutionPolicy.redundancy()
        coupling = mm.CouplingPolicy.asym_outer(time_aware=True)
        objective = mm.MultilayerObjective(resolution=resolution, coupling=coupling)
        for _ in range(8):
            net = random_multilayer(rng)
            assert not net.ordering.is_natural
            for ordering in natural_orderings(net):
                onet = with_ordering(net, ordering)
                self.check_moves(rng, onet, _MultilayerEngine(onet, objective),
                                 lambda cs: mm.multilayer_modularity(
                                     onet, cs, resolution, coupling).total)

    def test_multislice_gains_match_rescoring(self):
        rng = random.Random(83)
        checked = 0
        while checked < 8:
            net = random_multilayer(rng)
            if any(net.presence_idx(l) and not net.edges_idx(l)
                   for l in range(net.num_layers)):
                continue  # the layer-local null model needs an edge per layer
            gammas = [rng.choice((0.5, 1.0, 1.5)) for _ in net.layer_ids]
            objective = mm.MultisliceObjective(gamma=gammas, omega=0.7)
            self.check_moves(rng, net, _MultisliceEngine(net, objective),
                             lambda cs: mm.multislice_modularity(net, cs, gammas, 0.7))
            checked += 1

    def test_singletons_equal_rebuild(self):
        # a community starts as an empty _Comm with its occurrence applied
        spec = mm.PlantedSpec(entities=40, communities=3, layers=3, p_in=0.4,
                              p_out=0.05, presence=0.8, seed=6)
        net, _ = mm.planted_multilayer(spec)
        objectives = [mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                                             coupling=mm.CouplingPolicy.symmetric()),
                      mm.MultisliceObjective(gamma=1.0, omega=1.0)]
        for objective in objectives:
            engine = objective.gain_engine(net)
            for e, l in net.tuples():
                t = (net.entity_index(e), net.layer_index(l))
                comm = detect._Comm()
                engine.apply(comm, _make_unit(net, t[1], (t[0],)), detect._NO_PATCH,
                             removing=False)
                rebuilt = new_comm(engine, [t])
                for field in ("size", "flat", "deg", "inter", "nrp"):
                    assert getattr(comm, field) == getattr(rebuilt, field)

    @staticmethod
    def check_literal_gains(rng, net, objective):
        """Move random blocks of one community's occurrences in one layer
        between random communities and check that the removal's and every
        other community's ``dq`` and patch equal the literal engine's bit
        for bit, each read from the literal engine's own gather."""
        engine = objective.gain_engine(net)
        literal = literal_engine(net, objective)
        occurrences = [(net.entity_index(e), net.layer_index(l)) for e, l in net.tuples()]
        k = rng.randint(2, 4)
        split = {t: rng.randrange(k) for t in occurrences}
        comms = {c: new_comm(engine, [t for t in occurrences if split[t] == c])
                 for c in range(k)}
        for _ in range(30):
            e, l = rng.choice(occurrences)
            src = split[(e, l)]
            candidates = [c for c in range(k) if c != src]
            dst = rng.choice(candidates)
            block = [f for f, m in occurrences
                     if m == l and split[(f, m)] == src and (f == e or rng.random() < 0.4)]
            unit = _make_unit(net, l, block)
            where = where_table(net, split)
            found = engine.gather(unit, where)
            counts = literal.gather(unit, where)
            assert found.keys() == counts.keys()
            removal, *insertions = engine.evaluate(comms, unit, found, src, candidates)
            assert removal == literal.delta(comms[src], unit, counts.get(src, [0, {}]),
                                            removing=True)
            assert len(insertions) == len(candidates)
            for c, insertion in zip(candidates, insertions):
                assert insertion == literal.delta(comms[c], unit, counts.get(c, [0, {}]),
                                                  removing=False)
            engine.apply(comms[src], unit, removal[1], removing=True)
            engine.apply(comms[dst], unit, insertions[candidates.index(dst)][1], removing=False)
            for f in unit.entities:
                split[(f, l)] = dst

    @pytest.mark.parametrize("resolution", [mm.ResolutionPolicy.constant(0.7),
                                            mm.ResolutionPolicy.redundancy()])
    @pytest.mark.parametrize("kind", ["none", "symmetric", "asym-inner", "asym-outer"])
    @pytest.mark.parametrize("scheme", [None, mm.PairingScheme.ADJACENT,
                                        mm.PairingScheme.PAIRWISE])
    def test_gains_equal_literal_engine(self, resolution, kind, scheme):
        rng = random.Random(89)
        # layers a and b share no entity: a coupled pair whose value is always 0
        disjoint = mm.build_network(
            layers=["a", "b", "c"],
            edges=[("a", 0, 1), ("a", 1, 2), ("a", 0, 2), ("b", 3, 4), ("b", 4, 5),
                   ("c", 0, 1), ("c", 1, 3), ("c", 3, 4), ("c", 2, 5)],
            presence=[("c", v) for v in range(6)])
        assert disjoint.shared_count_idx(0, 1) == 0
        spec = mm.PlantedSpec(entities=40, communities=3, layers=3, p_in=0.4,
                              p_out=0.05, presence=0.8, seed=6)
        networks = [disjoint, mm.planted_multilayer(spec)[0],
                    *(random_multilayer(rng) for _ in range(6))]
        time_aware = scheme is not None and kind.startswith("asym")
        for net in networks:
            ordering = (mm.LayerOrdering.unordered() if scheme is None else
                        mm.LayerOrdering.natural(net.layer_ids, scheme, time_aware))
            objective = mm.MultilayerObjective(resolution=resolution,
                                               coupling=mm.CouplingPolicy(kind, time_aware))
            self.check_literal_gains(rng, with_ordering(net, ordering), objective)

    def test_multislice_gains_equal_literal_engine(self):
        rng = random.Random(91)
        spec = mm.PlantedSpec(entities=40, communities=3, layers=3, p_in=0.4,
                              p_out=0.05, presence=0.8, seed=6)
        networks = [mm.planted_multilayer(spec)[0], *(random_multilayer(rng) for _ in range(12))]
        checked = 0
        for net in networks:
            if any(net.presence_idx(l) and not net.edges_idx(l) for l in range(net.num_layers)):
                continue  # the layer-local null model needs an edge per layer
            objective = mm.MultisliceObjective(
                gamma=[rng.choice((0.5, 1.0, 1.5)) for _ in net.layer_ids],
                omega=rng.choice((0.0, 0.3, 1.0)))
            self.check_literal_gains(rng, net, objective)
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("resolution", [mm.ResolutionPolicy.constant(0.7),
                                            mm.ResolutionPolicy.redundancy()])
    @pytest.mark.parametrize("kind", ["none", "symmetric", "asym-inner", "asym-outer"])
    def test_removal_gather_does_not_reach(self, resolution, kind):
        # (0, a) shares its community only with entity 1, which is neither
        # its neighbour in a nor one of its own occurrences; the pair (0, 1)
        # is redundant through layers b and c
        net = mm.build_network(layers=["a", "b", "c"],
                               edges=[("a", 0, 2), ("a", 1, 3), ("a", 2, 3),
                                      ("b", 0, 1), ("c", 0, 1)])
        objective = mm.MultilayerObjective(resolution=resolution,
                                           coupling=mm.CouplingPolicy(kind))
        engine = _MultilayerEngine(net, objective)
        literal = LiteralMultilayerEngine(net, objective)
        idx = lambda e, l: (net.entity_index(e), net.layer_index(l))
        split = {t: 1 for t in (idx(e, l) for e, l in net.tuples())}
        for e, l in [(0, "a"), (1, "a"), (1, "b"), (1, "c")]:
            split[idx(e, l)] = 0
        comms = {c: new_comm(engine, [t for t in split if split[t] == c]) for c in (0, 1)}
        e, l = idx(0, "a")
        unit = _make_unit(net, l, (e,))
        found = engine.gather(unit, where_table(net, split))
        assert list(found) == [1]
        removal, insertion = engine.evaluate(comms, unit, found, 0, [1])
        assert removal == literal.delta(comms[0], unit, [0, {}], removing=True)
        assert insertion == literal.delta(comms[1], unit, found[1], removing=False)
        if resolution.kind == "redundancy":
            assert removal[1][1] == {net.layer_index("b"): -1, net.layer_index("c"): -1}

    def test_decay_table_reaches_complete_multiplex(self):
        # K_8 in 3 layers: every pair is redundant in every layer, and the
        # whole network merges into one community holding all of them
        layers = ["a", "b", "c"]
        net = mm.build_network(layers=layers, edges=[(l, u, v) for l in layers
                                                     for u in range(8) for v in range(u + 1, 8)])
        objective = mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                                           coupling=mm.CouplingPolicy.symmetric())
        engine = _MultilayerEngine(net, objective)
        assert all(g == log_decay(n) for n, g in enumerate(engine.decay))
        everything = new_comm(engine, [(net.entity_index(e), net.layer_index(l))
                                       for e, l in net.tuples()])
        assert everything.nrp == {0: 28, 1: 28, 2: 28}
        assert len(engine.decay) > max(everything.nrp.values())
        config = mm.DetectConfig(objective=objective)
        assert mm.generalized_louvain(net, config).structure.num_communities == 1
        TestGeneralizedLouvain.assert_same_run(net, config)


class TestAggregateMajority:
    def test_identical_layers(self, twin_triangle_layers):
        res = mm.aggregate_majority(twin_triangle_layers, constant_symmetric(seed=0))
        single = louvain_partition(twin_triangle_layers, "x", seed=0)
        groups = lambda p: sorted(sorted(g) for g in
                                  {c: [e for e, cc in p.items() if cc == c]
                                   for c in set(p.values())}.values())
        assert groups(res.partition) == groups(single)

    def test_three_identical_planted_layers(self):
        spec = mm.PlantedSpec(entities=24, communities=2, layers=1,
                              p_in=0.95, p_out=0.05, presence=1.0, seed=3)
        single, planted = mm.planted_multilayer(spec)
        edges = [(l, net_e0, net_e1) for l in ("a", "b", "c")
                 for net_e0, net_e1 in
                 [(single.entity_ids[u], single.entity_ids[v])
                  for u, v in single.edges_idx(0)]]
        net = mm.build_network(layers=["a", "b", "c"], edges=edges)
        res = mm.aggregate_majority(net, constant_symmetric(seed=0))
        assert mm.nmi(res.partition, planted) == pytest.approx(1.0)

    def test_conflicting_layer_outvoted(self):
        # layers a and b carry the two triangles; layer c splits {0,1,2}
        edges = [(l, u, v) for l in ("a", "b") for u, v in TRIANGLES]
        edges += [("c", 0, 1)]
        edges += [("c", u, v) for u, v in [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]]
        net = mm.build_network(layers=["a", "b", "c"], edges=edges)
        res = mm.aggregate_majority(net, constant_symmetric(seed=0))
        part = res.partition
        assert part[0] == part[1] == part[2]
        assert part[3] == part[4] == part[5]
        assert part[0] != part[3]

    def test_matches_literal_baseline(self):
        # seeded small planted networks, every layer with an edge; the tie
        # toward the lower global label on equal overlap decides many of them
        rng = random.Random(18)
        config = mm.DetectConfig(objective=mm.MultisliceObjective(gamma=1.0, omega=0.5))
        checked = 0
        while checked < 40:
            n = rng.randint(6, 30)
            spec = mm.PlantedSpec(entities=n, communities=rng.randint(1, max(1, n // 4)),
                                  layers=rng.randint(2, 4), p_in=0.6, p_out=0.1,
                                  presence=rng.choice([0.6, 0.8, 1.0]),
                                  seed=rng.randrange(10**6))
            net, _ = mm.planted_multilayer(spec)
            if not all(net.num_edges(layer) for layer in net.layer_ids):
                continue
            checked += 1
            res = mm.aggregate_majority(net, config)
            lit = literal_aggregate_majority(net, config)
            assert res.structure.as_assignment() == lit.structure.as_assignment()
            assert res.partition == lit.partition
            assert res.objective == lit.objective
            assert (res.passes, res.moves) == (lit.passes, lit.moves)

    def test_error_on_edgeless_layer(self):
        net = mm.build_network(layers=["a", "b"], edges=[("a", 0, 1)],
                               presence=[("b", 0)])
        with pytest.raises(InputError):
            mm.aggregate_majority(net, constant_symmetric())

    @pytest.mark.parametrize("objective", [
        mm.MultisliceObjective(gamma=[1.0, 1.0], omega=0.5),
        mm.MultilayerObjective(coupling=mm.CouplingPolicy.asym_inner(time_aware=True)),
    ], ids=["gamma-list-length", "time-aware-unordered"])
    def test_objective_checked_before_layer_louvain(self, monkeypatch, objective):
        def fail(*args, **kwargs):
            raise AssertionError("per-layer Louvain ran before the objective was checked")

        monkeypatch.setattr("multimod.detect._layer_louvain", fail)
        edges = [(l, u, v) for l in ("a", "b", "c") for u, v in TRIANGLES]
        net = mm.build_network(layers=["a", "b", "c"], edges=edges)
        with pytest.raises(PolicyError):
            mm.aggregate_majority(net, mm.DetectConfig(objective=objective))


@pytest.mark.parametrize("method", [mm.generalized_louvain, mm.aggregate_majority])
@pytest.mark.parametrize("objective", ["q", None, mm.ResolutionPolicy.redundancy()],
                         ids=["str", "none", "policy"])
def test_non_objective_rejected(twin_triangle_layers, method, objective):
    with pytest.raises(PolicyError, match="unknown objective"):
        method(twin_triangle_layers, mm.DetectConfig(objective=objective))


@pytest.mark.parametrize("min_gain", [0.0, -1e-9, math.nan, math.inf])
def test_min_gain_must_be_finite_and_positive(min_gain):
    with pytest.raises(PolicyError, match="min_gain"):
        mm.DetectConfig(min_gain=min_gain)


class TestNmi:
    def test_identical(self):
        part = {i: i % 3 for i in range(9)}
        assert mm.nmi(part, dict(part)) == pytest.approx(1.0)

    def test_relabeled_identical(self):
        a = {i: i % 3 for i in range(9)}
        b = {i: (v + 7) * 13 for i, v in a.items()}
        assert mm.nmi(a, b) == pytest.approx(1.0)

    def test_one_block_vs_singletons(self):
        a = {i: 0 for i in range(6)}
        b = {i: i for i in range(6)}
        assert mm.nmi(a, b) == 0.0

    def test_hand_computed_contingency(self):
        a = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        b = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
        # direct entropy computation from the 2x2 contingency table {2,1;0,3}
        n = 6
        h_a = -(3 / n) * math.log(3 / n) * 2
        h_b = -((2 / n) * math.log(2 / n) + (4 / n) * math.log(4 / n))
        info = (2 / n) * math.log((2 * n) / (3 * 2)) \
            + (1 / n) * math.log((1 * n) / (3 * 4)) \
            + (3 / n) * math.log((3 * n) / (3 * 4))
        expected = 2 * info / (h_a + h_b)
        assert mm.nmi(a, b) == pytest.approx(expected, abs=1e-12)

    def test_universe_mismatch(self):
        with pytest.raises(InputError):
            mm.nmi({0: 0}, {1: 0})

    def test_empty(self):
        with pytest.raises(InputError, match="empty"):
            mm.nmi({}, {})

    def test_two_constant_partitions(self):
        assert mm.nmi({i: 0 for i in range(4)}, {i: "x" for i in range(4)}) == 1.0

    def test_bounds(self):
        rng = random.Random(61)
        for _ in range(50):
            n = rng.randint(2, 12)
            a = {i: rng.randrange(3) for i in range(n)}
            b = {i: rng.randrange(3) for i in range(n)}
            assert 0.0 <= mm.nmi(a, b) <= 1.0

"""Detection: Louvain variants, aggregation baseline, NMI."""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction
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
from _gen import natural_orderings, occurrence_ids, random_multilayer, with_ordering

TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


def louvain_partition(net, layer, seed=0):
    """Classic Louvain partition of one layer's graph (node -> community):
    the per-layer run of the aggregation baseline, at the default passes
    and minimum gain."""
    config = mm.DetectConfig(objective=mm.MultisliceObjective(gamma=1.0, omega=0.0), seed=seed)
    return detect._layer_louvain(net, layer, config).partition


@pytest.fixture(scope="module")
def benchmark_sized():
    """A planted network the size of the benchmark's: 1000 entities, 10
    communities, 4 layers, about 3.2k occurrences."""
    spec = mm.PlantedSpec(entities=1000, communities=10, layers=4, p_in=0.1,
                          p_out=0.005, presence=0.8, seed=7)
    return mm.planted_multilayer(spec)[0]


# the objectives of the benchmark's two detect workloads
BENCHMARK_OBJECTIVES = {
    "qms": mm.MultisliceObjective(gamma=1.0, omega=1.0),
    "planted-ml": mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                                         coupling=mm.CouplingPolicy.asym_inner(time_aware=True)),
}


@pytest.fixture(scope="module", params=list(BENCHMARK_OBJECTIVES))
def benchmark_sized_run(request, benchmark_sized):
    """``(net, config, literal run)`` under each benchmark detect objective:
    the planted-ml one on ``benchmark_sized`` rebuilt under the time-aware
    natural-adjacent ordering. The literal run takes about 18 s under
    planted-ml, so the tests that compare against it share it."""
    objective = BENCHMARK_OBJECTIVES[request.param]
    net = benchmark_sized
    if isinstance(objective, mm.MultilayerObjective):
        net = with_ordering(net, mm.LayerOrdering.natural(
            net.layer_ids, mm.PairingScheme.ADJACENT, True))
    config = mm.DetectConfig(objective=objective, seed=7)
    return net, config, literal_generalized_louvain(net, config)


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


def assert_engine_counts(net, cs, comm_of, objective):
    """Each community ``c`` of ``cs`` and ``objective``'s engine community
    ``comm_of[c]`` hold the same projection sizes, degrees, non-zero
    intersections and redundant-pair counts; the multislice engine keeps
    neither of the last two, and constant resolution no redundant pairs."""
    def nonzero(counts):
        return {k: n for k, n in counts.items() if n}

    multilayer = isinstance(objective, mm.MultilayerObjective)
    redundancy = multilayer and objective.resolution.kind == "redundancy"
    layer_ids = net.layer_ids
    pairs = [(i, j) for i in range(net.num_layers) for j in range(i + 1, net.num_layers)]
    for c in cs.communities():
        comm = comm_of[c]
        assert comm.size == [cs.projection_size(c, l) for l in layer_ids]
        assert comm.deg == [cs.degree(c, l) for l in layer_ids]
        assert nonzero(comm.inter) == (nonzero(
            {(i, j): cs.shared_projection_count(c, layer_ids[i], layer_ids[j]) for i, j in pairs})
            if multilayer else {})
        assert comm.nrp == ([cs.redundant_pair_count(c, l) for l in layer_ids]
                            if redundancy else [0] * net.num_layers)


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
                net, {t: i for i, t in enumerate(occurrence_ids(net))})
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
    def assert_same_result(got, want):
        assert got.structure.as_assignment() == want.structure.as_assignment()
        assert (got.passes, got.moves) == (want.passes, want.moves)
        assert got.objective == want.objective

    @staticmethod
    def assert_same_run(net, config):
        TestGeneralizedLouvain.assert_same_result(mm.generalized_louvain(net, config),
                                                  literal_generalized_louvain(net, config))

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

    def test_matches_literal_loop_on_benchmark_sized_network(self, benchmark_sized_run):
        # aggregation keeps most units here, and with them their skip records
        net, config, want = benchmark_sized_run
        self.assert_same_result(mm.generalized_louvain(net, config), want)

    def test_unchanged_candidates_are_not_rescored(self, monkeypatch, benchmark_sized_run):
        # a unit whose own community has not changed since it last stayed
        # put is scored only against the candidates changed since then
        net, config, want = benchmark_sized_run
        engine_class = type(config.objective.gain_engine(net))
        evaluate = engine_class.evaluate
        narrowed = 0

        def logged_evaluate(self, comms, unit, found, src, candidates, floor=0.0):
            nonlocal narrowed
            touched = set(found) - {src}
            assert set(candidates) <= touched and list(candidates) == sorted(candidates)
            narrowed += set(candidates) != touched
            return evaluate(self, comms, unit, found, src, candidates, floor)

        monkeypatch.setattr(engine_class, "evaluate", logged_evaluate)
        self.assert_same_result(mm.generalized_louvain(net, config), want)
        assert narrowed

    def test_summed_gains_equal_rescored_difference(self, monkeypatch, benchmark_sized_run):
        # at production size, the incremental bookkeeping does not drift from
        # the scorer: the gains of every move made add up to the rescored
        # difference between the final structure and the singletons
        net, config, want = benchmark_sized_run
        engine_class = type(config.objective.gain_engine(net))
        evaluate = engine_class.evaluate
        gains = []

        def logged_evaluate(self, comms, unit, found, src, candidates, floor=0.0):
            dq_rem, patch_rem, best = evaluate(self, comms, unit, found, src, candidates, floor)
            if best is not None:  # a move
                gains.append(dq_rem + best[0])
            return dq_rem, patch_rem, best

        monkeypatch.setattr(engine_class, "evaluate", logged_evaluate)
        got = mm.generalized_louvain(net, config)
        singletons = mm.CommunityStructure(net, {t: i for i, t in enumerate(occurrence_ids(net))})
        assert len(gains) == got.moves == want.moves
        drift = math.fsum(gains) - (got.objective - config.objective.score(net, singletons))
        assert abs(drift) <= 1e-9

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

    @pytest.mark.parametrize("objective", [
        mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                               coupling=mm.CouplingPolicy.asym_inner(time_aware=True)),
        mm.MultisliceObjective(gamma=1.0, omega=1.0),
    ], ids=["planted-ml", "qms"])
    def test_engine_counts_equal_final_structure(self, monkeypatch, benchmark_sized, objective):
        # every community's incremental counts, after the whole run, equal
        # the counts of the structure built from the final label table
        net = with_ordering(benchmark_sized, mm.LayerOrdering.natural(
            benchmark_sized.layer_ids, mm.PairingScheme.ADJACENT, True))
        comms = []  # one per occurrence, created in community-id order
        tables = []

        class LoggedComm(detect._Comm):
            __slots__ = ()

            def __init__(self, layers):
                super().__init__(layers)
                comms.append(self)

        def logged_from_labels(cls, net, labels):
            tables.append(labels)
            return from_labels(net, labels)

        from_labels = mm.CommunityStructure._from_labels
        monkeypatch.setattr(detect, "_Comm", LoggedComm)
        monkeypatch.setattr(mm.CommunityStructure, "_from_labels",
                            classmethod(logged_from_labels))
        cs = mm.generalized_louvain(net, mm.DetectConfig(objective=objective, seed=7)).structure
        assert len(comms) == net.num_tuples()
        (labels,) = tables

        ids = {}  # engine community -> structure community
        for c in cs.communities():
            for li, layer in enumerate(net.layer_ids):
                for entity in cs.projection(c, layer):
                    assert ids.setdefault(labels[li][net.entity_index(entity)], c) == c
        assert [cid for cid, comm in enumerate(comms) if comm.flat] == sorted(ids)
        assert_engine_counts(net, cs, {c: comms[cid] for cid, c in ids.items()}, objective)

    @pytest.mark.parametrize("objective", [
        mm.MultisliceObjective(gamma=1.0, omega=0.5),
        mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                               coupling=mm.CouplingPolicy.asym_inner(time_aware=True)),
        mm.MultilayerObjective(coupling=mm.CouplingPolicy.symmetric()),
    ], ids=["qms", "q-redundancy-asym-inner-time-aware", "q-constant-symmetric"])
    def test_move_path_builds_any_labelling(self, objective):
        # the engine's own move path builds the counts of any labelling: from
        # the singleton state, each occurrence, entity-major, is moved into
        # the community of the first occurrence with its label
        spec = mm.PlantedSpec(entities=120, communities=4, layers=3, p_in=0.2,
                              p_out=0.02, presence=0.8, seed=3)
        net = mm.planted_multilayer(spec)[0]
        net = with_ordering(net, mm.LayerOrdering.natural(
            net.layer_ids, mm.PairingScheme.ADJACENT, True))
        rng = random.Random(11)
        labels = [[rng.randrange(6) for _ in range(net.num_entities)]
                  for _ in range(net.num_layers)]

        # the singleton state that generalized_louvain starts from
        engine = objective.gain_engine(net)
        where = [[None] * net.num_entities for _ in range(net.num_layers)]
        comms = {}
        units = [_make_unit(net, l, (e,))
                 for e in range(net.num_entities) for l in net.entity_layers_idx(e)]
        for cid, unit in enumerate(units):
            where[unit.layer][unit.entities[0]] = cid
            comms[cid] = detect._Comm(net.num_layers)
            engine.apply(comms[cid], unit, detect._NO_PATCH, 1)

        home = {}  # label -> community of its first occurrence
        for unit in units:
            here = where[unit.layer]
            (e,) = unit.entities
            src = here[e]
            dst = home.setdefault(labels[unit.layer][e], src)
            if dst == src:
                continue
            found = engine.gather(unit, where)
            _, patch_rem, (_, cid, patch_ins) = engine.evaluate(
                comms, unit, found, src, [dst], floor=-math.inf)
            assert cid == dst
            engine.apply(comms[src], unit, patch_rem, -1)
            engine.apply(comms[dst], unit, patch_ins, 1)
            assert not comms[src].flat
            del comms[src]
            here[e] = dst

        # the structure numbers the labels by first occurrence, entity-major,
        # the order of the remaining communities' ids
        cs = mm.CommunityStructure._from_labels(net, labels)
        ids = sorted(comms)
        assert len(ids) == cs.num_communities == 6
        assert cs.as_assignment() == {
            (net.entity_ids[e], net.layer_ids[l]): ids.index(where[l][e])
            for e in range(net.num_entities) for l in net.entity_layers_idx(e)}
        assert_engine_counts(net, cs, [comms[cid] for cid in ids], objective)


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
            occurrences = [(net.entity_index(e), net.layer_index(l))
                           for e, l in occurrence_ids(net)]
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
        occurrences = [(net.entity_index(e), net.layer_index(l)) for e, l in occurrence_ids(net)]
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
            dq_r, patch_r, (dq_i, moved_to, patch_i) = engine.evaluate(
                comms, unit, found, src, [dst], floor=-math.inf)
            assert moved_to == dst
            engine.apply(comms[src], unit, patch_r, -1)
            engine.apply(comms[dst], unit, patch_i, 1)
            split[t] = dst
            assert dq_r + dq_i == pytest.approx(score() - before, abs=1e-12)
            # incremental aggregates must match a from-scratch rebuild
            for c in (0, 1):
                rebuilt = new_comm(engine, [o for o in occurrences if split[o] == c])
                for field in ("size", "deg", "nrp"):  # one count per layer
                    assert getattr(comms[c], field) == getattr(rebuilt, field)
                for field in ("flat", "inter"):
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
            for e, l in occurrence_ids(net):
                t = (net.entity_index(e), net.layer_index(l))
                comm = detect._Comm(net.num_layers)
                engine.apply(comm, _make_unit(net, t[1], (t[0],)), detect._NO_PATCH, 1)
                rebuilt = new_comm(engine, [t])
                for field in ("size", "flat", "deg", "inter", "nrp"):
                    assert getattr(comm, field) == getattr(rebuilt, field)

    @staticmethod
    def check_evaluate(engine, literal, comms, unit, found, counts, src, candidates):
        """Check ``engine.evaluate`` against the literal engine's ``delta``,
        read from ``counts``, bit for bit: one call per candidate with floor
        -inf returns the removal's ``dq`` and patch and that candidate's,
        and one call over every candidate returns the first maximum of
        ``dq_rem + dq_ins`` above the floor, or None, at the default floor
        (the move ``generalized_louvain`` makes), at each candidate's gain
        and just below it. Under the multilayer objective, an insertion
        that changes no intersection and no redundant-pair count must gain
        at most ``dq_rem + ddint / norm``. Returns the literal ``(dq, patch)`` of
        the removal and of each candidate, and whether that bound was at
        most the running best for some candidate at the default floor,
        which is when the engine skips the candidate's null and coupling
        terms."""
        removal = literal.delta(comms[src], unit, counts.get(src, [0, {}]), removing=True)
        dq_rem = removal[0]
        multilayer = isinstance(literal, LiteralMultilayerEngine)
        insertions = {}
        bounds = {}
        for c in candidates:
            k_s, occ = counts.get(c, [0, {}])
            dq, patch = insertions[c] = literal.delta(comms[c], unit, [k_s, occ],
                                                      removing=False)
            assert engine.evaluate(comms, unit, found, src, [c], floor=-math.inf) == (
                *removal, (dq, c, patch))
            if multilayer and not any(patch):
                bounds[c] = dq_rem + 2 * (k_s + unit.within) / literal.norm
                assert dq_rem + dq <= bounds[c]
        bound_held = False
        gains = [dq_rem + dq for dq, _ in insertions.values()]
        for floor in (0.0, *gains, *(math.nextafter(gain, -math.inf) for gain in gains)):
            best = None
            best_gain = floor
            for c in candidates:
                dq, patch = insertions[c]
                bound_held = bound_held or (floor == 0.0 and c in bounds
                                            and bounds[c] <= best_gain)
                if dq_rem + dq > best_gain:
                    best_gain = dq_rem + dq
                    best = (dq, c, patch)
            assert engine.evaluate(comms, unit, found, src, candidates, floor=floor) == (
                *removal, best)
        return removal, insertions, bound_held

    @staticmethod
    def check_literal_gains(rng, net, objective):
        """Move random blocks of one community's occurrences in one layer
        between random communities and check, with ``check_evaluate``, the
        removal's and every other community's ``dq`` and patch and the
        chosen move against the literal engine, each read from the literal
        engine's own gather. Returns the number of moves in which the
        insertion bound held for some candidate."""
        engine = objective.gain_engine(net)
        literal = literal_engine(net, objective)
        occurrences = [(net.entity_index(e), net.layer_index(l)) for e, l in occurrence_ids(net)]
        k = rng.randint(2, 4)
        split = {t: rng.randrange(k) for t in occurrences}
        comms = {c: new_comm(engine, [t for t in occurrences if split[t] == c])
                 for c in range(k)}
        bound_states = 0
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
            removal, insertions, bound_held = TestIncrementalGains.check_evaluate(
                engine, literal, comms, unit, found, counts, src, candidates)
            bound_states += bound_held
            engine.apply(comms[src], unit, removal[1], -1)
            engine.apply(comms[dst], unit, insertions[dst][1], 1)
            for f in unit.entities:
                split[(f, l)] = dst
        return bound_states

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

    @pytest.mark.parametrize("resolution", [mm.ResolutionPolicy.constant(0.7),
                                            mm.ResolutionPolicy.redundancy()])
    @pytest.mark.parametrize("kind", ["none", "symmetric", "asym-inner", "asym-outer"])
    @pytest.mark.parametrize("scheme", [None, mm.PairingScheme.ADJACENT])
    def test_insertion_bound_is_exact_and_runs(self, resolution, kind, scheme):
        # the choice under the bound is the literal choice, and the bound
        # decides some of the candidates in these states
        rng = random.Random(101)
        spec = mm.PlantedSpec(entities=40, communities=3, layers=3, p_in=0.4,
                              p_out=0.05, presence=0.8, seed=9)
        networks = [mm.planted_multilayer(spec)[0], *(random_multilayer(rng) for _ in range(6))]
        time_aware = scheme is not None and kind.startswith("asym")
        objective = mm.MultilayerObjective(resolution=resolution,
                                           coupling=mm.CouplingPolicy(kind, time_aware))
        bound_states = 0
        for net in networks:
            ordering = (mm.LayerOrdering.unordered() if scheme is None else
                        mm.LayerOrdering.natural(net.layer_ids, scheme, time_aware))
            bound_states += self.check_literal_gains(rng, with_ordering(net, ordering),
                                                     objective)
        assert bound_states > 0

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
        split = {t: 1 for t in (idx(e, l) for e, l in occurrence_ids(net))}
        for e, l in [(0, "a"), (1, "a"), (1, "b"), (1, "c")]:
            split[idx(e, l)] = 0
        comms = {c: new_comm(engine, [t for t in split if split[t] == c]) for c in (0, 1)}
        e, l = idx(0, "a")
        unit = _make_unit(net, l, (e,))
        found = engine.gather(unit, where_table(net, split))
        assert list(found) == [1]
        removal, _, _ = self.check_evaluate(engine, literal, comms, unit, found, found, 0, [1])
        if resolution.kind == "redundancy":
            assert removal[1][1] == {net.layer_index("b"): -1, net.layer_index("c"): -1}

    @pytest.mark.parametrize("objective", [
        *(mm.MultilayerObjective(resolution=resolution, coupling=mm.CouplingPolicy(kind))
          for resolution in (mm.ResolutionPolicy.constant(0.7), mm.ResolutionPolicy.redundancy())
          for kind in ("none", "symmetric", "asym-inner", "asym-outer")),
        mm.MultisliceObjective(gamma=[0.5, 1.5], omega=0.7),
    ], ids=lambda o: (f"{o.resolution.kind}-{o.coupling.kind}"
                      if isinstance(o, mm.MultilayerObjective) else "qms"))
    def test_no_candidates_evaluates_the_removal(self, objective):
        # (4, a) has no neighbour and no other layer: gather finds nothing,
        # and generalized_louvain asks for its removal alone; it shares its
        # community with occurrences in both layers, so the projection of a
        # and its intersection with b change
        net = mm.build_network(layers=["a", "b"],
                               edges=[("a", 0, 1), ("a", 1, 2), ("a", 2, 3), ("b", 0, 1),
                                      ("b", 1, 2)],
                               presence=[("a", 4)])
        engine = objective.gain_engine(net)
        literal = literal_engine(net, objective)
        idx = lambda e, l: (net.entity_index(e), net.layer_index(l))
        split = {t: 1 for t in (idx(e, l) for e, l in occurrence_ids(net))}
        for e, l in [(4, "a"), (0, "a"), (1, "a"), (0, "b")]:
            split[idx(e, l)] = 0
        comms = {c: new_comm(engine, [t for t in split if split[t] == c]) for c in (0, 1)}
        e, l = idx(4, "a")
        unit = _make_unit(net, l, (e,))
        found = engine.gather(unit, where_table(net, split))
        assert found == {}
        assert engine.evaluate(comms, unit, found, 0, [], floor=-math.inf) == (
            *literal.delta(comms[0], unit, [0, {}], removing=True), None)

    # layers a, b and c over entities 0..5, each entity in every layer
    SKIP_EDGES = [("a", 0, 1), ("a", 1, 2), ("a", 0, 2), ("a", 3, 4), ("a", 4, 5), ("a", 3, 5),
                  ("b", 0, 1), ("b", 1, 2), ("b", 3, 4), ("b", 4, 5), ("b", 2, 3),
                  ("c", 0, 2), ("c", 1, 2), ("c", 3, 5), ("c", 2, 3), ("c", 4, 5)]
    # moving (0, b) into community 1 adds 0 to its intersection with a only,
    # and community 1 holds entities 1 and 2 in both b and c
    INTO_ONE_PARTNER = {(0, "b"): 0, (0, "a"): 1, **{(e, l): 1 for e in (1, 2) for l in "abc"}}

    @staticmethod
    def check_one_move(ordering, kind, split, moved):
        """Place the occurrences of the three-layer network under
        ``ordering`` by ``split`` ((entity, layer) -> community, 2 for the
        rest) and evaluate moving occurrence ``moved`` out of its community
        and into every other one it touches, under redundancy resolution
        and ``kind`` coupling (time-aware when asymmetric under a natural
        ordering). Every dq and patch must equal the literal engine's bit
        for bit. Returns the engine, the communities and the counts, for
        the caller to check which terms the move leaves unchanged."""
        net = mm.build_network(layers=["a", "b", "c"], edges=TestIncrementalGains.SKIP_EDGES,
                               ordering=ordering)
        time_aware = ordering.is_natural and kind.startswith("asym")
        objective = mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                                           coupling=mm.CouplingPolicy(kind, time_aware))
        engine = _MultilayerEngine(net, objective)
        literal = LiteralMultilayerEngine(net, objective)
        idx = lambda e, l: (net.entity_index(e), net.layer_index(l))
        assign = {idx(e, l): split.get((e, l), 2) for e, l in occurrence_ids(net)}
        comms = {c: new_comm(engine, [t for t in assign if assign[t] == c])
                 for c in set(assign.values())}
        e, l = idx(*moved)
        unit = _make_unit(net, l, (e,))
        where = where_table(net, assign)
        found = engine.gather(unit, where)
        src = assign[(e, l)]
        candidates = sorted(c for c in found if c != src)
        assert candidates
        TestIncrementalGains.check_evaluate(engine, literal, comms, unit, found, found, src,
                                            candidates)
        return engine, comms, found

    @pytest.mark.parametrize("kind", ["asym-inner", "asym-outer"])
    def test_own_term_without_intersection(self, kind):
        # (0, a) leaves community 0 and may enter community 3, neither of
        # which holds anything outside a: every term whose source is a has
        # no intersection, before or after, while that source's size changes
        split = {(0, "a"): 0, (1, "a"): 0, (2, "a"): 3}
        engine, comms, found = self.check_one_move(mm.LayerOrdering.unordered(), kind, split,
                                                   (0, "a"))
        assert sorted(found) == [0, 2, 3]
        assert engine.own_terms[0]
        for c in (0, 3):
            assert not found[c][1] and not comms[c].inter

    @pytest.mark.parametrize("kind,ordering", [
        ("asym-outer", mm.LayerOrdering.natural(["a", "b", "c"], mm.PairingScheme.ADJACENT, True)),
        ("asym-inner", mm.LayerOrdering.unordered()),
    ], ids=["outer-adjacent", "inner-unordered"])
    def test_other_source_term_with_unchanged_intersection(self, kind, ordering):
        # the (b, c) term whose source projection is c: entering community 1
        # leaves both that projection and the intersection as they were
        engine, comms, found = self.check_one_move(ordering, kind, self.INTO_ONE_PARTNER,
                                                   (0, "b"))
        assert found[1][1] == {0: 1}
        assert comms[1].inter[(1, 2)] == 2
        assert any(other == 2 and side == 2 for _, other, side, *_ in engine.terms[1])

    @pytest.mark.parametrize("ordering", [
        mm.LayerOrdering.unordered(),
        mm.LayerOrdering.natural(["a", "b", "c"], mm.PairingScheme.PAIRWISE),
    ], ids=["unordered", "natural-pairwise"])
    def test_symmetric_move_changes_one_of_two_partners(self, ordering):
        # b is coupled to a and to c; entering community 1 changes only the
        # intersection with a
        engine, comms, found = self.check_one_move(ordering, "symmetric", self.INTO_ONE_PARTNER,
                                                   (0, "b"))
        assert found[1][1] == {0: 1}
        assert comms[1].inter[(1, 2)] == 2
        assert {other for _, other, *_ in engine.terms[1]} == {0, 2}

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
                                       for e, l in occurrence_ids(net)])
        assert everything.nrp == [28, 28, 28]
        assert len(engine.decay) > max(everything.nrp)
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

    @pytest.mark.parametrize("config", [constant_symmetric(seed=2), mm.DetectConfig(
        objective=mm.MultisliceObjective(gamma=1.0, omega=0.5), seed=2)], ids=["q", "qms"])
    def test_layer_only_the_ordering_names(self, tmp_path, config):
        # "M" has no record: the per-layer runs skip it, as gl and the scores do
        records = "".join(f"{l} {u} {v}\n" for l in ("a", "b") for u, v in TRIANGLES + [(2, 3)])
        results = []
        for order in ("a b M", "a b"):
            path = tmp_path / "net.mlg"
            path.write_text(f"%order {order}\n{records}", encoding="utf-8")
            net = mm.read_network(path)
            res = mm.aggregate_majority(net, config)
            lit = literal_aggregate_majority(net, config)
            assert res.structure.as_assignment() == lit.structure.as_assignment()
            assert (res.partition, res.objective, res.passes, res.moves) == \
                (lit.partition, lit.objective, lit.passes, lit.moves)
            results.append((res.structure.as_assignment(), res.partition, res.objective,
                            res.passes, res.moves))
        assert net.layer_ids == ("a", "b")
        assert results[0] == results[1]
        assert results[0][1] == {e: int(e) // 3 for e in map(str, range(6))}

    def test_partition_is_the_majority_vote_on_first_use(self, monkeypatch,
                                                          twin_triangle_layers):
        assert "partition" not in mm.DetectResult._fields
        vote = mm.CommunityStructure.flatten_majority
        reads = []

        def on_read(cs):  # raises in a forked per-layer run too: the parent reruns it
            assert reads, "majority vote computed before the partition was read"
            reads.append((cs, cs._majority is None))  # whether this read computes the vote
            return vote(cs)

        monkeypatch.setattr(mm.CommunityStructure, "flatten_majority", on_read)
        res = mm.aggregate_majority(twin_triangle_layers, constant_symmetric(seed=0))
        reads.append(None)
        first = res.partition
        assert res.partition is first
        # the vote of an equal structure built apart, which has computed nothing yet
        assert first == vote(mm.CommunityStructure(twin_triangle_layers,
                                                   res.structure.as_assignment()))
        assert reads == [None, (res.structure, True), (res.structure, False)]

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


@pytest.mark.parametrize("min_gain", ["1", None, True, False, (1e-9,), 1j, 10 ** 400,
                                      Fraction(10 ** 400), Decimal("sNaN")])
def test_min_gain_must_be_a_real_number(min_gain):
    # a string or None used to raise a bare TypeError, and True passed as 1;
    # a number too large for a float raised OverflowError
    with pytest.raises(PolicyError, match="min_gain must be a finite number"):
        mm.DetectConfig(min_gain=min_gain)


@pytest.mark.parametrize("min_gain", [1, 0.5, 1e-12])
def test_min_gain_accepts_positive_real_numbers(min_gain):
    assert mm.DetectConfig(min_gain=min_gain).min_gain == min_gain


@pytest.mark.parametrize("name,value", [
    ("seed", None), ("seed", (1, 2)), ("seed", 7.0), ("seed", "7"), ("seed", True),
    ("max_passes", 2.5), ("max_passes", None), ("max_passes", "3"), ("max_passes", True),
])
def test_seed_and_max_passes_must_be_ints(name, value):
    # a seed of None would seed from the OS, and 2.5 passes would run 3
    with pytest.raises(PolicyError, match=f"{name} must be an int"):
        mm.DetectConfig(**{name: value})


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

"""Planted generator, and the brute-force oracles of tests/_brute.py."""

from __future__ import annotations

import itertools
import random

import pytest

import multimod as mm
from multimod.errors import GuardError, InputError

from _brute import (_restricted_growth_strings, best_partition_exhaustive,
                    multilayer_modularity_direct)
from _gen import save_planted


class TestPlantedGenerator:
    def test_cliques_at_extremes(self):
        spec = mm.PlantedSpec(entities=12, communities=3, layers=2,
                              p_in=1.0, p_out=0.0, presence=1.0, seed=1)
        net, planted = mm.planted_multilayer(spec)
        sizes = {}
        for c in planted.values():
            sizes[c] = sizes.get(c, 0) + 1
        expected_edges = sum(s * (s - 1) // 2 for s in sizes.values())
        for li, layer in enumerate(net.layer_ids):
            assert net.num_edges(layer) == expected_edges
            adj = net.adj_idx(li)
            for u, v in itertools.combinations(net.entity_ids, 2):
                linked = net.entity_index(v) in adj.get(net.entity_index(u), ())
                assert linked == (planted[u] == planted[v])

    def test_single_community_density(self):
        spec = mm.PlantedSpec(entities=30, communities=1, layers=1,
                              p_in=0.5, p_out=0.0, presence=1.0, seed=2)
        net, planted = mm.planted_multilayer(spec)
        assert set(planted.values()) == {0}
        possible = 30 * 29 // 2
        density = net.num_edges() / possible
        assert 0.35 < density < 0.65

    def test_determinism(self):
        spec = mm.PlantedSpec(entities=20, communities=2, layers=3,
                              p_in=0.7, p_out=0.1, presence=0.8, seed=9)
        net_a, planted_a = mm.planted_multilayer(spec)
        net_b, planted_b = mm.planted_multilayer(spec)
        assert planted_a == planted_b
        assert net_a.entity_ids == net_b.entity_ids
        for layer in net_a.layer_ids:
            assert net_a.presence_idx(net_a.layer_index(layer)) == \
                net_b.presence_idx(net_b.layer_index(layer))
            assert net_a.edges_idx(net_a.layer_index(layer)) == \
                net_b.edges_idx(net_b.layer_index(layer))

    def test_every_entity_lands_somewhere(self):
        spec = mm.PlantedSpec(entities=25, communities=2, layers=3,
                              p_in=0.6, p_out=0.1, presence=0.2, seed=5)
        net, _ = mm.planted_multilayer(spec)
        for e in (f"n{i:03d}" for i in range(25)):
            assert len(net.entity_layers_idx(net.entity_index(e))) >= 1

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            mm.PlantedSpec(entities=5, communities=6, layers=1, p_in=0.5, p_out=0.1)
        with pytest.raises(InputError):
            mm.PlantedSpec(entities=5, communities=2, layers=1, p_in=0.2, p_out=0.5)
        with pytest.raises(InputError):
            mm.PlantedSpec(entities=5, communities=2, layers=1, p_in=0.5, p_out=0.1,
                           presence=0.0)
        with pytest.raises(InputError, match="at least one layer"):
            mm.PlantedSpec(entities=5, communities=2, layers=0, p_in=0.5, p_out=0.1)

    def test_sizes_and_seed_must_be_ints(self):
        # a seed of None would seed from the OS, and a bool is an int but no count
        spec = mm.PlantedSpec(entities=10, communities=2, layers=2, p_in=0.5, p_out=0.1)
        for field, value in (("seed", None), ("seed", 1.0), ("seed", True),
                             ("entities", 10.0), ("entities", "10"), ("communities", 2.0),
                             ("layers", True), ("layers", 2.0)):
            with pytest.raises(InputError, match=f"^{field} must be an int, not "):
                mm.PlantedSpec(**{**spec._asdict(), field: value})
            with pytest.raises(InputError, match=f"^{field} must be an int, not "):
                spec._replace(**{field: value})

    def test_probabilities_must_be_real_numbers(self):
        # a string raised a bare TypeError, and True passed as 1
        spec = mm.PlantedSpec(entities=10, communities=2, layers=2, p_in=0.5, p_out=0.1)
        with pytest.raises(InputError, match=r"^p_in must be a finite number >= 0, not '0\.5'$"):
            mm.PlantedSpec(10, 2, 2, "0.5", 0.1)
        for field in ("p_in", "p_out", "presence"):
            for value in (True, None, float("nan")):
                with pytest.raises(InputError, match=f"^{field} must be a finite number >= 0"):
                    spec._replace(**{field: value})

    def test_save_round_trip(self, tmp_path):
        spec = mm.PlantedSpec(entities=10, communities=2, layers=2,
                              p_in=0.9, p_out=0.1, presence=0.9, seed=3)
        net, planted = mm.planted_multilayer(spec)
        npath = tmp_path / "net.mlg"
        cpath = tmp_path / "labels.txt"
        save_planted(net, planted, npath, cpath)
        again = mm.read_network(npath)
        assert again.num_edges() == net.num_edges()
        cs = mm.read_communities(again, cpath)
        flat = cs.flatten_majority()
        relabeled = {e: flat[e] for e in planted}
        assert mm.nmi(relabeled, planted) == pytest.approx(1.0)


class TestDirectEvaluator:
    def test_guard(self):
        spec = mm.PlantedSpec(entities=60, communities=2, layers=2,
                              p_in=0.3, p_out=0.1, presence=1.0, seed=0)
        net, planted = mm.planted_multilayer(spec)
        cs = mm.CommunityStructure.from_entity_partition(net, planted)
        with pytest.raises(GuardError):
            multilayer_modularity_direct(net, cs)

    def test_single_layer_matches_newman(self, two_triangles):
        part = {e: (0 if e < 3 else 1) for e in two_triangles.entity_ids}
        cs = mm.CommunityStructure.from_entity_partition(two_triangles, part)
        direct = multilayer_modularity_direct(two_triangles, cs)
        assert direct == pytest.approx(
            mm.newman_modularity(two_triangles, cs), abs=1e-12)

    def test_no_shared_entities_no_coupling(self):
        net = mm.build_network(layers=["x", "y"],
                               edges=[("x", "a", "b"), ("y", "c", "d")])
        cs = mm.CommunityStructure.from_entity_partition(net, dict.fromkeys("abcd", 0))
        with_coupling = multilayer_modularity_direct(
            net, cs, coupling=mm.CouplingPolicy.symmetric())
        without = multilayer_modularity_direct(net, cs)
        assert with_coupling == pytest.approx(without, abs=1e-12)


class TestExhaustiveSearch:
    def test_two_triangles(self, two_triangles):
        assign, qstar = best_partition_exhaustive(two_triangles)
        assert qstar == pytest.approx(0.5, abs=1e-12)
        blocks = {}
        for (e, l), c in assign.items():
            blocks.setdefault(c, set()).add(e)
        assert sorted(map(sorted, blocks.values())) == [[0, 1, 2], [3, 4, 5]]

    def test_single_clique_single_block(self):
        edges = [("L", u, v) for u in range(4) for v in range(u + 1, 4)]
        net = mm.build_network(layers=["L"], edges=edges)
        assign, qstar = best_partition_exhaustive(net)
        assert len(set(assign.values())) == 1
        assert qstar == pytest.approx(0.0, abs=1e-12)

    def test_guard_at_thirteen(self):
        layers = ["a", "b"]
        presence = [(l, i) for l in layers for i in range(7)]  # 14 occurrences
        net = mm.build_network(layers=layers, edges=[("a", 0, 1)], presence=presence[:13])
        # 13 occurrences after dropping one presence entry
        assert net.num_tuples() == 13
        with pytest.raises(GuardError):
            best_partition_exhaustive(net)

    def test_max_communities_restriction(self, two_triangles):
        _, q_two = best_partition_exhaustive(two_triangles, max_communities=2)
        _, q_all = best_partition_exhaustive(two_triangles)
        assert q_two <= q_all + 1e-15

    def test_enumeration_is_complete(self):
        # Bell(4) = 15 partitions of a 4-occurrence instance
        codes = list(_restricted_growth_strings(4, 4))
        assert len(codes) == 15
        assert codes[0] == (0, 0, 0, 0)
        assert codes == sorted(codes)
        restricted = list(_restricted_growth_strings(4, 2))
        assert all(max(c) <= 1 for c in restricted)


def test_objective_never_beats_exhaustive():
    rng = random.Random(3)
    from _gen import random_multilayer
    for trial in range(8):
        net = random_multilayer(rng, max_tuples=7, max_layers=3)
        config = mm.DetectConfig(
            objective=mm.MultilayerObjective(resolution=mm.ResolutionPolicy.constant(1),
                                             coupling=mm.CouplingPolicy.symmetric()),
            seed=trial)
        res = mm.generalized_louvain(net, config)
        _, qstar = best_partition_exhaustive(
            net, mm.ResolutionPolicy.constant(1), mm.CouplingPolicy.symmetric())
        assert res.objective <= qstar + 1e-12

"""Quality functions: classic, multislice, projection couplings, multilayer."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import multimod as mm
from multimod.errors import InputError, PolicyError
from multimod.modularity import coupling_plan, multislice_parameters
from _brute import (literal_coupling_pairs, literal_total_degree, multilayer_modularity_direct,
                    literal_newman, multislice_direct, newman_direct)
from _gen import (natural_orderings, random_multilayer, random_single_layer, random_structure,
                  with_ordering)


class TestNewman:
    def test_whole_graph_is_zero(self, two_triangles):
        nodes = two_triangles.entity_ids
        cs = mm.CommunityStructure.from_entity_partition(two_triangles, {e: 0 for e in nodes})
        assert mm.newman_modularity(two_triangles, cs) == pytest.approx(0.0)

    def test_two_triangles(self, two_triangles):
        nodes = two_triangles.entity_ids
        part = {e: (0 if e < 3 else 1) for e in nodes}
        # frozen from the direct double-sum oracle: d(V)=12, each block 6/12-(6/12)^2
        edges = [(u, v) for u, v in
                 [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]]
        assert newman_direct(nodes, edges, part) == pytest.approx(0.5)
        cs = mm.CommunityStructure.from_entity_partition(two_triangles, part)
        assert mm.newman_modularity(two_triangles, cs) == pytest.approx(0.5, abs=1e-15)

    def test_singletons_on_triangle(self):
        net = mm.build_network(layers=["L"], edges=[("L", 0, 1), ("L", 1, 2), ("L", 0, 2)])
        part = {e: e for e in net.entity_ids}
        assert newman_direct(net.entity_ids, [(0, 1), (1, 2), (0, 2)],
                             part) == pytest.approx(-1 / 3)
        cs = mm.CommunityStructure.from_entity_partition(net, part)
        assert mm.newman_modularity(net, cs) == pytest.approx(-1 / 3, abs=1e-15)

    def test_edgeless_error(self):
        net = mm.build_network(layers=["L"], presence=[("L", "a")])
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0})
        with pytest.raises(InputError, match="undefined on an edgeless graph"):
            mm.newman_modularity(net, cs)

    def test_unlabelled_node(self, two_triangles):
        with pytest.raises(InputError, match="entity 5 has no community assignment"):
            mm.CommunityStructure.from_entity_partition(
                two_triangles, {e: 0 for e in two_triangles.entity_ids if e != 5})

    def test_several_layers_refused(self, twin_triangle_layers):
        cs = mm.CommunityStructure.from_entity_partition(
            twin_triangle_layers, {e: 0 for e in twin_triangle_layers.entity_ids})
        with pytest.raises(PolicyError,
                           match="^the newman objective requires a single-layer network$"):
            mm.newman_modularity(twin_triangle_layers, cs)

    def test_matches_direct_oracle_randomly(self):
        rng = random.Random(99)
        for _ in range(40):
            net, part = random_single_layer(rng, max_nodes=15)
            edges = [(net.entity_ids[u], net.entity_ids[v]) for u, v in net.edges_idx(0)]
            q = mm.newman_modularity(net, mm.CommunityStructure.from_entity_partition(net, part))
            assert q == pytest.approx(newman_direct(net.entity_ids, edges, part), abs=1e-12)
            assert -0.5 - 1e-12 <= q <= 1.0 + 1e-12

    def test_matches_group_and_count_exactly(self):
        # the earlier formula, grouping the partition and counting each group
        # on the adjacency, gives the same float bit for bit
        rng = random.Random(2020)
        for n in range(120):
            net, part = random_single_layer(rng, max_nodes=40 if n % 2 else 8)
            cs = mm.CommunityStructure.from_entity_partition(net, part)
            assert mm.newman_modularity(net, cs) == literal_newman(net, part)


class TestMultislice:
    def test_single_layer_reduces_to_newman(self, two_triangles):
        part = {e: (0 if e < 3 else 1) for e in two_triangles.entity_ids}
        cs = mm.CommunityStructure.from_entity_partition(two_triangles, part)
        q_ng = mm.newman_modularity(two_triangles, cs)
        assert mm.multislice_modularity(two_triangles, cs, 1.0, 0.0) == pytest.approx(
            q_ng, abs=1e-12)

    def test_omega_zero_multilayer(self, twin_triangle_layers):
        net = twin_triangle_layers
        part = {e: (0 if e < 3 else 1) for e in net.entity_ids}
        cs = mm.CommunityStructure.from_entity_partition(net, part)
        value = mm.multislice_modularity(net, cs, 1.0, 0.0)
        oracle = multislice_direct(net, cs.as_assignment(), [1.0, 1.0], 0.0)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_identical_triangles_with_coupling(self):
        edges = [(l, u, v) for l in ("x", "y") for u, v in [(0, 1), (1, 2), (0, 2)]]
        net = mm.build_network(layers=["x", "y"], edges=edges)
        cs = mm.CommunityStructure.from_entity_partition(net, {e: 0 for e in net.entity_ids})
        value = mm.multislice_modularity(net, cs, 1.0, 1.0)
        oracle = multislice_direct(net, cs.as_assignment(), [1.0, 1.0], 1.0)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_random_instances_match_oracle(self):
        rng = random.Random(4242)
        for _ in range(60):
            net = random_multilayer(rng)
            if any(net.presence_idx(li) and not net.edges_idx(li)
                   for li in range(net.num_layers)):
                continue
            cs = random_structure(rng, net)
            gammas = [round(rng.uniform(0, 2), 2) for _ in range(net.num_layers)]
            omega = round(rng.uniform(0, 2), 2)
            value = mm.multislice_modularity(net, cs, gammas, omega)
            oracle = multislice_direct(net, cs.as_assignment(), gammas, omega)
            assert value == pytest.approx(oracle, abs=1e-12)

    def test_parameter_validation(self, twin_triangle_layers):
        cs = mm.CommunityStructure.from_entity_partition(
            twin_triangle_layers, {e: 0 for e in twin_triangle_layers.entity_ids})
        for gamma, omega in [(-0.5, 0.0), (1.0, -1.0), (math.nan, 0.0), (math.inf, 0.0),
                             ([1.0, math.nan], 0.0), (1.0, math.nan), (1.0, math.inf),
                             # finite, but the score overflows to -inf or NaN
                             (1e308, 0.0), ([1.0, 1e308], 0.0), (1.0, 1e308)]:
            with pytest.raises(PolicyError):
                mm.multislice_modularity(twin_triangle_layers, cs, gamma, omega)

    def test_normalization_counts_same_entity_pairs(self):
        # 2 m plus 2 omega per unordered pair of an entity's occurrences:
        # sum_e C(L_e, 2) for an entity present in L_e layers
        rng = random.Random(19)
        deep = 0
        for _ in range(40):
            net = random_multilayer(rng, max_tuples=16)
            if any(net.presence_idx(li) and not net.edges_idx(li)
                   for li in range(net.num_layers)):
                continue
            pairs = sum(math.comb(len(net.entity_layers_idx(ei)), 2)
                        for ei in range(net.num_entities))
            deep += any(len(net.entity_layers_idx(ei)) >= 3 for ei in range(net.num_entities))
            gammas, two_e, norm = multislice_parameters(net, 1.0, 1.0)
            assert gammas == [1.0] * net.num_layers
            assert two_e == [2 * net.num_edges(layer) for layer in net.layer_ids]
            assert norm == 2 * net.num_edges() + 2 * pairs
        assert deep  # some entity sits in three or more layers

    def test_layer_without_occurrence(self, tmp_path):
        # %order may name a layer nothing occurs in; it adds no term
        path = tmp_path / "gap.mlg"
        path.write_text("%order A B C\nA x y\nA y z\nC x z\n", encoding="utf-8")
        net = mm.read_network(path)
        assert net.layer_ids == ("A", "B", "C") and not net.presence_idx(1)
        cs = mm.CommunityStructure.from_entity_partition(net, {"x": 0, "y": 0, "z": 1})
        value = mm.multislice_modularity(net, cs, 1.0, 0.5)
        oracle = multislice_direct(net, cs.as_assignment(), [1.0] * 3, 0.5)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_edgeless_layer_named_in_error(self):
        net = mm.build_network(layers=["x", "empty"], edges=[("x", "a", "b")],
                               presence=[("empty", "a")])
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0})
        with pytest.raises(InputError, match="empty"):
            mm.multislice_modularity(net, cs, 1.0, 0.5)


class TestSymmetricCoupling:
    def test_ordered3_value(self, ordered3_cs):
        c1 = ordered3_cs.assignment_of("e01", "L1")
        assert mm.symmetric_coupling(ordered3_cs, c1, "L1", "L2") == Fraction(2, 9)

    def test_full_cover(self, twin_triangle_layers):
        cs = mm.CommunityStructure.from_entity_partition(
            twin_triangle_layers, {e: 0 for e in twin_triangle_layers.entity_ids})
        assert mm.symmetric_coupling(cs, 0, "x", "y") == 1

    def test_disjoint_layers(self):
        net = mm.build_network(layers=["x", "y"],
                               edges=[("x", "a", "b"), ("y", "c", "d")])
        cs = mm.CommunityStructure.from_entity_partition(net, dict.fromkeys("abcd", 0))
        assert mm.symmetric_coupling(cs, 0, "x", "y") == 0

    def test_symmetry_property(self):
        rng = random.Random(77)
        for _ in range(40):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            for c in cs.communities():
                for la in net.layer_ids:
                    for lb in net.layer_ids:
                        if la == lb:
                            continue
                        v = mm.symmetric_coupling(cs, c, la, lb)
                        assert 0 <= v <= 1
                        assert v == mm.symmetric_coupling(cs, c, lb, la)


class TestAsymmetricCoupling:
    def test_ordered3_inner_value(self, ordered3_cs):
        c1 = ordered3_cs.assignment_of("e01", "L1")
        assert mm.asymmetric_coupling(ordered3_cs, c1, "L1", "L2") == Fraction(8, 9)

    def test_ordered3_outer_value(self, ordered3_cs):
        c1 = ordered3_cs.assignment_of("e01", "L1")
        assert mm.asymmetric_coupling(ordered3_cs, c1, "L2", "L1") == 1

    def test_full_overlap(self, twin_triangle_layers):
        cs = mm.CommunityStructure.from_entity_partition(
            twin_triangle_layers, {e: 0 for e in twin_triangle_layers.entity_ids})
        assert mm.asymmetric_coupling(cs, 0, "x", "y") == 1

    def test_relation_to_symmetric(self):
        rng = random.Random(31)
        for _ in range(40):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            for c in cs.communities():
                for la in net.layer_ids:
                    for lb in net.layer_ids:
                        if la == lb:
                            continue
                        sym = mm.symmetric_coupling(cs, c, la, lb)
                        asym = mm.asymmetric_coupling(cs, c, la, lb)
                        proj = cs.projection_size(c, la)
                        vsize = len(net.layer_entities(la))
                        if proj:
                            assert asym == sym * Fraction(vsize, proj)
                            shared = net.shared_entity_count(la, lb)
                            if shared:
                                assert asym <= Fraction(vsize, shared)


class TestTimeAwareCoupling:
    def test_distance_one_is_no_penalty(self, ordered3, ordered3_cs):
        c1 = ordered3_cs.assignment_of("e01", "L1")
        asym = float(mm.asymmetric_coupling(ordered3_cs, c1, "L1", "L2"))
        assert mm.time_aware_coupling(ordered3_cs, c1, "L1", "L2") == asym

    def test_distance_three(self):
        layers = ["t0", "t1", "t2", "t3"]
        edges = [(l, "a", "b") for l in layers]
        ordering = mm.LayerOrdering.natural(layers, mm.PairingScheme.PAIRWISE)
        net = mm.build_network(layers=layers, edges=edges, ordering=ordering)
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0})
        asym = float(mm.asymmetric_coupling(cs, 0, "t0", "t3"))
        assert mm.time_aware_coupling(cs, 0, "t0", "t3") == pytest.approx(asym * 2 / 3)

    def test_penalty_values(self):
        assert mm.distance_penalty(1) == 1.0
        assert mm.distance_penalty(3) == pytest.approx(2 / 3)
        assert mm.distance_penalty(7) == 0.5
        with pytest.raises(PolicyError, match=">= 1"):
            mm.distance_penalty(0)

    def test_unordered_error(self, twin_triangle_layers):
        cs = mm.CommunityStructure.from_entity_partition(
            twin_triangle_layers, {e: 0 for e in twin_triangle_layers.entity_ids})
        with pytest.raises(PolicyError):
            mm.time_aware_coupling(cs, 0, "x", "y")

    def test_never_exceeds_asymmetric(self):
        rng = random.Random(8)
        for _ in range(30):
            net = random_multilayer(rng)
            if net.num_layers < 2:
                continue
            ordering = natural_orderings(net)[1]
            net = with_ordering(net, ordering)
            cs = random_structure(rng, net)
            seq = ordering.sequence
            for c in cs.communities():
                for i in range(len(seq)):
                    for j in range(i + 1, len(seq)):
                        asym = float(mm.asymmetric_coupling(cs, c, seq[i], seq[j]))
                        ta = mm.time_aware_coupling(cs, c, seq[i], seq[j])
                        assert ta <= asym + 1e-15
                        if j - i == 1:
                            assert ta == asym
                        elif asym > 0:
                            assert ta < asym


def valid_couplings(ordering):
    """Every coupling policy a network with ``ordering`` accepts."""
    kinds = ("none", "symmetric", "asym-inner", "asym-outer")
    couplings = [mm.CouplingPolicy(kind) for kind in kinds]
    if ordering.is_natural:
        couplings += [mm.CouplingPolicy(kind, True) for kind in kinds[2:]]
    return couplings


def coupled_count(records) -> int:
    """Shared entities summed over the plan's records: every coupling term
    the multilayer score evaluates."""
    return sum(shared for _, _, _, shared, _, _ in records)


class TestCouplingPlan:
    def test_none_couples_nothing(self, twin_triangle_layers):
        records, _ = coupling_plan(twin_triangle_layers, mm.CouplingPolicy.none())
        assert records == []
        assert coupled_count(records) == 0

    def test_two_identical_layers(self):
        edges = [(l, u, v) for l in ("x", "y") for u, v in [(0, 1), (1, 2), (2, 3)]]
        net = mm.build_network(layers=["x", "y"], edges=edges)
        # oracle: enumerate (layer, paired layer, shared entity) triples
        expected = 0
        for l in net.layer_ids:
            for other in net.valid_pairings(l):
                expected += len(net.layer_entities(l) & net.layer_entities(other))
        assert expected == 8
        records, _ = coupling_plan(net, mm.CouplingPolicy.symmetric())
        assert coupled_count(records) == 8

    def test_adjacent_full_overlap(self):
        layers = ["a", "b", "c"]
        entities = list(range(4))
        edges = [(l, 0, 1) for l in layers]
        presence = [(l, e) for l in layers for e in entities]
        net = mm.build_network(layers=layers, edges=edges, presence=presence,
                               ordering=mm.LayerOrdering.natural(layers, mm.PairingScheme.ADJACENT))
        records, _ = coupling_plan(net, mm.CouplingPolicy.symmetric())
        assert coupled_count(records) == 2 * len(entities)

    def test_single_layer_norm(self, two_triangles):
        assert coupling_plan(two_triangles, mm.CouplingPolicy.none())[1] == 12

    def test_two_full_overlap_layers_norm(self):
        edges = [(l, u, v) for l in ("x", "y") for u, v in [(0, 1), (1, 2), (2, 3)]]
        net = mm.build_network(layers=["x", "y"], edges=edges)
        # direct sum: 2*6 intra plus 2 per distinct coupling edge (4 entities)
        assert coupling_plan(net, mm.CouplingPolicy.symmetric())[1] == 12 + 8 == 20
        assert coupling_plan(net, mm.CouplingPolicy.none())[1] == 12

    def test_degenerate_norm(self):
        net = mm.build_network(layers=["L1"], presence=[("L1", "a")])
        for coupling in (mm.CouplingPolicy.none(), mm.CouplingPolicy.symmetric()):
            with pytest.raises(InputError):
                coupling_plan(net, coupling)

    def test_coupled_norm_dominates(self):
        rng = random.Random(5)
        for _ in range(40):
            net = random_multilayer(rng)
            uncoupled = coupling_plan(net, mm.CouplingPolicy.none())[1]
            assert coupling_plan(net, mm.CouplingPolicy.symmetric())[1] >= uncoupled

    def test_norm_relabel_invariance(self):
        edges = [("x", "a", "b"), ("x", "b", "c"), ("y", "a", "c")]
        net = mm.build_network(layers=["x", "y"], edges=edges)
        relabeled = mm.build_network(layers=["p", "q"],
                                     edges=[("p", 1, 2), ("p", 2, 3), ("q", 1, 3)])
        coupling = mm.CouplingPolicy.symmetric()
        assert coupling_plan(net, coupling)[1] == coupling_plan(relabeled, coupling)[1]

    def test_matches_literal_pairings(self):
        # the records are the literal pairs whose layers share an entity, in
        # source-major order, with the asymmetric source and the literal
        # penalty; the norm is the total degree by enumeration, which counts
        # an unordered pair's coupling edges once
        rng = random.Random(15)
        skipped = 0
        for _ in range(40):
            net = random_multilayer(rng)
            for ordering in (mm.LayerOrdering.unordered(), *natural_orderings(net)):
                onet = with_ordering(net, ordering)
                for coupling in valid_couplings(ordering):
                    records, norm = coupling_plan(onet, coupling)
                    assert norm == literal_total_degree(onet, coupling)
                    want = []
                    for i, j, penalty in literal_coupling_pairs(onet, coupling):
                        shared = len(onet.presence_idx(i) & onet.presence_idx(j))
                        if shared == 0:
                            skipped += 1
                            continue
                        src = j if coupling.kind == "asym-outer" else i
                        want.append((i, j, src, shared, len(onet.presence_idx(src)), penalty))
                    assert records == want
        assert skipped  # some pair shares no entity and is left out


@pytest.mark.parametrize("policy,message", [
    (mm.ResolutionPolicy, "unknown resolution policy"),
    (mm.CouplingPolicy, "unknown coupling policy"),
])
def test_unknown_policy_kind(policy, message):
    with pytest.raises(PolicyError, match=message):
        policy("bogus")


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
def test_constant_resolution_must_be_finite_and_nonnegative(gamma):
    with pytest.raises(PolicyError):
        mm.ResolutionPolicy.constant(gamma)


@pytest.mark.parametrize("resolution,coupling", [
    (mm.ResolutionPolicy.constant(1e308), mm.CouplingPolicy.none()),
    (mm.ResolutionPolicy.constant(1e308), mm.CouplingPolicy.symmetric()),
])
def test_overflowing_score_is_refused(twin_triangle_layers, resolution, coupling):
    # a finite gamma whose null model overflows: the total is -inf, not a score
    cs = mm.CommunityStructure.from_entity_partition(
        twin_triangle_layers, {e: 0 for e in twin_triangle_layers.entity_ids})
    with pytest.raises(PolicyError, match="not finite"):
        mm.multilayer_modularity(twin_triangle_layers, cs, resolution, coupling)


class TestMultilayerModularity:
    def test_single_layer_reduces_to_newman(self, two_triangles):
        part = {e: (0 if e < 3 else 1) for e in two_triangles.entity_ids}
        cs = mm.CommunityStructure.from_entity_partition(two_triangles, part)
        report = mm.multilayer_modularity(two_triangles, cs)
        q_ng = mm.newman_modularity(two_triangles, cs)
        assert report.total == pytest.approx(q_ng, abs=1e-12)
        # on several layers the all-in-one partition scores 1 - sum_l (m_l / m)^2
        net, _ = mm.planted_multilayer(mm.PlantedSpec(entities=40, communities=4, layers=3,
                                                      p_in=0.5, p_out=0.05, seed=2))
        one = mm.CommunityStructure.from_entity_partition(net, dict.fromkeys(net.entity_ids, 0))
        m = net.num_edges()
        baseline = 1 - sum((net.num_edges(l) / m) ** 2 for l in net.layer_ids)
        assert mm.multilayer_modularity(net, one).total == pytest.approx(baseline, abs=1e-12)

    def test_twin_triangles_match_direct(self, twin_triangle_layers):
        net = twin_triangle_layers
        part = {e: (0 if e < 3 else 1) for e in net.entity_ids}
        cs = mm.CommunityStructure.from_entity_partition(net, part)
        report = mm.multilayer_modularity(net, cs, mm.ResolutionPolicy.constant(1),
                                          mm.CouplingPolicy.symmetric())
        oracle = multilayer_modularity_direct(net, cs, mm.ResolutionPolicy.constant(1),
                                              mm.CouplingPolicy.symmetric())
        assert report.total == pytest.approx(oracle, abs=1e-12)

    def test_twin_triangles_redundancy_resolution(self, twin_triangle_layers):
        net = twin_triangle_layers
        part = {e: (0 if e < 3 else 1) for e in net.entity_ids}
        cs = mm.CommunityStructure.from_entity_partition(net, part)
        # every (layer, community) supports the three triangle pairs twice
        for c in cs.communities():
            for layer in net.layer_ids:
                assert cs.redundant_pair_count(c, layer) == 3
                assert cs.redundancy_resolution(c, layer) == pytest.approx(2 / 3)
        report = mm.multilayer_modularity(net, cs, mm.ResolutionPolicy.redundancy(),
                                          mm.CouplingPolicy.symmetric())
        oracle = multilayer_modularity_direct(net, cs, mm.ResolutionPolicy.redundancy(),
                                              mm.CouplingPolicy.symmetric())
        assert report.total == pytest.approx(oracle, abs=1e-12)

    def test_edgeless_error(self):
        net = mm.build_network(layers=["L"], presence=[("L", "a")])
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0})
        with pytest.raises(InputError):
            mm.multilayer_modularity(net, cs)

    def test_time_aware_needs_order(self, twin_triangle_layers):
        cs = mm.CommunityStructure.from_entity_partition(
            twin_triangle_layers, {e: 0 for e in twin_triangle_layers.entity_ids})
        with pytest.raises(PolicyError):
            mm.multilayer_modularity(twin_triangle_layers, cs,
                                     coupling=mm.CouplingPolicy.asym_inner(time_aware=True))

    def test_report_decomposition_exact(self, ordered3, ordered3_cs):
        report = mm.multilayer_modularity(ordered3, ordered3_cs,
                                          mm.ResolutionPolicy.redundancy(),
                                          mm.CouplingPolicy.asym_inner())
        assert report.recompute_total() == report.total
        assert report.normalization == coupling_plan(ordered3, mm.CouplingPolicy.asym_inner())[1]

    def test_relabeling_invariance(self):
        rng = random.Random(55)
        for _ in range(15):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            report = mm.multilayer_modularity(net, cs, mm.ResolutionPolicy.constant(1.3),
                                              mm.CouplingPolicy.symmetric())
            # permute entity ids and community labels
            perm = {e: f"p{rng.random():.12f}_{e}" for e in net.entity_ids}
            edges = [(l, perm[net.entity_ids[u]], perm[net.entity_ids[v]])
                     for li, l in enumerate(net.layer_ids)
                     for u, v in net.edges_idx(li)]
            presence = [(l, perm[e]) for e in net.entity_ids for l in net.entity_layers(e)]
            net2 = mm.build_network(layers=net.layer_ids, edges=edges, presence=presence)
            cs2 = mm.CommunityStructure(
                net2, {(perm[e], l): 1000 - cs.assignment_of(e, l) for e, l in net.tuples()})
            report2 = mm.multilayer_modularity(net2, cs2, mm.ResolutionPolicy.constant(1.3),
                                               mm.CouplingPolicy.symmetric())
            assert report2.total == pytest.approx(report.total, abs=1e-12)

    def test_oracle_equivalence_sample(self):
        rng = random.Random(2024)
        resolutions = [mm.ResolutionPolicy.constant(0.5), mm.ResolutionPolicy.constant(1.0),
                       mm.ResolutionPolicy.redundancy()]
        for _ in range(25):
            net = random_multilayer(rng)
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
                for res in resolutions:
                    for coup in couplings:
                        fast = mm.multilayer_modularity(onet, ocs, res, coup).total
                        slow = multilayer_modularity_direct(onet, ocs, res, coup)
                        assert fast == pytest.approx(slow, abs=1e-12)

    def test_coupling_terms_are_the_public_functions(self):
        # each term's coupling is the exact sum, over the layer's literal
        # pairs, of the public coupling function (source layer first) times
        # the penalty; a pair sharing no entity adds an exact 0
        rng = random.Random(16)
        for _ in range(30):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            for ordering in (mm.LayerOrdering.unordered(), *natural_orderings(net)):
                onet = with_ordering(net, ordering)
                ocs = mm.CommunityStructure(onet, cs.as_assignment())
                ids = onet.layer_ids
                for coupling in valid_couplings(ordering):
                    f = (mm.symmetric_coupling if coupling.kind == "symmetric"
                         else mm.asymmetric_coupling)
                    want = {}
                    for c in ocs.communities():
                        for i, j, penalty in literal_coupling_pairs(onet, coupling):
                            src, other = (j, i) if coupling.kind == "asym-outer" else (i, j)
                            if coupling.time_aware:
                                v = mm.time_aware_coupling(ocs, c, ids[src], ids[other])
                            else:
                                v = float(f(ocs, c, ids[src], ids[other])) * penalty
                            want.setdefault((c, i), []).append(v)
                    report = mm.multilayer_modularity(onet, ocs, coupling=coupling)
                    for t in report.terms:
                        key = (t.community, onet.layer_index(t.layer))
                        assert t.coupling == math.fsum(want.get(key, ()))


class TestScoreReportSerialization:
    def test_tsv_and_dict(self, ordered3, ordered3_cs):
        report = mm.multilayer_modularity(ordered3, ordered3_cs,
                                          coupling=mm.CouplingPolicy.symmetric())
        tsv = report.to_tsv()
        lines = tsv.strip().split("\n")
        assert lines[0] == "community\tlayer\tintra\tnull_model\tcoupling"
        assert len(lines) == 1 + 3 * 3  # three communities, three layers
        d = report.to_dict()
        assert d["total"] == report.total
        assert len(d["terms"]) == 9
        total = math.fsum(t["intra"] - t["null_model"] + t["coupling"] for t in d["terms"])
        assert total / d["normalization"] == pytest.approx(report.total, abs=1e-12)

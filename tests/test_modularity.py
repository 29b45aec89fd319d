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
from _gen import (natural_orderings, occurrence_ids, random_multilayer, random_single_layer,
                  random_structure, ring_of_cliques, time_aware_terms, with_ordering)


class TestStructureOfAnotherNetwork:
    """Every score, and each objective's ``score``, refuses a structure
    built on another network object, even one of equal content, before any
    other check."""

    @staticmethod
    def networks(layers):
        edges = [(l, u, v) for l in layers for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]]
        a = mm.build_network(layers=layers, edges=edges)
        # the same records, declared in another entity order
        b = mm.build_network(entities=[3, 2, 1, 0], layers=layers, edges=edges)
        return a, b, mm.CommunityStructure.from_entity_partition(a, {0: 0, 1: 0, 2: 1, 3: 1})

    def test_every_score_refuses(self):
        a, b, cs = self.networks(["L", "M"])
        single, equal, single_cs = self.networks(["L"])
        scores = [(a, b, lambda net: mm.multislice_modularity(net, cs, 1.0, 0.5)),
                  (a, b, lambda net: mm.multilayer_modularity(net, cs)),
                  (a, b, lambda net: mm.MultisliceObjective(gamma=1.0, omega=0.5).score(net, cs)),
                  (a, b, lambda net: mm.MultilayerObjective().score(net, cs)),
                  (single, equal, lambda net: mm.newman_modularity(net, single_cs))]
        for own, other, score in scores:
            score(own)
            with pytest.raises(InputError, match="^the community structure was built on "
                                                 "another network$"):
                score(other)

    def test_refused_before_the_parameters(self):
        a, b, cs = self.networks(["L", "M"])
        with pytest.raises(InputError, match="another network"):
            mm.multislice_modularity(b, cs, [1.0], -1.0)
        with pytest.raises(InputError, match="another network"):
            mm.newman_modularity(b, cs)


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
            gammas, two_e, norm, omega = multislice_parameters(net, 1.0, 1)
            assert gammas == [1.0] * net.num_layers
            assert type(omega) is float and omega == 1.0
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

    def test_degenerate_norm(self):
        # layers with no occurrence and no edge: the normalization is zero
        net = mm.build_network(layers=["L1", "L2"])
        cs = mm.CommunityStructure(net, {})
        for omega in (0.0, 1.0):
            with pytest.raises(InputError, match="degenerate normalization"):
                mm.multislice_modularity(net, cs, 1.0, omega)


class TestSymmetricCoupling:
    def test_ordered3_value(self, ordered3_cs):
        c1 = ordered3_cs.as_assignment()[("e01", "L1")]
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
        c1 = ordered3_cs.as_assignment()[("e01", "L1")]
        assert mm.asymmetric_coupling(ordered3_cs, c1, "L1", "L2") == Fraction(8, 9)

    def test_ordered3_outer_value(self, ordered3_cs):
        c1 = ordered3_cs.as_assignment()[("e01", "L1")]
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
                        vsize = len(net.presence_idx(net.layer_index(la)))
                        if proj:
                            assert asym == sym * Fraction(vsize, proj)
                            shared = net.shared_entity_count(la, lb)
                            if shared:
                                assert asym <= Fraction(vsize, shared)


class TestTimeAwareCoupling:
    """A time-aware term, as the scorer computes it, is the asymmetric value
    times the distance penalty of each layer pair it holds."""

    def test_distance_one_is_no_penalty(self, ordered3, ordered3_cs):
        # ordered3 is adjacent: L1's term holds the one pair L1 -> L2
        c1 = ordered3_cs.as_assignment()[("e01", "L1")]
        asym = float(mm.asymmetric_coupling(ordered3_cs, c1, "L1", "L2"))
        report = mm.multilayer_modularity(ordered3, ordered3_cs,
                                          coupling=mm.CouplingPolicy.asym_inner(time_aware=True))
        [term] = [t for t in report.terms if (t.community, t.layer) == (c1, "L1")]
        assert term.coupling == asym

    def test_distance_three(self):
        # t0 shares its entities with t3 alone: its term holds one pair, at distance 3
        layers = ["t0", "t1", "t2", "t3"]
        edges = [("t0", "a", "b"), ("t1", "c", "d"), ("t2", "e", "f"), ("t3", "a", "b")]
        ordering = mm.LayerOrdering.natural(layers, mm.PairingScheme.PAIRWISE)
        net = mm.build_network(layers=layers, edges=edges, ordering=ordering)
        cs = mm.CommunityStructure.from_entity_partition(net, dict.fromkeys("abcdef", 0))
        asym = float(mm.asymmetric_coupling(cs, 0, "t0", "t3"))
        assert asym > 0
        # t3's projection is t3 itself too, so asym-outer rescales the pair alike
        assert float(mm.asymmetric_coupling(cs, 0, "t3", "t0")) == asym
        for kind in ("asym-inner", "asym-outer"):
            report = mm.multilayer_modularity(net, cs, coupling=mm.CouplingPolicy(kind, True))
            term = report.terms[0]
            assert term.layer == "t0"
            assert term.coupling == pytest.approx(asym * 2 / 3)
            assert term.coupling == asym * mm.distance_penalty(3)

    def test_penalty_values(self):
        assert mm.distance_penalty(1) == 1.0
        assert mm.distance_penalty(3) == pytest.approx(2 / 3)
        assert mm.distance_penalty(7) == 0.5
        with pytest.raises(PolicyError, match=">= 1"):
            mm.distance_penalty(0)

    def test_penalty_refuses_a_distance_that_is_no_int(self):
        # a bool is an int, but no distance
        for distance in (True, False, 1.5, 2.0, "2", None):
            with pytest.raises(PolicyError, match=">= 1"):
                mm.distance_penalty(distance)

    def test_unordered_error(self, twin_triangle_layers):
        # the score and the gain engine refuse it alike, from the coupling plan
        cs = mm.CommunityStructure.from_entity_partition(
            twin_triangle_layers, {e: 0 for e in twin_triangle_layers.entity_ids})
        for kind in ("asym-inner", "asym-outer"):
            coupling = mm.CouplingPolicy(kind, time_aware=True)
            with pytest.raises(PolicyError, match="requires a natural layer ordering"):
                mm.multilayer_modularity(twin_triangle_layers, cs, coupling=coupling)
            config = mm.DetectConfig(mm.MultilayerObjective(coupling=coupling))
            with pytest.raises(PolicyError, match="requires a natural layer ordering"):
                mm.generalized_louvain(twin_triangle_layers, config)

    def test_never_exceeds_asymmetric(self):
        rng = random.Random(8)
        far = 0
        for _ in range(30):
            net = random_multilayer(rng)
            if net.num_layers < 2:
                continue
            for ordering in natural_orderings(net):
                onet = with_ordering(net, ordering)
                cs = random_structure(rng, onet)
                for aware, plain, holds_far in time_aware_terms(onet, cs):
                    assert aware <= plain
                    if holds_far:
                        assert aware < plain
                        far += 1
                    else:
                        assert aware == plain
        assert far > 0


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
                expected += len(net.presence_idx(net.layer_index(l))
                                & net.presence_idx(net.layer_index(other)))
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


@pytest.mark.parametrize("resolution, coupling", [
    ("redundancy", mm.CouplingPolicy.none()),
    (None, mm.CouplingPolicy.symmetric()),
    (mm.ResolutionPolicy.redundancy(), mm.ResolutionPolicy.constant(1.0)),
    (mm.ResolutionPolicy.constant(1.0), None),
], ids=["resolution-kind", "resolution-none", "resolution-as-coupling", "coupling-none"])
def test_scorer_refuses_what_the_objective_refuses(twin_triangle_layers, resolution, coupling):
    # the first three once died with AttributeError in the scorer
    cs = mm.CommunityStructure.from_entity_partition(
        twin_triangle_layers, {e: e // 3 for e in twin_triangle_layers.entity_ids})
    with pytest.raises(PolicyError) as objective:
        mm.MultilayerObjective(resolution, coupling)
    with pytest.raises(PolicyError) as scorer:
        mm.multilayer_modularity(twin_triangle_layers, cs, resolution, coupling)
    assert str(scorer.value) == str(objective.value)
    assert str(scorer.value).startswith("expected a ")


def test_scorer_has_the_objectives_defaults(twin_triangle_layers):
    cs = mm.CommunityStructure.from_entity_partition(
        twin_triangle_layers, {e: e // 3 for e in twin_triangle_layers.entity_ids})
    assert mm.multilayer_modularity(twin_triangle_layers, cs) == mm.multilayer_modularity(
        twin_triangle_layers, cs, *mm.MultilayerObjective())


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
        # the TSV and JSON rows add up to the total bit for bit: an fsum per
        # community in index order, an fsum of those, then the normalization
        rows = {}
        for t in report.terms:
            rows.setdefault(t.community, []).append(t.intra - t.null_model + t.coupling)
        sums = [math.fsum(rows[c]) for c in sorted(rows)]
        assert math.fsum(sums) / report.normalization == report.total
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
            presence = [(l, perm[e]) for e, l in occurrence_ids(net)]
            net2 = mm.build_network(layers=net.layer_ids, edges=edges, presence=presence)
            cs2 = mm.CommunityStructure(
                net2, {(perm[e], l): 1000 - c for (e, l), c in cs.as_assignment().items()})
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


_CONSTANT = mm.ResolutionPolicy.constant(1.0)
_REDUNDANCY = mm.ResolutionPolicy.redundancy()
RING_SCORES = {
    "qms-omega0": lambda net, cs: mm.multislice_modularity(net, cs, 1.0, 0.0),
    "qms-omega1": lambda net, cs: mm.multislice_modularity(net, cs, 1.0, 1.0),
    "q-constant-none": lambda net, cs: mm.multilayer_modularity(
        net, cs, _CONSTANT, mm.CouplingPolicy.none()).total,
    "q-constant-symmetric": lambda net, cs: mm.multilayer_modularity(
        net, cs, _CONSTANT, mm.CouplingPolicy.symmetric()).total,
    "q-constant-asym-inner": lambda net, cs: mm.multilayer_modularity(
        net, cs, _CONSTANT, mm.CouplingPolicy.asym_inner()).total,
    "q-redundancy-none": lambda net, cs: mm.multilayer_modularity(
        net, cs, _REDUNDANCY, mm.CouplingPolicy.none()).total,
    "q-redundancy-symmetric": lambda net, cs: mm.multilayer_modularity(
        net, cs, _REDUNDANCY, mm.CouplingPolicy.symmetric()).total,
}
# the smallest even number of 5-cliques, on 1 to 4 layers, from which *pairs*
# scores above *cliques*: each layer added lowers the global null's
# effective resolution, and redundancy resolution merges at once
MERGES_FROM = {
    "qms-omega0": (24, 24, 24, 24),
    "qms-omega1": (24, 24, 24, 24),
    "q-constant-none": (24, 12, 8, 6),
    "q-constant-symmetric": (24, 10, 6, 6),
    "q-constant-asym-inner": (24, 12, 10, 8),
    "q-redundancy-none": (46, 4, 4, 4),
}
# (score, layers, cliques) -> the best of *cliques*, *pairs* and *one* (ties
# to the earlier) and their three scores, on either side of each threshold;
# a change to a score's definition re-records these, never loosens them
RING_PINS = {
    ("qms-omega0", 1, 22): ("cliques", (0.8636363636363636, 0.8636363636363636, 0.0)),
    ("qms-omega0", 1, 24): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.0)),
    ("qms-omega0", 2, 22): ("cliques", (0.8636363636363636, 0.8636363636363636, 0.0)),
    ("qms-omega0", 2, 24): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.0)),
    ("qms-omega0", 3, 22): ("cliques", (0.8636363636363636, 0.8636363636363636, 0.0)),
    ("qms-omega0", 3, 24): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.0)),
    ("qms-omega0", 4, 22): ("cliques", (0.8636363636363636, 0.8636363636363636, 0.0)),
    ("qms-omega0", 4, 24): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.0)),
    ("qms-omega1", 1, 22): ("cliques", (0.8636363636363636, 0.8636363636363636, 0.0)),
    ("qms-omega1", 1, 24): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.0)),
    ("qms-omega1", 2, 22):
        ("cliques", (0.8888888888888888, 0.8888888888888888, 0.18518518518518517)),
    ("qms-omega1", 2, 24):
        ("pairs", (0.8919753086419753, 0.8950617283950617, 0.18518518518518517)),
    ("qms-omega1", 3, 22): ("cliques", (0.90625, 0.90625, 0.3125)),
    ("qms-omega1", 3, 24): ("pairs", (0.9088541666666666, 0.9114583333333334, 0.3125)),
    ("qms-omega1", 4, 22):
        ("cliques", (0.918918918918919, 0.918918918918919, 0.40540540540540543)),
    ("qms-omega1", 4, 24):
        ("pairs", (0.9211711711711711, 0.9234234234234235, 0.40540540540540543)),
    ("q-constant-none", 1, 22): ("cliques", (0.8636363636363636, 0.8636363636363636, 0.0)),
    ("q-constant-none", 1, 24): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.0)),
    ("q-constant-none", 2, 10): ("cliques", (0.8590909090909091, 0.8545454545454545, 0.5)),
    ("q-constant-none", 2, 12): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.5)),
    ("q-constant-none", 3, 6):
        ("cliques", (0.8535353535353535, 0.8434343434343434, 0.6666666666666666)),
    ("q-constant-none", 3, 8):
        ("pairs", (0.8674242424242424, 0.8712121212121212, 0.6666666666666666)),
    ("q-constant-none", 4, 4): ("cliques", (0.8465909090909091, 0.8295454545454546, 0.75)),
    ("q-constant-none", 4, 6): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.75)),
    ("q-constant-symmetric", 1, 22): ("cliques", (0.8636363636363636, 0.8636363636363636, 0.0)),
    ("q-constant-symmetric", 1, 24): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.0)),
    ("q-constant-symmetric", 2, 8):
        ("cliques", (0.7015603566529492, 0.69710219478738, 0.48516803840877915)),
    ("q-constant-symmetric", 2, 10):
        ("pairs", (0.7093964334705076, 0.7132373113854596, 0.4847050754458162)),
    ("q-constant-symmetric", 3, 4):
        ("cliques", (0.65440778799351, 0.6402109248242294, 0.5769334775554354)),
    ("q-constant-symmetric", 3, 6):
        ("pairs", (0.6688299981972238, 0.6709933297277808, 0.5749954930593114)),
    ("q-constant-symmetric", 4, 4):
        ("cliques", (0.6495619074978454, 0.6487000861821316, 0.6130781384659582)),
    ("q-constant-symmetric", 4, 6):
        ("pairs", (0.6590299722302021, 0.6697548597146413, 0.6109594943981614)),
    ("q-constant-asym-inner", 1, 22): ("cliques", (0.8636363636363636, 0.8636363636363636, 0.0)),
    ("q-constant-asym-inner", 1, 24): ("pairs", (0.8674242424242424, 0.8712121212121212, 0.0)),
    ("q-constant-asym-inner", 2, 10):
        ("cliques", (0.7260631001371742, 0.720644718792867, 0.4847050754458162)),
    ("q-constant-asym-inner", 2, 12):
        ("pairs", (0.7315957933241883, 0.7317101051668953, 0.4843964334705076)),
    ("q-constant-asym-inner", 3, 8):
        ("cliques", (0.6963899405083829, 0.6951054624121147, 0.5740265008112494)),
    ("q-constant-asym-inner", 3, 10):
        ("pairs", (0.7012979989183342, 0.7049215792320173, 0.5734451054624121)),
    ("q-constant-asym-inner", 4, 6):
        ("cliques", (0.6802164129081683, 0.6782294359858277, 0.6109594943981614)),
    ("q-constant-asym-inner", 4, 8):
        ("pairs", (0.6860097673082448, 0.689816144785981, 0.6099001723642632)),
    ("q-redundancy-none", 1, 44): ("cliques", (0.8636363636363636, 0.8636363636363636, -1.0)),
    ("q-redundancy-none", 1, 46): ("pairs", (0.8656126482213439, 0.867588932806324, -1.0)),
    ("q-redundancy-none", 2, 4):
        ("pairs", (0.8530299530365152, 0.8629608290886377, 0.8459607780457364)),
    ("q-redundancy-none", 3, 4):
        ("one", (0.8717169383879799, 0.8934890375742434, 0.8973071853638243)),
    ("q-redundancy-none", 4, 4):
        ("one", (0.8810604310637121, 0.9087531418170461, 0.9229803890228682)),
    ("q-redundancy-symmetric", 3, 8):
        ("one", (0.68957537747553, 0.7174850086312469, 0.7178262751862009)),
}


def ring_scores(score, layers, cliques):
    """The scores of ring(cliques, 5, layers)'s *cliques*, *pairs* (cliques
    2i and 2i + 1 merged) and *one* partitions."""
    net = ring_of_cliques(cliques, 5, layers)
    return tuple(
        RING_SCORES[score](net, mm.CommunityStructure.from_entity_partition(
            net, {e: e // width for e in range(cliques * 5)}))
        for width in (5, 10, cliques * 5))


class TestResolutionLimit:
    """Known answers on a ring of cliques copied into every layer, whose
    right partition is *cliques* (Fortunato & Barthelemy 2007)."""

    @pytest.mark.parametrize("score", MERGES_FROM)
    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    def test_pairs_first_beat_cliques_at_the_pinned_size(self, score, layers):
        merges_from = MERGES_FROM[score][layers - 1]
        for cliques in range(4, merges_from + 1, 2):
            together, pairs, _ = ring_scores(score, layers, cliques)
            assert (pairs > together) == (cliques == merges_from), cliques
        assert (score, layers, merges_from) in RING_PINS
        assert merges_from == 4 or (score, layers, merges_from - 2) in RING_PINS

    @pytest.mark.parametrize("key", RING_PINS, ids=lambda key: "-".join(map(str, key)))
    def test_ring_scores_are_pinned(self, key):
        best, pinned = RING_PINS[key]
        scores = ring_scores(*key)
        assert scores == pinned
        assert ("cliques", "pairs", "one")[scores.index(max(scores))] == best

"""Community structures: expansion, projections, redundancy, flattening, files."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import multimod as mm
from multimod.errors import InputError

from _brute import literal_pair_layers, literal_read_communities
from _gen import blocked_multilayer, random_multilayer, random_structure
from conftest import ORDERED3_PARTITION


class TestFromEntityPartition:
    def test_single_community(self, twin_triangle_layers):
        net = twin_triangle_layers
        cs = mm.CommunityStructure.from_entity_partition(net, {e: 0 for e in net.entity_ids})
        assert cs.num_communities == 1
        assert len(cs.members(0)) == net.num_tuples()

    def test_ordered3_projections(self, ordered3, ordered3_cs):
        c1 = ordered3_cs.assignment_of("e01", "L1")
        assert len(ordered3_cs.projection(c1, "L1")) == 3
        assert len(ordered3_cs.projection(c1, "L2")) == 2
        assert ordered3_cs.projection(c1, "L2") == {"e01", "e02"}

    def test_singletons(self, two_triangles):
        net = two_triangles
        cs = mm.CommunityStructure.from_entity_partition(
            net, {e: i for i, e in enumerate(net.entity_ids)})
        assert cs.num_communities == net.num_entities

    def test_unassigned_entity(self, two_triangles):
        with pytest.raises(InputError, match="no community assignment"):
            mm.CommunityStructure.from_entity_partition(two_triangles, {0: 0})


class TestAbsentOccurrence:
    @pytest.fixture
    def net(self):
        # "c" lies on L1 only
        return mm.build_network(layers=["L1", "L2"], edges=[("L1", "a", "b"), ("L1", "b", "c"),
                                                             ("L2", "a", "b")])

    def test_assignment_refused(self, net):
        assignment = {t: 0 for t in net.tuples()}
        assignment[("c", "L2")] = 0
        with pytest.raises(InputError, match="entity is not present in that layer"):
            mm.CommunityStructure(net, assignment)

    def test_assignment_of(self, net):
        cs = mm.CommunityStructure(net, {t: 0 for t in net.tuples()})
        assert cs.assignment_of("c", "L1") == 0
        with pytest.raises(InputError, match="is not a present occurrence"):
            cs.assignment_of("c", "L2")


class TestProjection:
    def test_absent_community_layer(self, ordered3, ordered3_cs):
        c1 = ordered3_cs.assignment_of("e01", "L1")
        # C1 holds only e10 on L3
        assert ordered3_cs.projection(c1, "L3") == {"e10"}
        # a community whose entities all miss a layer projects to nothing there
        pair_only = mm.CommunityStructure(
            ordered3, {t: (0 if t[0] in ("e01", "e02") else 1)
                       for t in ordered3.tuples()})
        assert pair_only.projection(0, "L3") == frozenset()
        assert pair_only.projection_size(0, "L3") == 0

    def test_full_layer(self, two_triangles):
        net = two_triangles
        cs = mm.CommunityStructure.from_entity_partition(net, {e: 0 for e in net.entity_ids})
        assert cs.projection(0, "L") == set(net.entity_ids)

    def test_degree_caches(self, twin_triangle_layers):
        net = twin_triangle_layers
        cs = mm.CommunityStructure.from_entity_partition(
            net, {e: (0 if e < 3 else 1) for e in net.entity_ids})
        for layer in net.layer_ids:
            assert sum(cs.degree(c, layer) for c in cs.communities()) == 2 * net.num_edges(layer)
            for c in cs.communities():
                assert cs.internal_degree(c, layer) <= cs.degree(c, layer)


def linking_layers(net, u, v) -> list:
    """The ids of the layers that link entities ``u`` and ``v``, in layer
    order, from the network's linked-pair query."""
    partners = net.partner_layers_idx(net.entity_index(u))
    return [net.layer_ids[li] for li in partners.get(net.entity_index(v), ())]


class TestPartnerLayers:
    def test_cases(self):
        edges = [("L1", "a", "b"), ("L3", "a", "b"), ("L1", "b", "c"),
                 ("L2", "c", "d"), ("L3", "c", "d"), ("L2", "a", "d")]
        net = mm.build_network(layers=["L1", "L2", "L3"], edges=edges)
        assert linking_layers(net, "a", "b") == ["L1", "L3"]
        assert linking_layers(net, "a", "c") == []
        every = [("L1", "x", "y"), ("L2", "x", "y"), ("L3", "x", "y")]
        net2 = mm.build_network(layers=["L1", "L2", "L3"], edges=every)
        assert linking_layers(net2, "x", "y") == ["L1", "L2", "L3"]


class TestRedundancy:
    def test_single_layer_has_no_redundancy(self, two_triangles):
        cs = mm.CommunityStructure.from_entity_partition(
            two_triangles, {e: 0 for e in two_triangles.entity_ids})
        _, p2 = cs.redundant_pairs(0)
        assert p2 == frozenset()
        assert cs.redundancy(0) == 0

    def test_pair_in_two_layers(self):
        net = mm.build_network(layers=["L1", "L2"],
                               edges=[("L1", "a", "b"), ("L2", "a", "b")])
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0})
        p1, p2 = cs.redundant_pairs(0)
        assert len(p1) == 1 and len(p2) == 1

    def test_distinct_layers_no_redundant(self):
        # three entities linked pairwise, each pair in its own layer
        edges = [("L1", "a", "b"), ("L2", "b", "c"), ("L3", "a", "c")]
        net = mm.build_network(layers=["L1", "L2", "L3"], edges=edges)
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0, "c": 0})
        p1, p2 = cs.redundant_pairs(0)
        assert len(p1) == 3
        assert p2 == frozenset()

    def test_redundancy_value(self):
        # two layers; pairs (a,b), (b,c), (a,c) linked somewhere, only (a,b) twice
        edges = [("L1", "a", "b"), ("L2", "a", "b"), ("L1", "b", "c"), ("L2", "a", "c")]
        net = mm.build_network(layers=["L1", "L2"], edges=edges)
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0, "c": 0})
        # direct enumeration: support mass 2 over (2 layers * 3 connected pairs)
        assert cs.redundancy(0) == Fraction(2, 6) == Fraction(1, 3)

    def test_maximal(self):
        edges = [(l, u, v) for l in ("L1", "L2") for u, v in [("a", "b"), ("b", "c"), ("a", "c")]]
        net = mm.build_network(layers=["L1", "L2"], edges=edges)
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0, "c": 0})
        assert cs.redundancy(0) == 1


class TestLayerRedundantPairCount:
    def test_none(self, two_triangles):
        cs = mm.CommunityStructure.from_entity_partition(
            two_triangles, {e: 0 for e in two_triangles.entity_ids})
        assert cs.redundant_pair_count(0, "L") == 0

    def test_two_pairs_one_layer(self):
        edges = [("L1", "a", "b"), ("L2", "a", "b"), ("L1", "c", "d"), ("L2", "c", "d")]
        net = mm.build_network(layers=["L1", "L2"], edges=edges)
        cs = mm.CommunityStructure.from_entity_partition(net, dict.fromkeys("abcd", 0))
        assert cs.redundant_pair_count(0, "L1") == 2

    def test_mixed_support(self):
        edges = [("L1", "a", "b"), ("L2", "a", "b"),       # pair supported by L1, L2
                 ("L2", "c", "d"), ("L3", "c", "d")]       # pair supported by L2, L3
        net = mm.build_network(layers=["L1", "L2", "L3"], edges=edges)
        cs = mm.CommunityStructure.from_entity_partition(net, dict.fromkeys("abcd", 0))
        assert cs.redundant_pair_count(0, "L2") == 2
        assert cs.redundant_pair_count(0, "L1") == 1

    @staticmethod
    def check_against_literal(net, cs):
        """Every redundancy reading of every community of ``cs`` equals the
        literal edge-list scan over its flattened membership."""
        ids = net.entity_ids
        for c in cs.communities():
            p1, p2 = cs.redundant_pairs(c)
            per_layer = [cs.redundant_pair_count(c, l) for l in net.layer_ids]
            assert all(v <= len(p2) for v in per_layer)
            flat = {net.entity_index(e) for e, _ in cs.members(c)}
            literal = literal_pair_layers(net, flat)
            for (u, v), layers in literal.items():
                assert linking_layers(net, ids[u], ids[v]) == [
                    net.layer_ids[li] for li in sorted(layers)]
            redundant = {pair: layers for pair, layers in literal.items() if len(layers) >= 2}
            assert p1 == {(ids[u], ids[v]) for u, v in literal}
            assert p2 == {(ids[u], ids[v]) for u, v in redundant}
            support = sum(len(layers) for layers in redundant.values())
            assert sum(per_layer) == support
            assert per_layer == [sum(1 for layers in redundant.values() if li in layers)
                                 for li in range(net.num_layers)]
            expected = Fraction(support, net.num_layers * len(literal)) if literal else 0
            value = cs.redundancy(c)
            assert type(value) is Fraction and value == expected

    def test_bookkeeping_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            net = random_multilayer(rng)
            self.check_against_literal(net, random_structure(rng, net))

    def test_split_entity_and_edgeless_entity(self):
        # a and c each lie in both communities; e is present but has no edge
        edges = [("L1", "a", "b"), ("L1", "b", "c"),
                 ("L2", "a", "b"), ("L2", "a", "c"), ("L2", "b", "c"), ("L2", "c", "d")]
        net = mm.build_network(layers=["L1", "L2"], edges=edges, presence=[("L1", "e")])
        cs = mm.CommunityStructure(net, {
            ("a", "L1"): 0, ("b", "L1"): 0, ("c", "L1"): 1, ("e", "L1"): 0,
            ("a", "L2"): 1, ("b", "L2"): 0, ("c", "L2"): 0, ("d", "L2"): 1})
        # community 0 holds a, b, c, e: (a, b) and (b, c) in both layers, (a, c) in L2
        assert cs.redundant_pairs(0) == ({("a", "b"), ("b", "c"), ("a", "c")},
                                         {("a", "b"), ("b", "c")})
        assert [cs.redundant_pair_count(0, l) for l in ("L1", "L2")] == [2, 2]
        assert cs.redundancy(0) == Fraction(4, 2 * 3)
        # community 1 holds a, c, d: (a, c) and (c, d) in L2 only
        assert cs.redundant_pairs(1) == ({("a", "c"), ("c", "d")}, frozenset())
        assert [cs.redundant_pair_count(1, l) for l in ("L1", "L2")] == [0, 0]
        assert cs.redundancy(1) == 0
        self.check_against_literal(net, cs)

    def test_bookkeeping_identity_at_scale(self):
        net, cs = blocked_multilayer(random.Random(3))
        assert net.num_entities >= 1000
        split = sum(1 for e in net.entity_ids
                    if len({cs.assignment_of(e, l) for l in net.entity_layers(e)}) > 1)
        assert split > 100
        self.check_against_literal(net, cs)


class TestRedundancyResolution:
    def test_zero_pairs_gives_two(self, two_triangles):
        cs = mm.CommunityStructure.from_entity_partition(
            two_triangles, {e: 0 for e in two_triangles.entity_ids})
        assert cs.redundancy_resolution(0, "L") == 2.0

    def test_one_pair_gives_one(self):
        net = mm.build_network(layers=["L1", "L2"],
                               edges=[("L1", "a", "b"), ("L2", "a", "b")])
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0})
        assert cs.redundancy_resolution(0, "L1") == 1.0

    def test_seven_pairs_give_half(self):
        edges = [(l, "hub", f"s{i}") for l in ("L1", "L2") for i in range(7)]
        net = mm.build_network(layers=["L1", "L2"], edges=edges)
        part = {"hub": 0, **{f"s{i}": 0 for i in range(7)}}
        cs = mm.CommunityStructure.from_entity_partition(net, part)
        assert cs.redundant_pair_count(0, "L1") == 7
        assert cs.redundancy_resolution(0, "L1") == 0.5

    def test_strictly_decreasing_in_pair_count(self):
        values = []
        for spokes in range(9):
            edges = [(l, "hub", f"s{i}") for l in ("L1", "L2") for i in range(spokes)]
            if not edges:
                edges = [("L1", "hub", "s0")]
            net = mm.build_network(layers=["L1", "L2"], edges=edges)
            part = {e: 0 for e in net.entity_ids}
            cs = mm.CommunityStructure.from_entity_partition(net, part)
            assert cs.redundant_pair_count(0, "L1") == (spokes if spokes else 0)
            values.append(cs.redundancy_resolution(0, "L1"))
        assert values[0] == 2.0
        assert all(b < a for a, b in zip(values[1:], values[2:]))


class TestFlattenMajority:
    def test_majority(self):
        net = mm.build_network(layers=["L1", "L2", "L3"],
                               edges=[(l, "a", "b") for l in ("L1", "L2", "L3")])
        cs = mm.CommunityStructure(net, {
            ("a", "L1"): 0, ("a", "L2"): 0, ("a", "L3"): 1,
            ("b", "L1"): 0, ("b", "L2"): 1, ("b", "L3"): 1,
        })
        flat = cs.flatten_majority()
        assert flat["a"] == 0
        assert flat["b"] == 1

    def test_tie_breaks_low(self):
        net = mm.build_network(layers=["L1", "L2"], edges=[(l, "a", "b") for l in ("L1", "L2")])
        cs = mm.CommunityStructure(net, {
            ("a", "L1"): 0, ("a", "L2"): 1, ("b", "L1"): 0, ("b", "L2"): 1})
        assert cs.flatten_majority()["a"] == 0

    def test_single_instance(self):
        net = mm.build_network(layers=["L1", "L2"], edges=[("L1", "a", "b")],
                               presence=[("L2", "c"), ("L2", "a")])
        cs = mm.CommunityStructure(net, {("a", "L1"): 0, ("b", "L1"): 0,
                                         ("a", "L2"): 0, ("c", "L2"): 1})
        flat = cs.flatten_majority()
        assert flat["c"] == cs.assignment_of("c", "L2")
        assert flat["c"] != flat["a"]

    def test_layer_relabel_invariance(self):
        rng = random.Random(23)
        for _ in range(20):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            flat = cs.flatten_majority()
            # rebuild with layer ids renamed; assignments carried over
            renamed = {l: f"z{i}" for i, l in enumerate(net.layer_ids)}
            edges = [(renamed[l], net.entity_ids[u], net.entity_ids[v])
                     for li, l in enumerate(net.layer_ids)
                     for u, v in net.edges_idx(li)]
            presence = [(renamed[l], e) for e in net.entity_ids
                        for l in net.entity_layers(e)]
            net2 = mm.build_network(layers=[renamed[l] for l in net.layer_ids],
                                    edges=edges, presence=presence)
            cs2 = mm.CommunityStructure(
                net2, {(e, renamed[l]): cs.assignment_of(e, l)
                       for e, l in net.tuples()})
            assert cs2.flatten_majority() == flat


class TestPartitionInvariants:
    def test_partition_covers_everything(self):
        rng = random.Random(7)
        for _ in range(30):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            counted = sum(len(cs.members(c)) for c in cs.communities())
            assert counted == net.num_tuples()
            for layer in net.layer_ids:
                total = sum(cs.degree(c, layer) for c in cs.communities())
                assert total == 2 * net.num_edges(layer)

    def test_p2_subset_p1(self):
        rng = random.Random(13)
        for _ in range(30):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            for c in cs.communities():
                p1, p2 = cs.redundant_pairs(c)
                assert p2 <= p1
                assert 0 <= cs.redundancy(c) <= 1


def test_coupled_instance_pairs_count_same_entity_pairs():
    # sum_e C(n_e, 2), n_e the occurrences of entity e inside the community
    rng = random.Random(23)
    deep = split = 0
    for _ in range(40):
        net = random_multilayer(rng, max_tuples=16)
        cs = random_structure(rng, net)
        for c in cs.communities():
            counts = {}
            for entity, _ in cs.members(c):
                counts[entity] = counts.get(entity, 0) + 1
            pairs = cs.coupled_instance_pairs(c)
            assert type(pairs) is int
            assert pairs == sum(math.comb(n, 2) for n in counts.values())
            deep += any(n >= 3 for n in counts.values())
            split += any(n < len(net.entity_layers(e)) for e, n in counts.items())
    # an entity with three occurrences in one community, and one split across
    # communities, both occur
    assert deep and split


class TestCommunityFiles:
    def test_extended_round_trip(self, tmp_path, ordered3, ordered3_cs):
        path = tmp_path / "c.txt"
        mm.write_communities(ordered3_cs, path)
        again = mm.read_communities(ordered3, path)
        assert again.as_assignment() == ordered3_cs.as_assignment()

    @pytest.fixture
    def string_net(self):
        # community files carry string tokens, so pair them with string ids
        edges = [("L", u, v) for u, v in
                 [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]]
        return mm.build_network(layers=["L"], edges=edges)

    def test_flattened(self, tmp_path, string_net):
        path = tmp_path / "c.txt"
        part = {e: (0 if e in "abc" else 1) for e in string_net.entity_ids}
        mm.write_flat_partition(part, path)
        cs = mm.read_communities(string_net, path)
        assert cs.num_communities == 2

    @pytest.mark.parametrize("form", ["{e} L {c}", "{e} {c}"])
    def test_byte_order_mark(self, tmp_path, string_net, form):
        path = tmp_path / "c.txt"
        lines = [form.format(e=e, c=0 if e in "abc" else 1) for e in string_net.entity_ids]
        path.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
        cs = mm.read_communities(string_net, path)
        assert cs.num_communities == 2
        assert cs.assignment_of("a", "L") == 0

    @pytest.mark.parametrize("text,message", [
        # the whole file is read before any occurrence is checked
        ("c M 0\na L 0\na L 1\n", "line 3: duplicate assignment for (a, L)"),
        ("c M 0\nd M 1\n",
         "assignment references ('c', 'M') but the entity is not present in that layer"),
        ("c M 0\na Z 0\n", "line 2: unknown layer 'Z'"),
        ("a L 0\nghost Z 0\n", "line 2: unknown entity 'ghost'"),
        ("a L 0\nb 0\nc M 0\n", "line 2: flattened record in an extended file"),
        ("a 0\nghost\na 1\n", "line 2: expected 2 or 3 tokens"),
        ("a 0\na 1\n", "line 2: duplicate assignment for a"),
        ("a L 0\n", "unassigned occurrence ('a', 'M')"),
        ("a 0\n", "entity 'b' has no community assignment"),
        ("# only a comment\n\n", "community file is empty"),
    ])
    def test_error_messages(self, tmp_path, text, message):
        net = mm.build_network(layers=["L", "M"], edges=[
            ("L", "a", "b"), ("L", "b", "c"), ("L", "a", "c"), ("L", "d", "e"), ("M", "a", "b")])
        path = tmp_path / "c.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as info:
            mm.read_communities(net, path)
        assert str(info.value) == message

    def test_mixed_forms_rejected(self, tmp_path, string_net):
        path = tmp_path / "c.txt"
        path.write_text("a L 0\nb 0\n", encoding="utf-8")
        with pytest.raises(InputError, match="flattened record"):
            mm.read_communities(string_net, path)

    def test_unknown_entity(self, tmp_path, string_net):
        path = tmp_path / "c.txt"
        path.write_text("ghost 0\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 1"):
            mm.read_communities(string_net, path)

    def test_incomplete_extended(self, tmp_path, string_net):
        path = tmp_path / "c.txt"
        path.write_text("a L 0\n", encoding="utf-8")
        with pytest.raises(InputError, match="unassigned"):
            mm.read_communities(string_net, path)


    def test_not_utf8(self, tmp_path, string_net):
        path = tmp_path / "c.txt"
        path.write_bytes(b"a \xff\nb 0\n")
        with pytest.raises(InputError, match="c.txt: not UTF-8"):
            mm.read_communities(string_net, path)

    @pytest.mark.parametrize("entity", ["b#", "x y", "", "#"])
    def test_unreadable_entity_ids_rejected(self, tmp_path, entity):
        net = mm.build_network(layers=["L"], edges=[("L", "a", entity)])
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, entity: 0})
        with pytest.raises(InputError, match="cannot write entity id"):
            mm.write_communities(cs, tmp_path / "c.txt")
        with pytest.raises(InputError, match="cannot write entity id"):
            mm.write_flat_partition(cs.flatten_majority(), tmp_path / "c.flat")
        assert not any(tmp_path.iterdir())

    def test_unreadable_layer_and_label_rejected(self, tmp_path):
        net = mm.build_network(layers=["L 2"], edges=[("L 2", "a", "b")])
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0})
        with pytest.raises(InputError, match="cannot write layer id 'L 2'"):
            mm.write_communities(cs, tmp_path / "c.txt")
        with pytest.raises(InputError, match="cannot write community id 'x#'"):
            mm.write_flat_partition({"a": 0, "b": "x#"}, tmp_path / "c.flat")
        with pytest.raises(InputError, match="also written as '0'"):
            mm.write_flat_partition({"a": 0, "b": "0"}, tmp_path / "c.flat")
        assert not any(tmp_path.iterdir())

    def test_percent_ids_round_trip(self, tmp_path):
        # a leading '%' marks a directive only in network files
        net = mm.build_network(layers=["%L"], edges=[("%L", "%a", "b")])
        cs = mm.CommunityStructure.from_entity_partition(net, {"%a": 0, "b": 1})
        mm.write_communities(cs, tmp_path / "c.txt")
        assert mm.read_communities(net, tmp_path / "c.txt").as_assignment() == \
            cs.as_assignment()


def _string_ids(net):
    """``net`` with entity ``e`` renamed ``n<e>``: community files carry
    string ids."""
    ids = net.entity_ids
    return mm.build_network(
        layers=net.layer_ids,
        edges=[(l, f"n{ids[u]}", f"n{ids[v]}")
               for li, l in enumerate(net.layer_ids) for u, v in net.edges_idx(li)],
        presence=[(l, f"n{e}") for e, l in net.tuples()])


def _random_community_text(rng, net, faults=0):
    """Random extended or flattened community text over ``net``: a record
    for most occurrences (or entities), in shuffled order, with comments,
    blank lines, CRLF and tabs. ``faults`` records the reader must refuse
    are spliced in: unknown ids, a record of an absent occurrence, a
    duplicate, the other form, a wrong token count."""
    labels = [f"c{i}" for i in range(rng.randint(1, 4))]
    extended = rng.random() < 0.5
    if extended:
        records = [[e, l, rng.choice(labels)] for e, l in net.tuples() if rng.random() < 0.97]
    else:
        records = [[e, rng.choice(labels)] for e in net.entity_ids if rng.random() < 0.97]
    rng.shuffle(records)
    if rng.random() < 0.03:
        records = []  # nothing but what the faults add
    absent = [[e, l, "c0"] for e in net.entity_ids for l in net.layer_ids
              if not net.is_present(e, l)]
    e0, l0 = net.entity_ids[0], net.layer_ids[0]
    bad = [["ghost", l0, "c0"], [e0, "nolayer", "c0"], ["ghost", "c0"], [e0, l0, "c0"],
           [e0, "c0"], ["x"], ["a", "b", "c", "d"], *absent[:1]]
    if records:
        bad.append(list(rng.choice(records)))
    for _ in range(faults):
        records.insert(rng.randint(0, len(records)), rng.choice(bad))
    for _ in range(rng.randint(0, 3)):
        records.insert(rng.randint(0, len(records)), [])
    lines = []
    for tokens in records:
        line = rng.choice(["", " ", "\t"]) + rng.choice([" ", "\t"]).join(tokens)
        lines.append(line + rng.choice(["", "", " # note", "#"]))
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


# a fragment of each refusal a community file can meet -> its kind
COMMUNITY_REFUSALS = {
    "unknown entity": "unknown entity", "unknown layer": "unknown layer",
    "duplicate assignment": "duplicate", "record in an": "mixed forms",
    "expected 2 or 3": "token count", "not present in that layer": "absent",
    "unassigned occurrence": "unassigned", "has no community assignment": "unassigned entity",
    "is empty": "empty"}


class TestReadCommunitiesOracle:
    def test_read_communities_matches_literal_reader(self, tmp_path):
        """``read_communities`` gives the literal reader's assignment, in
        the same order and numbering, or its error."""
        path = tmp_path / "c.txt"
        refused = set()
        for seed in range(300):
            rng = random.Random(seed)
            net = _string_ids(random_multilayer(rng, max_tuples=14))
            text = _random_community_text(rng, net, faults=rng.choice([0, 0, 1, 2]))
            path.write_bytes(text.encode("utf-8"))
            try:
                want = list(literal_read_communities(net, path).items())
            except InputError as exc:
                want = str(exc)
            try:
                got = list(mm.read_communities(net, path).as_assignment().items())
            except InputError as exc:
                got = str(exc)
                refused |= {kind for part, kind in COMMUNITY_REFUSALS.items() if part in got}
            assert got == want
        assert refused == set(COMMUNITY_REFUSALS.values())


def test_loaders_build_from_indices(tmp_path, monkeypatch):
    """``read_network`` and ``read_communities`` go from text straight to
    indices: neither calls the id-tuple parser and builder, nor builds the
    structure from an id assignment or an entity partition."""
    text = "%order L M\n%presence M d\nL a b\nL b c\nM a b\nM b d # x\n"
    (tmp_path / "net.mlg").write_text(text, encoding="utf-8")
    (tmp_path / "ext.txt").write_text("a L 0\nb L 0\nc L 1\na M 1\nb M 1\nd M 1\n",
                                      encoding="utf-8")
    (tmp_path / "flat.txt").write_text("a 0\nb 0\nc 1\nd 1\n", encoding="utf-8")
    want = mm.build_network(layers=["L", "M"], edges=mm.parse_network_text(text)[1],
                            presence=[("M", "d")],
                            ordering=mm.LayerOrdering.natural(["L", "M"]))
    want_ext = mm.CommunityStructure(want, {("a", "L"): 0, ("b", "L"): 0, ("c", "L"): 1,
                                            ("a", "M"): 1, ("b", "M"): 1, ("d", "M"): 1})
    want_flat = mm.CommunityStructure.from_entity_partition(want, {"a": 0, "b": 0, "c": 1,
                                                                   "d": 1})

    def refuse(*args, **kwargs):
        raise AssertionError("loaded through the id-level path")

    monkeypatch.setattr(mm.mlgraph, "parse_network_text", refuse)
    monkeypatch.setattr(mm.mlgraph, "build_network", refuse)
    monkeypatch.setattr(mm.CommunityStructure, "__init__", refuse)
    monkeypatch.setattr(mm.CommunityStructure, "from_entity_partition", refuse)
    net = mm.read_network(tmp_path / "net.mlg")
    assert net.entity_ids == want.entity_ids == ("d", "a", "b", "c")
    assert [net.adj_idx(li) for li in range(2)] == [want.adj_idx(li) for li in range(2)]
    assert net.ordering == want.ordering
    for name, expected in (("ext.txt", want_ext), ("flat.txt", want_flat)):
        cs = mm.read_communities(net, tmp_path / name)
        assert cs.as_assignment() == expected.as_assignment()


def test_ordered3_partition_labels(ordered3):
    cs = mm.CommunityStructure.from_entity_partition(ordered3, ORDERED3_PARTITION)
    assert cs.num_communities == 3
    flat = cs.flatten_majority()
    assert {e for e, c in flat.items() if c == flat["e01"]} == {"e01", "e02", "e10"}

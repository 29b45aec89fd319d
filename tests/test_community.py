"""Community structures: expansion, projections, redundancy, flattening, files."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import multimod as mm
from multimod import mlgraph
from multimod.errors import InputError

from _brute import literal_pair_layers, literal_read_communities
from _gen import blocked_multilayer, occurrence_ids, random_multilayer, random_structure
from conftest import LINE_BREAKS, ORDERED3_PARTITION, line_source_matches_text


class TestFromEntityPartition:
    def test_single_community(self, twin_triangle_layers):
        net = twin_triangle_layers
        cs = mm.CommunityStructure.from_entity_partition(net, {e: 0 for e in net.entity_ids})
        assert cs.num_communities == 1
        assert sum(cs.projection_size(0, l) for l in net.layer_ids) == net.num_tuples()

    def test_ordered3_projections(self, ordered3, ordered3_cs):
        c1 = ordered3_cs.as_assignment()[("e01", "L1")]
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

    @pytest.fixture
    def abc(self):
        return mm.build_network(layers=["L"], edges=[("L", "a", "b"), ("L", "b", "c")])

    def test_unknown_entity_refused(self, abc, tmp_path):
        """An id the network lacks is refused as the file reader refuses it,
        not dropped."""
        part = {"a": 0, "b": 0, "c": 1, "zz": 5}
        with pytest.raises(InputError, match=r"^unknown entity 'zz'$"):
            mm.CommunityStructure.from_entity_partition(abc, part)
        path = tmp_path / "c.txt"
        mm.write_flat_partition(part, path)
        with pytest.raises(InputError, match=r"^line 4: unknown entity 'zz'$"):
            mm.read_communities(abc, path)

    def test_first_unknown_entity_before_unassigned(self, abc):
        """The first unknown key in the partition's order is named, ahead of
        an entity without an assignment."""
        with pytest.raises(InputError, match=r"^unknown entity 'yy'$"):
            mm.CommunityStructure.from_entity_partition(abc, {"yy": 0, "a": 0, "xx": 1})


def test_an_assignment_naming_an_occurrence_twice_is_refused(two_triangles):
    class Repeating(dict):  # a mapping whose items() gives each pair twice
        def items(self):
            return [*super().items(), *super().items()]

    layer = two_triangles.layer_ids[0]
    assignment = Repeating({(e, layer): 0 for e in two_triangles.entity_ids})
    with pytest.raises(InputError, match=rf"^duplicate assignment for \(0, {layer!r}\)$"):
        mm.CommunityStructure(two_triangles, assignment)


class TestAbsentOccurrence:
    @pytest.fixture
    def net(self):
        # "c" lies on L1 only
        return mm.build_network(layers=["L1", "L2"], edges=[("L1", "a", "b"), ("L1", "b", "c"),
                                                             ("L2", "a", "b")])

    def test_assignment_refused(self, net):
        assignment = {t: 0 for t in occurrence_ids(net)}
        assignment[("c", "L2")] = 0
        with pytest.raises(InputError, match="entity is not present in that layer"):
            mm.CommunityStructure(net, assignment)

    @pytest.mark.parametrize("record, message", [
        (("zz", "L1"), "unknown entity 'zz'"), (("a", "M"), "unknown layer 'M'")])
    def test_unknown_id_refused(self, net, record, message):
        """An assignment naming an id the network lacks is an InputError
        with the file reader's text, raised at that record."""
        assignment = {t: 0 for t in occurrence_ids(net)}
        assignment[record] = 0
        with pytest.raises(InputError, match=f"^{message}$"):
            mm.CommunityStructure(net, assignment)

    def test_assignment_lists_present_occurrences_only(self, net):
        cs = mm.CommunityStructure(net, {t: 0 for t in occurrence_ids(net)})
        assignment = cs.as_assignment()
        assert assignment[("c", "L1")] == 0
        assert ("c", "L2") not in assignment


class TestProjection:
    def test_absent_community_layer(self, ordered3, ordered3_cs):
        c1 = ordered3_cs.as_assignment()[("e01", "L1")]
        # C1 holds only e10 on L3
        assert ordered3_cs.projection(c1, "L3") == {"e10"}
        # a community whose entities all miss a layer projects to nothing there
        pair_only = mm.CommunityStructure(
            ordered3, {t: (0 if t[0] in ("e01", "e02") else 1)
                       for t in occurrence_ids(ordered3)})
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
        assert cs.redundant_pair_count(0, "L") == 0
        assert cs.redundancy(0) == 0

    def test_pair_in_two_layers(self):
        net = mm.build_network(layers=["L1", "L2"],
                               edges=[("L1", "a", "b"), ("L2", "a", "b")])
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0})
        # one connected pair, redundant and supported by both layers
        assert [cs.redundant_pair_count(0, l) for l in ("L1", "L2")] == [1, 1]
        assert cs.redundancy(0) == Fraction(2, 2 * 1)

    def test_distinct_layers_no_redundant(self):
        # three entities linked pairwise, each pair in its own layer
        edges = [("L1", "a", "b"), ("L2", "b", "c"), ("L3", "a", "c")]
        net = mm.build_network(layers=["L1", "L2", "L3"], edges=edges)
        cs = mm.CommunityStructure.from_entity_partition(net, {"a": 0, "b": 0, "c": 0})
        assert cs._redundancy_counts(0) == ([0, 0, 0], 3)
        assert [cs.redundant_pair_count(0, l) for l in ("L1", "L2", "L3")] == [0, 0, 0]
        assert cs.redundancy(0) == 0

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
        assignment = cs.as_assignment()
        for c in cs.communities():
            per_layer = [cs.redundant_pair_count(c, l) for l in net.layer_ids]
            flat = {net.entity_index(e) for (e, _), k in assignment.items() if k == c}
            literal = literal_pair_layers(net, flat)
            for (u, v), layers in literal.items():
                assert linking_layers(net, ids[u], ids[v]) == [
                    net.layer_ids[li] for li in sorted(layers)]
            redundant = {pair: layers for pair, layers in literal.items() if len(layers) >= 2}
            assert all(v <= len(redundant) for v in per_layer)
            # the connected and the per-layer redundant pair counts
            assert cs._redundancy_counts(c) == (per_layer, len(literal))
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
        assert cs._redundancy_counts(0) == ([2, 2], 3)
        assert [cs.redundant_pair_count(0, l) for l in ("L1", "L2")] == [2, 2]
        assert cs.redundancy(0) == Fraction(4, 2 * 3)
        # community 1 holds a, c, d: (a, c) and (c, d) in L2 only
        assert cs._redundancy_counts(1) == ([0, 0], 2)
        assert [cs.redundant_pair_count(1, l) for l in ("L1", "L2")] == [0, 0]
        assert cs.redundancy(1) == 0
        self.check_against_literal(net, cs)

    def test_bookkeeping_identity_at_scale(self):
        net, cs = blocked_multilayer(random.Random(3))
        assert net.num_entities >= 1000
        communities_of = {}
        for (e, _), c in cs.as_assignment().items():
            communities_of.setdefault(e, set()).add(c)
        split = sum(1 for found in communities_of.values() if len(found) > 1)
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
        assert flat["c"] == cs.as_assignment()[("c", "L2")]
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
            presence = [(renamed[l], e) for e, l in occurrence_ids(net)]
            net2 = mm.build_network(layers=[renamed[l] for l in net.layer_ids],
                                    edges=edges, presence=presence)
            cs2 = mm.CommunityStructure(
                net2, {(e, renamed[l]): c for (e, l), c in cs.as_assignment().items()})
            assert cs2.flatten_majority() == flat

    def test_vote_is_kept_read_only_and_stored_only_when_whole(self, monkeypatch,
                                                               twin_triangle_layers):
        net = twin_triangle_layers
        cs = mm.CommunityStructure.from_entity_partition(
            net, {e: i % 2 for i, e in enumerate(net.entity_ids)})
        layers_of = mlgraph.MultilayerNetwork.entity_layers_idx
        calls = []

        def while_voting(self, ei):  # no other read may see a half-built vote
            calls.append(ei)
            assert cs._majority is None
            return layers_of(self, ei)

        monkeypatch.setattr(mlgraph.MultilayerNetwork, "entity_layers_idx", while_voting)
        flat = cs.flatten_majority()
        assert calls == list(range(net.num_entities))
        monkeypatch.undo()
        assert cs.flatten_majority() is flat
        assert flat == {e: i % 2 for i, e in enumerate(net.entity_ids)}
        entity = net.entity_ids[0]
        with pytest.raises(TypeError):
            flat[entity] = 9
        with pytest.raises(TypeError):
            del flat[entity]
        assert cs.flatten_majority()[entity] == 0


class TestPartitionInvariants:
    def test_partition_covers_everything(self):
        rng = random.Random(7)
        for _ in range(30):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            counted = sum(cs.projection_size(c, l) for c in cs.communities() for l in net.layer_ids)
            assert counted == net.num_tuples()
            for layer in net.layer_ids:
                total = sum(cs.degree(c, layer) for c in cs.communities())
                assert total == 2 * net.num_edges(layer)

    def test_redundant_pairs_are_connected_pairs(self):
        rng = random.Random(13)
        for _ in range(30):
            net = random_multilayer(rng)
            cs = random_structure(rng, net)
            for c in cs.communities():
                counts, linked = cs._redundancy_counts(c)
                assert all(n <= linked for n in counts)
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
            for (entity, _), k in cs.as_assignment().items():
                if k == c:
                    counts[entity] = counts.get(entity, 0) + 1
            pairs = cs.coupled_instance_pairs(c)
            assert type(pairs) is int
            assert pairs == sum(math.comb(n, 2) for n in counts.values())
            deep += any(n >= 3 for n in counts.values())
            split += any(n < len(net.entity_layers_idx(net.entity_index(e)))
                         for e, n in counts.items())
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
    def test_byte_order_mark(self, tmp_path, string_net, form, chunk):
        path = tmp_path / "c.txt"
        lines = [form.format(e=e, c=0 if e in "abc" else 1) for e in string_net.entity_ids]
        path.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
        cs = mm.read_communities(string_net, path)
        assert cs.num_communities == 2
        assert cs.as_assignment()[("a", "L")] == 0

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
    def test_error_messages(self, tmp_path, text, message, chunk):
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


    def test_not_utf8(self, tmp_path, string_net, chunk):
        path = tmp_path / "c.txt"
        path.write_bytes(b"a \xff\nb 0\n")
        with pytest.raises(InputError, match="c.txt: not UTF-8"):
            mm.read_communities(string_net, path)

    @pytest.mark.parametrize("tail", [b"", b"a \xff\n"], ids=["no-bad-byte", "bad-byte"])
    def test_closes_its_file_after_a_refusal(self, tmp_path, string_net, chunk, opened_files,
                                             tail):
        """A malformed line, with or without a later bad byte, is refused
        with the file already closed, whatever the chunk size."""
        path = tmp_path / "c.txt"
        data = b"a 0\nb\n" + b"c 0\n" * 20 + tail
        path.write_bytes(data)
        with pytest.raises(InputError) as info:
            mm.read_communities(string_net, path)
        assert str(info.value) == (f"{path}: not UTF-8 text (byte {len(data) - 2})" if tail
                                   else "line 2: expected 2 or 3 tokens")
        assert len(opened_files) == 1 and opened_files[0].closed

    @pytest.mark.parametrize("mark", [b"", "\ufeff".encode("utf-8")], ids=["plain", "mark"])
    def test_bad_byte_beyond_the_first_chunk_comes_first(self, tmp_path, mark):
        """A file longer than one chunk whose first record is malformed and
        whose last line holds a bad byte reports the byte, at its offset."""
        net = mm.build_network(layers=["L"], edges=[("L", f"a{i}", f"b{i}") for i in range(6000)])
        records = "a0 L 0 0\n" + "".join(f"a{i} L 0\nb{i} L 0\n" for i in range(6000))
        data = mark + records.encode("utf-8") + b"a0 \xe9\n"
        assert len(data) > 1 << 16  # longer than one chunk of the default size
        path = tmp_path / "c.txt"
        path.write_bytes(data)
        with pytest.raises(InputError) as info:
            mm.read_communities(net, path)
        assert str(info.value) == f"{path}: not UTF-8 text (byte {len(data) - 2})"

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
    """``net`` with entity ``e`` renamed ``ñ<e>𝔘``: community files carry
    string ids, here of two- and four-byte characters."""
    ids = net.entity_ids
    return mm.build_network(
        layers=net.layer_ids,
        edges=[(l, f"ñ{ids[u]}𝔘", f"ñ{ids[v]}𝔘")
               for li, l in enumerate(net.layer_ids) for u, v in net.edges_idx(li)],
        presence=[(l, f"ñ{e}𝔘") for e, l in occurrence_ids(net)])


def _random_community_text(rng, net, faults=0):
    """Random extended or flattened community text over ``net``: a record
    for most occurrences (or entities), in shuffled order, with comments,
    blank lines and tabs. ``faults`` records the reader must refuse
    are spliced in: unknown ids, a record of an absent occurrence, a
    duplicate, the other form, a wrong token count. Lines end in every
    break ``str.splitlines`` knows."""
    labels = [f"c{i}" for i in range(rng.randint(1, 4))]
    extended = rng.random() < 0.5
    if extended:
        records = [[e, l, rng.choice(labels)] for e, l in occurrence_ids(net)
                   if rng.random() < 0.97]
    else:
        records = [[e, rng.choice(labels)] for e in net.entity_ids if rng.random() < 0.97]
    rng.shuffle(records)
    if rng.random() < 0.03:
        records = []  # nothing but what the faults add
    present = set(occurrence_ids(net))
    absent = [[e, l, "c0"] for e in net.entity_ids for l in net.layer_ids
              if (e, l) not in present]
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
    return "".join(line + rng.choice(LINE_BREAKS) for line in lines)


# a fragment of each refusal a community file can meet -> its kind
COMMUNITY_REFUSALS = {
    "unknown entity": "unknown entity", "unknown layer": "unknown layer",
    "duplicate assignment": "duplicate", "record in an": "mixed forms",
    "expected 2 or 3": "token count", "not present in that layer": "absent",
    "unassigned occurrence": "unassigned", "has no community assignment": "unassigned entity",
    "is empty": "empty"}


class TestReadCommunitiesOracle:
    def test_read_communities_matches_literal_reader(self, tmp_path, chunk):
        """``read_communities`` gives the literal reader's assignment, in
        the same order and numbering, or its error, whatever the chunk size;
        its line source gives the lines of the whole text."""
        path = tmp_path / "c.txt"
        refused = set()
        for seed in range(300):
            rng = random.Random(seed)
            net = _string_ids(random_multilayer(rng, max_tuples=14))
            text = _random_community_text(rng, net, faults=rng.choice([0, 0, 1, 2]))
            path.write_bytes(rng.choice(["", "\ufeff"]).encode("utf-8") + text.encode("utf-8"))
            assert line_source_matches_text(path)
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
    structure from an id assignment or an entity partition. Neither reads
    a valid file whole."""
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
        raise AssertionError("loaded through the id-level path, or read a whole file")

    monkeypatch.setattr(mm.mlgraph, "parse_network_text", refuse)
    monkeypatch.setattr(mm.mlgraph, "build_network", refuse)
    monkeypatch.setattr(mm.CommunityStructure, "__init__", refuse)
    monkeypatch.setattr(mm.CommunityStructure, "from_entity_partition", refuse)
    monkeypatch.setattr(mm.mlgraph, "read_utf8", refuse)
    monkeypatch.setattr(Path, "read_text", refuse)
    monkeypatch.setattr(Path, "read_bytes", refuse)
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

"""Network model: building, parsing, degrees, pairings, coverage, stats."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multimod as mm
from multimod import mlgraph
from multimod.errors import InputError

from _brute import (literal_avg_path_length, literal_build_network, literal_mean_clustering,
                    literal_parse_network_text, literal_read_network)
from conftest import LINE_BREAKS, line_source_matches_text, ordered3_network_text


def line_net(layers, edges, **kw):
    return mm.build_network(layers=layers, edges=edges, **kw)


def present_ids(net, layer) -> frozenset:
    """The ids of the entities present in ``layer``."""
    return frozenset(net.entity_ids[ei] for ei in net.presence_idx(net.layer_index(layer)))


def degree(net, entity, layer) -> int:
    """The number of edges of ``entity`` in ``layer``, read from the adjacency."""
    return len(net.adj_idx(net.layer_index(layer)).get(net.entity_index(entity), ()))


def adjacency_by_id(net, layer) -> dict:
    """Each entity present in ``layer`` -> the frozenset of its neighbour ids."""
    li = net.layer_index(layer)
    ids = net.entity_ids
    adj = net.adj_idx(li)
    return {ids[ei]: frozenset(ids[v] for v in adj.get(ei, ())) for ei in net.presence_idx(li)}


class TestBuild:
    def test_minimal(self):
        net = line_net(["L1"], [("L1", "a", "b")])
        assert set(net.entity_ids) == {"a", "b"}
        assert present_ids(net, "L1") == {"a", "b"}
        assert net.num_edges("L1") == 1

    def test_duplicate_edge_collapses(self):
        net = line_net(["L1"], [("L1", "a", "b"), ("L1", "b", "a")])
        assert net.num_edges("L1") == 1

    def test_ordered3_shape(self, ordered3):
        assert ordered3.num_layers == 3
        assert ordered3.ordering.is_natural
        assert ordered3.ordering.sequence == ("L1", "L2", "L3")
        assert len(present_ids(ordered3, "L1")) == 12
        assert len(present_ids(ordered3, "L2")) == 9
        assert len(present_ids(ordered3, "L3")) == 9

    def test_errors(self):
        with pytest.raises(InputError):
            line_net(["L1", "L1"], [])
        with pytest.raises(InputError):
            line_net(["L1"], [("L2", "a", "b")])
        with pytest.raises(InputError):
            line_net(["L1"], [("L1", "a", "a")])
        with pytest.raises(InputError):
            mm.build_network(entities=["ghost"], layers=["L1"], edges=[("L1", "a", "b")])
        # not a permutation of the layers: a subset, and a superset
        for sequence in (("L1",), ("L1", "x", "L2")):
            with pytest.raises(InputError):
                line_net(["L1", "L2"], [("L1", "a", "b")],
                         ordering=mm.LayerOrdering.natural(sequence))


@pytest.mark.parametrize("sequence,scheme,message", [
    (None, mm.PairingScheme.ADJACENT, "unordered layers admit no pairing scheme"),
    (("a",), None, "requires a pairing scheme"),
])
def test_layer_ordering_needs_scheme_with_sequence(sequence, scheme, message):
    with pytest.raises(InputError, match=message):
        mm.LayerOrdering(sequence, scheme)


def test_layer_ordering_refuses_a_repeated_layer():
    with pytest.raises(InputError, match="^layer ordering contains duplicates$"):
        mm.LayerOrdering.natural(["L", "L"])


@pytest.mark.parametrize("make", [
    lambda scheme, flag: mm.LayerOrdering.natural(["a", "b", "c"], scheme, flag),
    lambda scheme, flag: mm.LayerOrdering(("a", "b", "c"), scheme, flag),
    lambda scheme, flag: mm.LayerOrdering.natural(["a", "b", "c"])._replace(
        scheme=scheme, time_aware=flag),
], ids=["natural", "constructor", "replace"])
def test_layer_ordering_refuses_a_scheme_or_flag_of_another_type(make):
    # a scheme given by its value once paired every later layer, as pairwise does
    with pytest.raises(InputError, match="requires a pairing scheme, not 'adjacent'$"):
        make("adjacent", False)
    for flag in ("yes", 1, None):
        with pytest.raises(InputError, match=f"^time_aware must be a bool, not {flag!r}$"):
            make(mm.PairingScheme.ADJACENT, flag)
    assert make(mm.PairingScheme.ADJACENT, True).time_aware is True


@pytest.mark.parametrize("make", [
    lambda sequence: mm.LayerOrdering(sequence, mm.PairingScheme.ADJACENT),
    lambda sequence: mm.LayerOrdering.natural(sequence),
    lambda sequence: mm.LayerOrdering.natural(["x"])._replace(sequence=sequence),
], ids=["constructor", "natural", "replace"])
def test_layer_ordering_holds_its_sequence_as_a_tuple_of_hashable_ids(make):
    for sequence in (["a", "b"], ("a", "b"), (layer for layer in "ab")):
        ordering = make(sequence)
        assert type(ordering.sequence) is tuple and ordering.sequence == ("a", "b")
    # a string once was held as given, and the others raised a bare TypeError
    for sequence in ("ab", object(), ("a", ["b"]), 3):
        with pytest.raises(InputError, match="^a layer ordering must be a sequence of "
                                             "hashable layer ids, not "):
            make(sequence)


def test_build_network_refuses_an_ordering_that_is_no_layer_ordering():
    # "natural" once raised a bare AttributeError
    for ordering in ("natural", None, ("L1", "L2")):
        with pytest.raises(InputError, match="^expected a LayerOrdering, not "):
            line_net(["L1", "L2"], [("L1", "a", "b")], ordering=ordering)
    assert line_net(["L1"], [("L1", "a", "b")]).ordering == mm.LayerOrdering()


def test_unordered_layers_refuse_a_time_aware_flag_of_another_type():
    for make in (lambda: mm.LayerOrdering(None, None, 0),
                 lambda: mm.LayerOrdering.unordered()._replace(time_aware=0)):
        with pytest.raises(InputError, match="^time_aware must be a bool, not 0$"):
            make()


class TestDegree:
    def test_isolated_present_is_zero(self):
        net = line_net(["L1"], [("L1", "a", "b")], presence=[("L1", "c")])
        assert "c" in present_ids(net, "L1")
        assert degree(net, "c", "L1") == 0

    def test_triangle(self):
        net = line_net(["L1"], [("L1", 0, 1), ("L1", 1, 2), ("L1", 0, 2)])
        assert degree(net, 1, "L1") == 2

    def test_star_center(self):
        edges = [("L1", "hub", f"s{i}") for i in range(5)]
        net = line_net(["L1"], edges)
        # oracle: direct scan of the declared edge list
        expected = sum(1 for _, u, v in edges if "hub" in (u, v))
        assert degree(net, "hub", "L1") == expected == 5

    def test_absent_is_not_present(self):
        # absent differs from present but isolated: no presence, no adjacency
        net = line_net(["L1", "L2"], [("L1", "a", "b"), ("L2", "a", "c")])
        assert present_ids(net, "L2") == {"a", "c"}
        assert net.entity_index("b") not in net.adj_idx(net.layer_index("L2"))


class TestPairings:
    def test_adjacent(self):
        layers = [f"L{i}" for i in range(1, 6)]
        net = line_net(layers, [(l, "a", "b") for l in layers],
                       ordering=mm.LayerOrdering.natural(layers, mm.PairingScheme.ADJACENT))
        assert net.valid_pairings("L2") == ["L3"]
        assert net.valid_pairings("L5") == []
        total = sum(len(net.valid_pairings(l)) for l in layers)
        assert total == 4

    def test_pairwise_total(self):
        layers = [f"L{i}" for i in range(1, 6)]
        net = line_net(layers, [(l, "a", "b") for l in layers],
                       ordering=mm.LayerOrdering.natural(layers, mm.PairingScheme.PAIRWISE))
        total = sum(len(net.valid_pairings(l)) for l in layers)
        assert total == 10

    def test_unordered_is_set_minus(self):
        layers = ["L1", "L2", "L3"]
        net = line_net(layers, [(l, "a", "b") for l in layers])
        assert set(net.valid_pairings("L1")) == {"L2", "L3"}

    @settings(max_examples=60)
    @given(ell=st.integers(min_value=1, max_value=12),
           pairwise=st.booleans())
    def test_pairing_counts_property(self, ell, pairwise):
        layers = [f"L{i}" for i in range(ell)]
        scheme = mm.PairingScheme.PAIRWISE if pairwise else mm.PairingScheme.ADJACENT
        net = mm.build_network(layers=layers, presence=[(l, "a") for l in layers],
                               ordering=mm.LayerOrdering.natural(layers, scheme))
        total = sum(len(net.valid_pairings(l)) for l in layers)
        expected = (ell * ell - ell) // 2 if pairwise else ell - 1
        assert total == expected


class TestCoverage:
    def test_full(self):
        layers = ["a", "b", "c"]
        presence = [(l, e) for l in layers for e in range(29)]
        edges = [(l, 0, 1) for l in layers]
        net = line_net(layers, edges, presence=presence)
        assert net.node_coverage() == pytest.approx(1.0)
        assert net.edge_coverage() == pytest.approx(1 / 3)

    def test_half_layer(self):
        presence = [("a", e) for e in range(8)] + [("b", e) for e in range(4)]
        net = line_net(["a", "b"], [("a", 0, 1), ("b", 0, 1)], presence=presence)
        assert net.node_coverage() == pytest.approx(0.75)

    def test_no_edges_error(self):
        net = mm.build_network(layers=["L1"], presence=[("L1", "a")])
        with pytest.raises(InputError):
            net.edge_coverage()


class TestMonoplexStats:
    def test_triangle(self):
        net = line_net(["L"], [("L", 0, 1), ("L", 1, 2), ("L", 0, 2)])
        s = net.monoplex_stats("L")
        assert s.degree_mean == pytest.approx(2.0)
        assert s.clustering_coefficient == pytest.approx(1.0)
        assert s.avg_path_length == pytest.approx(1.0)

    def test_path(self):
        net = line_net(["L"], [("L", "a", "b"), ("L", "b", "c")])
        s = net.monoplex_stats("L")
        assert s.clustering_coefficient == pytest.approx(0.0)
        assert s.avg_path_length == pytest.approx(4 / 3)

    def test_star(self):
        net = line_net(["L"], [("L", "hub", f"s{i}") for i in range(4)])
        s = net.monoplex_stats("L")
        assert s.degree_mean == pytest.approx(8 / 5)

    def test_empty_layer_reports_zeros(self):
        net = line_net(["L", "M"], [("L", 0, 1)])
        assert net.monoplex_stats("M") == mm.LayerStats(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(KeyError):
            net.monoplex_stats("N")

    @staticmethod
    def random_layer(rng):
        """A layer with several components, isolated nodes and, in layer
        "N", a single node that is present without any edge."""
        n = rng.randint(1, 40)
        p = rng.choice((0.03, 0.08, 0.2))
        edges = [("L", i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        presence = [("L", v) for v in range(n)] + [("N", n)]
        return line_net(["L", "N"], edges, presence=presence)

    def check_against_literal(self, net):
        for layer in net.layer_ids:
            li = net.layer_index(layer)
            nodes = sorted(net.presence_idx(li))
            adj = net.adj_idx(li)
            s = net.monoplex_stats(layer)
            assert s.avg_path_length == literal_avg_path_length(adj, nodes)
            assert s.clustering_coefficient == literal_mean_clustering(adj, nodes)

    def test_matches_literal_oracles(self):
        rng = random.Random(97)
        for _ in range(60):
            self.check_against_literal(self.random_layer(rng))

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_matches_literal_oracles_over_several_blocks(self, monkeypatch, block):
        monkeypatch.setattr(mlgraph, "_SOURCE_BLOCK", block)
        rng = random.Random(101 + block)
        for _ in range(30):
            self.check_against_literal(self.random_layer(rng))

    @pytest.mark.parametrize("block", [4096, 3])
    def test_path_graph_closed_form(self, monkeypatch, block):
        monkeypatch.setattr(mlgraph, "_SOURCE_BLOCK", block)
        for n in (2, 3, 10, 57):
            net = line_net(["L"], [("L", i, i + 1) for i in range(n - 1)])
            assert net.monoplex_stats("L").avg_path_length == (n + 1) / 3


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_degree_sum_is_twice_edges(seed):
    from _gen import random_multilayer
    net = random_multilayer(random.Random(seed))
    for layer in net.layer_ids:
        total = sum(degree(net, e, layer) for e in present_ids(net, layer))
        assert total == 2 * net.num_edges(layer)


class TestParsing:
    def test_round_trip(self, tmp_path, ordered3):
        path = tmp_path / "net.mlg"
        mm.write_network(ordered3, path)
        again = mm.read_network(path)
        assert again.layer_ids == ordered3.layer_ids
        assert set(again.entity_ids) == set(ordered3.entity_ids)
        for layer in ordered3.layer_ids:
            assert present_ids(again, layer) == present_ids(ordered3, layer)
            assert again.num_edges(layer) == ordered3.num_edges(layer)

    def test_parse_text(self, tmp_path):
        path = tmp_path / "net.mlg"
        path.write_text(ordered3_network_text(), encoding="utf-8")
        net = mm.read_network(path)
        assert net.num_layers == 3
        assert net.ordering.is_natural

    def test_ordering_mode_none_ignores_order(self, tmp_path):
        path = tmp_path / "net.mlg"
        path.write_text(ordered3_network_text(), encoding="utf-8")
        net = mm.read_network(path, ordering_mode="none")
        assert not net.ordering.is_natural

    def test_natural_mode_without_order_directive(self, tmp_path):
        path = tmp_path / "net.mlg"
        path.write_text("b 1 2\na 1 2\n", encoding="utf-8")
        net = mm.read_network(path, ordering_mode="natural-pairwise")
        # declaration order stands in for the missing %order directive
        assert net.ordering.sequence == ("b", "a")
        assert net.ordering.scheme is mm.PairingScheme.PAIRWISE

    def test_malformed_line(self):
        with pytest.raises(InputError, match="line 2: expected 3 tokens"):
            mm.parse_network_text("L a b\nL a\n")

    def test_unknown_directive(self):
        with pytest.raises(InputError, match="line 1"):
            mm.parse_network_text("%bogus x\n")

    def test_comments_and_crlf(self):
        layers, edges, presences, order = mm.parse_network_text(
            "# header\r\nL a b # trailing\r\n%presence L c\r\n")
        assert edges == [("L", "a", "b")]
        assert presences == [("L", "c")]
        assert order is None

    def test_duplicate_order(self):
        with pytest.raises(InputError, match="duplicate %order"):
            mm.parse_network_text("%order a b\n%order b a\n")

    @pytest.mark.parametrize("text,lineno", [("L1 a b\n%order %a L1\n", 2),
                                              ("L1 a b\n\n%presence %a x\n", 3)])
    def test_directive_layer_starting_with_percent(self, text, lineno):
        # the format forbids it, and write_network refuses to write it
        with pytest.raises(InputError, match=f"line {lineno}: layer id '%a' starts with '%'"):
            mm.parse_network_text(text)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "net.mlg"
        path.write_bytes(b"\xff\xfe L1 a b\n")
        with pytest.raises(InputError, match="net.mlg: not UTF-8"):
            mm.read_network(path)


class TestRoundTrip:
    def test_unordered_layer_order_survives(self, tmp_path):
        # a presence-only occurrence in the later layer once moved it first
        net = mm.build_network(layers=["L%", "M"], edges=[("L%", "a", "b"), ("M", "a", "c")],
                               presence=[("M", "lone")])
        path = tmp_path / "net.mlg"
        mm.write_network(net, path)
        again = mm.read_network(path)
        assert again.layer_ids == ("L%", "M")
        assert again.entity_ids == net.entity_ids
        for layer in net.layer_ids:
            assert present_ids(again, layer) == present_ids(net, layer)
            assert again.num_edges(layer) == net.num_edges(layer)

    def test_layer_without_occurrence_refused_when_unordered(self, tmp_path):
        net = mm.build_network(layers=["A", "B"], edges=[("A", "x", "y")])
        path = tmp_path / "net.mlg"
        with pytest.raises(InputError, match="cannot write layer 'B': it has no occurrence"):
            mm.write_network(net, path)
        assert not path.exists()

    def test_layer_without_occurrence_kept_by_order(self, tmp_path):
        net = mm.build_network(layers=["A", "B"], edges=[("A", "x", "y")],
                               ordering=mm.LayerOrdering.natural(("A", "B")))
        path = tmp_path / "net.mlg"
        mm.write_network(net, path)
        again = mm.read_network(path)
        assert again.layer_ids == ("A", "B")
        assert again.num_edges("A") == 1 and not present_ids(again, "B")


class TestByteOrderMark:
    BOM = "\ufeff"

    def test_order_directive_after_mark(self, tmp_path):
        path = tmp_path / "net.mlg"
        path.write_text(self.BOM + "%order L1 L2\nL1 a b\nL2 a c\n", encoding="utf-8")
        net = mm.read_network(path)
        assert net.layer_ids == ("L1", "L2")
        assert net.ordering.sequence == ("L1", "L2")

    def test_edge_list_after_mark(self, tmp_path):
        path = tmp_path / "net.mlg"
        path.write_text(self.BOM + "L1 a b\nL1 b c\n", encoding="utf-8")
        net = mm.read_network(path)
        assert net.layer_ids == ("L1",)
        assert net.num_edges("L1") == 2

    def test_bad_byte_offset_counts_the_mark(self, tmp_path):
        path = tmp_path / "net.mlg"
        path.write_bytes(self.BOM.encode("utf-8") + b"L1 a \xff\n")
        with pytest.raises(InputError, match=r"net.mlg: not UTF-8 text \(byte 8\)"):
            mm.read_network(path)


class TestWriteIds:
    @staticmethod
    def net_with(layer="L", entity="b"):
        return mm.build_network(layers=[layer, "M"],
                                edges=[(layer, "a", entity), ("M", "a", "c")],
                                presence=[("M", entity)])

    def test_round_trip_of_punctuated_ids(self, tmp_path):
        net = self.net_with(layer="L%", entity="%b\u00e9")
        path = tmp_path / "net.mlg"
        mm.write_network(net, path)
        again = mm.read_network(path)
        assert set(again.layer_ids) == set(net.layer_ids)
        assert set(again.entity_ids) == set(net.entity_ids)
        for layer in net.layer_ids:
            assert present_ids(again, layer) == present_ids(net, layer)
            assert adjacency_by_id(again, layer) == adjacency_by_id(net, layer)

    def test_hash_in_entity_does_not_round_trip(self, tmp_path):
        # "L a b#" would read back as an edge to "b"
        net = self.net_with(entity="b#")
        assert mm.parse_network_text("L a b#\n")[1] == [("L", "a", "b")]
        path = tmp_path / "net.mlg"
        with pytest.raises(InputError, match="entity id 'b#'"):
            mm.write_network(net, path)
        assert not path.exists()

    @pytest.mark.parametrize("layer,entity", [
        ("L", "x y"), ("L", "x\ty"), ("L", "x\u2028y"), ("L", ""),
        ("%L", "b"), ("L#", "b"), ("L M2", "b"), ("", "b"),
    ])
    def test_unreadable_ids_rejected(self, tmp_path, layer, entity):
        path = tmp_path / "net.mlg"
        with pytest.raises(InputError, match="cannot write"):
            mm.write_network(self.net_with(layer, entity), path)
        assert not path.exists()

    def test_ids_written_alike_rejected(self, tmp_path):
        # 1 and "1" would read back as one entity
        net = mm.build_network(layers=["L"], edges=[("L", 1, "a"), ("L", "1", "b")])
        path = tmp_path / "net.mlg"
        with pytest.raises(InputError, match="also written as '1'"):
            mm.write_network(net, path)
        assert not path.exists()


# -- parse and build against the literal oracles ---------------------------------


def _outcome(fn, *args, **kwargs):
    """The function's result, or the message of the InputError it raised."""
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        return ("InputError", str(exc))


def _assert_same_network(net, fields):
    """Every field of ``net`` equals the literal builder's ``fields``."""
    assert net.entity_ids == fields["entity_ids"]
    assert net.layer_ids == fields["layer_ids"]
    assert net.ordering == fields["ordering"]
    for li, layer in enumerate(net.layer_ids):
        assert net.presence_idx(li) == fields["presence"][li]
        assert list(net.adj_idx(li).items()) == list(fields["adj"][li].items())
        assert net.edges_idx(li) == fields["edges"][li]
        assert net.num_edges(layer) == len(fields["edges"][li])
    assert net.num_edges() == sum(len(e) for e in fields["edges"])
    assert [net.entity_layers_idx(ei) for ei in range(net.num_entities)] == \
        list(fields["entity_layers"])


def _build_both(**kwargs):
    """Build with the package and the oracle; equal networks or equal errors."""
    net = _outcome(mm.build_network, **kwargs)
    fields = _outcome(literal_build_network, **kwargs)
    if isinstance(net, tuple) or isinstance(fields, tuple):
        assert net == fields
    else:
        _assert_same_network(net, fields)
    return net


def _random_text(rng, faults=0, hard=False):
    """Random edge-list text: comments, blank lines, tabs, every line break
    ``str.splitlines`` knows, multi-byte ids, edges repeated in both
    directions, presence-only entities, and an optional %order that may
    name a layer nothing else mentions. ``faults`` lines the
    parser must reject are spliced in at random places. ``hard`` adds the
    records the builder rejects or reorders: self-loops, a %order that is
    not a permutation of the layers (one dropped or repeated), and
    %presence lines, after the edges, of entities the edges named first."""
    layers = [f"L{i}" for i in range(rng.randint(1, 4))]
    entities = [rng.choice(["e", "é", "日", "𝔘"]) + str(i) for i in range(rng.randint(2, 10))]
    records = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if kind < 0.55:
            layer = rng.choice(layers)
            u, v = rng.sample(entities, 2)
            records.append([layer, u, v])
            if rng.random() < 0.3:
                records.append([layer, v, u])
            if rng.random() < 0.2:
                records.append([layer, u, v])
            if hard and rng.random() < 0.04:
                records.append([layer, u, u])
        elif kind < 0.8:
            records.append(["%presence", rng.choice(layers), rng.choice(entities + ["lone"])])
        else:
            records.append([])
    if hard:
        named = [e for tokens in records if tokens and tokens[0][0] != "%" for e in tokens[1:]]
        for e in rng.sample(named, min(len(named), rng.randint(0, 3))):
            records.append(["%presence", rng.choice(layers), e])
    if rng.random() < 0.5:
        sequence = layers + (["unmentioned"] if rng.random() < 0.5 else [])
        rng.shuffle(sequence)
        if hard and rng.random() < 0.2:
            if rng.random() < 0.5:
                sequence.pop()
            else:
                sequence.append(rng.choice(sequence))
        records.insert(rng.randint(0, len(records)), ["%order", *sequence])
    bad = [["L0", "a"], ["%bogus", "x"], ["%presence", "L0"], ["%order"],
           ["%order", "L0"], ["L0", "a", "b", "c"]]
    for _ in range(faults):
        records.insert(rng.randint(0, len(records)), rng.choice(bad))
    lines = []
    for tokens in records:
        line = rng.choice(["", " ", "\t"]) + rng.choice([" ", "\t", " \t "]).join(tokens)
        line += rng.choice(["", "", " ", "\t", " # trailing", "#x", " #"])
        if not tokens and rng.random() < 0.5:
            line = rng.choice(["# comment", "\t# indented", "#"])
        lines.append(line)
    return "".join(line + rng.choice(LINE_BREAKS) for line in lines)


class TestParseBuildOracle:
    def test_text_matches_oracle(self):
        for seed in range(150):
            rng = random.Random(seed)
            text = _random_text(rng)
            parsed = mm.parse_network_text(text)
            assert parsed == literal_parse_network_text(text)
            layers, edges, presences, order = parsed
            sequence = order if order is not None else tuple(layers)
            for ordering in (mm.LayerOrdering(), mm.LayerOrdering.natural(sequence)):
                _build_both(layers=layers, edges=edges, presence=presences, ordering=ordering)

    def test_declared_int_and_tuple_ids_match_oracle(self):
        for seed in range(100):
            rng = random.Random(seed)
            ids = [0, 1, 2, 7, (0, 1), (1, 0), ("a", 2), "x", "0"]
            layers = rng.sample([0, "L", (1, "b")], rng.randint(1, 3))
            edges = [(rng.choice(layers), *rng.sample(ids, 2)) for _ in range(rng.randint(1, 20))]
            presence = [(rng.choice(layers), rng.choice(ids)) for _ in range(rng.randint(0, 4))]
            used = {e for _, u, v in edges for e in (u, v)} | {e for _, e in presence}
            declared = rng.sample(sorted(used, key=repr), rng.randint(0, len(used)))
            ordering = mm.LayerOrdering.natural(rng.sample(layers, len(layers))) \
                if rng.random() < 0.5 else mm.LayerOrdering()
            net = _build_both(entities=declared, layers=layers, edges=edges, presence=presence,
                              ordering=ordering)
            assert net.entity_ids[:len(declared)] == tuple(declared)

    def test_several_faults_raise_the_oracle_message(self):
        for seed in range(150):
            rng = random.Random(seed)
            text = _random_text(rng, faults=rng.randint(1, 3))
            assert _outcome(mm.parse_network_text, text) == \
                _outcome(literal_parse_network_text, text)
            layers = ["A", "B"]
            edges = [("A", "a", "b"), ("B", "b", "c")]
            faulty = [("A", "x", "x"), ("Z", "a", "b"), ("B", "c", "c"), ("Y", "q", "q")]
            for _ in range(rng.randint(1, 3)):
                edges.insert(rng.randint(0, len(edges)), rng.choice(faulty))
            presence = rng.choice([[], [("A", "lone")], [("Q", "a"), ("A", "lone")]])
            declared = rng.choice([[], ["ghost"], ["a", "ghost", "other"]])
            ordering = rng.choice([mm.LayerOrdering(), mm.LayerOrdering.natural(("B", "A")),
                                   mm.LayerOrdering.natural(("A",))])
            layer_decl = rng.choice([layers, layers + ["A"], []])
            _build_both(entities=declared, layers=layer_decl, edges=edges, presence=presence,
                        ordering=ordering)


READ_MODES = ("auto", "none", "natural-adjacent", "natural-pairwise", "sideways")

# a fragment of each refusal a network file can meet -> its kind
REFUSALS = {"line ": "line", "unknown ordering mode": "mode", "time-aware": "time-aware",
            "names a layer twice": "duplicate layer", "at least one layer": "no layer",
            "not a permutation": "permutation", "self-loop": "self-loop"}


@pytest.mark.parametrize("mark", [b"", "\ufeff".encode("utf-8")], ids=["plain", "mark"])
def test_line_source_across_the_text_readers_buffer(tmp_path, chunk, mark):
    """The text reader decodes the file 8192 bytes at a time. A CRLF or a
    four-byte character at each byte offset from -3 to +3 around its first
    three buffer ends, amid short lines or ending one long line, reads as
    one, whatever the chunk size."""
    path = tmp_path / "net.mlg"
    lines = ("L a b" * 8 + "\n").encode("utf-8")
    for end in (8192, 16384, 24576):
        for shift in range(-3, 4):
            head = end + shift - len(mark)
            for filler in (lines * (head // len(lines) + 1), b"x" * head):
                for item in ("\r\n", "\U0001d11e"):
                    path.write_bytes(mark + filler[:head] + item.encode("utf-8") + b"L c d\n")
                    assert line_source_matches_text(path)


@pytest.mark.parametrize("tail", [b"", b"L x \xff\n"], ids=["no-bad-byte", "bad-byte"])
def test_read_network_closes_its_file_after_a_refusal(tmp_path, chunk, opened_files, tail):
    """A malformed line, with or without a later bad byte, is refused with
    the file already closed, whatever the chunk size."""
    path = tmp_path / "net.mlg"
    data = b"L a b\nL a\n" + b"L c d\n" * 20 + tail
    path.write_bytes(data)
    with pytest.raises(InputError) as info:
        mm.read_network(path)
    assert str(info.value) == (f"{path}: not UTF-8 text (byte {len(data) - 2})" if tail
                               else "line 2: expected 3 tokens")
    assert len(opened_files) == 1 and opened_files[0].closed


def test_read_network_refuses_a_time_aware_flag_as_the_ordering_does(tmp_path):
    # the mode picks only the sequence and the scheme: every mode refuses a
    # flag of another type with one message, and "none" a time-aware flag
    # with the unordered ordering's own
    path = tmp_path / "net.mlg"
    path.write_text("%order L1 L2\nL1 a b\nL2 a b\n", encoding="utf-8")
    refusals = {}
    for mode in ("auto", "none", "natural-adjacent", "natural-pairwise"):
        for flag in ("yes", True):
            try:
                mm.read_network(path, mode, flag)
            except InputError as exc:
                refusals[mode, flag] = str(exc)
    with pytest.raises(InputError) as unordered:
        mm.LayerOrdering(None, None, True)
    assert refusals == {**{(mode, "yes"): "time_aware must be a bool, not 'yes'" for mode in
                           ("auto", "none", "natural-adjacent", "natural-pairwise")},
                        ("none", True): str(unordered.value)}


class TestReadNetworkOracle:
    def test_read_network_matches_literal_reader(self, tmp_path, chunk):
        """``read_network`` on a file gives the literal reader's network
        field by field, or its error, in every ordering mode, whatever the
        chunk size; its line source gives the lines of the whole text."""
        path = tmp_path / "net.mlg"
        refused = set()
        renumbered = 0
        for seed in range(250):
            rng = random.Random(seed)
            text = _random_text(rng, faults=rng.choice([0, 0, 0, 1, 2]), hard=True)
            assert _outcome(mm.parse_network_text, text) == \
                _outcome(literal_parse_network_text, text)
            path.write_bytes(rng.choice(["", "\ufeff"]).encode("utf-8") + text.encode("utf-8"))
            assert line_source_matches_text(path)
            for mode in READ_MODES:
                for time_aware in (False, True):
                    got = _outcome(mm.read_network, path, mode, time_aware)
                    want = _outcome(literal_read_network, text, mode, time_aware)
                    if isinstance(got, tuple) or isinstance(want, tuple):
                        assert got == want
                        refused |= {kind for part, kind in REFUSALS.items() if part in got[1]}
                    else:
                        _assert_same_network(got, want)
                        # %presence entities come first, whatever the line order
                        parsed = mlgraph._parse_indices(enumerate(text.splitlines(), start=1))
                        renumbered += got.entity_ids != tuple(parsed[0])
        assert refused == set(REFUSALS.values())
        assert renumbered > 0

    @pytest.mark.parametrize("mark", [b"", "\ufeff".encode("utf-8")], ids=["plain", "mark"])
    def test_bad_byte_beyond_the_first_chunk_comes_first(self, tmp_path, mark):
        """A file longer than one chunk whose first record is malformed and
        whose last line holds a bad byte reports the byte, at its offset."""
        records = "L a\n" + "".join(f"L a{i} b{i}\n" for i in range(12000))
        data = mark + records.encode("utf-8") + b"L x \xff\n"
        assert len(data) > 1 << 16  # longer than one chunk of the default size
        path = tmp_path / "net.mlg"
        path.write_bytes(data)
        with pytest.raises(InputError) as info:
            mm.read_network(path)
        assert str(info.value) == f"{path}: not UTF-8 text (byte {len(data) - 2})"

    def test_first_self_loop_across_scatter_slices(self, tmp_path):
        """A file of more than two of the assembler's scatter slices, which
        it reads from the end: self-loops at edges 3000 and 5000 fall in
        the middle slice and one at 7000 in the last. Both builders refuse
        the first in file order, where they read the records."""
        per_slice = mlgraph._SCATTER // 3
        count = 2 * per_slice + per_slice // 2
        assert count > 8192
        loops = {3000: "s3000", 5000: "s5000", 7000: "s7000"}
        # 3000 and 5000 in the middle slice, 7000 in the last, none in the first
        assert [(count - i - 1) // per_slice for i in loops] == [1, 1, 0]
        edges = [(f"L{i % 2}", loops[i], loops[i]) if i in loops else (f"L{i % 2}", f"a{i}", f"b{i}")
                 for i in range(count)]
        path = tmp_path / "net.mlg"
        path.write_text("".join(f"{l} {u} {v}\n" for l, u, v in edges), encoding="utf-8")
        want = "self-loop on 's3000' in layer 'L0'"
        with pytest.raises(InputError, match=f"^{want}$"):
            mm.read_network(path)
        with pytest.raises(InputError, match=f"^{want}$"):
            mm.build_network(layers=["L0", "L1"], edges=edges)


class TestSelfLoopRefusedWhereRead:
    """``build_network`` and ``read_network`` refuse a self-loop where they
    read its record, so the assembler never meets one."""

    TEXTS = {
        "none": "%order L M\nL a b\nL b c\nM a c\n%presence M d\n",
        "first-of-two": "L a b\nM c c\nL d d\nM a b\n",
        "renumbered": "%order M L\nL a b\nL b b\n%presence M a\n%presence L e\n",
    }
    REFUSALS = {"none": None, "first-of-two": "self-loop on 'c' in layer 'M'",
                "renumbered": "self-loop on 'b' in layer 'L'"}

    @pytest.fixture
    def loop_free_assembler(self, monkeypatch):
        assemble = mlgraph._assemble

        def checked(entity_index, layer_ids, presence, edges, ordering):
            it = iter(edges)
            loops = [(li, u) for li, u, v in zip(it, it, it) if u == v]
            assert loops == [], "a self-loop reached the assembler"
            return assemble(entity_index, layer_ids, presence, edges, ordering)

        monkeypatch.setattr(mlgraph, "_assemble", checked)

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_builders_keep_their_refusals(self, tmp_path, loop_free_assembler, name):
        text = self.TEXTS[name]
        path = tmp_path / "net.mlg"
        path.write_text(text, encoding="utf-8")
        layers, edges, presence, _ = mm.parse_network_text(text)
        want = self.REFUSALS[name]
        # the parser keeps the self-loops it records
        assert any(u == v for _, u, v in edges) == (want is not None)
        for mode in ("auto", "none", "natural-pairwise"):
            got = _outcome(mm.read_network, path, mode)
            oracle = _outcome(literal_read_network, text, mode)
            if want is None:
                _assert_same_network(got, oracle)
            else:
                assert got == oracle == ("InputError", want)
        built = _outcome(mm.build_network, layers=layers, edges=edges, presence=presence)
        if want is None:
            assert built.num_edges() == 3
        else:
            assert built == ("InputError", want)

    def test_aggregation_builds_loop_free_layers(self, loop_free_assembler):
        spec = mm.PlantedSpec(entities=24, communities=2, layers=3, p_in=0.8, p_out=0.05,
                              presence=1.0, seed=4)
        net, planted = mm.planted_multilayer(spec)
        config = mm.DetectConfig(objective=mm.MultisliceObjective(gamma=1.0, omega=0.5))
        assert mm.nmi(mm.aggregate_majority(net, config).partition, planted) == 1.0


# a refusal that comes before a self-loop's, or after it, on one file
PRECEDENCE = {
    "later malformed line": ("L a a\nL b c\nL x\n", "line 3: expected 3 tokens"),
    "non-permutation order": ("%order L\nM a b\nL c c\n",
                              "layer ordering is not a permutation of the declared layers"),
    "entity only in the loop": ("L a b\nL c c\n", "self-loop on 'c' in layer 'L'"),
}


@pytest.mark.parametrize("name", sorted(PRECEDENCE))
def test_self_loop_precedence(tmp_path, name):
    text, want = PRECEDENCE[name]
    path = tmp_path / "net.mlg"
    path.write_text(text, encoding="utf-8")
    assert _outcome(mm.read_network, path) == ("InputError", want)
    assert _outcome(literal_read_network, text) == ("InputError", want)


def test_self_loop_beats_an_entity_present_in_no_layer():
    with pytest.raises(InputError, match="^self-loop on 'c' in layer 'L'$"):
        mm.build_network(entities=["ghost"], layers=["L"],
                         edges=[("L", "a", "b"), ("L", "c", "c")])


def test_bad_byte_after_a_self_loop_comes_first(tmp_path):
    path = tmp_path / "net.mlg"
    path.write_bytes(b"L a a\nL b c\xff\n")
    with pytest.raises(InputError) as info:
        mm.read_network(path)
    assert str(info.value) == f"{path}: not UTF-8 text (byte 11)"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_adjacency_is_ascending_tuples(tmp_path_factory, seed):
    """Built or read from edge lists with duplicates, reversed duplicates and
    isolated ``%presence`` records, every node's neighbours are a strictly
    ascending tuple, the nodes ascend, and read by id they are the oracle's
    neighbour sets."""
    rng = random.Random(seed)
    layers = [f"L{i}" for i in range(rng.randint(1, 3))]
    entities = [f"e{i}" for i in range(rng.randint(2, 25))]
    edges = []
    for _ in range(rng.randint(0, 60)):
        layer = rng.choice(layers)
        u, v = rng.sample(entities, 2)
        edges += [(layer, u, v)] * rng.choice((1, 1, 2))
        if rng.random() < 0.3:
            edges.append((layer, v, u))
    rng.shuffle(edges)
    presence = [(rng.choice(layers), f"lone{i}") for i in range(rng.randint(0, 4))]
    presence += [(rng.choice(layers), rng.choice(entities)) for _ in range(rng.randint(0, 4))]
    text = "%order " + " ".join(layers) + "\n"
    text += "".join(f"%presence {l} {e}\n" for l, e in presence)
    text += "".join(f"{l} {u} {v}\n" for l, u, v in edges)
    path = tmp_path_factory.mktemp("net") / "net.mlg"
    path.write_text(text, encoding="utf-8")
    fields = literal_build_network(layers=layers, edges=edges, presence=presence)
    ids = fields["entity_ids"]
    for net in (mm.build_network(layers=layers, edges=edges, presence=presence),
                mm.read_network(path, ordering_mode="none")):
        assert net.entity_ids == ids
        for li, layer in enumerate(layers):
            adj = net.adj_idx(li)
            assert list(adj) == sorted(adj)
            for nb in adj.values():
                assert type(nb) is tuple and nb
                assert all(a < b for a, b in zip(nb, nb[1:]))
            want = {ids[u]: frozenset(ids[v] for v in nb) for u, nb in fields["adj"][li].items()}
            for ei in fields["presence"][li]:
                want.setdefault(ids[ei], frozenset())
            assert adjacency_by_id(net, layer) == want


def test_counting_callers_never_derive_edges(monkeypatch):
    """Scores, both gain engines and detection count edges from the stored
    per-layer counts; none of them builds the sorted edge tuples."""
    net, _ = mm.planted_multilayer(mm.PlantedSpec(entities=40, communities=3, layers=3,
                                                  p_in=0.4, p_out=0.05, seed=5))
    single, planted = mm.planted_multilayer(mm.PlantedSpec(entities=40, communities=3,
                                                           layers=1, p_in=0.4, p_out=0.05,
                                                           seed=5))

    def refuse(self, li):
        raise AssertionError("edges_idx called")

    monkeypatch.setattr(mm.MultilayerNetwork, "edges_idx", refuse)
    cs = mm.CommunityStructure.from_entity_partition(
        net, {e: i % 3 for i, e in enumerate(net.entity_ids)})
    coupling = mm.CouplingPolicy("asym-inner", time_aware=True)
    mm.multilayer_modularity(net, cs, mm.ResolutionPolicy.redundancy(), coupling)
    mm.multislice_modularity(net, cs, 1.0, 0.5)
    for objective in (mm.MultilayerObjective(resolution=mm.ResolutionPolicy.redundancy(),
                                             coupling=coupling),
                      mm.MultisliceObjective(gamma=1.0, omega=0.5)):
        objective.gain_engine(net)
        mm.generalized_louvain(net, mm.DetectConfig(objective=objective, seed=1))
    assert net.edge_coverage() > 0
    mm.newman_modularity(single, mm.CommunityStructure.from_entity_partition(single, planted))

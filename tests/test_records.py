"""Records: the package's immutable value types are named tuples that keep
the defaults, checks, equality, hashing and repr text they had as frozen
dataclasses, and whose ``_replace`` checks a field as the constructor does."""

from __future__ import annotations

import inspect
import re
from decimal import Decimal
from fractions import Fraction

import pytest

import multimod as mm
from multimod.errors import InputError, PolicyError

# a field the record does not have: the constructor and _replace refuse it
UNKNOWN = ({"extra": 1}, (TypeError, ValueError), "'extra'")

# name -> (required fields, every other field's default, a refused value as
# (fields, exception, message), two instances with their repr text)
RECORDS = {
    "LayerOrdering": (
        {}, {"sequence": None, "scheme": None, "time_aware": False},
        ({"time_aware": True}, InputError,
         "unordered layers admit no pairing scheme or time-awareness"),
        [(lambda: mm.LayerOrdering(),
          "LayerOrdering(sequence=None, scheme=None, time_aware=False)"),
         (lambda: mm.LayerOrdering.natural(("a", "b"), mm.PairingScheme.PAIRWISE, True),
          "LayerOrdering(sequence=('a', 'b'), scheme=<PairingScheme.PAIRWISE: 'pairwise'>, "
          "time_aware=True)")]),
    "LayerStats": (
        {"degree_mean": 1.0, "degree_std": 0.5, "avg_path_length": 2.0,
         "clustering_coefficient": 0.25}, {}, UNKNOWN,
        [(lambda: mm.LayerStats(1.0, 0.5, 2.0, 0.25),
          "LayerStats(degree_mean=1.0, degree_std=0.5, avg_path_length=2.0, "
          "clustering_coefficient=0.25)"),
         (lambda: mm.LayerStats(0.0, 0.0, 0.0, 0.0),
          "LayerStats(degree_mean=0.0, degree_std=0.0, avg_path_length=0.0, "
          "clustering_coefficient=0.0)")]),
    "ResolutionPolicy": (
        {"kind": "constant"}, {"gamma": 1.0},
        ({"gamma": -1.0}, PolicyError, "constant resolution requires a finite gamma >= 0"),
        [(lambda: mm.ResolutionPolicy.constant(0.5),
          "ResolutionPolicy(kind='constant', gamma=0.5)"),
         (lambda: mm.ResolutionPolicy.redundancy(),
          "ResolutionPolicy(kind='redundancy', gamma=1.0)")]),
    "CouplingPolicy": (
        {"kind": "none"}, {"time_aware": False},
        ({"time_aware": True}, PolicyError, "time-aware coupling requires an asymmetric policy"),
        [(lambda: mm.CouplingPolicy.none(), "CouplingPolicy(kind='none', time_aware=False)"),
         (lambda: mm.CouplingPolicy.asym_outer(True),
          "CouplingPolicy(kind='asym-outer', time_aware=True)")]),
    "ScoreTerm": (
        {"community": 0, "layer": "L1", "intra": 2.0, "null_model": 0.5, "coupling": 0.0}, {},
        UNKNOWN,
        [(lambda: mm.ScoreTerm(0, "L1", 2.0, 0.5, 0.0),
          "ScoreTerm(community=0, layer='L1', intra=2.0, null_model=0.5, coupling=0.0)"),
         (lambda: mm.ScoreTerm(3, 7, 1.5, 0.25, -0.125),
          "ScoreTerm(community=3, layer=7, intra=1.5, null_model=0.25, coupling=-0.125)")]),
    "ScoreReport": (
        {"total": 0.5, "normalization": 10}, {"terms": (), "policy": {}}, UNKNOWN,
        [(lambda: mm.ScoreReport(0.5, 10),
          "ScoreReport(total=0.5, normalization=10, terms=(), policy={})"),
         (lambda: mm.ScoreReport(0.25, 4, (mm.ScoreTerm(1, "x", 1.0, 0.5, 0.0),),
                                 {"objective": "multilayer"}),
          "ScoreReport(total=0.25, normalization=4, terms=(ScoreTerm(community=1, layer='x', "
          "intra=1.0, null_model=0.5, coupling=0.0),), policy={'objective': 'multilayer'})")]),
    "MultisliceObjective": (
        {}, {"gamma": 1.0, "omega": 0.0},
        ({"omega": -1.0}, PolicyError, "omega must be a finite number >= 0"),
        [(lambda: mm.MultisliceObjective(), "MultisliceObjective(gamma=1.0, omega=0.0)"),
         (lambda: mm.MultisliceObjective(gamma=(1.0, 0.5), omega=0.25),
          "MultisliceObjective(gamma=(1.0, 0.5), omega=0.25)")]),
    "MultilayerObjective": (
        {}, {"resolution": mm.ResolutionPolicy.constant(1.0),
             "coupling": mm.CouplingPolicy.none()},
        UNKNOWN,
        [(lambda: mm.MultilayerObjective(),
          "MultilayerObjective(resolution=ResolutionPolicy(kind='constant', gamma=1.0), "
          "coupling=CouplingPolicy(kind='none', time_aware=False))"),
         (lambda: mm.MultilayerObjective(mm.ResolutionPolicy.redundancy(),
                                         mm.CouplingPolicy.asym_inner(True)),
          "MultilayerObjective(resolution=ResolutionPolicy(kind='redundancy', gamma=1.0), "
          "coupling=CouplingPolicy(kind='asym-inner', time_aware=True))")]),
    "DetectConfig": (
        {}, {"objective": mm.MultilayerObjective(), "seed": 0, "max_passes": 50,
             "min_gain": 1e-9},
        ({"objective": None}, PolicyError, "unknown objective None"),
        [(lambda: mm.DetectConfig(),
          "DetectConfig(objective=MultilayerObjective(resolution=ResolutionPolicy("
          "kind='constant', gamma=1.0), coupling=CouplingPolicy(kind='none', "
          "time_aware=False)), seed=0, max_passes=50, min_gain=1e-09)"),
         (lambda: mm.DetectConfig(mm.MultisliceObjective(omega=1.0), seed=3, max_passes=5,
                                  min_gain=1e-06),
          "DetectConfig(objective=MultisliceObjective(gamma=1.0, omega=1.0), seed=3, "
          "max_passes=5, min_gain=1e-06)")]),
    "DetectResult": (
        {"structure": None, "objective": 0.5, "passes": 1, "moves": 2}, {}, UNKNOWN,
        [(lambda: mm.DetectResult(None, 0.5, 1, 2),
          "DetectResult(structure=None, objective=0.5, passes=1, moves=2)"),
         (lambda: mm.DetectResult("s", -0.25, 3, 0),
          "DetectResult(structure='s', objective=-0.25, passes=3, moves=0)")]),
    "PlantedSpec": (
        {"entities": 10, "communities": 2, "layers": 3, "p_in": 0.5, "p_out": 0.1},
        {"presence": 1.0, "seed": 0},
        ({"p_out": 0.9}, InputError, "need 0 <= p_out <= p_in <= 1"),
        [(lambda: mm.PlantedSpec(10, 2, 3, 0.5, 0.1),
          "PlantedSpec(entities=10, communities=2, layers=3, p_in=0.5, p_out=0.1, "
          "presence=1.0, seed=0)"),
         (lambda: mm.PlantedSpec(100, 3, 2, 0.3, 0.02, presence=0.8, seed=7),
          "PlantedSpec(entities=100, communities=3, layers=2, p_in=0.3, p_out=0.02, "
          "presence=0.8, seed=7)")]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaviour(name):
    cls = getattr(mm, name)
    required, defaults, (refused, error, message), pinned = RECORDS[name]
    record = cls(**required)
    assert isinstance(record, tuple)
    assert record._asdict() == {**required, **defaults}
    assert record == tuple({**required, **defaults}.values())

    # a refused value, by the constructor and by _replace alike
    with pytest.raises(error, match=re.escape(message)):
        cls(**{**required, **refused})
    with pytest.raises(error, match=re.escape(message)):
        record._replace(**refused)

    for field in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == cls(**required)

    # equal instances compare and hash equal; a record holding a dict hashes
    # as a tuple holding it does, by refusing
    again = cls(**required)
    assert record == again and not record != again
    if any(isinstance(value, dict) for value in record):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(again) == hash(tuple(record))

    for make, text in pinned:
        assert repr(make()) == text
        assert make() == make()


def test_records_are_all_listed():
    records = {name for name in mm.__all__
               if isinstance(getattr(mm, name), type) and issubclass(getattr(mm, name), tuple)}
    assert records == set(RECORDS)


def test_defaults_are_built_per_call():
    assert mm.ScoreReport(0.0, 1).policy is not mm.ScoreReport(0.0, 1).policy
    assert mm.DetectConfig().objective == mm.MultilayerObjective()


def test_resolution_policy_refuses_a_gamma_that_is_no_real_number():
    # a bool is an int, but no resolution; an int too large for a float is not
    # finite. constant() once made 1.0 of True and 2.0 of "2"
    for gamma in ("1", "2", True, None, 1j, 10 ** 400, Decimal("sNaN")):
        for make in (lambda: mm.ResolutionPolicy("constant", gamma),
                     lambda: mm.ResolutionPolicy.constant(gamma)):
            with pytest.raises(PolicyError, match="constant resolution requires a finite gamma"):
                make()
        # the redundancy kind reads no gamma, but its field holds a number too
        with pytest.raises(PolicyError, match="redundancy resolution requires a finite gamma"):
            mm.ResolutionPolicy("redundancy", gamma)
    with pytest.raises(PolicyError, match="constant resolution requires a finite gamma"):
        mm.ResolutionPolicy.constant(0.5)._replace(gamma="1")


def test_coupling_policy_refuses_a_time_aware_value_that_is_no_bool():
    for value in ("yes", None, 1, 0.0):
        with pytest.raises(PolicyError, match="time_aware must be a bool"):
            mm.CouplingPolicy("asym-inner", value)
    with pytest.raises(PolicyError, match="time_aware must be a bool"):
        mm.CouplingPolicy.asym_outer()._replace(time_aware="yes")


@pytest.mark.parametrize("fields, message", [
    ({"omega": "1"}, "omega"), ({"omega": True}, "omega"), ({"omega": None}, "omega"),
    ({"gamma": {"A": 1}}, "gamma"), ({"gamma": True}, "gamma"), ({"gamma": "1"}, "gamma"),
    ({"gamma": [1.0, True]}, "gamma"), ({"gamma": (1.0, "1")}, "gamma"),
    ({"omega": Decimal("sNaN")}, "omega")])
def test_multislice_values_refuse_what_is_no_real_number(fields, message, twin_triangle_layers):
    # a bool is an int, but no parameter; the objective and the score refuse alike
    match = f"^{message} must be a finite number >= 0$"
    with pytest.raises(PolicyError, match=match):
        mm.MultisliceObjective(**fields)
    with pytest.raises(PolicyError, match=match):
        mm.MultisliceObjective()._replace(**fields)
    cs = mm.CommunityStructure.from_entity_partition(
        twin_triangle_layers, dict.fromkeys(twin_triangle_layers.entity_ids, 0))
    with pytest.raises(PolicyError, match=match):
        mm.multislice_modularity(twin_triangle_layers, cs, **fields)


def test_replace_keeps_the_class_and_checks():
    config = mm.DetectConfig(seed=3)
    moved = config._replace(max_passes=2)
    assert type(moved) is mm.DetectConfig
    assert moved == mm.DetectConfig(seed=3, max_passes=2)
    with pytest.raises(PolicyError, match="max_passes must be >= 1"):
        config._replace(max_passes=0)
    with pytest.raises(PolicyError, match="seed must be an int"):
        mm.DetectConfig._make((mm.MultilayerObjective(), None, 50, 1e-9))


def test_detect_result_caches_partition_and_refuses_assignment(twin_triangle_layers):
    result = mm.generalized_louvain(twin_triangle_layers, mm.DetectConfig())
    first = result.partition
    assert result.partition is first is result.structure.flatten_majority()
    with pytest.raises(TypeError):  # read-only: no caller edits the structure's vote
        first[next(iter(first))] = 9
    # the named tuple's own refusals; before Python 3.11 a property says "can't set"
    with pytest.raises(AttributeError, match="'partition' of 'DetectResult' object has no "
                                             "setter|can't set attribute 'partition'"):
        result.partition = {}
    with pytest.raises(AttributeError, match="can't delete attribute"):
        del result.moves
    assert result.partition is first


def test_no_record_has_an_instance_dict_or_its_own_assignment():
    for name, (required, *_) in RECORDS.items():
        cls = getattr(mm, name)
        assert not hasattr(cls(**required), "__dict__"), name
        for klass in cls.__mro__[:-2]:  # all but tuple and object
            assert "__setattr__" not in vars(klass) and "__delattr__" not in vars(klass), name
    # each record states its defaults in its own __new__
    assert list(inspect.signature(mm.mlgraph._record).parameters) == ["typename", "field_names"]


# record -> (required fields, its error class, each field that holds a
# number, a flag, a pairing scheme, a policy or a policy kind)
TYPED_FIELDS = {
    "LayerOrdering": ({"sequence": ("a", "b"), "scheme": mm.PairingScheme.ADJACENT},
                      InputError, ("sequence", "scheme", "time_aware")),
    "ResolutionPolicy": ({"kind": "constant"}, PolicyError, ("kind", "gamma")),
    "CouplingPolicy": ({"kind": "asym-inner"}, PolicyError, ("kind", "time_aware")),
    "MultisliceObjective": ({}, PolicyError, ("gamma", "omega")),
    "MultilayerObjective": ({}, PolicyError, ("resolution", "coupling")),
    "DetectConfig": ({}, PolicyError, ("objective", "seed", "max_passes", "min_gain")),
    "PlantedSpec": (RECORDS["PlantedSpec"][0], InputError,
                    ("entities", "communities", "layers", "p_in", "p_out", "presence", "seed")),
}


@pytest.mark.parametrize("name, field", [(name, field) for name, (_, _, fields)
                                         in TYPED_FIELDS.items() for field in fields])
def test_typed_fields_refuse_a_value_of_no_such_type(name, field):
    cls = getattr(mm, name)
    required, error, _ = TYPED_FIELDS[name]
    record = cls(**required)
    for make in (lambda: cls(**{**required, field: object()}),
                 lambda: record._replace(**{field: object()})):
        with pytest.raises(ValueError) as refused:
            make()
        assert refused.type is error


def test_resolution_gamma_is_held_as_the_float_it_checked():
    for gamma in (Decimal("0.75"), Fraction(3, 4), 0.75):
        policy = mm.ResolutionPolicy("constant", gamma)
        assert type(policy.gamma) is float and policy == mm.ResolutionPolicy.constant(0.75)
    assert repr(mm.ResolutionPolicy.constant(2)) == "ResolutionPolicy(kind='constant', gamma=2.0)"


@pytest.mark.parametrize("gamma", [Decimal("0.75"), Fraction(3, 4)])
def test_an_exact_gamma_scores_and_detects_as_its_float(gamma, twin_triangle_layers):
    net = twin_triangle_layers
    cs = mm.CommunityStructure.from_entity_partition(net, {e: e // 2 for e in net.entity_ids})
    for coupling in (mm.CouplingPolicy.none(), mm.CouplingPolicy.symmetric()):
        exact = mm.MultilayerObjective(mm.ResolutionPolicy("constant", gamma), coupling)
        rounded = mm.MultilayerObjective(mm.ResolutionPolicy.constant(0.75), coupling)
        assert mm.multilayer_modularity(net, cs, *exact) == mm.multilayer_modularity(
            net, cs, *rounded)
        found, expected = (mm.generalized_louvain(net, mm.DetectConfig(objective, seed=1))
                           for objective in (exact, rounded))
        assert (found.structure.as_assignment(), found.objective, found.passes, found.moves) \
            == (expected.structure.as_assignment(), expected.objective, expected.passes,
                expected.moves)
    # the multislice score and objective hold the floats of exact values too
    assert mm.multislice_modularity(net, cs, gamma, Decimal("0.5")) == \
        mm.multislice_modularity(net, cs, 0.75, 0.5)
    assert mm.MultisliceObjective([gamma, 1], Fraction(1, 2)) == mm.MultisliceObjective(
        (0.75, 1.0), 0.5)


def test_multislice_gamma_list_is_held_as_a_tuple_of_floats():
    given = [1.0, 0.5]
    objective = mm.MultisliceObjective(gamma=given, omega=1)
    given[0] = -1.0  # a later edit of the caller's list changes nothing checked
    assert objective == mm.MultisliceObjective(gamma=(1.0, 0.5), omega=1.0)
    assert repr(objective) == "MultisliceObjective(gamma=(1.0, 0.5), omega=1.0)"
    assert hash(objective) == hash(((1.0, 0.5), 1.0))


def test_multilayer_objective_refuses_what_is_no_policy():
    with pytest.raises(PolicyError, match="^expected a ResolutionPolicy, not None$"):
        mm.MultilayerObjective(resolution=None)
    with pytest.raises(PolicyError, match="^expected a CouplingPolicy, not 'none'$"):
        mm.MultilayerObjective()._replace(coupling="none")

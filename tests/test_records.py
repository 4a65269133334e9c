"""The package's nine value classes behave as they did when they were dataclasses.

Each class is pinned on its constructor (field order, defaults, validation),
value equality, hashing, assignment, repr text and pickling.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

from rabinindex.arena import Arena, ParityGame, Solution
from rabinindex.cycles import DEFAULT_BUDGET, SearchBudget
from rabinindex.generators import RandomConfig
from rabinindex.reduction import IterationTrace, OracleMode, OracleStats, ReductionReport
from rabinindex.solver import VerificationResult

_ARENA = Arena(((1,), (0, 1)), (0, 3))
_OTHER = Arena(((1,), (0, 1)), (0, 2))

# Per class: its fields in constructor order, the values of one instance,
# and the values of another that differs from it in its last field.
CASES = {
    Arena: (("successors", "colors"), (((1,), (0, 1)), (0, 3)), (((1,), (0, 1)), (0, 2))),
    ParityGame: (
        ("arena", "owners", "names"), (_ARENA, (0, 1), ("a", None)), (_ARENA, (0, 1), None)
    ),
    Solution: (
        ("winner", "strategy0", "strategy1"), ((0, 1), {0: 1}, {1: 1}), ((0, 1), {0: 1}, {})
    ),
    SearchBudget: (("limit", "spent"), (10, 3), (10, 4)),
    RandomConfig: (
        ("nodes", "min_out", "max_out", "max_color", "seed"),
        (5, 1, 2, 3, 7),
        (5, 1, 2, 3, 8),
    ),
    OracleStats: (("exact_queries", "nodes_expanded"), (1, 3), (1, 4)),
    IterationTrace: (
        ("cycle_changes", "form_changes"), (((0, 3, 1),), ()), (((0, 3, 1),), ((1, 2, 0),))
    ),
    ReductionReport: (
        ("mode", "initial_index", "final_index", "rank_trace", "iterations", "stats"),
        (OracleMode.EXACT, 3, 2, [5, 4, 4], [IterationTrace((), ())], OracleStats(1)),
        (OracleMode.EXACT, 3, 2, [5, 4, 4], [IterationTrace((), ())], OracleStats(2)),
    ),
    VerificationResult: (("ok", "reason", "witness"), (False, "bad", (1,)), (False, "bad", (2,))),
}
FROZEN = {Arena, ParityGame, RandomConfig, VerificationResult}
CLASSES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@CLASSES
def test_constructor_takes_fields_by_position_and_by_keyword(cls):
    names, values, _ = CASES[cls]
    assert tuple(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == names
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        assert tuple(getattr(record, name) for name in names) == values


@CLASSES
def test_equality_is_by_value(cls):
    names, values, other = CASES[cls]
    assert cls(*values) == cls(*values)
    assert cls(*values) != cls(*other)
    assert cls(*values) != values  # another class never compares equal
    assert type("Sub", (cls,), {})(*values) != cls(*values)
    assert cls(*values).__eq__(values) is NotImplemented


@CLASSES
def test_frozen_classes_hash_by_value_and_refuse_assignment(cls):
    names, values, _ = CASES[cls]
    record = cls(*values)
    if cls in FROZEN:
        assert hash(record) == hash(cls(*values)) == hash(values)
        for name in (names[0], "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        assert tuple(getattr(record, name) for name in names) == values
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, names[-1], values[-1])


@CLASSES
def test_records_survive_pickling(cls):
    _, values, _ = CASES[cls]
    record = cls(*values)
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults():
    assert ParityGame(_ARENA, (0, 1)).names is None
    assert SearchBudget() == SearchBudget(DEFAULT_BUDGET, 0)
    assert RandomConfig(5, 1, 2, 3).seed == 0
    assert OracleStats() == OracleStats(0, 0)
    # Constants the benchmark reads.
    assert OracleStats().abstract_queries == OracleStats().max_color_checks == 0
    assert VerificationResult(True) == VerificationResult(True, "", ())
    report = ReductionReport(OracleMode.ABSTRACT, 3, 2)
    assert report == ReductionReport(OracleMode.ABSTRACT, 3, 2, [], [], OracleStats())
    assert Solution((0, 1)) == Solution((0, 1), {}, {})


def test_default_containers_are_fresh_per_instance():
    first, second = Solution((0,)), Solution((0,))
    first.strategy0[0] = 0
    first.strategy1[0] = 0
    assert second.strategy0 == second.strategy1 == {}
    first, second = ReductionReport(OracleMode.EXACT, 1, 1), ReductionReport(OracleMode.EXACT, 1, 1)
    first.rank_trace.append(1)
    first.iterations.append(IterationTrace((), ()))
    first.stats.exact_queries += 1
    assert second.rank_trace == second.iterations == []
    assert second.stats == OracleStats()


def test_repr_text_is_unchanged():
    assert repr(_ARENA) == "Arena(successors=((1,), (0, 1)), colors=(0, 3))"
    assert repr(ParityGame(_ARENA, (0, 1), ("a", None))) == (
        "ParityGame(arena=Arena(successors=((1,), (0, 1)), colors=(0, 3)), "
        "owners=(0, 1), names=('a', None))"
    )
    assert repr(Solution((0, 1), {0: 1})) == (
        "Solution(winner=(0, 1), strategy0={0: 1}, strategy1={})"
    )
    assert repr(SearchBudget(10)) == "SearchBudget(limit=10, spent=0)"
    assert repr(RandomConfig(5, 1, 2, 3)) == (
        "RandomConfig(nodes=5, min_out=1, max_out=2, max_color=3, seed=0)"
    )
    assert repr(OracleStats(1)) == "OracleStats(exact_queries=1, nodes_expanded=0)"
    assert repr(IterationTrace(((0, 3, 1),), ())) == (
        "IterationTrace(cycle_changes=((0, 3, 1),), form_changes=())"
    )
    assert repr(ReductionReport(OracleMode.ABSTRACT, 3, 2, [5, 4])) == (
        "ReductionReport(mode=<OracleMode.ABSTRACT: 'alpha'>, initial_index=3, final_index=2, "
        "rank_trace=[5, 4], iterations=[], stats=OracleStats(exact_queries=0, "
        "nodes_expanded=0))"
    )
    assert repr(VerificationResult(False, "bad", (1,))) == (
        "VerificationResult(ok=False, reason='bad', witness=(1,))"
    )


def test_validation_messages_are_unchanged():
    with pytest.raises(ValueError, match="owner of node 1 must be 0 or 1, got 2"):
        ParityGame(_ARENA, (0, 2))
    with pytest.raises(ValueError, match="owner vector has 1 entries for 2 nodes"):
        ParityGame(_ARENA, (0,))
    for args, message in [
        ((1, 1, 1, 1), "need at least 2 nodes, got 1"),
        ((3, 0, 1, 1), "minimal out-degree must be >= 1, got 0"),
        ((3, 2, 1, 1), "out-degree bounds out of order: 2 > 1"),
        ((3, 1, 3, 1), "max out-degree 3 impossible with 3 nodes"),
        ((3, 1, 2, -1), "max color must be >= 0, got -1"),
    ]:
        with pytest.raises(ValueError, match=message):
            RandomConfig(*args)


def test_verification_result_is_truthy_iff_ok():
    assert VerificationResult(True)
    assert not VerificationResult(False, "bad")


def test_with_colors_hands_on_the_predecessors():
    preds = _ARENA.predecessors
    recolored = _ARENA.with_colors([1, 1])
    assert recolored == Arena(_ARENA.successors, (1, 1))
    assert recolored.__dict__["predecessors"] is preds
    assert recolored.successors is _ARENA.successors
    game = ParityGame(_ARENA, (0, 1), ("a", None)).with_colors((2, 2))
    assert game == ParityGame(Arena(_ARENA.successors, (2, 2)), (0, 1), ("a", None))
    assert game.arena.__dict__["predecessors"] is preds
    assert hash(game) == hash(ParityGame(Arena(_ARENA.successors, (2, 2)), (0, 1), ("a", None)))
    with pytest.raises(ValueError, match="negative color"):
        _ARENA.with_colors([0, -1])
    assert _OTHER.with_colors(_ARENA.colors) == _ARENA

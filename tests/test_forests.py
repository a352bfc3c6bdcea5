"""Forest enumeration and decorations."""

import numpy as np
import pytest

from spatialcoal.forests import (
    Forest,
    TimeDecoration,
    enumerate_forests,
)
from spatialcoal.partitions import Partition


def kingman_absorbing(p):
    return len(p) == 1


def chain(*levels):
    return Forest(tuple(Partition(lvl) for lvl in levels))


def test_forest_validation():
    with pytest.raises(ValueError):
        chain([{1}, {2}], [{1}, {2}])


def test_enumeration_counts():
    two = Partition.singletons([1, 2])
    three = Partition.singletons([1, 2, 3])
    assert len(enumerate_forests(two, kingman_absorbing)) == 1
    # one triple merge plus three orders of binary mergers
    assert len(enumerate_forests(three, kingman_absorbing)) == 4
    # with no merging at all, the trivial forest is the only one
    assert len(enumerate_forests(two, lambda p: True)) == 1


def test_enumeration_bound():
    big = Partition.singletons(range(1, 9))
    with pytest.raises(ValueError):
        enumerate_forests(big, kingman_absorbing)


def test_tree_structure_queries():
    f = chain(
        [{1}, {2}, {3}],
        [{1, 2}, {3}],
        [{1, 2, 3}],
    )
    assert f.m == 2
    assert f.leaves == Partition.singletons([1, 2, 3]).blocks
    assert f.roots == (frozenset({1, 2, 3}),)
    assert f.parent(frozenset({1})) == frozenset({1, 2})
    assert f.parent(frozenset({3})) == frozenset({1, 2, 3})
    assert f.parent(frozenset({1, 2, 3})) is None
    assert set(f.children(frozenset({1, 2}))) == {frozenset({1}), frozenset({2})}
    assert f.children(frozenset({1})) == ()
    assert f.birth_level(frozenset({1, 2})) == 1
    assert set(f.internal_nodes) == {frozenset({1, 2}), frozenset({1, 2, 3})}


def test_restrict_collapses_repeated_levels():
    f = chain(
        [{1}, {2}, {3}],
        [{1, 2}, {3}],
        [{1, 2, 3}],
    )
    r = f.restrict([1, 3])
    assert r.levels == (
        Partition.singletons([1, 3]),
        Partition([{1, 3}]),
    )


def test_time_decoration_validation():
    TimeDecoration((0.5, 1.25))
    with pytest.raises(ValueError):
        TimeDecoration((1.0, 1.0))
    with pytest.raises(ValueError):
        TimeDecoration((-0.1,))
    tau = TimeDecoration((0.5, 1.25))
    f = chain([{1}, {2}, {3}], [{1, 2}, {3}], [{1, 2, 3}])
    assert tau.birth_time(f, frozenset({1})) == 0.0
    assert tau.birth_time(f, frozenset({1, 2})) == 0.5
    assert tau.birth_time(f, frozenset({1, 2, 3})) == 1.25

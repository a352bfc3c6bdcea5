"""Genealogical forests: strictly decreasing partition sequences with decorations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from .partitions import Partition, enumerate_coarsenings

Node = frozenset  # a node of a forest is a block appearing at some level

DEFAULT_ENUMERATION_BOUND = 6


@dataclass(frozen=True)
class Forest:
    """A strictly decreasing sequence of partitions pi_0 > pi_1 > ... > pi_m.

    Nodes are the blocks appearing at any level.  A block that appears at
    several consecutive levels is a single node.  Leaves are the blocks of
    pi_0, roots the blocks of pi_m.
    """

    levels: tuple[Partition, ...]

    def __post_init__(self):
        for a, b in zip(self.levels, self.levels[1:]):
            if not a < b:
                raise ValueError("levels must be strictly coarsening")

    @property
    def m(self) -> int:
        return len(self.levels) - 1

    @property
    def is_trivial(self) -> bool:
        return self.m == 0

    @property
    def leaves(self) -> tuple[Node, ...]:
        return self.levels[0].blocks

    @property
    def roots(self) -> tuple[Node, ...]:
        return self.levels[-1].blocks

    @property
    def nodes(self) -> tuple[Node, ...]:
        seen: dict[Node, None] = {}
        for lvl in self.levels:
            for b in lvl.blocks:
                seen.setdefault(b, None)
        return tuple(seen)

    @property
    def internal_nodes(self) -> tuple[Node, ...]:
        """Nodes born at a merge event (levels 1..m)."""
        leaves = set(self.leaves)
        return tuple(u for u in self.nodes if u not in leaves)

    def birth_level(self, u: Node) -> int:
        for i, lvl in enumerate(self.levels):
            if u in lvl.blocks:
                return i
        raise KeyError(u)

    def parent(self, u: Node) -> Node | None:
        last = max(i for i, lvl in enumerate(self.levels) if u in lvl.blocks)
        if last == self.m:
            return None
        return next(c for c in self.levels[last + 1].blocks if u <= c)

    def children(self, v: Node) -> tuple[Node, ...]:
        i = self.birth_level(v)
        if i == 0:
            return ()
        prev = self.levels[i - 1]
        ch = tuple(u for u in prev.blocks if u <= v)
        return ch if len(ch) >= 2 or ch != (v,) else ()

    def restrict(self, labels) -> "Forest":
        """Forest induced on a subset of the leaf labels."""
        keep = set(labels)
        lvls = [lvl.restrict(keep) for lvl in self.levels]
        out = [lvls[0]]
        for lvl in lvls[1:]:
            if lvl != out[-1]:
                out.append(lvl)
        return Forest(tuple(out))


@dataclass(frozen=True)
class TimeDecoration:
    """Strictly increasing merge times tau_1 < ... < tau_m (tau_0 = 0)."""

    times: tuple[float, ...]

    def __post_init__(self):
        ts = (0.0,) + self.times
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("merge times must be strictly increasing and positive")

    def level_time(self, i: int) -> float:
        return 0.0 if i == 0 else self.times[i - 1]

    def birth_time(self, f: Forest, u: Node) -> float:
        return self.level_time(f.birth_level(u))


@dataclass(frozen=True)
class SpaceDecoration:
    """Torus locations of the internal (merge) nodes."""

    locs: Mapping[Node, np.ndarray]

    def __getitem__(self, u: Node) -> np.ndarray:
        return self.locs[u]


@dataclass(frozen=True)
class DecoratedForest:
    forest: Forest
    tau: TimeDecoration
    xi: SpaceDecoration


def enumerate_forests(
    p: Partition,
    absorbing: Callable[[Partition], bool],
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> list[Forest]:
    """All forests with leaf partition ``p`` whose root partition is absorbing.

    Absorbing intermediate levels never occur: the coalescent stops there.
    The enumeration explodes combinatorially, hence the size bound.
    """
    if len(p) > bound:
        raise ValueError(f"partition has {len(p)} blocks, enumeration bound is {bound}")

    def rec(q: Partition) -> Iterator[tuple[Partition, ...]]:
        if absorbing(q):
            yield (q,)
            return
        for r in enumerate_coarsenings(q):
            for tail in rec(r):
                yield (q,) + tail

    return [Forest(seq) for seq in rec(p)]


def classify_extension(f: Forest, g: Forest, new_leaf: int):
    """Classify how ``g`` extends ``f`` by the single leaf ``new_leaf``.

    Returns ``(tag, u_plus)`` where tag is one of ``"multiple-merge"``
    (the new leaf joins an existing merge event), ``"binary-merge"`` (it
    merges with an existing node at a new, intermediate time), or
    ``"simultaneous-binary"`` (it merges pairwise with an existing node
    simultaneously with an existing event).  ``u_plus`` is the node of
    ``f`` that the new leaf attaches to.
    """
    leaf_labels = {x for b in f.leaves for x in b}
    if new_leaf in leaf_labels:
        raise ValueError("new leaf already present in f")
    if {x for b in g.leaves for x in b} != leaf_labels | {new_leaf}:
        raise ValueError("g's leaves do not extend f's by new_leaf")
    if g.restrict(leaf_labels) != f:
        raise ValueError("g does not extend f")

    # First level of g at which new_leaf is no longer a singleton.
    j = next(
        i
        for i, lvl in enumerate(g.levels)
        if frozenset({new_leaf}) not in lvl.blocks
    )
    w = next(b for b in g.levels[j].blocks if new_leaf in b)
    partner = frozenset(w - {new_leaf})

    if g.m == f.m + 1:
        return "binary-merge", partner
    if g.m != f.m:
        raise ValueError("g is not a one-leaf extension of f")
    # Same number of events: the new leaf rides an existing event at level j.
    prev = g.levels[j - 1].blocks
    n_children = sum(1 for b in prev if b <= w)
    # Children of w other than {new_leaf} form either an existing merge
    # (multiple-merge) or a single untouched node (simultaneous binary pair).
    if n_children - 1 >= 2:
        return "multiple-merge", partner
    return "simultaneous-binary", partner

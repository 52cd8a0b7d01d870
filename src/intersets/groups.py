"""Finite abelian groups as explicit operation tables.

Elements are indices 0..n-1; subsets are frozensets of indices.  Layered
subset families here are finite lists, so their h-fold intersections are
computed exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice

from .errors import ConstructionError, DomainError


@dataclass(frozen=True)
class FiniteGroupTable:
    table: tuple[tuple[int, ...], ...]
    identity: int

    @property
    def order(self) -> int:
        return len(self.table)

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]

    # a table is frozen tuples, so every caller may share one; the bound
    # caps what a run of large orders can hold
    @staticmethod
    @lru_cache(maxsize=16)
    def cyclic(n: int) -> "FiniteGroupTable":
        if n < 1:
            raise ConstructionError(f"order must be >= 1, got {n}")
        rows = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return FiniteGroupTable(rows, 0)


def group_hfold(g: FiniteGroupTable, subset, h: int) -> frozenset[int]:
    """All sums of h elements of the subset."""
    if h < 1:
        raise DomainError(f"h must be >= 1, got {h}")
    return next(islice(_hfold_ladder(g, subset), h - 1, None))


def group_hfolds(
    g: FiniteGroupTable, subset, h_max: int
) -> tuple[frozenset[int], ...]:
    """The h-fold sums of the subset for h = 1..h_max, in order."""
    return tuple(islice(_hfold_ladder(g, subset), max(h_max, 0)))


def _hfold_ladder(g: FiniteGroupTable, subset) -> Iterator[frozenset[int]]:
    """hB for h = 1, 2, ..., each built from the one before: the table is
    commutative, so (h+1)B is the union over b in B of row b read at the
    elements of hB.  The subset is checked when the first fold is drawn."""
    base = frozenset(subset)
    if any(not 0 <= a < g.order for a in base):
        raise DomainError("subset indices must lie inside the group")
    rows = [g.table[b].__getitem__ for b in base]
    fold = base
    while True:
        yield fold
        fold = frozenset().union(*[map(row, fold) for row in rows])


@dataclass(frozen=True)
class GroupHVerdict:
    h: int
    in_H: bool
    fold: frozenset[int]
    layer_fold: frozenset[int]


def group_H_explicit(
    g: FiniteGroupTable, layers, h_max: int
) -> tuple[GroupHVerdict, ...]:
    """H for a finite family of subsets, nested or not.

    Exact: the family has finitely many layers, so its core and every
    intersection of layer folds is a finite intersection.
    """
    ladders = {b: group_hfolds(g, b, h_max) for b in map(frozenset, layers)}
    return _group_verdicts(g, ladders, h_max)


def _group_verdicts(
    g: FiniteGroupTable, ladders: dict, h_max: int
) -> tuple[GroupHVerdict, ...]:
    """group_H_explicit's verdicts from each distinct layer's ladder."""
    if not ladders:
        raise ConstructionError("at least one layer is required")
    core = frozenset.intersection(*ladders)
    if not core:
        raise ConstructionError("the chain intersection must be nonempty")
    # the core is a layer when the chain nests
    core_folds = ladders[core] if core in ladders else group_hfolds(g, core, h_max)
    out = []
    for h in range(1, h_max + 1):
        fold = core_folds[h - 1]
        layer_fold = reduce(
            frozenset.__and__, (folds[h - 1] for folds in ladders.values())
        )
        out.append(GroupHVerdict(h, fold == layer_fold, fold, layer_fold))
    return tuple(out)

"""Finite group tables and exact subset-chain analysis."""

from itertools import combinations, permutations

import pytest

from intersets import (
    CapError,
    ConstructionError,
    DomainError,
    FiniteGroupTable,
    group_H_explicit,
    group_hfold,
    group_hfolds,
)


def _assert_group(g):
    """The table's group axioms, checked in full: rows that are
    permutations, associativity, and a row that is the identity
    permutation."""
    elems = range(g.order)
    assert all(len(row) == g.order for row in g.table)
    assert all(sorted(g.table[i]) == list(elems) for i in elems)
    assert all(
        g.add(g.add(i, j), k) == g.add(i, g.add(j, k))
        for i in elems
        for j in elems
        for k in elems
    )
    assert tuple(elems) in g.table


def _assert_abelian_group(g):
    """The group axioms and commutativity."""
    _assert_group(g)
    elems = range(g.order)
    assert all(g.add(i, j) == g.add(j, i) for i in elems for j in elems)


def _product_table(n1: int, n2: int) -> FiniteGroupTable:
    """Z/n1 x Z/n2, the pair (a, b) at index a * n2 + b."""
    rows = tuple(
        tuple((a + c) % n1 * n2 + (b + d) % n2 for c in range(n1) for d in range(n2))
        for a in range(n1)
        for b in range(n2)
    )
    return FiniteGroupTable(rows)


def _s3_table() -> FiniteGroupTable:
    """The symmetric group S3: the permutations of (0, 1, 2) in
    lexicographic order, multiplied by composition, (p * q)(i) = p(q(i))."""
    perms = list(permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    rows = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
        for p in perms
    )
    return FiniteGroupTable(rows)


def test_cyclic_table():
    g = FiniteGroupTable.cyclic(5)
    assert g.order == 5
    assert g.add(3, 4) == 2
    assert g.table[0] == tuple(range(5))
    _assert_abelian_group(g)
    with pytest.raises(ConstructionError):
        FiniteGroupTable.cyclic(0)
    with pytest.raises(ConstructionError):
        FiniteGroupTable.cyclic(-3)
    # tables are memoised: a repeat call shares the frozen table
    assert FiniteGroupTable.cyclic(5) is g


def test_cyclic_table_cap_is_checked_before_any_row():
    # 1415**2 entries pass MATERIALIZE_CAP; 10**5 would be 10**10 entries
    for n in (1415, 10**5):
        with pytest.raises(CapError, match=f"order {n} needs {n * n} table entries"):
            FiniteGroupTable.cyclic(n)


def test_group_hfold():
    g6 = FiniteGroupTable.cyclic(6)
    assert group_hfold(g6, {1, 3}, 2) == frozenset({0, 2, 4})
    g5 = FiniteGroupTable.cyclic(5)
    assert group_hfold(g5, {1}, 5) == frozenset({0})
    with pytest.raises(DomainError):
        group_hfold(g5, {1}, 0)
    with pytest.raises(DomainError):
        group_hfold(g5, {7}, 2)


def test_group_H_explicit():
    g = FiniteGroupTable.cyclic(6)
    layers = [{0, 1, 3}, {0, 3}, {0, 3}]
    verdicts = group_H_explicit(g, layers, 3)
    assert [v.h for v in verdicts] == [1, 2, 3]
    assert verdicts[0].in_H
    assert verdicts[0].fold == frozenset({0, 3})
    # every deeper fold of the constant tail {0,3} equals the core's fold
    assert all(v.in_H for v in verdicts)


def test_group_H_explicit_finite_chains_always_agree():
    # a finite decreasing chain bottoms out at its last layer, so the two
    # folds coincide for every h; the function must report that exactly
    g = FiniteGroupTable.cyclic(8)
    verdicts = group_H_explicit(g, [{0, 2, 6}, {0, 2}, {0}], 4)
    assert all(v.in_H for v in verdicts)
    assert all(v.fold == v.layer_fold for v in verdicts)
    assert verdicts[1].fold == frozenset({0})
    # and the layer folds really are intersections, not just the last fold
    assert group_hfold(g, {0, 2, 6}, 2) == frozenset({0, 2, 4, 6})


def test_group_H_explicit_reads_a_family_that_does_not_nest():
    # the core {0} is no layer: its folds stay {0}, while the layer folds
    # meet in {0, 2} from h = 2 on
    g = FiniteGroupTable.cyclic(4)
    verdicts = group_H_explicit(g, [{0, 1}, {0, 2}], 4)
    assert [v.in_H for v in verdicts] == [True, False, False, False]
    assert all(v.fold == frozenset({0}) for v in verdicts)
    assert [v.layer_fold for v in verdicts[1:]] == [frozenset({0, 2})] * 3


def test_group_H_explicit_gates():
    g = FiniteGroupTable.cyclic(4)
    with pytest.raises(ConstructionError):
        group_H_explicit(g, [], 2)
    with pytest.raises(ConstructionError):
        group_H_explicit(g, [{1}, set()], 2)  # empty intersection
    with pytest.raises(ConstructionError):
        group_H_explicit(g, [{0, 1}, {2, 3}], 2)  # layers that do not meet


@pytest.mark.parametrize(
    "g",
    [
        FiniteGroupTable.cyclic(1),
        FiniteGroupTable.cyclic(7),
        FiniteGroupTable.cyclic(12),
        _product_table(2, 4),
        _product_table(3, 3),
    ],
    ids=["Z1", "Z7", "Z12", "Z2xZ4", "Z3xZ3"],
)
def test_group_hfolds_ladder_matches_each_hfold(g):
    _assert_abelian_group(g)
    n = g.order
    subsets = [set(), {0}, {n - 1}, {0, n // 2}, {1 % n, 2 % n, (n - 1) % n}]
    for subset in subsets:
        ladder = group_hfolds(g, subset, 6)
        assert len(ladder) == 6
        for h, fold in enumerate(ladder, 1):
            assert fold == group_hfold(g, subset, h)
            # brute force: every h-tuple of the subset, summed in the table
            sums = set(subset)
            for _ in range(h - 1):
                sums = {g.add(a, b) for a in sums for b in subset}
            assert fold == frozenset(sums)
    assert group_hfolds(g, {0}, 0) == ()


def test_group_hfolds_need_only_associativity():
    # S3 is not abelian, yet each fold is every left-to-right product
    g = _s3_table()
    _assert_group(g)
    assert g.add(1, 2) != g.add(2, 1)
    subsets = [
        set(sub)
        for size in range(4)
        for sub in combinations(range(g.order), size)
    ]
    assert len(subsets) == 42
    for subset in subsets:
        products = set(subset)
        for fold in group_hfolds(g, subset, 5):
            assert fold == frozenset(products)
            products = {g.add(a, b) for a in products for b in subset}


def test_group_hfold_errors_are_unchanged():
    g = FiniteGroupTable.cyclic(5)
    for h in (0, -3):
        with pytest.raises(DomainError, match=f"h must be >= 1, got {h}"):
            group_hfold(g, {1}, h)
    for bad in ({5}, {-1}, {0, 9}):
        with pytest.raises(DomainError, match="subset indices must lie inside"):
            group_hfold(g, bad, 2)
        with pytest.raises(DomainError, match="subset indices must lie inside"):
            group_hfolds(g, bad, 3)

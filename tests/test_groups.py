"""Finite abelian group tables and exact subset-chain analysis."""

import pytest

from intersets import (
    ConstructionError,
    DomainError,
    FiniteGroupTable,
    covering_orders,
    group_H_explicit,
    group_hfold,
    group_hfolds,
)


def test_cyclic_table():
    g = FiniteGroupTable.cyclic(5)
    assert g.order == 5
    assert g.add(3, 4) == 2
    g.validate()
    with pytest.raises(ConstructionError):
        FiniteGroupTable.cyclic(0)
    with pytest.raises(ConstructionError):
        FiniteGroupTable.cyclic(-3)
    # tables are memoised: a repeat call shares the frozen table
    assert FiniteGroupTable.cyclic(5) is g


def test_direct_product():
    g = FiniteGroupTable.direct_product(
        FiniteGroupTable.cyclic(2), FiniteGroupTable.cyclic(3)
    )
    assert g.order == 6
    g.validate()
    # (1,1) + (1,2) = (0,0): index 1*3+1=4 plus 1*3+2=5 is the identity
    assert g.add(4, 5) == 0


def test_from_rows_validates():
    rows = [[0, 1], [1, 0]]
    g = FiniteGroupTable.from_rows(rows)
    assert g.order == 2
    with pytest.raises(ConstructionError):
        FiniteGroupTable.from_rows([[0, 1], [1, 1]])  # row not a permutation
    with pytest.raises(ConstructionError):
        FiniteGroupTable.from_rows([[1, 0], [0, 1]])  # 0 not an identity
    with pytest.raises(ConstructionError):
        FiniteGroupTable.from_rows([[0, 1, 2], [1, 2, 0]])  # not square


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


def test_group_H_explicit_gates():
    g = FiniteGroupTable.cyclic(4)
    with pytest.raises(ConstructionError):
        group_H_explicit(g, [], 2)
    with pytest.raises(ConstructionError):
        group_H_explicit(g, [{0, 1}, {0, 2}], 2)  # not decreasing
    with pytest.raises(ConstructionError):
        group_H_explicit(g, [{1}, set()], 2)  # empty intersection


@pytest.mark.parametrize(
    "g",
    [
        FiniteGroupTable.cyclic(1),
        FiniteGroupTable.cyclic(7),
        FiniteGroupTable.cyclic(12),
        FiniteGroupTable.direct_product(
            FiniteGroupTable.cyclic(2), FiniteGroupTable.cyclic(4)
        ),
        FiniteGroupTable.direct_product(
            FiniteGroupTable.cyclic(3), FiniteGroupTable.cyclic(3)
        ),
    ],
    ids=["Z1", "Z7", "Z12", "Z2xZ4", "Z3xZ3"],
)
def test_group_hfolds_ladder_matches_each_hfold(g):
    n = g.order
    subsets = [set(), {0}, {n - 1}, {0, n // 2}, {1 % n, 2 % n, (n - 1) % n}]
    for subset in subsets:
        ladder = group_hfolds(g, subset, 6)
        assert len(ladder) == 6
        for h, fold in enumerate(ladder, 1):
            assert fold == group_hfold(g, subset, h)
            # brute force: every h-tuple of the subset, summed in the table
            sums = {g.identity}
            for _ in range(h):
                sums = {g.add(a, b) for a in sums for b in subset}
            assert fold == frozenset(sums)
    assert group_hfolds(g, {0}, 0) == ()


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


def test_covering_orders():
    assert covering_orders(FiniteGroupTable.cyclic(4), {0, 1}, 5) == [3, 4, 5]
    assert covering_orders(FiniteGroupTable.cyclic(3), {0, 1}, 4) == [2, 3, 4]
    assert covering_orders(FiniteGroupTable.cyclic(3), {1}, 4) == []

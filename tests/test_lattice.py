"""Lattice sums in Z^d: boxes, folds, norm inequality, norm-tail layers."""

from fractions import Fraction

import pytest

from intersets import (
    Box,
    CapError,
    ConstructionError,
    InputError,
    LatticePoint,
    NormTailFamily,
    lattice_hfold_sum,
    min_norm_inequality,
    verify_lattice_theorem,
)

from oracles import lattice_fold


def test_lattice_point_basics():
    p = LatticePoint((1, -2))
    assert p.dim == 2
    assert p.norm_sq == 5
    assert (p + LatticePoint((2, 2))).coords == (3, 0)


def test_box_basics():
    b = Box.cube(-2, 2, 2)
    assert b.dim == 2 and b.cells == 25
    assert b.contains((0, -2)) and not b.contains((0, 3))
    assert len(list(b.points())) == 25
    with pytest.raises(InputError):
        Box(((2, -2),))


def test_lattice_hfold_frozen():
    pts = [(0, 0), (1, 0), (0, 1)]
    fold = lattice_hfold_sum(pts, 2, Box.cube(0, 2, 2))
    assert fold.complete
    assert fold.members == {
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    }


@pytest.mark.parametrize(
    "pts",
    [
        [(0, 0), (1, 2), (3, 1)],
        [(1, 1), (2, 0)],
        [(-1, 0), (2, 1), (0, -2)],
    ],
)
@pytest.mark.parametrize("h", [2, 3])
def test_lattice_hfold_matches_brute_force(pts, h):
    box = Box.cube(-6, 9, 2)
    fold = lattice_hfold_sum(pts, h, box)
    expect = {v for v in lattice_fold(pts, h) if box.contains(v)}
    assert fold.members == expect
    assert fold.complete == all(c >= 0 for p in pts for c in p)


def test_lattice_hfold_gates():
    with pytest.raises(InputError):
        lattice_hfold_sum([(0, 0)], 0, Box.cube(0, 1, 2))
    with pytest.raises(InputError):
        lattice_hfold_sum([(0, 0, 0)], 2, Box.cube(0, 1, 2))


def test_lattice_hfold_cell_cap(monkeypatch):
    import intersets.lattices as lattices

    assert lattices._CELL_CAP == 4_000_000
    monkeypatch.setattr(lattices, "_CELL_CAP", 50)
    grid = [(i, j) for i in range(8) for j in range(8)]
    with pytest.raises(CapError):
        lattice_hfold_sum(grid, 2, Box.cube(0, 100, 2))


def test_min_norm_inequality():
    chk = min_norm_inequality([(1, 0), (0, 2), (3, 1)])
    assert chk.holds and chk.k == 3
    assert chk.sum_norm_sq == 25  # (4,3)
    assert chk.k_times_min_sq == 3
    # orthogonal-ish unit vectors attain equality in dimension >= k
    eq = min_norm_inequality([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert eq.holds and eq.sum_norm_sq == eq.k_times_min_sq == 3

    with pytest.raises(InputError):
        min_norm_inequality([])
    with pytest.raises(InputError):
        min_norm_inequality([(1, -1)])
    with pytest.raises(InputError):
        min_norm_inequality([(0, 0)])
    with pytest.raises(InputError):
        min_norm_inequality([(1, 0), (1, 0, 0)])


def test_min_norm_inequality_error_texts():
    cases = [
        ([], "at least one vector is required"),
        ([(1, -1)], "negative coordinate in (1, -1)"),
        ([(0, -2, 0)], "negative coordinate in (0, -2, 0)"),
        ([(0, 0)], "zero vector not allowed"),
        ([()], "zero vector not allowed"),
        ([(), ()], "zero vector not allowed"),
        ([(1, 0), (1, 0, 0)], "mixed dimensions"),
        ([(1,), ()], "mixed dimensions"),
        # the first offending vector decides, and within a vector the
        # dimension is checked first
        ([(1, 1), (0, 0), (1, -1)], "zero vector not allowed"),
        ([(1, 1), (1, -1), (0, 0)], "negative coordinate in (1, -1)"),
        ([(1, 1), (0, -1, 0)], "mixed dimensions"),
    ]
    for vectors, text in cases:
        with pytest.raises(InputError) as err:
            min_norm_inequality(vectors)
        assert str(err.value) == text


def test_min_norm_inequality_accepts_lattice_points():
    pts = [LatticePoint((1, 0)), LatticePoint((0, 2)), (3, 1)]
    chk = min_norm_inequality(pts)
    assert (chk.k, chk.sum_norm_sq, chk.k_times_min_sq, chk.holds) == (3, 25, 3, True)
    with pytest.raises(InputError, match="zero vector not allowed"):
        min_norm_inequality([LatticePoint((0, 0))])


def test_norm_tail_family():
    fam = NormTailFamily(((0, 0), (1, 1)), 2)
    assert fam.tail_threshold_sq(1) == 8
    assert fam.exclusion_depth((2, 1), 2) == 2
    assert fam.exclusion_depth((4, 1), 2) == 3
    layer1 = fam.set_in_box(1, Box.cube(0, 3, 2))
    assert (1, 1) in layer1 and (0, 0) in layer1
    assert (2, 2) in layer1  # norm_sq 8 reaches the threshold
    assert (2, 1) not in layer1

    with pytest.raises(ConstructionError):
        NormTailFamily((), 2)
    with pytest.raises(ConstructionError):
        NormTailFamily(((0, 0), (1, 1)), 1)  # below the core norm
    with pytest.raises(ConstructionError):
        NormTailFamily(((0, 0), (-1, 1)), 4)
    with pytest.raises(ConstructionError):
        NormTailFamily(((0, 0), (1, 1, 1)), 4)


def test_verify_lattice_theorem_frozen():
    fam = NormTailFamily(((0, 0), (1, 1)), 2)
    rep = verify_lattice_theorem(fam, 3, 5, Box.cube(-5, 5, 2), norm_sq_cap=25)
    assert rep.ok
    rows = [(c.h, c.max_exclusion_depth, len(c.undetermined)) for c in rep.checks]
    assert rows == [(1, 3, 0), (2, 3, 0), (3, 4, 0)]
    assert all(c.equal_on_box and c.certified for c in rep.checks)
    assert all(c.mismatches == () for c in rep.checks)


def _all_layer_trunc(family, h, Q, box):
    """The box slice of the intersection over q = 1..Q of layer q's h-fold
    sums, every layer folded on its own."""
    folds = [
        {v for v in lattice_fold(family.set_in_box(q, box), h) if box.contains(v)}
        for q in range(1, Q + 1)
    ]
    return set.intersection(*folds)


@pytest.mark.parametrize(
    "core, m_star_sq, Q",
    [
        (((0, 0), (1, 1)), 2, 1),
        (((0, 0), (1, 1)), 2, 3),
        (((0, 1), (2, 0)), 4, 2),
        (((1, 0), (0, 1), (1, 1)), Fraction(5, 2), 3),
    ],
)
def test_verify_lattice_theorem_matches_all_layer_intersection(core, m_star_sq, Q):
    fam = NormTailFamily(core, m_star_sq)
    box = Box.cube(-2, 6, 2)
    rep = verify_lattice_theorem(fam, 3, Q, box)
    for check in rep.checks:
        core_fold = {v for v in lattice_fold(core, check.h) if box.contains(v)}
        trunc = _all_layer_trunc(fam, check.h, Q, box)
        expected = tuple(x for x in box.points() if (x in core_fold) != (x in trunc))
        assert check.mismatches == expected
        assert check.equal_on_box == (not expected)


def test_verify_lattice_theorem_materializes_one_layer(monkeypatch):
    fam = NormTailFamily(((0, 0), (1, 1)), 2)
    honest = fam.set_in_box
    layers = []

    def counted(q, box):
        layers.append(q)
        return honest(q, box)

    monkeypatch.setattr(fam, "set_in_box", counted)
    rep = verify_lattice_theorem(fam, 3, 5, Box.cube(-5, 5, 2), norm_sq_cap=25)
    assert rep.ok and layers == [5]


def test_verify_lattice_theorem_shallow():
    fam = NormTailFamily(((0, 0), (1, 1)), 2)
    rep = verify_lattice_theorem(fam, 3, 1, Box.cube(-5, 5, 2), norm_sq_cap=25)
    assert not rep.ok
    assert all(not c.certified for c in rep.checks)
    assert [len(c.undetermined) for c in rep.checks] == [72, 78, 77]

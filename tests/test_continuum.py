"""Rational perturbation layers and exact open-interval arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from intersets import (
    ConstructionError,
    InputError,
    InvariantError,
    RationalPerturbFamily,
    verify_open_theorem,
    verify_rational_theorem,
)
from intersets import continuum

from oracles import fold_values, open_theorem_reference


# -- family construction ----------------------------------------------------


def test_base_point_gates():
    with pytest.raises(ConstructionError):
        RationalPerturbFamily(())
    with pytest.raises(ConstructionError):
        RationalPerturbFamily((1, 5))  # first point must exceed 1
    with pytest.raises(ConstructionError):
        RationalPerturbFamily((4, 6))  # gap must exceed 2
    with pytest.raises(ConstructionError):
        RationalPerturbFamily((4, 8), n_max=3)
    with pytest.raises(ConstructionError):
        RationalPerturbFamily((4, 8), r_max=0)
    RationalPerturbFamily((4, 8, 12))


# -- rational truncation runs -----------------------------------------------


def test_rational_theorem_frozen():
    fam = RationalPerturbFamily((4, 8, 12), r_max=12)
    rep = verify_rational_theorem(fam, 2, 6, (0, 18))
    assert rep.ok
    assert rep.bound == Fraction(1, 3)
    assert rep.base_sums == (Fraction(8), Fraction(12), Fraction(16))
    assert rep.base_in_intersection and rep.missing_base == ()
    assert rep.monotone
    assert rep.intersection_size == 285
    # the bound is sharp here: some survivor sits exactly h/Q away
    assert rep.max_distance == Fraction(1, 3)
    assert rep.bound_ok and rep.violations == ()


def test_rational_theorem_with_base_points():
    fam = RationalPerturbFamily((4, 8, 12), include_base=True, r_max=12)
    rep = verify_rational_theorem(fam, 2, 6, (0, 18))
    assert rep.ok and rep.missing_base == ()
    # keeping the base points enlarges every layer, never shrinks it
    assert rep.intersection_size == 315


def test_rational_theorem_gates():
    fam = RationalPerturbFamily((4, 8, 12), r_max=12)
    with pytest.raises(InputError):
        verify_rational_theorem(fam, 1, 6, (0, 18))
    with pytest.raises(InputError):
        verify_rational_theorem(fam, 2, 4, (0, 18))  # needs 2h < Q
    short = RationalPerturbFamily((4, 8, 12), r_max=8)
    with pytest.raises(InputError):
        verify_rational_theorem(short, 2, 6, (0, 18))  # needs r_max >= 2Q
    with pytest.raises(InputError):
        verify_rational_theorem(fam, 2, 6, (18, 0))


def _naive_rational(fam, h, Q, window, r_max):
    """Every one of the verifier's Q layer folds by plain Fraction
    filtering, intersected."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    denom = math.lcm(*range(1, r_max + 1))
    lo_s, hi_s = lo * denom, hi * denom
    base = sorted(v for v in fold_values(fam.points, h) if lo - h <= v <= hi + h)
    base_scaled = [v * denom for v in base]
    intersection, prev, monotone = None, None, True
    for q in range(1, Q + 1):
        offs = {denom // r for r in range(q, r_max + 1)}
        offs |= {-o for o in offs} | ({0} if fam.include_base else set())
        folds = fold_values(offs, h)
        layer = {
            sv + f
            for sv in base_scaled
            for f in folds
            if lo_s <= sv + f <= hi_s
        }
        if prev is not None and not layer <= prev:
            monotone = False
        prev = layer
        intersection = layer if intersection is None else intersection & layer
    missing = [v for v in base_scaled if lo_s <= v <= hi_s and v not in intersection]
    dists = {x: min(abs(Fraction(x - b, denom)) for b in base_scaled) for x in intersection}
    return {
        "intersection_size": len(intersection),
        "max_distance": max(dists.values(), default=None),
        "violations": tuple(
            Fraction(x, denom) for x in sorted(dists) if dists[x] > Fraction(h, Q)
        ),
        "missing_base": tuple(Fraction(v, denom) for v in missing),
        "monotone": monotone,
    }


@pytest.mark.parametrize("include_base", [False, True])
@pytest.mark.parametrize("h, Q", [(2, 5), (3, 7)])
@pytest.mark.parametrize(
    "window",
    [
        (0, 40),
        # 38/5 = 2 * (4 - 1/5) and 121/5 = 2 * 12 + 1/5 are fold values, so
        # both closed ends are hit; the narrow window holds no base sum
        (Fraction(38, 5), Fraction(121, 5)),
        (Fraction(37, 3), Fraction(38, 3)),
    ],
)
def test_rational_theorem_matches_naive_folds(include_base, h, Q, window):
    fam = RationalPerturbFamily((4, 8, 12, 16), include_base=include_base, r_max=14)
    rep = verify_rational_theorem(fam, h, Q, window)
    naive = _naive_rational(fam, h, Q, window, 14)
    assert {k: getattr(rep, k) for k in naive} == naive


def _count_window_points(monkeypatch) -> list:
    calls = []
    honest = continuum._window_points

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(continuum, "_window_points", counted)
    return calls


@pytest.mark.parametrize("h", [2, 3])
def test_rational_theorem_builds_only_the_deepest_layer(monkeypatch, h):
    # the rational scenario's family: its layers nest, so one layer's
    # window points are built, not Q
    fam = RationalPerturbFamily(tuple(4 * n for n in range(1, 11)), r_max=25)
    calls = _count_window_points(monkeypatch)
    rep = verify_rational_theorem(fam, h, 10, (0, 40))
    assert rep.ok and rep.monotone
    assert len(calls) == 1


def _edit_offsets(monkeypatch, edit):
    honest = continuum._perturbation_offsets

    def offsets(q, r_max, d, with_zero):
        return sorted(edit(q, d, set(honest(q, r_max, d, with_zero))))

    monkeypatch.setattr(continuum, "_perturbation_offsets", offsets)


@pytest.mark.parametrize(
    "edit",
    [
        # layer Q - 1 loses 1/r_max, which layer Q keeps
        lambda q, d, offs: offs - {d // 14, -(d // 14)} if q == 4 else offs,
        # layer Q gains an offset that takes every new sum past the window:
        # its layer still nests inside the window, but its offsets do not
        lambda q, d, offs: offs | {100 * d} if q == 5 else offs,
    ],
    ids=["middle-layer-drops", "far-offset"],
)
def test_rational_theorem_fold_sets_that_do_not_nest(monkeypatch, edit):
    fam = RationalPerturbFamily((4, 8, 12, 16), r_max=14)
    _edit_offsets(monkeypatch, edit)
    calls = _count_window_points(monkeypatch)
    with pytest.raises(InvariantError, match="do not nest"):
        verify_rational_theorem(fam, 2, 5, (0, 40))
    # the refusal comes before any layer's window points are built
    assert calls == []


def test_rational_theorem_intersects_layers_that_do_not_nest(monkeypatch):
    # layer Q gains the perturbation 1/D, which layer Q - 1 lacks, so layer
    # Q alone is no longer the depth-Q intersection: the verifier refuses
    # rather than report layer Q's fold as the intersection
    fam = RationalPerturbFamily((4, 8, 12, 16), r_max=14)
    _edit_offsets(monkeypatch, lambda q, d, offs: offs | {1} if q == 5 else offs)
    with pytest.raises(InvariantError, match="do not nest"):
        verify_rational_theorem(fam, 2, 5, (0, 40))


# -- open-interval truncation runs ------------------------------------------


def test_open_theorem_frozen():
    rep = verify_open_theorem((4, 8, 12), 2, 10, (0, 18))
    assert rep.ok
    assert rep.radius_bound == Fraction(1, 5)
    assert rep.all_centered and not rep.all_punctured
    assert rep.primed_contains_base
    assert rep.components == (
        (Fraction(39, 5), Fraction(41, 5)),
        (Fraction(59, 5), Fraction(61, 5)),
        (Fraction(79, 5), Fraction(81, 5)),
    )


def test_open_theorem_counts_centers_across_each_component():
    # at Q = 1 the one visible component (9, 27) reaches 11 past the window,
    # farther than h = 3, and holds the base sums 12, 16, 20 and 24
    window = (Fraction(31, 2), Fraction(33, 2))
    rep = verify_open_theorem((4, 8), 3, 1, window)
    assert rep.components == ((Fraction(9), Fraction(27)),)
    assert not rep.all_centered and not rep.ok
    assert rep == open_theorem_reference((4, 8), 3, 1, window)


@pytest.mark.parametrize("h, Q", [(1, 10), (2, 10), (3, 1)])
def test_open_theorem_builds_only_the_deepest_layer(monkeypatch, h, Q):
    # the layers nest, so layer Q is built once per variant, not Q times
    honest = continuum._layer
    calls = []

    def counted(points, r, punctured):
        calls.append((r, punctured))
        return honest(points, r, punctured)

    monkeypatch.setattr(continuum, "_layer", counted)
    rep = verify_open_theorem((4, 8, 12), h, Q, (0, 18))
    assert rep == open_theorem_reference((4, 8, 12), h, Q, (0, 18))
    assert len(calls) == 2 and {p for _, p in calls} == {True, False}


def test_open_theorem_h1_punctured():
    rep = verify_open_theorem((4, 8, 12), 1, 10, (0, 18))
    assert rep.ok
    assert rep.all_punctured
    assert len(rep.components) == 6  # two slivers per base point
    assert not rep.empty


def test_open_theorem_empty_window():
    rep = verify_open_theorem((4, 8, 12), 2, 10, (17, 18))
    assert rep.empty and rep.components == ()


def test_open_theorem_gates():
    with pytest.raises(InputError):
        verify_open_theorem((4, 8, 12), 0, 10, (0, 18))
    with pytest.raises(InputError):
        verify_open_theorem((4, 8, 12), 2, 0, (0, 18))
    with pytest.raises(InputError):
        verify_open_theorem((4, 8, 12), 2, 10, (18, 0))
    with pytest.raises(ConstructionError):
        verify_open_theorem((4, 6), 2, 10, (0, 18))


def test_open_theorem_rejects_inexact_inputs():
    # floats and bools are refused before any work; ints and Fractions run
    for points in [(4.5, 8.25), (4, 8.0), (True, 8)]:
        with pytest.raises(ConstructionError):
            verify_open_theorem(points, 2, 4, (0, 20))
    fam = RationalPerturbFamily((4, 8), r_max=12)
    for window in [(0.1, 20), (0, 20.0), (False, 20)]:
        with pytest.raises(InputError):
            verify_open_theorem((4, 8), 2, 4, window)
        with pytest.raises(InputError):
            verify_rational_theorem(fam, 2, 6, window)
    points, window = (Fraction(9, 2), Fraction(33, 4)), (Fraction(1, 10), 20)
    rep = verify_open_theorem(points, 2, 4, window)
    assert rep == open_theorem_reference(points, 2, 4, window)


# -- the integer engine against the Fraction reference ----------------------

GRID_POINTS = {
    "int-1": (4,),
    "int-3": (4, 8, 12),
    "int-10": tuple(4 * n for n in range(1, 11)),
    "fraction-1": (Fraction(13, 3),),
    "fraction-3": (Fraction(9, 2), 8, Fraction(37, 3)),
    "fraction-10": tuple(4 * n + Fraction(n, 7) for n in range(1, 11)),
}


def _grid_windows(points, h):
    sums = sorted(fold_values(points, h))
    first, mid = sums[0], sums[len(sums) // 2]
    # 1009 and 1013 are primes beyond every factor of D, so these edges
    # are off the 1/D grid; each one cuts through the component around
    # first or mid, at every (h, Q) of the grid
    return [
        (0, 20),
        (first - Fraction(1, 1009), mid + Fraction(1, 1013)),
        (mid, mid + 3),
    ]


@pytest.mark.parametrize("Q", [1, 2, 7, 10, 12])
@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(GRID_POINTS))
def test_open_theorem_matches_fraction_reference(name, h, Q):
    points = GRID_POINTS[name]
    for window in _grid_windows(points, h):
        rep = verify_open_theorem(points, h, Q, window)
        assert rep == open_theorem_reference(points, h, Q, window)


@pytest.mark.parametrize(
    "window",
    [(Fraction(31, 2), Fraction(33, 2)), (Fraction(23, 2), Fraction(25, 2))],
)
def test_open_theorem_edges_half_a_step_from_a_center(window):
    # at Q = 1 the step 1/D is 1 and components are long enough to hold
    # two base sums; the edges sit half a step from sums h away, so the
    # centers counted change if lo*D or hi*D rounds the wrong way
    assert verify_open_theorem((4, 8), 3, 1, window) == open_theorem_reference(
        (4, 8), 3, 1, window
    )


def _random_pairs(rng, denom):
    # coarse steps make touching and overlapping pairs common; some pairs
    # are empty or reversed
    step = denom // 12
    return [
        (Fraction(a * step, denom), Fraction((a + rng.randrange(-2, 9)) * step, denom))
        for a in (rng.randrange(-40, 40) for _ in range(rng.randrange(8)))
    ]


@pytest.mark.parametrize("seed", range(30))
def test_interval_helpers_commute_with_scaling(seed):
    rng = random.Random(seed)
    denom = 2520

    def scaled(pairs):
        return tuple((int(a * denom), int(b * denom)) for a, b in pairs)

    raw_x, raw_y = _random_pairs(rng, denom), _random_pairs(rng, denom)
    xs, ys = continuum._merge(raw_x), continuum._merge(raw_y)
    xs_s, ys_s = continuum._merge(scaled(raw_x)), continuum._merge(scaled(raw_y))
    assert xs_s == scaled(xs) and ys_s == scaled(ys)
    got, got_f = continuum._minkowski(xs_s, ys_s), continuum._minkowski(xs, ys)
    assert got == scaled(got_f)
    # endpoints keep their type: no coercion on either side
    assert all(type(e) is int for pair in got for e in pair)
    assert all(type(e) is Fraction for pair in got_f for e in pair)


def _within(pairs, x):
    return any(a < x < b for a, b in pairs)


@pytest.mark.parametrize("seed", range(30))
def test_interval_helpers_match_pointwise_membership(seed):
    rng = random.Random(seed)
    denom = 12
    raw_x, raw_y = _random_pairs(rng, denom), _random_pairs(rng, denom)
    xs, ys = continuum._merge(raw_x), continuum._merge(raw_y)
    sums = continuum._minkowski(xs, ys)
    for u in (xs, ys, sums):
        # sorted, disjoint and nonempty: a touch point stays outside
        assert all(a < b for a, b in u)
        assert all(b <= c for (_, b), (c, _) in zip(u, u[1:]))
    # probes on a half-step grid hit every endpoint and every gap between
    for k in range(-200, 201):
        x = Fraction(k, 2 * denom)
        assert continuum._contains(xs, x) == _within(raw_x, x)
        assert continuum._contains(sums, x) == any(
            a + c < x < b + d for a, b in raw_x for c, d in raw_y if a < b and c < d
        )

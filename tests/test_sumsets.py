"""Sumset engine: closed forms, windowed enumeration, counts, basis order."""

import math
import random
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from intersets import (
    ALL,
    CapError,
    DomainError,
    NoClosedForm,
    Window,
    cofinite,
    congruence,
    down_tail,
    finite,
    half_tail,
    intersect,
    materialize,
    scale_set,
    shift,
    tail,
    union,
)
from intersets import sumsets
from intersets.symbolic import IN, MATERIALIZE_CAP, OUT, out_up_to
from intersets.sumsets import (
    Closed,
    RepCount,
    Windowed,
    basis_order,
    default_radius,
    members_in,
    query,
    representation_count,
    symbolic_hfold_sum,
    window_mask,
    windowed_hfold_sum,
)
from intersets.symbolic import (
    Affine,
    Congruence,
    Finite,
    HalfTail,
    Intersection,
    Union,
    bounds,
    is_infinite,
)

from oracles import (
    fold_values,
    members,
    pair_sums,
    rep_count,
    spiral,
    windowed_fold,
    windowed_sum,
)


# -- closed forms -----------------------------------------------------------


def test_closed_forms_frozen():
    r = symbolic_hfold_sum(union(congruence(3, (0,)), finite([1])), 2)
    assert r == Closed(Union((Finite((2,)), Congruence(3, (0, 1)))))

    r = symbolic_hfold_sum(union(congruence(4, (0,)), finite([1])), 3)
    assert r == Closed(Union((Finite((3,)), Congruence(4, (0, 1, 2)))))

    assert symbolic_hfold_sum(half_tail(2), 3) == Closed(HalfTail(6))
    assert symbolic_hfold_sum(tail(0, 5), 2) == Closed(ALL)
    assert symbolic_hfold_sum(finite([0, 1, 3]), 2) == Closed(
        finite([0, 1, 2, 3, 4, 6])
    )


def test_hfold_identity_and_gate():
    s = congruence(5, (2,))
    assert symbolic_hfold_sum(s, 1) == Closed(s)
    with pytest.raises(DomainError):
        symbolic_hfold_sum(s, 0)


def test_no_closed_form_needs_window():
    # this intersection stays lazy, so no sum rule fires on it
    awkward = intersect(congruence(4, (1,)), tail(0, 9))
    with pytest.raises(NoClosedForm):
        symbolic_hfold_sum(awkward, 2)
    res = symbolic_hfold_sum(awkward, 2, Window(-20, 20))
    assert isinstance(res, Windowed)
    assert set(res.members) == windowed_fold(
        awkward, 2, Window(-20, 20), res.generation_radius
    )


@given(st.lists(st.integers(-15, 15), min_size=1, max_size=6), st.integers(1, 4))
@settings(max_examples=60)
def test_finite_folds_match_brute_force(xs, h):
    r = symbolic_hfold_sum(finite(xs), h)
    assert isinstance(r, Closed)
    win = Window(-80, 80)
    assert members_in(r, win) == {
        v for v in fold_values(xs, h) if win.lo <= v <= win.hi
    }


# -- union distribution in sum2 ---------------------------------------------

_atoms = st.one_of(
    st.lists(st.integers(-10, 10), min_size=1, max_size=6).map(finite),
    st.integers(-10, 10).map(half_tail),
    st.integers(-10, 10).map(down_tail),
    st.integers(1, 5).flatmap(
        lambda m: st.sets(st.integers(0, m - 1), min_size=1).map(
            lambda rs: congruence(m, rs)
        )
    ),
)
_unions = st.lists(_atoms, min_size=2, max_size=3).map(lambda ps: union(*ps))


@given(_unions, st.one_of(_atoms, _unions))
@settings(max_examples=150)
def test_sum2_over_unions_matches_pairwise_sums(x, y):
    # every feature sits in [-10, 10] and every modulus is at most 5, so a
    # sum in [-20, 20] has a representation with both summands within 80
    r = sumsets.sum2(x, y)
    if r is None:
        return
    win, radius = Window(-20, 20), 80
    xs = materialize(x, Window(-radius, radius))
    ys = materialize(y, Window(-radius, radius))
    brute = {a + b for a in xs for b in ys if win.lo <= a + b <= win.hi}
    assert set(materialize(r, win)) == brute


def test_sum2_falls_back_when_a_union_part_does_not_close():
    big = finite(range(0, 100, 4))  # one element above the Finite-rule cap
    assert len(big.elements) == sumsets._FINITE_FOLD_CAP + 1
    x = union(big, congruence(4, (1,)))
    assert isinstance(x, Union)
    # the big Finite part has no rule with these partners, so distributing
    # fails and the earlier rules decide as before: a cofinite class
    # absorbs the infinite union, and a congruence partner stays open
    for partner, expect in ((cofinite([0, 5]), ALL), (tail(0, 3), ALL),
                            (congruence(3, (0,)), None)):
        assert sumsets._distribute(x, partner) is None
        assert sumsets.sum2(x, partner) == expect
        assert sumsets.sum2(partner, x) == expect


def test_distribute_gives_up_past_the_finite_fold_cap():
    # classes of distinct primes past LCM_CAP stay apart in a union, and
    # each odd prime's class plus the odd class is all of Z
    primes = [p for p in range(1009, 1300) if all(p % d for d in range(2, 37))]
    odd = congruence(2, (1,))
    cap = sumsets._FINITE_FOLD_CAP
    for k, expect in ((cap, ALL), (cap + 1, None)):
        u = union(*(congruence(p, (0,)) for p in primes[:k]))
        assert isinstance(u, Union) and len(u.parts) == k
        assert sumsets.sum2(u, odd) == expect
    # past the cap the 2-fold sum is enumerated, and matches brute force
    s, win = union(u, finite([1])), Window(-30, 30)
    res = symbolic_hfold_sum(s, 2, win, 1300)
    assert isinstance(res, Windowed)
    assert members_in(res, win) == windowed_fold(s, 2, win, 1300)


def test_cofinite_absorbs_a_class_cut_by_points_and_one_ray():
    # the puncture at 20000 lies past EXPAND_CAP above the ray, so no
    # rewrite merges the three parts; one ray leaves the class infinite
    part = intersect(congruence(3, [2]), half_tail(0), cofinite([20000]))
    assert isinstance(part, Intersection) and len(part.parts) == 3
    assert is_infinite(part) is True
    assert sumsets.sum2(cofinite([0]), part) == ALL
    win = Window(-20, 20)
    assert windowed_sum(cofinite([0]), part, win, 60) == set(range(-20, 21))
    # a second ray bounds it: then nothing decides the sum
    bounded = intersect(part, down_tail(30000))
    assert is_infinite(bounded) is False
    assert sumsets.sum2(cofinite([0]), bounded) is None


# -- incremental fold memo --------------------------------------------------


def test_closed_fold_memo_reuses_folds(monkeypatch):
    calls = []
    real = sumsets.sum2

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    # recursive calls inside sum2 resolve the module global, so they count
    monkeypatch.setattr(sumsets, "sum2", counted)
    s = union(finite([0, 3, 7, 12]), half_tail(20))

    sumsets._closed_fold.cache_clear()
    first = symbolic_hfold_sum(s, 4)
    cold = len(calls)
    assert cold > 0
    calls.clear()
    assert symbolic_hfold_sum(s, 4) == first
    assert calls == []

    sumsets._closed_fold.cache_clear()
    symbolic_hfold_sum(s, 3)
    calls.clear()
    assert symbolic_hfold_sum(s, 4) == first
    assert 0 < len(calls) < cold


@pytest.mark.parametrize(
    "ray, partner, expected",
    [
        # the partner is bounded on the ray's far side: the sums start at the
        # ray's edge plus the partner's extreme member, and fill in beyond it
        (half_tail(3), intersect(congruence(3, [0]), half_tail(6)), HalfTail(9)),
        (down_tail(2), intersect(congruence(3, [0]), down_tail(-6)), down_tail(-4)),
    ],
    ids=["up", "down"],
)
def test_sum2_ray_plus_bounded_partner(ray, partner, expected):
    got = sumsets.sum2(ray, partner)
    assert got == expected
    win = Window(-30, 30)
    assert set(members(got, win)) == windowed_sum(ray, partner, win, 70)


def test_sum2_finite_plus_ray_makes_no_shifts(monkeypatch):
    fin = finite([-4, 0, 7])
    rays = (half_tail(3), down_tail(-2))
    # the Finite rule's former answer: the union of the shifted rays
    before = {ray: union(*(shift(ray, e) for e in (-4, 0, 7))) for ray in rays}
    calls = []
    monkeypatch.setattr(
        sumsets, "shift", lambda *a: calls.append(a) or shift(*a)
    )
    for ray in rays:
        assert sumsets.sum2(fin, ray) == before[ray]
        assert sumsets.sum2(ray, fin) == before[ray]
    assert before[rays[0]] == half_tail(-1)
    assert before[rays[1]] == down_tail(5)
    assert calls == []


# -- windowed enumeration ---------------------------------------------------

SAMPLES = [
    congruence(4, (1, 2)),
    half_tail(-3),
    tail(2, 4),
    cofinite([0, 5]),
    union(finite([7]), congruence(6, (0,))),
]


@pytest.mark.parametrize("s", SAMPLES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("h", [2, 3])
def test_windowed_matches_brute_force(s, h):
    win = Window(-18, 18)
    r = default_radius(win, h)
    got = windowed_hfold_sum(s, h, win, r)
    assert set(got.members) == windowed_fold(s, h, win, r)


# dilated sets as scaled families build them; the windows include ones that
# begin left of h times the smallest member of a bounded-below set
DILATED = [
    scale_set(finite([1, 4, 5]), 3),
    scale_set(half_tail(2), 2),
    scale_set(down_tail(-1), 3),
    scale_set(union(congruence(5, (1,)), finite([0])), -2),
    scale_set(cofinite([0, 1]), 3),
    scale_set(tail(1, 3), 2),
    # a modulus far wider than every generation window
    scale_set(union(congruence(10**9, (2,)), finite([-3])), 3),
]


@pytest.mark.parametrize("h", [1, 2, 3])
def test_windowed_matches_oracle_on_dilated_sets(h):
    for s in DILATED:
        for win in (Window(-30, 30), Window(-45, 8), Window(7, 40)):
            r = default_radius(win, h)
            got = windowed_hfold_sum(s, h, win, r)
            assert list(got.members) == sorted(windowed_fold(s, h, win, r))


def test_windowed_completeness_flags():
    win = Window(-10, 10)
    # half-tail: bounded below, far sums leave the window
    r = windowed_hfold_sum(half_tail(0), 2, win, default_radius(win, 2))
    assert r.complete
    # fully materialized finite set
    r = windowed_hfold_sum(finite([-2, 3]), 3, win, 40)
    assert r.complete
    # two-sided infinite set: enumeration cannot be complete
    r = windowed_hfold_sum(congruence(3, (1,)), 2, win, 50)
    assert not r.complete


def test_windowed_gates():
    with pytest.raises(DomainError):
        windowed_hfold_sum(half_tail(0), 2, Window(-10, 10), 5)
    with pytest.raises(DomainError):
        windowed_hfold_sum(half_tail(0), 0, Window(-10, 10), 40)
    # the generation window is capped before any set is built
    size = 2 * MATERIALIZE_CAP + 1
    with pytest.raises(CapError, match=f"window of size {size} exceeds"):
        windowed_hfold_sum(half_tail(0), 2, Window(-10, 10), MATERIALIZE_CAP)


def test_query_three_valued():
    win = Window(-10, 10)
    closed = symbolic_hfold_sum(half_tail(2), 3)
    assert query(closed, 6) == IN
    assert query(closed, 5) == OUT

    r = windowed_hfold_sum(congruence(3, (1,)), 2, win, 50)
    assert query(r, 2) == IN
    v = query(r, 3)
    assert v.kind == "out-up-to"  # incomplete: only bounded evidence
    with pytest.raises(DomainError):
        query(r, 99)


def test_members_in_window_guard():
    win = Window(-10, 10)
    r = windowed_hfold_sum(half_tail(0), 2, win, 40)
    assert members_in(r, Window(-2, 4)) == {0, 1, 2, 3, 4}
    with pytest.raises(DomainError):
        members_in(r, Window(-50, 50))


def _decode(mask: int, window: Window) -> set[int]:
    return {window.lo + i for i in range(window.size) if mask >> i & 1}


@given(
    st.one_of(_atoms, _unions),
    st.integers(1, 3),
    st.integers(-40, 40),
    st.integers(0, 60),
)
@settings(max_examples=60, deadline=None)
def test_window_mask_decodes_to_members_in(s, h, lo, width):
    win = Window(lo, lo + width)
    closed = Closed(s)
    assert _decode(window_mask(closed, win), win) == members_in(closed, win)
    assert members_in(closed, win) == set(members(s, win))
    wide = Window(lo - 7, lo + width + 3)
    windowed = windowed_hfold_sum(s, h, wide, wide.radius + 5)
    for sub in (win, wide, Window(lo + width, lo + width)):
        got = window_mask(windowed, sub)
        assert got >> sub.size == 0
        assert _decode(got, sub) == members_in(windowed, sub)


def test_window_mask_checks_like_members_in():
    win = Window(-10, 10)
    r = windowed_hfold_sum(half_tail(0), 2, win, 40)
    assert _decode(window_mask(r, Window(-2, 4)), Window(-2, 4)) == {0, 1, 2, 3, 4}
    with pytest.raises(DomainError, match="exceeds the evaluated window"):
        window_mask(r, Window(-50, 50))
    huge = Window(0, MATERIALIZE_CAP)
    with pytest.raises(CapError, match=f"window of size {huge.size} exceeds"):
        window_mask(Closed(half_tail(0)), huge)


# -- convolution kernels ----------------------------------------------------


def _bits(xs) -> int:
    out = 0
    for x in xs:
        out |= 1 << x
    return out


def _positions(bits: int) -> set[int]:
    return {i for i in range(bits.bit_length()) if bits >> i & 1}


def _shift_ors(bits: int, g: int = 1) -> int:
    return sumsets._plan(bits, g)[0]


@given(
    st.integers(1, 40),
    st.integers(-1, 1),
    st.integers(-1, 1),
    st.integers(0, 2**32),
    st.booleans(),
)
@settings(max_examples=150)
def test_conv_kernels_match_naive_sums(crossover, da, db, seed, square):
    # a small crossover puts both kernels and both sides of it in reach of
    # the naive oracle; the kernels themselves do not depend on its value
    rng = random.Random(seed)
    xs = rng.sample(range(4 * crossover + 8), max(1, crossover + da))
    ys = xs if square else rng.sample(range(6 * crossover + 8), max(1, crossover + db))
    a = _bits(xs)
    b = a if square else _bits(ys)
    spy = mock.patch.object(
        sumsets, "_conv_kronecker", wraps=sumsets._conv_kronecker
    )
    with mock.patch.object(sumsets, "_KRONECKER_MIN_SHIFTS", crossover):
        with spy as kron:
            got = sumsets._conv(a, b)
    assert kron.called == (min(_shift_ors(a), _shift_ors(b)) >= crossover)
    assert _positions(got) == {x + y for x in xs for y in ys}


@pytest.mark.parametrize("square", [True, False])
@pytest.mark.parametrize("delta", [-1, 0])
def test_conv_at_the_crossover(square, delta):
    c = sumsets._KRONECKER_MIN_SHIFTS
    rng = random.Random(delta)
    xs = rng.sample(range(2 * c), c + delta)
    ys = xs if square else rng.sample(range(3 * c), c + 7)
    a = _bits(xs)
    b = a if square else _bits(ys)
    # the crossover sits one above the cheaper operand's shift-or count,
    # or on it: runs can take that count below the popcount
    crossover = min(_shift_ors(a), _shift_ors(b)) - delta
    spy = mock.patch.object(
        sumsets, "_conv_kronecker", wraps=sumsets._conv_kronecker
    )
    with mock.patch.object(sumsets, "_KRONECKER_MIN_SHIFTS", crossover):
        with spy as kron:
            got = _positions(sumsets._conv(a, b))
    assert kron.called == (delta >= 0)
    # s is a sum iff s - x lies in ys for some x: the naive {x + y} set,
    # built sum by sum because there are about 17 million pairs
    yset = set(ys)
    top = max(xs) + max(ys)
    assert got == {t for t in range(top + 1) if any(t - x in yset for x in xs)}


@given(
    st.booleans(),
    st.integers(1, 60),
    st.integers(1, 60),
    st.integers(0, 2**32),
    st.booleans(),
    st.sampled_from(["zero", "inside", "above"]),
    st.integers(0, 150),
)
# pinned for both kernels: hi past the top bit (which is below 50 here),
# and lo above it
@example(True, 8, 8, 1, False, "zero", 150)
@example(False, 8, 8, 1, False, "zero", 150)
@example(True, 8, 8, 1, True, "above", 3)
@example(False, 8, 8, 1, True, "above", 3)
@settings(max_examples=200, deadline=None)
def test_conv_keeps_bits_lo_to_hi(kronecker, na, nb, seed, square, where, width):
    rng = random.Random(seed)
    a = _bits(rng.sample(range(2 * na + 5), na))
    b = a if square else _bits(rng.sample(range(3 * nb + 5), nb))
    full = sumsets._conv(a, b)
    top = full.bit_length() - 1
    # lo at bit 0, inside the product, or above its top bit; a wide width
    # puts hi past the top bit
    lo = {"zero": 0, "inside": rng.randint(0, top), "above": top + 1 + width}[where]
    hi = lo + width
    spy = mock.patch.object(
        sumsets, "_conv_kronecker", wraps=sumsets._conv_kronecker
    )
    crossover = 1 if kronecker else 10**9
    with mock.patch.object(sumsets, "_KRONECKER_MIN_SHIFTS", crossover):
        with spy as kron:
            got = sumsets._conv(a, b, lo, hi)
    keep = (1 << hi + 1) - 1
    assert kron.called == (kronecker and bool(a & keep) and bool(b & keep))
    assert got == (full >> lo) & ((1 << hi - lo + 1) - 1)


# -- run walks ---------------------------------------------------------------


def _run_operand(rng: random.Random, g: int) -> set[int]:
    """Residue classes mod g on a stretch, with holes and stray points."""
    n, first = rng.randint(1, 400), rng.randint(0, 60)
    classes = set(rng.sample(range(g), rng.randint(1, g)))
    xs = {x for x in range(first, first + n) if x % g in classes}
    xs -= set(rng.sample(sorted(xs), min(len(xs), rng.randint(0, 12))))
    top = first + n + 1
    return xs | set(rng.sample(range(top), min(top, rng.randint(0, 12))))


def _unplan(plan: list[list[int]], g: int) -> set[int]:
    """The points a plan covers: 2**k points of step g from each offset."""
    return {p + j * g for k, ps in enumerate(plan) for p in ps for j in range(1 << k)}


@given(
    st.integers(1, 30),
    st.integers(0, 2**32),
    st.booleans(),
    st.sampled_from(["whole", "inside", "above"]),
    st.integers(0, 300),
)
@settings(max_examples=150, deadline=None)
def test_conv_walks_runs_like_naive_sums(g, seed, square, cut, width):
    rng = random.Random(seed)
    xs = _run_operand(rng, g)
    ys = xs if square else _run_operand(rng, g)
    a = _bits(xs)
    b = a if square else _bits(ys)
    sums = pair_sums(xs, ys)
    top = max(sums, default=0)
    lo = {"whole": 0, "inside": rng.randint(0, top), "above": top + 1 + width}[cut]
    hi = None if cut == "whole" else lo + width
    # every operand listed as runs, and the shift-or kernel throughout
    with mock.patch.object(sumsets, "_RUN_MIN_POPCOUNT", 1):
        for bits in (a, b):
            shifts, plan = sumsets._plan(bits, g)
            if plan is not None:
                assert _unplan(plan, g) == _positions(bits)
                assert shifts == sum(map(len, plan)) + len(plan) - 1
        with mock.patch.object(sumsets, "_KRONECKER_MIN_SHIFTS", 10**9):
            got = sumsets._conv(a, b, lo, hi, g)
    assert _positions(got) == {
        v - lo for v in sums if v >= lo and (hi is None or v <= hi)
    }


def test_plan_doubles_each_run():
    # step 5: a run of 13 points from 2, a lone point at 100, a run of 4 from
    # 101; 13 takes 8 points from 2 and from 2 + 5 * 5, 4 one offset
    xs = [2 + 5 * j for j in range(13)] + [100] + [101 + 5 * j for j in range(4)]
    with mock.patch.object(sumsets, "_RUN_MIN_POPCOUNT", 1):
        shifts, plan = sumsets._plan(_bits(xs), 5)
    assert plan == [[100], [], [101], [2, 27]]
    assert shifts == 4 + 3
    # one run per set bit, or a small operand: walked bit by bit
    assert sumsets._plan(_bits(range(0, 400, 2)), 1) == (200, None)
    assert sumsets._plan(_bits(range(0, 60)), 1) == (60, None)


def test_period_reads_the_moduli():
    s = union(congruence(4, (1,)), finite([0, 7]))
    assert sumsets._period(s, 100) == 4
    assert sumsets._period(Affine(-1, 3, union(s, congruence(6, (5,)))), 100) == 12
    # a dilation is an intersection with a congruence
    assert sumsets._period(scale_set(half_tail(-5), 3), 100) == 3
    assert sumsets._period(finite([1, 5, 9]), 100) == 1
    # a period past the span walks in steps of 1
    assert sumsets._period(congruence(999_983, (5,)), 10**5) == 1


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=8),
    st.integers(1, 3),
    st.integers(-40, 40),
    st.integers(0, 30),
)
@settings(max_examples=80)
def test_windowed_matches_naive_fold(xs, h, lo, width):
    win = Window(lo, lo + width)
    r = max(win.radius, 30)
    got = windowed_hfold_sum(finite(xs), h, win, r)
    assert list(got.members) == sorted(windowed_fold(finite(xs), h, win, r))
    assert got.complete


def test_windowed_edge_cases():
    # the window starts at -gen_radius, so with h = 1 the engine reads its
    # bitset from bit 0
    r = windowed_hfold_sum(finite([3, 5]), 1, Window(-9, 9), 9)
    assert r.members == (3, 5) and r.complete
    # the window reaches far left of the smallest sum
    r = windowed_hfold_sum(half_tail(4), 2, Window(-20, 12), 20)
    assert r.members == tuple(range(8, 13)) and r.complete
    # an empty sumset in the window, from an empty and a nonempty set
    r = windowed_hfold_sum(finite([30]), 2, Window(-10, 10), 40)
    assert r.members == () and r.complete
    r = windowed_hfold_sum(finite([]), 3, Window(-10, 10), 40)
    assert r.members == () and r.complete
    # one-point windows, in and out
    assert windowed_hfold_sum(finite([1, 4]), 2, Window(5, 5), 8).members == (5,)
    assert windowed_hfold_sum(finite([1, 4]), 2, Window(6, 6), 8).members == ()


# -- window-cut folds ---------------------------------------------------------

# a finite set, and one with a bound below, reach windows left of h times
# their least member and past their reach; the two-sided sets are read at
# the edge of the generation radius
_FOLD_SETS = [
    finite([-7, -3, 0, 4, 9, 13, 20]),
    union(congruence(7, (2, 5)), finite([-6, 1, 3, 10])),
    union(half_tail(12), finite([-9, -2, 4, 7])),
    intersect(cofinite([-12, 0, 3, 9]), congruence(3, (0,))),
]
_FOLD_R = 40


def _fold_windows(s, h):
    least, most = bounds(s)
    wins = [Window(-9, 23), Window(_FOLD_R - 12, _FOLD_R)]
    if least is not None:
        wins += [Window(h * least - 12, h * least + 9)]
        wins += [Window(h * least - 30, h * least - 1)]
    if most is not None:
        wins += [Window(h * most - 5, h * most + 20)]
        wins += [Window(h * most + 1, h * most + 30)]
    return wins


@pytest.mark.parametrize("crossover", [1, 3, 4096])
@pytest.mark.parametrize("h", range(1, 7))
@pytest.mark.parametrize("s", _FOLD_SETS, ids=lambda s: type(s).__name__)
def test_windowed_cut_folds_match_oracle(s, h, crossover):
    # crossover 1 and 3 square with Kronecker products; 4096 adds one
    # summand at a time with the shift-or loop
    with mock.patch.object(sumsets, "_KRONECKER_MIN_SHIFTS", crossover):
        for win in _fold_windows(s, h):
            r = max(win.radius, _FOLD_R)
            got = windowed_hfold_sum(s, h, win, r)
            assert list(got.members) == sorted(windowed_fold(s, h, win, r)), win


@pytest.mark.parametrize("h", range(2, 9))
@pytest.mark.parametrize("squaring", [False, True])
def test_fold_order_follows_the_crossover(h, squaring):
    xs = [0, 3, 7, 12, 13]
    base = _bits(xs)
    # (h - 1) times the base's shift-or count, its popcount of 5, is at
    # most 35: a crossover of 1 squares, 4096 not
    crossover = 1 if squaring else 4096
    calls = []
    conv = sumsets._conv

    def spy(a, b, lo=0, hi=None, g=1):
        calls.append((a, b))
        return conv(a, b, lo, hi, g)

    win = Window(0, 13 * h)
    with mock.patch.object(sumsets, "_KRONECKER_MIN_SHIFTS", crossover):
        with mock.patch.object(sumsets, "_conv", spy):
            got = windowed_hfold_sum(finite(xs), h, win, win.radius)
    assert set(got.members) == fold_values(xs, h)
    if squaring:
        squares = sum(a is b for a, b in calls)
        assert squares == h.bit_length() - 1
        assert len(calls) - squares == h.bit_count() - 1
    else:
        assert len(calls) == h - 1
        assert all(base in (a, b) for a, b in calls)


# periodic terms, a term whose period passes the span, and dilated tails
_PERIODIC_SETS = [
    union(congruence(7, (1, 4)), finite([-40, -3, 9, 15, 22, 58])),
    union(congruence(30, (0, 7, 11, 29)), finite(range(-50, 50, 13))),
    union(congruence(999_983, (5, 17)), finite([-20, 3, 44])),
    scale_set(half_tail(-5), 3),
    scale_set(tail(2, 4), 6),
    union(scale_set(half_tail(10), 4), finite([-7, -1])),
]


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("s", _PERIODIC_SETS, ids=str)
def test_windowed_periodic_folds_match_oracle(s, h):
    for win in (Window(-60, 60), Window(100, 180), Window(-290, -200)):
        got = windowed_hfold_sum(s, h, win, 300)
        assert list(got.members) == sorted(windowed_fold(s, h, win, 300)), win


def test_periodic_dense_fold_makes_no_kronecker_product():
    # a congruence and 32 points outside it, on a 4e4 window: the base's
    # classes mod 7 are a few long runs, so no product needs Kronecker
    rng = random.Random(7)
    pool = [x for x in range(-600, 601) if x % 7 not in (1, 4)]
    s = union(congruence(7, (1, 4)), finite(rng.sample(pool, 32)))
    win = Window(-20_000, 20_000)
    r = default_radius(win, 2)
    with mock.patch.object(
        sumsets, "_conv_kronecker", wraps=sumsets._conv_kronecker
    ) as kron:
        got = windowed_hfold_sum(s, 2, win, r)
    assert not kron.called
    # Kronecker products, forced, give the same sums
    with mock.patch.object(sumsets, "_KRONECKER_MIN_SHIFTS", 1):
        assert windowed_hfold_sum(s, 2, win, r) == got


def test_windowed_result_is_read_without_listing_members():
    # a finite set of 200 points spread over a 4e4-point window closes by
    # no rule; its 2-fold sum is kept as the window mask of the last fold
    rng = random.Random(7)
    xs = rng.sample(range(-20_000, 20_000), 200)
    win = Window(-20_000, 19_999)
    r = windowed_hfold_sum(finite(xs), 2, win, default_radius(win, 2))
    assert r.bits >> r.window.size == 0
    sums = {x for x in pair_sums(xs, xs) if win.lo <= x <= win.hi}
    points = [rng.choice(sorted(sums)) for _ in range(24)]
    points += [rng.randint(win.lo, win.hi) for _ in range(24)]
    sub = Window(-1_234, 5_678)
    with mock.patch.object(
        sumsets, "mask_members", wraps=sumsets.mask_members
    ) as decode:
        answers = [query(r, x) for x in points]
        got = window_mask(r, sub)
    assert not decode.called
    assert answers == [IN if x in sums else OUT for x in points]
    assert got == sum(1 << x - sub.lo for x in sums if sub.lo <= x <= sub.hi)


def test_query_bisects_members():
    r = windowed_hfold_sum(finite([2, 7]), 2, Window(-5, 20), 30)
    assert r.members == (4, 9, 14) and r.complete
    for x in r.members:
        assert query(r, x) == IN
    for x in (-5, 3, 5, 13, 15, 20):
        assert query(r, x) == OUT
    r = windowed_hfold_sum(congruence(5, (1,)), 2, Window(-6, 6), 20)
    assert r.members == (-3, 2) and not r.complete
    assert [query(r, x) for x in (-6, -3, 0, 2, 6)] == [
        out_up_to(20),
        IN,
        out_up_to(20),
        IN,
        out_up_to(20),
    ]


# -- representation counts --------------------------------------------------


def test_rep_count_frozen():
    got = [representation_count(finite([0, 1, 3]), 2, x).count for x in range(7)]
    assert got == [1, 2, 1, 2, 2, 0, 1]


@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=5),
    st.integers(2, 3),
    st.integers(0, 20),
)
@settings(max_examples=60)
def test_rep_count_matches_exhaustion(xs, h, x):
    got = representation_count(finite(xs), h, x)
    assert got.exact
    assert got.count == rep_count(xs, h, x)


def test_rep_count_infinite():
    r = representation_count(congruence(2, (0,)), 2, 4)
    assert r.is_infinite and r.count is None


def test_rep_count_bounded_above_counts_the_mirror():
    # down_tail(0) has no lower bound, so its count is read off the mirror
    # [0, inf) at -x: the pairs (0, 5), (1, 4), ..., (5, 0)
    assert representation_count(down_tail(0), 2, -5) == RepCount(6, exact=True)


def test_rep_count_unbounded_both_ways_is_a_lower_bound():
    # with no bound either way and no closed 2-fold sum, the count comes
    # from a radius window and is only a lower bound
    s = union(congruence(1000003, [0]), finite(range(0, 60, 2)))
    assert representation_count(s, 2, 1) == RepCount(0, exact=False)
    # 2Z + 2Z = 2Z holds no odd number, so the count of 7 is settled
    assert representation_count(congruence(2, [0]), 2, 7) == RepCount(0)


def test_rep_count_mult():
    s = finite([2, 3, 6])
    assert representation_count(s, 2, 6, mode="mult").count == 2
    assert representation_count(s, 2, 4, mode="mult").count == 1
    with pytest.raises(DomainError):
        representation_count(finite([0, 2]), 2, 4, mode="mult")
    with pytest.raises(DomainError):
        representation_count(s, 2, 0, mode="mult")
    with pytest.raises(DomainError):
        representation_count(s, 2, 6, mode="other")


def test_rep_count_range_cap():
    with pytest.raises(CapError):
        representation_count(half_tail(0), 2, 10**6)


def test_rep_count_and_product_need_h_at_least_1():
    for build in (
        lambda: representation_count(finite([1]), 0, 2),
        lambda: representation_count(finite([1]), 0, 2, mode="mult"),
    ):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == "h must be >= 1, got 0"


# -- multiplicative counts --------------------------------------------------


def test_mult_target_cap_precedes_trial_division(monkeypatch):
    cap = sumsets._MULT_TARGET_CAP
    # the cap itself is admitted
    assert representation_count(finite([10**5]), 2, cap, mode="mult").count == 1
    calls = []
    monkeypatch.setattr(
        sumsets, "_signed_divisors", lambda v: calls.append(v) or ()
    )
    for x in (cap + 1, -(cap + 1), 10**18):
        with pytest.raises(CapError):
            representation_count(cofinite([0]), 2, x, mode="mult")
    assert calls == []


@pytest.mark.parametrize("v", [0, 1, -1, 2, 12, -36, 97, 360, -1001])
def test_signed_divisors_by_exhaustion(v):
    expected = [d for d in range(-abs(v), abs(v) + 1) if d and v % d == 0]
    assert sorted(sumsets._signed_divisors(v)) == expected


def _count_divisor_calls(monkeypatch) -> Counter:
    seen: Counter = Counter()
    divisors = sumsets._signed_divisors
    monkeypatch.setattr(
        sumsets, "_signed_divisors", lambda v: seen.update((v,)) or divisors(v)
    )
    return seen


def test_mult_folds_trial_divide_each_value_once(monkeypatch):
    seen = _count_divisor_calls(monkeypatch)
    # 720,720 has 240 divisors: every depth re-meets the same quotients
    assert representation_count(cofinite([0]), 4, 720720, mode="mult").count
    assert seen and max(seen.values()) == 1


_nonzero = st.integers(-12, 12).filter(bool)


@given(
    st.one_of(
        st.lists(_nonzero, min_size=1, max_size=5).map(finite),
        st.lists(_nonzero, max_size=3).map(lambda xs: cofinite([0, *xs])),
    ),
    st.integers(2, 4),
    st.integers(-60, 60).filter(bool),
)
@settings(max_examples=80)
def test_mult_counts_and_products_match_exhaustion(s, h, x):
    # every factor of a representation of x divides it
    values = [v for v in materialize(s, Window(-abs(x), abs(x))) if x % v == 0]
    expected = rep_count(values, h, x, combine=math.prod)
    assert representation_count(s, h, x, mode="mult").count == expected


# -- basis order ------------------------------------------------------------


def _flat(report):
    return [(v.h, v.covers, v.witness) for v in report.verdicts]


def test_basis_order_frozen():
    win = Window(-30, 30)
    rep = basis_order(union(congruence(3, (0,)), finite([1])), 5, win)
    assert rep.exact_order == 3 and rep.exact_order_certified
    assert _flat(rep) == [
        (1, False, -1),
        (2, False, -1),
        (3, True, None),
        (4, True, None),
        (5, True, None),
    ]
    assert all(v.certified for v in rep.verdicts)

    rep = basis_order(union(congruence(4, (0,)), finite([1])), 5, win)
    assert rep.exact_order == 4 and rep.exact_order_certified
    assert _flat(rep) == [
        (1, False, -1),
        (2, False, -1),
        (3, False, -1),
        (4, True, None),
        (5, True, None),
    ]


_basis_sets = [
    union(congruence(3, (0,)), finite([1])),
    union(finite(range(-3, 4)), congruence(11, (0,))),
    union(finite([0, 2, 3, -5]), congruence(13, (1, 6))),
    union(half_tail(6), finite([0, -3])),
    finite([0, 1, 5]),
    # no rule closes folds of large finite sets: these come back windowed
    finite(random.Random(1).sample(range(-40, 40), 30)),
    finite(random.Random(2).sample(range(-90, 90), 26)),
]


@pytest.mark.parametrize("s", _basis_sets)
def test_basis_order_witnesses_match_oracle(s):
    # windowed folds hold by definition the sums of members within
    # default_radius; the sets whose folds close have their finite part and
    # period within the window radius, so that radius reaches a
    # representation of every window sum
    win = Window(-20, 20)
    rep = basis_order(s, 4, win)
    for v in rep.verdicts:
        fold = windowed_fold(s, v.h, win, default_radius(win, v.h))
        expected = next((x for x in spiral(win) if x not in fold), None)
        assert (v.witness, v.covers) == (expected, expected is None)


def test_basis_order_no_cover():
    rep = basis_order(congruence(2, (0,)), 3, Window(-10, 10))
    assert rep.exact_order is None
    assert all(not v.covers and v.certified for v in rep.verdicts)


def test_basis_order_certifies_a_gap_of_a_complete_enumeration():
    # 30 multiples of 3 in [-45, 42]: past the Finite rule's cap no
    # rewrite closes the 2-fold sum, but every member lies within the
    # generation radius, so the enumeration is complete
    s = finite(range(-45, 45, 3))
    win = Window(-20, 20)
    rep = basis_order(s, 3, win)
    for v in rep.verdicts[1:]:
        r = default_radius(win, v.h)
        assert r >= 45
        fold = fold_values(s.elements, v.h)
        expected = next(x for x in spiral(win) if x not in fold)
        assert (v.covers, v.certified, v.witness) == (False, True, expected)
        assert v.evidence == f"complete (R={r})"
    assert rep.exact_order is None

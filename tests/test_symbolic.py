"""Term language invariants: normalization, membership, subset soundness."""

import dataclasses
import itertools
import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from intersets import symbolic
from intersets import (
    ALL,
    EMPTY,
    CapError,
    DomainError,
    Window,
    affine,
    bounds,
    cofinite,
    congruence,
    contains,
    down_tail,
    finite,
    half_tail,
    intersect,
    is_subset,
    materialize,
    negate,
    normalize,
    scale_set,
    shift,
    tail,
    union,
)
from intersets.symbolic import (
    EXPAND_CAP,
    MATERIALIZE_CAP,
    Affine,
    Cofinite,
    Congruence,
    Finite,
    HalfTail,
    Intersection,
    Tail,
    Union,
    _co_interval,
    _primitive_congruence,
    co_interval_bounds,
    count_in_interval,
    mask_members,
    spiral_first,
    spiral_key,
    window_bits,
)
from intersets.serialize import set_to_json
from oracles import members, primitive_congruence_by_divisors
from oracles import spiral as oracle_spiral

ints = st.integers(-30, 30)


def _srt(xs):
    # raw nodes keep their element tuples sorted and deduplicated
    return tuple(sorted(set(xs)))


finites = st.lists(ints, max_size=5).map(lambda xs: Finite(_srt(xs)))
cofinites = st.lists(ints, max_size=4).map(lambda xs: Cofinite(_srt(xs)))
congruences = st.tuples(
    st.integers(1, 10), st.lists(st.integers(0, 29), min_size=1, max_size=4)
).map(lambda t: Congruence(t[0], _srt(r % t[0] for r in t[1])))
tails = st.tuples(st.integers(-10, 10), st.integers(1, 8)).map(lambda t: Tail(*t))
halves = st.integers(-10, 10).map(HalfTail)

base_sets = st.one_of(finites, cofinites, congruences, tails, halves)

raw_sets = st.recursive(
    base_sets,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(Union),
        st.tuples(kids, kids).map(Intersection),
        st.tuples(st.sampled_from((1, -1)), st.integers(-8, 8), kids).map(
            lambda t: Affine(t[0], t[1], t[2])
        ),
    ),
    max_leaves=4,
)

# deeper terms with three-part unions, for the normal-form properties
deep_sets = st.recursive(
    base_sets,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(Union),
        st.tuples(kids, kids, kids).map(Union),
        st.tuples(kids, kids).map(Intersection),
        st.tuples(st.sampled_from((1, -1)), st.integers(-8, 8), kids).map(
            lambda t: Affine(t[0], t[1], t[2])
        ),
    ),
    max_leaves=8,
)

PROBE = list(range(-60, 61))

# terms at the expansion cap, which deep_sets never reach: two-sided tails
# with gaps up to four times EXPAND_CAP, rays within three times it,
# excluded intervals of even length, and points near where those edges
# fall, so that rays and finite points cut wide gaps below the cap
_CAP = EXPAND_CAP
_EDGES = (_CAP // 2, _CAP, 2 * _CAP, 3 * _CAP)
edge_points = st.sampled_from(_EDGES).flatmap(
    lambda e: st.tuples(st.sampled_from((e, -e)), st.integers(-6, 6))
).map(sum)
spots = st.one_of(st.integers(-3 * _CAP, 3 * _CAP), edge_points)


@st.composite
def gap_unions(draw):
    """A union around one wide excluded interval [a, b], cut near its ends
    by a ray or by points, with classes and points inside."""
    a = draw(st.integers(-3 * _CAP, _CAP))
    b = a + draw(st.integers(_CAP - 20, 2 * _CAP))
    cut = draw(st.integers(-20, _CAP + 20))
    rays = st.sampled_from((HalfTail(a + cut), down_tail(b - cut)))
    near = st.one_of(st.integers(a, a + 6), st.integers(b - 6, b), st.integers(a, b))
    parts = [_co_interval(a, b), Finite(_srt(draw(st.lists(near, max_size=8))))]
    parts += draw(st.lists(rays, max_size=1))
    parts += draw(st.lists(st.one_of(congruences, raw_sets), max_size=2))
    return Union(tuple(draw(st.permutations(parts))))


wide_leaves = st.one_of(
    base_sets,
    gap_unions(),
    st.tuples(
        st.integers(-20, 20), st.integers(_CAP // 2 - 3, 2 * _CAP)
    ).map(lambda t: Tail(*t)),
    spots.map(HalfTail),
    spots.map(down_tail),
    st.tuples(
        spots, st.one_of(st.integers(1, 8), st.integers(_CAP // 2 - 2, _CAP))
    ).map(lambda t: _co_interval(t[0], t[0] + 2 * t[1] - 1)),
    st.lists(edge_points, min_size=1, max_size=6).map(lambda xs: Finite(_srt(xs))),
)
wide_sets = gap_unions() | st.recursive(
    wide_leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=4).map(lambda ps: Union(tuple(ps))),
        st.tuples(kids, kids).map(Intersection),
        st.tuples(st.sampled_from((1, -1)), st.integers(-8, 8), kids).map(
            lambda t: Affine(t[0], t[1], t[2])
        ),
    ),
    max_leaves=8,
)


def _unmarked(s):
    """A fresh copy of the term tree, carrying no normal-form mark."""
    if isinstance(s, (Union, Intersection)):
        return type(s)(tuple(_unmarked(p) for p in s.parts))
    if isinstance(s, Affine):
        return Affine(s.unit, s.shift, _unmarked(s.inner))
    return dataclasses.replace(s)


@given(st.one_of(deep_sets, wide_sets))
@settings(max_examples=300)
def test_normalize_is_idempotent(s):
    # normalize returns a marked normal form as is, so recompute it uncached
    n = normalize(s)
    assert symbolic._normalize.__wrapped__(n) == n


def test_ray_cuts_a_wide_gap_below_the_cap():
    # the ray leaves ten points of the tail's gap, which are listed, and
    # the even class absorbs half of them
    n = union(tail(0, EXPAND_CAP + 1), half_tail(-EXPAND_CAP + 10), congruence(2, [0]))
    assert n == cofinite(range(-EXPAND_CAP + 1, -EXPAND_CAP + 10, 2))
    assert symbolic._normalize.__wrapped__(n) == n


def test_class_absorbs_points_of_a_wide_gap():
    # the even class covers 0, so both unions are one set with one form
    wide = (tail(0, EXPAND_CAP + 1), congruence(2, [0]))
    n = union(*wide, finite([0, 1]))
    assert n == union(*wide, finite([1]))
    assert n == Union((Finite((1,)), Congruence(2, (0,)), Tail(0, EXPAND_CAP + 1)))


def test_classes_past_the_lcm_cap_merge_until_nothing_changes():
    # 4Z and 4Z + 2 merge into 2Z, which with the odd class covers Z
    wide = (congruence(1009, [0]), congruence(1013, [0]))
    halves = (congruence(4, [0]), congruence(4, [2]), congruence(2, [1]))
    assert union(*halves, *wide) == ALL
    # 3039Z lies in 3Z; without it the lcm 3 * 1009 fits under the cap
    n = union(congruence(3, [0]), congruence(3039, [0]), congruence(1009, [0]))
    assert n == union(congruence(3, [0]), congruence(1009, [0]))
    assert isinstance(n, Congruence) and n.modulus == 3027


def test_class_pairs_past_the_lcm_cap_meet_exactly_where_residues_agree():
    # every pair of these moduli has an lcm past LCM_CAP, and gcds 2, 6, 30
    moduli = (999958, 1000002, 999990, 1000020)
    rng = random.Random(35)
    for _ in range(400):
        m1, m2 = rng.sample(moduli, 2)
        r1 = rng.sample(range(40), rng.randint(1, 3))
        r2 = rng.sample(range(40), rng.randint(1, 3))
        a, b = congruence(m1, r1), congruence(m2, r2)
        n = intersect(a, b)
        g = math.gcd(m1, m2)
        agree = [(x, y) for x in r1 for y in r2 if (x - y) % g == 0]
        assert (n == EMPTY) == (not agree)
        if agree:
            # the CRT lift of an agreeing pair is a common member
            x, y = agree[0]
            k = (y - x) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
            assert contains(n, x + k * m1) and contains(b, x + k * m1)


def test_classes_merge_only_while_the_merged_class_fits_the_expand_cap(monkeypatch):
    # 2Z | 999958Z + 1 would be one class of 499,980 residues
    parts = (Congruence(2, (0,)), Congruence(999958, (1,)))
    built = []
    primitive = symbolic._primitive_congruence
    monkeypatch.setattr(
        symbolic,
        "_primitive_congruence",
        lambda m, rs: built.append(len(rs)) or primitive(m, rs),
    )
    assert symbolic._merge_congruences(list(parts)) == list(parts)
    assert max(built) == 1
    u = union(*parts)
    assert u == Union(parts)
    for x in random.Random(35).sample(range(-3 * 999958, 3 * 999958), 2000):
        assert contains(u, x) == (x % 2 == 0 or x % 999958 == 1)
    # 2Z | mZ + 1 has m/2 + 1 residues mod an even m: the cap's edge
    edge = 2 * (EXPAND_CAP - 1)
    merged = union(congruence(2, [0]), congruence(edge, [1]))
    assert isinstance(merged, Congruence) and len(merged.residues) == EXPAND_CAP
    apart = union(congruence(2, [0]), congruence(edge + 2, [1]))
    assert apart == Union((Congruence(2, (0,)), Congruence(edge + 2, (1,))))


def test_punctured_class_keeps_its_run_canonical():
    # the three contiguous punctures of the class are a Tail in normal form;
    # a raw Cofinite here was normalized to a Tail only on a second pass
    n = normalize(Intersection((Congruence(10, (1, 2, 3)), Cofinite((-9, -8, -7, 5)))))
    assert n == Intersection((Congruence(10, (1, 2, 3)), Tail(-8, 2)))
    assert symbolic._normalize.__wrapped__(n) == n
    interval = Tail(0, EXPAND_CAP)  # kept as an interval descriptor
    far = (-EXPAND_CAP - 9, -EXPAND_CAP - 8, -EXPAND_CAP - 7, 0)
    n = normalize(Intersection((interval, Cofinite(far))))
    assert n == Intersection((Tail(-EXPAND_CAP - 8, 2), interval))
    assert symbolic._normalize.__wrapped__(n) == n


@pytest.mark.parametrize("gap", [1, 7, EXPAND_CAP + 1])
def test_wide_co_intervals_apart_keep_the_gap_between_them(gap):
    # Z \ [-(CAP-1), CAP-1] and Z \ [a, a + 2CAP - 2] with `gap` points
    # between: a listed segment, or past EXPAND_CAP a lazy pair of rays
    a = EXPAND_CAP + gap
    left, right = tail(0, EXPAND_CAP), tail(a + EXPAND_CAP - 1, EXPAND_CAP)
    n = intersect(left, right)
    mid = intersect(half_tail(EXPAND_CAP), down_tail(a - 1))
    assert isinstance(mid, Finite if gap <= EXPAND_CAP else Intersection)
    assert n == union(down_tail(-EXPAND_CAP), mid, half_tail(a + 2 * EXPAND_CAP - 1))
    window = Window(-EXPAND_CAP - 3, a + 2 * EXPAND_CAP + 2)
    brute = [x for x in members(left, window) if contains(right, x)]
    assert members(n, window) == brute


def test_class_cut_by_a_wide_interval_lists_only_its_points():
    # the interval holds 2 * 10**11 - 1 points but one point of the class
    n = intersect(congruence(10**12 + 1, [5]), tail(0, 10**11))
    assert n == Intersection((Congruence(10**12 + 1, (5,)), Cofinite((5,))))
    # two residues stepped through [-19999, 19999], from one end to the other
    c, t = congruence(7001, [1004, 5997]), tail(0, 2 * EXPAND_CAP)
    assert contains(c, -2 * EXPAND_CAP + 1) and contains(c, 2 * EXPAND_CAP - 1)
    n = intersect(c, t)
    window = Window(-2 * EXPAND_CAP - 5, 2 * EXPAND_CAP + 5)
    cut = [x for x in members(c, window) if not contains(t, x)]
    assert n == Intersection((c, Cofinite(tuple(cut))))
    assert members(n, window) == [x for x in members(c, window) if contains(t, x)]


def test_intersection_with_a_union_past_the_distribute_cap_stays_lazy():
    # classes of distinct primes past LCM_CAP stay apart in a union
    primes = [p for p in range(1009, 1200) if all(p % d for d in range(2, 35))]
    win = Window(-40, 2500)
    cap = symbolic._DISTRIBUTE_CAP
    for k, lazy in ((cap, False), (cap + 1, True)):
        u = union(*(congruence(p, [0]) for p in primes[:k]))
        assert isinstance(u, Union) and len(u.parts) == k
        n = intersect(u, half_tail(1))
        assert (isinstance(n, Intersection) and u in n.parts) == lazy
        assert members(n, win) == [x for x in members(u, win) if x >= 1]


@given(deep_sets)
@settings(max_examples=100)
def test_normalize_returns_marked_terms_as_they_are(s):
    n = normalize(s)
    before = symbolic._normalize.cache_info()
    assert normalize(n) is n
    after = symbolic._normalize.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@given(deep_sets)
@settings(max_examples=100)
def test_the_mark_is_invisible(s):
    n = normalize(s)
    u = _unmarked(n)
    assert n._normal and not u._normal
    assert u == n and hash(u) == hash(n) and repr(u) == repr(n)
    assert set_to_json(u) == set_to_json(n)


def _edges(s) -> set[int]:
    """The points next to which membership in a raw term may change."""
    if isinstance(s, (Union, Intersection)):
        return set().union(*map(_edges, s.parts))
    if isinstance(s, Affine):
        return {s.unit * x + s.shift for x in _edges(s.inner)}
    if isinstance(s, Tail):
        return {s.center - s.radius, s.center + s.radius}
    if isinstance(s, HalfTail):
        return {s.threshold}
    if isinstance(s, (Finite, Cofinite)):
        e = s.elements if isinstance(s, Finite) else s.excluded
        return set(e[:1] + e[-1:])
    return set()


@given(st.one_of(raw_sets, wide_sets))
@settings(max_examples=200)
def test_normalize_preserves_membership(s):
    n = normalize(s)
    near = {x + d for x in _edges(s) for d in range(-2, 3)}
    assert all(contains(s, x) == contains(n, x) for x in near.union(PROBE))


@given(raw_sets, raw_sets)
@settings(max_examples=100)
def test_union_and_intersection_membership(a, b):
    u = union(a, b)
    i = intersect(a, b)
    for x in range(-40, 41):
        assert contains(u, x) == (contains(a, x) or contains(b, x))
        assert contains(i, x) == (contains(a, x) and contains(b, x))


@given(raw_sets, st.sampled_from((1, -1)), st.integers(-10, 10))
@settings(max_examples=100)
def test_affine_membership(s, unit, t):
    img = affine(unit, t, s)
    assert all(contains(img, unit * x + t) == contains(s, x) for x in PROBE)


@given(raw_sets, st.integers(-5, 5).filter(lambda k: k != 0))
@settings(max_examples=100)
def test_scale_membership(s, k):
    scaled = scale_set(s, k)
    for x in range(-30, 31):
        assert contains(scaled, k * x) == contains(s, x)
    for y in range(-30, 31):
        if y % k != 0:
            assert not contains(scaled, y)


@given(raw_sets, raw_sets)
@settings(max_examples=150)
def test_is_subset_never_lies(a, b):
    na, nb = normalize(a), normalize(b)
    if is_subset(na, nb):
        assert all(contains(nb, x) for x in PROBE if contains(na, x))


@given(raw_sets)
@settings(max_examples=80)
def test_materialize_agrees_with_contains(s):
    got = materialize(normalize(s), Window(-25, 25))
    assert got == [x for x in range(-25, 26) if contains(s, x)]
    assert got == sorted(got)


@given(raw_sets)
@settings(max_examples=80)
def test_absorbing_elements(s):
    assert union(s, ALL) == ALL
    assert intersect(s, EMPTY) == EMPTY
    assert union(s, EMPTY) == normalize(s)
    assert intersect(s, ALL) == normalize(s)


@given(raw_sets)
@settings(max_examples=80)
def test_bounds_bracket_every_member(s):
    n = normalize(s)
    lo, hi = bounds(n)
    for x in PROBE:
        if contains(n, x):
            assert lo is None or lo <= x
            assert hi is None or x <= hi


@given(raw_sets, st.integers(0, 40))
@settings(max_examples=150)
def test_min_max_element_match_a_contains_scan(s, search):
    # the same range as a scan of `contains` from the known bound inward;
    # a narrow search leaves some members of these sets out of reach, but
    # one congruence class cut by a ray is read at any distance, and its
    # end lies within one period of the bound
    lo, hi = bounds(s)
    if (cls := symbolic._ray_class(s)) is not None:
        search = max(search, cls.modulus)
    least = None if lo is None else next(
        (x for x in range(lo, lo + search + 1) if contains(s, x)), None
    )
    most = None if hi is None else next(
        (x for x in range(hi, hi - search - 1, -1) if contains(s, x)), None
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "_ELEMENT_SEARCH", search)
        assert symbolic.min_element(s) == least
        assert symbolic.max_element(s) == most


def test_min_max_element_read_one_mask(monkeypatch):
    # no member within the search of either bound: the whole range is read
    far = Intersection((congruence(70001, (0,)), HalfTail(1)))
    term = Union((HalfTail(10**6), far))
    calls = []
    monkeypatch.setattr(symbolic, "contains", lambda s, x: calls.append(x))
    assert symbolic.min_element(term) is None
    assert symbolic.max_element(negate(term)) is None
    assert symbolic.min_element(HalfTail(10**6)) == 10**6
    assert symbolic.max_element(Union((down_tail(-5), finite([7])))) == 7
    # residue arithmetic reads no mask and no membership
    assert symbolic.min_element(far) == 70001
    assert calls == []


def test_min_max_element_of_a_class_cut_by_a_ray_at_any_distance():
    assert symbolic.min_element(intersect(congruence(70001, [0]), half_tail(1))) == 70001
    assert symbolic.max_element(intersect(congruence(70001, [0]), down_tail(-1))) == -70001
    assert symbolic.min_element(intersect(congruence(70001, [5, 9]), half_tail(10))) == 70006
    assert symbolic.max_element(intersect(congruence(70001, [5, 9]), down_tail(-10))) == -69992


@pytest.mark.parametrize("m", range(1, 13))
def test_min_max_element_of_a_class_cut_by_a_ray_match_a_window_scan(m):
    # every nonempty residue set of the small moduli, and one or two
    # residues of the larger ones; rays on both sides of each residue
    sizes = range(1, m + 1) if m <= 5 else (1, 2)
    for size in sizes:
        for res in itertools.combinations(range(m), size):
            cls = Congruence(m, res)
            for t in range(-m - 2, m + 3):
                # the end lies within one period of the ray's bound
                up, down = HalfTail(t), down_tail(t)
                least = materialize(intersect(cls, up), Window(t, t + m - 1))[0]
                most = materialize(intersect(cls, down), Window(t - m + 1, t))[-1]
                for pair in ((cls, up), (up, cls)):
                    assert symbolic.min_element(Intersection(pair)) == least
                for pair in ((cls, down), (down, cls)):
                    assert symbolic.max_element(Intersection(pair)) == most


def test_bounds_visits_each_part_once(monkeypatch):
    # eight nested intersections: one visit per term, not 2 ** 8 at the core
    term = HalfTail(0)
    for k in range(1, 9):
        term = Intersection((term, Finite(tuple(range(-k, 20 + k)))))
    seen = []
    walk = symbolic.bounds
    monkeypatch.setattr(symbolic, "bounds", lambda s: seen.append(s) or walk(s))
    assert symbolic.bounds(term) == (0, 20)
    assert len(seen) == 17


def test_canonical_forms():
    """Distinct spellings of the same set normalize to one representative."""
    assert congruence(6, (1, 3, 5)) == congruence(2, (1,))
    assert union(
        congruence(6, (1,)), congruence(6, (3,)), congruence(6, (5,))
    ) == congruence(2, (1,))
    assert tail(0, 3) == cofinite((-2, -1, 0, 1, 2))
    assert union(half_tail(5), down_tail(4)) == ALL
    assert union(half_tail(6), down_tail(2)) == tail(4, 2)
    assert affine(-1, 0, half_tail(3)) == down_tail(-3)
    assert intersect(congruence(2, (0,)), congruence(3, (0,))) == congruence(6, (0,))
    assert finite([]) == EMPTY
    assert cofinite([]) == ALL
    assert shift(finite([1, 2]), 3) == finite([4, 5])
    assert negate(half_tail(2)) == down_tail(-2)


def test_is_subset_known_relations():
    assert is_subset(congruence(4, (0,)), congruence(2, (0,)))
    assert not is_subset(congruence(2, (0,)), congruence(4, (0,)))
    assert is_subset(finite([2, 4]), congruence(2, (0,)))
    assert is_subset(half_tail(5), half_tail(3))
    assert not is_subset(half_tail(3), half_tail(5))
    assert is_subset(EMPTY, finite([1]))


def test_domain_gates():
    with pytest.raises(DomainError):
        normalize(Congruence(0, (0,)))
    with pytest.raises(DomainError):
        normalize(Tail(0, 0))
    with pytest.raises(DomainError):
        normalize(Affine(2, 0, HalfTail(0)))
    with pytest.raises(DomainError):
        scale_set(half_tail(0), 0)


# -- smallest period of a congruence ----------------------------------------


@st.composite
def residue_sets(draw):
    """(m, residues) with m <= 400: a set of period d repeated m/d times,
    then perhaps one residue added or removed, each residue then moved by a
    multiple of m (negative or >= m)."""
    d = draw(st.integers(1, 400))
    m = d * draw(st.integers(1, 400 // d))
    base = draw(st.sets(st.integers(0, d - 1), max_size=40))
    res = sorted(b + j * d for b in base for j in range(m // d))
    edit = draw(st.sampled_from(("keep", "add", "remove")))
    if edit == "add":
        res.append(draw(st.integers(0, m - 1)))
    elif edit == "remove" and res:
        res.pop(draw(st.integers(0, len(res) - 1)))
    moves = draw(st.lists(st.integers(-3, 3), min_size=len(res), max_size=len(res)))
    return m, [r + k * m for r, k in zip(res, moves)]


@given(residue_sets())
@example((1, [7]))
@example((12, [0, 3, 6, 9, 1]))  # periodic but for one added residue
@example((12, [0, 4, 8, 1, 5]))  # periodic but for one removed residue
@settings(max_examples=400)
def test_primitive_congruence_matches_divisor_walk(case):
    m, residues = case
    got = _primitive_congruence(m, residues)
    assert got == primitive_congruence_by_divisors(m, residues)


def test_primitive_congruence_huge_moduli():
    assert congruence(10**18, [5]) == Congruence(10**18, (5,))
    assert congruence(2 * 10**18, [5, 5 + 10**18]) == Congruence(10**18, (5,))
    assert congruence(3 * 10**18, [-1, 10**18 - 1, 2 * 10**18 - 1]) == Congruence(
        10**18, (10**18 - 1,)
    )
    p = 2**61 - 1
    assert congruence(p, [3, 7, p + 1]) == Congruence(p, (1, 3, 7))
    assert congruence(p, [-1]) == Congruence(p, (p - 1,))


def test_primitive_congruence_never_factors_the_modulus(monkeypatch):
    seen = []
    real = symbolic._divisors
    monkeypatch.setattr(symbolic, "_divisors", lambda n: seen.append(n) or real(n))
    cases = [
        (10**18, [5]),
        (2 * 10**18, [5, 5 + 10**18]),
        (2**61 - 1, [3, 7]),
        (720, range(0, 720, 3)),
        (720, [0, 1, 2, 360, 361, 362]),
    ]
    for m, residues in cases:
        size = len({r % m for r in residues})
        _primitive_congruence(m, residues)
        assert seen and all(n <= size for n in seen)
        seen.clear()


# -- spiral order -----------------------------------------------------------


# (lo, width) of windows left of 0, right of 0, across 0 and one point wide
_spiral_windows = st.one_of(
    st.tuples(st.integers(-80, -41), st.integers(0, 40)),
    st.tuples(st.integers(1, 40), st.integers(0, 40)),
    st.tuples(st.integers(-40, 0), st.integers(40, 80)),
    st.tuples(st.integers(-40, 40), st.just(0)),
)


@given(st.integers(-40, 40), st.integers(0, 40))
@settings(max_examples=150)
def test_spiral_matches_oracle(lo, width):
    # draining a full window mask with spiral_first walks the whole spiral
    win = Window(lo, lo + width)
    expected = oracle_spiral(win)
    bits, order = (1 << (width + 1)) - 1, []
    while (x := spiral_first(bits, lo)) is not None:
        order.append(x)
        bits &= ~(1 << (x - lo))
    assert order == expected
    assert sorted(expected, key=spiral_key) == expected


@given(st.integers(-40, 40), st.integers(0, 40), st.integers(1, 7), st.integers(0, 6))
@settings(max_examples=100)
def test_first_in_spiral_matches_oracle(lo, width, m, r):
    win = Window(lo, lo + width)
    bits = sum(1 << (x - lo) for x in range(lo, lo + width + 1) if x % m == r)
    expected = next((x for x in oracle_spiral(win) if x % m == r), None)
    assert spiral_first(bits, lo) == expected


@given(_spiral_windows, st.data())
@settings(max_examples=300)
def test_spiral_first_matches_oracle(window, data):
    lo, width = window
    win = Window(lo, lo + width)
    order = oracle_spiral(win)
    assert sorted(order, key=spiral_key) == order
    bits = data.draw(
        st.one_of(
            st.just(0),
            st.integers(0, (1 << (width + 1)) - 1),
            st.sets(st.integers(0, width), max_size=3).map(
                lambda ix: sum(1 << i for i in ix)
            ),
        )
    )
    expected = next((x for x in order if bits >> (x - lo) & 1), None)
    assert spiral_first(bits, lo) == expected


@pytest.mark.parametrize("lo, hi", [(-9, 9), (-5, 30), (-30, 5)])
@pytest.mark.parametrize("a", [1, 3, 5])
def test_spiral_first_breaks_ties_to_the_negative(lo, hi, a):
    bits = (1 << (-a - lo)) | (1 << (a - lo))
    assert spiral_first(bits, lo) == -a
    assert spiral_first(bits | 1 << -lo, lo) == 0


# -- excluded intervals -----------------------------------------------------


@given(
    st.integers(-3 * EXPAND_CAP, 3 * EXPAND_CAP),
    st.one_of(st.integers(0, 12), st.integers(EXPAND_CAP - 2, 2 * EXPAND_CAP + 2)),
)
@settings(max_examples=150)
def test_co_interval_bounds_round_trip(a, width):
    b = a + width
    s = _co_interval(a, b)
    assert normalize(s) == s
    assert co_interval_bounds(s) == (a, b)


def test_co_interval_bounds_rejects_other_shapes():
    assert co_interval_bounds(Cofinite((1, 3))) is None
    assert co_interval_bounds(HalfTail(4)) is None
    assert co_interval_bounds(normalize(congruence(3, (0,)))) is None
    assert co_interval_bounds(ALL) is None


# -- window bitsets ---------------------------------------------------------

# moduli past every window below; residues near 0 mod m, so that members
# still fall inside the windows
wide_congruences = st.integers(100, 10**6).flatmap(
    lambda m: st.lists(st.integers(-120, 120), min_size=1, max_size=3).map(
        lambda rs: Congruence(m, _srt(r % m for r in rs))
    )
)
kernel_leaves = st.one_of(
    base_sets, wide_congruences, st.integers(-10, 10).map(down_tail)
)
kernel_terms = st.recursive(
    kernel_leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda ps: Union(tuple(ps))),
        st.lists(kids, min_size=1, max_size=3).map(
            lambda ps: Intersection(tuple(ps))
        ),
        st.tuples(st.sampled_from((1, -1)), st.integers(-8, 8), kids).map(
            lambda t: Affine(t[0], t[1], t[2])
        ),
    ),
    max_leaves=5,
)
# dilations by 2, 3 and -2 produce the Intersection and Affine shapes of
# scaled families
kernel_sets = st.tuples(kernel_terms, st.sampled_from((1, 2, 3, -2))).map(
    lambda t: t[0] if t[1] == 1 else scale_set(t[0], t[1])
)


@given(kernel_sets, st.integers(-100, 100), st.integers(0, 80))
@example(Finite((-3, 4)), 5, 20)  # window right of 0
@example(HalfTail(-4), -30, 12)  # window left of 0
@example(scale_set(Congruence(4, (1,)), 3), 9, 0)  # one-point windows
@example(scale_set(Congruence(4, (1,)), 3), 10, 0)
# 421,678 residues, which the `members` oracle reads through contains
@example(
    scale_set(Union((Congruence(4, (0, 1, 2)), Congruence(140559, (0,)))), 3), 0, 60
)
@settings(max_examples=300)
def test_window_bits_lists_materialize(s, lo, width):
    hi = lo + width
    bits = window_bits(s, lo, hi)
    assert 0 <= bits < 1 << (width + 1)
    got = [lo + i for i in range(width + 1) if bits >> i & 1]
    assert got == members(s, Window(lo, hi))
    assert materialize(s, Window(lo, hi)) == got


@st.composite
def _switch_masks(draw):
    """A mask whose popcount k sits next to the decoder's density switch,
    8k = bit_length +- 1: the top bit and k - 1 bits below it."""
    k = draw(st.integers(1, 40))
    n = 8 * k + draw(st.sampled_from((-1, 1)))
    below = draw(st.sets(st.integers(0, n - 2), min_size=k - 1, max_size=k - 1))
    return sum(1 << i for i in below) | 1 << n - 1


@given(
    st.one_of(
        st.just(0),
        st.integers(0, 400).map(lambda i: 1 << i),
        st.integers(1, 400).map(lambda n: (1 << n) - 1),
        _switch_masks(),
        st.integers(0, 1 << 400),
    ),
    st.integers(-(10**6), 10**6),
)
@example(0, -5)
@example((1 << 16) | 1, -3)  # 8 * 2 = 17 - 1: sparse
@example((1 << 14) | 1, -3)  # 8 * 2 = 15 + 1: dense
@settings(max_examples=300)
def test_mask_members_matches_a_bit_scan(bits, lo):
    assert mask_members(bits, lo) == [
        lo + i for i in range(bits.bit_length()) if bits >> i & 1
    ]


def test_window_bits_ignores_the_modulus_size():
    # raw shapes, never normalized
    assert window_bits(Congruence(10**18, (5,)), -100, 100) == 1 << 105
    # a residue just below the modulus is the point -3
    assert window_bits(Congruence(10**18, (10**18 - 3,)), -100, 100) == 1 << 97
    assert window_bits(Congruence(10**18, (200,)), -100, 100) == 0


def _no_window_bits(*args):
    raise AssertionError("window_bits ran")


def test_materialize_slices_a_finite_in_a_full_window(monkeypatch):
    # the bisect slice, never a mask as wide as the window
    monkeypatch.setattr(symbolic, "window_bits", _no_window_bits)
    w = Window(-(10**6), 10**6 - 1)
    assert w.size == MATERIALIZE_CAP
    points = (-(10**6), 7, 10**6 - 1)
    assert materialize(Finite(points), w) == list(points)


def test_materialize_checks_its_cap_before_any_work(monkeypatch):
    monkeypatch.setattr(symbolic, "window_bits", _no_window_bits)
    with pytest.raises(CapError) as err:
        materialize(ALL, Window(-(10**6), 10**6 + 1))
    assert str(err.value) == (
        "window of size 2000002 exceeds materialization cap 2000000"
    )


# -- interval counts ---------------------------------------------------------


def test_count_in_interval_reads_tail_parts_of_an_intersection():
    # the class's punctures at -9, -8, -7 normalize to Tail(-8, 2)
    s = normalize(Intersection((Congruence(10, (1, 2, 3)), Tail(-8, 2))))
    assert isinstance(s, Intersection)
    assert count_in_interval(s, -20, 20) == 9
    assert count_in_interval(s, -20, 20) == len(members(s, Window(-20, 20)))


def test_count_in_interval_leaves_two_classes_past_the_lcm_cap_open():
    # no rewrite meets 1009Z + 1 and 1013Z + 2; counting by one class alone
    # would miscount their single common point in every 1009 * 1013
    s = intersect(congruence(1009, [1]), congruence(1013, [2]))
    assert isinstance(s, Intersection)
    assert count_in_interval(s, 0, 1009 * 1013 - 1) is None


def test_is_infinite_reads_two_classes_past_the_lcm_cap_as_unproven():
    # they meet in one point per 1009 * 1013, but no rewrite shows it
    s = intersect(congruence(1009, [1]), congruence(1013, [2]))
    assert symbolic.is_infinite(s) is False


rays = st.one_of(halves, st.integers(-10, 10).map(down_tail))
# a gap past EXPAND_CAP is an interval descriptor, which stays undecided
wide_tails = st.integers(-10, 10).map(lambda c: Tail(c, EXPAND_CAP))
co_parts = st.one_of(tails, wide_tails, cofinites, rays)


@given(
    congruences,
    st.lists(co_parts, min_size=1, max_size=3),
    st.integers(-40, 40),
    st.integers(0, 80),
)
@example(Congruence(10, (1, 2, 3)), [Tail(-8, 2)], -20, 40)
@settings(max_examples=200)
def test_count_in_interval_matches_a_scan(c, parts, a, width):
    b = a + width
    raw = Intersection((c, *parts))
    for s in (raw, normalize(raw)):
        n = count_in_interval(s, a, b)
        if n is not None:
            assert n == len(members(s, Window(a, b)))

"""Brute-force references the tests compare library output against.

Everything here is deliberately naive: plain Python set arithmetic over
elements listed one `contains` call at a time, no bitsets, no closed forms.
"""

import random
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product

from intersets import (
    ALL,
    EMPTY,
    OpenTheoremReport,
    Window,
    contains,
)
from intersets.symbolic import Congruence


def fold_values(values, h: int) -> set[int]:
    """All sums of h elements drawn from values with repetition."""
    vals = set(values)
    if not vals:
        return set()
    acc = set(vals)
    for _ in range(h - 1):
        acc = {a + b for a in acc for b in vals}
    return acc


def pair_sums(xs, ys) -> set[int]:
    """All sums x + y, x from xs and y from ys."""
    return {x + y for x in xs for y in ys}


def members(s, window: Window) -> list[int]:
    """The members of s in the window, by a `contains` scan."""
    return [x for x in range(window.lo, window.hi + 1) if contains(s, x)]


def windowed_fold(s, h: int, window: Window, radius: int) -> set[int]:
    """Window slice of the h-fold sums of the set's members within radius."""
    values = members(s, Window(-radius, radius))
    return {x for x in fold_values(values, h) if window.lo <= x <= window.hi}


def windowed_sum(x, y, window: Window, radius: int) -> set[int]:
    """Window slice of the sums a + b of members a of x and b of y within
    radius."""
    near = Window(-radius, radius)
    ys = members(y, near)
    sums = {a + b for a in members(x, near) for b in ys}
    return {v for v in sums if window.lo <= v <= window.hi}


def layer_fold_intersection(family, h: int, window: Window, Q: int, radius: int):
    """Window slice of the intersection over q = 1..Q of the h-fold sums of
    layer q, each folded from the layer's members within radius."""
    acc = windowed_fold(family.set_at(1), h, window, radius)
    for q in range(2, Q + 1):
        acc &= windowed_fold(family.set_at(q), h, window, radius)
    return acc


def recheck_certificate(family, h: int, window: Window, Q: int, radius: int):
    """(certified, brute force): the window members of the closed form of
    family.certificate(h), and the depth-Q layer fold intersection it
    claims to equal there.  Works for any family kind with a certificate;
    Q and radius must reach far enough that deeper layers and farther
    summands change nothing in the window."""
    cert = family.certificate(h)
    assert cert is not None
    got = set(members(cert.closed_form, window))
    return got, layer_fold_intersection(family, h, window, Q, radius)


def rep_count(values, h: int, x: int, combine=sum) -> int:
    """Ordered h-tuple representations of x, by exhaustion; combine is sum
    for additive counts and math.prod for multiplicative ones."""
    return sum(
        1 for combo in product(sorted(set(values)), repeat=h) if combine(combo) == x
    )


def lattice_fold(points, h: int) -> set[tuple[int, ...]]:
    pts = {tuple(p) for p in points}
    acc = set(pts)
    for _ in range(h - 1):
        acc = {tuple(a + b for a, b in zip(p, q)) for p in acc for q in pts}
    return acc


def spiral(window: Window) -> list[int]:
    return sorted(range(window.lo, window.hi + 1), key=lambda x: (abs(x), x >= 0))


def primitive_congruence_by_divisors(m: int, residues):
    """The residue set mod m at its smallest period, by walking every
    divisor d of m upward and testing whether the shift d fixes the set."""
    res = sorted({r % m for r in residues})
    if not res:
        return EMPTY
    if len(res) == m:
        return ALL
    for d in range(1, m):
        if m % d == 0 and {(r + d) % m for r in res} == set(res):
            return Congruence(d, tuple(sorted({r % d for r in res})))
    return Congruence(m, tuple(res))


def vector_min_samples(seed: int, count: int) -> list[list[tuple[int, ...]]]:
    """The vector-min scenario's samples, drawn with randint and randrange."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 8)
        d = rng.randint(1, 5)
        vs = []
        for _ in range(k):
            v = [rng.randint(0, 9) for _ in range(d)]
            v[rng.randrange(d)] = rng.randint(1, 9)
            vs.append(tuple(v))
        out.append(vs)
    return out


def norm_excess(k: int, d: int) -> dict[tuple, int]:
    """|v_1 + ... + v_k|^2 - sum |v_i|^2 as the vector-min scenario keys
    it: the squares cancel, and each coordinate c leaves 2 x_ic x_jc for
    every pair i < j."""
    return {
        ((i, c), (j, c)): 2
        for c in range(d)
        for i in range(k)
        for j in range(i + 1, k)
    }


def min_norm_check(vectors) -> tuple[int, int, int, bool]:
    """The fields of a MinNormCheck, coordinate by coordinate: k, the
    squared norm of the sum, k times the least squared norm, and whether
    the first is at least the second."""
    k = len(vectors)
    total = [0] * len(vectors[0])
    for v in vectors:
        for i, x in enumerate(v):
            total[i] += x
    sum_norm_sq = sum(x * x for x in total)
    k_times_min_sq = k * min(sum(x * x for x in v) for v in vectors)
    return k, sum_norm_sq, k_times_min_sq, sum_norm_sq >= k_times_min_sq


def _in_any(pairs):
    """Membership in the union of the open intervals (a, b) of pairs: x is
    inside when an interval that starts below x ends above it."""
    pairs = sorted(pairs)
    starts = [a for a, _ in pairs]
    reach = list(accumulate((b for _, b in pairs), max))

    def inside(x) -> bool:
        below = bisect_left(starts, x)
        return below > 0 and reach[below - 1] > x

    return inside


def _components(pairs, inside) -> list[tuple[Fraction, Fraction]]:
    """The open set {x : inside(x)} as sorted disjoint open intervals.

    The set must be a union of open intervals whose endpoints are among
    those of pairs.  Membership is constant between consecutive endpoints,
    so each gap is tested at its midpoint; two gaps that share an endpoint
    join only when that endpoint is inside too.
    """
    ends = sorted({x for pair in pairs for x in pair})
    out = []
    for p, q in zip(ends, ends[1:]):
        if not inside((p + q) / 2):
            continue
        if out and out[-1][1] == p and inside(p):
            out[-1] = (out[-1][0], q)
        else:
            out.append((p, q))
    return out


def _union(pairs):
    return _components(pairs, _in_any(pairs))


def _meet(xs, ys):
    in_x, in_y = _in_any(xs), _in_any(ys)
    return _components(xs + ys, lambda x: in_x(x) and in_y(x))


def _interval_fold(pairs, h: int):
    """The h-fold Minkowski sum of the union of pairs, one summand at a
    time: (a, b) + (c, d) = (a + c, b + d) for every pair of intervals."""
    layer = _union(pairs)
    fold = layer
    for _ in range(h - 1):
        fold = _union({(a + c, b + d) for a, b in fold for c, d in layer})
    return fold


@lru_cache(maxsize=None)
def _open_intersections(points: tuple, h: int, Q: int):
    """The depth-Q intersections of the punctured and the full layer folds,
    kept per (points, h, Q) so a grid of windows folds each run once."""
    trunc = primed = None
    for q in range(1, Q + 1):
        r = Fraction(1, q)
        fold = _interval_fold([p for b in points for p in ((b - r, b), (b, b + r))], h)
        pfold = _interval_fold([(b - r, b + r) for b in points], h)
        trunc = fold if trunc is None else _meet(trunc, fold)
        primed = pfold if primed is None else _meet(primed, pfold)
    return trunc, primed


def open_theorem_reference(points, h: int, Q: int, value_window) -> OpenTheoremReport:
    """verify_open_theorem's report in Fractions, from membership tests
    alone: layers built from their pairs, h-folds by repeated Minkowski
    sums, every union and intersection read off at endpoints and gap
    midpoints, base sums from fold_values."""
    lo, hi = Fraction(value_window[0]), Fraction(value_window[1])
    trunc, primed = _open_intersections(tuple(points), h, Q)

    visible = tuple((a, b) for a, b in trunc if b > lo and a < hi)
    bound = Fraction(h, Q)
    centers = sorted(fold_values(points, h))
    in_primed = _in_any(primed)

    all_centered = bool(visible)
    all_punctured = all_within = True
    for a, b in visible:
        inside = [s for s in centers if a < s < b]
        if len(inside) != 1:
            all_centered = False
        if inside:
            all_punctured = False
        if not any(s - bound <= a and b <= s + bound for s in centers):
            all_within = False

    return OpenTheoremReport(
        h=h,
        Q=Q,
        window=(lo, hi),
        components=visible,
        radius_bound=bound,
        empty=not visible,
        all_centered=all_centered,
        all_punctured=all_punctured,
        all_within_radius=all_within,
        primed_contains_base=all(in_primed(s) for s in centers if lo <= s <= hi),
    )

"""Exact rational machinery: perturbed-integer point families and open
interval families, with a Minkowski-sum engine for unions of open intervals.

Point families live on a common denominator D = lcm(1..r_max), so every
set operation and distance bound is integer arithmetic.  Every summand of
an h-fold sum splits into a base point plus a perturbation chosen
independently, so layer folds are computed as (sums of h base points)
plus (sums of h perturbations) instead of tuples over the full point set.

Interval families use a common denominator too: D = Q times the lcm of
the base points' denominators, so every endpoint b +- 1/Q of layer Q is
an integer over D, and the interval helpers (merge, Minkowski sum,
h-fold) run on those integers; Fractions appear only in reports.

Both families decrease: layer q + 1 lies inside layer q, since its
perturbations 1/r run over r >= q + 1 and its intervals b +- 1/(q+1) are
narrower.  h-fold sums of nested sets nest too, so the depth-Q
intersection of the layer folds is the fold of layer Q alone, and each
verifier folds that one layer.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import ConstructionError, InputError, InvariantError

Interval = tuple[Fraction, Fraction]


def _exact(values, error: type, what: str) -> tuple:
    """The values, if each is an int or a Fraction; floats and bools raise."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise error(f"{what} must be ints or Fractions, got {x!r}")
    return tuple(values)


def _validate_base_points(points) -> tuple:
    pts = _exact(tuple(points), ConstructionError, "base points")
    if not pts:
        raise ConstructionError("at least one base point is required")
    if pts[0] <= 1:
        raise ConstructionError(f"the first base point must exceed 1, got {pts[0]}")
    for a, b in zip(pts, pts[1:]):
        if b - a <= 2:
            raise ConstructionError(
                f"base points must rise by more than 2, got gap {b - a} "
                f"between {a} and {b}"
            )
    return pts


# ---------------------------------------------------------------------------
# rational perturbation families


@dataclass(frozen=True)
class RationalPerturbFamily:
    """Layers {b_n + 1/r : q <= |r| <= r_max}, optionally keeping b_n itself.

    Base points are strictly increasing integers with b_1 > 1 and gaps
    above 2, which keeps the per-point perturbation clusters disjoint.
    """

    base_points: tuple[int, ...]
    include_base: bool = False
    r_max: int = 16

    def __post_init__(self):
        pts = _validate_base_points(self.base_points)
        if any(not isinstance(b, int) for b in pts):
            raise ConstructionError("base points must be integers")
        object.__setattr__(self, "base_points", pts)
        if self.r_max < 1:
            raise ConstructionError(f"r_max must be >= 1, got {self.r_max}")


def _perturbation_offsets(q: int, r_max: int, denom: int, with_zero: bool) -> list[int]:
    offs = {denom // r for r in range(q, r_max + 1)}
    offs |= {-o for o in offs}
    if with_zero:
        offs.add(0)
    return sorted(offs)


def _fold_values(values, h: int) -> set:
    """Distinct sums of h values drawn with repetition."""
    return {sum(c) for c in combinations_with_replacement(sorted(values), h)}


def _window_points(folds, base_scaled, lo_s: int, hi_s: int) -> set[int]:
    """Every sv + f inside [lo_s, hi_s], bisecting the sorted folds per sv."""
    folds = sorted(folds)
    points: set[int] = set()
    for sv in base_scaled:
        i, j = bisect_left(folds, lo_s - sv), bisect_right(folds, hi_s - sv)
        points.update(map(sv.__add__, folds[i:j]))
    return points


def _base_sums(points, h: int, lo, hi) -> list:
    """Sums of h base points (with repetition) inside [lo, hi], sorted."""
    pts = sorted(points)
    found = set()

    def rec(start: int, left: int, acc):
        if left == 0:
            if lo <= acc <= hi:
                found.add(acc)
            return
        for i in range(start, len(pts)):
            nxt = acc + pts[i]
            if nxt + (left - 1) * pts[i] > hi:
                break
            if nxt + (left - 1) * pts[-1] < lo:
                continue
            rec(i, left - 1, nxt)

    rec(0, h, 0)
    return sorted(found)


def _stretch_scan(
    points: list[int], bases: list[int], limit: int
) -> tuple[int | None, list[int]]:
    """Over sorted points and sorted base sums (nonempty when the points
    are): the largest distance from a point to its nearest base sum, None
    for no points, and the points farther than limit from every base sum,
    ascending.

    Bisections read each stretch between neighbouring base sums a < b
    whole: its farthest points are the two around (a + b)/2, and its points
    more than limit from both ends are one run.  On the outer rays the
    farthest point is the extreme one and the far points are one run.
    """
    if not points:
        return None, []
    first, last = bases[0], bases[-1]
    max_dist = max(first - points[0], points[-1] - last, 0)
    far = points[: bisect_left(points, first - limit)]
    for a, b in zip(bases, bases[1:]):
        i = bisect_right(points, (a + b) // 2)
        for x in points[max(i - 1, 0) : i + 1]:
            if a <= x <= b:
                max_dist = max(max_dist, min(x - a, b - x))
        far += points[bisect_right(points, a + limit) : bisect_left(points, b - limit)]
    far += points[bisect_right(points, last + limit) :]
    return max_dist, far


@dataclass(frozen=True)
class RationalTheoremReport:
    """Exact truncation data for one (h, Q) rational-perturbation run."""

    h: int
    Q: int
    r_max: int
    window: tuple[Fraction, Fraction]
    base_sums: tuple[Fraction, ...]
    intersection_size: int
    base_in_intersection: bool
    missing_base: tuple[Fraction, ...]
    bound: Fraction
    max_distance: Fraction | None
    bound_ok: bool
    violations: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return self.base_in_intersection and self.bound_ok


def verify_rational_theorem(
    family: RationalPerturbFamily,
    h: int,
    Q: int,
    value_window: tuple,
) -> RationalTheoremReport:
    """Truncated layer-fold intersection against sums of base points.

    Checks that every window sum of h base points survives all Q layer
    folds (each layer admits zero-sum perturbations such as 1/q - 1/q and
    1/q - 1/(2q) - 1/(2q), which needs r_max >= 2Q), and that everything
    surviving lies within h/Q of a base sum.  All arithmetic is integer
    on the common denominator D = lcm(1..r_max): the window is scaled once
    to the integer bounds ceil(lo*D) and floor(hi*D), each layer's fold
    values are sorted and bisected per base sum, and a distance d/D exceeds
    h/Q iff d > h*D // Q, which `_stretch_scan` tests once per stretch
    between neighbouring base sums, not once per point.  Layer q is the
    base sums plus F_q, the h-fold sums of its perturbations.  Each
    layer's offsets hold the next one's, so the layers nest and only layer
    Q's window points are built; offsets that fail to nest raise
    InvariantError.
    """
    if h < 2:
        raise InputError(f"h must be >= 2, got {h}")
    if not 2 * h < Q:
        raise InputError(f"the truncation depth must satisfy 2h < Q, got Q={Q}")
    r_max = family.r_max
    if r_max < 2 * Q:
        raise InputError(
            f"r_max={r_max} cannot express the zero-sum perturbations; "
            f"need r_max >= 2Q = {2 * Q}"
        )
    lo, hi = map(Fraction, _exact(value_window[:2], InputError, "window edges"))
    if lo >= hi:
        raise InputError(f"empty value window [{lo}, {hi}]")

    denom = math.lcm(*range(1, r_max + 1))
    # sv + f is an integer, so it lies in [lo*D, hi*D] iff in [lo_s, hi_s]
    lo_s, hi_s = math.ceil(lo * denom), math.floor(hi * denom)
    base = _base_sums(family.base_points, h, lo - h, hi + h)
    base_scaled = [int(s) * denom for s in base]

    # layer q is the union of sv + F_q over the base sums, so nested
    # offsets nest the layers and their intersection is layer Q
    offsets = [
        set(_perturbation_offsets(q, r_max, denom, family.include_base))
        for q in range(1, Q + 1)
    ]
    if not all(outer >= inner for outer, inner in zip(offsets, offsets[1:])):
        raise InvariantError("perturbation offsets do not nest across the layers")
    intersection = _window_points(
        _fold_values(offsets[-1], h), base_scaled, lo_s, hi_s
    )

    in_window = [s for s in base_scaled if lo_s <= s <= hi_s]
    missing = [s for s in in_window if s not in intersection]

    # an integer distance d exceeds h*D/Q iff it exceeds h*D // Q
    max_dist, far = _stretch_scan(sorted(intersection), base_scaled, h * denom // Q)

    return RationalTheoremReport(
        h=h,
        Q=Q,
        r_max=r_max,
        window=(lo, hi),
        base_sums=tuple(Fraction(s, denom) for s in in_window),
        intersection_size=len(intersection),
        base_in_intersection=not missing,
        missing_base=tuple(Fraction(s, denom) for s in missing),
        bound=Fraction(h, Q),
        max_distance=None if max_dist is None else Fraction(max_dist, denom),
        bound_ok=not far,
        violations=tuple(Fraction(x, denom) for x in far),
    )


# ---------------------------------------------------------------------------
# open interval unions
#
# The helpers below take sorted tuples of open (lo, hi) pairs and never
# coerce endpoints; verify_open_theorem runs them on integers over a
# common denominator.


def _merge(pairs) -> tuple:
    """Sorted disjoint union of the nonempty pairs.  Overlapping intervals
    merge; intervals that merely touch stay apart, since (a,b) | (b,c)
    misses b."""
    merged: list = []
    for a, b in sorted(p for p in pairs if p[0] < p[1]):
        if merged and a < merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return tuple(merged)


def _minkowski(xs, ys) -> tuple:
    """Merged pairwise sums; (a,b)+(c,d) = (a+c, b+d)."""
    return _merge((a + c, b + d) for a, b in xs for c, d in ys)


def _contains(intervals, x) -> bool:
    # only the last interval starting below x can hold it
    i = bisect_left(intervals, (x, x))
    return i > 0 and x < intervals[i - 1][1]


def _hfold(intervals, h: int) -> tuple:
    acc = intervals
    for _ in range(h - 1):
        acc = _minkowski(acc, intervals)
    return acc


def _layer(points, r, punctured: bool) -> tuple:
    if punctured:
        return _merge(p for b in points for p in ((b - r, b), (b, b + r)))
    return _merge((b - r, b + r) for b in points)


@dataclass(frozen=True)
class OpenTheoremReport:
    """Truncated interval-fold intersection around base-point sums."""

    h: int
    Q: int
    window: tuple[Fraction, Fraction]
    components: tuple[Interval, ...]
    radius_bound: Fraction
    empty: bool
    all_centered: bool
    all_punctured: bool
    all_within_radius: bool
    primed_contains_base: bool

    @property
    def ok(self) -> bool:
        expected_shape = self.all_punctured if self.h == 1 else self.all_centered
        return expected_shape and self.all_within_radius and self.primed_contains_base


def verify_open_theorem(
    points, h: int, Q: int, value_window: tuple
) -> OpenTheoremReport:
    """Exact interval engine check of the punctured and full variants.

    For h >= 2 the depth-Q intersection of layer folds, which is the fold
    of layer Q since the layers nest, must be a union of intervals each
    containing one sum of h base points and staying within h/Q of it; at
    h = 1 the same data shows the punctured layers closing in on the
    (absent) base points.  The full-interval variant must keep every base
    sum at every h.

    All arithmetic is integer on the common denominator D = Q times the
    lcm of the base points' denominators, so layer Q is the int pairs
    (bD - D/Q, bD) and (bD, bD + D/Q), or (bD - D/Q, bD + D/Q)
    unpunctured, and the bound h/Q is h*D/Q.  Endpoints and base sums are
    integers, so the window is compared through the integers next to
    lo*D and hi*D.  Endpoints become Fractions only in the report.
    """
    pts = _validate_base_points(points)
    if h < 1:
        raise InputError(f"h must be >= 1, got {h}")
    if Q < 1:
        raise InputError(f"Q must be >= 1, got {Q}")
    lo, hi = map(Fraction, _exact(value_window[:2], InputError, "window edges"))
    if lo >= hi:
        raise InputError(f"empty value window ({lo}, {hi})")

    denom = Q * math.lcm(*(b.denominator for b in pts))
    scaled = [int(b * denom) for b in pts]

    def depth_q(punctured: bool) -> tuple:
        return _hfold(_layer(scaled, denom // Q, punctured), h)

    trunc, primed = depth_q(True), depth_q(False)

    # an integer x exceeds lo*D iff it exceeds floor(lo*D), and is at least
    # lo*D iff it is at least ceil(lo*D); likewise for hi*D
    lo_s, hi_s = lo * denom, hi * denom
    lo_c, hi_f = math.ceil(lo_s), math.floor(hi_s)
    # the window selects components; a component straddling the edge is
    # analyzed whole so a center on the boundary still counts
    floor_lo, ceil_hi = math.floor(lo_s), math.ceil(hi_s)
    visible = [(a, b) for a, b in trunc if b > floor_lo and a < ceil_hi]

    bound = h * denom // Q
    # at small Q a visible component reaches past the window by more than h,
    # so the centers are taken over its whole span as well
    spans = [lo_c - h * denom, hi_f + h * denom, *(x for c in visible for x in c)]
    centers = _base_sums(scaled, h, min(spans), max(spans))

    all_centered = bool(visible)
    all_punctured = True
    all_within = True
    for a, b in visible:
        inside = [s for s in centers if a < s < b]
        if len(inside) != 1:
            all_centered = False
        if inside:
            all_punctured = False
        if not any(s - bound <= a and b <= s + bound for s in centers):
            all_within = False

    primed_ok = all(_contains(primed, s) for s in centers if lo_c <= s <= hi_f)

    return OpenTheoremReport(
        h=h,
        Q=Q,
        window=(lo, hi),
        components=tuple(
            (Fraction(a, denom), Fraction(b, denom)) for a, b in visible
        ),
        radius_bound=Fraction(h, Q),
        empty=not visible,
        all_centered=all_centered,
        all_punctured=all_punctured,
        all_within_radius=all_within,
        primed_contains_base=primed_ok,
    )

"""Exact symbolic subsets of Z.

A set is described by a small algebra of shapes: finite lists, cofinite
sets, congruence classes, two-sided tails {x : |x - c| >= r}, half tails
{x : x >= t}, unions, affine images (unit * X + shift with unit in {1,-1}),
and lazy intersections for the few shape pairs that admit no rewrite.
Every membership query is exact; windowed materialization is exact within
the window.  `normalize` brings a description to a normal form, and each
normal form is a fixed point of `normalize` at every scale.  Only the
promise that equal sets compare structurally equal is limited to desk
scale, below the expansion caps: past them a rewrite may stay lazy, and
two forms of one set may differ.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count

from .errors import CapError, DomainError

# Rewrites that would materialize more than EXPAND_CAP integers, or merge
# congruences past LCM_CAP, are left in compact/lazy form instead.
EXPAND_CAP = 10_000
LCM_CAP = 1_000_000
MATERIALIZE_CAP = 2_000_000
_DISTRIBUTE_CAP = 16
# points min_element and max_element read past a known bound
_ELEMENT_SEARCH = 65536
# entries of the normalize memo: one pass of all 16 verify scenarios
# fills 5,347 to 5,366 at seeds 0, 5 and 7
_NORMALIZE_CACHE = 1 << 16


class IntSet:
    """Base class for symbolic integer sets.  Values are immutable.

    `normalize` marks each term it returns by setting `_normal` on the
    instance.  The mark is a plain class attribute, not a dataclass field,
    so it takes no part in eq, hash or repr.
    """

    __slots__ = ()
    _normal = False

    def __contains__(self, x: int) -> bool:
        return contains(self, x)


@dataclass(frozen=True)
class Empty(IntSet):
    pass


@dataclass(frozen=True)
class Finite(IntSet):
    elements: tuple[int, ...]  # sorted, duplicate-free


@dataclass(frozen=True)
class Cofinite(IntSet):
    excluded: tuple[int, ...]  # sorted, duplicate-free


@dataclass(frozen=True)
class Congruence(IntSet):
    modulus: int
    residues: tuple[int, ...]  # sorted, within [0, modulus)


@dataclass(frozen=True)
class Tail(IntSet):
    """{x : |x - center| >= radius}, radius >= 1."""

    center: int
    radius: int


@dataclass(frozen=True)
class HalfTail(IntSet):
    """{x : x >= threshold}."""

    threshold: int


@dataclass(frozen=True)
class Union(IntSet):
    parts: tuple[IntSet, ...]


@dataclass(frozen=True)
class Affine(IntSet):
    """unit * inner + shift, unit in {1, -1}."""

    unit: int
    shift: int
    inner: IntSet


@dataclass(frozen=True)
class Intersection(IntSet):
    """Lazy intersection node, kept only when no rewrite applies."""

    parts: tuple[IntSet, ...]


EMPTY = Empty()
ALL = Cofinite(())


@dataclass(frozen=True)
class Window:
    """Inclusive integer window [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DomainError(f"window lo {self.lo} exceeds hi {self.hi}")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def radius(self) -> int:
        return max(abs(self.lo), abs(self.hi))

    def scaled(self, k: int) -> "Window":
        return Window(self.lo * k, self.hi * k)


def spiral_key(x: int) -> tuple[int, bool]:
    """Spiral order: by |x|, negatives first on ties."""
    return (abs(x), x >= 0)


@dataclass(frozen=True)
class Membership3:
    """Three-valued membership verdict: In, Out, or OutUpTo(search radius)."""

    kind: str  # 'in' | 'out' | 'out-up-to'
    radius: int = 0


IN = Membership3("in")
OUT = Membership3("out")


def out_up_to(radius: int) -> Membership3:
    return Membership3("out-up-to", radius)


# ---------------------------------------------------------------------------
# membership


def contains(s: IntSet, x: int) -> bool:
    while isinstance(s, Affine):
        x = s.unit * (x - s.shift)  # unit is its own inverse
        s = s.inner
    if isinstance(s, Empty):
        return False
    if isinstance(s, Finite):
        i = bisect_left(s.elements, x)
        return i < len(s.elements) and s.elements[i] == x
    if isinstance(s, Cofinite):
        i = bisect_left(s.excluded, x)
        return not (i < len(s.excluded) and s.excluded[i] == x)
    if isinstance(s, Congruence):
        r = x % s.modulus
        i = bisect_left(s.residues, r)
        return i < len(s.residues) and s.residues[i] == r
    if isinstance(s, Tail):
        return abs(x - s.center) >= s.radius
    if isinstance(s, HalfTail):
        return x >= s.threshold
    if isinstance(s, Union):
        return any(contains(p, x) for p in s.parts)
    if isinstance(s, Intersection):
        return all(contains(p, x) for p in s.parts)
    raise TypeError(f"not an IntSet: {s!r}")


# ---------------------------------------------------------------------------
# constructors (normalizing)


def finite(elements) -> IntSet:
    return normalize(Finite(tuple(sorted(set(map(int, elements))))))


def cofinite(excluded) -> IntSet:
    return normalize(Cofinite(tuple(sorted(set(map(int, excluded))))))


def congruence(modulus: int, residues) -> IntSet:
    return normalize(Congruence(int(modulus), tuple(sorted(set(map(int, residues))))))


def tail(center: int, radius: int) -> IntSet:
    return normalize(Tail(int(center), int(radius)))


def half_tail(threshold: int) -> IntSet:
    return HalfTail(int(threshold))


def down_tail(bound: int) -> IntSet:
    """{x : x <= bound}, canonically Affine(-1, bound, HalfTail(0))."""
    return Affine(-1, int(bound), HalfTail(0))


def union(*parts: IntSet) -> IntSet:
    return normalize(Union(tuple(parts)))


def intersect(*parts: IntSet) -> IntSet:
    return normalize(Intersection(tuple(parts)))


def affine(unit: int, shift: int, inner: IntSet) -> IntSet:
    return normalize(Affine(unit, shift, inner))


def shift(s: IntSet, t: int) -> IntSet:
    return normalize(Affine(1, t, s))


def negate(s: IntSet) -> IntSet:
    return normalize(Affine(-1, 0, s))


def scale_set(s: IntSet, k: int) -> IntSet:
    """{k * x : x in s}, exact for every nonzero integer k."""
    if k == 0:
        raise DomainError("scaling by 0 collapses the set")
    if k < 0:
        return negate(scale_set(s, -k))
    if k == 1:
        return normalize(s)
    return normalize(_scale(normalize(s), k))


def _scale(s: IntSet, k: int) -> IntSet:
    if isinstance(s, Empty):
        return s
    if isinstance(s, Finite):
        return Finite(tuple(k * e for e in s.elements))
    if isinstance(s, Congruence):
        return Congruence(k * s.modulus, tuple(sorted(k * r for r in s.residues)))
    if isinstance(s, HalfTail):
        return Intersection((Congruence(k, (0,)), HalfTail(k * s.threshold)))
    if isinstance(s, Cofinite):
        return Intersection(
            (Congruence(k, (0,)), Cofinite(tuple(k * e for e in s.excluded)))
        )
    if isinstance(s, Tail):
        return Intersection((Congruence(k, (0,)), Tail(k * s.center, k * s.radius)))
    if isinstance(s, Union):
        return Union(tuple(_scale(p, k) for p in s.parts))
    if isinstance(s, Intersection):
        return Intersection(tuple(_scale(p, k) for p in s.parts))
    if isinstance(s, Affine):
        return Affine(s.unit, k * s.shift, _scale(s.inner, k))
    raise TypeError(f"not an IntSet: {s!r}")


def as_down_tail(s: IntSet):
    """Bound b when s is the canonical form of {x : x <= b}, else None."""
    if isinstance(s, Affine) and s.unit == -1 and s.inner == HalfTail(0):
        return s.shift
    return None


# ---------------------------------------------------------------------------
# canonical ordering


_RANK = {
    Empty: 0,
    Finite: 1,
    Congruence: 2,
    Tail: 3,
    HalfTail: 4,
    Affine: 5,
    Cofinite: 6,
    Union: 7,
    Intersection: 8,
}


def _key(s: IntSet):
    r = _RANK[type(s)]
    if isinstance(s, Empty):
        return (r,)
    if isinstance(s, Finite):
        return (r, len(s.elements), s.elements)
    if isinstance(s, Congruence):
        return (r, s.modulus, s.residues)
    if isinstance(s, Tail):
        return (r, s.center, s.radius)
    if isinstance(s, HalfTail):
        return (r, s.threshold)
    if isinstance(s, Affine):
        return (r, s.unit, s.shift, _key(s.inner))
    if isinstance(s, Cofinite):
        return (r, len(s.excluded), s.excluded)
    return (r, len(s.parts), tuple(_key(p) for p in s.parts))


# ---------------------------------------------------------------------------
# small helpers on canonical shapes


def _co_interval(a: int, b: int) -> IntSet:
    """The set Z \\ [a, b], in canonical form."""
    if b < a:
        return ALL
    if a == b:
        return Cofinite((a,))
    if (a + b) % 2 == 0:
        c = (a + b) // 2
        return Tail(c, b - c + 1)
    if b - a + 1 <= EXPAND_CAP:
        return Cofinite(tuple(range(a, b + 1)))
    return Union((HalfTail(b + 1), down_tail(a - 1)))


def co_interval_bounds(s: IntSet) -> tuple[int, int] | None:
    """(a, b) when s is a shape _co_interval(a, b) returns for a <= b."""
    if isinstance(s, Tail):
        return (s.center - s.radius + 1, s.center + s.radius - 1)
    if isinstance(s, Cofinite):
        e = s.excluded
        return (e[0], e[-1]) if e and e[-1] - e[0] + 1 == len(e) else None
    if isinstance(s, Union) and len(s.parts) == 2:
        up, down = s.parts
        b = as_down_tail(down)
        if b is not None and isinstance(up, HalfTail) and b + 1 < up.threshold:
            return (b + 1, up.threshold - 1)
    return None


def _co_from_list(excluded) -> IntSet:
    e = tuple(sorted(set(excluded)))
    if not e:
        return ALL
    if e[-1] - e[0] + 1 == len(e):  # contiguous gap
        return _co_interval(e[0], e[-1])
    return Cofinite(e)


def _segment(lo: int, hi: int) -> IntSet:
    """The finite set [lo, hi], lazy beyond the expansion cap."""
    if hi < lo:
        return EMPTY
    if hi - lo + 1 <= EXPAND_CAP:
        return Finite(tuple(range(lo, hi + 1)))
    return Intersection(tuple(sorted((HalfTail(lo), down_tail(hi)), key=_key)))


def _co_desc(s: IntSet):
    """Excluded-set descriptor for cofinite-class shapes, else None.

    Returns ('list', tuple) or ('interval', a, b).
    """
    if isinstance(s, Cofinite):
        return ("list", s.excluded)
    if isinstance(s, Tail):
        a, b = co_interval_bounds(s)
        if b - a + 1 <= EXPAND_CAP:
            return ("list", tuple(range(a, b + 1)))
        return ("interval", a, b)
    return None


def _desc_intersect(d1, d2):
    """Intersection of two excluded-set descriptors; an interval end may be
    None, marking an open end."""
    if d1[0] == "list" and d2[0] == "list":
        s2 = set(d2[1])
        return ("list", tuple(x for x in d1[1] if x in s2))
    if d1[0] == "interval" and d2[0] == "interval":
        a = max((v for v in (d1[1], d2[1]) if v is not None), default=None)
        b = min((v for v in (d1[2], d2[2]) if v is not None), default=None)
        empty = a is not None and b is not None and a > b
        return ("list", ()) if empty else ("interval", a, b)
    lst = d1 if d1[0] == "list" else d2
    iv = d2 if d1[0] == "list" else d1
    return ("list", tuple(x for x in lst[1] if _within(x, iv[1], iv[2])))


def _within(x: int, a: int | None, b: int | None) -> bool:
    """a <= x <= b, where a None bound is open."""
    return (a is None or a <= x) and (b is None or x <= b)


def _primitive_congruence(m: int, residues) -> IntSet:
    """Reduce residues to the smallest representing modulus.

    If a shift d fixes the residue set mod m, the set is a union of cosets
    of the subgroup generated by d, whose order is m/d: so m/d divides both
    m and |res|.  Only the repeat counts e dividing g = gcd(m, |res|) are
    tried, largest first.  The counts that work are the divisors of the
    largest one, so the first hit gives the smallest period m/e.  Only g is
    factored, never m: the cost is O(|res|) per divisor of g, at most
    O(|res|) times the number of divisors of |res|.
    """
    res = tuple(sorted({r % m for r in residues}))
    if not res:
        return EMPTY
    n = len(res)
    if n == m:
        return ALL
    for e in reversed(_divisors(math.gcd(m, n))):
        if e == 1:
            break
        d, k = m // e, n // e
        # sorted and reduced, the set is fixed by +d (mod m) exactly when
        # each residue past the first k is d above the one k places back
        if all(b - a == d for a, b in zip(res, res[k:])):
            return Congruence(d, res[:k])
    return Congruence(m, res)


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# bounds


def bounds(s: IntSet) -> tuple[int | None, int | None]:
    """Sound (lower, upper) bounds; None marks unbounded or unknown."""
    if isinstance(s, Empty):
        return (None, None)
    if isinstance(s, Finite):
        return (s.elements[0], s.elements[-1]) if s.elements else (None, None)
    if isinstance(s, HalfTail):
        return (s.threshold, None)
    if isinstance(s, (Cofinite, Congruence, Tail)):
        return (None, None)
    if isinstance(s, Affine):
        lo, hi = bounds(s.inner)
        if s.unit == 1:
            return (
                None if lo is None else lo + s.shift,
                None if hi is None else hi + s.shift,
            )
        return (
            None if hi is None else s.shift - hi,
            None if lo is None else s.shift - lo,
        )
    if isinstance(s, Union):
        los, his = zip(*(bounds(p) for p in s.parts))
        lo = None if any(v is None for v in los) else min(los)
        hi = None if any(v is None for v in his) else max(his)
        return (lo, hi)
    if isinstance(s, Intersection):
        los, his = zip(*map(bounds, s.parts))
        lo = max((v for v in los if v is not None), default=None)
        hi = min((v for v in his if v is not None), default=None)
        return (lo, hi)
    raise TypeError(f"not an IntSet: {s!r}")


def _ray_class(s: IntSet) -> Congruence | None:
    """The congruence when s intersects one congruence with one ray."""
    if isinstance(s, Intersection) and len(s.parts) == 2:
        for c, ray in (s.parts, s.parts[::-1]):
            if isinstance(c, Congruence) and c.residues and (
                isinstance(ray, HalfTail) or as_down_tail(ray) is not None
            ):
                return c
    return None


def min_element(s: IntSet) -> int | None:
    """Smallest element when a lower bound is known and attained nearby,
    or at any distance in one congruence class cut by a ray."""
    lo, _ = bounds(s)
    if lo is None:
        return None
    c = _ray_class(s)
    if c is not None:
        return lo + min((r - lo) % c.modulus for r in c.residues)
    bits = window_bits(s, lo, lo + _ELEMENT_SEARCH)
    return lo + (bits & -bits).bit_length() - 1 if bits else None


def max_element(s: IntSet) -> int | None:
    """Largest element when an upper bound is known and attained nearby,
    or at any distance in one congruence class cut by a ray."""
    _, hi = bounds(s)
    if hi is None:
        return None
    c = _ray_class(s)
    if c is not None:
        return hi - min((hi - r) % c.modulus for r in c.residues)
    bits = window_bits(s, hi - _ELEMENT_SEARCH, hi)
    return hi - _ELEMENT_SEARCH + bits.bit_length() - 1 if bits else None


def is_infinite(s: IntSet) -> bool:
    """True when s is provably infinite; False when it is finite or unknown."""
    return unbounded(s, -1) or unbounded(s, 1)


def unbounded(s: IntSet, side: int) -> bool:
    """True when s provably has elements past every bound on one side (-1
    below, 1 above); False when it is bounded there or this is unknown."""
    if isinstance(s, (Empty, Finite)):
        return False
    if isinstance(s, Congruence):
        return bool(s.residues)
    if isinstance(s, HalfTail):
        return side == 1
    if isinstance(s, (Cofinite, Tail)):
        return True
    if isinstance(s, Affine):
        return unbounded(s.inner, side * s.unit)
    if isinstance(s, Union):
        return any(unbounded(p, side) for p in s.parts)
    if isinstance(s, Intersection):
        # one congruence class cut by finitely many points and by rays
        # that all open toward this side
        shapes = (Congruence, HalfTail, Cofinite, Tail)
        return sum(isinstance(p, Congruence) for p in s.parts) == 1 and all(
            (isinstance(p, shapes) or as_down_tail(p) is not None)
            and unbounded(p, side)
            for p in s.parts
        )
    raise TypeError(f"not an IntSet: {s!r}")


# ---------------------------------------------------------------------------
# exact interval counting (used for subset reasoning)


def count_in_interval(s: IntSet, a: int, b: int) -> int | None:
    """Exact |s intersect [a,b]|, or None when not cheaply decidable."""
    if b < a:
        return 0
    if isinstance(s, Empty):
        return 0
    if isinstance(s, Finite):
        return bisect_right(s.elements, b) - bisect_left(s.elements, a)
    if isinstance(s, Cofinite):
        inside = bisect_right(s.excluded, b) - bisect_left(s.excluded, a)
        return (b - a + 1) - inside
    if isinstance(s, Congruence):
        total = 0
        for r in s.residues:
            first = a + ((r - a) % s.modulus)
            if first <= b:
                total += (b - first) // s.modulus + 1
        return total
    if isinstance(s, Tail):
        lo_gap, hi_gap = co_interval_bounds(s)
        inside = max(0, min(b, hi_gap) - max(a, lo_gap) + 1)
        return (b - a + 1) - inside
    if isinstance(s, HalfTail):
        return max(0, b - max(a, s.threshold) + 1)
    if isinstance(s, Affine):
        if s.unit == 1:
            return count_in_interval(s.inner, a - s.shift, b - s.shift)
        return count_in_interval(s.inner, s.shift - b, s.shift - a)
    if isinstance(s, Union):
        return None
    if isinstance(s, Intersection):
        lo, hi = a, b
        congs: list[Congruence] = []
        punct: list[tuple[int, ...]] = []
        for p in s.parts:
            if isinstance(p, HalfTail):
                lo = max(lo, p.threshold)
            elif (d := as_down_tail(p)) is not None:
                hi = min(hi, d)
            elif isinstance(p, Congruence):
                congs.append(p)
            elif (co := _co_desc(p)) is not None and co[0] == "list":
                punct.append(co[1])
            else:
                return None
        if len(congs) > 1:
            return None
        if hi < lo:
            return 0
        if not congs:
            base = hi - lo + 1
            cut = {x for ex in punct for x in ex if lo <= x <= hi}
            return base - len(cut)
        c = congs[0]
        base = count_in_interval(c, lo, hi)
        cut = {x for ex in punct for x in ex if lo <= x <= hi and contains(c, x)}
        return base - len(cut)
    raise TypeError(f"not an IntSet: {s!r}")


# ---------------------------------------------------------------------------
# subset test (sound, may return False on unknown)


def is_subset(x: IntSet, y: IntSet) -> bool:
    if x == y or isinstance(x, Empty) or y == ALL:
        return True
    if isinstance(y, Empty):
        return False
    if isinstance(x, Finite):
        return all(contains(y, e) for e in x.elements)
    if isinstance(y, Finite):
        return False  # x is not finite here
    if isinstance(x, Union):
        return all(is_subset(p, y) for p in x.parts)
    d = _co_desc(y)
    if d is not None:
        if d[0] == "list":
            return all(not contains(x, e) for e in d[1])
        return count_in_interval(x, d[1], d[2]) == 0
    if isinstance(x, Intersection):
        if any(is_subset(p, y) for p in x.parts):
            return True
    if isinstance(y, Congruence):
        if isinstance(x, Congruence):
            g = math.gcd(x.modulus, y.modulus)
            ry = set(y.residues)
            for r in x.residues:
                # x's class mod its modulus covers all residues = r (mod g)
                for t in range(r % g, y.modulus, g):
                    if t not in ry:
                        return False
            return True
        return False
    if isinstance(y, HalfTail):
        lo, _ = bounds(x)
        return lo is not None and lo >= y.threshold
    if (dy := as_down_tail(y)) is not None:
        _, hi = bounds(x)
        return hi is not None and hi <= dy
    if isinstance(y, Union):
        return any(is_subset(x, p) for p in y.parts)
    if isinstance(y, Intersection):
        return all(is_subset(x, p) for p in y.parts)
    return False


# ---------------------------------------------------------------------------
# normalization


def normalize(s: IntSet) -> IntSet:
    """The canonical form of s; a term normalize returned comes back as is."""
    if s._normal:
        return s
    r = _normalize(s)
    object.__setattr__(r, "_normal", True)
    return r


@lru_cache(maxsize=_NORMALIZE_CACHE)
def _normalize(s: IntSet) -> IntSet:
    if isinstance(s, Empty):
        return EMPTY
    if isinstance(s, Finite):
        e = tuple(sorted(set(s.elements)))
        return Finite(e) if e else EMPTY
    if isinstance(s, Cofinite):
        return _co_from_list(s.excluded)
    if isinstance(s, Congruence):
        if s.modulus < 1:
            raise DomainError(f"modulus must be >= 1, got {s.modulus}")
        return _primitive_congruence(s.modulus, s.residues)
    if isinstance(s, Tail):
        if s.radius < 1:
            raise DomainError(f"tail radius must be >= 1, got {s.radius}")
        return _co_interval(*co_interval_bounds(s))
    if isinstance(s, HalfTail):
        return s
    if isinstance(s, Affine):
        return _norm_affine(s)
    if isinstance(s, Union):
        return _norm_union(s.parts)
    if isinstance(s, Intersection):
        return _norm_intersection(s.parts)
    raise TypeError(f"not an IntSet: {s!r}")


def _norm_affine(s: Affine) -> IntSet:
    if s.unit not in (1, -1):
        raise DomainError(f"affine unit must be +1 or -1, got {s.unit}")
    u, t = s.unit, s.shift
    inner = normalize(s.inner)
    if isinstance(inner, Empty):
        return EMPTY
    if u == 1 and t == 0:
        return inner
    if isinstance(inner, Finite):
        return Finite(tuple(sorted(u * e + t for e in inner.elements)))
    if isinstance(inner, Cofinite):
        return _co_from_list(u * e + t for e in inner.excluded)
    if isinstance(inner, Congruence):
        m = inner.modulus
        return _primitive_congruence(m, ((u * r + t) % m for r in inner.residues))
    if isinstance(inner, Tail):
        return normalize(Tail(u * inner.center + t, inner.radius))
    if isinstance(inner, HalfTail):
        if u == 1:
            return HalfTail(inner.threshold + t)
        return down_tail(t - inner.threshold)
    if isinstance(inner, Affine):  # down-tail leaf or unpushed input: compose
        return normalize(
            Affine(u * inner.unit, u * inner.shift + t, inner.inner)
        )
    if isinstance(inner, Union):
        return _norm_union(tuple(Affine(u, t, p) for p in inner.parts))
    if isinstance(inner, Intersection):
        return _norm_intersection(tuple(Affine(u, t, p) for p in inner.parts))
    raise TypeError(f"not an IntSet: {inner!r}")


def _norm_union(parts) -> IntSet:
    """The normal form of a union, built around one gap G.

    G holds the points that no cofinite-class part and no ray covers: a
    list, or an interval [a, b] where None marks an open end.  The finite
    points trim an interval's finite ends, and an interval that then fits
    in EXPAND_CAP is listed.  A listed G absorbs every other part: the
    union is the cofinite set of the points of G that no part covers.
    Otherwise the union is G's complement (nothing, a ray or a
    co-interval), the finite points inside G that no congruence or lazy
    part covers, and those parts, less every part another one contains.
    """
    gap = ("interval", None, None)
    fin: set[int] = set()
    congs: list[Congruence] = []
    others: list[IntSet] = []
    stack = [normalize(p) for p in parts]
    while stack:
        p = stack.pop()
        if isinstance(p, Union):
            stack.extend(p.parts)
        elif isinstance(p, Finite):
            fin.update(p.elements)
        elif isinstance(p, Congruence):
            congs.append(p)
        elif isinstance(p, HalfTail):
            gap = _desc_intersect(gap, ("interval", None, p.threshold - 1))
        elif (b := as_down_tail(p)) is not None:
            gap = _desc_intersect(gap, ("interval", b + 1, None))
        elif (d := _co_desc(p)) is not None:
            gap = _desc_intersect(gap, d)
        elif not isinstance(p, Empty):
            others.append(p)

    if gap[0] == "interval":
        _, a, b = gap
        while a is not None and a in fin:
            a += 1
        while b is not None and b in fin:
            b -= 1
        if a is not None and b is not None and b - a < EXPAND_CAP:
            gap = ("list", range(a, b + 1))
    if gap[0] == "list":
        rest = congs + others
        return _co_from_list(
            v for v in gap[1] if v not in fin and not any(contains(p, v) for p in rest)
        )

    merged = _merge_congruences(congs)
    if merged is ALL:
        return ALL
    rest = merged + others  # a and b hold the trimmed interval gap
    pool = sorted(
        v for v in fin if _within(v, a, b) and not any(contains(p, v) for p in rest)
    )
    pieces = ([Finite(tuple(pool))] if pool else []) + rest
    if a is not None and b is not None:
        co = _co_interval(a, b)  # a Tail, or the two rays of an even gap
        pieces += co.parts if isinstance(co, Union) else [co]
    elif a is not None:
        pieces.append(down_tail(a - 1))
    elif b is not None:
        pieces.append(HalfTail(b + 1))
    return _assemble_union(pieces)


def _subsume(pieces) -> list[IntSet]:
    """The pieces less each one a piece kept before it contains, and less
    each kept piece that a later one contains."""
    kept: list[IntSet] = []
    for p in pieces:
        if any(is_subset(p, q) for q in kept):
            continue
        kept = [q for q in kept if not is_subset(q, p)]
        kept.append(p)
    return kept


def _assemble_union(pieces: list[IntSet]) -> IntSet:
    kept = _subsume(pieces)
    if len(kept) < 2:
        return kept[0] if kept else EMPTY
    return Union(tuple(sorted(kept, key=_key)))


def _merge_congruences(congs: list[Congruence]):
    """Merge congruence parts of a union; returns a list of parts or ALL.

    Classes of one modulus merge, and all of them merge into one class
    when the lcm of their moduli fits in LCM_CAP and that class has at
    most EXPAND_CAP residues, counted before any is built.  Past either
    cap, a class that another contains is dropped, and the rest are merged
    again until nothing changes: a merged class may have a smaller modulus.
    """
    if not congs:
        return []
    by_mod: dict[int, set[int]] = {}
    for c in congs:
        by_mod.setdefault(c.modulus, set()).update(c.residues)
    lcm = 1
    for m in by_mod:
        lcm = math.lcm(lcm, m)
        if lcm > LCM_CAP:
            break
    size = sum(len(rs) * (lcm // m) for m, rs in by_mod.items())
    if lcm <= LCM_CAP and size <= EXPAND_CAP:
        res = {x for m, rs in by_mod.items() for r in rs for x in range(r, lcm, m)}
        out = _primitive_congruence(lcm, res)
        return ALL if out == ALL else [out]
    parts = [_primitive_congruence(m, rs) for m, rs in sorted(by_mod.items())]
    if ALL in parts:
        return ALL
    kept = _subsume(parts)
    return kept if set(kept) == set(congs) else _merge_congruences(kept)


def _norm_intersection(parts) -> IntSet:
    items: list[IntSet] = []
    stack = [normalize(p) for p in parts]
    while stack:
        p = stack.pop()
        if isinstance(p, Empty):
            return EMPTY
        if p == ALL:
            continue
        if isinstance(p, Intersection):
            stack.extend(p.parts)
        else:
            items.append(p)
    if not items:
        return ALL
    items.sort(key=_key)

    changed = True
    while changed and len(items) > 1:
        changed = False
        n = len(items)
        for i in range(n):
            for j in range(i + 1, n):
                r = _reduce2(items[i], items[j])
                if r is None:
                    continue
                rest = [items[k] for k in range(n) if k not in (i, j)]
                if isinstance(r, Empty):
                    return EMPTY
                if isinstance(r, Intersection):
                    if set(r.parts) == {items[i], items[j]}:
                        continue  # no progress
                    rest.extend(r.parts)
                else:
                    rest.append(r)
                items = rest
                changed = True
                break
            if changed:
                break
    if len(items) == 1:
        return items[0]
    return Intersection(tuple(sorted(items, key=_key)))


def _reduce2(x: IntSet, y: IntSet) -> IntSet | None:
    """Exact intersection of two normalized atoms, or None when kept lazy.

    The smaller part is returned whenever `is_subset` orders the pair, so
    the helpers below only see pairs that overlap properly: neither part
    holds the other.
    """
    if is_subset(x, y):
        return x
    if is_subset(y, x):
        return y
    for a, b in ((x, y), (y, x)):
        if isinstance(a, Finite):
            kept = tuple(e for e in a.elements if contains(b, e))
            return Finite(kept) if kept else EMPTY
        if isinstance(a, Union):
            if len(a.parts) > _DISTRIBUTE_CAP:
                return None
            return _norm_union(
                tuple(_norm_intersection((p, b)) for p in a.parts)
            )

    dx, dy = _co_desc(x), _co_desc(y)
    if dx is not None and dy is not None:
        return _reduce_co_co(dx, dy)
    for a, b, db in ((x, y, dy), (y, x, dx)):
        if db is None:
            continue
        if isinstance(a, Congruence):
            return _reduce_cong_co(a, db)
        if isinstance(a, HalfTail):
            return _reduce_half_co(a.threshold, db)
        if (bd := as_down_tail(a)) is not None:
            r = _reduce_half_co(-bd, _desc_negate(db))
            return None if r is None else negate(r)
    if isinstance(x, Congruence) and isinstance(y, Congruence):
        return _reduce_cong_cong(x, y)
    hx = x.threshold if isinstance(x, HalfTail) else None
    hy = y.threshold if isinstance(y, HalfTail) else None
    bx, by = as_down_tail(x), as_down_tail(y)
    if (hx is not None and by is not None) or (hy is not None and bx is not None):
        lo = hx if hx is not None else hy
        hi = by if by is not None else bx
        if hi < lo:
            return EMPTY
        seg = _segment(lo, hi)
        if isinstance(seg, Intersection):
            return None  # already the lazy canonical pair
        return seg
    return None


def _desc_negate(d):
    if d[0] == "list":
        return ("list", tuple(sorted(-v for v in d[1])))
    return ("interval", -d[2], -d[1])


def _reduce_co_co(dx, dy) -> IntSet | None:
    if dx[0] == "list" and dy[0] == "list":
        return _co_from_list(set(dx[1]) | set(dy[1]))
    if dx[0] == "interval" and dy[0] == "interval":
        (a1, b1), (a2, b2) = sorted([(dx[1], dx[2]), (dy[1], dy[2])])
        if a2 <= b1 + 1:
            return _co_interval(a1, max(b1, b2))
        mid = _segment(b1 + 1, a2 - 1)
        return _norm_union((down_tail(a1 - 1), mid, HalfTail(b2 + 1)))
    lst = dx if dx[0] == "list" else dy
    iv = dy if dx[0] == "list" else dx
    outside = tuple(v for v in lst[1] if not iv[1] <= v <= iv[2])
    if len(outside) < len(lst[1]):
        return Intersection(
            tuple(
                sorted((_co_interval(iv[1], iv[2]), _co_from_list(outside)), key=_key)
            )
        )
    return None


def _reduce_cong_cong(x: Congruence, y: Congruence) -> IntSet | None:
    g = math.gcd(x.modulus, y.modulus)
    # classes meet where residues agree mod g, which holds past LCM_CAP too
    if not {r % g for r in x.residues} & {r % g for r in y.residues}:
        return EMPTY
    lcm = x.modulus // g * y.modulus
    if lcm > LCM_CAP:
        return None
    res = set()
    for r1 in x.residues:
        for r2 in y.residues:
            if (r1 - r2) % g:
                continue
            # CRT lift to the lcm
            k = ((r2 - r1) // g * pow(x.modulus // g, -1, y.modulus // g)) % (
                y.modulus // g
            )
            res.add((r1 + k * x.modulus) % lcm)
    if not res:
        return EMPTY
    return _primitive_congruence(lcm, res)


def _reduce_cong_co(c: Congruence, d) -> IntSet | None:
    if d[0] == "list":
        punct = [v for v in d[1] if contains(c, v)]
        if len(punct) == len(d[1]):
            return None  # canonical punctured-class pair
    else:
        a, b, m = d[1], d[2], c.modulus
        if count_in_interval(c, a, b) > EXPAND_CAP:
            return None
        # each residue's points in [a, b], stepped as count_in_interval counts them
        punct = [v for r in c.residues for v in range(a + (r - a) % m, b + 1, m)]
    return Intersection(tuple(sorted((c, _co_from_list(punct)), key=_key)))


def _reduce_half_co(t: int, d) -> IntSet | None:
    """{x >= t} minus an excluded descriptor that meets it."""
    if d[0] == "list":
        m = max(d[1])
        if m - t + 1 <= EXPAND_CAP:
            keep = sorted(set(range(t, m + 1)) - set(d[1]))
            return _norm_union((Finite(tuple(keep)), HalfTail(m + 1)))
        return None
    a, b = d[1], d[2]
    if a <= t:
        return HalfTail(b + 1)
    seg = _segment(t, a - 1)
    return _norm_union((seg, HalfTail(b + 1)))


# ---------------------------------------------------------------------------
# materialization


def check_cap(window: Window) -> None:
    """Raise CapError when the window holds more than MATERIALIZE_CAP points."""
    if window.size > MATERIALIZE_CAP:
        raise CapError(
            f"window of size {window.size} exceeds materialization cap "
            f"{MATERIALIZE_CAP}"
        )


def materialize(s: IntSet, window: Window) -> list[int]:
    """Sorted members of s within the window; exact.

    The members are read off `window_bits` in one pass, except for a
    Finite, whose bisected slice costs O(k) however wide the window is.
    """
    check_cap(window)
    lo, hi = window.lo, window.hi
    if isinstance(s, Finite):
        i, j = bisect_left(s.elements, lo), bisect_right(s.elements, hi)
        return list(s.elements[i:j])
    return mask_members(window_bits(s, lo, hi), lo)


def window_bits(s: IntSet, lo: int, hi: int) -> int:
    """The members of s within [lo, hi] as an int whose bit i marks lo + i.

    Built shape by shape from masks: only the listed points of a Finite or
    Cofinite are set one by one, and no cost grows with a congruence's
    modulus.  No cap is checked here; `materialize` checks it and decodes
    this int with `mask_members`.  A windowed sumset result holds its
    sums in the same layout.
    """
    if lo > hi or isinstance(s, Empty):
        return 0
    n = hi - lo + 1
    if isinstance(s, Finite):
        i, j = bisect_left(s.elements, lo), bisect_right(s.elements, hi)
        return _bits_at([x - lo for x in s.elements[i:j]], n)
    if isinstance(s, Cofinite):
        i, j = bisect_left(s.excluded, lo), bisect_right(s.excluded, hi)
        return _run(0, n, n) & ~_bits_at([x - lo for x in s.excluded[i:j]], n)
    if isinstance(s, Congruence):
        return _congruence_bits(s, lo, n)
    if isinstance(s, Tail):
        c, r = s.center, s.radius
        return _run(0, c - r + 1 - lo, n) | _run(c + r - lo, n, n)
    if isinstance(s, HalfTail):
        return _run(s.threshold - lo, n, n)
    if (b := as_down_tail(s)) is not None:
        return _run(0, b + 1 - lo, n)
    if isinstance(s, Affine):
        if s.unit == 1:
            return window_bits(s.inner, lo - s.shift, hi - s.shift)
        # bit i of the inner window marks shift - hi + i, which is hi - i
        inner = window_bits(s.inner, s.shift - hi, s.shift - lo)
        return int(format(inner, f"0{n}b")[::-1], 2)
    if isinstance(s, Union):
        out = 0
        for p in s.parts:
            out |= window_bits(p, lo, hi)
        return out
    if isinstance(s, Intersection):
        out = _run(0, n, n)
        for p in s.parts:
            out &= window_bits(p, lo, hi)
            if not out:
                break
        return out
    raise TypeError(f"not an IntSet: {s!r}")


_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\x00\x01")
_ONE = re.compile("1")


def mask_members(bits: int, lo: int) -> list[int]:
    """lo + i for each set bit i of bits, ascending, from one bin() pass:
    a sparse int is scanned for its ones, a dense one flags every digit."""
    digits = bin(bits)[:1:-1]  # digit i marks bit i
    if 8 * bits.bit_count() >= len(digits):
        return list(compress(count(lo), digits.encode().translate(_DIGIT_TO_FLAG)))
    return [lo + m.start() for m in _ONE.finditer(digits)]


def spiral_first(bits: int, lo: int) -> int | None:
    """The member of a window mask (bit i marks lo + i) that comes first in
    spiral order, or None when the mask is empty."""
    if not bits:
        return None
    # bits from z on mark x >= 0: the nearest members are the lowest set
    # bit at or above z and the highest below it; ties go to the negative
    z = max(-lo, 0)
    above, below = bits >> z, bits & ((1 << z) - 1)
    up = lo + z + (above & -above).bit_length() - 1
    down = lo + below.bit_length() - 1
    return down if below and (not above or -down <= up) else up


def _run(a: int, b: int, n: int) -> int:
    """Bits a..b-1 of an n-bit window, clamped to it."""
    a, b = max(a, 0), min(b, n)
    return ((1 << b) - 1) & ~((1 << a) - 1) if a < b else 0


def _bits_at(positions: list[int], n: int) -> int:
    """An n-bit int with the given bits set, in one pass: OR-ing bit by
    bit would copy the whole int once per position."""
    if not positions:
        return 0
    buf = bytearray((n + 7) >> 3)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _congruence_bits(c: Congruence, lo: int, n: int) -> int:
    m, res = c.modulus, c.residues
    if m >= n:
        # each residue meets the window at most once, at offset (r - lo) % m:
        # bisect the residues in [a, a + n) and, wrapped, in [0, a + n - m)
        a = lo % m
        i, j = bisect_left(res, a), bisect_left(res, a + n)
        wrap = bisect_left(res, a + n - m)
        return _bits_at(
            [r - a for r in res[i:j]] + [r + m - a for r in res[:wrap]], n
        )
    # one period, doubled until it covers the window
    out = _bits_at([(r - lo) % m for r in res], m)
    width = m
    while width < n:
        out |= out << width
        width *= 2
    return out & ((1 << n) - 1)


"""h-fold sumsets and representation counts.

Closed forms are produced by an exact rewrite system over the symbolic
shapes; when no rule applies the computation falls back to windowed
enumeration over offset bit arrays, which is exact within the window and
carries an explicit completeness flag.

The windowed engine holds a set as one Python int whose bit k marks the
point k - offset, and folds it h times.  Every term is eventually
periodic, and so is its bitset: a few arithmetic runs whose step g is the
term's period (the lcm of its congruence moduli, or 1 when that passes the
set's span).  Sums keep that period, so g is read once per fold.  Each
fold is a boolean convolution with one of two exact kernels, chosen by
the shift-or count of the cheaper operand:

- below the crossover, a shift-or walk of that operand's maximal runs of
  step g.  A run of L points is covered by two copies of its first 2**k
  points, k = bit_length(L) - 1, one at its start and one ending at its
  end; OR is idempotent, so their overlap is harmless.  The walk ORs in
  one shifted copy of the other operand per such offset, highest k
  first, and doubles the accumulated copies by 2**(k-1) * g between
  levels, so the count is the number of offsets plus the top level.  A
  lone set bit is a run of length 1; an operand with few set bits, or
  with at least half as many runs as set bits, is walked bit by bit, one
  shifted copy per set bit;
- from the crossover on, Kronecker substitution: each operand is written
  as a decimal string with one d-digit field per bit, d = len(str(p)) for
  the smaller popcount p, and the two strings are multiplied once by the
  standard library's `decimal` module (libmpdec switches to a
  number-theoretic transform for large operands).  Field k of the product
  counts the pairs summing to k.  No element of the sparser operand pairs
  twice with one sum, so a count is at most p < 10**d, no field carries
  into the next, and the nonzero fields are exactly the sums.  The
  multiplication runs in a context whose precision covers every product
  and which traps Inexact and Rounded, so a rounding could only raise,
  never pass silently.  Operands with no run structure past the
  crossover, such as dense sums of spread-out finite sets, take it.

With base shift-or count c, the fold adds one summand at a time against
the base while (h - 1) * c is below the crossover; otherwise it squares
repeatedly.  No fold computes a sum that cannot land in the window: with
the base spanning offsets 0..w and the window at offsets lo..hi from h
times the smallest member, a partial sum of k summands is kept only on
offsets lo - (h - k) * w .. hi, since the h - k summands still to come
add 0 to (h - k) * w.  Operand bits above hi are dropped before a
product, and the Kronecker kernel decodes only the kept fields of its
product string.

The operand bitset comes straight from the set's term
(`symbolic.window_bits`: masks for tails and rays, a doubled period for a
congruence, OR and AND for unions and intersections), never from a list
of members; `symbolic.materialize` decodes the same int, so both read one
membership implementation.  Its empty span below the smallest member is
shifted off before folding, so every fold covers only the span the set
occupies, and the last cut fold, shifted into window position, is the
result's `bits`: nothing is listed until its `members` are read, and
`symbolic.mask_members` is the one decoder of set bits.  This path needs
only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from functools import lru_cache

from .errors import CapError, DomainError, NoClosedForm
from .symbolic import (
    ALL,
    EMPTY,
    Affine,
    Cofinite,
    Congruence,
    Empty,
    Finite,
    HalfTail,
    IntSet,
    Intersection,
    Membership3,
    Tail,
    Union,
    Window,
    IN,
    OUT,
    as_down_tail,
    bounds,
    check_cap,
    contains,
    down_tail,
    half_tail,
    is_infinite,
    mask_members,
    materialize,
    min_element,
    max_element,
    normalize,
    out_up_to,
    shift,
    spiral_first,
    union,
    window_bits,
    _divisors,
)

_FINITE_FOLD_CAP = 24
_REP_RANGE_CAP = 400_000
# largest |target| of a multiplicative count, which trial-divides to its root
_MULT_TARGET_CAP = 10**10
# (set, h) entries of the closed-fold memo: one pass of all 16 verify
# scenarios fills 5,253 to 5,296 at seeds 0, 5 and 7
_CLOSED_FOLD_CACHE = 1 << 14


@dataclass(frozen=True)
class Closed:
    """Sumset with an exact symbolic closed form."""

    set: IntSet


@dataclass(frozen=True)
class Windowed:
    """Sumset enumerated within a window.

    Bit i of `bits` marks window.lo + i, and the set bits are exactly the
    sums of h elements drawn from the set's materialization on
    [-generation_radius, generation_radius] that land in the window.
    `complete` is True only when a bound argument shows no window member
    of the true sumset can be missing.
    """

    window: Window
    bits: int
    generation_radius: int
    complete: bool

    @property
    def members(self) -> tuple[int, ...]:
        """The sums in the window, ascending, decoded from `bits`."""
        return tuple(mask_members(self.bits, self.window.lo))


SumsetResult = Closed | Windowed


def query(result: SumsetResult, x: int) -> Membership3:
    """Three-valued membership in a sumset result."""
    if isinstance(result, Closed):
        return IN if contains(result.set, x) else OUT
    if not result.window.lo <= x <= result.window.hi:
        raise DomainError(f"{x} lies outside the evaluated window")
    if result.bits >> (x - result.window.lo) & 1:
        return IN
    return OUT if result.complete else out_up_to(result.generation_radius)


def members_in(result: SumsetResult, window: Window) -> set[int]:
    return set(mask_members(window_mask(result, window), window.lo))


def window_mask(result: SumsetResult, window: Window) -> int:
    """The members of `members_in(result, window)` as an int whose bit i
    marks window.lo + i, with the same cap and window checks.

    A closed form is read through `window_bits`; a windowed result's
    `bits` are shifted to the window and cut to its size, listing nothing.
    """
    if isinstance(result, Closed):
        check_cap(window)
        return window_bits(result.set, window.lo, window.hi)
    if result.window.lo > window.lo or result.window.hi < window.hi:
        raise DomainError("requested window exceeds the evaluated window")
    return result.bits >> (window.lo - result.window.lo) & (1 << window.size) - 1


# ---------------------------------------------------------------------------
# symbolic rules


def sum2(x: IntSet, y: IntSet) -> IntSet | None:
    """Exact Minkowski sum of two normalized sets, or None if no rule fires.

    Finite sets and congruence classes close first.  For operands that are
    each a Finite F, a Congruence m*Z + R or their union F | m*Z + R, the
    sum of F1 | m1*Z + R1 and F2 | m2*Z + R2 (either part may be absent) is
    (F1 + F2) | m2*Z + (F1 + R2) | m1*Z + (F2 + R1) | gcd(m1, m2)*Z + (R1 + R2),
    each class built from its residues at once.  The rule refuses, and sum2
    returns None, when a finite part that meets a class, or both finite
    parts, pass _FINITE_FOLD_CAP.

    A finite set plus an optional ray comes next:
    F1 | [t1, oo) + F2 | [t2, oo) = {a + b < t : a in F1, b in F2} | [t, oo)
    for operands A and B with at least one ray, t = min(t1 + min B,
    t2 + min A); two down-rays mirror it.  That rule defers for opposite
    rays, and for two finite parts above _FINITE_FOLD_CAP, where no rule
    closes.  Then a cofinite class absorbs any infinite partner.

    Otherwise a union distributes: A + (B | C) = (A + B) | (A + C).  When
    an operand is a Union of at most _FINITE_FOLD_CAP parts, the sum is the
    union of the partner's sums with each part, provided every part
    closes; two Unions are tried in both orders.  If no distribution
    closes, the rules below run as if it had not been tried.  None of them
    fires on two Unions: each needs a finite or ray operand.
    """
    if isinstance(x, Empty) or isinstance(y, Empty):
        return EMPTY
    if (px := _periodic(x)) is not None and (py := _periodic(y)) is not None:
        return _sum_periodic(px, py)
    if (res := _sum_finite_rays(x, y)) is not None:
        return res
    for a, b in ((x, y), (y, x)):
        if isinstance(a, (Cofinite, Tail)) and is_infinite(b):
            return ALL
    for a, b in ((x, y), (y, x)):
        if isinstance(a, Union) and (res := _distribute(a, b)) is not None:
            return res
    for a, b in ((x, y), (y, x)):
        if isinstance(a, Finite) and len(a.elements) <= _FINITE_FOLD_CAP:
            return union(*(shift(b, e) for e in a.elements))
    for a, b in ((x, y), (y, x)):
        if isinstance(a, HalfTail) or as_down_tail(a) is not None:
            res = _sum_ray(a, b)
            if res is not None:
                return res
    return None


def _periodic(s: IntSet) -> tuple[tuple[int, ...], Congruence | None] | None:
    """(F, C) when s is a Finite F (C None), a Congruence C (F empty) or
    the union of the two."""
    if isinstance(s, Finite):
        return s.elements, None
    if isinstance(s, Congruence):
        return (), s
    if isinstance(s, Union) and len(s.parts) == 2:
        f, c = s.parts
        if isinstance(f, Finite) and isinstance(c, Congruence):
            return f.elements, c
    return None


def _sum_periodic(
    px: tuple[tuple[int, ...], Congruence | None],
    py: tuple[tuple[int, ...], Congruence | None],
) -> IntSet | None:
    """sum2's finite-plus-class rule for operands read as px and py."""
    (f1, c1), (f2, c2) = px, py
    cap = _FINITE_FOLD_CAP
    if c2 and len(f1) > cap or c1 and len(f2) > cap or min(len(f1), len(f2)) > cap:
        return None
    pieces: list[IntSet] = []
    if f1 and f2:
        pieces.append(Finite(tuple({a + b for a in f1 for b in f2})))
    for f, c in ((f1, c2), (f2, c1)):
        if f and c:
            pieces.append(_class_sum(c.modulus, f, c.residues))
    if c1 and c2:
        g = math.gcd(c1.modulus, c2.modulus)
        pieces.append(_class_sum(g, c1.residues, c2.residues))
    return normalize(pieces[0] if len(pieces) == 1 else Union(tuple(pieces)))


def _class_sum(m: int, a: tuple[int, ...], b: tuple[int, ...]) -> Congruence:
    """m*Z + (a + b), unnormalized."""
    return Congruence(m, tuple({(p + q) % m for p in a for q in b}))


def _distribute(u: Union, b: IntSet) -> IntSet | None:
    """The union of sum2(p, b) over the parts p of u, or None if one fails."""
    if len(u.parts) > _FINITE_FOLD_CAP:
        return None
    terms = []
    for p in u.parts:
        t = sum2(p, b)
        if t is None:
            return None
        terms.append(t)
    return union(*terms)


def _finite_ray(s: IntSet) -> tuple[tuple[int, ...], int, int] | None:
    """(F, d, t) when s is F alone (d = 0), F | [t, oo) (d = 1) or
    F | (-oo, t] (d = -1), F the elements of a Finite part, maybe none."""
    if isinstance(s, Finite):
        return s.elements, 0, 0
    fin = ()
    if isinstance(s, Union) and len(s.parts) == 2 and isinstance(s.parts[0], Finite):
        fin, s = s.parts[0].elements, s.parts[1]
    if isinstance(s, HalfTail):
        return fin, 1, s.threshold
    b = as_down_tail(s)
    return None if b is None else (fin, -1, b)


def _sum_finite_rays(x: IntSet, y: IntSet) -> IntSet | None:
    """sum2's finite-plus-ray rule, down-rays read through the mirror u = -1."""
    fx, fy = _finite_ray(x), _finite_ray(y)
    if fx is None or fy is None:
        return None
    (e1, d1, t1), (e2, d2, t2) = fx, fy
    u = d1 or d2
    if not u or d1 * d2 < 0 or min(len(e1), len(e2)) > _FINITE_FOLD_CAP:
        return None
    a, b = [u * e for e in e1], [u * e for e in e2]
    # in u-coordinates rays point up, above the finite part, so a minimum
    # is the least finite element, else the ray start
    m1, m2 = min(a, default=u * t1), min(b, default=u * t2)
    starts = [u * t1 + m2] if d1 else []
    starts += [u * t2 + m1] if d2 else []
    t = min(starts)
    sums = {p + q for p in a for q in b if p + q < t}
    ray = HalfTail(t) if u == 1 else down_tail(-t)
    return normalize(Union((Finite(tuple(u * v for v in sums)), ray)))


def _sum_ray(ray: IntSet, b: IntSet) -> IntSet | None:
    """A half-line plus a set that is neither cofinite-class nor a
    finite set plus a ray pointing the same way."""
    if isinstance(ray, HalfTail):
        if isinstance(b, Congruence) or as_down_tail(b) is not None:
            return ALL  # partner unbounded below
        m = min_element(b)
        # every sum is >= t + min(b), and every such value occurs
        return None if m is None else half_tail(ray.threshold + m)
    if isinstance(b, (Congruence, HalfTail)):
        return ALL  # partner unbounded above
    m = max_element(b)
    return None if m is None else down_tail(as_down_tail(ray) + m)


def symbolic_hfold_sum(
    s: IntSet,
    h: int,
    window: Window | None = None,
    gen_radius: int | None = None,
) -> SumsetResult:
    """h-fold sumset; closed form when the rewrite rules compose, otherwise a
    windowed enumeration (requires a window)."""
    if h < 1:
        raise DomainError(f"h must be >= 1, got {h}")
    s = normalize(s)
    if (acc := _closed_hfold(s, h)) is not None:
        return Closed(acc)
    if window is None:
        raise NoClosedForm(
            "no closed-form rule applies; supply a window for enumeration"
        )
    return windowed_hfold_sum(s, h, window, gen_radius or default_radius(window, h))


def _closed_hfold(s: IntSet, h: int) -> IntSet | None:
    """The h-fold sum of a normalized set in closed form, or None when no
    rewrite rule closes it."""
    acc: IntSet | None = s
    # ascending h keeps _closed_fold's recursion one level deep
    for k in range(2, h + 1):
        acc = _closed_fold(s, k)
        if acc is None:
            break
    return acc


@lru_cache(maxsize=_CLOSED_FOLD_CACHE)
def _closed_fold(s: IntSet, h: int) -> IntSet | None:
    """The h-fold sum of a normalized set as (h-1)s + s, or None as soon as
    one step closes by no rule.  Every truncation depth, and every h that
    follows h - 1, reuses the folds already built for the same layer."""
    if h == 1:
        return s
    prev = _closed_fold(s, h - 1)
    return None if prev is None else sum2(prev, s)


def default_radius(window: Window, h: int, q: int = 0) -> int:
    return window.radius + (h - 1) * (q + window.radius) + 16


# ---------------------------------------------------------------------------
# windowed enumeration over offset bit arrays


# smallest shift-or count of the cheaper operand at which a product takes
# the Kronecker kernel.  Both costs grow linearly with the longer operand:
# for random operands of 1e4 to 3e5 bits, 4096 shifts cost 0.4 to 0.5 of
# one Kronecker product and 8192 shifts 0.8 to 0.85.  Whole folds of spread
# finite sets (h = 2 to 4, windows 5e3 to 4e4, 60 to 6000 points), where
# this constant also sets the fold order, took the same total time within
# noise at 2048, 4096, 8192 and 16384
_KRONECKER_MIN_SHIFTS = 4096
# popcount below which an operand is walked bit by bit: listing the runs of
# a smaller operand costs more than the shifts it saves.  Replaying every
# product of an hset-stream pass, 64 ran fastest of 1, 16, 32, 64 and 128
_RUN_MIN_POPCOUNT = 64
# exact integer arithmetic: no product of two finite operands can round
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)
_NONZERO_DIGIT = str.maketrans("23456789", "11111111")


def _period(s: IntSet, span: int) -> int:
    """The lcm of the congruence moduli in the term, through unions,
    intersections and affine images, or 1 when it passes span."""
    g = 1
    stack = [s]
    while stack:
        t = stack.pop()
        if isinstance(t, Congruence):
            g = math.lcm(g, t.modulus)
            if g > span:
                return 1
        elif isinstance(t, (Union, Intersection)):
            stack.extend(t.parts)
        elif isinstance(t, Affine):
            stack.append(t.inner)
    return g


def _plan(
    bits: int, g: int, limit: int = _KRONECKER_MIN_SHIFTS
) -> tuple[int, list[list[int]] | None]:
    """(shift-ors, plan): how the shift-or kernel walks bits in runs of step g.

    bits is the union, over levels k and offsets p in plan[k], of the 2**k
    points p, p + g, .., p + (2**k - 1) * g.  A maximal run of L points
    takes level k = bit_length(L) - 1 and one or two offsets: its first
    point, and the first of its last 2**k points (OR is idempotent, so the
    two may overlap).  The kernel ORs in one shifted copy per offset and
    doubles once per level, so the shift-or count is the number of offsets
    plus the top level.  plan is None when every set bit is walked as its
    own run, at one shift-or each: for an operand below _RUN_MIN_POPCOUNT
    or with at least half as many runs as set bits, where listing the runs
    saves no shifts, and for one with at least limit runs, whose walk
    takes at least one shift-or per run and so cannot come in below limit.
    """
    popcount = bits.bit_count()
    if popcount < _RUN_MIN_POPCOUNT:
        return popcount, None
    firsts = bits & ~(bits << g)
    runs = firsts.bit_count()
    if 2 * runs >= popcount or runs >= limit:
        return popcount, None
    firsts, lasts = mask_members(firsts, 0), mask_members(bits & ~(bits >> g), 0)
    if g > 1:
        # a stable sort by residue keeps each class's runs in order, so the
        # i-th first and the i-th last point bound one run
        firsts = sorted(firsts, key=g.__rmod__)
        lasts = sorted(lasts, key=g.__rmod__)
    plan: list[list[int]] = []
    for a, b in zip(firsts, lasts):
        n = (b - a) // g + 1
        k = n.bit_length() - 1
        while len(plan) <= k:
            plan.append([])
        plan[k].append(a)
        if n > 1 << k:
            plan[k].append(b - ((1 << k) - 1) * g)
    return sum(map(len, plan)) + len(plan) - 1, plan


def _conv(
    bits_a: int, bits_b: int, lo: int = 0, hi: int | None = None, g: int = 1
) -> int:
    """Sumset of two offset bitsets: bit i + j set iff bit i of one and
    bit j of the other are set.  Given hi, only its bits lo..hi, shifted
    down to start at bit 0.  g is the step of the operands' runs; any
    g >= 1 gives the same sumset."""
    if hi is not None:
        # no operand bit above hi reaches a kept sum
        keep = (1 << hi + 1) - 1
        square = bits_a is bits_b
        bits_a &= keep
        bits_b = bits_a if square else bits_b & keep
    shifts, dense = bits_a.bit_count(), bits_b.bit_count()
    if shifts > dense:
        bits_a, bits_b, shifts, dense = bits_b, bits_a, dense, shifts
    plan = None
    if dense >= _RUN_MIN_POPCOUNT:
        # below the run floor both operands walk bit by bit; above it, the
        # denser one's runs are listed only if it may walk cheaper
        shifts, plan = _plan(bits_a, g)
        if bits_b is not bits_a:
            limit = min(shifts, _KRONECKER_MIN_SHIFTS)
            shifts_b, plan_b = _plan(bits_b, g, limit)
            if shifts_b < shifts:
                bits_a, bits_b, shifts, plan = bits_b, bits_a, shifts_b, plan_b
    if shifts >= _KRONECKER_MIN_SHIFTS:
        # a field counts pairs with one sum, at most the smaller popcount
        fields = min(bits_a.bit_count(), bits_b.bit_count())
        return _conv_kronecker(bits_a, bits_b, fields, lo, hi)
    out = 0
    if plan is None:
        # every set bit is its own run: walked without the level loop,
        # whose bookkeeping costs products below the run floor about 5%
        for p in mask_members(bits_a, 0):
            out |= bits_b << p
    else:
        for k in range(len(plan) - 1, -1, -1):
            for p in plan[k]:
                out |= bits_b << p
            if k:
                # every copy ORed in so far now covers 2**k run points
                out |= out << (g << k - 1)
    # bits lo..hi, shifted down
    out >>= lo
    return out if hi is None else out & (1 << hi - lo + 1) - 1


def _conv_kronecker(
    bits_a: int, bits_b: int, popcount: int, lo: int = 0, hi: int | None = None
) -> int:
    # a field counts representations, at most popcount < 10**d: no carries
    d = len(str(popcount))
    pad = "0" * (d - 1)
    x = Decimal(pad + pad.join(bin(bits_a)[2:]))
    y = x if bits_a is bits_b else Decimal(pad + pad.join(bin(bits_b)[2:]))
    digits = str(_EXACT.multiply(x, y))
    # field k is digits[n - (k + 1) * d : n - k * d]; decode fields lo..hi
    n = len(digits)
    first = 0 if hi is None else max(n - (hi + 1) * d, 0)
    digits = digits[first : max(n - lo * d, 0)]
    if not digits:
        return 0
    digits = digits.zfill(-(-len(digits) // d) * d).translate(_NONZERO_DIGIT)
    out = 0
    for column in range(d):
        out |= int(digits[column::d], 2)
    return out


def windowed_hfold_sum(
    s: IntSet, h: int, window: Window, gen_radius: int
) -> Windowed:
    if h < 1:
        raise DomainError(f"h must be >= 1, got {h}")
    if gen_radius < window.radius:
        raise DomainError(
            f"generation radius {gen_radius} is below the window radius "
            f"{window.radius}"
        )
    r = gen_radius
    check_cap(Window(-r, r))
    s = normalize(s)
    bits = window_bits(s, -r, r)
    if not bits:
        return Windowed(window, 0, r, isinstance(s, Empty))
    # fold only the occupied span: bit k now marks v0 + k, where v0 is the
    # smallest member within the generation radius
    zeros = (bits & -bits).bit_length() - 1
    bits >>= zeros
    v0 = zeros - r
    w = bits.bit_length() - 1
    # the window lies at offsets lo..hi from h * v0, and a sum of k
    # summands reaches it only from offsets lo - (h - k) * w .. hi
    lo, hi = window.lo - h * v0, window.hi - h * v0
    out = 0
    if hi >= 0 and lo <= h * w:

        def fold(x: tuple[int, int], y: tuple[int, int], k: int) -> tuple[int, int]:
            """x + y, partial sums of k summands as (bits, offset of bit 0),
            cut to the offsets that can still reach the window."""
            off = x[1] + y[1]
            keep_lo = max(lo - (h - k) * w - off, 0)
            keep_hi = min(hi, k * w) - off
            if keep_hi < keep_lo:
                return 0, 0  # every sum lies past the window
            return _conv(x[0], y[0], keep_lo, keep_hi, g), off + keep_lo

        # every partial sum runs with the term's period.  A base below the
        # run floor keeps g = 1, exact for any operands: its products walk
        # it bit by bit, so reading the period would not pay
        g = _period(s, w) if bits.bit_count() >= _RUN_MIN_POPCOUNT else 1
        keep_lo = max(lo - (h - 1) * w, 0)
        base = bits >> keep_lo & (1 << min(hi, w) - keep_lo + 1) - 1, keep_lo
        if (h - 1) * _plan(base[0], g)[0] < _KRONECKER_MIN_SHIFTS:
            # h - 1 shift-or products against the base
            acc = base
            for k in range(2, h + 1):
                acc = fold(acc, base, k)
        else:
            # repeated squaring: part holds k summands, acc the n taken
            acc, n, part, k, e = None, 0, base, 1, h
            while True:
                if e & 1:
                    n += k
                    acc = part if acc is None else fold(acc, part, n)
                e >>= 1
                if not e:
                    break
                k *= 2
                part = fold(part, part, k)
        # bit 0 of the last fold marks offset acc[1] >= lo, unless it is empty
        out = acc[0] << acc[1] - lo if acc[0] else 0
    return Windowed(window, out, r, _complete(s, h, window, r))


def _complete(s: IntSet, h: int, window: Window, r: int) -> bool:
    lo, hi = bounds(s)
    if lo is not None and hi is not None and -r <= lo and hi <= r:
        return True  # whole set materialized
    # with a one-sided bound, every summand of an in-window sum is pinned
    if lo is not None and -r <= lo and window.hi - (h - 1) * lo <= r:
        return True
    if hi is not None and hi <= r and (h - 1) * hi - window.lo <= r:
        return True
    return False


# ---------------------------------------------------------------------------
# representation counts


@dataclass(frozen=True)
class RepCount:
    """Number of ordered h-tuples representing x.

    count is None for a proved-infinite answer; exact=False marks a bounded
    search that only established a lower bound.
    """

    count: int | None
    exact: bool = True

    @property
    def is_infinite(self) -> bool:
        return self.count is None


def representation_count(
    s: IntSet,
    h: int,
    x: int,
    mode: str = "add",
    gen_radius: int = 256,
) -> RepCount:
    if h < 1:
        raise DomainError(f"h must be >= 1, got {h}")
    if mode not in ("add", "mult"):
        raise DomainError(f"mode must be 'add' or 'mult', got {mode!r}")
    s = normalize(s)
    if h == 1:
        return RepCount(1 if contains(s, x) else 0)
    if mode == "mult":
        return _rep_mult(s, h, x)
    return _rep_add(s, h, x, gen_radius)


def _check_mult_target(v: int) -> None:
    if abs(v) > _MULT_TARGET_CAP:
        raise CapError(
            f"multiplicative target {v} exceeds the cap {_MULT_TARGET_CAP}"
        )


def _signed_divisors(v: int) -> tuple[int, ...]:
    return tuple(sign * d for d in _divisors(abs(v)) for sign in (1, -1))


def _rep_mult(s: IntSet, h: int, x: int) -> RepCount:
    if contains(s, 0):
        raise DomainError("multiplicative counts require a set avoiding 0")
    if x == 0:
        raise DomainError("multiplicative counts are defined for nonzero targets")
    _check_mult_target(x)

    @lru_cache(maxsize=None)
    def divisors_in(v: int) -> tuple[int, ...]:
        # trial-divided once per v however many fold depths ask
        return tuple(d for d in _signed_divisors(v) if contains(s, d))

    @lru_cache(maxsize=None)
    def count(k: int, v: int) -> int:
        if k == 1:
            return 1 if contains(s, v) else 0
        return sum(count(k - 1, v // d) for d in divisors_in(v))

    return RepCount(count(h, x))


def _rep_add(s: IntSet, h: int, x: int, gen_radius: int) -> RepCount:
    if isinstance(s, Empty):
        return RepCount(0)
    if _rep_infinite(s, h, x):
        return RepCount(None)
    lo, hi = bounds(s)
    if lo is not None:
        top = x - (h - 1) * lo
        if top < lo:
            return RepCount(0)
        if top - lo + 1 > _REP_RANGE_CAP:
            raise CapError("representation range exceeds the enumeration cap")
        vals = materialize(s, Window(lo, top))
        return RepCount(_rep_dp(vals, h, x, lo_bound=lo))
    if hi is not None:
        return _rep_add(normalize(Affine(-1, 0, s)), h, -x, gen_radius)
    # a closed h-fold sum that misses x settles the count at 0
    if (fold := _closed_hfold(s, h)) is not None and not contains(fold, x):
        return RepCount(0)
    vals = materialize(s, Window(-gen_radius, gen_radius))
    return RepCount(_rep_dp(vals, h, x), exact=False)


def _rep_dp(vals: list[int], h: int, x: int, lo_bound: int | None = None) -> int:
    ways: dict[int, int] = {0: 1}
    for step in range(h):
        rem = h - step - 1
        nxt: dict[int, int] = {}
        for partial, c in ways.items():
            for v in vals:
                t = partial + v
                if lo_bound is not None and t + rem * lo_bound > x:
                    break  # vals sorted ascending
                nxt[t] = nxt.get(t, 0) + c
        ways = nxt
    return ways.get(x, 0)


def _rep_infinite(s: IntSet, h: int, x: int) -> bool:
    """Exhibit infinitely many ordered h-tuples via y + (x' - y) + pads."""
    if h == 2:
        pads = [0]  # the pad term vanishes for h = 2
    elif contains(s, 0):
        pads = [0]
    else:
        pads = materialize(s, Window(-8, 8))[:3]
        if not pads:
            m = min_element(s)
            pads = [m] if m is not None else []
    for a in pads:
        target = x - (h - 2) * a
        mirrored = normalize(Affine(-1, target, s))
        pair_set = normalize(Intersection((s, mirrored)))
        if is_infinite(pair_set):
            return True
    return False


# ---------------------------------------------------------------------------
# basis order


@dataclass(frozen=True)
class BasisVerdict:
    h: int
    covers: bool
    certified: bool
    witness: int | None
    evidence: str


@dataclass(frozen=True)
class BasisReport:
    verdicts: tuple[BasisVerdict, ...]
    exact_order: int | None
    exact_order_certified: bool
    window: Window

    def verdict(self, h: int) -> BasisVerdict:
        return self.verdicts[h - 1]


def basis_order(s: IntSet, h_max: int, window: Window) -> BasisReport:
    """Per-h window coverage of the h-fold sumset, certified where sound.

    Coverage only needs membership, which the enumeration establishes even
    when incomplete; non-coverage needs a closed form or a complete window.
    """
    s = normalize(s)
    verdicts: list[BasisVerdict] = []
    for h in range(1, h_max + 1):
        r = default_radius(window, h)
        res = symbolic_hfold_sum(s, h, window, r)
        if isinstance(res, Closed):
            # read without window_mask's cap: a closed form is never enumerated
            got = window_bits(res.set, window.lo, window.hi)
        else:
            got = window_mask(res, window)
        missing = spiral_first(((1 << window.size) - 1) & ~got, window.lo)
        if isinstance(res, Closed):
            verdicts.append(
                BasisVerdict(h, missing is None, True, missing, "closed form")
            )
        elif missing is None:
            verdicts.append(BasisVerdict(h, True, True, None, f"all present (R={r})"))
        elif res.complete:
            verdicts.append(BasisVerdict(h, False, True, missing, f"complete (R={r})"))
        else:
            verdicts.append(
                BasisVerdict(h, False, False, missing, f"absent up to R={r}")
            )
    order: int | None = None
    certified = False
    for v in verdicts:
        if v.covers:
            order = v.h
            certified = v.certified and all(u.certified for u in verdicts[: v.h - 1])
            break
    return BasisReport(tuple(verdicts), order, certified, window)

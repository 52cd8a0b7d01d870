"""h-fold sumsets, product sets, and representation counts.

Closed forms are produced by an exact rewrite system over the symbolic
shapes; when no rule applies the computation falls back to windowed
enumeration over offset bit arrays, which is exact within the window and
carries an explicit completeness flag.

The windowed engine holds a set as one Python int whose bit k marks the
point k - offset, and folds it h times.  Each fold is a boolean
convolution with one of two exact kernels, chosen by the sparser
operand's popcount p:

- below the crossover, a shift-or loop: one shifted copy of the denser
  operand per set bit of the sparser;
- from the crossover on, Kronecker substitution: each operand is written
  as a decimal string with one d-digit field per bit, d = len(str(p)),
  and the two strings are multiplied once by the standard library's
  `decimal` module (libmpdec switches to a number-theoretic transform
  for large operands).  Field k of the product counts the pairs summing
  to k.  No element of the sparser operand pairs twice with one sum, so
  a count is at most p < 10**d, no field carries into the next, and the
  nonzero fields are exactly the sums.  The multiplication runs in a
  context whose precision covers every product and which traps Inexact
  and Rounded, so a rounding could only raise, never pass silently.

With base popcount p, the fold adds one summand at a time against the
base while (h - 1) * p is below the crossover, so every product runs the
shift-or loop over the base's p bits; otherwise it squares repeatedly.
No fold computes a sum that cannot land in the window: with the base
spanning offsets 0..w and the window at offsets lo..hi from h times the
smallest member, a partial sum of k summands is kept only on offsets
lo - (h - k) * w .. hi, since the h - k summands still to come add 0 to
(h - k) * w.  Operand bits above hi are dropped before a product, and
the Kronecker kernel decodes only the kept fields of its product string.

The operand bitset comes straight from the set's term
(`symbolic.window_bits`: masks for tails and rays, a doubled period for a
congruence, OR and AND for unions and intersections), never from a list
of members; `symbolic.materialize` decodes the same int, so both read one
membership implementation.  Its empty span below the smallest member is
shifted off before folding, so every fold covers only the span the set
occupies, and the window is read back from the last cut fold with
`symbolic.bit_flags`, from one binary string in a single pass.  This
path needs only the standard library.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
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
from itertools import compress

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
    bit_flags,
    bounds,
    check_cap,
    congruence,
    contains,
    down_tail,
    half_tail,
    is_infinite,
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
# largest |target| of a multiplicative count or product window: divisors
# are found by trial division up to sqrt(|target|)
_MULT_TARGET_CAP = 10**10
# (set, h) entries of the closed-fold memo: one pass of all 16 verify
# scenarios fills 8,087 to 8,260 at seeds 0, 5 and 7
_CLOSED_FOLD_CACHE = 1 << 14


@dataclass(frozen=True)
class Closed:
    """Sumset with an exact symbolic closed form."""

    set: IntSet


@dataclass(frozen=True)
class Windowed:
    """Sumset enumerated within a window.

    `members` lists exactly the sums of h elements drawn from the set's
    materialization on [-generation_radius, generation_radius] that land in
    the window.  `complete` is True only when a bound argument shows no
    window member of the true sumset can be missing.
    """

    window: Window
    members: tuple[int, ...]
    generation_radius: int
    complete: bool


SumsetResult = Closed | Windowed


def query(result: SumsetResult, x: int) -> Membership3:
    """Three-valued membership in a sumset result."""
    if isinstance(result, Closed):
        return IN if contains(result.set, x) else OUT
    if not result.window.lo <= x <= result.window.hi:
        raise DomainError(f"{x} lies outside the evaluated window")
    i = bisect_left(result.members, x)
    if i < len(result.members) and result.members[i] == x:
        return IN
    return OUT if result.complete else out_up_to(result.generation_radius)


def members_in(result: SumsetResult, window: Window) -> set[int]:
    if isinstance(result, Closed):
        return set(materialize(result.set, window))
    if result.window.lo > window.lo or result.window.hi < window.hi:
        raise DomainError("requested window exceeds the evaluated window")
    return {x for x in result.members if window.lo <= x <= window.hi}


def window_mask(result: SumsetResult, window: Window) -> int:
    """The members of `members_in(result, window)` as an int whose bit i
    marks window.lo + i, with the same cap and window checks.

    A closed form is read through `window_bits`; a windowed result's
    sorted members are bisected to the window.
    """
    if isinstance(result, Closed):
        check_cap(window)
        return window_bits(result.set, window.lo, window.hi)
    if result.window.lo > window.lo or result.window.hi < window.hi:
        raise DomainError("requested window exceeds the evaluated window")
    # members are sorted and distinct, which is a Finite's normal form
    return window_bits(Finite(result.members), window.lo, window.hi)


# ---------------------------------------------------------------------------
# symbolic rules


def sum2(x: IntSet, y: IntSet) -> IntSet | None:
    """Exact Minkowski sum of two normalized sets, or None if no rule fires.

    A finite set plus an optional ray closes first, in one step:
    F1 | [t1, oo) + F2 | [t2, oo) = {a + b < t : a in F1, b in F2} | [t, oo)
    for operands A and B with at least one ray, t = min(t1 + min B,
    t2 + min A); two down-rays mirror it.  That rule defers for opposite
    rays, and for two finite parts above _FINITE_FOLD_CAP, where no rule
    closes.

    Otherwise a union distributes: A + (B | C) = (A + B) | (A + C).  When
    exactly one operand is a Union of at most _FINITE_FOLD_CAP parts, the
    sum is the union of the partner's sums with each part, provided every
    part closes.  If one part does not close, the rules below run as if
    the distribution had not been tried; two Unions are distributed only
    after those rules.
    """
    if isinstance(x, Empty) or isinstance(y, Empty):
        return EMPTY
    if (res := _sum_finite_rays(x, y)) is not None:
        return res
    if isinstance(x, Union) != isinstance(y, Union):
        res = _distribute(x, y) if isinstance(x, Union) else _distribute(y, x)
        if res is not None:
            return res
    for a, b in ((x, y), (y, x)):
        if isinstance(a, Finite) and len(a.elements) <= _FINITE_FOLD_CAP:
            if isinstance(b, Finite):
                return normalize(
                    Finite(tuple({e + f for e in a.elements for f in b.elements}))
                )
            return union(*(shift(b, e) for e in a.elements))
    for a, b in ((x, y), (y, x)):
        # a cofinite class absorbs any infinite partner
        if isinstance(a, (Cofinite, Tail)) and is_infinite(b) is True:
            return ALL
    for a, b in ((x, y), (y, x)):
        if isinstance(a, HalfTail) or as_down_tail(a) is not None:
            res = _sum_ray(a, b)
            if res is not None:
                return res
    if isinstance(x, Congruence) and isinstance(y, Congruence):
        # m1*Z + m2*Z = gcd(m1, m2)*Z
        g = math.gcd(x.modulus, y.modulus)
        sums = {(r1 + r2) % g for r1 in x.residues for r2 in y.residues}
        return congruence(g, sums)
    if isinstance(x, Union) and isinstance(y, Union):
        for a, b in ((x, y), (y, x)):
            res = _distribute(a, b)
            if res is not None:
                return res
    return None


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


# smallest popcount of the sparser operand at which one Kronecker product
# beats the shift-or loop: measured near 4096 set bits for operands of 1e4
# to 3e5 bits, since both costs grow linearly with the longer operand
_KRONECKER_MIN_POPCOUNT = 4096
# exact integer arithmetic: no product of two finite operands can round
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)
_NONZERO_DIGIT = str.maketrans("23456789", "11111111")


def _conv(bits_a: int, bits_b: int, lo: int = 0, hi: int | None = None) -> int:
    """Sumset of two offset bitsets: bit i + j set iff bit i of one and
    bit j of the other are set.  Given hi, only its bits lo..hi, shifted
    down to start at bit 0."""
    if hi is not None:
        # no operand bit above hi reaches a kept sum
        keep = (1 << hi + 1) - 1
        square = bits_a is bits_b
        bits_a &= keep
        bits_b = bits_a if square else bits_b & keep
    if bits_a.bit_count() > bits_b.bit_count():
        bits_a, bits_b = bits_b, bits_a
    popcount = bits_a.bit_count()
    if popcount >= _KRONECKER_MIN_POPCOUNT:
        return _conv_kronecker(bits_a, bits_b, popcount, lo, hi)
    out = 0
    flags = bit_flags(bits_a)
    for i in compress(range(len(flags)), flags):
        out |= bits_b << i
    return _slice(out, lo, hi)


def _slice(bits: int, lo: int, hi: int | None) -> int:
    """Bits lo..hi of bits (all from lo when hi is None), shifted down."""
    bits >>= lo
    return bits if hi is None else bits & (1 << hi - lo + 1) - 1


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
        return Windowed(window, (), r, isinstance(s, Empty))
    # fold only the occupied span: bit k now marks v0 + k, where v0 is the
    # smallest member within the generation radius
    zeros = (bits & -bits).bit_length() - 1
    bits >>= zeros
    v0 = zeros - r
    w = bits.bit_length() - 1
    # the window lies at offsets lo..hi from h * v0, and a sum of k
    # summands reaches it only from offsets lo - (h - k) * w .. hi
    lo, hi = window.lo - h * v0, window.hi - h * v0
    members = ()
    if hi >= 0 and lo <= h * w:

        def fold(x: tuple[int, int], y: tuple[int, int], k: int) -> tuple[int, int]:
            """x + y, partial sums of k summands as (bits, offset of bit 0),
            cut to the offsets that can still reach the window."""
            off = x[1] + y[1]
            keep_lo = max(lo - (h - k) * w - off, 0)
            keep_hi = min(hi, k * w) - off
            if keep_hi < keep_lo:
                return 0, 0  # every sum lies past the window
            return _conv(x[0], y[0], keep_lo, keep_hi), off + keep_lo

        keep_lo = max(lo - (h - 1) * w, 0)
        base = _slice(bits, keep_lo, min(hi, w)), keep_lo
        if (h - 1) * base[0].bit_count() < _KRONECKER_MIN_POPCOUNT:
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
        flags = bit_flags(acc[0])
        start = h * v0 + acc[1]
        members = tuple(compress(range(start, start + len(flags)), flags))
    return Windowed(window, members, r, _complete(s, h, window, r))


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


def _divisors_in(s: IntSet) -> Callable[[int], tuple[int, ...]]:
    """v -> the signed divisors of v that lie in s, trial-divided once per v
    however many fold depths ask for them."""

    @lru_cache(maxsize=None)
    def divisors_in(v: int) -> tuple[int, ...]:
        return tuple(d for d in _signed_divisors(v) if contains(s, d))

    return divisors_in


def _rep_mult(s: IntSet, h: int, x: int) -> RepCount:
    if contains(s, 0):
        raise DomainError("multiplicative counts require a set avoiding 0")
    if x == 0:
        raise DomainError("multiplicative counts are defined for nonzero targets")
    _check_mult_target(x)
    divisors_in = _divisors_in(s)

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
        if is_infinite(pair_set) is True:
            return True
    return False


# ---------------------------------------------------------------------------
# h-fold product sets


def hfold_product(s: IntSet, h: int, window: Window) -> Windowed:
    """Exact h-fold product set within the window (ordered factorizations)."""
    if h < 1:
        raise DomainError(f"h must be >= 1, got {h}")
    s = normalize(s)
    if contains(s, 0):
        raise DomainError("product sets require a set avoiding 0")
    _check_mult_target(window.radius)
    check_cap(window)

    divisors_in = _divisors_in(s)
    memo: dict[tuple[int, int], bool] = {}

    def exists(k: int, v: int) -> bool:
        if k == 1:
            return contains(s, v)
        key = (k, v)
        if key in memo:
            return memo[key]
        out = any(exists(k - 1, v // d) for d in divisors_in(v))
        memo[key] = out
        return out

    members = tuple(
        x for x in range(window.lo, window.hi + 1) if x != 0 and exists(h, x)
    )
    return Windowed(window, members, window.radius, True)


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


def basis_order(
    s: IntSet, h_max: int, window: Window, gen_radius: int | None = None
) -> BasisReport:
    """Per-h window coverage of the h-fold sumset, certified where sound.

    Coverage only needs membership, which the enumeration establishes even
    when incomplete; non-coverage needs a closed form or a complete window.
    """
    s = normalize(s)
    verdicts: list[BasisVerdict] = []
    for h in range(1, h_max + 1):
        r = gen_radius or default_radius(window, h)
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

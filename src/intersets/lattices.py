"""Finite lattice-point sumsets, the norm-threshold tail construction, and
the k-term minimum-norm inequality, all in exact integer arithmetic.

Squared norms are compared as integers against squared rational
thresholds; no square root is ever taken.

Norm-tail layers decrease: the threshold 4q^2 m*^2 grows with q, so layer
q + 1 lies inside layer q, and so do their h-fold sums.  The depth-Q
intersection of the layer folds is therefore the fold of layer Q alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from operator import mul

from .errors import CapError, ConstructionError, InputError

_CELL_CAP = 4_000_000
_INT = {int}

Coords = tuple[int, ...]


def _int_coords(values, what: str = "coordinates") -> Coords:
    """The values as a tuple, if each is an int; floats, Fractions,
    strings and bools raise rather than being truncated or parsed."""
    c = tuple(values)
    if not {*map(type, c)} <= _INT:
        bad = next(v for v in c if type(v) is not int)
        raise InputError(f"{what} must be ints, got {bad!r}")
    return c


def _norm_sq(c: Coords) -> int:
    return sum(map(mul, c, c))


@dataclass(frozen=True)
class Box:
    """Per-coordinate inclusive bounds."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        bounds = tuple(_int_coords(b, "box bounds") for b in self.bounds)
        for b in bounds:
            if len(b) != 2:
                raise InputError(f"box bounds must be (lo, hi) pairs, got {b!r}")
            if b[0] > b[1]:
                raise InputError(f"box bound {b[0]} exceeds {b[1]}")
        object.__setattr__(self, "bounds", bounds)

    @staticmethod
    def cube(lo: int, hi: int, dim: int) -> "Box":
        return Box(((lo, hi),) * dim)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, p) -> bool:
        c = _int_coords(p)
        return len(c) == self.dim and all(
            lo <= v <= hi for v, (lo, hi) in zip(c, self.bounds)
        )

    def points(self):
        for c in product(*(range(lo, hi + 1) for lo, hi in self.bounds)):
            yield c


# ---------------------------------------------------------------------------
# folds


def lattice_hfold_sum(points, h: int, box: Box) -> frozenset[Coords]:
    """Exact h-fold sums of a finite point set, restricted to the box.

    With all summands nonnegative (the hypercube argument), every
    representation of a box point is coordinatewise dominated by it, so
    a materialization covering [0, hi] per axis misses nothing.
    """
    if h < 1:
        raise InputError(f"h must be >= 1, got {h}")
    pts = {_int_coords(p) for p in points}
    if not pts:
        return frozenset()
    dim = box.dim
    if any(len(p) != dim for p in pts):
        raise InputError("point dimension does not match the box")
    lo_c = [min(p[i] for p in pts) for i in range(dim)]
    hi_c = [max(p[i] for p in pts) for i in range(dim)]

    def admissible(v: Coords, remaining: int) -> bool:
        return all(
            v[i] + remaining * lo_c[i] <= box.bounds[i][1]
            and v[i] + remaining * hi_c[i] >= box.bounds[i][0]
            for i in range(dim)
        )

    acc: set[Coords] = {p for p in pts if admissible(p, h - 1)}
    for step in range(1, h):
        remaining = h - 1 - step
        nxt: set[Coords] = set()
        for a in acc:
            for p in pts:
                v = tuple(x + y for x, y in zip(a, p))
                if admissible(v, remaining):
                    nxt.add(v)
        if len(nxt) > _CELL_CAP:
            raise CapError(f"partial sum set exceeded {_CELL_CAP} cells")
        acc = nxt
    return frozenset(v for v in acc if box.contains(v))


# ---------------------------------------------------------------------------
# minimum-norm inequality


@dataclass(frozen=True)
class MinNormCheck:
    k: int
    sum_norm_sq: int
    k_times_min_sq: int
    holds: bool


def min_norm_inequality(vectors) -> MinNormCheck:
    """Exact check that the norm of a sum of k nonnegative nonzero
    vectors is at least sqrt(k) times the smallest norm, in squares."""
    vs = list(map(tuple, vectors))
    if not {*map(type, chain.from_iterable(vs))} <= _INT:
        # one pass decides; the vectors are read again only to name the
        # first value that is not an int
        for v in vs:
            _int_coords(v)
    if not vs:
        raise InputError("at least one vector is required")
    dim = len(vs[0])
    for v in vs:
        if len(v) != dim:
            raise InputError("mixed dimensions")
        # an all-zero vector (or one with no coordinates) has no negative
        # coordinate, so testing it first picks the same error
        if not any(v):
            raise InputError("zero vector not allowed")
        if min(v) < 0:
            raise InputError(f"negative coordinate in {v}")
    total = tuple(map(sum, zip(*vs)))
    lhs = _norm_sq(total)
    rhs = len(vs) * min(map(_norm_sq, vs))
    return MinNormCheck(len(vs), lhs, rhs, lhs >= rhs)


# ---------------------------------------------------------------------------
# norm-threshold tail families


class NormTailFamily:
    """Layers core | {x nonnegative : ||x||^2 >= (2q)^2 * m*^2}.

    m*^2 is taken squared and must dominate every core point's squared
    norm; it may exceed the maximum.
    """

    kind = "norm-tail"

    def __init__(self, core, m_star_sq):
        pts = frozenset(_int_coords(p) for p in core)
        if not pts:
            raise ConstructionError("core must be nonempty")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ConstructionError("core points must share a dimension")
        if any(c < 0 for p in pts for c in p):
            raise ConstructionError("core points must be nonnegative")
        self.core = pts
        self.dim = dims.pop()
        if type(m_star_sq) not in (int, Fraction):
            raise InputError(f"m*^2 must be an int or a Fraction, got {m_star_sq!r}")
        self.m_star_sq = Fraction(m_star_sq)
        worst = max(_norm_sq(p) for p in pts)
        if self.m_star_sq < worst:
            raise ConstructionError(
                f"m*^2 = {self.m_star_sq} is below the largest core norm "
                f"squared {worst}"
            )

    def tail_threshold_sq(self, q: int) -> Fraction:
        return 4 * q * q * self.m_star_sq

    def set_in_box(self, q: int, box: Box) -> frozenset[Coords]:
        """Layer q materialized over [min(0,lo), hi] per axis.

        The widened lower bound keeps every nonnegative point that a
        box sum could use, preserving the hypercube completeness bound.
        """
        if q < 1:
            raise InputError(f"layer index must be >= 1, got {q}")
        if box.dim != self.dim:
            raise InputError("box dimension does not match the family")
        wide = Box(tuple((min(0, lo), hi) for lo, hi in box.bounds))
        thr = self.tail_threshold_sq(q)
        tail = {
            c
            for c in wide.points()
            if all(v >= 0 for v in c) and _norm_sq(c) >= thr
        }
        return self.core | tail

    def exclusion_depth(self, x, h: int) -> int:
        """Least q at which any h-fold representation of x touching the
        tail is impossible: 2q - h >= 0 and (2q-h)^2 m*^2 >= ||x||^2."""
        n = _norm_sq(_int_coords(x))
        q = max(1, (h + 1) // 2)
        while (2 * q - h) < 0 or (2 * q - h) ** 2 * self.m_star_sq < n:
            q += 1
        return q


@dataclass(frozen=True)
class LatticeHCheck:
    h: int
    equal_on_box: bool
    certified: bool
    undetermined: tuple[Coords, ...]
    max_exclusion_depth: int
    mismatches: tuple[Coords, ...]

    @property
    def ok(self) -> bool:
        return self.equal_on_box and self.certified


@dataclass(frozen=True)
class LatticeTheoremReport:
    Q: int
    box: Box
    norm_sq_cap: int | None
    checks: tuple[LatticeHCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_lattice_theorem(
    family: NormTailFamily,
    h_max: int,
    Q: int,
    box: Box,
    norm_sq_cap: int | None = None,
) -> LatticeTheoremReport:
    """Box equality of core folds and truncated layer-fold intersections.

    Every box point outside the core fold gets its exclusion depth; the
    equality is certified when all depths are within Q, and points whose
    depth exceeds Q are reported undetermined.  The truncated
    intersection, the fold of layer Q, is computed as independent
    evidence.
    """
    if h_max < 1 or Q < 1:
        raise InputError("h_max and Q must be >= 1")
    if any(not box.contains(p) for p in family.core):
        raise InputError("the core must lie inside the box")
    considered = [
        c
        for c in box.points()
        if norm_sq_cap is None or _norm_sq(c) <= norm_sq_cap
    ]

    deepest = family.set_in_box(Q, box)
    checks = []
    for h in range(1, h_max + 1):
        core_fold = lattice_hfold_sum(family.core, h, box)
        trunc = lattice_hfold_sum(deepest, h, box)

        mismatches = []
        undetermined = []
        worst_depth = 0
        for x in considered:
            in_core = x in core_fold
            in_trunc = x in trunc
            if in_core != in_trunc:
                mismatches.append(x)
            if not in_core:
                depth = family.exclusion_depth(x, h)
                worst_depth = max(worst_depth, depth)
                if depth > Q:
                    undetermined.append(x)
        checks.append(
            LatticeHCheck(
                h=h,
                equal_on_box=not mismatches,
                certified=not undetermined,
                undetermined=tuple(undetermined),
                max_exclusion_depth=worst_depth,
                mismatches=tuple(mismatches),
            )
        )
    return LatticeTheoremReport(
        Q=Q, box=box, norm_sq_cap=norm_sq_cap, checks=tuple(checks)
    )

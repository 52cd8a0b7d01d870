"""Decreasing set families A_1 >= A_2 >= ... with a common intersection.

Every kind decreases but a hand-given explicit chain, whose `decreasing`
says if its layers nest.  A nested explicit chain's certificate and
intersection read its last layer alone; only a chain that does not nest
folds every layer.  Each family exposes its q-th layer, the exact
intersection of all layers, and (where one is known) a closed-form
certificate for the intersection of the layerwise h-fold sumsets.
Certificates are what lets the analyzer decide membership questions
symbolically instead of empirically; they are data, not trust, and the
test suite cross-validates each against truncated brute force.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import CapError, ConstructionError, InputError
from .symbolic import (
    ALL,
    MATERIALIZE_CAP,
    Cofinite,
    Finite,
    IntSet,
    affine,
    co_interval_bounds,
    cofinite,
    congruence,
    half_tail,
    intersect,
    is_subset,
    mask_members,
    normalize,
    scale_set,
    spiral_key,
    tail,
    unbounded,
    union,
    window_bits,
)
from .sumsets import _closed_hfold


@dataclass(frozen=True)
class TailCertificate:
    """Closed form for the intersection over all q of the h-fold layer sums."""

    closed_form: IntSet
    provenance: str


class Family(ABC):
    """A chain of integer sets indexed by q = 1, 2, ...

    `kind` tags the family's JSON document and `fields` declares the
    document's other keys in order, each with its shape: "int", "ints",
    "set", "sets" or "family".  A field is optional where the constructor
    has a default.  `decreasing` is derived, never a field: only a
    hand-given explicit chain, or a transform of one, can be False.
    """

    kind: str = "family"
    fields: dict[str, str] = {}
    depth: int | None = None  # None: the chain is infinite
    decreasing: bool = True

    @abstractmethod
    def set_at(self, q: int) -> IntSet:
        """The q-th layer."""

    @abstractmethod
    def intersection(self) -> IntSet:
        """The exact intersection of all layers."""

    def certificate(self, h: int) -> TailCertificate | None:
        """A closed form for the layer-fold intersection at h >= 2, or None.

        h = 1 needs none: the 1-fold sums are the layers themselves, whose
        intersection is `intersection()`.
        """
        return None

    def params(self) -> dict:
        """The declared fields' values, by name."""
        return {name: getattr(self, name) for name in self.fields}

    def layer_reach(self, q: int) -> int:
        """Magnitude scale of the q-th layer's parameters.

        A radius hint for windowed enumeration: sums that land in a small
        window may need summands of this size (tail thresholds, moduli).
        """
        return q

    def _check_q(self, q: int) -> None:
        if q < 1:
            raise InputError(f"layer index must be >= 1, got {q}")
        if self.depth is not None and q > self.depth:
            raise InputError(
                f"layer index {q} exceeds the family depth {self.depth}"
            )


class TailFamily(Family):
    """Layers core | {|x| >= q}: two-sided tails that shrink away."""

    kind = "tail"
    fields = {"core": "set"}

    def __init__(self, core: IntSet):
        self.core = normalize(core)

    def set_at(self, q: int) -> IntSet:
        self._check_q(q)
        return union(self.core, tail(0, q))

    def intersection(self) -> IntSet:
        return self.core

    def certificate(self, h: int) -> TailCertificate | None:
        # n = (n + q) + (h-2) copies of q + (-(h-1)q) uses only q-th tail
        # elements and covers every n >= 0; mirror the signs for n < 0
        return TailCertificate(ALL, "integers-tail")


class HalfTailFamily(Family):
    """Layers core | {x >= q}: one-sided tails."""

    kind = "half-tail"
    fields = {"core": "set"}

    def __init__(self, core: IntSet):
        self.core = normalize(core)

    def set_at(self, q: int) -> IntSet:
        self._check_q(q)
        return union(self.core, half_tail(q))

    def intersection(self) -> IntSet:
        return self.core

    def certificate(self, h: int) -> TailCertificate | None:
        if unbounded(self.core, -1):
            # n = c + (h-1) copies of q for a core point c <= n - (h-1)q
            return TailCertificate(ALL, "unbounded-below")
        # below-bounded summands give each target finitely many
        # representations, so layers deep enough add nothing
        if (fold := _closed_hfold(self.core, h)) is None:
            return None
        return TailCertificate(fold, "finiteness")


class CongruenceChainFamily(Family):
    """Layers spread a finite core along a divisibility chain of moduli."""

    kind = "congruence-chain"
    fields = {"core": "ints", "m1": "int", "moduli": "ints", "ratio": "int"}

    def __init__(
        self, core, m1: int | None = None, ratio: int | None = None, moduli=None
    ):
        elements = tuple(sorted(set(int(a) for a in core)))
        if not elements:
            raise ConstructionError("core must be a nonempty finite set")
        if ratio is not None and ratio < 2:
            raise ConstructionError(f"modulus ratio must be >= 2, got {ratio}")
        self.core = elements
        self.m_star = max(abs(a) for a in elements)
        self.ratio = 2 if ratio is None else ratio
        if moduli is not None:
            if m1 is not None:
                raise ConstructionError("give either m1 or a modulus chain, not both")
            chain = tuple(int(m) for m in moduli)
            if not chain:
                raise ConstructionError("modulus chain must be nonempty")
            for a, b in zip(chain, chain[1:]):
                if a < 1 or b <= a or b % a != 0:
                    raise ConstructionError(
                        f"moduli must strictly increase along divisibility, "
                        f"got {a} then {b}"
                    )
            self.moduli = chain
            if len(chain) > 1:
                self.ratio = chain[-1] // chain[-2]
                if ratio not in (None, self.ratio):
                    raise ConstructionError(
                        f"ratio {ratio} differs from the chain's ratio {self.ratio}"
                    )
        else:
            if m1 is None:
                raise ConstructionError("either m1 or a modulus chain is required")
            self.moduli = (int(m1),)
        if self.moduli[0] <= 2 * self.m_star:
            raise ConstructionError(
                f"first modulus {self.moduli[0]} must exceed twice the core "
                f"radius {self.m_star}"
            )

    def modulus_at(self, q: int) -> int:
        self._check_q(q)
        if q <= len(self.moduli):
            return self.moduli[q - 1]
        return self.moduli[-1] * self.ratio ** (q - len(self.moduli))

    def set_at(self, q: int) -> IntSet:
        m = self.modulus_at(q)
        return congruence(m, {a % m for a in self.core})

    def intersection(self) -> IntSet:
        return normalize(Finite(self.core))

    def certificate(self, h: int) -> TailCertificate | None:
        # deep enough layers have m_q > 2h*m_star, where the core sums are
        # pairwise incongruent; only they survive the full intersection
        if (fold := _closed_hfold(normalize(Finite(self.core)), h)) is None:
            return None
        return TailCertificate(fold, "congruence-chain")

    def pinning_depth(self, h: int, wmax: int) -> int:
        """Least q whose modulus pins every |x| <= wmax to a core sum."""
        q = 1
        while self.modulus_at(q) <= wmax + h * self.m_star:
            q += 1
        return q

    def layer_reach(self, q: int) -> int:
        return self.modulus_at(q)

    def params(self) -> dict:
        return {"core": list(self.core), "moduli": list(self.moduli), "ratio": self.ratio}


class CosetTailFamily(Family):
    """A subgroup dZ plus a receding tail {x + d*r : r >= q} of one coset."""

    kind = "coset-tail"
    fields = {"subgroup_step": "int", "coset_base": "int"}

    def __init__(self, subgroup_step: int, coset_base: int):
        if subgroup_step < 2:
            raise ConstructionError(
                f"subgroup step must be >= 2, got {subgroup_step}"
            )
        if coset_base % subgroup_step == 0:
            raise ConstructionError(
                f"{coset_base} lies in {subgroup_step}Z; the tail must come "
                f"from a proper coset"
            )
        self.subgroup_step = subgroup_step
        self.coset_base = coset_base

    def set_at(self, q: int) -> IntSet:
        self._check_q(q)
        d, x = self.subgroup_step, self.coset_base
        return union(
            congruence(d, (0,)),
            intersect(congruence(d, (x % d,)), half_tail(x + d * q)),
        )

    def intersection(self) -> IntSet:
        return congruence(self.subgroup_step, (0,))

    def certificate(self, h: int) -> TailCertificate | None:
        # sums using j coset elements fill the full class j*x + dZ for
        # j < h (the subgroup part is unbounded below, erasing the tail
        # threshold); the all-coset term j = h recedes with q
        d, x = self.subgroup_step, self.coset_base
        residues = {(j * x) % d for j in range(h)}
        return TailCertificate(congruence(d, residues), "subgroup")

    def layer_reach(self, q: int) -> int:
        return abs(self.coset_base) + self.subgroup_step * q


class EnumerationFamily(Family):
    """Layer q restores the complement points enumerated from index q on.

    The complement of the core is listed by increasing |a|, negatives
    before positives on ties; layer q is Z minus the first q-1 entries,
    which equals core | {a_r : r >= q}.
    """

    kind = "enumeration"
    fields = {"core": "set"}

    def __init__(self, core: IntSet):
        self.core = normalize(core)
        if self.core == ALL:
            raise ConstructionError("core must have a nonempty complement")

    def _complement_prefix(self, n: int) -> list[int]:
        # a finite complement is listed whole, so asking for more points
        # than it has returns all of them instead of searching for more
        if isinstance(self.core, Cofinite):
            pool = self.core.excluded
        elif (gap := co_interval_bounds(self.core)) is not None:
            # the complement is the interval [a, b]; its first n points lie
            # within n of its point nearest 0
            a, b = gap
            near = min(max(0, a), b)
            pool = range(max(a, near - n), min(b, near + n) + 1)
        else:
            # spiral order lists all of [-r, r] before any |x| > r, so once
            # the window holds n complement points they are the first n;
            # the last radius is the largest whose window fits the cap
            top = (MATERIALIZE_CAP - 1) // 2
            r = 64
            while True:
                r = min(r, top)
                gaps = ((1 << (2 * r + 1)) - 1) & ~window_bits(self.core, -r, r)
                if gaps.bit_count() >= n:
                    break
                if r == top:
                    raise CapError(f"complement enumeration exceeded |a| <= {top}")
                r *= 4
            pool = mask_members(gaps, -r)
        return sorted(pool, key=spiral_key)[:n]

    def set_at(self, q: int) -> IntSet:
        self._check_q(q)
        return cofinite(self._complement_prefix(q - 1))

    def intersection(self) -> IntSet:
        return self.core

    def certificate(self, h: int) -> TailCertificate | None:
        # every layer is cofinite, and two cofinite sets sum to all of Z
        return TailCertificate(ALL, "cofinite-basis")


def _check_inner(inner) -> None:
    if not isinstance(inner, Family):
        raise ConstructionError(
            f"inner must be a family of integer sets, got {type(inner).__name__}"
        )


class AffineFamily(Family):
    """unit * F + shift, layer by layer."""

    kind = "affine"
    fields = {"unit": "int", "shift": "int", "inner": "family"}

    def __init__(self, unit: int, shift: int, inner: Family):
        if unit not in (1, -1):
            raise ConstructionError(f"unit must be +1 or -1, got {unit}")
        _check_inner(inner)
        self.unit = unit
        self.shift = shift
        self.inner = inner
        # an injective map keeps the layers' nesting, or its absence
        self.depth, self.decreasing = inner.depth, inner.decreasing

    def set_at(self, q: int) -> IntSet:
        return affine(self.unit, self.shift, self.inner.set_at(q))

    def intersection(self) -> IntSet:
        return affine(self.unit, self.shift, self.inner.intersection())

    def certificate(self, h: int) -> TailCertificate | None:
        base = self.inner.certificate(h)
        if base is None:
            return None
        # h-fold sums commute with x -> unit*x + shift up to h*shift
        return TailCertificate(
            affine(self.unit, h * self.shift, base.closed_form),
            f"affine({base.provenance})",
        )

    def layer_reach(self, q: int) -> int:
        return self.inner.layer_reach(q) + abs(self.shift)


class ScaledFamily(Family):
    """k * F for |k| >= 2.

    No certificate is attached yet (ROADMAP direction 2): dilation by a
    non-unit is outside the affine transport rule, so the analyzer takes
    its two-scale empirical path at every h >= 2.
    """

    kind = "scaled"
    fields = {"inner": "family", "factor": "int"}

    def __init__(self, inner: Family, factor: int):
        if factor in (0, 1, -1):
            raise ConstructionError(
                f"scale factor must have magnitude >= 2, got {factor}"
            )
        _check_inner(inner)
        self.inner = inner
        self.factor = factor
        self.depth, self.decreasing = inner.depth, inner.decreasing

    def set_at(self, q: int) -> IntSet:
        return scale_set(self.inner.set_at(q), self.factor)

    def intersection(self) -> IntSet:
        return scale_set(self.inner.intersection(), self.factor)

    def layer_reach(self, q: int) -> int:
        return abs(self.factor) * self.inner.layer_reach(q)


class ExplicitFamily(Family):
    """A hand-given finite chain A_1, ..., A_Q; its layers need not nest.

    When they nest, the h-fold sums nest too, so the certificate folds
    and the intersection reads layer Q alone; a chain that does not nest
    folds every layer and intersects the folds.
    """

    kind = "explicit"
    fields = {"sets": "sets"}

    def __init__(self, sets):
        layers = tuple(normalize(s) for s in sets)
        if not layers:
            raise ConstructionError("at least one layer is required")
        self.sets = layers
        self.depth = len(layers)
        self.decreasing = all(is_subset(b, a) for a, b in zip(layers, layers[1:]))

    def set_at(self, q: int) -> IntSet:
        self._check_q(q)
        return self.sets[q - 1]

    def intersection(self) -> IntSet:
        return self.sets[-1] if self.decreasing else intersect(*self.sets)

    def certificate(self, h: int) -> TailCertificate | None:
        folds = []
        for s in self.sets[-1:] if self.decreasing else self.sets:
            if (fold := _closed_hfold(s, h)) is None:
                return None
            folds.append(fold)
        cert = folds[0] if self.decreasing else intersect(*folds)
        return TailCertificate(cert, "explicit")


class ProductFamily:
    """Componentwise pairing of two families over Z x Z."""

    kind = "product"
    fields = {"left": "family", "right": "family"}
    params = Family.params

    def __init__(self, left: Family, right: Family):
        self.left = left
        self.right = right
        depths = [f.depth for f in (left, right) if f.depth is not None]
        self.depth = min(depths) if depths else None

    def set_at(self, q: int) -> tuple[IntSet, IntSet]:
        return (self.left.set_at(q), self.right.set_at(q))

    def intersection(self) -> tuple[IntSet, IntSet]:
        return (self.left.intersection(), self.right.intersection())


# ---------------------------------------------------------------------------
# construction from tagged parameters


FAMILY_KINDS = {
    cls.kind: cls
    for cls in (TailFamily, HalfTailFamily, CongruenceChainFamily, CosetTailFamily,
                EnumerationFamily, AffineFamily, ScaledFamily, ExplicitFamily, ProductFamily)
}


def family_class(kind) -> type:
    """The class of a family document's kind tag."""
    cls = FAMILY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConstructionError(
            f"unknown family kind {kind!r}; expected one of {sorted(FAMILY_KINDS)}"
        )
    return cls

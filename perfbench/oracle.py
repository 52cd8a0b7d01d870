"""Brute-force checks that share no code with the engine.

Sets are described here by the benchmark's own generators, as unions of
simple atoms with an optional affine map or dilation on top.  The checks
list a set's elements on an interval straight from that description and
search for h-fold representations over the list.
"""

from __future__ import annotations

from bisect import bisect_left


class Spec:
    """A set given by atoms, then mapped x -> scale * (unit * x + shift).

    Atoms: ("fin", elems), ("cong", m, residues), ("abs", q) for |x| >= q,
    ("ge", t) for x >= t, ("congge", m, r, t) for x = r mod m and x >= t,
    ("cof", excluded).
    """

    def __init__(self, atoms, unit=1, shift=0, scale=1, inner=None):
        self.atoms = tuple(atoms)
        self.unit, self.shift, self.scale = unit, shift, scale
        self.inner = inner

    def mapped(self, unit=1, shift=0, scale=1) -> "Spec":
        return Spec((), unit, shift, scale, inner=self)

    def elements(self, lo: int, hi: int) -> list[int]:
        """Sorted members in [lo, hi]."""
        if self.inner is not None:
            k = self.scale
            a, b = sorted((lo, hi)) if k > 0 else sorted((-hi, -lo))
            k = abs(k)
            inner_lo, inner_hi = -((-a) // k), b // k
            # x = unit * y + shift  <=>  y = unit * (x - shift)
            ys = self.inner.elements(
                *sorted((self.unit * (inner_lo - self.shift), self.unit * (inner_hi - self.shift)))
            )
            out = sorted(self.scale * (self.unit * y + self.shift) for y in ys)
            return [x for x in out if lo <= x <= hi]
        found: set[int] = set()
        for atom in self.atoms:
            found.update(_atom_elements(atom, lo, hi))
        return sorted(found)


def _atom_elements(atom, lo, hi):
    kind = atom[0]
    if kind == "fin":
        return [x for x in atom[1] if lo <= x <= hi]
    if kind == "cong":
        m = atom[1]
        return [x for r in atom[2] for x in range(lo + (r - lo) % m, hi + 1, m)]
    if kind == "abs":
        q = atom[1]
        return list(range(lo, min(hi, -q) + 1)) + list(range(max(lo, q), hi + 1))
    if kind == "ge":
        return range(max(lo, atom[1]), hi + 1)
    if kind == "congge":
        _, m, r, t = atom
        start = max(lo, t)
        return range(start + (r - start) % m, hi + 1, m)
    if kind == "cof":
        excluded = set(atom[1])
        return [x for x in range(lo, hi + 1) if x not in excluded]
    raise ValueError(f"unknown atom {kind!r}")


def _near(elems: list[int], center: float):
    """Elements in order of distance from center."""
    j = bisect_left(elems, center)
    i = j - 1
    n = len(elems)
    while i >= 0 or j < n:
        if j >= n or (i >= 0 and center - elems[i] <= elems[j] - center):
            yield elems[i]
            i -= 1
        else:
            yield elems[j]
            j += 1


class SumSearch:
    """Exhaustive search for x = a_1 + ... + a_h over a finite element list.

    Branches are pruned only by exact necessary conditions read off the
    list itself: the range [j*min, j*max] of j-fold sums and, for a given
    modulus, the residues that j-fold sums can take.
    """

    def __init__(self, elems, period: int = 1):
        self.elems = sorted(set(elems))
        self.members = set(self.elems)
        self.period = max(period, 1)
        self._residues = [None, {e % self.period for e in self.elems}]
        self._dead: set[tuple[int, int]] = set()  # (target, j) with no representation

    def _res(self, j: int) -> set[int]:
        while len(self._residues) <= j:
            prev, base, p = self._residues[-1], self._residues[1], self.period
            self._residues.append({(a + b) % p for a in prev for b in base})
        return self._residues[j]

    def has(self, x: int, h: int) -> bool:
        if not self.elems:
            return False
        return self._has(x, h)

    def _has(self, y: int, j: int) -> bool:
        if j == 1:
            return y in self.members
        lo, hi = self.elems[0], self.elems[-1]
        if not j * lo <= y <= j * hi or y % self.period not in self._res(j):
            return False
        if (y, j) in self._dead:
            return False
        if j == 2:
            members = self.members
            if any(y - a in members for a in self.elems):
                return True
            self._dead.add((y, j))
            return False
        rest = self._res(j - 1)
        p = self.period
        for a in _near(self.elems, y / j):
            z = y - a
            if (j - 1) * lo <= z <= (j - 1) * hi and z % p in rest and self._has(z, j - 1):
                return True
        self._dead.add((y, j))
        return False


class PairSums:
    """h-fold membership for h <= 4 over a short list, by meeting in the
    middle on the set of pair sums."""

    def __init__(self, elems):
        self.elems = sorted(set(elems))
        self.members = set(self.elems)
        self.pairs = {a + b for i, a in enumerate(self.elems) for b in self.elems[i:]}

    def has(self, x: int, h: int) -> bool:
        if h == 1:
            return x in self.members
        if h == 2:
            return x in self.pairs
        if h == 3:
            return any(x - a in self.pairs for a in self.elems)
        if h == 4:
            return any(x - p in self.pairs for p in self.pairs)
        raise ValueError(f"pair-sum search supports h <= 4, got {h}")

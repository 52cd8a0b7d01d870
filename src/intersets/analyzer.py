"""Per-h verdicts on whether h-fold sums of a family's intersection match
the intersection of its layers' h-fold sums.

For a decreasing chain A_1 >= A_2 >= ... with intersection A, every sum of
h elements of A is a sum of h elements of each A_q, so hA is contained in
the layer-fold intersection for free.  The open direction is whether the
intersection has extra elements, and the decision procedure reflects that
asymmetry: with a closed form C for the full layer-fold intersection
(a certificate), h is in H exactly when C is contained in hA, and any
element of C missing from hA is a one-point disproof.  Of several such
points the one reported is the first in spiral order (nearest 0, the
negative one first on ties), read off a window mask by `spiral_first`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import count

from .errors import InputError, InvariantError
from .families import ExplicitFamily, Family, ProductFamily
from .groups import FiniteGroupTable, _group_verdicts, group_hfolds
from .symbolic import (
    MATERIALIZE_CAP,
    OUT,
    Cofinite,
    Congruence,
    Empty,
    Finite,
    IntSet,
    Tail,
    Union,
    Window,
    check_cap,
    congruence,
    contains,
    is_subset,
    mask_members,
    max_element,
    min_element,
    normalize,
    spiral_first,
    spiral_key,
    window_bits,
)
from .sumsets import (
    Closed,
    SumsetResult,
    _closed_hfold,
    default_radius,
    members_in,
    query,
    symbolic_hfold_sum,
    window_mask,
)

CERTIFIED_IN = "CertifiedIn"
CERTIFIED_OUT = "CertifiedOut"
EMPIRICAL_EQUAL = "EmpiricalEqual"
UNDETERMINED = "Undetermined"

_IN_STATUSES = frozenset({CERTIFIED_IN, EMPIRICAL_EQUAL})
_STRENGTH = {CERTIFIED_IN: 0, EMPIRICAL_EQUAL: 1, UNDETERMINED: 2}
# the empirical path's confirmation pass scales Q, the window and an
# explicit gen_radius by this factor
DEEP_SCALE = 2


@dataclass(frozen=True)
class HConfig:
    """Truncation depth, reporting window, and enumeration radius.

    gen_radius None picks a per-layer radius from the window, h, and the
    family's layer_reach; an explicit value is used as given (scaled along
    with the window by DEEP_SCALE on the deep confirmation pass).
    """

    Q: int = 8
    window: Window = Window(-24, 24)
    gen_radius: int | None = None

    def __post_init__(self):
        for name in ("Q", "gen_radius"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InputError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class HVerdict:
    h: int
    status: str
    witness: object | None  # int, or a component pair for product families
    evidence: str
    # a certified member of the layer-fold intersection, when one is known;
    # products embed component witnesses next to these
    sample: object | None = None
    # True/False only when certified by a closed form; None means unknown
    intersection_empty: bool | None = None

    @property
    def in_H(self) -> bool:
        return self.status in _IN_STATUSES


@dataclass(frozen=True)
class HReport:
    kind: str
    config: HConfig
    verdicts: tuple[HVerdict, ...]

    @property
    def h_max(self) -> int:
        return len(self.verdicts)

    def verdict(self, h: int) -> HVerdict:
        if not 1 <= h <= len(self.verdicts):
            raise InputError(f"no verdict for h={h}")
        return self.verdicts[h - 1]

    @property
    def statuses(self) -> tuple[str, ...]:
        return tuple(v.status for v in self.verdicts)

    @property
    def in_H(self) -> tuple[int, ...]:
        return tuple(v.h for v in self.verdicts if v.in_H)

    @property
    def all_certified(self) -> bool:
        return all(
            v.status in (CERTIFIED_IN, CERTIFIED_OUT) for v in self.verdicts
        )


# ---------------------------------------------------------------------------
# sampling helper


def _nearest_member(s: IntSet) -> int | None:
    """The spiral-first member of a normal form read off the term: the
    members nearest 0 on each side of a Finite, r - m and r for the outer
    residues of m.Z + R, the first point of 0, -1, 1, -2, ... that a
    Cofinite does not exclude, 0 or else c - r and c + r for a Tail with
    center c and radius r, and the nearest of a Union's parts.  None for
    every other shape, or a Union with such a part."""
    if isinstance(s, Cofinite):
        gone = set(s.excluded)
        return next(x for k in count() for x in (-k, k) if x not in gone)
    if isinstance(s, Finite):
        xs = s.elements
        i = bisect_left(xs, 0)
        near = xs[max(i - 1, 0) : i + 1]
    elif isinstance(s, Congruence):
        near = (s.residues[-1] - s.modulus, s.residues[0])
    elif isinstance(s, Tail):  # Z minus c - r + 1 .. c + r - 1
        c, r = s.center, s.radius
        near = (0,) if abs(c) >= r else (c - r, c + r)
    elif isinstance(s, Union):
        near = [_nearest_member(p) for p in s.parts]
        if None in near:
            return None
    else:
        return None
    return min(near, key=spiral_key)


def _sample_member(s: IntSet, window: Window) -> int | None:
    """Smallest-|x| member (negatives first), read off the term by
    `_nearest_member` where its shape gives it (a Finite, Congruence,
    Cofinite, Tail or a Union of them) and the first window holds it, else
    scanning growing windows while they stay within the materialization
    cap."""
    s = normalize(s)
    if isinstance(s, Empty):
        return None
    r = max(window.radius, 64)
    check_cap(Window(-r, r))
    # the scan of the first window returns the same member when it lies there
    x = _nearest_member(s)
    if x is not None and -r <= x <= r:
        return x
    for _ in range(4):
        x = spiral_first(window_bits(s, -r, r), -r)
        if x is not None:
            return x
        r *= 4
        if Window(-r, r).size > MATERIALIZE_CAP:
            break
    lo = min_element(s)
    if lo is not None:
        return lo
    return max_element(s)


# ---------------------------------------------------------------------------
# single-family verdicts

# what a decision procedure settles: (status, witness, evidence)
Outcome = tuple[str, object | None, str]


def compute_H(
    family: Family | ProductFamily, h_max: int, config: HConfig | None = None
) -> HReport:
    """Statuses for h = 1..h_max, certified where a closed form allows."""
    if h_max < 1:
        raise InputError(f"h_max must be >= 1, got {h_max}")
    if isinstance(family, ProductFamily):
        return compute_H_product(family, h_max, config)
    cfg = config or HConfig()
    core = normalize(family.intersection())
    verdicts = tuple(_verdict_h(family, core, h, cfg) for h in range(1, h_max + 1))
    return HReport(kind=family.kind, config=cfg, verdicts=verdicts)


def _verdict_h(family: Family, core: IntSet, h: int, cfg: HConfig) -> HVerdict:
    # the 1-fold sums are the layers themselves: the core certifies h = 1
    cert = None if h == 1 else family.certificate(h)
    cset = core if h == 1 else (normalize(cert.closed_form) if cert else None)
    sample: int | None = None
    empty: bool | None = None
    if cset is not None:
        if isinstance(cset, Empty):
            empty = True
        else:
            sample = _sample_member(cset, cfg.window)
            # at h = 1 a core whose normal form is not Empty is nonempty
            if sample is not None or h == 1:
                empty = False

    if h == 1:
        outcome: Outcome = (
            CERTIFIED_IN,
            None,
            "1-fold sums are the sets themselves; the chain intersection "
            "matches by construction",
        )
    elif cert is not None:
        radius = cfg.gen_radius
        if radius is not None:
            radius = max(radius, cfg.window.radius)
        lhs = symbolic_hfold_sum(core, h, cfg.window, radius)
        outcome = _with_certificate(lhs, cset, cert.provenance, h, cfg.window)
    else:
        outcome = _empirical(family, core, h, cfg)
    return HVerdict(h, *outcome, sample, empty)


def _with_certificate(
    lhs: SumsetResult, cset: IntSet, provenance: str, h: int, window: Window
) -> Outcome:
    tag = f"[{provenance}]"
    if isinstance(lhs, Closed):
        fold = lhs.set
        if fold == cset or is_subset(cset, fold):
            return (
                CERTIFIED_IN,
                None,
                f"closed {h}-fold sumset absorbs the intersection "
                f"certificate {tag}",
            )
        # witnesses are searched beyond the reporting window, on radii 1, 4
        # and 16 times its own while within the cap; a symmetric range is a
        # prefix of spiral order, so the first radius with a witness suffices
        r = max(window.radius, 32)
        for r in (r, 4 * r, 16 * r):
            if Window(-r, r).size > MATERIALIZE_CAP:
                break
            diff = window_bits(cset, -r, r) & ~window_bits(fold, -r, r)
            if (w := spiral_first(diff, -r)) is not None:
                return (
                    CERTIFIED_OUT,
                    w,
                    f"{w} lies in the intersection certificate {tag} but not "
                    f"in the closed {h}-fold sumset",
                )
        return (
            UNDETERMINED,
            None,
            f"certificate {tag} is not provably inside the closed sumset and "
            f"no witness was found in the search range",
        )

    win = lhs.window
    check_cap(win)
    got = window_mask(lhs, win)
    cbits = window_bits(cset, win.lo, win.hi)
    if got & ~cbits:
        raise InvariantError(
            f"sumset members escape the intersection certificate {tag}: "
            f"{mask_members(got & ~cbits, win.lo)[:5]}"
        )
    x = spiral_first(cbits & ~got, win.lo)
    if x is not None:
        if lhs.complete:
            return (
                CERTIFIED_OUT,
                x,
                f"{x} lies in the intersection certificate {tag}; the "
                f"{h}-fold enumeration on [{win.lo},{win.hi}] is complete "
                f"(generation radius {lhs.generation_radius}) and omits it",
            )
        return (
            UNDETERMINED,
            x,
            f"candidate witness {x} from the certificate {tag} is absent up "
            f"to generation radius {lhs.generation_radius}, but the "
            f"enumeration is not complete",
        )
    return (
        EMPIRICAL_EQUAL,
        None,
        f"windowed {h}-fold sums match the certificate {tag} on "
        f"[{win.lo},{win.hi}]",
    )


def truncated_layer_fold(
    family: Family,
    h: int,
    window: Window,
    Q: int,
    gen_radius: int | None = None,
) -> set[int]:
    """Window members of the depth-Q intersection of layer h-fold sums.

    Nested layers meet at the deepest one: a decreasing family's h-fold
    sums decrease too, so only layer Q is folded; a chain that does not
    nest folds every layer 1..Q and ANDs the window masks.  Windowed
    layers contribute sums of elements within the generation radius only,
    so the result can undercount; closed layers are exact.  With an
    explicit gen_radius layer Q's fold equals the AND of all Q folds; with
    per-layer radii it holds that AND and lies inside the exact fold.
    """
    if Q < 1:
        raise InputError(f"Q must be >= 1, got {Q}")
    if family.depth is not None:
        Q = min(Q, family.depth)
    acc = -1  # every bit set: the identity of AND
    for q in range(Q if family.decreasing else 1, Q + 1):
        r = gen_radius
        if r is None:
            r = default_radius(window, h, family.layer_reach(q))
        res = symbolic_hfold_sum(family.set_at(q), h, window, max(r, window.radius))
        acc &= window_mask(res, window)
    return set(mask_members(acc, window.lo))


def _empirical(family: Family, core: IntSet, h: int, cfg: HConfig) -> Outcome:
    """Two-scale truncation comparison of the normalized core's folds when
    no certificate exists."""
    passes = []
    for scale in (1, DEEP_SCALE):
        win = cfg.window.scaled(scale) if scale != 1 else cfg.window
        Q = cfg.Q * scale
        if family.depth is not None:
            Q = min(Q, family.depth)
        radius = cfg.gen_radius * scale if cfg.gen_radius is not None else None
        lhs = symbolic_hfold_sum(
            core,
            h,
            win,
            max(radius, win.radius) if radius is not None else None,
        )
        left = members_in(lhs, win)
        trunc = truncated_layer_fold(family, h, win, Q, radius)
        missing = left - trunc
        if missing and not isinstance(lhs, Closed):
            # windowed folds use per-layer radii at least as large as the
            # core's, so core sums can never outrun the layers
            raise InvariantError(
                f"core {h}-fold members escape a layer fold: "
                f"{sorted(missing)[:5]}"
            )
        extra = min(trunc - left, key=spiral_key, default=None)
        passes.append((win, Q, extra, missing))

    (w1, q1, d1, m1), (w2, q2, d2, m2) = passes
    if m1 or m2:
        return (
            UNDETERMINED,
            None,
            "closed core sums exceed the windowed layer folds; the "
            "generation radius is too small for this family",
        )
    if d1 is None and d2 is None:
        return (
            EMPIRICAL_EQUAL,
            None,
            f"truncated layer intersections match the {h}-fold sumset at "
            f"(Q={q1}, [{w1.lo},{w1.hi}]) and (Q={q2}, [{w2.lo},{w2.hi}])",
        )
    cand = d1 if d2 is None else d2
    return (
        UNDETERMINED,
        cand,
        f"{cand} persists in the depth-{q2} truncated intersection without "
        f"appearing in the {h}-fold sumset; no certificate to decide",
    )


def verify_out_witness(family: Family, h: int, x: int) -> bool:
    """Independent re-check of a CertifiedOut witness.

    Confirms x is in the certificate's closed form and certifiably absent
    from the h-fold sums of the intersection.  No h = 1 verdict is
    CertifiedOut, and certificates start at h = 2.
    """
    cert = family.certificate(h) if h > 1 else None
    if cert is None or not contains(cert.closed_form, x):
        return False
    core = normalize(family.intersection())
    res = symbolic_hfold_sum(core, h, Window(-abs(x) - 8, abs(x) + 8))
    # OUT needs a closed form or a complete window; out-up-to is not enough
    return query(res, x) == OUT


# ---------------------------------------------------------------------------
# affine transport


def transfer_affine(report: HReport, unit: int, shift: int) -> HReport:
    """The same statuses for the family x -> unit*x + shift, layer by layer.

    Sums of h transformed elements are the transformed sums shifted by
    h*shift, so verdicts carry over with witnesses mapped pointwise.
    """
    if unit not in (1, -1):
        raise InputError(f"unit must be +1 or -1, got {unit}")

    def move(v: object | None, h: int) -> object | None:
        if isinstance(v, bool) or not isinstance(v, int):
            return v
        return unit * v + h * shift

    verdicts = tuple(
        replace(
            v,
            witness=move(v.witness, v.h),
            evidence=f"{v.evidence} (transported through x -> {unit:+d}*x + {shift})",
            sample=move(v.sample, v.h),
        )
        for v in report.verdicts
    )
    return HReport(
        kind=f"affine({report.kind})", config=report.config, verdicts=verdicts
    )


# ---------------------------------------------------------------------------
# products


def _pair_verdict(va: HVerdict, vb: HVerdict) -> HVerdict:
    """Conjunction of component verdicts for a componentwise pair family.

    Pair sums decompose per component, so h works for the pair exactly
    when it works for both components -- unless one component's layer-fold
    intersection is empty, which collapses both pair sets to nothing.
    """
    sample = None
    empty: bool | None = None
    if va.intersection_empty or vb.intersection_empty:
        empty_side = "left" if va.intersection_empty else "right"
        empty = True
        outcome: Outcome = (
            CERTIFIED_IN,
            None,
            f"the {empty_side} component's layer-fold intersection is empty, "
            f"so the pair sumset and pair intersection both vanish",
        )
    else:
        if va.sample is not None and vb.sample is not None:
            sample = (va.sample, vb.sample)
        if va.intersection_empty is False and vb.intersection_empty is False:
            empty = False
        outcome = _pair_outcome(va, vb)
    return HVerdict(va.h, *outcome, sample, empty)


def _pair_outcome(va: HVerdict, vb: HVerdict) -> Outcome:
    a_out = va.status == CERTIFIED_OUT
    b_out = vb.status == CERTIFIED_OUT
    if a_out and b_out:
        return (
            CERTIFIED_OUT,
            (va.witness, vb.witness),
            "both components certified out; their witnesses pair up",
        )
    if a_out or b_out:
        out_v, other = (va, vb) if a_out else (vb, va)
        if other.sample is None:
            return (
                UNDETERMINED,
                None,
                "one component is certified out but the partner side has no "
                "certified member to embed the witness with",
            )
        witness = (
            (out_v.witness, other.sample) if a_out else (other.sample, out_v.witness)
        )
        return (
            CERTIFIED_OUT,
            witness,
            f"component witness {out_v.witness} embedded beside the "
            f"certified partner member {other.sample}",
        )
    status = max(va.status, vb.status, key=_STRENGTH.__getitem__)
    return (
        status,
        None,
        f"componentwise conjunction (left {va.status}, right {vb.status})",
    )


def transfer_product(report_a: HReport, report_b: HReport) -> HReport:
    """Verdicts for the componentwise pair family from component reports."""
    if report_a.h_max != report_b.h_max:
        raise InputError(
            f"mismatched h ranges: {report_a.h_max} vs {report_b.h_max}"
        )
    verdicts = tuple(
        _pair_verdict(va, vb)
        for va, vb in zip(report_a.verdicts, report_b.verdicts)
    )
    return HReport(
        kind=f"product({report_a.kind},{report_b.kind})",
        config=report_a.config,
        verdicts=verdicts,
    )


def compute_H_product(
    pf: ProductFamily, h_max: int, config: HConfig | None = None
) -> HReport:
    """Pair-family verdicts from the two component reports.

    h(A x B) = hA x hB for every pair of sets, so each component is
    analysed on its own axis and the verdicts are paired by
    transfer_product.
    """
    cfg = config or HConfig()
    return transfer_product(
        compute_H(pf.left, h_max, cfg), compute_H(pf.right, h_max, cfg)
    )


# ---------------------------------------------------------------------------
# pullback through reduction mod m


@dataclass(frozen=True)
class FoldCheck:
    h: int
    residues: tuple[int, ...]
    group_fold: tuple[int, ...]
    # the closed h-fold sum of the pulled-back layer is the pulled-back hB
    ok: bool


@dataclass(frozen=True)
class PullbackReport:
    modulus: int
    fold_checks: tuple[FoldCheck, ...]
    h_in_group: tuple[bool, ...]
    h_in_integers: tuple[bool, ...]

    @property
    def fold_identity(self) -> bool:
        return all(c.ok for c in self.fold_checks)

    @property
    def h_agrees(self) -> bool:
        return self.h_in_group == self.h_in_integers

    @property
    def ok(self) -> bool:
        return self.fold_identity and self.h_agrees


def pullback_check(m: int, layers, h_max: int) -> PullbackReport:
    """Residue arithmetic against its preimage under reduction mod m.

    `layers` is an iterable of residue layers, each an iterable of ints;
    a generator of layers is read once.  For each layer B and h, the
    closed h-fold sum of {x : x mod m in B} must be {x : x mod m in hB},
    and H of the residue chain, computed in Z/mZ from the same ladders hB,
    must agree with H of the preimage chain.  No window enters: a sum of
    classes has no finite part for sum2 to refuse (ALL absorbs any class),
    so every fold and certificate is closed, and compute_H's window bounds
    only its witness and sample searches, which in_H does not read.
    """
    if m < 2:
        raise InputError(f"modulus must be >= 2, got {m}")
    chain = [frozenset(x % m for x in layer) for layer in layers]
    if not chain or any(not layer for layer in chain):
        raise InputError("residue layers must be nonempty")
    g = FiniteGroupTable.cyclic(m)

    checks = []
    pulls, ladders = {}, {}  # per distinct layer: its congruence and hB
    for layer in chain:
        if layer in pulls:
            continue
        residues = tuple(sorted(layer))
        pulls[layer] = pull = congruence(m, residues)
        ladders[layer] = group_hfolds(g, layer, h_max)
        for h, gf in enumerate(ladders[layer], 1):
            fold = tuple(sorted(gf))
            ok = _closed_hfold(pull, h) == normalize(Congruence(m, fold))
            checks.append(FoldCheck(h, residues, fold, ok))

    group_verdicts = _group_verdicts(g, ladders, h_max)
    fam = ExplicitFamily([pulls[layer] for layer in chain])
    report = compute_H(fam, h_max)
    return PullbackReport(
        modulus=m,
        fold_checks=tuple(checks),
        h_in_group=tuple(v.in_H for v in group_verdicts),
        h_in_integers=tuple(v.in_H for v in report.verdicts),
    )

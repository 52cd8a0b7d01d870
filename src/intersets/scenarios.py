"""Named verification scenarios behind the command line verify subcommand.

Each scenario exercises one statement end to end and returns a list of
named pass/fail assertions with enough detail to audit the run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .analyzer import (
    CERTIFIED_IN,
    CERTIFIED_OUT,
    HConfig,
    compute_H,
    pullback_check,
    transfer_affine,
    truncated_layer_fold,
    verify_out_witness,
)
from .continuum import (
    RationalPerturbFamily,
    verify_open_theorem,
    verify_rational_theorem,
)
from .errors import InputError
from .families import (
    AffineFamily,
    CongruenceChainFamily,
    CosetTailFamily,
    EnumerationFamily,
    HalfTailFamily,
    ProductFamily,
    TailFamily,
)
from .lattices import (
    Box,
    NormTailFamily,
    min_norm_inequality,
    verify_lattice_theorem,
)
from .sumsets import (
    basis_order,
    default_radius,
    members_in,
    representation_count,
    symbolic_hfold_sum,
    windowed_hfold_sum,
)
from .symbolic import (
    ALL,
    EMPTY,
    Window,
    cofinite,
    congruence,
    finite,
    intersect,
    is_subset,
    mask_members,
    tail,
    union,
)


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    title: str
    assertions: tuple[Assertion, ...]

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    @property
    def counts(self) -> tuple[int, int]:
        passed = sum(1 for a in self.assertions if a.passed)
        return passed, len(self.assertions)


@dataclass(frozen=True)
class ScenarioOptions:
    """Overrides for scenario parameters; None keeps the scenario default."""

    hmax: int | None = None
    Q: int | None = None
    window: Window | None = None
    gen_radius: int | None = None
    seed: int = 0
    samples: int | None = None

    def __post_init__(self):
        for name in ("hmax", "Q", "gen_radius", "samples"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InputError(f"{name} must be >= 1, got {value}")


class _Run:
    def __init__(self, scenario: str, title: str):
        self.scenario = scenario
        self.title = title
        self._assertions: list[Assertion] = []

    def check(self, name: str, passed, detail: str = "") -> bool:
        self._assertions.append(Assertion(name, bool(passed), detail))
        return bool(passed)

    def result(self) -> ScenarioResult:
        return ScenarioResult(self.scenario, self.title, tuple(self._assertions))


def _fmt_misses(misses: list, cap: int = 4) -> str:
    shown = ", ".join(str(m) for m in misses[:cap])
    more = f" (+{len(misses) - cap} more)" if len(misses) > cap else ""
    return shown + more


# ---------------------------------------------------------------------------
# integer tail scenarios


def _run_integers_tail(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 5
    Q = opts.Q or 20
    win = opts.window or Window(-50, 50)

    points = range(win.lo, win.hi + 1)
    misses = []
    for h in range(2, hmax + 1):
        for q in range(1, Q + 1):
            r = opts.gen_radius or default_radius(win, h, q)
            res = symbolic_hfold_sum(tail(0, q), h, win, r)
            got = members_in(res, win)
            misses.extend((h, q, x) for x in points if x not in got)
    run.check(
        f"h-fold tail sums cover [{win.lo}, {win.hi}] for h = 2..{hmax}, q = 1..{Q}",
        not misses,
        f"missing {_fmt_misses(misses)}" if misses else f"{(hmax - 1) * Q} folds checked",
    )

    lone = members_in(symbolic_hfold_sum(tail(0, 2), 1, win), win)
    run.check(
        "a single layer never covers (h = 1 is sharp)",
        0 not in lone and len(lone) < win.size,
        "layer q=2 misses 0",
    )

    rep = compute_H(TailFamily(EMPTY), hmax, HConfig(Q=min(Q, 8), window=win))
    run.check(
        "H of the pure tail family is {1}",
        rep.in_H == (1,) and rep.all_certified,
        f"statuses {', '.join(rep.statuses)}",
    )
    out = [v for v in rep.verdicts if v.status == CERTIFIED_OUT]
    run.check(
        "each h >= 2 carries witness 0 (the empty core sums to nothing)",
        all(v.witness == 0 for v in out) and len(out) == hmax - 1,
        f"witnesses {[v.witness for v in out]}",
    )


def _run_congruence_chain(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4
    win = opts.window or Window(-100, 100)
    fam = CongruenceChainFamily((0, 1, 3), m1=7)

    rep = compute_H(fam, hmax, HConfig(Q=opts.Q or 6, window=win))
    run.check(
        f"every h <= {hmax} is certified in",
        rep.statuses == (CERTIFIED_IN,) * hmax,
        f"statuses {', '.join(rep.statuses)}",
    )

    wmax = max(abs(win.lo), abs(win.hi))
    pin = fam.pinning_depth(hmax, wmax)
    if hmax == 4 and wmax == 100:
        run.check(
            "pinning depth for h = 4 on [-100, 100] is q = 6",
            pin == 6,
            f"q = {pin}, modulus {fam.modulus_at(pin)}",
        )

    closed = symbolic_hfold_sum(fam.intersection(), hmax)
    core_sums = members_in(closed, win)
    pinned = truncated_layer_fold(fam, hmax, win, pin)
    run.check(
        f"truncation at the pinning depth matches the core sums exactly",
        pinned == core_sums,
        f"q = {pin}: {len(pinned)} window values",
    )
    if pin > 1:
        shallow = truncated_layer_fold(fam, hmax, win, pin - 1)
        run.check(
            "one layer earlier the truncation is still strictly larger",
            core_sums < shallow,
            f"q = {pin - 1} keeps {len(shallow) - len(core_sums)} extra values",
        )


def _run_finiteness(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4
    shallow = opts.Q or 8
    win = opts.window or Window(-8, 40)
    count = opts.samples or 20
    rng = random.Random(opts.seed)

    fams = []
    for _ in range(count):
        core = rng.sample(range(0, 25), rng.randint(1, 6))
        fams.append((min(core), HalfTailFamily(finite(core))))

    # a layer's tail starts at q, so its sums leave the window once q > hi
    settle = win.hi + 1
    unstable = []
    drift = []
    loose = []
    reachable = 0
    uncertified = []
    for i, (m0, fam) in enumerate(fams):
        for h in range(1, hmax + 1):
            t1 = truncated_layer_fold(fam, h, win, settle)
            t2 = truncated_layer_fold(fam, h, win, settle + 8)
            core_sums = members_in(symbolic_hfold_sum(fam.intersection(), h), win)
            if t1 != t2:
                unstable.append((i, h))
            if t1 != core_sums:
                drift.append((i, h))
            shallow_fold = truncated_layer_fold(fam, h, win, shallow)
            if not core_sums <= shallow_fold:
                loose.append((i, h))
            # one tail element of size >= shallow beside h-1 core minima is
            # in every truncated layer, so these values force strictness
            reach = range((h - 1) * m0 + shallow, win.hi + 1)
            if any(x not in core_sums for x in reach):
                reachable += 1
                if core_sums == shallow_fold:
                    loose.append((i, h))
        rep = compute_H(fam, hmax, HConfig(Q=shallow, window=win))
        if rep.in_H != tuple(range(1, hmax + 1)) or not rep.all_certified:
            uncertified.append(i)
    run.check(
        f"truncated folds are stable once the layer threshold passes the window",
        not unstable,
        f"{count} families, h <= {hmax}, depth {settle}"
        if not unstable
        else _fmt_misses(unstable),
    )
    run.check(
        "the stable value is the plain h-fold sum of the core",
        not drift,
        _fmt_misses(drift) if drift else "deep layers add nothing",
    )
    run.check(
        f"shallow truncation (Q = {shallow}) carries the core sums, strictly "
        "more wherever a tail sum fits the window",
        not loose and reachable > 0,
        _fmt_misses(loose)
        if loose
        else f"{reachable} window-reachable (family, h) pairs all strict",
    )
    run.check(
        "every h is certified in for every family",
        not uncertified,
        _fmt_misses(uncertified) if uncertified else "all closed-form certificates",
    )

    inexact = []
    for _, fam in fams[:3]:
        layer = fam.set_at(1)
        for x in (10, 17, 24):
            rc = representation_count(layer, 2, x)
            if rc.is_infinite or not rc.exact:
                inexact.append(x)
    run.check(
        "representation counts inside a layer stay finite and exact",
        not inexact,
        "pair counts for 3 sample layers",
    )


def _run_finiteness_H(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4
    win = opts.window or Window(-24, 40)
    rng = random.Random(opts.seed)

    cores = [EMPTY, finite([0]), finite([0, 1]), finite([3, 7]), finite([0, 2, 9])]
    cores += [
        finite(rng.sample(range(0, 30), rng.randint(1, 5))) for _ in range(10)
    ]
    bad = []
    for i, core in enumerate(cores):
        rep = compute_H(HalfTailFamily(core), hmax, HConfig(Q=opts.Q or 8, window=win))
        if rep.in_H != tuple(range(1, hmax + 1)):
            bad.append((i, "membership"))
        if not rep.all_certified:
            bad.append((i, "certificate"))
    run.check(
        f"H = {{1..{hmax}}} with certificates for all {len(cores)} families",
        not bad,
        _fmt_misses(bad) if bad else "includes the empty-core edge case",
    )

    empty_rep = compute_H(HalfTailFamily(EMPTY), hmax, HConfig(window=win))
    run.check(
        "the empty core is certified through vanishing on both sides",
        empty_rep.statuses == (CERTIFIED_IN,) * hmax,
        f"statuses {', '.join(empty_rep.statuses)}",
    )


def _run_subgroup(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4
    win = opts.window or Window(-24, 24)

    cases = ((2, 1), (3, 1), (4, 3), (5, 2), (6, 2))
    bad_H = []
    bad_witness = []
    for d, x in cases:
        fam = CosetTailFamily(d, x)
        rep = compute_H(fam, hmax, HConfig(Q=opts.Q or 8, window=win))
        if rep.in_H != (1,) or not rep.all_certified:
            bad_H.append((d, x))
            continue
        for v in rep.verdicts[1:]:
            w = v.witness
            cosets = {(j * x) % d for j in range(1, v.h)} - {0}
            if not (verify_out_witness(fam, v.h, w) and w % d in cosets):
                bad_witness.append((d, x, v.h, w))
    run.check(
        f"H = {{1}} for subgroup steps d = {', '.join(str(d) for d, _ in cases)}",
        not bad_H,
        _fmt_misses(bad_H) if bad_H else "all certified",
    )
    run.check(
        "every h >= 2 witness sits in a proper coset hit by fewer than h tail terms",
        not bad_witness,
        _fmt_misses(bad_witness) if bad_witness else "witnesses re-verified",
    )

    pinned = compute_H(CosetTailFamily(2, 1), 2, HConfig(window=win)).verdict(2)
    run.check(
        "d = 2, x = 1, h = 2: the witness is odd",
        pinned.witness is not None and pinned.witness % 2 == 1,
        f"witness {pinned.witness}",
    )


def _run_sharp(opts: ScenarioOptions, run: _Run) -> None:
    win = opts.window or Window(-30, 30)

    for d in (3, 4, 5):
        s = union(congruence(d, (0,)), finite((1,)))
        br = basis_order(s, d + 1, win)
        run.check(
            f"d = {d}: the {d}-fold sum is the first to cover",
            br.exact_order == d and br.exact_order_certified,
            f"order {br.exact_order}, certified {br.exact_order_certified}",
        )
        below = br.verdict(d - 1)
        run.check(
            f"d = {d}: {d - 1} summands certifiably miss a value",
            not below.covers and below.certified and below.witness is not None,
            f"missing value {below.witness}",
        )
        rep = compute_H(TailFamily(s), d + 1, HConfig(Q=opts.Q or 6, window=win))
        run.check(
            f"d = {d}: H of the tail family is {{1}} union {{h >= {d}}}",
            rep.in_H == (1, d, d + 1) and rep.all_certified,
            f"statuses {', '.join(rep.statuses)}",
        )


def _run_countable(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4
    win = opts.window or Window(-24, 24)

    for core in (finite([0, 1]), finite([0, 2, 5]), finite([-3, 0, 4])):
        fam = EnumerationFamily(core)
        rep = compute_H(fam, hmax, HConfig(Q=opts.Q or 8, window=win))
        outs = rep.verdicts[1:]
        run.check(
            f"core {sorted(core.elements)}: H = {{1}} with certified exits",
            rep.in_H == (1,) and all(v.status == CERTIFIED_OUT for v in outs),
            f"witnesses {[v.witness for v in outs]}",
        )
        run.check(
            f"core {sorted(core.elements)}: witnesses re-verify independently",
            all(verify_out_witness(fam, v.h, v.witness) for v in outs),
            "certificate membership and certified absence",
        )


def _run_cofinite_basis(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4
    win = opts.window or Window(-20, 20)
    count = opts.samples or 20
    rng = random.Random(opts.seed)

    not_all = []
    uncovered = []
    for _ in range(count):
        excl = rng.sample(range(-15, 16), rng.randint(1, 6))
        s = cofinite(excl)
        for h in range(2, hmax + 1):
            res = symbolic_hfold_sum(s, h)
            if getattr(res, "set", None) != ALL:
                not_all.append((excl, h))
        brute = windowed_hfold_sum(s, 2, win, opts.gen_radius or default_radius(win, 2))
        missing = mask_members(((1 << win.size) - 1) & ~brute.bits, win.lo)
        if missing:
            uncovered.append((excl, missing[0]))
    run.check(
        f"closed h-fold sums equal the full line for h = 2..{hmax}",
        not not_all,
        f"{count} random exclusion sets" if not not_all else _fmt_misses(not_all),
    )
    run.check(
        "independent enumeration confirms full window coverage at h = 2",
        not uncovered,
        _fmt_misses(uncovered) if uncovered else f"window [{win.lo}, {win.hi}]",
    )

    fam = EnumerationFamily(cofinite([0, 3, -4]))
    rep = compute_H(fam, hmax, HConfig(Q=opts.Q or 8, window=win))
    run.check(
        "a cofinite core turns every h certified in",
        rep.in_H == tuple(range(1, hmax + 1)) and rep.all_certified,
        f"statuses {', '.join(rep.statuses)}",
    )


# ---------------------------------------------------------------------------
# group and product scenarios


def _run_surjection(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4

    for m in range(2, 13):
        fold_bad = []
        h_bad = []
        checked = 0
        for size in range(1, min(3, m) + 1):
            for combo in itertools.combinations(range(m), size):
                rep = pullback_check(m, [combo], hmax)
                checked += 1
                if not rep.fold_identity:
                    fold_bad.append(combo)
                if not rep.h_agrees:
                    h_bad.append(combo)
        run.check(
            f"m = {m}: fold identity and H agree for all {checked} layer sets",
            not fold_bad and not h_bad,
            f"h <= {hmax}"
            if not (fold_bad or h_bad)
            else f"fold {_fmt_misses(fold_bad)} | H {_fmt_misses(h_bad)}",
        )


def _run_product_closure(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4
    cfg = HConfig(Q=opts.Q or 6, window=opts.window or Window(-24, 24))

    left = TailFamily(union(congruence(4, (0,)), finite((1,))))
    right = CongruenceChainFamily((0, 1, 3), m1=7)
    ra = compute_H(left, hmax, cfg)
    rb = compute_H(right, hmax, cfg)
    direct = compute_H(ProductFamily(left, right), hmax, cfg)
    run.check(
        "membership is the logical conjunction of the components",
        all(
            direct.verdict(h).in_H == (ra.verdict(h).in_H and rb.verdict(h).in_H)
            for h in range(1, hmax + 1)
        ),
        f"pair H = {direct.in_H}",
    )

    vanishing = ProductFamily(HalfTailFamily(EMPTY), TailFamily(finite((0, 1))))
    dv = compute_H(vanishing, hmax, cfg)
    run.check(
        "an empty component collapses the pair to certified equality",
        dv.statuses == (CERTIFIED_IN,) * hmax,
        f"statuses {', '.join(dv.statuses)}",
    )


def _run_affine(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 4
    cfg = HConfig(Q=opts.Q or 6, window=opts.window or Window(-32, 32))
    count = opts.samples or 50
    rng = random.Random(opts.seed)

    def random_inner():
        kind = rng.choice(("tail", "half-tail", "enumeration", "chain"))
        if kind == "chain":
            return CongruenceChainFamily((0, 1, 3), m1=7)
        core = finite(rng.sample(range(-9, 10), rng.randint(1, 4)))
        if kind == "tail":
            return TailFamily(core)
        if kind == "half-tail":
            return HalfTailFamily(core)
        return EnumerationFamily(core)

    mismatched = []
    unverified = []
    for i in range(count):
        inner = random_inner()
        unit = rng.choice((1, -1))
        t = rng.randint(-10, 10)
        fam = AffineFamily(unit, t, inner)
        direct = compute_H(fam, hmax, cfg)
        moved = transfer_affine(compute_H(inner, hmax, cfg), unit, t)
        if direct.statuses != moved.statuses:
            mismatched.append((i, inner.kind, unit, t))
            continue
        for h in range(2, hmax + 1):
            dv, mv = direct.verdict(h), moved.verdict(h)
            if dv.status == CERTIFIED_OUT:
                if not (
                    verify_out_witness(fam, h, dv.witness)
                    and verify_out_witness(fam, h, mv.witness)
                ):
                    unverified.append((i, h))
    run.check(
        f"{count} random families: direct and transported statuses are identical",
        not mismatched,
        _fmt_misses(mismatched) if mismatched else "tail, half-tail, enumeration, chain",
    )
    run.check(
        "both witness routes re-verify whenever h is certified out",
        not unverified,
        _fmt_misses(unverified) if unverified else "spiral and transported witnesses",
    )


def _run_simple_lemma(opts: ScenarioOptions, run: _Run) -> None:
    count = opts.samples or 100
    hmax = opts.hmax or 4
    rng = random.Random(opts.seed)

    def brute(values: set[int], h: int) -> set[int]:
        if not values:
            return set()
        acc = set(values)
        for _ in range(h - 1):
            acc = {a + b for a in acc for b in values}
        return acc

    inter_bad = []
    mono_bad = []
    closed_bad = []
    subset_bad = []
    strict = 0
    for i in range(count):
        a = set(rng.sample(range(-10, 11), rng.randint(1, 7)))
        b = set(rng.sample(range(-10, 11), rng.randint(1, 7)))
        h = rng.randint(1, hmax)
        fa, fb = brute(a, h), brute(b, h)
        fi = brute(a & b, h)
        if not fi <= (fa & fb):
            inter_bad.append(i)
        elif fi < (fa & fb):
            strict += 1
        if not fa <= brute(a | b, h):
            mono_bad.append(i)
        res = symbolic_hfold_sum(finite(a), h)
        if getattr(res, "set", None) != finite(fa):
            closed_bad.append(i)
        if not is_subset(
            symbolic_hfold_sum(finite(a & b) if a & b else EMPTY, h).set,
            intersect(finite(fa), finite(fb)),
        ):
            subset_bad.append(i)
    run.check(
        "folding an intersection lands inside the intersection of the folds",
        not inter_bad,
        f"{count} samples, strict inclusion in {strict}",
    )
    run.check(
        "folding is monotone under set inclusion",
        not mono_bad,
        _fmt_misses(mono_bad) if mono_bad else f"h <= {hmax}",
    )
    run.check(
        "closed finite folds match direct enumeration",
        not closed_bad,
        _fmt_misses(closed_bad) if closed_bad else "exact element sets",
    )
    run.check(
        "the symbolic subset test confirms the containment",
        not subset_bad,
        _fmt_misses(subset_bad) if subset_bad else "sound decision procedure",
    )


# ---------------------------------------------------------------------------
# continuum scenarios

_BASE_POINTS = tuple(4 * n for n in range(1, 11))


def _run_rational(opts: ScenarioOptions, run: _Run) -> None:
    Q = opts.Q or 10
    hmax = opts.hmax or 3
    win = (opts.window.lo, opts.window.hi) if opts.window else (0, 40)
    fam = RationalPerturbFamily(_BASE_POINTS, r_max=25)

    for h in range(2, hmax + 1):
        rep = verify_rational_theorem(fam, h, Q, win)
        run.check(
            f"h = {h}: every surviving point is within {h}/{Q} of a base sum",
            rep.bound_ok,
            f"{rep.intersection_size} points, max distance {rep.max_distance}",
        )
        run.check(
            f"h = {h}: the distance bound is attained",
            rep.max_distance == rep.bound,
            f"max distance {rep.max_distance} = bound",
        )
        run.check(
            f"h = {h}: every base sum in the window survives",
            rep.base_in_intersection,
            f"{len(rep.base_sums)} base sums",
        )


def _run_open_intervals(opts: ScenarioOptions, run: _Run) -> None:
    Q = opts.Q or 10
    h = opts.hmax or 2
    win = (opts.window.lo, opts.window.hi) if opts.window else (0, 20)

    single = verify_open_theorem(_BASE_POINTS, 1, Q, win)
    run.check(
        "h = 1: every component is punctured at its base point",
        single.all_punctured and not single.empty,
        f"{len(single.components)} components",
    )

    rep = verify_open_theorem(_BASE_POINTS, h, Q, win)
    run.check(
        f"h = {h}: each component contains exactly one base sum",
        rep.all_centered and not rep.empty,
        f"{len(rep.components)} components",
    )
    run.check(
        f"h = {h}: component radius stays within {h}/{Q}",
        rep.all_within_radius,
        f"bound {rep.radius_bound}",
    )
    run.check(
        f"h = {h}: the unpunctured intersection contains every base sum",
        rep.primed_contains_base,
        "puncturing is what removes the centers",
    )


# ---------------------------------------------------------------------------
# lattice scenarios


def _norm_excess(k: int, d: int) -> dict[tuple, int]:
    """|v_1 + ... + v_k|^2 - sum |v_i|^2 over d coordinates, expanded: a
    dict from each monomial x_a x_b, a <= b, over the variables a = (i, c)
    (coordinate c of v_i) to its int coefficient, zero coefficients
    dropped."""
    poly: dict[tuple, int] = {}
    for c in range(d):
        column = [(i, c) for i in range(k)]
        for a in column:  # (x_0c + ... + x_(k-1)c)^2, term by term
            for b in column:
                m = (min(a, b), max(a, b))
                poly[m] = poly.get(m, 0) + 1
        for a in column:
            poly[a, a] -= 1
    return {m: v for m, v in poly.items() if v}


def _run_vector_min(opts: ScenarioOptions, run: _Run) -> None:
    # a polynomial with positive coefficients and no squares is >= 0 on the
    # nonnegative orthant, so |sum v_i|^2 >= sum |v_i|^2 >= k min |v_i|^2
    # for every real nonnegative input; the coefficient sum is the excess
    # at the all-ones point, d k^2 - d k
    polys = {(k, d): _norm_excess(k, d) for k in range(1, 9) for d in range(1, 6)}
    bad = [
        (k, d)
        for (k, d), poly in polys.items()
        if any(a == b for a, b in poly)
        or any(v <= 0 for v in poly.values())
        or sum(poly.values()) != d * k * (k - 1)
    ]
    most = max(map(len, polys.values()))
    run.check(
        "|v_1 + ... + v_k|^2 - sum |v_i|^2 expands to positive cross terms "
        "(k <= 8, dim <= 5)",
        not bad,
        _fmt_misses(bad) if bad else f"{len(polys)} (k, dim) pairs, at most {most} terms",
    )

    tight = min_norm_inequality([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    run.check(
        "the constant k is attained by orthogonal unit vectors",
        tight.holds and tight.sum_norm_sq == tight.k_times_min_sq,
        f"{tight.sum_norm_sq} = {tight.k_times_min_sq}",
    )


def _run_lattice(opts: ScenarioOptions, run: _Run) -> None:
    hmax = opts.hmax or 3
    Q = opts.Q or 5

    fam = NormTailFamily(((0, 0), (1, 1)), 2)
    box = Box.cube(-5, 5, 2)
    rep = verify_lattice_theorem(fam, hmax, Q, box, norm_sq_cap=25)
    run.check(
        f"h <= {hmax}: core sums equal the truncated intersection on the ball",
        all(c.equal_on_box for c in rep.checks),
        f"norm <= 5, Q = {Q}",
    )
    run.check(
        "every excluded point is certified by the layer norm threshold",
        rep.ok and all(c.certified for c in rep.checks),
        f"worst exclusion depths {[c.max_exclusion_depth for c in rep.checks]}",
    )


# ---------------------------------------------------------------------------
# registry


# verify-suite and scenario_ids() run the scenarios in this order
_REGISTRY = {
    "integers-tail": (
        "two-sided tails: every h >= 2 layer sum covers the whole window",
        _run_integers_tail,
    ),
    "rational": (
        "perturbed rationals: intersection points cluster within h/Q of a base sum",
        _run_rational,
    ),
    "open-intervals": (
        "open perturbation intervals: components center on base sums with radius h/Q",
        _run_open_intervals,
    ),
    "finiteness": (
        "below-bounded summands: deep layers add nothing to the h-fold sums",
        _run_finiteness,
    ),
    "finiteness-H": (
        "families of below-bounded layers keep every h certified in",
        _run_finiteness_H,
    ),
    "subgroup": (
        "a subgroup plus a receding coset tail keeps only h = 1",
        _run_subgroup,
    ),
    "surjection": (
        "residue arithmetic agrees with its integer preimage under reduction",
        _run_surjection,
    ),
    "cofinite-basis": (
        "a set missing finitely many integers already sums onto the line at h = 2",
        _run_cofinite_basis,
    ),
    "sharp": (
        "dZ with the single extra point 1 has exact additive order d",
        _run_sharp,
    ),
    "congruence-chain": (
        "a divisibility chain pins every h-fold sum to the core sums",
        _run_congruence_chain,
    ),
    "vector-min": (
        "the squared norm of a nonnegative vector sum is at least k times the minimum",
        _run_vector_min,
    ),
    "lattice": (
        "plane families with norm tails: truncation certifies the h-fold equality",
        _run_lattice,
    ),
    "countable": (
        "restoring an enumerated complement keeps only h = 1",
        _run_countable,
    ),
    "product-closure": (
        "componentwise pairs: the pair verdict is the component conjunction",
        _run_product_closure,
    ),
    "affine": (
        "unit-scale affine images preserve the whole verdict vector",
        _run_affine,
    ),
    "simple-lemma": (
        "h-fold sums respect intersections and inclusions",
        _run_simple_lemma,
    ),
}


def scenario_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_scenario(scenario: str, opts: ScenarioOptions | None = None) -> ScenarioResult:
    try:
        title, runner = _REGISTRY[scenario]
    except KeyError:
        known = ", ".join(scenario_ids())
        raise InputError(f"unknown scenario {scenario!r}; expected one of {known}") from None
    run = _Run(scenario, title)
    runner(opts or ScenarioOptions(), run)
    return run.result()


# ---------------------------------------------------------------------------
# rendering


def format_result(res: ScenarioResult) -> str:
    lines = [f"scenario {res.scenario}: {res.title}"]
    for a in res.assertions:
        mark = "PASS" if a.passed else "FAIL"
        tail_txt = f": {a.detail}" if a.detail else ""
        lines.append(f"[{mark}] {a.name}{tail_txt}")
    passed, total = res.counts
    lines.append(f"result: {'PASS' if res.ok else 'FAIL'} ({passed}/{total} checks)")
    return "\n".join(lines) + "\n"


def result_to_tsv(res: ScenarioResult) -> str:
    lines = ["check\tstatus\tdetail"]
    for a in res.assertions:
        lines.append(f"{a.name}\t{'pass' if a.passed else 'fail'}\t{a.detail}")
    return "\n".join(lines) + "\n"


def result_to_json(res: ScenarioResult) -> dict:
    return {
        "scenario": res.scenario,
        "title": res.title,
        "ok": res.ok,
        "assertions": [
            {"name": a.name, "passed": a.passed, "detail": a.detail}
            for a in res.assertions
        ],
    }

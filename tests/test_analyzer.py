"""H-set reports: certificates, witnesses, transport, pullback, scaled families."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersets import (
    CERTIFIED_IN,
    CERTIFIED_OUT,
    EMPIRICAL_EQUAL,
    UNDETERMINED,
    AffineFamily,
    CapError,
    CongruenceChainFamily,
    CosetTailFamily,
    EMPTY,
    EnumerationFamily,
    ExplicitFamily,
    HConfig,
    InputError,
    InvariantError,
    ProductFamily,
    TailFamily,
    HalfTailFamily,
    ScaledFamily,
    Window,
    compute_H,
    compute_H_product,
    congruence,
    contains,
    down_tail,
    finite,
    half_tail,
    materialize,
    pullback_check,
    symbolic_hfold_sum,
    transfer_affine,
    transfer_product,
    truncated_layer_fold,
    union,
    verify_out_witness,
)
from intersets import analyzer, families, groups, sumsets, symbolic
from intersets.analyzer import _sample_member, _with_certificate
from intersets.sumsets import Closed, Windowed
from intersets.symbolic import max_element, min_element
from oracles import (
    fold_values,
    lattice_fold,
    layer_fold_intersection,
    members,
    spiral,
    windowed_fold,
)

FOURZ1 = union(congruence(4, (0,)), finite([1]))
THREEZ1 = union(congruence(3, (0,)), finite([1]))


def _rows(report):
    return [
        (v.status, v.witness, v.sample, v.intersection_empty)
        for v in report.verdicts
    ]


# -- single families, frozen ------------------------------------------------


def test_tail_of_empty_core():
    rep = compute_H(TailFamily(EMPTY), 4)
    assert rep.statuses == (
        CERTIFIED_IN,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
    )
    assert rep.in_H == (1,)
    assert rep.all_certified
    assert _rows(rep) == [
        (CERTIFIED_IN, None, None, True),
        (CERTIFIED_OUT, 0, 0, False),
        (CERTIFIED_OUT, 0, 0, False),
        (CERTIFIED_OUT, 0, 0, False),
    ]


def test_half_tail_of_empty_core():
    rep = compute_H(HalfTailFamily(EMPTY), 4)
    assert rep.statuses == (CERTIFIED_IN,) * 4
    assert rep.in_H == (1, 2, 3, 4)
    assert _rows(rep) == [(CERTIFIED_IN, None, None, True)] * 4


def test_congruence_chain():
    rep = compute_H(CongruenceChainFamily((0, 1, 3), m1=7), 4)
    assert rep.statuses == (CERTIFIED_IN,) * 4
    assert all(v.sample == 0 for v in rep.verdicts)
    assert all(v.intersection_empty is False for v in rep.verdicts)


def test_coset_tail():
    rep = compute_H(CosetTailFamily(2, 1), 4)
    assert rep.statuses == (
        CERTIFIED_IN,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
    )
    assert [v.witness for v in rep.verdicts] == [None, -1, -1, -1]
    assert all(v.sample == 0 for v in rep.verdicts)
    # the witnesses are odd: they live in the coset the sums fill in
    assert all(w % 2 == 1 for w in [v.witness for v in rep.verdicts][1:])


def test_tail_with_congruence_cores():
    rep4 = compute_H(TailFamily(FOURZ1), 4)
    assert rep4.statuses == (
        CERTIFIED_IN,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
        CERTIFIED_IN,
    )
    assert rep4.in_H == (1, 4)
    assert [v.witness for v in rep4.verdicts] == [None, -1, -1, None]

    rep3 = compute_H(TailFamily(THREEZ1), 4)
    assert rep3.statuses == (
        CERTIFIED_IN,
        CERTIFIED_OUT,
        CERTIFIED_IN,
        CERTIFIED_IN,
    )
    assert rep3.in_H == (1, 3, 4)
    assert [v.witness for v in rep3.verdicts] == [None, -1, None, None]


def test_enumeration():
    rep = compute_H(EnumerationFamily(finite([0, 1])), 4)
    assert rep.statuses == (
        CERTIFIED_IN,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
    )
    assert [v.witness for v in rep.verdicts] == [None, -1, -1, -1]


EVENS = finite(range(0, 60, 2))  # 30 points: no rewrite closes their 2-fold sum


@pytest.mark.parametrize(
    "fam, h2",
    [
        (ExplicitFamily([EVENS] * 2), EMPIRICAL_EQUAL),
        (HalfTailFamily(EVENS), UNDETERMINED),
        (CongruenceChainFamily(range(0, 60, 2), m1=200), EMPIRICAL_EQUAL),
    ],
    ids=["explicit", "half-tail", "congruence-chain"],
)
def test_unclosed_certificate_falls_back_to_layer_folds(fam, h2):
    assert fam.certificate(2) is None
    assert compute_H(fam, 2).statuses == (CERTIFIED_IN, h2)


def test_half_tail_of_a_class_core_is_uncertified():
    # 3Z is unbounded below, so no closed certificate exists and the layer
    # folds cannot decide h >= 2 either
    fam = HalfTailFamily(congruence(3, [0]))
    assert fam.certificate(2) is None
    assert compute_H(fam, 3).statuses == (CERTIFIED_IN, UNDETERMINED, UNDETERMINED)


def test_compute_H_gates():
    with pytest.raises(InputError):
        compute_H(TailFamily(EMPTY), 0)
    rep = compute_H(TailFamily(EMPTY), 2)
    with pytest.raises(InputError):
        rep.verdict(3)
    assert rep.verdict(2).h == 2


def test_hconfig_defaults():
    cfg = HConfig()
    assert cfg.Q == 8
    assert cfg.window == Window(-24, 24)
    assert cfg.gen_radius is None


@pytest.mark.parametrize(
    "field", [{"Q": 0}, {"Q": -3}, {"gen_radius": 0}], ids=str
)
def test_hconfig_rejects_values_below_one(field):
    with pytest.raises(InputError):
        HConfig(**field)


# -- witness verification ---------------------------------------------------


def test_verify_out_witness():
    fam = TailFamily(FOURZ1)
    assert verify_out_witness(fam, 2, -1)
    assert verify_out_witness(fam, 3, -1)
    assert not verify_out_witness(fam, 2, 0)  # 0 is a core sum
    # for this core the 3-fold already covers Z, so nothing can witness
    assert not verify_out_witness(TailFamily(THREEZ1), 3, -1)


@pytest.mark.parametrize(
    "fam",
    [
        TailFamily(FOURZ1),
        TailFamily(union(congruence(5, (1,)), finite([0, 2]))),
        TailFamily(finite([-2, 0, 3])),
        CosetTailFamily(4, 1),
        CosetTailFamily(6, 1),
        CosetTailFamily(5, 2),
        EnumerationFamily(finite([0, 2, -3])),
        EnumerationFamily(union(congruence(5, (0,)), finite([1]))),
    ],
    ids=lambda fam: fam.kind,
)
def test_closed_certificate_witnesses_match_oracle(fam):
    # each core is a finite set or one residue class with a few points of
    # absolute value at most 5, so a sum x of h <= 4 members has summands
    # within |x| + 20: all but one class summand can be the class's member
    # nearest 0
    core = fam.intersection()
    closed = 0
    for v in compute_H(fam, 4).verdicts:
        if v.status != CERTIFIED_OUT or "closed" not in v.evidence:
            continue
        closed += 1
        win = Window(-abs(v.witness), abs(v.witness))
        fold = windowed_fold(core, v.h, win, abs(v.witness) + 20)
        cert = set(members(fam.certificate(v.h).closed_form, win))
        expected = next(x for x in spiral(win) if x in cert and x not in fold)
        assert v.witness == expected
    assert closed


@given(
    st.integers(-30, 0),
    st.integers(0, 30),
    st.tuples(st.integers(1, 6), st.integers(0, 5)).map(
        lambda t: congruence(t[0], (t[1] % t[0],))
    ),
    st.lists(st.integers(-40, 40), max_size=3).map(finite),
    st.booleans(),
    st.data(),
)
@settings(max_examples=100)
def test_windowed_certificate_witness_matches_oracle(
    lo, hi, cls, extra, complete, data
):
    cset = union(cls, extra)
    win = Window(lo, hi)
    cmem = members(cset, win)
    gone = data.draw(st.sets(st.sampled_from(cmem))) if cmem else set()
    lhs = Windowed(win, sum(1 << x - lo for x in cmem if x not in gone), 9, complete)
    status, witness, _ = _with_certificate(lhs, cset, "p", 2, win)
    expected = next((x for x in spiral(win) if x in gone), None)
    assert witness == expected
    if expected is None:
        assert status == EMPIRICAL_EQUAL
    else:
        assert status == (CERTIFIED_OUT if complete else UNDETERMINED)


def test_windowed_certificate_lists_the_first_five_strays():
    win = Window(-10, 10)
    lhs = Windowed(win, (1 << 21) - 1, 0, False)
    with pytest.raises(InvariantError) as err:
        _with_certificate(lhs, congruence(3, (1,)), "p", 2, win)
    assert str(err.value) == (
        "sumset members escape the intersection certificate [p]: "
        "[-10, -9, -7, -6, -4]"
    )


def _spy_window_bits(monkeypatch) -> list[int]:
    """Record the span of every mask the analyzer builds."""
    spans = []
    scan = analyzer.window_bits
    monkeypatch.setattr(
        analyzer,
        "window_bits",
        lambda s, lo, hi: spans.append(hi - lo + 1) or scan(s, lo, hi),
    )
    return spans


def test_closed_witness_search_stays_within_the_cap(monkeypatch):
    # 16 times this window's radius spans 28,800,001 points; the search
    # finds -1 at the window's own radius and builds nothing wider
    spans = _spy_window_bits(monkeypatch)
    cfg = HConfig(window=Window(-900_000, 900_000))
    rep = compute_H(TailFamily(FOURZ1), 3, cfg)
    assert [(v.status, v.witness) for v in rep.verdicts[1:]] == [
        (CERTIFIED_OUT, -1),
        (CERTIFIED_OUT, -1),
    ]
    assert spans and max(spans) <= symbolic.MATERIALIZE_CAP


def test_closed_witness_search_widens_fourfold_up_to_the_cap(monkeypatch):
    spans = _spy_window_bits(monkeypatch)
    every = union(congruence(2, (0,)), congruence(2, (1,)))
    # 500 lies past radii 32 and 128 but inside 512 = 16 * 32
    fold = Closed(symbolic.cofinite([500]))
    status, witness, _ = _with_certificate(fold, every, "p", 2, Window(-5, 5))
    assert (status, witness) == (CERTIFIED_OUT, 500)
    assert spans == [65, 65, 257, 257, 1025, 1025]
    # radius 16 * 200,000 passes the cap, so the search stops at 800,000
    spans.clear()
    fold = Closed(symbolic.cofinite([10**6]))
    win = Window(-200_000, 200_000)
    status, witness, _ = _with_certificate(fold, every, "p", 2, win)
    assert (status, witness) == (UNDETERMINED, None)
    assert spans == [400_001, 400_001, 1_600_001, 1_600_001]


# -- affine transport -------------------------------------------------------


def test_transfer_affine_frozen():
    base = compute_H(EnumerationFamily(finite([0, 1])), 3)
    moved = transfer_affine(base, -1, 2)
    assert moved.kind == "affine(enumeration)"
    assert moved.statuses == (CERTIFIED_IN, CERTIFIED_OUT, CERTIFIED_OUT)
    # witness w maps to unit*w + h*shift
    assert [v.witness for v in moved.verdicts] == [None, 5, 7]
    with pytest.raises(InputError):
        transfer_affine(base, 2, 0)


# -- products ---------------------------------------------------------------


def test_product_direct_frozen():
    pf = ProductFamily(TailFamily(finite([0, 1])), TailFamily(EMPTY))
    rep = compute_H(pf, 3)
    assert rep.kind == "product(tail,tail)"
    assert rep.statuses == (CERTIFIED_IN, CERTIFIED_OUT, CERTIFIED_OUT)
    assert [v.witness for v in rep.verdicts] == [None, (-1, 0), (-1, 0)]
    assert [v.intersection_empty for v in rep.verdicts] == [True, False, False]


PRODUCT_PAIRS = [
    (TailFamily(finite([0, 1])), TailFamily(EMPTY)),
    (HalfTailFamily(finite([-2])), EnumerationFamily(finite([0, 1]))),
    (CongruenceChainFamily((0, 1, 3), m1=7), TailFamily(FOURZ1)),
    (EnumerationFamily(finite([0, 1, 5])), HalfTailFamily(EMPTY)),  # empty side
    (TailFamily(THREEZ1), CongruenceChainFamily((0, 2), m1=5)),
]


def test_transfer_product_matches_direct():
    for left, right in PRODUCT_PAIRS:
        direct = compute_H(ProductFamily(left, right), 3)
        stitched = transfer_product(compute_H(left, 3), compute_H(right, 3))
        assert stitched.kind == direct.kind == f"product({left.kind},{right.kind})"
        assert stitched.config == direct.config
        # whole verdicts: statuses, witnesses, evidence, samples, emptiness
        assert stitched.verdicts == direct.verdicts, (left.kind, right.kind)
    with pytest.raises(InputError):
        transfer_product(compute_H(left, 3), compute_H(right, 2))


small_sets = st.sets(st.integers(-6, 6), max_size=4)


@given(small_sets, small_sets, st.integers(1, 3))
@settings(max_examples=80)
def test_product_fold_is_rectangle_of_component_folds(a, b, h):
    # h(A x B) = hA x hB, the identity the product verdicts rest on
    pairs = {(x, y) for x in a for y in b}
    rect = {(x, y) for x in fold_values(a, h) for y in fold_values(b, h)}
    assert lattice_fold(pairs, h) == rect


def test_product_empty_side_collapses():
    pf = ProductFamily(HalfTailFamily(EMPTY), TailFamily(finite([0, 1])))
    rep = compute_H_product(pf, 3)
    assert rep.statuses == (CERTIFIED_IN,) * 3
    assert all(v.intersection_empty for v in rep.verdicts)


# -- truncated layer folds --------------------------------------------------


def test_truncated_layer_fold_pins():
    fam = CongruenceChainFamily((0, 1, 3), m1=7)
    win = Window(-30, 30)
    assert fam.pinning_depth(4, 30) == 4
    core_sums = symbolic_hfold_sum(finite([0, 1, 3]), 4)
    expected = set(materialize(core_sums.set, win))
    at_pin = truncated_layer_fold(fam, 4, win, 4)
    assert at_pin == expected
    shallow = truncated_layer_fold(fam, 4, win, 3)
    assert shallow > expected
    assert len(shallow - expected) == 15
    with pytest.raises(InputError):
        truncated_layer_fold(fam, 4, win, 0)


@given(
    st.sampled_from((TailFamily, HalfTailFamily)),
    st.lists(st.integers(0, 24), min_size=1, max_size=5),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(-10, 0),
    st.integers(0, 25),
)
@settings(max_examples=30, deadline=None)
def test_truncated_layer_fold_matches_oracle_layer_folds(kind, core, h, Q, lo, hi):
    fam = kind(finite(core))
    win = Window(lo, hi)
    # layer q is the core with the two-sided or upward tail from q: every
    # window sum of h members has one whose summands lie within r
    r = 2 * win.radius + 3 * Q + 25
    expected = set(range(lo, hi + 1))
    for q in range(1, Q + 1):
        expected &= windowed_fold(fam.set_at(q), h, win, r)
    assert truncated_layer_fold(fam, h, win, Q) == expected


NON_NESTED = [
    ExplicitFamily([half_tail(2), half_tail(0)]),
    ExplicitFamily([finite([0, 1]), finite([0, 2])]),
    ExplicitFamily([finite(range(0, 60, 2)), finite(range(0, 60, 3))]),
]


@pytest.mark.parametrize(
    "fam",
    NON_NESTED
    + [ScaledFamily(f, 2) for f in NON_NESTED]
    + [AffineFamily(-1, 3, f) for f in NON_NESTED],
    ids=lambda f: f.kind,
)
@pytest.mark.parametrize("h", [1, 2, 3])
def test_chains_that_do_not_nest_fold_every_layer(fam, h):
    assert fam.decreasing is False
    win = Window(-60, 60)
    expected = layer_fold_intersection(fam, h, win, 2, 200)
    assert truncated_layer_fold(fam, h, win, 2, 200) == expected


def _no_materialize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("materialize was called")

    # analyzer and families no longer import materialize
    for mod in (analyzer, families, sumsets, symbolic):
        monkeypatch.setattr(mod, "materialize", refuse, raising=False)


def test_closed_layer_folds_materialize_nothing(monkeypatch):
    fam = CongruenceChainFamily((0, 1, 3), m1=7)
    win = Window(-30, 30)
    expected = truncated_layer_fold(fam, 4, win, 3)
    _no_materialize(monkeypatch)
    assert truncated_layer_fold(fam, 4, win, 3) == expected
    rep = pullback_check(6, [(1, 3), (1,)], 3)
    assert rep.fold_identity and len(rep.fold_checks) == 6


# -- pullback ---------------------------------------------------------------


def test_pullback_frozen():
    rep = pullback_check(6, [(1, 3)], 3)
    assert rep.ok and rep.fold_identity and rep.h_agrees
    assert rep.modulus == 6
    folds = {c.h: c.group_fold for c in rep.fold_checks}
    assert folds == {1: (1, 3), 2: (0, 2, 4), 3: (1, 3, 5)}
    assert rep.h_in_group == (True, True, True)
    assert rep.h_in_integers == (True, True, True)
    assert all(c.symbolic_equal and c.window_equal for c in rep.fold_checks)


def test_pullback_of_a_family_that_does_not_nest():
    # {0, 1} and {0, 2} mod 4 meet in {0}: h-fold sums of 4Z stay 4Z, while
    # from h = 2 on every layer fold holds 2 mod 4
    rep = pullback_check(4, [[0, 1], [0, 2]], 4)
    assert rep.h_in_group == (True, False, False, False)
    assert rep.h_agrees and rep.ok


def test_pullback_reads_every_layer_of_a_generator():
    layers = [(0, 1, 2, 3), (0, 2)]
    rep = pullback_check(6, (layer for layer in layers), 3)
    assert rep.fold_checks == pullback_check(6, layers, 3).fold_checks
    assert {c.residues for c in rep.fold_checks} == set(layers)


def test_pullback_gates():
    with pytest.raises(InputError):
        pullback_check(1, [(0,)], 2)
    with pytest.raises(InputError):
        pullback_check(6, [()], 2)


def test_pullback_checks_the_window_cap_before_any_fold(monkeypatch):
    calls = []
    fold = analyzer.symbolic_hfold_sum
    monkeypatch.setattr(
        analyzer, "symbolic_hfold_sum", lambda *a: calls.append(a) or fold(*a)
    )
    with pytest.raises(CapError):
        pullback_check(4, [(0, 1)], 2, window=Window(-1_500_000, 1_500_000))
    assert calls == []


def test_pullback_window_check_decides_when_the_closed_form_differs(monkeypatch):
    fold = analyzer.symbolic_hfold_sum

    def shifted(s, h, window=None, gen_radius=None):
        return Closed(symbolic.shift(fold(s, h).set, 1))

    def windowed(s, h, window=None, gen_radius=None):
        bits = symbolic.window_bits(fold(s, h).set, window.lo, window.hi)
        return Windowed(window, bits, 0, True)

    # 4Z + 1 folds to 4Z + h: one shifted class is wrong on the window too,
    # while the right fold enumerated matches there but not as a term
    for stub, window_equal in ((shifted, False), (windowed, True)):
        monkeypatch.setattr(analyzer, "symbolic_hfold_sum", stub)
        rep = pullback_check(4, [(1,)], 3)
        assert [(c.symbolic_equal, c.window_equal) for c in rep.fold_checks] == [
            (False, window_equal)
        ] * 3


def _residue_fold(b, h: int, m: int) -> tuple[int, ...]:
    """The sums mod m of every h-tuple drawn from b, by enumeration."""
    return tuple(sorted({sum(t) % m for t in itertools.product(b, repeat=h)}))


def _residue_sets(m: int):
    """Every nonempty subset of Z/m with at most three residues."""
    for size in range(1, min(3, m) + 1):
        yield from itertools.combinations(range(m), size)


@pytest.mark.parametrize("m", range(2, 9))
def test_pullback_matches_brute_force_residue_sums(m):
    for b in _residue_sets(m):
        rep = pullback_check(m, [b], 4)
        assert [(c.h, c.residues) for c in rep.fold_checks] == [
            (h, b) for h in range(1, 5)
        ]
        for c in rep.fold_checks:
            assert c.group_fold == _residue_fold(b, c.h, m)
            assert c.symbolic_equal and c.window_equal
        assert rep.h_in_group == rep.h_in_integers


@pytest.mark.parametrize("m", range(2, 6))
def test_pullback_of_two_layers_matches_brute_force_h(m):
    for b1, b2 in itertools.product(_residue_sets(m), repeat=2):
        core = set(b1) & set(b2)
        if not core:
            continue
        expected = tuple(
            set(_residue_fold(core, h, m))
            == set(_residue_fold(b1, h, m)) & set(_residue_fold(b2, h, m))
            for h in range(1, 4)
        )
        rep = pullback_check(m, [b1, b2], 3)
        assert rep.h_in_group == rep.h_in_integers == expected
        assert rep.fold_identity


def test_pullback_builds_each_ladder_once(monkeypatch):
    built = []
    ladder = groups.group_hfolds

    def spy(g, subset, h_max):
        built.append(tuple(sorted(subset)))
        return ladder(g, subset, h_max)

    monkeypatch.setattr(groups, "group_hfolds", spy)
    monkeypatch.setattr(analyzer, "group_hfolds", spy)
    pullback_check(6, [(1, 3), (1,), (1, 3)], 3)
    assert sorted(built) == [(1,), (1, 3)]
    # layers that do not nest: the core {0} is no layer and gets its own
    built.clear()
    pullback_check(4, [[0, 1], [0, 2]], 4)
    assert sorted(built) == [(0,), (0, 1), (0, 2)]


# -- scaled families --------------------------------------------------------


def test_scaled_family_report_frozen():
    base = compute_H(TailFamily(FOURZ1), 4)
    # the window grows with the dilation, so the scaled report sees as much
    scaled = compute_H(
        ScaledFamily(TailFamily(FOURZ1), 3), 4, HConfig(window=Window(-72, 72))
    )
    assert base.statuses == (
        CERTIFIED_IN,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
        CERTIFIED_IN,
    )
    assert scaled.statuses == (
        CERTIFIED_IN,
        UNDETERMINED,
        UNDETERMINED,
        EMPIRICAL_EQUAL,
    )
    assert [v.witness for v in scaled.verdicts] == [None, -3, -3, None]
    # the scaled candidates really are the scaled base witnesses
    assert [3 * w if w is not None else None for w in
            [v.witness for v in base.verdicts]] == [
        v.witness for v in scaled.verdicts
    ]


# -- sample members ---------------------------------------------------------

# every shape has a member within 3,000 of 0, inside _sample_member's widest
# scan of radius 64 * 4**3
_sample_atoms = st.one_of(
    st.lists(st.integers(-3000, 3000), min_size=1, max_size=4).map(finite),
    st.integers(-3000, 3000).map(half_tail),
    st.integers(-3000, 3000).map(down_tail),
    st.tuples(st.integers(1, 40), st.integers(0, 39)).map(
        lambda t: congruence(t[0], (t[1] % t[0],))
    ),
)


@given(
    st.lists(_sample_atoms, min_size=1, max_size=3).map(lambda ps: union(*ps)),
    st.integers(0, 64),
    st.integers(0, 64),
)
@settings(max_examples=100)
def test_sample_member_matches_oracle_spiral(s, left, right):
    expected = next(x for x in spiral(Window(-4096, 4096)) if contains(s, x))
    assert _sample_member(s, Window(-left, right)) == expected


# members up to 10**6 from 0 and moduli up to 10**6: many sets have no
# member within the widest scan and take the min/max_element fallback
_far_atoms = st.one_of(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4).map(finite),
    st.integers(-10**6, 10**6).map(half_tail),
    st.integers(-10**6, 10**6).map(down_tail),
    st.integers(1, 10**6).flatmap(
        lambda m: st.lists(st.integers(0, m - 1), min_size=1, max_size=3).map(
            lambda rs: congruence(m, rs)
        )
    ),
)


@given(
    st.lists(_far_atoms, min_size=1, max_size=3).map(lambda ps: union(*ps)),
    st.integers(0, 64),
)
@settings(max_examples=100)
def test_sample_member_scans_then_falls_back(s, radius):
    # the scans widen from radius max(radius, 64) by 4 three times
    reach = max(radius, 64) * 4**3
    expected = next(
        (x for x in spiral(Window(-reach, reach)) if contains(s, x)), None
    )
    if expected is None:
        expected = min_element(s)
        if expected is None:
            expected = max_element(s)
    assert _sample_member(s, Window(-radius, 0)) == expected


def test_sample_member_scans_stay_within_the_cap(monkeypatch):
    # from radius 600,000 one fourfold widening would pass the cap, so the
    # scan stops there and falls back to the least member
    spans = []
    scan = analyzer.window_bits
    monkeypatch.setattr(
        analyzer,
        "window_bits",
        lambda s, lo, hi: spans.append(hi - lo + 1) or scan(s, lo, hi),
    )
    assert _sample_member(finite([800_000]), Window(-600_000, 600_000)) == 800_000
    assert spans == [1_200_001]
    # a first window past the cap is refused before any scan
    with pytest.raises(CapError):
        _sample_member(finite([5]), Window(-10**6, 10**6))
    assert spans == [1_200_001]


def test_scaled_congruence_chain_completes():
    # layer q is a congruence mod 3 * 17 * 3**(q - 1), 111,537 at Q = 8:
    # far wider than the window
    fam = ScaledFamily(CongruenceChainFamily((0, 1, 5), m1=17, ratio=3), 3)
    assert compute_H(fam, 4).statuses == (
        CERTIFIED_IN,
        EMPIRICAL_EQUAL,
        EMPIRICAL_EQUAL,
        EMPIRICAL_EQUAL,
    )


def test_layers_are_built_once_per_family():
    inner = TailFamily(FOURZ1)
    calls = []
    build = inner.set_at
    inner.set_at = lambda q: calls.append(q) or build(q)
    compute_H(ScaledFamily(inner, 3), 4)
    # nested layers meet at the deepest one: for each h > 1 the two passes
    # of _empirical fold layer Q = 8 and layer Q * DEEP_SCALE = 16 alone
    assert calls == [8, 16] * 3

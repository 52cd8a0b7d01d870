"""H-set reports: certificates, witnesses, transport, pullback, scaling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersets import (
    CERTIFIED_IN,
    CERTIFIED_OUT,
    EMPIRICAL_EQUAL,
    UNDETERMINED,
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
    compare_scaled,
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
from intersets import analyzer, families, sumsets, symbolic
from intersets.analyzer import _sample_member, _with_certificate
from intersets.sumsets import Windowed
from intersets.symbolic import max_element, min_element
from oracles import fold_values, lattice_fold, members, spiral, windowed_fold

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
    "field", [{"Q": 0}, {"Q": -3}, {"deep_scale": 0}, {"gen_radius": 0}], ids=str
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
    lhs = Windowed(win, tuple(x for x in cmem if x not in gone), 9, complete)
    status, witness, _ = _with_certificate(lhs, cset, "p", 2, win)
    expected = next((x for x in spiral(win) if x in gone), None)
    assert witness == expected
    if expected is None:
        assert status == EMPIRICAL_EQUAL
    else:
        assert status == (CERTIFIED_OUT if complete else UNDETERMINED)


def test_windowed_certificate_lists_the_first_five_strays():
    win = Window(-10, 10)
    lhs = Windowed(win, tuple(range(-10, 11)), 0, False)
    with pytest.raises(InvariantError) as err:
        _with_certificate(lhs, congruence(3, (1,)), "p", 2, win)
    assert str(err.value) == (
        "sumset members escape the intersection certificate [p]: "
        "[-10, -9, -7, -6, -4]"
    )


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
        expected &= windowed_fold(fam.layer(q), h, win, r)
    assert truncated_layer_fold(fam, h, win, Q) == expected


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


def test_pullback_gates():
    with pytest.raises(InputError):
        pullback_check(1, [(0,)], 2)
    with pytest.raises(InputError):
        pullback_check(6, [()], 2)


# -- scaling comparison -----------------------------------------------------


def test_compare_scaled_frozen():
    cmp = compare_scaled(TailFamily(FOURZ1), 3, 4)
    assert cmp.base.statuses == (
        CERTIFIED_IN,
        CERTIFIED_OUT,
        CERTIFIED_OUT,
        CERTIFIED_IN,
    )
    assert cmp.scaled.statuses == (
        CERTIFIED_IN,
        UNDETERMINED,
        UNDETERMINED,
        EMPIRICAL_EQUAL,
    )
    assert [v.witness for v in cmp.scaled.verdicts] == [None, -3, -3, None]
    assert cmp.status_agreement == (True, False, False, False)
    # the scaled candidates really are the scaled base witnesses
    assert [3 * w if w is not None else None for w in
            [v.witness for v in cmp.base.verdicts]] == [
        v.witness for v in cmp.scaled.verdicts
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
    def scaled(memo: bool):
        inner = TailFamily(FOURZ1)
        fam = ScaledFamily(inner, 3)
        calls = []
        build = inner.set_at
        inner.set_at = lambda q: calls.append(q) or build(q)
        if not memo:
            for f in (inner, fam):
                f.layer = f.set_at
        return fam, calls

    fam, calls = scaled(memo=True)
    report = compute_H(fam, 4)
    # the deep pass of _empirical reaches Q * deep_scale
    assert sorted(calls) == list(range(1, 17))
    plain, plain_calls = scaled(memo=False)
    assert compute_H(plain, 4) == report
    assert len(plain_calls) > len(calls)
    assert fam.layer(2) is fam.layer(2)

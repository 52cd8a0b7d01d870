"""Hand-derived layer certificates re-checked against brute force.

Each check compares a family's `certificate(h).closed_form` with the
intersection of its depth-Q layer folds on a window, folded by
`oracles.recheck_certificate` from `contains` scans alone.  A nested
explicit chain's certificate folds only its last layer; the spies below
pin which layers are folded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersets import (
    CERTIFIED_IN,
    EMPTY,
    AffineFamily,
    CongruenceChainFamily,
    CosetTailFamily,
    EnumerationFamily,
    ExplicitFamily,
    HalfTailFamily,
    TailFamily,
    Window,
    compute_H,
    congruence,
    down_tail,
    finite,
    half_tail,
    intersect,
    union,
)
from intersets import families

from oracles import fold_values, recheck_certificate

WINDOW = Window(-48, 30)


@settings(max_examples=40, deadline=None)
@given(
    core=st.lists(st.integers(-12, 25), max_size=6, unique=True),
    h=st.integers(1, 4),
)
def test_half_tail_certificate_matches_layer_folds(core, h):
    # layer q adds sums of q and h - 1 summands >= -12; from depth Q on
    # they all lie past the window, and no summand of a window sum exceeds Q
    Q = WINDOW.hi + 1 + (h - 1) * 12
    got, brute = recheck_certificate(HalfTailFamily(finite(core)), h, WINDOW, Q, Q)
    assert got == brute


# each family with the depth Q and summand radius past which deeper layers
# and farther summands change no window sum at h <= 4
RECHECKS = {
    "tail": (TailFamily(finite([0, 1])), 12, 80),
    "congruence-chain": (CongruenceChainFamily((0, 1, 3), m1=7), 6, 400),
    "coset-tail": (CosetTailFamily(3, 1), 8, 200),
    "enumeration": (EnumerationFamily(finite([0, 2, 5])), 8, 80),
    "affine-half-tail": (AffineFamily(-1, 3, HalfTailFamily(finite([0, 4]))), 60, 80),
    "affine-coset-tail": (AffineFamily(-1, 3, CosetTailFamily(3, 1)), 8, 200),
    # half-tails over cores unbounded below, certified ALL
    "half-tail-class": (HalfTailFamily(congruence(3, [0])), 8, 120),
    "half-tail-down-ray": (HalfTailFamily(down_tail(5)), 8, 120),
    "half-tail-class-ray": (
        HalfTailFamily(intersect(congruence(5, [0, 2]), down_tail(-3))), 8, 120
    ),
    "half-tail-points-class": (
        HalfTailFamily(union(finite([2, 7]), congruence(4, [1]))), 8, 120
    ),
}


@pytest.mark.parametrize("h", [2, 3, 4])
@pytest.mark.parametrize("name", RECHECKS)
def test_certificate_matches_layer_folds(name, h):
    fam, Q, radius = RECHECKS[name]
    got, brute = recheck_certificate(fam, h, Window(-24, 24), Q, radius)
    assert got == brute


# -- explicit chains: a nested chain reads layer Q alone ---------------------


def _spy_closed_hfold(monkeypatch) -> list:
    seen = []
    fold = families._closed_hfold
    monkeypatch.setattr(
        families, "_closed_hfold", lambda s, h: seen.append(s) or fold(s, h)
    )
    return seen


def test_nested_explicit_chain_folds_only_layer_Q(monkeypatch):
    seen = _spy_closed_hfold(monkeypatch)
    fam = ExplicitFamily([half_tail(-3), half_tail(0), half_tail(2), half_tail(5)])
    assert fam.decreasing
    assert fam.certificate(3).closed_form == half_tail(15)
    assert seen == [half_tail(5)]
    assert fam.intersection() == half_tail(5)


def test_unnested_explicit_chain_folds_every_layer(monkeypatch):
    seen = _spy_closed_hfold(monkeypatch)
    layers = [half_tail(2), half_tail(-3), half_tail(5), half_tail(0)]
    fam = ExplicitFamily(layers)
    assert not fam.decreasing
    assert fam.certificate(3).closed_form == half_tail(15)
    assert seen == layers
    assert fam.intersection() == half_tail(5)


@st.composite
def _nested_chains(draw):
    """Nested explicit chains shaped like hset-stream's: 8-12 points in
    [-15, 15], each deeper layer dropping one or two of them, every layer
    optionally joined by one residue class mod 4-6."""
    elems = sorted(draw(st.sets(st.integers(-15, 15), min_size=8, max_size=12)))
    m = draw(st.sampled_from((0, 4, 5, 6)))
    cls = congruence(m, [draw(st.integers(0, m - 1))]) if m else EMPTY
    layers = []
    for _ in range(draw(st.integers(2, 4))):
        layers.append(union(finite(elems), cls))
        drop = draw(st.integers(1, 2))
        keep = draw(st.permutations(elems))[: max(len(elems) - drop, 2)]
        elems = sorted(keep)
    return m, ExplicitFamily(layers)


CHAIN_WINDOW = Window(-24, 24)


@settings(max_examples=30, deadline=None)
@given(chain=_nested_chains(), h=st.integers(1, 4))
def test_nested_explicit_certificate_matches_layer_folds(chain, h):
    m, fam = chain
    assert fam.decreasing
    # a window sum that uses residue-class summands can take all but one of
    # them from [-m, m]; the last one then lies within this radius
    radius = CHAIN_WINDOW.radius + h * (15 + m) + m
    got, brute = recheck_certificate(fam, h, CHAIN_WINDOW, fam.depth, radius)
    assert got == brute


def test_nested_chain_certifies_where_only_layer_Q_closes():
    # no rewrite closes the fold of the ray 2Z n [-4, oo); that of {0, 2, 4} does
    fam = ExplicitFamily([intersect(congruence(2, [0]), half_tail(-4)), finite([0, 2, 4])])
    assert fam.decreasing
    for h in range(1, 5):
        assert fam.certificate(h).closed_form == finite(fold_values([0, 2, 4], h))
    assert compute_H(fam, 4).statuses == (CERTIFIED_IN,) * 4
    assert compute_H(AffineFamily(-1, 3, fam), 4).statuses == (CERTIFIED_IN,) * 4

"""Layer family constructions, gates, and document round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersets import (
    ALL,
    AffineFamily,
    CapError,
    CongruenceChainFamily,
    ConstructionError,
    CosetTailFamily,
    EnumerationFamily,
    ExplicitFamily,
    HalfTailFamily,
    InputError,
    ProductFamily,
    ScaledFamily,
    TailFamily,
    Window,
    cofinite,
    congruence,
    finite,
    half_tail,
    is_subset,
    materialize,
    tail,
    union,
)
from intersets.serialize import family_from_json, family_to_json
from oracles import spiral


# -- construction gates -----------------------------------------------------


def test_chain_gates():
    with pytest.raises(ConstructionError):
        CongruenceChainFamily((0, 1, 3), m1=6)  # needs m1 > 2*3
    with pytest.raises(ConstructionError):
        CongruenceChainFamily((0, 1, 3), m1=7, ratio=1)
    with pytest.raises(ConstructionError):
        CongruenceChainFamily((0, 1), moduli=(5, 12))  # 12 not a multiple of 5
    with pytest.raises(ConstructionError):
        CongruenceChainFamily((0, 1), moduli=(10, 5))
    with pytest.raises(ConstructionError):
        CongruenceChainFamily((), m1=7)
    CongruenceChainFamily((0, 1, 3), m1=7)  # boundary 7 > 6 is fine


def test_coset_gates():
    with pytest.raises(ConstructionError):
        CosetTailFamily(1, 1)
    with pytest.raises(ConstructionError):
        CosetTailFamily(4, 8)  # base inside the subgroup
    CosetTailFamily(4, 3)


def test_enumeration_gate():
    with pytest.raises(ConstructionError):
        EnumerationFamily(ALL)
    with pytest.raises(ConstructionError):
        ExplicitFamily([])


def test_affine_scaled_gates():
    inner = TailFamily(finite([0, 1]))
    with pytest.raises(ConstructionError):
        AffineFamily(2, 0, inner)
    with pytest.raises(ConstructionError):
        ScaledFamily(inner, 1)
    with pytest.raises(ConstructionError):
        ScaledFamily(inner, 0)
    pair = ProductFamily(inner, inner)
    with pytest.raises(ConstructionError):
        AffineFamily(1, 0, pair)
    with pytest.raises(ConstructionError):
        ScaledFamily(pair, 2)


def test_builder_gates():
    with pytest.raises(ConstructionError):
        family_from_json({"family": "mystery"})
    with pytest.raises(ConstructionError):
        family_from_json({"family": "coset-tail", "subgroup_step": "3"})
    with pytest.raises(ConstructionError):
        family_from_json(
            {"family": "coset-tail", "subgroup_step": "3", "coset_base": "1", "junk": "0"}
        )


# -- layer shapes -----------------------------------------------------------


def test_chain_layers_frozen():
    fam = CongruenceChainFamily((0, 1, 3), m1=7)
    assert fam.modulus_at(1) == 7
    assert fam.modulus_at(2) == 14
    assert fam.modulus_at(4) == 56
    assert fam.set_at(2) == congruence(14, (0, 1, 3))
    assert fam.intersection() == finite([0, 1, 3])
    assert fam.pinning_depth(4, 30) == 4
    assert fam.pinning_depth(4, 100) == 6


def test_chain_explicit_moduli():
    fam = CongruenceChainFamily((0, 1), moduli=(5, 15, 45))
    assert [fam.modulus_at(q) for q in range(1, 6)] == [5, 15, 45, 135, 405]


def test_tail_layers():
    fam = TailFamily(finite([0, 1]))
    assert fam.set_at(3) == union(finite([0, 1]), tail(0, 3))
    assert fam.intersection() == finite([0, 1])
    assert materialize(fam.set_at(3), Window(-5, 5)) == [-5, -4, -3, 0, 1, 3, 4, 5]


def test_half_tail_layers():
    fam = HalfTailFamily(finite([-2]))
    assert fam.set_at(4) == union(finite([-2]), half_tail(4))
    assert fam.intersection() == finite([-2])


def test_enumeration_layers_frozen():
    fam = EnumerationFamily(finite([0, 1]))
    # complement spiral: -1, -2, 2, -3, ...; layer q drops the first q-1
    assert fam.set_at(1) == ALL
    assert fam.set_at(2) == cofinite([-1])
    assert fam.set_at(3) == cofinite([-1, -2])
    assert fam.intersection() == finite([0, 1])

    cf = EnumerationFamily(cofinite([5, -3, 7]))
    assert cf.set_at(2) == cofinite([-3])  # smallest-|a| complement point first
    assert cf.set_at(3) == cofinite([-3, 5])
    assert cf.set_at(4) == cofinite([-3, 5, 7])


@pytest.mark.parametrize(
    "excluded, spiral",
    [
        ([1, 2, 3], [1, 2, 3]),  # normalizes to Tail(2, 2)
        ([-5, -4, -3, -2, -1], [-1, -2, -3, -4, -5]),
        ([-1, 0, 1], [0, -1, 1]),
        ([5, -3, 7], [-3, 5, 7]),
    ],
)
def test_enumeration_exhausts_finite_complement(excluded, spiral):
    fam = EnumerationFamily(cofinite(excluded))
    # layers past the complement's size equal the core, with no search
    for q in range(1, len(spiral) + 4):
        assert fam.set_at(q) == cofinite(spiral[: q - 1])
    assert fam.set_at(len(spiral) + 3) == fam.intersection()


@pytest.mark.parametrize(
    "excluded, spiral",
    [
        # an even-length gap past the expansion cap normalizes to a union of
        # a down-tail and a half-tail, not to a Tail
        (range(2_000_000, 2_020_000), [2_000_000, 2_000_001, 2_000_002]),
        (range(-2_020_000, -2_000_000), [-2_000_001, -2_000_002, -2_000_003]),
        (range(-10_000, 10_002), [0, -1, 1]),
    ],
)
def test_enumeration_wide_even_gap_core(excluded, spiral):
    fam = EnumerationFamily(cofinite(excluded))
    for q in range(1, len(spiral) + 2):
        assert fam.set_at(q) == cofinite(spiral[: q - 1])


def test_enumeration_wide_tail_core():
    fam = EnumerationFamily(tail(10**6, 10**6 - 5))
    assert fam.set_at(4) == cofinite([6, 7, 8])
    fam = EnumerationFamily(tail(0, 10**7))
    assert fam.set_at(5) == cofinite([0, -1, 1, -2])


# finite cores leave an infinite complement that is not one interval, so
# the complement is searched in growing windows; cores dense near 0 push
# the first q - 1 complement points past the first window of radius 64
_enumeration_cores = st.one_of(
    st.sets(st.integers(-300, 300), max_size=12),
    st.tuples(st.integers(0, 200), st.sets(st.integers(-200, 200), max_size=6)).map(
        lambda t: set(range(-t[0], t[0] + 1)) - t[1]
    ),
).filter(bool)


@given(_enumeration_cores, st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_enumeration_set_at_matches_oracle_spiral(core, q):
    fam = EnumerationFamily(finite(sorted(core)))
    expected = [x for x in spiral(Window(-700, 700)) if x not in core][: q - 1]
    assert fam.set_at(q) == cofinite(expected)


def test_enumeration_search_windows_and_cap():
    # the complement is the odd numbers of absolute value below 2**21
    fam = EnumerationFamily(union(congruence(2, (0,)), tail(0, 2**21)))
    odd = [x for x in spiral(Window(-700, 700)) if x % 2]
    assert fam.set_at(301) == cofinite(odd[:300])
    # [-2**20, 2**20] holds 2**20 odd numbers, one fewer than asked for
    with pytest.raises(CapError, match=r"exceeded \|a\| <= 1048576"):
        fam.set_at(2**20 + 2)


def test_coset_layers():
    fam = CosetTailFamily(2, 1)
    got = materialize(fam.set_at(3), Window(-10, 12))
    evens = [x for x in range(-10, 13) if x % 2 == 0]
    odds = [x for x in range(-10, 13) if x % 2 == 1 and x >= 1 + 2 * 3]
    assert got == sorted(evens + odds)
    assert fam.intersection() == congruence(2, (0,))


def test_product_family():
    fam = ProductFamily(TailFamily(finite([0])), HalfTailFamily(finite([1])))
    l, r = fam.set_at(2)
    assert l == union(finite([0]), tail(0, 2))
    assert r == union(finite([1]), half_tail(2))
    assert fam.intersection() == (finite([0]), finite([1]))


def test_layer_index_gates():
    fam = ExplicitFamily([half_tail(0), half_tail(1)])
    assert fam.depth == 2
    fam.set_at(2)
    with pytest.raises(InputError):
        fam.set_at(3)
    with pytest.raises(InputError):
        fam.set_at(0)


# -- params round trips -----------------------------------------------------

ROUND_TRIP = [
    TailFamily(finite([0, 2])),
    HalfTailFamily(congruence(3, (1,))),
    CongruenceChainFamily((0, 1, 3), m1=7),
    CosetTailFamily(4, 3),
    EnumerationFamily(finite([0, 1])),
    AffineFamily(-1, 2, TailFamily(finite([0]))),
    ScaledFamily(HalfTailFamily(finite([0])), 3),
    ExplicitFamily([half_tail(0), half_tail(2)]),
]


@pytest.mark.parametrize("fam", ROUND_TRIP, ids=lambda f: f.kind)
def test_params_rebuild_same_layers(fam):
    twin = family_from_json(family_to_json(fam))
    for q in (1, 2, 3)[: fam.depth or 3]:
        assert twin.set_at(q) == fam.set_at(q)
    assert twin.intersection() == fam.intersection()


@pytest.mark.parametrize("fam", ROUND_TRIP, ids=lambda f: f.kind)
def test_decreasing_families_nest(fam):
    # every family here nests, the explicit chain included
    assert fam.decreasing
    for q in range(1, min(7, (fam.depth or 8) - 1) + 1):
        assert is_subset(fam.set_at(q + 1), fam.set_at(q))

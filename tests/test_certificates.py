"""Hand-derived layer certificates re-checked against brute force.

Each check compares a family's `certificate(h).closed_form` with the
intersection of its depth-Q layer folds on a window, folded by
`oracles.recheck_certificate` from `contains` scans alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from intersets import HalfTailFamily, Window, finite

from oracles import recheck_certificate

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

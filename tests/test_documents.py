"""The set and family document format: pinned writers, and decoding that
ends in a typed error on any malformed document.

`golden/documents.json` holds `set_to_json` of every set kind and
`family_to_json` of every family kind, a nested product included.
Rewrite the fixture with

    PYTHONPATH=src python tests/test_documents.py

only when the document format is meant to change.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from intersets import (
    EMPTY,
    AffineFamily,
    CongruenceChainFamily,
    CosetTailFamily,
    EnumerationFamily,
    ExplicitFamily,
    HalfTailFamily,
    ProductFamily,
    ScaledFamily,
    TailFamily,
    affine,
    cofinite,
    congruence,
    finite,
    half_tail,
    intersect,
    tail,
    union,
)
from intersets.cli import main
from intersets.serialize import (
    family_from_json,
    family_to_json,
    set_from_json,
    set_to_json,
)

FIXTURE = Path(__file__).parent / "golden" / "documents.json"

SETS = {
    "empty": EMPTY,
    "finite": finite([-3, 0, 7]),
    "cofinite": cofinite([1, 2]),
    "congruence": congruence(6, (1, 5)),
    "tail": tail(-2, 4),
    "half-tail": half_tail(9),
    "union": union(finite([5]), congruence(4, (0,))),
    "intersection": intersect(congruence(4, (1,)), tail(0, 9)),
    "affine": affine(-1, 3, union(finite([0, 1]), congruence(4, (1,)))),
}

FAMILIES = {
    "tail": TailFamily(union(congruence(4, (0,)), finite([1]))),
    "half-tail": HalfTailFamily(finite([-2, 5])),
    "congruence-chain": CongruenceChainFamily((0, 1, 3), m1=7, ratio=3),
    "congruence-chain/moduli": CongruenceChainFamily((0, -2), moduli=(5, 15, 45)),
    "coset-tail": CosetTailFamily(4, -3),
    "enumeration": EnumerationFamily(cofinite([0, 2])),
    "affine": AffineFamily(-1, 2, TailFamily(finite([0]))),
    "scaled": ScaledFamily(HalfTailFamily(finite([0, 3])), -2),
    "explicit": ExplicitFamily([half_tail(0), union(finite([-1]), half_tail(2))]),
    "product": ProductFamily(TailFamily(finite([0, 1])), HalfTailFamily(EMPTY)),
    "product/nested": ProductFamily(
        AffineFamily(1, -4, ScaledFamily(CosetTailFamily(3, 1), 2)),
        ExplicitFamily([congruence(3, (0, 2)), congruence(6, (0,))]),
    ),
}


def documents() -> dict:
    return {
        "sets": {name: set_to_json(s) for name, s in SETS.items()},
        "families": {name: family_to_json(f) for name, f in FAMILIES.items()},
    }


def dumps(doc) -> str:
    return json.dumps(doc, indent=1)


PINNED = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}


def test_writers_match_pinned_documents():
    # compared as text, so the key order is pinned as well
    assert dumps(documents()) == dumps(PINNED)


def test_pinned_documents_decode_to_their_writers_input():
    for name, doc in PINNED["sets"].items():
        assert set_from_json(doc) == SETS[name]
    for name, doc in PINNED["families"].items():
        assert family_to_json(family_from_json(doc)) == doc, name


# -- corrupted documents ------------------------------------------------------

VALID = [family_to_json(f) for f in FAMILIES.values()]
POOL = [None, 5, "13", [1, 2], {"kind": "empty"}, family_to_json(FAMILIES["product"])]


def objects(doc: dict) -> list[dict]:
    """doc and every JSON object nested in it."""
    out = [doc]
    for value in doc.values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, dict):
                out += objects(item)
    return out


# every field name of every kind, and one that no kind has
FIELD_NAMES = sorted(
    {key for doc in VALID for obj in objects(doc) for key in obj} - {"family", "kind"}
) + ["junk"]


def hset(doc) -> int:
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return main(["hset", "--family", "-", "--hmax", "2"])
    finally:
        sys.stdin = stdin


def test_valid_documents_run():
    assert {doc["family"] for doc in VALID} == {
        "tail", "half-tail", "congruence-chain", "coset-tail", "enumeration",
        "affine", "scaled", "explicit", "product",
    }
    assert [hset(doc) for doc in VALID] == [0] * len(VALID)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupted_document_ends_in_a_report_or_a_typed_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(VALID)))
    obj = data.draw(st.sampled_from(objects(doc)))
    op = data.draw(st.sampled_from(("drop", "add", "replace")))
    if op == "drop":
        del obj[data.draw(st.sampled_from(sorted(obj)))]
    else:
        names = [k for k in FIELD_NAMES if k not in obj] if op == "add" else sorted(obj)
        obj[data.draw(st.sampled_from(names))] = copy.deepcopy(
            data.draw(st.sampled_from(POOL))
        )
    assert hset(doc) in (0, 2, 3)


if __name__ == "__main__":
    FIXTURE.write_text(dumps(documents()) + "\n", encoding="utf-8")

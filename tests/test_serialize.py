"""JSON and TSV wire formats: round trips, numeric encoding, parse errors."""

import pytest

from intersets import (
    EMPTY,
    AffineFamily,
    CongruenceChainFamily,
    ConstructionError,
    CosetTailFamily,
    EnumerationFamily,
    ExplicitFamily,
    HConfig,
    HalfTailFamily,
    ParseError,
    ProductFamily,
    ScaledFamily,
    TailFamily,
    Window,
    affine,
    cofinite,
    compute_H,
    congruence,
    down_tail,
    finite,
    half_tail,
    intersect,
    normalize,
    tail,
    union,
)
from intersets.serialize import (
    TSV_COLUMNS,
    family_from_json,
    family_to_json,
    parse_set_expr,
    report_dumps,
    report_from_json,
    report_to_json,
    report_to_tsv,
    set_from_json,
    set_to_json,
)

SETS = [
    EMPTY,
    finite([-3, 0, 7]),
    cofinite([1, 2]),
    congruence(6, (1, 5)),
    tail(-2, 4),
    half_tail(9),
    down_tail(-1),
    union(finite([5]), congruence(4, (0,))),
    intersect(congruence(4, (1,)), tail(0, 9)),  # stays a lazy intersection
    affine(-1, 3, union(finite([0, 1]), congruence(4, (1,)))),
]


@pytest.mark.parametrize("s", SETS, ids=lambda s: type(s).__name__)
def test_set_round_trip(s):
    assert set_from_json(set_to_json(s)) == normalize(s)


def test_numbers_emitted_as_strings():
    j = set_to_json(finite([-3, 12]))
    assert j == {"kind": "finite", "elements": ["-3", "12"]}
    j = set_to_json(congruence(5, (2,)))
    assert j["modulus"] == "5"


def test_lenient_number_parsing():
    # plain ints are accepted on input even though output uses strings
    assert set_from_json({"kind": "finite", "elements": [1, "2"]}) == finite([1, 2])
    with pytest.raises(ParseError):
        set_from_json({"kind": "finite", "elements": [True]})
    with pytest.raises(ParseError):
        set_from_json({"kind": "finite", "elements": ["1.5"]})
    with pytest.raises(ParseError):
        set_from_json({"kind": "half-tail", "threshold": None})


def test_unknown_objects_are_parse_errors():
    with pytest.raises(ParseError) as err:
        set_to_json(42)
    assert str(err.value) == "unserializable set node int"
    with pytest.raises(ParseError) as err:
        report_from_json({})
    assert str(err.value) == "malformed report JSON: 'config'"


def test_set_parse_errors():
    with pytest.raises(ParseError):
        set_from_json({"elements": ["1"]})
    with pytest.raises(ParseError):
        set_from_json({"kind": "mystery"})
    with pytest.raises(ParseError):
        set_from_json("finite")
    # a list field is never read off a string one character at a time
    with pytest.raises(ParseError):
        set_from_json({"kind": "finite", "elements": "12"})
    # a missing or unknown field is a construction error
    with pytest.raises(ConstructionError):
        set_from_json({"kind": "tail", "center": "0"})
    with pytest.raises(ConstructionError):
        set_from_json({"kind": "empty", "elements": []})


FAMILIES = [
    TailFamily(union(congruence(4, (0,)), finite([1]))),
    HalfTailFamily(finite([-2, 5])),
    CongruenceChainFamily((0, 1, 3), m1=7),
    CosetTailFamily(4, 3),
    EnumerationFamily(finite([0, 1])),
    AffineFamily(-1, 2, HalfTailFamily(finite([0, 3]))),
    ScaledFamily(TailFamily(finite([0])), -2),
    ExplicitFamily([half_tail(0), half_tail(3)]),
    ProductFamily(TailFamily(finite([0, 1])), HalfTailFamily(EMPTY)),
]


def assert_round_trip(fam):
    """`family_from_json` of `family_to_json(fam)` has fam's kind, layers
    1-3 up to its depth, and intersection."""
    twin = family_from_json(family_to_json(fam))
    assert twin.kind == fam.kind
    for q in (1, 2, 3)[: fam.depth or 3]:
        assert twin.set_at(q) == fam.set_at(q)
    assert twin.intersection() == fam.intersection()


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
def test_family_round_trip(fam):
    assert_round_trip(fam)


def test_family_parse_errors():
    with pytest.raises(ParseError):
        family_from_json({"core": {"kind": "empty"}})  # missing the tag
    # structural issues are parse errors; bad parameters surface from the
    # family constructors, and both share the InputError root
    with pytest.raises(ConstructionError):
        family_from_json({"family": "tail"})
    with pytest.raises(ConstructionError):
        family_from_json({"family": "nope"})
    # null stands for an absent optional field, and is refused for others
    chain = {"family": "congruence-chain", "core": [0, 1], "m1": 5}
    assert family_from_json({**chain, "ratio": None}).ratio == 2
    with pytest.raises(ParseError):
        family_from_json({"family": "half-tail", "core": None})
    with pytest.raises(ParseError):
        family_from_json({**chain, "moduli": "5"})


def test_report_round_trip_plain():
    rep = compute_H(TailFamily(union(congruence(4, (0,)), finite([1]))), 4)
    j = report_to_json(rep)
    assert report_from_json(j) == rep


def test_report_round_trip_product():
    # pair witnesses and samples survive as 2-element lists
    rep = compute_H(ProductFamily(TailFamily(finite([0, 1])), TailFamily(EMPTY)), 3)
    j = report_to_json(rep)
    assert j["verdicts"][1]["witness"] == ["-1", "0"]
    back = report_from_json(j)
    assert back == rep
    assert back.verdicts[1].witness == (-1, 0)


def test_report_verdicts_restate_the_config_window():
    rep = compute_H(TailFamily(finite([0, 1])), 3, HConfig(Q=5, window=Window(-9, 7)))
    j = report_to_json(rep)
    assert all(
        (v["Q"], v["window"]) == ("5", {"lo": "-9", "hi": "7"}) for v in j["verdicts"]
    )
    assert report_from_json(j) == rep
    for key, bad in (("Q", "6"), ("window", {"lo": "-9", "hi": "8"})):
        verdicts = [*j["verdicts"][:2], {**j["verdicts"][2], key: bad}]
        with pytest.raises(ParseError):
            report_from_json({**j, "verdicts": verdicts})


def test_report_deep_scale_is_fixed():
    j = report_to_json(compute_H(TailFamily(EMPTY), 2))
    assert j["config"]["deep_scale"] == "2"
    rep = report_from_json(j)
    assert report_from_json({**j, "config": {**j["config"], "deep_scale": 2}}) == rep
    absent = {k: v for k, v in j["config"].items() if k != "deep_scale"}
    assert report_from_json({**j, "config": absent}) == rep
    for bad in ("3", "0", 1, None):
        with pytest.raises(ParseError):
            report_from_json({**j, "config": {**j["config"], "deep_scale": bad}})


def test_report_tsv_shape():
    rep = compute_H(TailFamily(EMPTY), 2)
    lines = report_to_tsv(rep).splitlines()
    assert lines[0].split("\t") == list(TSV_COLUMNS)
    assert len(lines) == 3
    row = lines[2].split("\t")
    assert row[0] == "2" and row[1] == "CertifiedOut" and row[2] == "0"
    assert row[5] == "-24:24"
    # absent witnesses print as a dash
    assert lines[1].split("\t")[2] == "-"


def test_report_dumps_formats():
    rep = compute_H(TailFamily(EMPTY), 2)
    assert report_dumps(rep, "tsv") == report_to_tsv(rep)
    import json

    assert json.loads(report_dumps(rep, "json")) == report_to_json(rep)
    with pytest.raises(ParseError):
        report_dumps(rep, "xml")


def test_parse_set_expr():
    assert parse_set_expr("all") == cofinite([])
    assert parse_set_expr("empty") == EMPTY
    assert parse_set_expr("nonzero") == cofinite([0])
    assert parse_set_expr("finite:0,1,3") == finite([0, 1, 3])
    assert parse_set_expr("cofinite:5") == cofinite([5])
    assert parse_set_expr("congruence:4:0,1") == congruence(4, (0, 1))
    assert parse_set_expr("tail:0,5") == tail(0, 5)
    assert parse_set_expr("halftail:3") == half_tail(3)
    assert parse_set_expr("congruence:3:0|finite:1") == union(
        congruence(3, (0,)), finite([1])
    )


def test_parse_set_expr_errors():
    with pytest.raises(ParseError):
        parse_set_expr("wat:1")
    with pytest.raises(ParseError):
        parse_set_expr("finite:a,b")
    with pytest.raises(ParseError):
        parse_set_expr("congruence:4")
    with pytest.raises(ParseError):
        parse_set_expr("")

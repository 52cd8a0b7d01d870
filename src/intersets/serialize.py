"""JSON and TSV forms for sets, families, and verdict reports.

A set or family document is a JSON object tagged with its kind ("kind"
for a set, "family" for a family); its other keys are the kind's fields.
Each kind declares its fields once, in order, with one of five shapes:
"int", "ints" (a list of integers), "set" (a set document), "sets" (a
list of them) and "family" (a family document).  The set kinds are
declared in `_SET_KINDS` below and the family kinds by each family
class's `fields`.  One decoder reads every document through these
declarations.  A value of the wrong shape is a ParseError, and a missing
or unknown field is a ConstructionError.  null stands for an absent
optional field (one whose constructor has a default) and is refused for
every other field.

Numbers are emitted as decimal strings so reports survive readers that
truncate large integers; parsing accepts plain numbers as well.
"""

from __future__ import annotations

import json
from functools import cache
from inspect import signature

from .analyzer import DEEP_SCALE, HConfig, HReport, HVerdict
from .errors import ConstructionError, ParseError
from .families import Family, ProductFamily, family_class
from .symbolic import (
    ALL,
    EMPTY,
    Affine,
    Cofinite,
    Congruence,
    Empty,
    Finite,
    HalfTail,
    IntSet,
    Intersection,
    Tail,
    Union,
    Window,
    affine,
    cofinite,
    congruence,
    finite,
    half_tail,
    intersect,
    normalize,
    tail,
    union,
)


def _num(value) -> int:
    if isinstance(value, bool):
        raise ParseError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ParseError(f"not a decimal integer: {value!r}") from None
    raise ParseError(f"expected an integer, got {value!r}")


def _opt_num(value) -> int | None:
    return None if value is None else _num(value)


def _emit(n: int | None):
    return None if n is None else str(n)


# ---------------------------------------------------------------------------
# set and family documents


# kind -> (the node type written as this kind, constructor, fields)
_SET_KINDS = {
    "empty": (Empty, lambda: EMPTY, {}),
    "all": (None, lambda: ALL, {}),
    "finite": (Finite, finite, {"elements": "ints"}),
    "cofinite": (Cofinite, cofinite, {"excluded": "ints"}),
    "congruence": (Congruence, congruence, {"modulus": "int", "residues": "ints"}),
    "tail": (Tail, tail, {"center": "int", "radius": "int"}),
    "half-tail": (HalfTail, half_tail, {"threshold": "int"}),
    "union": (Union, lambda parts: union(*parts), {"parts": "sets"}),
    "intersection": (Intersection, lambda parts: intersect(*parts), {"parts": "sets"}),
    "affine": (Affine, affine, {"unit": "int", "shift": "int", "inner": "set"}),
}
_SET_KIND_OF = {node: kind for kind, (node, _, _) in _SET_KINDS.items() if node}


def set_to_json(s: IntSet) -> dict:
    kind = _SET_KIND_OF.get(type(s))
    if kind is None:
        raise ParseError(f"unserializable set node {type(s).__name__}")
    fields = _SET_KINDS[kind][2]
    return {"kind": kind, **{n: _WRITE[fields[n]](getattr(s, n)) for n in fields}}


def family_to_json(f: Family | ProductFamily) -> dict:
    fields = f.fields
    return {
        "family": f.kind,
        **{n: _WRITE[fields[n]](v) for n, v in f.params().items()},
    }


def set_from_json(d) -> IntSet:
    if not isinstance(d, dict) or "kind" not in d:
        raise ParseError(f"a set needs a 'kind' tag, got {d!r}")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _SET_KINDS:
        raise ParseError(f"unknown set kind {kind!r}")
    _, make, fields = _SET_KINDS[kind]
    return _decode(f"set kind {kind!r}", make, fields, d, "kind")


def family_from_json(d) -> Family | ProductFamily:
    if not isinstance(d, dict) or "family" not in d:
        raise ParseError(f"a family needs a 'family' tag, got {d!r}")
    cls = family_class(d["family"])
    return _decode(f"family kind {cls.kind!r}", cls, cls.fields, d, "family")


def _decode(what: str, make, fields: dict, d: dict, tag: str):
    """make(**values) of the declared fields read off the document d."""
    for key in d:
        if key != tag and key not in fields:
            raise ConstructionError(
                f"{what} has no field {key!r}; its fields are {list(fields)}"
            )
    values = {}
    for name, shape in fields.items():
        value = d.get(name)
        if value is not None:
            try:
                values[name] = _READ[shape](value)
            except ParseError as exc:
                raise ParseError(f"{what}, field {name!r}: {exc}") from None
        elif name in _required(make):
            if name in d:
                raise ParseError(f"{what}, field {name!r}: must not be null")
            raise ConstructionError(f"{what} is missing field {name!r}")
    return make(**values)


@cache
def _required(make) -> frozenset[str]:
    """The parameters of make that have no default."""
    params = signature(make).parameters.values()
    return frozenset(p.name for p in params if p.default is p.empty)


def _list_of(read, of: str):
    def read_list(value) -> list:
        if not isinstance(value, list):
            raise ParseError(f"expected a list of {of}, got {value!r}")
        return [read(v) for v in value]

    return read_list


_READ = {
    "int": _num,
    "ints": _list_of(_num, "integers"),
    "set": set_from_json,
    "sets": _list_of(set_from_json, "set documents"),
    "family": family_from_json,
}
_WRITE = {
    "int": str,
    "ints": lambda values: [str(v) for v in values],
    "set": set_to_json,
    "sets": lambda values: [set_to_json(v) for v in values],
    "family": family_to_json,
}


# ---------------------------------------------------------------------------
# inline set expressions (CLI)


def parse_set_expr(text: str) -> IntSet:
    """Small textual form: 'all', 'empty', 'nonzero', 'finite:0,1,3',
    'cofinite:5', 'congruence:4:0,1', 'tail:0,5', 'halftail:3';
    '|' joins alternatives into a union."""
    parts = [p.strip() for p in text.split("|")]
    if len(parts) > 1:
        return union(*(parse_set_expr(p) for p in parts))
    expr = parts[0]
    head, _, rest = expr.partition(":")
    head = head.strip().lower()
    try:
        if head == "all":
            return ALL
        if head == "empty":
            return normalize(Finite(()))
        if head == "nonzero":
            return cofinite([0])
        if head == "finite":
            return finite(int(v) for v in rest.split(","))
        if head == "cofinite":
            return cofinite(int(v) for v in rest.split(","))
        if head == "congruence":
            mod, _, res = rest.partition(":")
            return congruence(int(mod), [int(v) for v in res.split(",")])
        if head == "tail":
            c, r = rest.split(",")
            return tail(int(c), int(r))
        if head == "halftail":
            return half_tail(int(rest))
    except (ValueError, TypeError):
        raise ParseError(f"malformed set expression {expr!r}") from None
    raise ParseError(f"unknown set expression {expr!r}")


# ---------------------------------------------------------------------------
# H reports


def _window_to_json(w: Window) -> dict:
    return {"lo": str(w.lo), "hi": str(w.hi)}


def _window_from_json(d) -> Window:
    return Window(_num(d["lo"]), _num(d["hi"]))


def _point_to_json(v):
    if v is None:
        return None
    if isinstance(v, tuple):
        return [_point_to_json(c) for c in v]
    return str(v)


def _point_from_json(v):
    if v is None:
        return None
    if isinstance(v, list):
        return tuple(_point_from_json(c) for c in v)
    return _num(v)


def report_to_json(report: HReport) -> dict:
    cfg = report.config
    return {
        "kind": report.kind,
        "config": {
            "Q": str(cfg.Q),
            "window": _window_to_json(cfg.window),
            "gen_radius": _emit(cfg.gen_radius),
            "deep_scale": str(DEEP_SCALE),
        },
        "verdicts": [
            {
                "h": str(v.h),
                "status": v.status,
                "witness": _point_to_json(v.witness),
                "evidence": v.evidence,
                "Q": str(v.Q),
                "window": _window_to_json(v.window),
                "sample": _point_to_json(v.sample),
                "intersection_empty": v.intersection_empty,
            }
            for v in report.verdicts
        ],
    }


def report_from_json(d) -> HReport:
    try:
        deep = d["config"].get("deep_scale", DEEP_SCALE)
        if _num(deep) != DEEP_SCALE:
            raise ParseError(f"report deep_scale must be {DEEP_SCALE}, got {deep!r}")
        cfg = HConfig(
            Q=_num(d["config"]["Q"]),
            window=_window_from_json(d["config"]["window"]),
            gen_radius=_opt_num(d["config"].get("gen_radius")),
        )
        verdicts = tuple(
            HVerdict(
                h=_num(v["h"]),
                status=v["status"],
                witness=_point_from_json(v.get("witness")),
                evidence=v["evidence"],
                Q=_num(v["Q"]),
                window=_window_from_json(v["window"]),
                sample=_point_from_json(v.get("sample")),
                intersection_empty=v.get("intersection_empty"),
            )
            for v in d["verdicts"]
        )
        return HReport(kind=d["kind"], config=cfg, verdicts=verdicts)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed report JSON: {exc}") from None


def _witness_cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, tuple):
        return ",".join(str(c) for c in v)
    return str(v)


TSV_COLUMNS = ("h", "status", "witness", "evidence", "Q", "window")


def report_to_tsv(report: HReport) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for v in report.verdicts:
        lines.append(
            "\t".join(
                (
                    str(v.h),
                    v.status,
                    _witness_cell(v.witness),
                    v.evidence,
                    str(v.Q),
                    f"{v.window.lo}:{v.window.hi}",
                )
            )
        )
    return "\n".join(lines) + "\n"


def report_dumps(report: HReport, fmt: str = "tsv") -> str:
    if fmt == "json":
        return json.dumps(report_to_json(report), indent=2) + "\n"
    if fmt == "tsv":
        return report_to_tsv(report)
    raise ParseError(f"unknown format {fmt!r}")

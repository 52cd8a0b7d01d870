"""Intersection normal forms against a pinned fixture and brute force.

The fixture `golden/norm-intersection.json` holds seeded intersection
terms and the repr of their normal form.  The draw cycles through the
paths the pair reducer takes: two listed excluded sets, two wide
co-intervals that overlap, touch or leave a gap listed within or lazy
past EXPAND_CAP, a list against a wide co-interval, a congruence against
a list or an interval with its cut points within or past EXPAND_CAP, a
ray against a list or against an interval behind it, across it or ahead
of it, opposite rays, two congruences with their lcm within or past
LCM_CAP, a finite set against anything, unions of up to 16 parts and of
more, pairs where one part holds the other, and mixed terms of three or
four parts.  Each normal form is checked by a `contains` scan of a window
past every constant of its term.  Rewrite the fixture with

    PYTHONPATH=src python tests/test_norm_intersection.py

only from a normalizer whose answers are trusted.
"""

import json
import random
from pathlib import Path

import pytest

from intersets import (
    Window,
    cofinite,
    congruence,
    down_tail,
    finite,
    half_tail,
    intersect,
    tail,
    union,
)
from intersets.symbolic import EXPAND_CAP, LCM_CAP, Intersection, Union

from oracles import members

FIXTURE = Path(__file__).parent / "golden" / "norm-intersection.json"
PATHS = (
    "lists",
    "co-intervals",
    "list-co-interval",
    "class-co",
    "ray-co",
    "opposite-rays",
    "classes",
    "finite",
    "union",
    "wide-union",
    "nested",
    "mixed",
)
# a co-interval this wide is an interval, not a list, to the reducer
WIDE = EXPAND_CAP // 2 + 1
# primes whose pairwise lcm passes LCM_CAP
PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063,
          1069, 1087, 1091, 1093, 1097, 1103, 1109, 1117, 1123)
MARGIN = 30


def _points(rng: random.Random, k: int) -> list[int]:
    return sorted(rng.sample(range(-40, 41), k))


def _cofinite(rng: random.Random, most: int) -> dict:
    return {"kind": "cofinite", "pts": _points(rng, rng.randint(1, most))}


def _ray(rng: random.Random) -> dict:
    return {"kind": rng.choice(("up", "down")), "t": rng.randint(-40, 40)}


def _congruence(rng: random.Random, m: int | None = None, most: int = 3) -> dict:
    m = m or rng.randint(2, 12)
    res = sorted(rng.sample(range(m), rng.randint(1, min(m - 1, most))))
    return {"kind": "congruence", "m": m, "res": res}


def _listed(rng: random.Random) -> dict:
    """A cofinite set or a narrow tail: a listed excluded set."""
    if rng.random() < 0.5:
        return _cofinite(rng, 12)
    return {"kind": "tail", "c": rng.randint(-20, 20), "r": rng.randint(1, 30)}


def _wide_tail(rng: random.Random) -> dict:
    c = rng.randint(-50, 50)
    return {"kind": "tail", "c": c, "r": WIDE + rng.randint(0, 40)}


def _ends(p: dict) -> tuple[int, int]:
    """The excluded interval of a tail part."""
    return p["c"] - p["r"] + 1, p["c"] + p["r"] - 1


def _tail_from(a: int, width: int) -> dict:
    """A tail excluding [a, a + width - 1], width odd."""
    r = (width + 1) // 2
    return {"kind": "tail", "c": a + r - 1, "r": r}


def _atom(rng: random.Random, wide: bool = False) -> dict:
    """A random part; a wide co-interval only when asked, since one cut by
    a small class lists every class point inside it."""
    kinds = ("finite", "listed", "listed", "congruence", "ray", "ray", "lazy")
    kind = rng.choice(kinds + ("wide",) * wide)
    if kind == "finite":
        return {"kind": "finite", "pts": _points(rng, rng.randint(1, 12))}
    if kind == "listed":
        return _listed(rng)
    if kind == "congruence":
        return _congruence(rng)
    if kind == "ray":
        return _ray(rng)
    if kind == "wide":
        return _wide_tail(rng)
    return _lazy(rng)


def _lazy(rng: random.Random) -> dict:
    m = rng.randint(2, 9)
    res = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
    if rng.random() < 0.5:
        pts = _points(rng, rng.randint(2, 6))
        return {"kind": "class-cut", "m": m, "res": res, "pts": pts}
    up, t = rng.random() < 0.5, rng.randint(-30, 30)
    return {"kind": "class-ray", "m": m, "res": res, "up": up, "t": t}


def _co_intervals(rng: random.Random) -> list[dict]:
    first = _wide_tail(rng)
    a1, b1 = _ends(first)
    how = rng.choice(("overlap", "touch", "gap-listed", "gap-lazy"))
    a2 = {
        "overlap": b1 - rng.randint(0, 100),
        "touch": b1 + 1,
        "gap-listed": b1 + 1 + rng.randint(1, 60),
        "gap-lazy": b1 + 1 + EXPAND_CAP + rng.randint(1, 40),
    }[how]
    return [first, _tail_from(a2, 2 * (WIDE + rng.randint(0, 40)) - 1)]


def _list_co_interval(rng: random.Random) -> list[dict]:
    wide = _wide_tail(rng)
    a, b = _ends(wide)
    inside = rng.choice((0, 1, 2))  # none, some or all of the points inside
    near = [a - 1, a - 3, b + 1, b + 4, a, a + 2, b, b - 5]
    out, inn = near[:4], near[4:]
    pts = {0: out, 1: out[:2] + inn[:2], 2: inn}[inside]
    pts = rng.sample(pts, rng.randint(1, len(pts)))
    if rng.random() < 0.3:
        # a narrow tail is a list too
        edge = rng.choice((a, b))
        return [wide, {"kind": "tail", "c": edge, "r": rng.randint(1, 5)}]
    return [wide, {"kind": "cofinite", "pts": sorted(pts)}]


def _class_co(rng: random.Random) -> list[dict]:
    how = rng.choice(("list", "list", "listed-cut", "lazy-cut", "far-class"))
    if how == "list":
        return [_congruence(rng), _cofinite(rng, 8)]
    if how == "listed-cut":
        return [_congruence(rng, rng.randint(800, 3000)), _wide_tail(rng)]
    if how == "far-class":
        m = rng.randint(EXPAND_CAP, EXPAND_CAP + 2000)
        return [_congruence(rng, m), _wide_tail(rng)]
    # more than EXPAND_CAP class points in the interval
    m = rng.choice((2, 3))
    width = 2 * (m * EXPAND_CAP // 2 + rng.randint(20, 60)) + 1
    a = rng.randint(-50, 50) - width // 2
    cls = {"kind": "congruence", "m": m, "res": [rng.randrange(m)]}
    return [cls, _tail_from(a, width)]


def _ray_co(rng: random.Random) -> list[dict]:
    up = rng.random() < 0.5
    t = rng.randint(-40, 40)
    ray = {"kind": "up" if up else "down", "t": t}
    how = rng.choice(("list", "list-far", "behind", "across", "ahead", "ahead-far"))
    sign = 1 if up else -1
    if how == "list":
        other = _cofinite(rng, 8)
    elif how == "list-far":
        far = t + sign * (EXPAND_CAP + rng.randint(0, 20))
        other = {"kind": "cofinite", "pts": sorted([t + sign * rng.randint(0, 5), far])}
    else:
        width = 2 * (WIDE + rng.randint(0, 40)) - 1
        gap = {
            "behind": -width - rng.randint(1, 30),
            "across": -rng.randint(0, width - 1),
            "ahead": rng.randint(1, 60),
            "ahead-far": EXPAND_CAP + rng.randint(1, 40),
        }[how]
        # gap: distance from t to the interval's near end, in the ray's direction
        a = t + gap if up else t - gap - width + 1
        other = _tail_from(a, width)
    return [ray, other]


def _opposite_rays(rng: random.Random) -> list[dict]:
    t = rng.randint(-40, 40)
    span = rng.choice(
        (-rng.randint(1, 20), rng.randint(0, 60), EXPAND_CAP + rng.randint(0, 40))
    )
    return [{"kind": "up", "t": t}, {"kind": "down", "t": t + span}]


def _classes(rng: random.Random) -> list[dict]:
    if rng.random() < 0.5:
        return [_congruence(rng), _congruence(rng)]
    return [_congruence(rng, m, most=2) for m in rng.sample(PRIMES, 2)]


def _filler(rng: random.Random) -> dict:
    kind = rng.choice(("finite", "congruence", "lazy", "lazy", "ray"))
    if kind == "finite":
        return {"kind": "finite", "pts": _points(rng, rng.randint(1, 6))}
    if kind == "congruence":
        return _congruence(rng)
    if kind == "ray":
        return _ray(rng)
    return _lazy(rng)


def _wide_union(rng: random.Random) -> list[dict]:
    # classes of distinct primes past LCM_CAP stay apart in a union
    moduli = rng.sample(PRIMES, rng.randint(14, 20))
    parts = [{"kind": "congruence", "m": m, "res": [rng.randrange(-60, 61) % m]}
             for m in moduli]
    other = rng.choice((_ray, lambda r: _cofinite(r, 8), _congruence))(rng)
    return [{"kind": "union", "parts": parts}, other]


def _nested(rng: random.Random) -> list[dict]:
    how = rng.choice(("same", "rays", "union", "co-intervals"))
    if how == "same":
        a = _atom(rng, wide=True)
        return [a, a]
    if how == "rays":
        ray = _ray(rng)
        return [ray, {**ray, "t": rng.randint(-40, 40)}]
    if how == "union":
        a = _atom(rng, wide=True)
        return [a, {"kind": "union", "parts": [a, _atom(rng)]}]
    outer = _wide_tail(rng)
    a, b = _ends(outer)
    inner_a = a + rng.randint(0, 30)
    width = min(b - inner_a + 1, 2 * WIDE - 1)
    return [outer, _tail_from(inner_a, width - (1 - width % 2))]


def draw_term(rng: random.Random, path: str) -> list[dict]:
    """The parts of one intersection term, built to take the given path."""
    if path == "lists":
        return [_listed(rng), _listed(rng)]
    if path == "finite":
        pts = _points(rng, rng.randint(1, 12))
        return [{"kind": "finite", "pts": pts}, _atom(rng, wide=True)]
    if path == "union":
        parts = [_filler(rng) for _ in range(rng.randint(2, 5))]
        return [{"kind": "union", "parts": parts}, _atom(rng)]
    if path == "mixed":
        return [_atom(rng) for _ in range(rng.randint(3, 4))]
    return {
        "co-intervals": _co_intervals,
        "list-co-interval": _list_co_interval,
        "class-co": _class_co,
        "ray-co": _ray_co,
        "opposite-rays": _opposite_rays,
        "classes": _classes,
        "wide-union": _wide_union,
        "nested": _nested,
    }[path](rng)


def build_part(p: dict):
    kind = p["kind"]
    if kind == "finite":
        return finite(p["pts"])
    if kind == "cofinite":
        return cofinite(p["pts"])
    if kind == "congruence":
        return congruence(p["m"], p["res"])
    if kind == "tail":
        return tail(p["c"], p["r"])
    if kind == "up":
        return half_tail(p["t"])
    if kind == "down":
        return down_tail(p["t"])
    if kind == "union":
        return union(*map(build_part, p["parts"]))
    cls = congruence(p["m"], p["res"])
    if kind == "class-cut":
        return intersect(cls, cofinite(p["pts"]))
    return intersect(cls, half_tail(p["t"]) if p["up"] else down_tail(p["t"]))


def _constants(p: dict):
    for key in ("m", "t", "c"):
        if key in p:
            yield p[key]
    if p["kind"] == "tail":
        yield from _ends(p)
    yield from p.get("pts", ())
    yield from p.get("res", ())
    for q in p.get("parts", ()):
        yield from _constants(q)


def window_of(parts: list[dict]) -> Window:
    """A window reaching MARGIN past every constant of the term."""
    consts = [v for p in parts for v in _constants(p)]
    return Window(min(consts) - MARGIN, max(consts) + MARGIN)


def draw_cases(seed: int = 27, count: int = 300) -> list[dict]:
    rng = random.Random(seed)
    paths = [PATHS[i % len(PATHS)] for i in range(count)]
    return [{"path": path, "parts": draw_term(rng, path)} for path in paths]


# a missing fixture leaves no pinned cases, which the coverage test reports
CASES = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else []


def test_fixture_covers_every_path():
    assert {c["path"] for c in CASES} == set(PATHS)
    normals = {c["path"]: [] for c in CASES}
    for c in CASES:
        normals[c["path"]].append(intersect(*map(build_part, c["parts"])))
    # past LCM_CAP two classes stay a lazy pair
    lazy = [n for n in normals["classes"] if isinstance(n, Intersection)]
    assert any(n.parts[0].modulus * n.parts[1].modulus > LCM_CAP for n in lazy)
    # an intersection with a union of more than 16 parts stays lazy
    assert any(
        isinstance(n, Intersection)
        and any(isinstance(p, Union) and len(p.parts) > 16 for p in n.parts)
        for n in normals["wide-union"]
    )


@pytest.mark.parametrize("i", range(len(CASES)))
def test_intersect_reproduces_pinned_term(i):
    case = CASES[i]
    parts = [build_part(p) for p in case["parts"]]
    n = intersect(*parts)
    assert repr(n) == case["normal"]
    window = window_of(case["parts"])
    assert members(n, window) == members(Intersection(tuple(parts)), window)


def test_pinned_terms_do_not_depend_on_the_order_of_their_parts():
    rng = random.Random(6)
    for case in CASES:
        parts = [build_part(p) for p in case["parts"]]
        orders = [parts[::-1]] + [rng.sample(parts, len(parts)) for _ in range(6)]
        for order in orders:
            assert repr(intersect(*order)) == case["normal"], case["parts"]


if __name__ == "__main__":
    rows = []
    for c in draw_cases():
        n = intersect(*map(build_part, c["parts"]))
        rows.append({**c, "normal": repr(n)})
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )

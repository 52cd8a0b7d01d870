"""Union normal forms against a pinned fixture and brute force.

The fixture `golden/norm-union.json` holds seeded union terms and the repr
of their normal form.  Each term's parts are drawn from finite and
cofinite sets, congruences, two-sided tails, rays and lazy intersections
(a congruence class cut by a ray or by finitely many points), with every
gap well inside EXPAND_CAP.  The draw cycles through the ways a union can
be built around its gap: a listed gap, one ray, opposite rays that meet
and that leave a gap, no gap at all, congruences whose lcm passes LCM_CAP,
and lazy parts.  Rewrite the fixture with

    PYTHONPATH=src python tests/test_norm_union.py

only from a normalizer whose answers are trusted.
"""

import json
import math
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
from intersets.symbolic import EXPAND_CAP, LCM_CAP, Union

from oracles import members

FIXTURE = Path(__file__).parent / "golden" / "norm-union.json"
PATHS = ("listed", "ray", "rays-meet", "rays-apart", "no-gap", "lcm", "lazy")
WINDOW = Window(-150, 150)
# two moduli whose lcm passes LCM_CAP
WIDE_MODULI = (1009, 1013)


def _points(rng: random.Random, k: int) -> list[int]:
    return sorted(rng.sample(range(-40, 41), k))


def _congruence(rng: random.Random) -> dict:
    m = rng.randint(1, 12)
    res = sorted(rng.sample(range(m), rng.randint(1, m)))
    return {"kind": "congruence", "m": m, "res": res}


def _lazy(rng: random.Random) -> dict:
    m = rng.randint(2, 9)
    res = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
    if rng.random() < 0.5:
        pts = _points(rng, rng.randint(2, 6))
        return {"kind": "class-cut", "m": m, "res": res, "pts": pts}
    up, t = rng.random() < 0.5, rng.randint(-30, 30)
    return {"kind": "class-ray", "m": m, "res": res, "up": up, "t": t}


def _filler(rng: random.Random) -> dict:
    kind = rng.choice(("finite", "finite", "congruence", "lazy"))
    if kind == "finite":
        return {"kind": "finite", "pts": _points(rng, rng.randint(1, 12))}
    return _congruence(rng) if kind == "congruence" else _lazy(rng)


def draw_term(rng: random.Random, path: str) -> list[dict]:
    """The parts of one union term, built to take the given path."""
    if path == "listed":
        if rng.random() < 0.5:
            c, r = rng.randint(-20, 20), rng.randint(1, 30)
            parts = [{"kind": "tail", "c": c, "r": r}]
        else:
            parts = [{"kind": "cofinite", "pts": _points(rng, rng.randint(0, 15))}]
        if rng.random() < 0.5:
            ray = rng.choice(("up", "down"))
            parts.append({"kind": ray, "t": rng.randint(-40, 40)})
    elif path == "ray":
        parts = [{"kind": rng.choice(("up", "down")), "t": rng.randint(-40, 40)}]
    elif path in ("rays-meet", "rays-apart"):
        t = rng.randint(-40, 40)
        b = t + (rng.randint(-1, 5) if path == "rays-meet" else -rng.randint(2, 60))
        parts = [{"kind": "up", "t": t}, {"kind": "down", "t": b}]
    elif path == "lcm":
        # residues near 0, so that the classes meet the window
        near = [rng.sample(range(-60, 61), rng.randint(1, 3)) for _ in WIDE_MODULI]
        parts = [
            {"kind": "congruence", "m": m, "res": sorted({r % m for r in rs})}
            for m, rs in zip(WIDE_MODULI, near)
        ]
    elif path == "lazy":
        parts = [_lazy(rng) for _ in range(rng.randint(1, 2))]
    else:
        parts = []
    parts += [_filler(rng) for _ in range(rng.randint(0 if parts else 1, 3))]
    rng.shuffle(parts)
    return parts


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
    cls = congruence(p["m"], p["res"])
    if kind == "class-cut":
        return intersect(cls, cofinite(p["pts"]))
    return intersect(cls, half_tail(p["t"]) if p["up"] else down_tail(p["t"]))


def draw_cases(seed: int = 12, count: int = 280) -> list[dict]:
    rng = random.Random(seed)
    paths = [PATHS[i % len(PATHS)] for i in range(count)]
    return [{"path": path, "parts": draw_term(rng, path)} for path in paths]


# a missing fixture leaves no pinned cases, which the coverage test reports
CASES = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else []


def test_fixture_covers_every_path_within_the_cap():
    assert {c["path"] for c in CASES} == set(PATHS)
    for c in CASES:
        for p in c["parts"]:
            if p["kind"] == "tail":
                assert 2 * p["r"] - 1 <= EXPAND_CAP
    assert math.lcm(*WIDE_MODULI) > LCM_CAP
    lcm = [union(*map(build_part, c["parts"])) for c in CASES if c["path"] == "lcm"]
    assert any(isinstance(n, Union) and len(n.parts) >= 2 for n in lcm)


@pytest.mark.parametrize("i", range(len(CASES)))
def test_union_reproduces_pinned_term(i):
    case = CASES[i]
    parts = [build_part(p) for p in case["parts"]]
    n = union(*parts)
    assert repr(n) == case["normal"]
    assert repr(union(*reversed(parts))) == case["normal"]
    assert members(n, WINDOW) == members(Union(tuple(parts)), WINDOW)


if __name__ == "__main__":
    rows = []
    for c in draw_cases():
        n = union(*map(build_part, c["parts"]))
        rows.append({**c, "normal": repr(n)})
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )

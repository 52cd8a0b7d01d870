"""sum2 on a finite set plus an optional ray, against a pinned fixture and
brute force.

The fixture `golden/sum2-rays.json` holds seeded operand pairs and the repr
of sum2's answer for each, None included.  Operands are drawn from Finite,
HalfTail and Finite | HalfTail and their down-ray mirrors, with finite parts
of 0 to 30 elements, so the fold cap of 24 is straddled and some pairs have
two finite parts above it.  Rewrite the fixture with

    PYTHONPATH=src python tests/test_sum2_rays.py

only from a sum2 whose answers are trusted.
"""

import json
import random
from pathlib import Path

import pytest

from intersets import Window, down_tail, finite, half_tail, union
from intersets.sumsets import _FINITE_FOLD_CAP, sum2
from intersets.symbolic import Finite, Union

from oracles import members, windowed_sum

FIXTURE = Path(__file__).parent / "golden" / "sum2-rays.json"
KINDS = ("finite", "up", "finite+up", "down", "finite+down")
# operand values lie in [-24, 24]; brute force over members within RADIUS
# finds every window sum, whichever way the rays point
WINDOW = Window(-60, 60)
RADIUS = 110


def draw_operand(rng: random.Random, big: bool) -> dict:
    kind = rng.choice(("finite", "finite+up", "finite+down") if big else KINDS)
    if kind in ("up", "down"):
        k = 0
    else:
        k = rng.randint(_FINITE_FOLD_CAP + 1 if big else 1, 30)
    elements = sorted(rng.sample(range(-24, 25), k))
    if kind == "finite":
        return {"elements": elements, "ray": None, "bound": None}
    up = kind.endswith("up")
    if not elements:
        bound = rng.randint(-24, 24)
    elif up:  # mostly past the elements, sometimes absorbing some
        bound = max(elements) + rng.randint(-2, 6)
    else:
        bound = min(elements) - rng.randint(-2, 6)
    return {"elements": elements, "ray": "up" if up else "down", "bound": bound}


def build(op: dict):
    parts = [finite(op["elements"])]
    if op["ray"] == "up":
        parts.append(half_tail(op["bound"]))
    elif op["ray"] == "down":
        parts.append(down_tail(op["bound"]))
    return union(*parts)


def draw_pairs(seed: int = 11, count: int = 200) -> list[tuple[dict, dict]]:
    rng = random.Random(seed)
    # every fifth pair draws both finite parts above the cap
    return [
        (draw_operand(rng, i % 5 == 0), draw_operand(rng, i % 5 == 0))
        for i in range(count)
    ]


def finite_part(s) -> int:
    if isinstance(s, Finite):
        return len(s.elements)
    if isinstance(s, Union) and isinstance(s.parts[0], Finite):
        return len(s.parts[0].elements)
    return 0


# a missing fixture leaves no pinned cases, which the cap test reports
CASES = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else []


def test_fixture_covers_the_cap():
    built = [(build(c["x"]), build(c["y"])) for c in CASES]
    sizes = [min(finite_part(x), finite_part(y)) for x, y in built]
    assert any(s > _FINITE_FOLD_CAP for s in sizes)
    assert any(0 < s <= _FINITE_FOLD_CAP for s in sizes)
    assert sum(c["sum"] == "None" for c in CASES) >= 10


@pytest.mark.parametrize("i", range(len(CASES)))
def test_sum2_reproduces_pinned_terms(i):
    case = CASES[i]
    x, y = build(case["x"]), build(case["y"])
    assert repr(sum2(x, y)) == case["sum"]
    assert repr(sum2(y, x)) == case["sum"]


def test_closed_sums_match_brute_force():
    for case in CASES:
        x, y = build(case["x"]), build(case["y"])
        s = sum2(x, y)
        if s is None:
            continue
        assert set(members(s, WINDOW)) == windowed_sum(x, y, WINDOW, RADIUS), case


if __name__ == "__main__":
    rows = []
    for x, y in draw_pairs():
        rows.append({"x": x, "y": y, "sum": repr(sum2(build(x), build(y)))})
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )

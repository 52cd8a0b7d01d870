"""sum2 on finite sets and congruence classes, against a pinned fixture and
brute force.

The fixture `golden/sum2-periodic.json` holds seeded operand pairs and the
repr of sum2's answer for each, None included.  Operands are drawn from
Finite, Congruence and Finite | Congruence, with finite parts of 0 to 30
elements, so the fold cap of 24 is straddled and some pairs have two finite
parts above it.  Moduli run 2 to 14; some pairs take the primes 999983 and
1000003, whose lcm passes LCM_CAP, and a few take a cofinite or tail
partner.  The fixture's large moduli are coprime, so its pairs are
symmetric either way; seeded pairs over moduli that share a factor past
LCM_CAP check that sum2 answers both operand orders alike.  Rewrite the
fixture with

    PYTHONPATH=src python tests/test_sum2_periodic.py

only from a sum2 whose answers are trusted.
"""

import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from intersets import ALL, Window, cofinite, congruence, finite, tail, union
from intersets import sumsets
from intersets.sumsets import _FINITE_FOLD_CAP, sum2
from intersets.symbolic import Finite, Union, normalize

from oracles import members, windowed_sum

FIXTURE = Path(__file__).parent / "golden" / "sum2-periodic.json"
KINDS = ("finite", "class", "finite+class")
BIG_MODULI = (999983, 1000003)
# finite elements lie in [-48, 48], excluded points in [-24, 24]
WINDOW = Window(-40, 40)
# brute force over members within WINDOW.hi + SLACK + L finds every window
# sum when L, the lcm of the two operands' moduli, is at most BRUTE_LCM: a
# sum of two class members shifts by L to one with |first summand| <= L
SLACK = 60
BRUTE_LCM = 200


def draw_operand(
    rng: random.Random, big_finite: bool, big_modulus: bool, partner: int = 1
) -> dict:
    kind = rng.choice(KINDS[::2] if big_finite else KINDS)
    if kind == "class":
        k = 0
    elif big_finite:
        k = rng.randint(_FINITE_FOLD_CAP + 1, 30)
    elif kind == "finite+class" and rng.random() < 0.5:
        # a few points leave some of the partner's classes uncovered
        k = rng.randint(0, 6)
    else:
        k = rng.randint(0 if kind == "finite+class" else 1, 30)
    # a finite part on a lattice of step 2 or 3 leaves classes of a
    # modulus the step divides uncovered
    step = rng.choice((1, 2, 3))
    elements = sorted(rng.sample(range(rng.randrange(step) - 48, 49, step), k))
    if kind == "finite":
        return {"elements": elements, "modulus": None, "residues": None}
    if big_modulus:
        m = rng.choice(BIG_MODULI)
    elif partner > 1 and rng.random() < 0.6:
        # a modulus sharing a factor with the partner's, so that the sum of
        # the two classes need not be Z
        m = rng.choice([d for d in range(2, 15) if math.gcd(d, partner) > 1])
    else:
        m = rng.randint(2, 14)
    residues = sorted({rng.randrange(-24, 25) % m for _ in range(rng.randint(1, 3))})
    return {"elements": elements, "modulus": m, "residues": residues}


def draw_partner(rng: random.Random) -> dict:
    excluded = sorted(rng.sample(range(-24, 25), rng.randint(0, 6)))
    if rng.random() < 0.5:
        return {"cofinite": excluded}
    return {"tail": [rng.randint(-24, 24), rng.randint(1, 12)]}


def build(op: dict):
    if "cofinite" in op:
        return cofinite(op["cofinite"])
    if "tail" in op:
        return tail(*op["tail"])
    parts = [finite(op["elements"])]
    if op["modulus"] is not None:
        parts.append(congruence(op["modulus"], op["residues"]))
    return union(*parts)


def draw_pairs(seed: int = 5, count: int = 300) -> list[tuple[dict, dict]]:
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        # every fifth pair draws both finite parts above the cap, every
        # seventh the large prime moduli, every eleventh a cofinite partner
        big_finite, big_modulus = i % 5 == 0, i % 7 == 0
        x = draw_operand(rng, big_finite, big_modulus)
        if i % 11 == 0:
            y = draw_partner(rng)
        else:
            y = draw_operand(rng, big_finite, big_modulus, x["modulus"] or 1)
        pairs.append((x, y))
    return pairs


def finite_size(op: dict) -> int:
    return len(op.get("elements") or ())


def moduli_lcm(x: dict, y: dict) -> int:
    return math.lcm(*(op.get("modulus") or 1 for op in (x, y)))


# a missing fixture leaves no pinned cases, which the coverage test reports
CASES = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else []


def test_fixture_covers_the_cap_and_the_lcm_cap():
    sizes = [min(finite_size(c["x"]), finite_size(c["y"])) for c in CASES]
    assert any(s > _FINITE_FOLD_CAP for s in sizes)
    assert any(0 < s <= _FINITE_FOLD_CAP for s in sizes)
    assert sum(c["sum"] == "None" for c in CASES) >= 10
    assert any(moduli_lcm(c["x"], c["y"]) > BRUTE_LCM for c in CASES)
    assert any("cofinite" in c["y"] for c in CASES)
    assert any("tail" in c["y"] for c in CASES)


@pytest.mark.parametrize("i", range(len(CASES)))
def test_sum2_reproduces_pinned_terms(i):
    case = CASES[i]
    x, y = build(case["x"]), build(case["y"])
    assert repr(sum2(x, y)) == case["sum"]
    assert repr(sum2(y, x)) == case["sum"]


def test_closed_sums_match_brute_force_and_are_normal():
    for case in CASES:
        x, y = build(case["x"]), build(case["y"])
        s = sum2(x, y)
        if s is None:
            continue
        # a fresh copy carries no normal-form mark, so normalize rebuilds it
        assert normalize(replace(s)) == s, case
        lcm = moduli_lcm(case["x"], case["y"])
        if lcm > BRUTE_LCM:
            # brute force within reach finds a subset of the window sums
            radius = WINDOW.hi + SLACK
            assert windowed_sum(x, y, WINDOW, radius) <= set(members(s, WINDOW))
        else:
            radius = WINDOW.hi + SLACK + lcm
            got = set(members(s, WINDOW))
            assert got == windowed_sum(x, y, WINDOW, radius), case


# moduli sharing the factor 2 whose pairwise lcms pass LCM_CAP, so the
# class parts of a sum stay apart while the gcd class 2Z can absorb others
SHARED_MODULI = (999958, 1000002, 1000018)


def draw_shared(rng: random.Random):
    elements = rng.sample(range(-48, 49), rng.randint(0, 4))
    residues = [rng.randrange(-24, 25) for _ in range(rng.randint(1, 3))]
    return union(finite(elements), congruence(rng.choice(SHARED_MODULI), residues))


def test_sum2_is_symmetric_past_the_lcm_cap():
    rng = random.Random(34)
    for _ in range(200):
        x, y = draw_shared(rng), draw_shared(rng)
        assert sum2(x, y) == sum2(y, x), (x, y)


def test_sum2_closes_classes_past_the_lcm_cap_in_one_step():
    x = union(finite([0]), congruence(999958, [1]))
    y = union(finite([0]), congruence(1000002, [1]))
    want = union(congruence(2, [0]), congruence(999958, [1]), congruence(1000002, [1]))
    assert sum2(x, y) == sum2(y, x) == want
    assert want == Union(
        (congruence(2, [0]), congruence(999958, [1]), congruence(1000002, [1]))
    )


@pytest.fixture
def no_distribution(monkeypatch):
    def spy(u, b):
        raise AssertionError("sum2 distributed a union")

    monkeypatch.setattr(sumsets, "_distribute", spy)


def test_a_cofinite_class_absorbs_a_finite_plus_class_without_distributing(
    no_distribution,
):
    fc = union(congruence(5, [1]), finite([0, 2]))
    assert sum2(cofinite([0]), fc) == ALL
    assert sum2(fc, cofinite([0])) == ALL


def test_a_finite_part_past_the_cap_refuses_without_distributing(no_distribution):
    x = union(finite([0, 2, 5]), congruence(7, [3]))
    y = union(finite(range(0, 100, 4)), congruence(8, [1, 2]))
    assert isinstance(y, Union) and isinstance(y.parts[0], Finite)
    assert len(y.parts[0].elements) == 25
    assert sum2(x, y) is None
    assert sum2(y, x) is None


if __name__ == "__main__":
    rows = []
    for x, y in draw_pairs():
        rows.append({"x": x, "y": y, "sum": repr(sum2(build(x), build(y)))})
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )

"""windowed_hfold_sum against pinned digests of its results.

The fixture `golden/windowed-digests.json` holds, for each of 24 seeded
requests, the request's description, the sha256 of its members and its
`complete` flag.  Requests mix dense sets (a congruence or a half-tail
with a finite part, a cofinite set cut to a congruence) and sparse finite
sets of 20 to 300 elements, at h = 2, 3 and 4 on windows of 2,000 to 6,000
points, so both convolution kernels and both fold orders run.  Rewrite the
fixture with

    PYTHONPATH=src python tests/test_windowed_digests.py

only from an engine whose results are trusted.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from intersets import Window, cofinite, congruence, finite, half_tail, intersect, union
from intersets.sumsets import default_radius, windowed_hfold_sum

FIXTURE = Path(__file__).parent / "golden" / "windowed-digests.json"
KINDS = ("cong+finite", "half+finite", "cofinite&cong", "sparse")


def draw_requests(seed: int = 15, count: int = 24) -> list[dict]:
    rng = random.Random(seed)
    reqs = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        h = 2 + i % 3
        width = rng.randint(2_000, 6_000)
        lo = rng.randint(-width, width // 4)
        req = {"kind": kind, "h": h, "window": [lo, lo + width - 1]}
        if kind == "sparse":
            # spread past the window, so that folds are not saturated
            req["elements"] = sorted(
                rng.sample(range(-3 * width, 3 * width + 1), rng.randint(20, 300))
            )
        else:
            m = rng.choice((7, 31, 60, 128))
            req["modulus"] = m
            req["residues"] = sorted(rng.sample(range(m), rng.randint(1, 3)))
            req["elements"] = sorted(rng.sample(range(-500, 501), rng.randint(10, 60)))
            req["threshold"] = rng.randint(-200, 200)
        reqs.append(req)
    return reqs


def build(req: dict):
    xs = req["elements"]
    if req["kind"] == "sparse":
        return finite(xs)
    cong = congruence(req["modulus"], req["residues"])
    if req["kind"] == "cong+finite":
        return union(cong, finite(xs))
    if req["kind"] == "half+finite":
        return union(half_tail(req["threshold"]), finite(xs))
    return intersect(cofinite(xs), cong)


def run(req: dict) -> dict:
    win = Window(*req["window"])
    res = windowed_hfold_sum(build(req), req["h"], win, default_radius(win, req["h"]))
    text = ",".join(map(str, res.members)).encode()
    return {"sha256": hashlib.sha256(text).hexdigest(), "complete": res.complete}


def describe(req: dict) -> dict:
    return {"kind": req["kind"], "h": req["h"], "window": req["window"]}


REQUESTS = draw_requests()
# a missing fixture leaves no pinned cases, which the coverage test reports
PINNED = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else []


def test_fixture_pins_every_request():
    assert [p["request"] for p in PINNED] == [describe(r) for r in REQUESTS]


@pytest.mark.parametrize("i", range(len(REQUESTS)))
def test_windowed_reproduces_pinned_digest(i):
    assert run(REQUESTS[i]) == PINNED[i]["result"]


if __name__ == "__main__":
    rows = [{"request": describe(r), "result": run(r)} for r in REQUESTS]
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )

"""Reports of the empirical (uncertified) path against pinned JSON.

Scaled families carry no certificate, so `compute_H` decides them by the
two-scale truncation comparison.  The fixture `golden/empirical-reports.json`
holds `report_to_json(compute_H(f, 4, cfg))` for a scaled family over each
of the five simple kinds at factors 2, 3 and -2, and for a non-nested
explicit chain and its 2x scaling, each with the default per-layer radii
and with one fixed generation radius.  Rewrite the fixture with

    PYTHONPATH=src python tests/test_empirical_reports.py

only from an analyzer whose verdicts are trusted.
"""

import json
from pathlib import Path

import pytest

from intersets import (
    CongruenceChainFamily,
    CosetTailFamily,
    EnumerationFamily,
    ExplicitFamily,
    HalfTailFamily,
    HConfig,
    ScaledFamily,
    TailFamily,
    compute_H,
    congruence,
    finite,
)
from intersets.serialize import report_to_json

FIXTURE = Path(__file__).parent / "golden" / "empirical-reports.json"

SIMPLE = {
    "tail": TailFamily(finite([0, 2, 7])),
    "half-tail": HalfTailFamily(finite([-3, 0, 4])),
    "congruence-chain": CongruenceChainFamily((0, 1, 4), m1=10),
    "coset-tail": CosetTailFamily(3, 1),
    "enumeration": EnumerationFamily(congruence(3, (0,))),
}
NON_NESTED = ExplicitFamily([finite(range(0, 60, 2)), finite(range(0, 60, 3))])

CASES = {
    **{
        f"scaled({name},{k})": ScaledFamily(fam, k)
        for name, fam in SIMPLE.items()
        for k in (2, 3, -2)
    },
    "explicit": NON_NESTED,
    "scaled(explicit,2)": ScaledFamily(NON_NESTED, 2),
}
# each case with the default per-layer radii and with one fixed radius
KEYS = [(name, r) for name in CASES for r in (None, 40)]


def report(name: str, gen_radius) -> dict:
    cfg = HConfig(gen_radius=gen_radius)
    return report_to_json(compute_H(CASES[name], 4, cfg))


PINNED = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else []


def test_fixture_pins_every_case():
    assert [(p["family"], p["gen_radius"]) for p in PINNED] == KEYS


@pytest.mark.parametrize("i", range(len(KEYS)))
def test_report_matches_pinned_json(i):
    row = PINNED[i]
    got = json.dumps(report(row["family"], row["gen_radius"]))
    assert got == json.dumps(row["report"])


if __name__ == "__main__":
    rows = [{"family": n, "gen_radius": r, "report": report(n, r)} for n, r in KEYS]
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )

"""Every registered verification scenario passes at its default settings."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from intersets import InputError, Window
from intersets import scenarios
from intersets.scenarios import (
    ScenarioOptions,
    format_result,
    result_to_json,
    result_to_tsv,
    run_scenario,
    scenario_ids,
)

from oracles import norm_excess

EXPECTED_IDS = {
    "integers-tail",
    "rational",
    "open-intervals",
    "finiteness",
    "finiteness-H",
    "subgroup",
    "surjection",
    "cofinite-basis",
    "sharp",
    "congruence-chain",
    "vector-min",
    "lattice",
    "countable",
    "product-closure",
    "affine",
    "simple-lemma",
}


def test_registry_is_complete():
    assert set(scenario_ids()) == EXPECTED_IDS
    with pytest.raises(InputError):
        run_scenario("galaxies")


@pytest.mark.parametrize("field", ["hmax", "Q", "gen_radius", "samples"])
def test_options_below_one_are_refused(field):
    # None keeps the scenario default; 0 must not quietly stand for it
    assert getattr(ScenarioOptions(**{field: None}), field) is None
    assert getattr(ScenarioOptions(**{field: 1}), field) == 1
    for value in (0, -2):
        with pytest.raises(InputError):
            ScenarioOptions(**{field: value})


@pytest.mark.parametrize("sid", sorted(EXPECTED_IDS))
def test_scenario_passes_at_defaults(sid):
    res = run_scenario(sid, ScenarioOptions())
    assert res.ok, [a.name for a in res.assertions if not a.passed]
    assert res.scenario == sid
    passed, total = res.counts
    assert passed == total > 0


# result_to_json of every scenario at seeds 0 and 7: a change to any
# verdict or evidence string fails here instead of passing unnoticed
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SEEDS = (0, 7)


@pytest.mark.parametrize(
    "seed, sid",
    [
        # seed 0 keeps the bare scenario id it had before seed 7 was pinned
        pytest.param(seed, sid, id=sid if seed == 0 else f"{sid}-seed{seed}")
        for seed in GOLDEN_SEEDS
        for sid in sorted(EXPECTED_IDS)
    ],
)
def test_scenario_json_matches_golden(seed, sid):
    path = GOLDEN / f"verify-seed{seed}.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert result_to_json(run_scenario(sid, ScenarioOptions(seed=seed))) == golden[sid]


def test_surjection_ignores_the_window():
    # pullback_check decides every fold and H on closed forms
    default = run_scenario("surjection", ScenarioOptions())
    assert run_scenario("surjection", ScenarioOptions(window=Window(-3, 3))) == default


def test_result_formats():
    res = run_scenario("countable", ScenarioOptions())
    text = format_result(res)
    assert text.startswith("scenario countable:")
    assert "[PASS]" in text and text.strip().endswith("checks)")

    tsv = result_to_tsv(res).splitlines()
    assert tsv[0].split("\t") == ["check", "status", "detail"]
    assert all(ln.split("\t")[1] == "pass" for ln in tsv[1:])

    doc = result_to_json(res)
    json.dumps(doc)  # must be serializable as-is
    assert doc["ok"] is True
    assert doc["scenario"] == "countable"
    assert len(doc["assertions"]) == res.counts[1]


def test_seed_changes_random_draws():
    a = run_scenario("finiteness", ScenarioOptions(seed=1))
    b = run_scenario("finiteness", ScenarioOptions(seed=2))
    assert a.ok and b.ok
    # the sampled cores surface in the details, so distinct seeds differ
    assert [x.detail for x in a.assertions] != [x.detail for x in b.assertions]
    again = run_scenario("finiteness", ScenarioOptions(seed=1))
    assert [x.detail for x in again.assertions] == [x.detail for x in a.assertions]


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("k", range(1, 9))
def test_norm_excess_matches_the_cross_term_oracle(k, d):
    assert scenarios._norm_excess(k, d) == norm_excess(k, d)


@pytest.mark.parametrize("seed", [0, 7])
def test_norm_excess_evaluates_to_the_norm_gap(seed):
    rng = random.Random(seed)
    for _ in range(200):
        k, d = rng.randint(1, 8), rng.randint(1, 5)
        vs = [[rng.randint(0, 9) for _ in range(d)] for _ in range(k)]
        total = [sum(col) for col in zip(*vs)]
        gap = sum(x * x for x in total) - sum(x * x for v in vs for x in v)
        value = sum(
            coef * vs[i][c] * vs[j][e]
            for ((i, c), (j, e)), coef in scenarios._norm_excess(k, d).items()
        )
        assert value == gap


def test_cofinite_basis_names_the_first_uncovered_point(monkeypatch):
    honest = scenarios.windowed_hfold_sum

    def holed(s, h, window, gen_radius):
        # an enumeration that misses the window points -17 and -13
        r = honest(s, h, window, gen_radius)
        return dataclasses.replace(r, bits=r.bits & ~(1 << 3 | 1 << 7))

    monkeypatch.setattr(scenarios, "windowed_hfold_sum", holed)
    res = run_scenario("cofinite-basis", ScenarioOptions(samples=5))
    assert [a.passed for a in res.assertions] == [True, False, True]
    assert res.assertions[1].detail == (
        "([9, 13, -2, -14], -17), ([15, 1, 0], -17), ([14, 10, 11, -6], -17), "
        "([-4, 3, 13, 14], -17) (+1 more)"
    )

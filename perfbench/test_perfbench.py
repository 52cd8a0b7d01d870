"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from oracle import PairSums, Spec, SumSearch  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tiny(name: str):
    """The workload for seed 0, cut down to a few cheap operations."""
    wl = WORKLOADS[name](0)
    if name == "verify-suite":
        wl.ops = ["integers-tail", "subgroup", "countable", "congruence-chain"]
    elif name == "hset-stream":
        keep = [i for i, m in enumerate(wl.models) if m.doc["family"] != "scaled"][:40]
        keep += [i for i, m in enumerate(wl.models) if m.doc["family"] == "scaled"][:2]
        wl.models = [wl.models[i] for i in keep]
        wl.texts = [wl.texts[i] for i in keep]
    else:
        small = [r for r in wl.reqs if r[2].size <= 12_000]
        wl.reqs = [next(r for r in small if r[5]), next(r for r in small if not r[5])]
    return wl


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    record = worker.run_pass(_tiny(name))
    record.update(rss_mb=50.0, setup_s=0.3)
    metrics, detail = run.end_to_end(name, [record], [0.3])
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert detail["extras"]["fail_frac"] == (0.0, "ratio"), record["errors"]
    assert record["failed"] == 0 and record["attempted"] == len(record["lat"])


def test_end_to_end_takes_each_operations_median_over_passes_at_reference_speed():
    names = ["a", "b", "c", "d"]
    lats = [[0.004, 0.001, 0.010, 0.002], [0.003, 0.002, 0.020, 0.001],
            [0.005, 0.003, 0.030, 0.001]]
    ref = run.YARDSTICK_REF_S
    # the second pass ran at half speed: its yardstick took twice as long
    yards = [[ref] * 4, [2 * ref] * 4, [ref] * 4]
    lats[1] = [2 * x for x in lats[1]]
    passes = [{"names": names, "lat": lat, "yard": yard, "wall_s": sum(lat), "rss_mb": 40.0,
               "attempted": 4, "failed": 0, "extras": {}} for lat, yard in zip(lats, yards)]
    assert run.op_latencies(passes) == pytest.approx([0.004, 0.002, 0.020, 0.001])
    metrics, _ = run.end_to_end("verify-suite", passes, [0.2, 0.4, 0.3])
    assert metrics["wall_s"] == pytest.approx(0.027)
    assert metrics["ops_per_s"] == pytest.approx(4 / 0.027)
    assert metrics["op_p50_ms"] == pytest.approx(3.0)
    assert metrics["op_tail_ms"] == pytest.approx(4.0)
    assert metrics["setup_s"] == 0.3
    passes[1]["names"] = ["a", "b", "d", "c"]
    with pytest.raises(run.BenchError):
        run.op_latencies(passes)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 99) == 990
    assert run.percentile([7, 1, 4, 3], 75) == 4
    assert run.percentile([5.0], 50) == 5.0


def test_yardstick_samples_bracket_every_operation():
    record = worker.run_pass(_tiny("verify-suite"))
    assert len(record["yard"]) == record["attempted"]
    assert all(0 < y < 1 for y in record["yard"])


def test_benchmark_json_matches_the_emitted_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    setup = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup == max(m["bound"] for m in doc["end_to_end"])


def test_self_time_subtracts_covered_children():
    # 0: [0, 10] with children 1: [1, 3] and 3: [5, 6]; 2: [1.5, 2.5] inside 1
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 1.5, 5.0]
    end = [10.0, 3.0, 2.5, 6.0]
    assert tracing.self_times(parent, start, end) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    parent = [-1, 0, 0]
    start = [0.0, 1.0, 2.0]
    end = [4.0, 3.0, 5.0]
    assert tracing.self_times(parent, start, end) == pytest.approx([1.0, 2.0, 3.0])


def test_tracer_records_nested_spans_per_operation():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    wrapped_leaf = tr.wrap(leaf, "m.leaf")

    def outer(x):
        return wrapped_leaf(wrapped_leaf(x))

    wrapped_outer = tr.wrap(outer, "m.outer")
    tr.enabled = True
    tr.current_op = 7
    assert wrapped_outer(1) == 3
    spans = tr.spans()
    assert [(s[1], s[2], s[3]) for s in spans] == [(7, -1, "m.outer"), (7, 0, "m.leaf"), (7, 0, "m.leaf")]
    m = tr.layer_metrics()
    assert m["m.leaf.calls"] == 2 and m["m.outer.calls"] == 1
    # outer spans ticks 0..5, each leaf one tick
    assert m["m.outer.self_s"] == pytest.approx(3.0)
    assert m["m.leaf.self_s"] == pytest.approx(2.0)
    tr.enabled = False
    assert wrapped_outer(1) == 3 and len(tr.spans()) == 3


class _Flaky:
    ops = [0, 1, 2, 3]

    def op_name(self, i):
        return f"op{i}"

    def run_op(self, i):
        if i == 1:
            raise ValueError("boom")
        return i

    def check(self, i, out):
        return out != 2

    def extras(self, outs):
        return {}


def test_raising_operation_counts_as_failed_not_fatal():
    record = worker.run_pass(_Flaky())
    assert record["attempted"] == 4
    assert record["failed"] == 2
    assert len(record["lat"]) == 4
    assert any("boom" in e for e in record["errors"])


def test_traced_pass_catches_calls_through_every_namespace():
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench'];"
        "import intersets, tracing;"
        "tr = tracing.Tracer(); tracing.instrument(tr); tr.enabled = True;"
        "fam = intersets.family_from_json({'family': 'scaled', 'factor': '2',"
        " 'inner': {'family': 'tail', 'core': {'kind': 'finite', 'elements': ['0', '1']}}});"
        "intersets.compute_H(fam, 2);"
        "import json; print(json.dumps(tracing.finish(tr, tracing.normalize_cache_info())))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120, check=True)
    m = json.loads(out.stdout)
    # analyzer and families reach these through their own imported names
    assert m["analyzer.truncated_layer_fold.calls"] > 0
    assert m["sumsets.symbolic_hfold_sum.calls"] > m["analyzer.truncated_layer_fold.calls"]
    assert m["sumsets.windowed_hfold_sum.calls"] > 0
    assert m["families.set_at.calls"] > 0
    assert m["analyzer.truncated_layer_fold.layers"] > 0
    assert 0 <= m["symbolic.normalize.cache_hit_frac"] <= 1


def test_oracle_searches_agree_on_a_small_set():
    elems = Spec([("fin", (0, 3, 7)), ("cong", 10, (5,))]).elements(-30, 30)
    assert elems == sorted({0, 3, 7} | {x for x in range(-30, 31) if x % 10 == 5})
    short = [0, 3, 7, 20]
    for h in (2, 3, 4):
        sums = {0}
        for _ in range(h):
            sums = {s + e for s in sums for e in short}
        for x in range(-5, 90):
            expect = x in sums
            assert SumSearch(short, 1).has(x, h) == expect
            assert SumSearch(short, 5).has(x, h) == expect
            assert PairSums(short).has(x, h) == expect


def test_mapped_spec_lists_the_image():
    base = Spec([("fin", (1, 2, 6)), ("ge", 10)])
    assert base.mapped(unit=-1, shift=3).elements(-12, 5) == [-12, -11, -10, -9, -8, -7, -3, 1, 2]
    assert base.mapped(scale=-2).elements(-30, 0) == [-30, -28, -26, -24, -22, -20, -12, -4, -2]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hset-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_scenario_seconds_come_only_from_verify_suite():
    p = {"names": ["affine"], "lat": [0.5], "yard": [run.YARDSTICK_REF_S], "layers": {}}
    assert run.per_layer("hset-stream", [p], [p])["scenarios.affine.s"] == 0.0
    assert run.per_layer("verify-suite", [p], [p])["scenarios.affine.s"] == 0.5

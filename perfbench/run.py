"""Benchmark entry point for intersets.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a
fresh interpreter (perfbench/worker.py), so caches start cold as they do
for every `intersets` CLI call; passes repeat on the same inputs until S
seconds have gone and at least three passes have run.  An operation's
latency is its median over the passes, at reference speed: a fixed
yardstick loop timed around each operation scales it (YARDSTICK_REF_S).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports per-layer metrics from the traced ones,
with the tracing overhead measured against the untraced ones.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  Lines above it print every metric by name with its unit,
and the environment of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench"

# the percentile reported as op_tail_ms: the highest with at least ten
# operations of a pass above it, except on verify-suite, whose 16 operations
# leave only four above p75
WORKLOADS = {
    "verify-suite": {"tail_pct": 75},
    "hset-stream": {"tail_pct": 99},
    "windowed-sumsets": {"tail_pct": 75},
}
MIN_PASSES = 3
SETUP_ONLY_SPAWNS = 6
PASS_TIMEOUT_S = 60
# no new pass starts after this many seconds, so a run ends within 180 s
LAST_START_S = 100

# the yardstick loop's time at the reference speed.  Every reported time is
# a measured time multiplied by YARDSTICK_REF_S over the yardstick timed
# next to it: the speed of a shared virtual machine drifts by a third over
# minutes, and the scaling takes that drift out of the comparison.
YARDSTICK_REF_S = 0.002

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_CALLS_SELF = (
    "symbolic.normalize",
    "symbolic.contains",
    "symbolic.is_subset",
    "symbolic.materialize",
    "sumsets.sum2",
    "sumsets.symbolic_hfold_sum",
    "sumsets.windowed_hfold_sum",
    "sumsets.representation_count",
    "analyzer.compute_H",
    "analyzer.truncated_layer_fold",
    "analyzer.compute_H_product",
    "analyzer.verify_out_witness",
    "analyzer.pullback_check",
    "families.set_at",
    "families.certificate",
    "continuum.verify_rational_theorem",
    "continuum.verify_open_theorem",
    "groups.group_hfold",
    "lattices.min_norm_inequality",
    "lattices.verify_lattice_theorem",
    "serialize.family_from_json",
    "serialize.report_to_json",
)
SCENARIOS = (
    "integers-tail", "rational", "open-intervals", "finiteness", "finiteness-H",
    "subgroup", "surjection", "cofinite-basis", "sharp", "congruence-chain",
    "vector-min", "lattice", "countable", "product-closure", "affine",
    "simple-lemma",
)
# name -> (unit, better)
PER_LAYER = {}
for _name in _CALLS_SELF:
    PER_LAYER[_name + ".calls"] = ("count", "lower")
    PER_LAYER[_name + ".self_s"] = ("s", "lower")
PER_LAYER.update({
    "symbolic.normalize.cache_hit_frac": ("ratio", "higher"),
    "symbolic.materialize.elements": ("count", "lower"),
    "sumsets.sum2.fired_frac": ("ratio", "higher"),
    "sumsets.symbolic_hfold_sum.closed_frac": ("ratio", "higher"),
    "sumsets.windowed_hfold_sum.cells": ("count", "higher"),
    "sumsets.windowed_hfold_sum.gen_cells": ("count", "lower"),
    "sumsets.windowed_hfold_sum.members": ("count", "higher"),
    "sumsets.windowed_hfold_sum.complete_frac": ("ratio", "higher"),
    "analyzer.truncated_layer_fold.layers": ("count", "lower"),
    "continuum.verify_rational_theorem.intersection_points": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
})
for _sid in SCENARIOS:
    PER_LAYER[f"scenarios.{_sid}.s"] = ("s", "lower")
PER_LAYER.update({
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
})


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, trace: int = 0, setup_only: bool = False,
          spans: Path | None = None) -> dict:
    """One worker pass in a fresh interpreter; setup_s is measured from
    just before the interpreter starts until its inputs are built."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["measured_setup_s"] = record["t_ready"] - t0
    record["setup_s"] = record["measured_setup_s"] * YARDSTICK_REF_S / record["ready_yard"]
    return record


def percentile(values, pct: float) -> float:
    """The nearest-rank pct percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def scaled(p: dict) -> list[float]:
    """A pass's operation latencies at reference speed: each is multiplied
    by YARDSTICK_REF_S over the yardstick timed around it."""
    return [lat * YARDSTICK_REF_S / yard for lat, yard in zip(p["lat"], p["yard"])]


def pass_scale(p: dict) -> float:
    """YARDSTICK_REF_S over the pass's median yardstick."""
    return YARDSTICK_REF_S / statistics.median(p["yard"])


def op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's median latency, at reference speed, over passes on
    the same inputs."""
    names = passes[0]["names"]
    if any(p["names"] != names for p in passes):
        raise BenchError("passes of one run ran different operations")
    return [statistics.median(lat) for lat in zip(*map(scaled, passes))]


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    lat = op_latencies(passes)
    wall = sum(lat)
    pct = WORKLOADS[workload]["tail_pct"]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": wall,
        "ops_per_s": len(lat) / wall,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": percentile(lat, pct) * 1000,
        "peak_rss_mb": _median([p["rss_mb"] for p in passes]),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    extras = {
        "fail_frac": (failed / attempted, "ratio"),
        "measured_wall_s": (_median([p["wall_s"] for p in passes]), "s"),
    }
    ex = {k: sum(p["extras"].get(k, 0) for p in passes) for k in passes[0]["extras"]}
    if "certified" in ex:
        extras["certified_frac"] = (ex["certified"] / ex["verdicts"], "ratio")
    if "cells" in ex:
        extras["cells_per_s"] = (ex["cells"] / len(passes) / wall, "1/s")
        extras["complete_frac"] = (ex["complete"] / ex["answers"], "ratio")
    beyond = sum(1 for x in lat if x * 1000 > metrics["op_tail_ms"])
    detail = {"tail": f"p{pct} of {len(lat)} operations, each the median of "
                      f"{len(passes)} passes, {beyond} above it", "extras": extras}
    return metrics, detail


def per_layer(workload: str, traced: list[dict], plain: list[dict]) -> dict:
    keys = {k for p in traced for k in p["layers"]}
    metrics = {}
    for k in keys:
        # busy times are scaled to reference speed like the latencies
        values = [p["layers"].get(k, 0) * (pass_scale(p) if k.endswith("self_s") else 1)
                  for p in traced]
        metrics[k] = _median(values)
    # hset-stream names its operations by family kind, and some kinds share
    # a name with a scenario
    lat = dict(zip(plain[0]["names"], op_latencies(plain))) if workload == "verify-suite" else {}
    for sid in SCENARIOS:
        metrics[f"scenarios.{sid}.s"] = lat.get(sid, 0.0)
    ratios = [sum(scaled(t)) / sum(scaled(u)) - 1 for u, t in zip(plain, traced)]
    metrics["trace.overhead_frac"] = _median(ratios)
    return {k: metrics[k] for k in PER_LAYER if k in metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "intersets" / "__init__.py").is_file():
        print(f"error: no intersets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    w = args.workload
    try:
        setups: list[float] = []
        plain: list[dict] = []
        traced: list[dict] = []
        if not args.trace:
            setups = [spawn(w, args.seed, setup_only=True)["setup_s"]
                      for _ in range(SETUP_ONLY_SPAWNS)]
        measure_start = time.perf_counter()
        while (
            len(plain) < MIN_PASSES or time.perf_counter() - measure_start < args.seconds
        ) and time.perf_counter() - begin < LAST_START_S:
            plain.append(spawn(w, args.seed))
            setups.append(plain[-1]["setup_s"])
            if args.trace:
                spans = OUT_DIR / f"spans-{w}.tsv" if not traced else None
                traced.append(spawn(w, args.seed, trace=1, spans=spans))
        if args.trace:
            metrics = per_layer(w, traced, plain)
            units = {k: PER_LAYER[k][0] for k in metrics}
            detail = {}
        else:
            metrics, detail = end_to_end(w, plain, setups)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env["numpy_imported"] = all(r["numpy"] for r in runs)
    env["yardstick_ms"] = round(statistics.median(y for r in runs for y in r["yard"]) * 1000, 4)

    print(f"workload {w}: seed {args.seed}, {len(plain)} untraced and {len(traced)} "
          f"traced passes, {attempted} operations, {failed} failed")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, v in metrics.items():
        print(f"  {k:<56} {v:.6g} {units[k]}")
    for k, (v, unit) in detail.get("extras", {}).items():
        print(f"  {k:<56} {v:.6g} {unit}")
    if "tail" in detail:
        print(f"  op_tail_ms is the {detail['tail']}")
    errors = [e for r in runs for e in r.get("errors", [])]
    for e in errors[:10]:
        print(f"  failure: {e}")

    record = {"workload": w, "trace": args.trace, "env": env, "attempted": attempted,
              "failed": failed, "metrics": metrics,
              "passes": [{k: r[k] for k in ("wall_s", "setup_s", "measured_setup_s", "rss_mb",
                                             "lat", "yard", "names")}
                         for r in plain],
              "extras": {k: v for k, (v, _) in detail.get("extras", {}).items()},
              "tail": detail.get("tail"), "errors": errors[:50]}
    (OUT_DIR / f"last-{w}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

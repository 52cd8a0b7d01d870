"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        [--setup-only] [--spans FILE]

Imports intersets from the checkout's src/, builds the workload's inputs
from the seed, runs every operation once (the timed phase), checks the
outputs and prints one JSON record on its last line of standard output.
Between operations it times a fixed yardstick loop, which tracks the
speed of the machine through the pass.  With --trace 1 the package's public functions are wrapped in spans for
the timed phase only.  --setup-only stops after building the inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# after an operation, the yardstick is sampled again once this much time
# has passed since the last sample; on short operations that keeps its
# share of a pass near a tenth
YARDSTICK_EVERY_S = 0.02


def yardstick() -> float:
    """Seconds taken by a fixed pure-Python loop, about 2 ms.  It calls
    nothing in the package, so its time moves only with the speed of the
    machine."""
    clock = time.perf_counter
    t = clock()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    return clock() - t


def run_pass(workload, tracer=None) -> dict:
    """Run every operation once, then check the outputs.

    An operation that raises, or whose output fails its check, counts as
    failed; the pass always runs to the end.
    """
    n = len(workload.ops)
    lat, outs, errors = [], [], []
    clock = time.perf_counter
    cache_before = None
    if tracer is not None:
        from tracing import normalize_cache_info

        cache_before = normalize_cache_info()
        tracer.enabled = True
    samples = [yardstick()]
    after = []  # per operation, the index of the first sample taken after it
    sampling = 0.0
    last = begin = clock()
    for i in range(n):
        if tracer is not None:
            tracer.current_op = i
        t = clock()
        try:
            out = workload.run_op(i)
        except Exception as exc:  # a failed operation must not end the pass
            out = None
            errors.append(f"{workload.op_name(i)}: {exc!r}")
        lat.append(clock() - t)
        outs.append(out)
        after.append(len(samples))
        if clock() - last >= YARDSTICK_EVERY_S:
            t = clock()
            samples.append(yardstick())
            last = clock()
            sampling += last - t
    wall = clock() - begin - sampling
    samples.append(yardstick())
    layers = None
    if tracer is not None:
        from tracing import finish

        tracer.enabled = False
        layers = finish(tracer, cache_before)

    failed = 0
    for i, out in enumerate(outs):
        if out is None:
            failed += 1
            continue
        try:
            ok = workload.check(i, out)
        except Exception as exc:  # a check that cannot run counts as failed
            ok = False
            errors.append(f"{workload.op_name(i)}: check raised {exc!r}")
        if not ok:
            failed += 1
            errors.append(f"{workload.op_name(i)}: output failed its check")
    return {
        "wall_s": wall,
        "lat": lat,
        # each operation's yardstick: the mean of the last sample before it
        # and the first after it
        "yard": [(samples[k - 1] + samples[k]) / 2 for k in after],
        "names": [workload.op_name(i) for i in range(n)],
        "attempted": n,
        "failed": failed,
        "errors": errors[:20],
        "extras": workload.extras(outs),
        "layers": layers,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    ready = time.perf_counter()
    record = {"t_ready": ready, "ready_yard": statistics.median(yardstick() for _ in range(3))}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer, instrument

            tracer = Tracer()
            instrument(tracer)
        record.update(run_pass(workload, tracer))
        if tracer is not None and args.spans:
            tracer.write(args.spans)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["numpy"] = "numpy" in sys.modules
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

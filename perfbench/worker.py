"""One cold repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload descent --seed 1 --rep 0 --t0 T
        [--trace FILE] [--setup-only]

Run from the checkout root with PYTHONPATH=src.  `--t0` is the parent's
time.monotonic() just before the spawn, so set-up time covers interpreter
start, importing the package and loading the shipped SSData.  Prints one
JSON line: set-up time, then for the cold pass over every op and the warm
pass over every fourth (same process, caches filled) the wall and CPU
time and per-op latencies (host-speed scaled), answers and tracebacks.
With `--trace FILE` the cold pass runs under spans and FILE receives them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import hostspeed
import spans


def _set_up(t0: float) -> tuple[float, dict]:
    import realspectra
    src = os.path.join(os.getcwd(), "src", "realspectra")
    if os.path.dirname(os.path.abspath(realspectra.__file__)) != src:
        raise SystemExit(f"realspectra imported from {realspectra.__file__}, "
                         f"not from {src}")
    import realspectra.cli  # noqa: F401  (what every CLI call imports)
    from realspectra import duality
    # checked before the SSData load, which fills default_ssdata
    filled = {name: fn.cache_info().currsize
              for name, fn in spans.lru_caches().items()
              if fn.cache_info().currsize}
    for n in (1, 2):
        duality.default_ssdata(n)
    return time.monotonic() - t0, filled


def run_pass(ops, order, timeline: hostspeed.Timeline) -> dict:
    """Run every op once; an op that raises is recorded, not fatal.

    Times are host-speed scaled by `timeline`, which the pass stops;
    raw_run_s is the unscaled wall time without the probes.
    """
    answers, errors, op_spans = {}, {}, []
    start, cpu0 = time.perf_counter(), time.process_time()
    try:
        ops.prepare()
    except Exception:
        errors["prepare"] = traceback.format_exc()
    else:
        for op in order:
            op_start = time.perf_counter()
            try:
                answers[op] = ops.run(op)
            except Exception:
                errors[op] = traceback.format_exc()
            op_spans.append((op_start, time.perf_counter()))
    end, cpu_s = time.perf_counter(), time.process_time() - cpu0
    timeline.stop()
    probe_s, probe_cpu_s = timeline.probes_within(start, end)
    run_s, raw_s = timeline.scaled(start, end), end - start - probe_s
    return {"run_s": run_s, "run_cpu_s": (cpu_s - probe_cpu_s) * run_s / raw_s,
            "raw_run_s": raw_s,
            "latencies": [timeline.scaled(*span) for span in op_spans],
            "answers": answers, "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_s, filled = _set_up(args.t0)
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    if filled:
        print(f"lru caches not cold at start: {filled}", file=sys.stderr)
        return 4

    from workloads import Ops, op_ids, shuffled, warm_ops
    ops = Ops(args.workload)
    order = shuffled(op_ids(args.workload), args.seed, args.rep)

    timeline = hostspeed.Timeline()
    tracer = patched = None
    if args.trace:
        # spans leave out the time of host-speed probes inside them
        tracer = spans.Tracer(clock=timeline.clock)
        patched = spans.install(tracer)
    out["cold"] = run_pass(ops, order, timeline)
    if tracer is not None:
        spans.uninstall(patched)
        summary = tracer.summary()
        summary["caches"] = spans.cache_stats()
        with open(args.trace, "w") as handle:
            json.dump(summary, handle)
    out["warm"] = run_pass(ops, warm_ops(args.workload, order),
                           hostspeed.Timeline())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

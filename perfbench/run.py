"""realspectra benchmark: cold-process workloads, checked against recorded answers.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Every repetition of a workload is a fresh interpreter, one at a
time, so each pays for filling the package's lru caches cold.  A run
repeats the workload until the next repetition would end after `--seconds`
and reports medians over repetitions.  Times are scaled by the host-speed
probe measured around them (see hostspeed.py); the report keeps them
unscaled too.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of one traced repetition and
the tracing overhead (traced minus untraced run_s).  The line before it is
a report: run environment, sample counts and the first failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import hostspeed
from spans import CACHES
from workloads import CLI_CALLS, WORKLOADS, cli_key, op_ids, shuffled, \
    warm_ops

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
TMP_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"

# a run repeats its workload until the next repetition would end after
# --seconds, but never fewer times than this
MIN_REPS = 3
# set-up probes before the first repetition; one more runs before each
SETUP_PROBES = 2
# probe rounds around a worker repetition or a set-up probe; between two
# argvs of a `cli` pass, one round
PROBE_ROUNDS = 3
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10
# what the `realspectra` console script runs
CLI_MAIN = "import sys; from realspectra.cli import main; sys.exit(main())"

# end-to-end metrics (--trace 0)
END_TO_END_UNITS = {
    "run_s": "s", "run_cpu_s": "s", "ops_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "call_p50_s": "s", "call_tail_s": "s",
    "cached_call_p50_s": "s",
}

# per-layer metrics (--trace 1): spans read as calls and self time
SPAN_METRICS = (
    ("abelian.smith_normal_form", ("calls", "self_s")),
    ("abelian.mat_mul", ("calls", "self_s")),
    ("coefficients.tower_group", ("calls", "self_s")),
    ("coefficients.weight_tuples", ("calls", "self_s")),
    ("hfpss.e_infinity_basis", ("calls", "self_s")),
    ("hfpss.run_differentials", ("self_s",)),
    ("hfpss.closed_form_state", ("calls",)),
    ("blocks.assemble", ("calls", "self_s")),
    ("blocks.lc_of_block", ("calls", "self_s")),
    ("localcoh.lc_oracle", ("calls", "self_s")),
    ("localcoh.module_ranks", ("calls", "self_s")),
    ("duality.verify_gorenstein", ("calls", "self_s")),
    ("duality.gamma_block", ("calls", "self_s")),
    ("duality.anderson_dual_groups", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("charts.svg_chart", ("self_s",)),
    ("charts.ascii_chart", ("self_s",)),
)


class Checkout:
    """The source tree under test and the environment its children get."""

    def __init__(self, root: str):
        self.root = root
        self.env = {k: v for k, v in os.environ.items()
                    if k != "REALSPECTRA_CACHE_DIR"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.tmp = os.path.join(root, TMP_DIR)

    def run(self, cmd, env=None):
        """(exit code, stdout, stderr); a timeout reads as exit code None."""
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env or self.env,
                                  capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as err:
            return None, err.stdout or b"", b"timeout"
        return proc.returncode, proc.stdout, proc.stderr

    def worker(self, *args):
        """Spawn perfbench/worker.py; (parsed last line or None, stderr)."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--t0", repr(time.monotonic()), *args]
        code, out, err = self.run(cmd)
        if code != 0:
            return None, err.decode(errors="replace")[-2000:]
        lines = out.decode().strip().splitlines()
        return json.loads(lines[-1]), ""


# --- scoring -----------------------------------------------------------------

def score_pass(planned: list[str], result: dict | None,
               reference: dict) -> tuple[int, list[str]]:
    """(attempted, failures) for one pass of ops against the reference.

    A missing result (the child crashed or exited non-zero), an op that
    raised, and an answer that differs from the reference all fail.
    """
    if result is None:
        return len(planned), [f"{op}: no result" for op in planned]
    failures = []
    for op in planned:
        if op in result["errors"]:
            failures.append(f"{op}: raised\n{result['errors'][op]}")
        elif op not in result["answers"]:
            failures.append(f"{op}: not run" + (
                f"\n{result['errors']['prepare']}"
                if "prepare" in result["errors"] else ""))
        elif result["answers"][op] != reference[op]:
            failures.append(f"{op}: got {result['answers'][op]}, "
                            f"want {reference[op]}")
    return len(planned), failures


def score_call(code, stdout: bytes, stderr: bytes, want: dict) -> str | None:
    """Why one CLI call failed, or None: exit code, output hash, traceback."""
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if code != want["code"]:
        return f"exit code {code}, want {want['code']}"
    if hashlib.sha256(stdout).hexdigest() != want["stdout_sha256"]:
        return f"stdout differs from the reference ({len(stdout)} bytes)"
    return None


def median(values: list[float]) -> float:
    """The median, or 0.0 when every repetition failed to report."""
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when that percentile would not exceed the
    median."""
    ordered = sorted(values)
    index = len(ordered) - 1
    if len(ordered) > 2 * TAIL_BEYOND:
        index -= TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# --- environment ---------------------------------------------------------------

def git_sha(root: str) -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: str) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "numpy": numpy, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": list(os.getloadavg())}


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --- workload repetitions -------------------------------------------------------

class Tally:
    """Per-repetition values and failures collected over a run.

    Each repetition's times arrive host-speed scaled, and the run reports
    their median over repetitions.  The tail is the exception when a
    repetition has too few ops for one (a `cli` pass has 13 misses): it is
    then taken over the pooled ops of the first MIN_REPS repetitions, so
    its percentile and sample count do not depend on how many repetitions
    fit in a run.
    """

    def __init__(self):
        self.values: dict[str, list[float]] = {
            name: [] for name in ("setup_s", "run_s", "run_cpu_s",
                                  "ops_per_s", "call_p50_s",
                                  "cached_call_p50_s")}
        self.raw_run_s: list[float] = []
        self.factors: list[float] = []
        self.calls_by_rep: list[list[float]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def add_failures(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    def add_rep(self, run_s: float, run_cpu_s: float, ops: int,
                calls: list[float], cached_calls: list[float],
                raw_run_s: float, factor: float) -> None:
        """One repetition; every time except raw_run_s is already scaled."""
        self.raw_run_s.append(raw_run_s)
        self.factors.append(factor)
        self.calls_by_rep.append(calls)
        for name, value in (("run_s", run_s), ("run_cpu_s", run_cpu_s),
                            ("ops_per_s", ops / run_s),
                            ("call_p50_s", statistics.median(calls))):
            self.values[name].append(value)
        if cached_calls:
            self.values["cached_call_p50_s"].append(
                statistics.median(cached_calls))

    def tail(self) -> tuple[float, float, int]:
        """(tail latency, its percentile, samples it was taken over)."""
        if not self.calls_by_rep:
            return 0.0, 0.0, 0
        if min(map(len, self.calls_by_rep)) > 2 * TAIL_BEYOND:
            tails = [tail(calls) for calls in self.calls_by_rep]
            return (statistics.median(t[0] for t in tails), tails[0][1],
                    len(self.calls_by_rep[0]))
        pooled = [x for calls in self.calls_by_rep[:MIN_REPS]
                  for x in calls]
        return (*tail(pooled), len(pooled))

    def metrics(self) -> dict:
        out = {name: median(values) for name, values in self.values.items()}
        out["call_tail_s"] = self.tail()[0]
        out["peak_rss_mb"] = children_peak_rss_mb()
        return {name: {"value": out[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}


def worker_rep(box: Checkout, workload: str, seed: int, rep: int,
               reference: dict, tally: Tally, before: float,
               trace: str | None = None):
    """One repetition in a fresh worker, between two host probes.

    `before` is the probe taken just before; the pair scales the worker's
    set-up time, while its passes come scaled by its own `Timeline`.
    Returns the probe taken just after and the unscaled cold run_s (None if
    the worker failed).
    """
    planned = op_ids(workload)
    warm = warm_ops(workload, shuffled(planned, seed, rep))
    args = ["--workload", workload, "--seed", str(seed), "--rep", str(rep)]
    if trace:
        args += ["--trace", trace]
    result, err = box.worker(*args)
    after = hostspeed.probe(PROBE_ROUNDS)
    if result is None:
        attempted = len(planned) + len(warm)
        tally.add_failures(attempted, [f"worker exited: {err}"] * attempted)
        return after, None
    factor = hostspeed.factor(before, after)
    tally.values["setup_s"].append(result["setup_s"] * factor)
    cold = result["cold"]
    tally.add_failures(*score_pass(planned, cold, reference))
    tally.add_failures(*score_pass(warm, result["warm"], reference))
    if cold["latencies"]:
        tally.add_rep(cold["run_s"], cold["run_cpu_s"], len(planned),
                      cold["latencies"], result["warm"]["latencies"],
                      cold["raw_run_s"], cold["run_s"] / cold["raw_run_s"])
    return after, cold["raw_run_s"]


def cli_rep(box: Checkout, seed: int, rep: int, reference: dict,
            tally: Tally, before: float, trace_dir: str | None = None) -> dict:
    """One pass of the CLI mix, each argv as a miss then a hit, in a fresh
    cache directory that is deleted afterwards.

    A host probe follows every argv; the pair of calls between two probes is
    scaled by them.  run_s is the sum of the pass's call times.
    """
    os.makedirs(box.tmp, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cache-", dir=box.tmp)
    env = dict(box.env, REALSPECTRA_CACHE_DIR=cache)
    counts = {"hits": 0, "misses": 0, "stdout_bytes": 0, "traces": []}
    scaled = {"miss": [], "hit": []}
    raw_s = scaled_s = scaled_cpu_s = 0.0
    factors = []
    try:
        for argv in shuffled(CLI_CALLS, seed, rep):
            key = cli_key(argv)
            timed = []
            for kind in ("miss", "hit"):
                if trace_dir:
                    spans_file = os.path.join(
                        trace_dir, f"call{len(counts['traces'])}.json")
                    counts["traces"].append(spans_file)
                    cmd = [sys.executable, os.path.join(HERE, "cli_entry.py"),
                           spans_file, *argv]
                else:
                    cmd = [sys.executable, "-c", CLI_MAIN, *argv]
                entries = len(os.listdir(cache))
                cpu0, start = children_cpu_s(), time.perf_counter()
                code, out, err = box.run(cmd, env)
                timed.append((kind, time.perf_counter() - start,
                              children_cpu_s() - cpu0))
                wrote = len(os.listdir(cache)) > entries
                counts["misses" if wrote else "hits"] += 1
                counts["stdout_bytes"] += len(out)
                why = score_call(code, out, err, reference[key])
                tally.add_failures(1, [f"{kind} {key}: {why}"] if why else [])
            after = hostspeed.probe()
            factor = hostspeed.factor(before, after)
            before = after
            factors.append(factor)
            for kind, latency, cpu in timed:
                scaled[kind].append(latency * factor)
                raw_s += latency
                scaled_s += latency * factor
                scaled_cpu_s += cpu * factor
        tally.add_rep(scaled_s, scaled_cpu_s, 2 * len(CLI_CALLS),
                      scaled["miss"], scaled["hit"], raw_s,
                      statistics.mean(factors))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    counts["run_s"], counts["after"] = raw_s, before
    return counts


def timed_run(box: Checkout, workload: str, seed: int, seconds: int,
              reference: dict, report: dict) -> tuple[Tally, dict]:
    tally = Tally()
    last = hostspeed.probe(PROBE_ROUNDS)

    def probe_setup() -> None:
        nonlocal last
        probe, err = box.worker("--workload", workload, "--setup-only")
        after = hostspeed.probe(PROBE_ROUNDS)
        if probe is None:
            raise RuntimeError(f"set-up probe failed: {err}")
        tally.values["setup_s"].append(
            probe["setup_s"] * hostspeed.factor(last, after))
        last = after

    for _ in range(SETUP_PROBES):
        probe_setup()
    start = time.perf_counter()
    reps = 0
    while True:
        probe_setup()
        if workload == "cli":
            last = cli_rep(box, seed, reps, reference, tally, last)["after"]
        else:
            last, _ = worker_rep(box, workload, seed, reps, reference,
                                 tally, last)
        reps += 1
        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and elapsed * (reps + 1) / reps > seconds:
            break
    metrics = tally.metrics()
    _, percentile, samples = tally.tail()
    report.update({
        "repetitions": reps, "ops_per_pass": len(op_ids(workload)) * (
            2 if workload == "cli" else 1),
        "setup_samples": len(tally.values["setup_s"]),
        "call_tail_percentile": percentile, "call_tail_samples": samples,
        "per_rep": tally.values,
        "unscaled_run_s": tally.raw_run_s, "speed_factors": tally.factors,
        "op": ("one CLI call; calls are cache misses, cached calls hits"
               if workload == "cli" else
               "calls are cold-pass ops, cached calls every fourth op "
               "repeated in the same process"),
    })
    return tally, metrics


# --- traced run ------------------------------------------------------------------

def merge_summaries(summaries: list[dict]) -> dict:
    spans, counters, caches, edges = {}, {}, {}, {}
    for summary in summaries:
        for name, agg in summary["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            for field in into:
                into[field] += agg[field]
        for edge in summary["edges"]:
            into = edges.setdefault((edge["parent"], edge["name"]),
                                    {"parent": edge["parent"],
                                     "name": edge["name"],
                                     "calls": 0, "total_s": 0.0})
            into["calls"] += edge["calls"]
            into["total_s"] += edge["total_s"]
        for key, value in summary["counters"].items():
            if key.endswith("max_cells"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        for key, info in summary["caches"].items():
            into = caches.setdefault(key, {"hits": 0, "misses": 0})
            into["hits"] += info["hits"]
            into["misses"] += info["misses"]
    return {"spans": spans, "edges": list(edges.values()),
            "counters": counters, "caches": caches}


def layer_metrics(summary: dict, overhead_s: float, cli: dict) -> dict:
    spans, counters = summary["spans"], summary["counters"]
    metrics = {}
    for name, fields in SPAN_METRICS:
        for field in fields:
            unit = "count" if field == "calls" else "s"
            metrics[f"{name}.{field}"] = (
                spans.get(name, {}).get(field, 0), unit)
    metrics["abelian.smith_normal_form.max_cells"] = (
        counters.get("abelian.smith_normal_form.max_cells", 0), "count")
    metrics["hfpss.e2_basis.monomials"] = (
        counters.get("hfpss.e2_basis.monomials", 0), "count")
    oracles = spans.get("localcoh.lc_oracle", {}).get("calls", 0)
    snf = counters.get("localcoh.lc_oracle.snf_calls", 0)
    metrics["localcoh.lc_oracle.snf_per_call"] = (
        snf / oracles if oracles else 0.0, "snf/call")
    for key in CACHES:
        info = summary["caches"].get(key, {"hits": 0, "misses": 0})
        looked = info["hits"] + info["misses"]
        metrics[f"{key}.hit_ratio"] = (
            info["hits"] / looked if looked else 0.0, "ratio")
    metrics["cli.cache.hits"] = (cli.get("hits", 0), "count")
    metrics["cli.cache.misses"] = (cli.get("misses", 0), "count")
    metrics["cli.stdout_bytes"] = (cli.get("stdout_bytes", 0), "bytes")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(box: Checkout, workload: str, seed: int, reference: dict,
               report: dict) -> tuple[Tally, dict]:
    """One untraced and one traced cold repetition of the same op order."""
    tally = Tally()
    os.makedirs(box.tmp, exist_ok=True)
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=box.tmp)
    try:
        probe = hostspeed.probe(PROBE_ROUNDS)
        if workload == "cli":
            first = cli_rep(box, seed, 0, reference, tally, probe)
            cli = cli_rep(box, seed, 0, reference, tally, first["after"],
                          trace_dir)
            plain, traced, span_files = first["run_s"], cli["run_s"], \
                cli["traces"]
        else:
            cli, span_files = {}, [os.path.join(trace_dir, "spans.json")]
            probe, plain = worker_rep(box, workload, seed, 0, reference,
                                      tally, probe)
            _, traced = worker_rep(box, workload, seed, 0, reference, tally,
                                   probe, trace=span_files[0])
        parts = []
        for path in span_files:
            if os.path.exists(path):
                with open(path) as handle:
                    parts.append(json.load(handle))
        summary = merge_summaries(parts)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    # host-speed scaled, like the end-to-end run_s
    scaled = tally.values["run_s"]
    overhead = scaled[1] - scaled[0] if len(scaled) == 2 else 0.0
    os.makedirs(os.path.join(box.root, OUT_DIR), exist_ok=True)
    out_file = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(os.path.join(box.root, out_file), "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    report.update({"unscaled_untraced_run_s": plain,
                   "unscaled_traced_run_s": traced, "span_file": out_file})
    return tally, layer_metrics(summary, overhead, cli)


# --- entry point ---------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "realspectra",
                                       "__init__.py")):
        print("error: run from the root of a realspectra checkout "
              "(src/realspectra not found)", file=sys.stderr)
        return 2
    with open(REFERENCE) as handle:
        reference = json.load(handle)[args.workload]
    box = Checkout(root)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(root)}
    # children inherit the CPU, so probes and measured work share it
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        cpu = None  # not permitted here: probes still bracket the work
    report["env"]["pinned_cpu"] = cpu
    try:
        # the first import compiles bytecode, which users do not pay per run
        warm_up, err = box.worker("--workload", args.workload, "--setup-only")
        if warm_up is None:
            print(f"error: the package does not import: {err}",
                  file=sys.stderr)
            return 2
        if args.trace:
            tally, metrics = traced_run(box, args.workload, args.seed,
                                        reference, report)
        else:
            tally, metrics = timed_run(box, args.workload, args.seed,
                                       args.seconds, reference, report)
    finally:
        shutil.rmtree(box.tmp, ignore_errors=True)
    report["env"]["loadavg_after"] = list(os.getloadavg())
    failed = len(tally.failures)
    report["error_rate"] = failed / tally.attempted if tally.attempted else 1.0
    report["failures"] = tally.failures[:5]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

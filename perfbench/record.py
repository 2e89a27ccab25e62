"""Record the reference answers the benchmark scores against.

    PYTHONPATH=src python3 perfbench/record.py

Run from the checkout root.  Computes every op of every workload in canonical
order, cross-checks each answer against an independent route, and writes
perfbench/reference.json:

- descent: the page engine's final page, e_infinity_groups and
  group_in_degree agree at every degree;
- duality: the shipped SSData verifies clean and every proper subset of its
  six records leaves at least one mismatch;
- koszul: the closed form equals the Koszul oracle, and the convention
  report confirms the shipped readings;
- cli: `verify` exits 0 on shipped data and 1 on the mutated data, every
  other call exits 0, and the cached second call prints the same bytes.

The answers are only re-recorded on purpose: a change that alters one is a
change in what the program computes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

from run import CLI_MAIN, REFERENCE, TMP_DIR, git_sha
from workloads import CLI_CALLS, WORKLOADS, Ops, cli_key, op_ids


def record_ops(workload: str) -> dict:
    ops = Ops(workload)
    ops.prepare()
    answers = {op: ops.run(op) for op in op_ids(workload)}
    for op, answer in answers.items():
        if workload == "descent" and not answer[0] == answer[1] == answer[2]:
            raise AssertionError(f"descent {op}: routes disagree {answer}")
        if workload == "duality":
            clean = answer[0] == 0
            if clean != (op == "mask63"):
                raise AssertionError(f"duality {op}: {answer[0]} mismatches")
        if workload == "koszul":
            if op == "convention_report":
                if not (any("sign" in line for line in answer)
                        and all("oracle" in line for line in answer)):
                    raise AssertionError(f"convention report: {answer}")
            elif answer[0] != answer[1]:
                raise AssertionError(f"koszul {op}: closed form {answer[0]}, "
                                     f"oracle {answer[1]}")
    return answers


def record_cli(root: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k != "REALSPECTRA_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    tmp = os.path.join(root, TMP_DIR)
    os.makedirs(tmp, exist_ok=True)
    answers = {}
    with tempfile.TemporaryDirectory(dir=tmp) as cache:
        env["REALSPECTRA_CACHE_DIR"] = cache
        for argv in CLI_CALLS:
            runs = [subprocess.run(
                [sys.executable, "-c", CLI_MAIN, *argv], cwd=root,
                env=env, capture_output=True, timeout=300) for _ in range(2)]
            miss, hit = runs
            want = 1 if "--ssdata" in argv else 0
            if miss.returncode != want or b"Traceback" in miss.stderr:
                raise AssertionError(f"{cli_key(argv)}: exit "
                                     f"{miss.returncode}, want {want}")
            if (hit.returncode, hit.stdout) != (miss.returncode, miss.stdout):
                raise AssertionError(f"{cli_key(argv)}: cached call differs")
            answers[cli_key(argv)] = {
                "code": miss.returncode,
                "stdout_sha256": hashlib.sha256(miss.stdout).hexdigest(),
                "stdout_bytes": len(miss.stdout)}
    os.rmdir(tmp)
    return answers


def main() -> int:
    root = os.getcwd()
    reference = {"recorded_at": git_sha(root)}
    for workload in WORKLOADS:
        reference[workload] = (record_cli(root) if workload == "cli"
                               else record_ops(workload))
        print(f"{workload}: {len(reference[workload])} answers", flush=True)
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

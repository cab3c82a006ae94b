"""Steadiness check: are the end-to-end metrics repeatable within their bounds?

    python3 perfbench/steady.py --runs 10 --sets 2

Runs every workload ``--runs`` times per set, one run at a time, rotating
which workload goes first, each run with its own seed (set ``s``, run ``i``
uses seed ``1000 * s + i + 1``).  For each set it prints every end-to-end
metric's median and quartiles and the spread ``(Q3 - Q1) / median``; then
it checks what a reviewer of a later change relies on:

* each spread stays within the metric's bound in ``BENCHMARK.json``;
* each later set's median differs from the first set's, in either
  direction, by at most the bound;
* the share of failed operations is the same in every run.

Raw results go to ``--out`` (JSON).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common

RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=common.ROOT, capture_output=True,
                               text=True, timeout=RUN_TIMEOUT_S)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stdout}\n"
                           f"{completed.stderr}")
    return json.loads(lines[-1])


def collect(spec: dict, runs: int, sets: int, workloads: list) -> list:
    records = []
    for set_index in range(sets):
        for run_index in range(runs):
            shift = run_index % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                seed = 1000 * set_index + run_index + 1
                start = time.perf_counter()
                result = run_once(workload, seed, spec["run_seconds"])
                common.log(f"set {set_index + 1} run {run_index + 1} "
                           f"{workload} seed {seed}: "
                           f"{time.perf_counter() - start:.1f} s wall")
                records.append({"set": set_index, "workload": workload,
                                "seed": seed, "result": result})
    return records


def quartiles(values: list) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(spec: dict, records: list) -> bool:
    """Print the per-set table and the agreement checks; True if all pass."""
    ok = True
    sets = sorted({record["set"] for record in records})
    workloads = list(dict.fromkeys(record["workload"] for record in records))
    for workload in workloads:
        print(f"\n== {workload}")
        medians: dict = {}
        shares = []
        for set_index in sets:
            results = [record["result"] for record in records
                       if record["workload"] == workload
                       and record["set"] == set_index]
            attempted = sum(result["attempted"] for result in results)
            failed = sum(result["failed"] for result in results)
            shares.append([result["failed"] / result["attempted"]
                           for result in results])
            print(f"set {set_index + 1}: {len(results)} runs, "
                  f"{attempted} operations, {failed} failed, correct "
                  f"{all(result['correct'] for result in results)}")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                values = [result["metrics"][name]["value"]
                          for result in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                within = spread <= metric["bound"]
                ok &= within
                medians.setdefault(name, []).append(med)
                print(f"  {name:16s} median {med:10.4f} {metric['unit']:4s} "
                      f"Q1 {q1:10.4f} Q3 {q3:10.4f} spread {spread:6.1%} "
                      f"(bound {metric['bound']:.0%}"
                      f"{'' if within else ', EXCEEDED'})")
        if len(sets) > 1:
            flat = [share for run_shares in shares for share in run_shares]
            same_share = len(set(flat)) == 1
            ok &= same_share
            print(f"failed share identical in every run: {same_share}")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                first = medians[name][0]
                for set_index, later in enumerate(medians[name][1:], 2):
                    change = (later - first) / first
                    agree = abs(change) <= metric["bound"]
                    ok &= agree
                    print(f"  {name:16s} set {set_index} vs set 1: "
                          f"{change:+6.1%} (bound ±{metric['bound']:.0%}"
                          f"{'' if agree else ', EXCEEDED'})")
    print(f"\nall checks {'pass' if ok else 'FAIL'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    records = collect(spec, args.runs, args.sets, workloads)
    out = args.out or str(common.DATA_ROOT /
                          f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w") as handle:
        json.dump(records, handle, indent=1)
    common.log(f"raw results: {out}")
    return 0 if summarize(spec, records) else 1


if __name__ == "__main__":
    sys.exit(main())

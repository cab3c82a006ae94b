"""Benchmark of record: one workload per process.

    python3 perfbench/run.py --workload tpch-warm --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``tpch-warm``, ``tpch-refresh``, ``serve-zipf``.
``--seed`` draws each workload's inputs: the per-round query order on the
TPC-H workloads, the Zipfian request stream and the arrival schedule on
``serve-zipf``.  Timings are CPU seconds of the process (see
``workloads``).  The data (``--data-seed``) and the generation-B shuffle
(``--shuffle-seed``) have fixed defaults, so their generation and oracle
answers are made once per checkout.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the run measures
half its time untraced and half traced, prints the tracing overhead, and the
metrics are the per-layer metrics.  The command exits non-zero when an answer
is wrong.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy

import common


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=19920101)
    parser.add_argument("--shuffle-seed", type=int, default=20240229)
    return parser.parse_args(argv)


def layer_metrics(recorder, outcome) -> dict:
    """Per-layer values: mean self time per call from the spans, and the
    counts and serving figures the workload measured itself."""
    times = recorder.self_times()

    def per_call_ms(*names):
        calls = times.get(names[0], (0, 0.0))[0]
        total = sum(times.get(name, (0, 0.0))[1] for name in names)
        return 1000.0 * total / calls if calls else 0.0

    converts = times.get("storage.convert", (0, 0.0))[0]
    values = {
        "dataframe.load_ms": per_call_ms("dataframe.load"),
        "storage.register_ms": per_call_ms("storage.register"),
        "storage.convert_ms": per_call_ms("storage.convert"),
        "storage.converted_mb": (recorder.counts["storage.converted_bytes"]
                                 / converts / 1e6 if converts else 0.0),
        "frontend.ms": per_call_ms("frontend"),
        "ir.ms": per_call_ms("ir.build", "ir.optimize"),
        "planner.ms": per_call_ms("planner"),
        "tensor.trace_ms": per_call_ms("tensor.trace"),
        "tensor.passes_ms": per_call_ms("tensor.passes"),
        "tensor.codegen_ms": per_call_ms("tensor.codegen"),
        "plan_cache.lookup_ms": per_call_ms("plan_cache.lookup"),
        "session.snapshot_ms": per_call_ms("session.snapshot"),
        "executor.replay_ms": per_call_ms("executor.replay"),
        "dataframe.materialize_ms": per_call_ms("dataframe.materialize"),
        "ml.compile_model_ms": per_call_ms("ml.compile_model"),
        "serve.submit_ms": per_call_ms("serve.submit"),
    }
    values.update(outcome.layer)
    return values


def run(args) -> int:
    import_s = common.import_repro()
    import spans
    import workloads

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    common.log(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, "
               f"trace {args.trace}, {common.cores()} cores")

    passes = [None]
    if args.trace:
        args.seconds /= 2
        passes = [None, spans.Recorder()]
    outcomes = []
    for recorder in passes:
        digest = common.Digest()
        outcome = workloads.Outcome()
        if recorder is not None:
            spans.install(recorder)
        workload(args, outcome, recorder, digest)
        if recorder is not None:
            recorder.uninstall()
        setup_s, unit = outcome.metrics["setup_s"]
        outcome.metrics["setup_s"] = (setup_s + import_s, unit)
        outcomes.append(outcome)

    final = outcomes[-1]
    print(f"inputs {digest.hexdigest()} (seed {args.seed}, data seed "
          f"{args.data_seed}, shuffle seed {args.shuffle_seed}); "
          f"{common.cores()} cores, numpy {numpy.__version__}")
    for line in final.notes:
        print(line)
    for name, (value, unit) in final.metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    metrics = {}
    if args.trace:
        plain = outcomes[0]
        for name, (value, unit) in final.metrics.items():
            base = plain.metrics[name][0]
            print(f"tracing overhead {name}: {value - base:+.6g} {unit} "
                  f"({100.0 * (value - base) / base:+.1f}% of untraced "
                  f"{base:.6g})")
        recorder = passes[-1]
        values = layer_metrics(recorder, final)
        for entry in spec["per_layer"]:
            value = float(values.get(entry["name"], 0.0))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        trace_path = (common.DATA_ROOT / "traces"
                      / f"{args.workload}-seed{args.seed}.jsonl")
        recorder.dump(trace_path)
        print(f"{len(recorder.spans)} spans written to "
              f"{trace_path.relative_to(common.ROOT)}")
    else:
        for entry in spec["end_to_end"]:
            value, unit = final.metrics[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": unit}

    wrong = [line for outcome in outcomes for line in outcome.wrong]
    for line in wrong:
        print(f"WRONG {line}")
    for outcome in outcomes:
        for error, count in outcome.errors.items():
            print(f"FAILED x{count} {error}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }))
    return 1 if wrong else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except common.SetupError as exc:
        common.log(f"cannot run: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

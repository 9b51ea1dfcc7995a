"""The repository benchmark.

    python3 perfbench/run.py --workload rv32i-primes --seed 1 --seconds 10 --trace 0

Builds nothing: it imports the program from the checkout's ``src``.  With
``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
does one traced run that fills the per-layer metrics, writes the spans to
``.perfbench/traces/<workload>-<seed>.json`` (Chrome trace-event JSON) and
prints one row per layer.  The last line of standard output is the JSON
result.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict

import bench

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cycles_per_s": "cycles/s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
}

_PASSES = ["lower", "rwset-separation", "log-accumulation",
           "reset-on-failure", "state-merge", "register-classification",
           "early-fail", "const-guard-prune", "read-check-dedup"]

#: Per-layer metrics (``--trace 1``): name -> unit.  A layer a workload
#: does not exercise reads 0 (see README.md for which run fills which).
PER_LAYER: Dict[str, str] = {
    "koika.elaborate_s": "s",
    "analysis.analyze_s": "s",
    **{key: unit for name in _PASSES
       for key, unit in ((f"passes.{name}_s", "s"),
                         (f"passes.{name}.stmts", "count"))},
    "codegen.emit_s": "s",
    "codegen.source_lines": "count",
    "codegen.pycompile_s": "s",
    "model.instantiate_s": "s",
    "trace.setup_untraced_s": "s",
    "trace.setup_overhead_s": "s",
    "cache.hit_load_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "scalar.cycles_per_s": "cycles/s",
    "model.self_s": "s",
    "model.commits_per_cycle": "commits/cycle",
    "env.device_s": "s",
    "trace.steady_overhead_s": "s",
    "sim.cycles_to_halt": "cycles",
    "sim.retired": "count",
    "sim.ipc": "instr/cycle",
    "rtl.cycles_per_s": "cycles/s",
    "rtl.fig1_ratio": "ratio",
    "fuzz.job_untraced_s": "s",
    "fuzz.build_s": "s",
    "fuzz.coverage_s": "s",
    "fuzz.coverage_features": "count",
    "verify.interp_s": "s",
    **{f"verify.O{opt}_s": "s" for opt in range(6)},
    "verify.simplified_s": "s",
    "verify.rtl-cycle_s": "s",
    "verify.sched_s": "s",
    "shard.k2.setup_s": "s",
    "shard.k2.cycles_per_s": "cycles/s",
    "shard.replay_fraction": "fraction",
    "shard.critical_s": "s",
    "shard.wait_s": "s",
    "batch.compile_s": "s",
    "batch.numpy.cycles_per_s": "cycles/s",
    "batch.list.cycles_per_s": "cycles/s",
    "fleet.w2.cycles_per_s": "cycles/s",
}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="Cuttlesim reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", action="store_true",
                        help="self-check: corrupt the first observed output "
                             "before checking it")
    return parser.parse_args(argv)


def measure(workload, seconds: float, plant_fault: bool):
    setup_s, setup_samples = bench.repeat_setup(workload.setup,
                                                **workload.setup_limits)
    samples, observations = bench.timed_ops(workload.op, seconds)
    if plant_fault:
        observations[0] = workload.corrupt(observations[0])
    attempted, failed = workload.check(observations)
    more_attempted, more_failed = workload.validate()
    cycles_per_s, jobs_per_s = workload.rates(samples, len(observations))
    raw = [s._replace(slowdown=1.0) for s in samples]
    print(f"{workload.name}: setup_s median of {len(setup_samples)}, raw "
          f"{statistics.median(s.seconds for s in setup_samples):.4f} s; "
          f"{len(observations)} ops timed for "
          f"{sum(s.seconds for s in samples):.2f} s, raw "
          f"{workload.rates(raw, len(observations))[0]:.0f} cycles/s; "
          f"host slowdown "
          f"{statistics.median(s.slowdown for s in samples):.3f} "
          f"(kernel time / {bench.CAL_REF_S} s)")
    values = {"setup_s": setup_s, "cycles_per_s": cycles_per_s,
              "jobs_per_s": jobs_per_s, "peak_rss_mb": bench.peak_rss_mb()}
    return (attempted + more_attempted, failed + more_failed,
            {name: values[name] for name in END_TO_END}, END_TO_END)


def measure_traced(workload, seed: int):
    from tracing import Tracer

    tracer = Tracer()
    values: Dict[str, float] = {}
    attempted, failed = workload.traced(tracer, values)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics {sorted(unknown)}")
    path = bench.WORK / "traces" / f"{workload.name}-{seed}.json"
    tracer.write_chrome(path)
    print_layer_report(tracer, values)
    print(f"trace: {len(tracer.spans)} spans -> {path}")
    metrics = {name: values.get(name, 0.0) for name in PER_LAYER}
    return attempted, failed, metrics, PER_LAYER


def print_layer_report(tracer, values: Dict[str, float]) -> None:
    """One row per layer: calls, total and self seconds; then the ratios
    with their bases."""
    rows: Dict[str, list] = {}
    for span in tracer.spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.seconds
        row[2] += tracer.self_seconds(span)
    print(f"{'layer':34} {'calls':>6} {'total_s':>11} {'self_s':>11}")
    for name, (calls, total, own) in rows.items():
        print(f"{name:34} {calls:6d} {total:11.5f} {own:11.5f}")
    scalar = values.get("scalar.cycles_per_s")
    for key in ("rtl.cycles_per_s", "shard.k2.cycles_per_s",
                "batch.numpy.cycles_per_s", "batch.list.cycles_per_s",
                "fleet.w2.cycles_per_s"):
        if key in values and scalar:
            print(f"{key} = {values[key]:.0f} c/s = "
                  f"{values[key] / scalar:.3f} x scalar ({scalar:.0f} c/s)")
    if "rtl.fig1_ratio" in values:
        print(f"rtl.fig1_ratio = scalar / rtl-cycle = "
              f"{values['rtl.fig1_ratio']:.3f}")
    for key in ("env.device_s", "model.self_s", "trace.setup_overhead_s",
                "trace.steady_overhead_s"):
        if key in values:
            print(f"{key} = {values[key]:.5f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench.load_repro()
    except (bench.SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    caches = bench.CacheDirs()
    try:
        workload = WORKLOADS[args.workload](args.seed, caches)
        started = time.perf_counter()
        workload.prepare()
        print(f"{workload.name}: prepared in "
              f"{time.perf_counter() - started:.2f} s")
        if args.trace:
            attempted, failed, values, units = measure_traced(workload,
                                                              args.seed)
        else:
            attempted, failed, values, units = measure(
                workload, args.seconds, args.plant_fault)
    except bench.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        caches.close()
    for note in workload.notes:
        print(f"note: {note}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

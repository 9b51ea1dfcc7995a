"""Record the references the benchmark checks against.

    python3 perfbench/record.py rv32i-primes msi8-traffic fuzz-seeds dsp-sweep

Writes ``perfbench/expected/<workload>.json``.  Every reference comes
from a backend other than the Cuttlesim compiler under test: the ``interp``
spec backend (cycles to halt, per-cycle commit counts, final states), the
RV32I golden ISA model (retired instructions) and a sieve (prime counts).
The one exception is the fuzz coverage-feature count, which is a property
of the instrumented Cuttlesim build itself; it is recorded so that a
change to it is flagged, not to judge correctness.

Re-record only when a design or the instrumentation changes on purpose;
a simulator-only change must leave every recorded value identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import bench
import inputs


def sieve_count(limit: int) -> int:
    """π(limit - 1): the number of primes strictly below ``limit``."""
    if limit < 3:
        return 0
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for n in range(2, int(limit ** 0.5) + 1):
        if flags[n]:
            flags[n * n::n] = bytearray(len(range(n * n, limit, n)))
    return sum(flags)


def record_rv32i() -> dict:
    from repro.designs.rv32.core import build_rv32i
    from repro.designs.rv32.memory import make_core_env
    from repro.riscv.assembler import assemble
    from repro.riscv.golden import GoldenModel
    from repro.riscv.programs import primes_source
    from repro.semantics.interp import Interpreter

    design = build_rv32i()
    variants = []
    for v in range(inputs.VARIANTS):
        limit = inputs.PRIMES_BASE + v
        program = assemble(primes_source(limit))
        env = make_core_env(program)
        device = env.devices[0]
        sim = Interpreter(design, env=env)
        cycles = commits = 0
        while not device.halted:
            report = sim.run_cycle()
            cycles += 1
            if cycles <= inputs.RV32_COMMIT_WINDOW:
                commits += len(report.committed)
        golden = GoldenModel(program)
        result = golden.run(max_steps=10_000_000)
        primes = sieve_count(limit)
        if device.tohost != primes or result != primes:
            raise SystemExit(f"limit {limit}: interp {device.tohost}, "
                             f"golden {result}, sieve {primes}")
        variants.append({"limit": limit, "primes": primes,
                         "cycles_to_halt": cycles,
                         "retired": golden.instructions_executed,
                         "commits_window": commits})
        print(f"rv32i-primes v{v}: {variants[-1]}", flush=True)
    return {"design": design.name, "source": "interp + GoldenModel + sieve",
            "commit_window": inputs.RV32_COMMIT_WINDOW, "variants": variants}


def record_msi8() -> dict:
    from repro.designs import make_msi
    from repro.semantics.interp import Interpreter

    design = make_msi(inputs.MSI_CORES, inputs.MSI_LINES, traffic=True)
    variants = []
    for v in range(inputs.VARIANTS):
        sim = Interpreter(design)
        for name, value in inputs.msi_lfsr_pokes(v).items():
            sim.poke(name, value)
        commits = 0
        for _ in range(inputs.MSI_EPISODE):
            commits += len(sim.run_cycle().committed)
        variants.append({"state": bench.state_digest(sim.state_dict()),
                         "commits": commits})
        print(f"msi8-traffic v{v}: {variants[-1]}", flush=True)
    return {"design": design.name, "source": "interp",
            "episode": inputs.MSI_EPISODE, "variants": variants}


def record_fuzz() -> dict:
    from repro.fuzz.executor import SeedJob, build_design, run_seed_job
    from repro.testing.differential import interpreter_trace

    jobs = []
    for seed in range(inputs.FUZZ_POOL):
        job = SeedJob(seed=seed)
        outcome = run_seed_job(job)
        if outcome["status"] != "ok":
            raise SystemExit(f"job {seed}: {outcome['status']}")
        trace = interpreter_trace(build_design(job), job.cycles)
        jobs.append({"seed": seed, "coverage": len(outcome["coverage"]),
                     "commits": sum(len(c) for c, _s in trace),
                     "cycles": job.cycles})
    print(f"fuzz-seeds: {len(jobs)} jobs", flush=True)
    return {"source": "interp (commits); instrumented O2 build (coverage)",
            "jobs": jobs}


def record_dsp() -> dict:
    from repro.designs import build_dsp
    from repro.harness.lockstep import lane_pokes
    from repro.semantics.interp import Interpreter

    design = build_dsp()
    variants = []
    for v in range(inputs.VARIANTS):
        digests, commits = [], 0
        for index, trial_seed in enumerate(inputs.dsp_trial_seeds(v)):
            sim = Interpreter(design)
            for name, value in lane_pokes(design, trial_seed).items():
                sim.poke(name, value)
            for _ in range(inputs.DSP_TRIAL_CYCLES):
                committed = sim.run_cycle().committed
                if index < COMMIT_TRIALS:
                    commits += len(committed)
            digests.append(bench.state_digest(sim.state_dict()))
        variants.append({"states": digests, "commits": commits})
        print(f"dsp-sweep v{v}: {commits} commits", flush=True)
    return {"design": design.name, "source": "interp",
            "trial_cycles": inputs.DSP_TRIAL_CYCLES,
            "commit_trials": COMMIT_TRIALS, "variants": variants}


#: dsp-sweep counts commits over the first trials of each pool.
COMMIT_TRIALS = 8

RECORDERS = {"rv32i-primes": record_rv32i, "msi8-traffic": record_msi8,
             "fuzz-seeds": record_fuzz, "dsp-sweep": record_dsp}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(RECORDERS))
    args = parser.parse_args(argv)
    bench.load_repro()
    bench.EXPECTED.mkdir(exist_ok=True)
    for workload in args.workloads:
        started = time.perf_counter()
        data = RECORDERS[workload]()
        path = bench.EXPECTED / f"{workload}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} in {time.perf_counter() - started:.0f} s",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

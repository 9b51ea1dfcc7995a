"""The four workloads.

Each workload has an untimed ``prepare`` (inputs, references, warm-up),
a ``setup`` timed several times for ``setup_s``, an ``op`` run back to
back for the steady-state rates, a ``check`` of every observation against
a reference that does not come from the Cuttlesim compiler, and a
``traced`` run that fills the per-layer metrics.

Why these four:

* rv32i-primes: the paper's Fig 1 control-heavy core; time goes to the
  generated model and the memory device it calls every cycle.
* msi8-traffic: the largest design (974 registers, 58 rules); carries the
  O5 compile cliff in its set-up and the longest steady-state run.
* fuzz-seeds: the same compile pipeline used as many tiny cold compiles,
  where fixed per-compile costs and the interpreter dominate.
* dsp-sweep: many short trials on a warm model cache, so the cache hit
  path and per-trial construction are on the measured path.
"""

from __future__ import annotations

import gc
import os
import statistics
from typing import Dict, List, Tuple
from unittest import mock

import bench
import inputs
import layers
from record import COMMIT_TRIALS, sieve_count

Check = Tuple[int, int]  # (attempted, failed)


class Workload:
    name = ""
    #: Cuttlesim optimization level of the workload's models.
    OPT = 5
    #: Keyword arguments for bench.repeat_setup.
    setup_limits: Dict[str, float] = {}

    def __init__(self, seed: int, caches: bench.CacheDirs) -> None:
        self.seed = seed
        self.caches = caches
        self.expected = bench.load_expected(self.name)
        self.notes: List[str] = []
        #: Counters of every model cache opened (the traced runs sum them).
        self.cache_stats: list = []

    def model_cache(self, path=None):
        """A cache on ``path``, or on a fresh empty directory (cold)."""
        from repro.cuttlesim.cache import ModelCache

        cache = ModelCache(path if path is not None else self.caches.fresh())
        self.cache_stats.append(cache.stats)
        return cache

    def fail(self, message: str) -> None:
        self.notes.append(message)

    def tally(self, results: List[bool]) -> Check:
        return len(results), results.count(False)

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self, rep: int):
        raise NotImplementedError

    def op(self, index: int, clock: bench.Clock) -> object:
        """One operation; times its simulation through ``clock`` and
        returns the observation to check."""
        raise NotImplementedError

    def check(self, observations: List[object]) -> Check:
        raise NotImplementedError

    def corrupt(self, observation: object) -> object:
        """The planted fault: one observed output, changed."""
        raise NotImplementedError

    def validate(self) -> Check:
        """Untimed checks beyond the per-operation ones."""
        return 0, 0

    def ops_per_op(self) -> int:
        """Operations counted by one ``op`` call."""
        return 1

    def rates(self, samples, ops: int) -> Tuple[float, float]:
        """(cycles_per_s, jobs_per_s): the median rate over timed
        intervals, so a stall of the host hits one sample rather than the
        result, and operations over the run's timed seconds."""
        seconds = sum(s.normalized for s in samples)
        return (bench.median_rate(samples),
                ops * self.ops_per_op() / seconds)

    @staticmethod
    def run_timed(clock, sim, cycles: int, segment: int) -> None:
        """``sim.run(cycles)`` as intervals of at most ``segment`` cycles,
        so the host-speed calibration keeps up with a long run."""
        while cycles > 0:
            n = min(segment, cycles)
            clock.time(lambda: sim.run(n), n)
            cycles -= n

    def traced(self, tracer, metrics: Dict[str, float]) -> Check:
        raise NotImplementedError

    def traced_setup(self, tracer, env):
        """The set-up path, one span per layer; returns (sim, source)."""
        return layers.traced_setup(tracer, self.build, self.OPT, env)

    # Shared by the traced runs: traced vs untraced set-up of one design.
    def compare_setups(self, tracer, metrics, env=None):
        """Returns (untraced simulator, traced source == untraced source).
        The traced set-up runs first and is freed before the untraced
        one, so neither runs on a heap the other filled.  The comparison
        is in normalized seconds, so host drift between the two does not
        read as tracing overhead."""
        clock = bench.Clock()
        _sim, source = clock.time(lambda: self.traced_setup(tracer, env),
                                  sample=True)
        del _sim
        gc.collect()
        sim = clock.time(lambda: self.setup(0), sample=True)
        traced, untraced = (s.normalized for s in clock.samples)
        root = [s for s in tracer.spans if s.name == "setup"][-1]
        layers_self = traced / root.seconds * sum(
            tracer.self_seconds(s) for s in tracer.spans
            if s.parent == root.id)
        metrics["trace.setup_untraced_s"] = untraced
        metrics["trace.setup_overhead_s"] = traced - untraced
        self.notes.append(
            f"setup, normalized: untraced {untraced:.4f} s, traced "
            f"{traced:.4f} s (overhead {traced - untraced:+.4f} s); layer "
            f"spans sum to {layers_self:.4f} s, "
            f"{layers_self - untraced:+.4f} s from the untraced set-up")
        same = source == type(sim).SOURCE
        if not same:
            self.fail("traced compile emitted different source")
        return sim, same


# ---------------------------------------------------------------------------

class Rv32iPrimes(Workload):
    """One operation: a fresh core runs the primes program to TOHOST.

    Runs with ``run(n)``, not the per-cycle ``run_until`` predicate: the
    halt cycle recorded from the interpreter is known, so the op runs
    ``cycles_to_halt - 1`` cycles, checks the core has not halted, runs
    one more and checks it has, with the sieve's prime count."""

    name = "rv32i-primes"
    setup_limits = {"min_reps": 3, "budget_s": 2.0}
    #: Cycles both backends run for the Fig 1 comparison row.
    RTL_WINDOW = 30_000
    #: Timed interval length within a ~2 s program run.
    SEGMENT = 20_000

    def prepare(self) -> None:
        from repro.designs.rv32.core import build_rv32i
        from repro.riscv.assembler import assemble
        from repro.riscv.programs import primes_source

        self.build = build_rv32i
        self.limit = inputs.primes_limit(self.seed)
        self.ref = self.expected["variants"][inputs.variant(self.seed)]
        self.primes = sieve_count(self.limit)
        if (self.ref["limit"], self.ref["primes"]) != (self.limit,
                                                       self.primes):
            raise bench.SetupError("expected/rv32i-primes.json does not "
                                   "match the workload inputs")
        self.halt = self.ref["cycles_to_halt"]
        self.program = assemble(primes_source(self.limit))
        self.setup(0)  # warm imports and first-call costs, untimed

    def env(self):
        from repro.designs.rv32.memory import make_core_env

        return make_core_env(self.program)

    def setup(self, rep: int):
        from repro.harness.sim import make_simulator

        design = self.build()
        sim = make_simulator(design, env=self.env(),
                             cache=self.model_cache())
        self.cls = type(sim)
        return sim

    def run_program(self, sim, env, clock=None) -> Tuple[bool, bool, object]:
        device = env.devices[0]
        if clock is None:
            sim.run(self.halt - 1)
        else:
            self.run_timed(clock, sim, self.halt - 1, self.SEGMENT)
        early = device.halted
        sim.run(1)
        return early, device.halted, device.tohost

    def op(self, index: int, clock):
        env = self.env()
        return self.run_program(self.cls(env), env, clock)

    def check(self, observations) -> Check:
        want = (False, True, self.primes)
        results = [obs == want for obs in observations]
        if not all(results):
            self.fail(f"program runs off: want {want}, got "
                      f"{[o for o in observations if o != want][:3]}")
        return self.tally(results)

    def corrupt(self, observation):
        early, halted, tohost = observation
        return early, halted, tohost + 1

    def lockstep(self) -> Tuple[bool, int]:
        """Retirement-level lockstep against the golden ISA model."""
        from repro.designs.rv32.checker import GoldenLockstep
        from repro.riscv.golden import GoldenModel

        retired = GoldenLockstep(self.cls(self.env()),
                                 GoldenModel(self.program)).run(
            max_cycles=self.halt + 1000)
        golden = GoldenModel(self.program)
        golden.run(max_steps=10 * self.halt)
        ok = retired == golden.instructions_executed == self.ref["retired"]
        if not ok:
            self.fail(f"retired {retired}, golden "
                      f"{golden.instructions_executed}, "
                      f"recorded {self.ref['retired']}")
        return ok, retired

    def validate(self) -> Check:
        try:
            ok, _retired = self.lockstep()
        except AssertionError as exc:  # LockstepMismatch
            self.fail(f"lockstep: {exc}")
            ok = False
        return self.tally([ok])

    def traced(self, tracer, metrics) -> Check:
        from repro.rtl.cycle_sim import compile_cycle_sim

        results = []
        self.cache_stats.clear()
        _sim, same = self.compare_setups(tracer, metrics, self.env())
        metrics.update(layers.compile_layer_metrics(tracer))
        results.append(same)

        # Steady state: one program run untraced, one with the device
        # hooks timed.
        clock = bench.Clock()
        obs = self.op(0, clock)
        untraced = sum(s.normalized for s in clock.samples)
        results.append(obs == (False, True, self.primes))
        env = self.env()
        sim = self.cls(env)
        timer = layers.DeviceTimer(env)
        with tracer.span("model.run", cycles=self.halt) as span:
            obs = clock.time(lambda: self.run_program(sim, env))
        timer.close()
        results.append(obs == (False, True, self.primes))
        metrics["env.device_s"] = timer.seconds
        metrics["model.self_s"] = span.seconds - timer.seconds
        metrics["trace.steady_overhead_s"] = \
            clock.samples[-1].normalized - untraced

        with tracer.span("model.commits", cycles=inputs.RV32_COMMIT_WINDOW):
            commits = layers.count_commits(self.cls(self.env()),
                                           inputs.RV32_COMMIT_WINDOW)
        results.append(commits == self.ref["commits_window"])
        metrics["model.commits_per_cycle"] = \
            commits / inputs.RV32_COMMIT_WINDOW

        # Fig 1 row: the same window on the scalar model and rtl-cycle.
        window = self.RTL_WINDOW
        with tracer.span("rtl.compile"):
            rtl_cls = compile_cycle_sim(self.build())
        runs = {}
        for label, make in (("scalar", self.cls), ("rtl", rtl_cls)):
            sim = make(self.env())
            with tracer.span(f"{label}.run", cycles=window) as span:
                sim.run(window)
            runs[label] = (span.seconds, sim.state_dict())
        results.append(runs["scalar"][1] == runs["rtl"][1])
        metrics["scalar.cycles_per_s"] = window / runs["scalar"][0]
        metrics["rtl.cycles_per_s"] = window / runs["rtl"][0]
        metrics["rtl.fig1_ratio"] = (metrics["scalar.cycles_per_s"]
                                     / metrics["rtl.cycles_per_s"])

        with tracer.span("golden.lockstep"):
            try:
                ok, retired = self.lockstep()
            except AssertionError as exc:
                self.fail(f"lockstep: {exc}")
                ok, retired = False, 0
        results.append(ok)
        metrics["sim.cycles_to_halt"] = self.halt
        metrics["sim.retired"] = retired
        metrics["sim.ipc"] = retired / self.halt
        metrics.update(layers.cache_metrics(self.cache_stats))
        return self.tally(results)


# ---------------------------------------------------------------------------

class Msi8Traffic(Workload):
    """One operation: a 10,000-cycle episode of the 8-core MSI traffic
    design on a fresh model, LFSRs seeded per variant; its final state
    must equal the interpreter's."""

    name = "msi8-traffic"
    setup_limits = {"min_reps": 3, "budget_s": 2.0, "cap_s": 15.0}
    SHARDS = 2

    def prepare(self) -> None:
        from repro.designs import make_msi
        from repro.harness.sim import make_simulator

        self.ref = self.expected["variants"][inputs.variant(self.seed)]
        self.pokes = inputs.msi_lfsr_pokes(self.seed)
        self.build = lambda: make_msi(inputs.MSI_CORES, inputs.MSI_LINES,
                                      traffic=True)
        # Warm the compiler's code paths on a small sibling design; a cold
        # compile of the real one is the thing set-up measures.
        make_simulator(make_msi(2, 4, traffic=True),
                       cache=self.model_cache())

    def setup(self, rep: int):
        from repro.harness.sim import make_simulator

        sim = make_simulator(self.build(), cache=self.model_cache())
        self.cls = type(sim)
        return sim

    def start(self, sim):
        for name, value in self.pokes.items():
            sim.poke(name, value)
        return sim

    def op(self, index: int, clock):
        sim = self.start(self.cls())
        self.run_timed(clock, sim, inputs.MSI_EPISODE, 2_000)
        return sim.state_dict()

    def check(self, observations) -> Check:
        results = [bench.state_digest(state) == self.ref["state"]
                   for state in observations]
        if not all(results):
            self.fail("episode final state differs from the interpreter's")
        return self.tally(results)

    def corrupt(self, observation):
        state = dict(observation)
        name = next(iter(state))
        state[name] ^= 1
        return state

    def traced(self, tracer, metrics) -> Check:
        from repro.shard import ShardedSimulator

        results = []
        self.cache_stats.clear()
        _sim, same = self.compare_setups(tracer, metrics)
        metrics.update(layers.compile_layer_metrics(tracer))
        results.append(same)
        warm_dir = self.caches.last

        clock = bench.Clock()
        state = self.op(0, clock)
        untraced = sum(s.normalized for s in clock.samples)
        raw = sum(s.seconds for s in clock.samples)
        results.append(bench.state_digest(state) == self.ref["state"])
        sim = self.start(self.cls())
        with tracer.span("model.run", cycles=inputs.MSI_EPISODE) as span:
            clock.time(lambda: sim.run(inputs.MSI_EPISODE))
        state = sim.state_dict()
        results.append(bench.state_digest(state) == self.ref["state"])
        metrics["env.device_s"] = 0.0  # the design needs no devices
        metrics["model.self_s"] = span.seconds
        metrics["trace.steady_overhead_s"] = \
            clock.samples[-1].normalized - untraced
        metrics["scalar.cycles_per_s"] = inputs.MSI_EPISODE / raw

        with tracer.span("model.commits", cycles=inputs.MSI_EPISODE):
            sim = self.start(self.cls())
            commits = layers.count_commits(sim, inputs.MSI_EPISODE)
        results.append(commits == self.ref["commits"])
        results.append(bench.state_digest(sim.state_dict())
                       == self.ref["state"])
        metrics["model.commits_per_cycle"] = commits / inputs.MSI_EPISODE

        # K=2 shards in process mode; the whole-design model is already in
        # the cache, so shard set-up is partitioning plus shard compiles.
        with tracer.span("shard.setup", shards=self.SHARDS) as setup_span:
            shard_sim = ShardedSimulator(
                self.build(), self.SHARDS, mode="process",
                cache=self.model_cache(warm_dir))
        try:
            self.start(shard_sim)
            with tracer.span("shard.run",
                             cycles=inputs.MSI_EPISODE) as run_span:
                shard_sim.run(inputs.MSI_EPISODE)
            state = shard_sim.state_dict()
            stats = shard_sim.stats
        finally:
            shard_sim.close()
        results.append(bench.state_digest(state) == self.ref["state"])
        metrics["shard.k2.setup_s"] = setup_span.seconds
        metrics["shard.k2.cycles_per_s"] = (inputs.MSI_EPISODE
                                            / run_span.seconds)
        metrics["shard.replay_fraction"] = stats.replay_fraction or 0.0
        metrics["shard.critical_s"] = stats.critical_seconds
        metrics["shard.wait_s"] = run_span.seconds - stats.critical_seconds
        metrics.update(layers.cache_metrics(self.cache_stats))
        return self.tally(results)


# ---------------------------------------------------------------------------

class FuzzSeeds(Workload):
    """One operation: a default SeedJob through ``run_seed_job`` with no
    model cache — interp, O0-O5, simplified O5, rtl-cycle and two
    schedule seeds, diffed against the interpreter inside the job."""

    name = "fuzz-seeds"
    setup_limits = {"min_reps": 5, "budget_s": 1.0}
    #: Jobs decomposed layer by layer in the traced run.
    TRACED_JOBS = 48

    def prepare(self) -> None:
        from repro.fuzz.executor import SeedJob, run_seed_job

        self.order = inputs.fuzz_order(self.seed)
        self.ref = {job["seed"]: job for job in self.expected["jobs"]}
        run_seed_job(SeedJob(seed=self.order[0]))  # warm-up, untimed

    def setup(self, rep: int):
        from repro.fuzz.executor import SeedJob, build_design
        from repro.harness.sim import make_simulator

        # The first pool jobs, whatever the seed, so every run times the
        # same designs.
        design = build_design(SeedJob(seed=rep % inputs.FUZZ_POOL))
        return make_simulator(design, cache=self.model_cache())

    def op(self, index: int, clock):
        from repro.fuzz.executor import SeedJob, run_seed_job

        job = SeedJob(seed=self.order[index % inputs.FUZZ_POOL])
        outcome = clock.time(lambda: run_seed_job(job), job.cycles)
        return job.seed, outcome["status"], len(outcome["coverage"])

    def check(self, observations) -> Check:
        results = [status == "ok" and
                   coverage == self.ref[seed]["coverage"]
                   for seed, status, coverage in observations]
        if not all(results):
            bad = [o for o, ok in zip(observations, results) if not ok]
            self.fail(f"jobs not ok or coverage changed: {bad[:3]}")
        return self.tally(results)

    def corrupt(self, observation):
        seed, _status, coverage = observation
        return seed, "divergence", coverage

    def rates(self, samples, ops):
        # Job sizes vary; the seed only reorders a fixed pool, so the
        # aggregate over the run is the steady figure.
        seconds = sum(s.normalized for s in samples)
        return sum(s.work for s in samples) / seconds, ops / seconds

    def traced(self, tracer, metrics) -> Check:
        from repro.fuzz.executor import SeedJob, run_seed_job

        jobs = [SeedJob(seed=s) for s in self.order[:self.TRACED_JOBS]]
        clock = bench.Clock()
        outcomes = clock.time(lambda: [run_seed_job(job) for job in jobs])
        results = [outcome["status"] == "ok" for outcome in outcomes]
        untraced = clock.samples[-1].normalized

        backends = {f"O{opt}": dict(opt=opt) for opt in jobs[0].opts}
        backends["simplified"] = dict(opt=5, simplify=True)
        features, commits, cycles = clock.time(
            lambda: self.trace_jobs(tracer, jobs, backends, results))
        # Normalize the job spans by the host speed around the traced loop.
        # The interpreter rerun inside verify.sched is work run_seed_job
        # does not do, not tracing overhead.
        loop = clock.samples[-1]
        traced_jobs = loop.normalized / loop.seconds * (
            tracer.total("fuzz.job") - tracer.total("verify.sched.reference"))
        n = len(jobs)
        metrics.update(layers.compile_layer_metrics(tracer))
        metrics["trace.steady_overhead_s"] = (traced_jobs - untraced) / n
        metrics["fuzz.job_untraced_s"] = untraced / n
        metrics["fuzz.build_s"] = tracer.total("fuzz.build") / n
        metrics["fuzz.coverage_s"] = tracer.total("fuzz.coverage") / n
        metrics["fuzz.coverage_features"] = features
        for label in ["interp", *backends, "rtl-cycle"]:
            metrics[f"verify.{label}_s"] = tracer.total(f"verify.{label}") / n
        metrics["verify.sched_s"] = sum(
            tracer.self_seconds(s) for s in tracer.spans
            if s.name == "verify.sched") / n
        metrics["model.commits_per_cycle"] = commits / cycles
        metrics["env.device_s"] = 0.0  # generated designs have no devices
        metrics["cache.hits"] = metrics["cache.misses"] = 0  # cache=None
        return self.tally(results)

    def trace_jobs(self, tracer, jobs, backends, results):
        """Each job layer by layer: its fuzz and verify steps, then the O5
        compile of its design.  Appends every check to ``results``;
        returns (coverage features, commits, cycles) summed over jobs."""
        from repro.cuttlesim.codegen import compile_model
        from repro.fuzz import executor
        from repro.fuzz.executor import (build_design, coverage_features,
                                         verify_design)
        from repro.rtl.cycle_sim import compile_cycle_sim
        from repro.testing.differential import (collect_trace,
                                                interpreter_trace)

        features = commits = cycles = 0
        for job in jobs:
            with tracer.span("fuzz.job", seed=job.seed):
                with tracer.span("fuzz.build"):
                    design = build_design(job)
                with tracer.span("fuzz.coverage"):
                    feats = coverage_features(design, job.cycles)
                features += len(feats)
                results.append(len(feats) == self.ref[job.seed]["coverage"])
                registers = list(design.registers)
                with tracer.span("verify.interp"):
                    reference = interpreter_trace(design, job.cycles)
                for label, kwargs in backends.items():
                    with tracer.span(f"verify.{label}"):
                        cls = compile_model(design, warn_goldberg=False,
                                            **kwargs)
                        trace = collect_trace(cls(), registers, job.cycles)
                    results.append(_same_trace(design, label, trace,
                                               reference, registers))
                with tracer.span("verify.rtl-cycle"):
                    trace = collect_trace(compile_cycle_sim(design)(),
                                          registers, job.cycles)
                results.append(_same_trace(design, "rtl-cycle", trace,
                                           reference, registers))
                # verify_design first reruns the interpreter reference that
                # run_seed_job computes once; that rerun gets a child span,
                # so verify.sched's self time is the schedule replays alone
                # and the rerun can be taken out of the tracing overhead.
                with tracer.span("verify.sched"), mock.patch.object(
                        executor, "interpreter_trace",
                        self.spanned(tracer, "verify.sched.reference",
                                     interpreter_trace)):
                    try:
                        verify_design(design, cycles=job.cycles, opts=(),
                                      include_rtl=False,
                                      include_simplified=False,
                                      schedule_seeds=job.schedule_seeds)
                        results.append(True)
                    except AssertionError as exc:
                        self.fail(f"schedule replay: {exc}")
                        results.append(False)
            # The O5 compile of the same design, layer by layer.
            sim, _source = layers.traced_setup(
                tracer, lambda job=job: build_design(job), 5)
            job_commits = layers.count_commits(sim, job.cycles)
            results.append(job_commits == self.ref[job.seed]["commits"])
            commits += job_commits
            cycles += job.cycles
        return features, commits, cycles

    @staticmethod
    def spanned(tracer, name, fn):
        def wrapped(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapped


def _same_trace(design, label, trace, reference, registers) -> bool:
    from repro.testing.differential import DivergenceError, compare_traces

    try:
        compare_traces(design.name, label, trace, reference, registers)
    except DivergenceError:
        return False
    return True


# ---------------------------------------------------------------------------

class DspSweep(Workload):
    """One operation: 8 trials of 2,000 cycles of the dsp stream design
    through ``per_process_baseline(workers=1)`` — the in-process scalar O2
    path — on a warm model cache.  Every trial's final state must equal the
    interpreter's from the same ``lane_pokes``."""

    name = "dsp-sweep"
    setup_limits = {"min_reps": 5, "max_reps": 100, "budget_s": 1.0}
    OPT = 2  # per_process_baseline's level
    BATCH = 32
    FLEET_WORKERS = 2

    def prepare(self) -> None:
        from repro.designs import build_dsp
        from repro.cuttlesim.codegen import compile_model

        self.ref = self.expected["variants"][inputs.variant(self.seed)]
        if (self.expected["trial_cycles"], len(self.ref["states"])) != (
                inputs.DSP_TRIAL_CYCLES, inputs.DSP_POOL):
            raise bench.SetupError("expected/dsp-sweep.json does not match "
                                   "the workload inputs")
        self.trial_seeds = inputs.dsp_trial_seeds(self.seed)
        self.build = build_dsp
        self.design = build_dsp()
        self.warm_dir = self.caches.fresh()
        compile_model(self.design, opt=self.OPT, warn_goldberg=False,
                      cache=self.model_cache(self.warm_dir))
        self.setup(0)  # warm-up, untimed
        self.cache = self.model_cache(self.warm_dir)

    def setup(self, rep: int):
        from repro.harness.sim import make_simulator

        return make_simulator(self.build(), opt=self.OPT,
                              cache=self.model_cache(self.warm_dir))

    def traced_setup(self, tracer, env):
        """The warm path: elaborate, load from the cache, instantiate."""
        from repro.cuttlesim.codegen import compile_model

        with tracer.span("setup", opt=self.OPT):
            with tracer.span("koika.elaborate"):
                design = self.build()
            with tracer.span("cache.hit_load"):
                cls = compile_model(design, opt=self.OPT, warn_goldberg=False,
                                    cache=self.model_cache(self.warm_dir))
            with tracer.span("model.instantiate"):
                sim = cls(env)
        return sim, cls.SOURCE

    def ops_per_op(self) -> int:
        return inputs.DSP_CHUNK

    def sweep(self, first: int, trials: int, **kwargs):
        from repro.harness.lockstep import per_process_baseline

        kwargs.setdefault("workers", 1)
        kwargs.setdefault("cache", self.cache)
        report = per_process_baseline(
            self.design, trials, inputs.DSP_TRIAL_CYCLES,
            seed=self.trial_seeds[first], **kwargs)
        return [(first + k, r.status, r.observation)
                for k, r in enumerate(report.results)]

    def op(self, index: int, clock):
        chunks = inputs.DSP_POOL // inputs.DSP_CHUNK
        first = (index % chunks) * inputs.DSP_CHUNK
        return clock.time(lambda: self.sweep(first, inputs.DSP_CHUNK),
                          inputs.DSP_CHUNK * inputs.DSP_TRIAL_CYCLES)

    def trial_ok(self, trial) -> bool:
        index, status, state = trial
        return status == "ok" and \
            bench.state_digest(state) == self.ref["states"][index]

    def check(self, observations) -> Check:
        results = [self.trial_ok(t) for chunk in observations for t in chunk]
        if not all(results):
            self.fail(f"{results.count(False)} trials differ from the "
                      f"interpreter")
        return self.tally(results)

    def corrupt(self, observation):
        (index, status, state), *rest = observation
        state = dict(state)
        state["snk_sum"] = state.get("snk_sum", 0) ^ 1
        return [(index, status, state), *rest]

    def traced(self, tracer, metrics) -> Check:
        from repro.cuttlesim.batch import compile_batch_model
        from repro.harness.lockstep import lockstep_sweep

        results = []
        self.cache_stats[:] = [self.cache.stats]
        model, same = self.compare_setups(tracer, metrics)
        results.append(same)
        for _ in range(4):
            self.traced_setup(tracer, None)
        loads = [s.seconds for s in tracer.spans if s.name == "cache.hit_load"]
        # The cold compile a miss would cost, layer by layer, for the
        # compile-layer rows; its source must match the cached one.
        _sim, source = layers.traced_setup(tracer, self.build, self.OPT,
                                           name="cold-compile")
        results.append(source == type(model).SOURCE)
        metrics.update(layers.compile_layer_metrics(tracer, "cold-compile"))

        pool = inputs.DSP_POOL
        cycles = pool * inputs.DSP_TRIAL_CYCLES
        clock = bench.Clock()
        trials = clock.time(lambda: self.sweep(0, pool))
        results += [self.trial_ok(t) for t in trials]
        with tracer.span("model.run", trials=pool) as span:
            trials = clock.time(lambda: self.sweep(0, pool))
        results += [self.trial_ok(t) for t in trials]
        untraced, traced = clock.samples
        metrics["scalar.cycles_per_s"] = cycles / untraced.seconds
        metrics["model.self_s"] = span.seconds
        metrics["env.device_s"] = 0.0  # the trials have no devices
        metrics["trace.steady_overhead_s"] = (traced.normalized
                                              - untraced.normalized)

        with tracer.span("model.commits", trials=COMMIT_TRIALS):
            from repro.harness.lockstep import lane_pokes

            commits = 0
            for seed in self.trial_seeds[:COMMIT_TRIALS]:
                sim = type(model)()
                for name, value in lane_pokes(self.design, seed).items():
                    sim.poke(name, value)
                commits += layers.count_commits(sim,
                                                inputs.DSP_TRIAL_CYCLES)
        results.append(commits == self.ref["commits"])
        metrics["model.commits_per_cycle"] = commits / (
            COMMIT_TRIALS * inputs.DSP_TRIAL_CYCLES)

        # Lane tiers on the same trials, byte-compared via the recorded
        # interpreter states.
        for backend in ("numpy", "list"):
            cache = self.model_cache()
            with tracer.span(f"batch.{backend}.compile") as span:
                compile_batch_model(self.design, self.BATCH, backend=backend,
                                    cache=cache)
            if backend == "numpy":
                metrics["batch.compile_s"] = span.seconds
            with tracer.span(f"batch.{backend}.run", trials=pool) as span:
                report = lockstep_sweep(
                    self.design, pool, inputs.DSP_TRIAL_CYCLES,
                    batch=self.BATCH, seed=self.trial_seeds[0],
                    backend=backend, cache=cache)
            results += [self.trial_ok((k, r.status, r.observation))
                        for k, r in enumerate(report.results)]
            metrics[f"batch.{backend}.cycles_per_s"] = cycles / span.seconds

        workers = min(self.FLEET_WORKERS, os.cpu_count() or 1)
        with tracer.span("fleet.run", workers=workers) as span:
            trials = self.sweep(0, pool, workers=workers)
        results += [self.trial_ok(t) for t in trials]
        metrics["fleet.w2.cycles_per_s"] = cycles / span.seconds
        metrics.update(layers.cache_metrics(
            self.cache_stats, hit_load_s=statistics.median(loads)))
        return self.tally(results)


WORKLOADS = {cls.name: cls for cls in
             (Rv32iPrimes, Msi8Traffic, FuzzSeeds, DspSweep)}

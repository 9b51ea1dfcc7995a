"""Traced calls into the program's layers, timed from outside.

``traced_setup`` rebuilds what ``make_simulator`` does for a cold
Cuttlesim compile, one public layer function at a time, so each layer
gets its own span: elaborate, analyze, lower, every pass of the
pipeline, emit, Python ``compile`` + ``exec``, instantiate.
``DeviceTimer`` wraps a device's cycle hooks to time the environment.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional
from unittest import mock

from tracing import Tracer


def count_stmts(module) -> int:
    from repro.cuttlesim import ir

    bodies = [rule.body for rule in module.rules]
    bodies += [fn.body for fn in module.fns]
    return sum(1 for body in bodies for _ in ir.walk_stmts(body))


def traced_setup(tracer: Tracer, build: Callable[[], object], opt: int,
                 env=None, name: str = "setup"):
    """Elaborate and compile a design layer by layer; return
    (simulator, generated source).

    The generated source must equal ``compile_model``'s byte for byte
    (callers check it), which proves the traced path did the same work as
    the untraced one."""
    from repro.analysis.abstract import analyze
    from repro.cuttlesim import codegen
    from repro.cuttlesim.model import ModelBase
    from repro.cuttlesim.passes import (LOWER, PASSES, lower_design,
                                        pipeline_for)

    with tracer.span(name, opt=opt):
        with tracer.span("koika.elaborate"):
            design = build()
            if not design.finalized:
                design.finalize()
        analysis = None
        if opt >= 5:
            with tracer.span("analysis.analyze"):
                analysis = analyze(design)
        module = None
        for pass_name in pipeline_for(opt):
            with tracer.span(f"passes.{pass_name}") as span:
                if pass_name == LOWER:
                    module = lower_design(design, opt)
                    module.analysis = analysis
                else:
                    PASSES[pass_name].fn(module)
            module.applied.append(pass_name)
            span.args["stmts"] = count_stmts(module)
        # generate_source would rerun the pipeline; hand it the module the
        # passes above produced so this span times emission alone.
        with mock.patch.object(codegen, "run_pipeline",
                               lambda *_a, **_k: module):
            with tracer.span("codegen.emit") as span:
                source, _meta = codegen.generate_source(
                    design, opt=opt, analysis=analysis)
        span.args["source_lines"] = source.count("\n")
        with tracer.span("codegen.pycompile"):
            namespace: Dict[str, object] = {"ModelBase": ModelBase}
            exec(compile(source, f"<perfbench:{design.name}>", "exec"),
                 namespace)
        with tracer.span("model.instantiate"):
            sim = namespace["Model"](env)
    return sim, source


def compile_layer_metrics(tracer: Tracer, root: str = "setup"
                          ) -> Dict[str, float]:
    """Per-layer compile metrics from the children of the ``root`` spans
    ``traced_setup`` recorded, as a mean per set-up when there were
    several (fuzz-seeds)."""
    from repro.cuttlesim.passes import pipeline_for

    roots = {s.id for s in tracer.spans if s.name == root}
    spans = [s for s in tracer.spans if s.parent in roots]

    def total(name: str, key: str = "") -> float:
        return sum(s.args[key] if key else s.seconds
                   for s in spans if s.name == name)

    metrics: Dict[str, float] = {
        "koika.elaborate_s": total("koika.elaborate"),
        "analysis.analyze_s": total("analysis.analyze"),
        "codegen.emit_s": total("codegen.emit"),
        "codegen.source_lines": total("codegen.emit", "source_lines"),
        "codegen.pycompile_s": total("codegen.pycompile"),
        "model.instantiate_s": total("model.instantiate"),
    }
    for pass_name in pipeline_for(5):
        metrics[f"passes.{pass_name}_s"] = total(f"passes.{pass_name}")
        metrics[f"passes.{pass_name}.stmts"] = total(f"passes.{pass_name}",
                                                     "stmts")
    return {key: value / len(roots) for key, value in metrics.items()}


class DeviceTimer:
    """Time every device's ``before_cycle``/``after_cycle`` by shadowing
    the bound methods on the instances; ``close`` restores them."""

    def __init__(self, env) -> None:
        self.seconds = 0.0
        self._devices = list(env.devices)
        for device in self._devices:
            for hook in ("before_cycle", "after_cycle"):
                setattr(device, hook, self._wrap(getattr(device, hook)))

    def _wrap(self, method):
        clock = time.perf_counter

        def timed(sim):
            started = clock()
            method(sim)
            self.seconds += clock() - started

        return timed

    def close(self) -> None:
        for device in self._devices:
            for hook in ("before_cycle", "after_cycle"):
                device.__dict__.pop(hook, None)


def count_commits(sim, cycles: int) -> int:
    """Rules committed over ``cycles`` cycles of ``run_cycle()``."""
    return sum(len(sim.run_cycle()) for _ in range(cycles))


def cache_metrics(stats, hit_load_s: Optional[float] = None
                  ) -> Dict[str, float]:
    hits = sum(s.hits for s in stats)
    misses = sum(s.misses for s in stats)
    return {"cache.hits": hits, "cache.misses": misses,
            "cache.hit_load_s": hit_load_s or 0.0}

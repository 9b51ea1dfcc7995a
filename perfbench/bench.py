"""Shared plumbing: import the program from the checkout, own the caches,
time things, and fingerprint simulated state."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
#: Scratch space inside the checkout: model caches and trace files.
WORK = ROOT / ".perfbench"


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, no reference)."""


def load_repro() -> None:
    """Put the checkout's ``src`` first on the path and prove that
    ``repro`` is imported from there, never from an installed copy.

    ``REPRO_MODEL_CACHE=off`` keeps the shared default cache off disk, so
    nothing reads ``~/.cache/repro/models`` or the caller's cache
    directory; every cache the benchmark uses is one it created."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no program to benchmark: {package} is missing")
    os.environ["REPRO_MODEL_CACHE"] = "off"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SetupError(f"repro was imported from {repro.__file__}, "
                         f"not from {package}")


def load_expected(workload: str) -> dict:
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        raise SetupError(f"no recorded reference {path}; run record.py")
    return json.loads(path.read_text())


def state_digest(state: Dict[str, int]) -> str:
    """Order-independent fingerprint of a register-name -> value map."""
    text = json.dumps(sorted((name, int(value))
                             for name, value in state.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CacheDirs:
    """Model-cache directories owned by one benchmark run; removed on
    close.  ``fresh()`` is an empty directory (a cold cache)."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="caches-", dir=WORK))
        self._count = 0
        self.last = self.root

    def fresh(self) -> Path:
        self._count += 1
        self.last = self.root / f"c{self._count}"
        self.last.mkdir()
        return self.last

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


#: Seconds ``calibrate`` takes on the host the bounds were set on.  Only
#: the scale of the normalized figures depends on it.
CAL_REF_S = 0.003


def _calibration_kernel(n: int = 20_000) -> int:
    table = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 255] = acc
    return acc


def calibrate(seconds: float = 0.0) -> float:
    """Host seconds per run of a fixed pure-Python kernel, run at least
    once and until ``seconds`` have passed.

    Shared virtual machines change speed by 10-20% over seconds to
    minutes, in CPU time as much as in wall time, which swamps the
    differences the benchmark is meant to catch.  Every timed interval
    is bracketed by this kernel and divided by how slow the host was
    around it (see ``Sample``), which cancels the drift: the figures read
    as if the host ran the kernel in ``CAL_REF_S``."""
    started = time.perf_counter()
    runs = 0
    while True:
        _calibration_kernel()
        runs += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return elapsed / runs


class Sample(NamedTuple):
    """One timed interval."""

    seconds: float   # raw host seconds
    work: int        # simulated cycles (0 for a set-up)
    slowdown: float  # mean kernel time around it / CAL_REF_S

    @property
    def normalized(self) -> float:
        return self.seconds / self.slowdown


class _Ticker:
    """Runs the calibration kernel once every ``period`` seconds of an
    interval, from a SIGALRM handler, and records how long each run took.

    The host's speed also wanders within a long interval (a 24 s compile),
    so kernel runs before and after it do not say how fast the host ran
    during it.  The kernel runs cost ~0.6% of the interval and are
    subtracted from it."""

    def __init__(self, period: float = 0.5) -> None:
        self.period = period
        self.runs: List[float] = []

    def _tick(self, _signum, _frame) -> None:
        started = time.perf_counter()
        _calibration_kernel()
        self.runs.append(time.perf_counter() - started)

    def __enter__(self) -> "_Ticker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Clock:
    """Times intervals, each bracketed by the calibration kernel.

    The host's speed wanders within a second, so one 3 ms kernel run is a
    fair sample next to a short interval but not for a 20 s compile; the
    kernel runs for 2% of the interval it follows (up to half a second).
    With ``sample=True`` it also runs every half second inside the
    interval (see ``_Ticker``), which is what long set-ups use."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._kernel = calibrate(0.1)

    def time(self, fn: Callable[[], object], work: int = 0,
             sample: bool = False):
        """Run ``fn()`` as one timed interval of ``work`` simulated
        cycles; return its result."""
        ticker = _Ticker()
        started = time.perf_counter()
        with ticker if sample else contextlib.nullcontext():
            result = fn()
        seconds = time.perf_counter() - started - sum(ticker.runs)
        after = calibrate(min(0.5, 0.02 * seconds))
        kernel = statistics.mean([self._kernel, after, *ticker.runs])
        self.samples.append(Sample(seconds, work, kernel / CAL_REF_S))
        self._kernel = after
        return result


def repeat_setup(fn: Callable[[int], object], min_reps: int = 3,
                 max_reps: int = 25, budget_s: float = 2.0,
                 cap_s: float = 20.0) -> Tuple[float, List[Sample]]:
    """Time ``fn(rep)`` several times; return (median normalized
    seconds, samples).

    Cheap set-ups repeat until ``budget_s`` is spent (at least
    ``min_reps``, at most ``max_reps``); one slower than ``cap_s`` runs
    once, so a compile cliff costs one sample, not three."""
    clock = Clock()
    samples = clock.samples
    while True:
        # Each set-up leaves a model class in reference cycles; collect
        # them untimed so every rep starts from the same heap.
        gc.collect()
        clock.time(lambda: fn(len(samples)), sample=True)
        spent = sum(s.seconds for s in samples)
        if len(samples) >= max_reps or spent >= cap_s:
            break
        if len(samples) >= min_reps and spent >= budget_s:
            break
    return statistics.median(s.normalized for s in samples), samples


def timed_ops(op: Callable[[int, Clock], object], seconds: float
              ) -> Tuple[List[Sample], List[object]]:
    """Run ``op(i, clock)`` back to back for ``seconds``.

    The op times its own simulation through ``clock.time`` and returns
    its observation, checked later, untimed.  Returns the timed
    intervals and the observations."""
    clock = Clock()
    observations: List[object] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        observations.append(op(len(observations), clock))
    return clock.samples, observations


def median_rate(samples: List[Sample]) -> float:
    """Median over intervals of simulated cycles per normalized second."""
    return statistics.median(s.work / s.normalized for s in samples)

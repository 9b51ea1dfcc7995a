"""Workload inputs, derived from ``--seed`` alone.

Every workload maps the seed onto one of :data:`VARIANTS` input variants,
so that a reference recorded once per variant from the spec backends
(``record.py`` writes ``expected/<workload>.json``) covers every seed the
benchmark can be given.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List

#: Input variants per workload; ``variant = seed % VARIANTS``.
VARIANTS = 8

# -- rv32i-primes -------------------------------------------------------------
#: The Fig 1 core counts primes below ``PRIMES_BASE + variant`` by trial
#: division.  No limit in 200..207 is prime, so every variant halts within
#: 3% of primes_source(200)'s 162,509 cycles and programs per second stays
#: comparable across seeds.
PRIMES_BASE = 200
#: Cycles of the first program run counted with ``run_cycle()`` for
#: ``model.commits_per_cycle``.
RV32_COMMIT_WINDOW = 20_000

# -- msi8-traffic -------------------------------------------------------------
MSI_CORES = 8
MSI_LINES = 32
#: One operation is an episode of this many cycles on a fresh model whose
#: per-core traffic LFSRs start from the variant's seeds; its final state
#: is compared with the interpreter's.
MSI_EPISODE = 10_000

# -- fuzz-seeds ---------------------------------------------------------------
#: The fixed range of default SeedJob seeds; ``--seed`` only picks the
#: order they run in, so every run does the same mix of job sizes.
FUZZ_POOL = 96

# -- dsp-sweep ----------------------------------------------------------------
#: Trials per variant pool and cycles per trial.  Trial ``j`` of a run is
#: pool trial ``j % DSP_POOL``; each starts from ``lane_pokes``.  A trial
#: is 2,000 cycles, the default sweep length of ``repro parallel``;
#: building a trial (model instance plus pokes) costs about 80 us, 0.25%
#: of a trial's time at this length.
DSP_POOL = 64
DSP_TRIAL_CYCLES = 2_000
#: Trials per ``per_process_baseline`` call (one timed operation, ~0.25 s).
DSP_CHUNK = 8


def variant(seed: int) -> int:
    return seed % VARIANTS


def primes_limit(seed: int) -> int:
    return PRIMES_BASE + variant(seed)


def msi_lfsr_pokes(seed: int) -> Dict[str, int]:
    """Nonzero 16-bit start states for every core's traffic LFSR."""
    rng = random.Random(0x4D5349 ^ (variant(seed) * 2654435761))
    return {f"c{i}_lfsr": rng.randrange(1, 1 << 16)
            for i in range(MSI_CORES)}


def fuzz_order(seed: int) -> List[int]:
    order = list(range(FUZZ_POOL))
    random.Random(0xF022 ^ seed).shuffle(order)
    return order


def dsp_trial_seeds(seed: int) -> List[int]:
    """The ``lane_pokes`` trial seeds of the variant's pool."""
    base = 1_000_003 * (variant(seed) + 1)
    return [base + j for j in range(DSP_POOL)]

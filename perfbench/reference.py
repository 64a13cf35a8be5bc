"""A fixed reference kernel that tells how fast the host is running right now.

On a shared host the same code runs at speeds that differ by up to half,
changing within seconds and lasting up to minutes, as neighbours load the
machine. The benchmark times this kernel between calls, at least every
REF_INTERVAL_S, and rescales each call's wall time by NOMINAL_S over the
mean of the samples taken just before and just after it: it reports times
at the speed at which one sample lasts NOMINAL_S. Samples further away track
the speed during the call less well, and a run-wide factor lets one stray
sample move every call of the run.

The kernel does the three kinds of work the program does, in about the
proportions the workloads do: an interpreted loop of modular additions and
set lookups, shift/AND/popcount on integer bitmasks a few thousand bits
wide, and a small numpy array expression. Its inputs are fixed; it does not
import or call the program, so no change to the program changes it.
"""

import random
import time

import numpy as np

NOMINAL_S = 0.0021  # one sample at the reference speed (about this host's usual)
REF_INTERVAL_S = 0.1  # least wall time between samples in a run
REPEATS = 3  # kernel runs per sample

_rng = random.Random(0)
_P = 1009
_A = _rng.sample(range(_P), 48)
_B = _rng.sample(range(_P), 48)
_MEMBERS = frozenset(_B)
_WIDTH = 8192
_BITS = _rng.getrandbits(_WIDTH)
_ARRAY = np.arange(4096, dtype=np.int64)


def kernel() -> int:
    hits = 0
    for x in _A:
        for y in _B:
            if (x + y) % _P in _MEMBERS:
                hits += 1
    bits = _BITS
    for shift in range(1, 193):
        hits += ((bits << shift | bits >> (_WIDTH - shift)) & bits).bit_count()
    return hits + int((_ARRAY * 3 % 7).sum())


def sample() -> float:
    """Wall seconds for REPEATS runs of the kernel, after one untimed run that
    brings its code and data back into the caches the program's calls used."""
    kernel()
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return time.perf_counter() - start


def rescale(latencies, samples, sampled_at) -> list:
    """``latencies`` (wall seconds) in seconds at the reference speed.

    ``samples[i]`` was taken after ``sampled_at[i]`` calls had ended; there
    must be a sample before the first call and one after the last.
    """
    out = []
    j = 0
    for i, latency in enumerate(latencies):
        while sampled_at[j + 1] <= i:
            j += 1
        out.append(latency * 2 * NOMINAL_S / (samples[j] + samples[j + 1]))
    return out

"""Seeded randomized cross-checking of counts, identities and inequalities.

One trial draws random cardinalities s, t and random sets A, B in Z_p, then
runs every check that is valid for that modulus:

* four-way agreement of the counting methods (any group),
* the complement identity r(A,B,B) + r(A',B',B') = st - s(p-t) + (p-t)^2
  (any group),
* the sumset inequality, the layer inequalities at every admissible j, and
  the bound sandwich f <= r <= g (prime p only; all three can genuinely
  fail for composite moduli, so they are gated, not merely expected to pass).

The random stream is fully determined by the seed and the order of the
moduli, so a failure report names a reproducible witness. A trial draws s
and t with ``rng.randint``, then A and B from exactly the words
``rng.sample(range(p), k)`` would read (see :func:`_random_set`), so a seed
replays the same trials as when the sets were drawn by ``rng.sample``. Each
drawn set takes its member array from its draw, so it is never unpacked.

A trial counts its pair once per route. The naive count and the
representation counts N(c) each take their own kernel in :mod:`counting`;
the layer count and the layer inequalities both read that one N(c), and the
shift and convolution counts go their own ways.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from math import ceil, log

from . import bounds, counting
from .residues import DomainError, NumpyOnFirstUse, ResidueSet, check_modulus, is_prime

np = NumpyOnFirstUse(globals())  # numpy is imported on first use

PRIME_ONLY_CHECKS = ("sumset-inequality", "layer-inequalities", "bound-sandwich")

# A trial's counts cost O(p^2) in the worst case, so each doubling of p
# multiplies it by about 4. The costliest trial at this cap (s = t = p - 1,
# p = 32749) took 1.4-1.7 s and 32 MB peak RSS on a 2-vCPU Xeon VM with
# numpy 2.4. Best of three, the naive count took 0.85 s gathering windows of
# B's indicator, N(c) 0.17 s summing windows, the shift count 0.18 s of
# bitmask popcounts and the schoolbook np.convolve 0.18 s.
_MAX_MODULUS = 2**15


@dataclass(frozen=True)
class Violation:
    p: int
    trial: int
    check: str
    detail: str
    set_a: tuple[int, ...]
    set_b: tuple[int, ...]


@dataclass
class ModulusSummary:
    p: int
    prime: bool
    trials: int
    checks: dict[str, int] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()
    violations: list[Violation] = field(default_factory=list)


@dataclass
class VerifyReport:
    seed: int
    trials: int
    moduli: list[ModulusSummary]
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(not m.violations for m in self.moduli)

    def first_violation(self) -> Violation | None:
        for m in self.moduli:
            if m.violations:
                return m.violations[0]
        return None


def _random_set(rng: random.Random, p: int, size: int) -> ResidueSet:
    """``size`` distinct residues drawn as ``rng.sample(range(p), size)`` draws them.

    This is CPython's ``sample`` run inline on ``rng.getrandbits``: the same
    branch (a pool of all p residues when p <= setsize, else rejection
    against the residues drawn so far) and each index as ``_randbelow(m)``
    takes it, one ``getrandbits(m.bit_length())`` until it is below m. So it
    reads the words ``rng.sample`` would read, in the same order, and every
    seed replays the same sets and leaves the generator in the same state.
    The draws land in a bool indicator, which gives the set both its bitmask
    and its member array, so the set is never unpacked.
    """
    getrandbits = rng.getrandbits
    setsize = 21
    if size > 5:
        setsize += 4 ** ceil(log(size * 3, 4))
    if p <= setsize:
        # the swap moves an unchosen residue into each vacancy, so once m has
        # run down from p to p - size, pool[:p - size] are the residues left
        pool = list(range(p))
        top, rest = p, p - size
        while top > rest:
            b = top.bit_length()
            low = max(rest, (1 << (b - 1)) - 1)  # every m in (low, top] has b bits
            for m in range(top, low, -1):
                j = getrandbits(b)
                while j >= m:
                    j = getrandbits(b)
                pool[j] = pool[m - 1]
            top = low
        flags = np.empty(p, dtype=bool)
        flags.fill(True)  # the method np.ones wraps
        flags[pool[:rest]] = False
    else:
        b = p.bit_length()
        chosen: set[int] = set()
        add = chosen.add
        while len(chosen) < size:  # a repeat is one more rejected index, as in sample
            j = getrandbits(b)
            if j < p:
                add(j)
        flags = np.zeros(p, dtype=bool)
        flags[list(chosen)] = True
    return ResidueSet._from_indicator(p, flags)


def _random_pair(rng: random.Random, p: int) -> tuple[ResidueSet, ResidueSet]:
    # the draw order s, t, A, B is the seeded stream every report reproduces
    s = rng.randint(1, p - 1)
    t = rng.randint(1, p - 1)
    a = _random_set(rng, p, s)
    b = _random_set(rng, p, t)
    return a, b


def _check_modulus(p: int, trials: int, rng: random.Random) -> ModulusSummary:
    prime = is_prime(p)
    summary = ModulusSummary(p=p, prime=prime, trials=trials)
    if not prime:
        summary.skipped = PRIME_ONLY_CHECKS
    tally: Counter[str] = Counter()

    def fail(trial, check, detail, a, b):
        summary.violations.append(
            Violation(p, trial, check, detail, a.elements(), b.elements())
        )

    for trial in range(trials):
        a, b = _random_pair(rng, p)
        s, t = a.cardinality, b.cardinality

        r = counting.count_naive(a, b)
        counts = counting.representation_counts(a, b)
        others = {
            "shift": counting.count_shift(a, b),
            "layers": counting.count_layers_from_counts(counts, b),
            "convolution": counting.count_convolution(a, b),
        }
        tally["four-way-agreement"] += 1
        if any(v != r for v in others.values()):
            fail(trial, "four-way-agreement", f"naive={r}, {others}", a, b)
            continue

        rhs = counting.complement_identity_rhs(p, s, t)
        comp = counting.count_shift(a.complement(), b.complement())
        tally["complement-identity"] += 1
        if r + comp != rhs:
            fail(trial, "complement-identity", f"{r} + {comp} != {rhs}", a, b)

        if not prime:
            continue

        cd = bounds.cauchy_davenport_check(a, b)
        tally["sumset-inequality"] += 1
        if not cd.holds:
            fail(trial, "sumset-inequality", f"|A+B|={cd.lhs} < {cd.rhs}", a, b)

        tally["layer-inequalities"] += 1
        lhs, rhs = bounds.pollard_sides(p, s, t, counting.sizes_at_least(counts))
        failing = (lhs < rhs).nonzero()[0]
        if failing.size:
            j = int(failing[0])
            fail(trial, "layer-inequalities", f"j={j + 1}: {lhs[j]} < {rhs[j]}", a, b)

        interval = bounds.bounds_for(p, s, t)
        f, g = interval.f, interval.g
        tally["bound-sandwich"] += 1
        if not f <= r <= g:
            fail(trial, "bound-sandwich", f"r={r} outside [{f}, {g}]", a, b)

    summary.checks = dict(tally)
    return summary


def run_verification(p_values: list[int], trials: int, seed: int) -> VerifyReport:
    """Run ``trials`` random-pair checks for each modulus, in order, from one seed.

    Every modulus must be at most 2^15; all are checked before the first draw.
    """
    p_values = [check_modulus(p) for p in p_values]
    for p in p_values:
        if p > _MAX_MODULUS:
            raise DomainError(f"verify needs moduli at most 2^15 = {_MAX_MODULUS}, got p={p}")
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    started = time.perf_counter()
    rng = random.Random(seed)
    report = VerifyReport(seed=seed, trials=trials, moduli=[])
    for p in p_values:
        report.moduli.append(_check_modulus(p, trials, rng))
    report.elapsed = time.perf_counter() - started
    return report

"""Attained-value spectra of r(A, B, B) for fixed (p, s, t).

Three modes with very different costs:

* ``exhaustive``        - every pair |A| = s, |B| = t; the ground truth.
* ``fixed-interval-B``  - all C(p,s) sets A against B = {0..t-1}.
* ``multiset-dp``       - no enumeration at all: the same engine run on
  the interval's overlap profile alone, which by the selection equivalence
  must reproduce the fixed-interval spectrum.

The engine: r(A, B, B) = sum over a in A of |(a + B) n B|, so the values
over all A are the exactly-s selection sums of B's overlap multiset
(bounded-multiplicity subset-sum DP over its histogram). Translating B
changes no count, so ``exhaustive`` visits only the B that contain 0 and
runs the DP once per distinct histogram.

Reports record the attained values, the closed-form interval [f, g], the
gaps inside it and any exceptional values outside it. For prime p there are
provably no gaps and no exceptions; for composite odd p exceptions exist
(the scanner below hunts for them). An exhaustive witness takes the lex-first
t-set B containing 0 that attains the value, then the lex-first s-set A for
that B, and is recounted by the naive counting oracle before it is returned.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from . import counting
from .bounds import lower_bound, schur_lower_bound, schur_upper_bound, upper_bound
from .construction import build_shift_profile, shift_overlap
from .residues import DomainError, Params, ResidueSet, VerificationError, bit_positions, is_prime, make_set

DEFAULT_PAIR_BUDGET = 10**8

Witness = tuple[tuple[int, ...], tuple[int, ...]]


class BudgetExceededError(RuntimeError):
    """Estimated enumeration cost exceeds the configured budget."""

    def __init__(self, estimated: int, budget: int):
        super().__init__(f"estimated cost {estimated} exceeds budget {budget}")
        self.estimated = estimated
        self.budget = budget


def _check_budget(cost: int, budget: int) -> None:
    """Reject a budget below 1, then refuse a call whose estimated cost exceeds it."""
    if budget < 1:
        raise DomainError(f"budget must be at least 1, got {budget}")
    if cost > budget:
        raise BudgetExceededError(cost, budget)


@dataclass(frozen=True)
class SpectrumReport:
    """Attained values for one instance, with bounds, gaps and exceptions."""

    p: int
    s: int
    t: int
    mode: str
    attained: tuple[int, ...]
    f: int
    g: int
    gaps: tuple[int, ...]
    exceptions: tuple[int, ...]
    prime: bool
    witnesses: dict[int, Witness] | None
    elapsed: float

    def is_exact_interval(self) -> bool:
        """True when the attained set is exactly [f, g]."""
        return not self.gaps and not self.exceptions and bool(self.attained)


def _make_report(
    p: int,
    s: int,
    t: int,
    mode: str,
    attained: set[int],
    f: int,
    g: int,
    witnesses: dict[int, Witness] | None,
    started: float,
) -> SpectrumReport:
    ordered = tuple(sorted(attained))
    gaps = tuple(v for v in range(f, g + 1) if v not in attained)
    exceptions = tuple(v for v in ordered if v < f or v > g)
    return SpectrumReport(
        p=p,
        s=s,
        t=t,
        mode=mode,
        attained=ordered,
        f=f,
        g=g,
        gaps=gaps,
        exceptions=exceptions,
        prime=is_prime(p),
        witnesses=witnesses,
        elapsed=time.perf_counter() - started,
    )


_CHUNK_CELLS = 1 << 22  # overlap cells built at once; bounds the engine's memory


def _distinct_profiles(p: int, t: int):
    """Yield (B, overlaps) for the first B with each distinct overlap histogram.

    B runs over the t-sets containing 0 in lex order; overlaps[a] =
    |(a + B) n B| counts the pairs x, y in B with y - x = a.
    """
    rests = combinations(range(1, p), t - 1)
    seen: set[bytes] = set()
    while chunk := list(islice(rests, max(1, _CHUNK_CELLS // (p + t * t)))):
        members = np.zeros((len(chunk), t), dtype=np.int64)
        members[:, 1:] = chunk
        diffs = (members[:, None, :] - members[:, :, None]) % p
        diffs += np.arange(len(chunk))[:, None, None] * p
        table = np.bincount(diffs.ravel(), minlength=len(chunk) * p).reshape(len(chunk), p)
        ordered = np.sort(table, axis=1)
        for i in sorted(np.unique(ordered, axis=0, return_index=True)[1].tolist()):
            if (key := ordered[i].tobytes()) not in seen:
                seen.add(key)
                yield (0, *chunk[i]), table[i].tolist()


def _first_selections(values: list[int], size: int, targets: list[int]):
    """Yield (target, lex-first ``size`` positions of ``values`` summing to it).

    suffix[x][c] is a bitmask over the sums of c values at positions >= x;
    each position is taken greedily while the rest can still be met.
    """
    suffix = [[1] + [0] * size]
    for v in reversed(values):
        below = suffix[-1]
        suffix.append([1] + [below[c] | below[c - 1] << v for c in range(1, size + 1)])
    suffix.reverse()
    for target in targets:
        chosen, rest = [], target
        for x, v in enumerate(values):
            need = size - len(chosen)
            if need and rest >= v and suffix[x + 1][need - 1] >> (rest - v) & 1:
                chosen.append(x)
                rest -= v
        yield target, tuple(chosen)


def spectrum_exhaustive(
    p: int,
    s: int,
    t: int,
    want_witnesses: bool = False,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SpectrumReport:
    """All values of r(A, B, B) over every pair |A| = s, |B| = t.

    The call refuses to start when the C(p,s) * C(p,t) pairs exceed
    ``budget``, which also bounds the t * C(p,t) overlap cells it computes.
    Witnesses follow the module's rule and are recounted by ``count_naive``.
    """
    params = Params(p, s, t)
    _check_budget(comb(p, s) * comb(p, t), budget)
    started = time.perf_counter()
    attained: set[int] = set()
    witnesses: dict[int, Witness] = {}
    for b_tuple, overlaps in _distinct_profiles(p, t):
        new = [r for r in _attainable_selection_sums(Counter(overlaps), s) if r not in attained]
        attained.update(new)
        if not want_witnesses:
            continue
        for r, a_tuple in _first_selections(overlaps, s, new):
            check = counting.count_naive(make_set(p, a_tuple), make_set(p, b_tuple))
            if check != r:
                raise VerificationError(
                    f"witness for {r} at (p={p}, s={s}, t={t}) recounts to {check}")
            witnesses[r] = (a_tuple, b_tuple)
    return _make_report(
        params.p, s, t, "exhaustive", attained,
        lower_bound(p, s, t), upper_bound(p, s, t),
        witnesses if want_witnesses else None, started,
    )


def spectrum_fixed_interval(
    p: int,
    s: int,
    t: int,
    want_witnesses: bool = False,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SpectrumReport:
    """All values of r(A, B, B) over |A| = s with B frozen to {0..t-1}."""
    params = Params(p, s, t)
    _check_budget(comb(p, s), budget)
    started = time.perf_counter()
    values = [shift_overlap(p, t, a) for a in range(p)]
    b_tuple = tuple(range(t))
    attained: set[int] = set()
    witnesses: dict[int, Witness] = {}
    for a_tuple in combinations(range(p), s):
        r = sum(values[a] for a in a_tuple)
        if r not in attained:
            attained.add(r)
            if want_witnesses:
                witnesses[r] = (a_tuple, b_tuple)
    return _make_report(
        params.p, s, t, "fixed-interval-B", attained,
        lower_bound(p, s, t), upper_bound(p, s, t),
        witnesses if want_witnesses else None, started,
    )


def _attainable_selection_sums(counts: dict[int, int], size: int) -> tuple[int, ...]:
    """Subset-sum DP over a multiset: sums of exactly ``size`` elements.

    Multiplicities are capped at ``size`` and binary-split, so one DP item
    contributes k copies at once; row c of the table is a bitmask over sums
    attainable with exactly c elements.
    """
    items: list[tuple[int, int]] = []
    for v, m in counts.items():
        m = min(m, size)
        k = 1
        while m:
            take = min(k, m)
            items.append((v, take))
            m -= take
            k <<= 1
    rows = [0] * (size + 1)
    rows[0] = 1
    for v, k in items:
        add = v * k
        for c in range(size, k - 1, -1):
            src = rows[c - k]
            if src:
                rows[c] |= src << add
    return bit_positions(rows[size])


def spectrum_multiset_dp(p: int, s: int, t: int) -> SpectrumReport:
    """The fixed-interval spectrum computed without enumerating sets at all."""
    params = Params(p, s, t)
    started = time.perf_counter()
    profile = build_shift_profile(p, t)
    attained = set(_attainable_selection_sums(profile.counts, s))
    return _make_report(
        params.p, s, t, "multiset-dp", attained,
        lower_bound(p, s, t), upper_bound(p, s, t),
        None, started,
    )


def schur_spectrum(
    p: int,
    s: int,
    want_witnesses: bool = False,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SpectrumReport:
    """All values of the Schur count r(A, A, A) over |A| = s."""
    params = Params(p, s, s)
    _check_budget(comb(p, s), budget)
    started = time.perf_counter()
    attained: set[int] = set()
    witnesses: dict[int, Witness] = {}
    for a_tuple in combinations(range(p), s):
        a_set = ResidueSet.from_elements(p, a_tuple)
        r = counting.count_shift(a_set, a_set)
        if r not in attained:
            attained.add(r)
            if want_witnesses:
                witnesses[r] = (a_tuple, a_tuple)
    return _make_report(
        params.p, s, s, "schur-exhaustive", attained,
        schur_lower_bound(p, s), schur_upper_bound(p, s),
        witnesses if want_witnesses else None, started,
    )


@dataclass(frozen=True)
class ExceptionRecord:
    """One instance whose spectrum escapes [f, g], with verified witnesses."""

    p: int
    s: int
    t: int
    f: int
    g: int
    values: tuple[int, ...]
    witnesses: dict[int, Witness]


@dataclass(frozen=True)
class ScanResult:
    p_min: int
    p_max: int
    budget: int
    records: tuple[ExceptionRecord, ...]
    skipped: tuple[tuple[int, int, int], ...]  # instances over budget
    instances_run: int


def exception_scan(p_min: int, p_max: int, budget: int = DEFAULT_PAIR_BUDGET) -> ScanResult:
    """Hunt for out-of-interval spectrum values over composite odd moduli.

    For every composite odd p in [p_min, p_max] and every (s, t) whose
    exhaustive enumeration fits the per-instance budget, run the exhaustive
    spectrum and keep any values outside [f, g]. Over-budget instances are
    recorded as skipped rather than failing the scan. Every witness is
    recounted by ``spectrum_exhaustive`` before it reaches the record.
    """
    if p_min > p_max:
        raise DomainError(f"empty modulus range [{p_min}, {p_max}]")
    _check_budget(0, budget)  # validates the budget only
    records: list[ExceptionRecord] = []
    skipped: list[tuple[int, int, int]] = []
    instances = 0
    for p in range(p_min | 1, p_max + 1, 2):
        if p < 9 or is_prime(p):
            continue
        for s in range(1, p):
            for t in range(1, p):
                try:
                    report = spectrum_exhaustive(p, s, t, want_witnesses=True, budget=budget)
                except BudgetExceededError:
                    skipped.append((p, s, t))
                    continue
                instances += 1
                if report.exceptions:
                    witnesses = {value: report.witnesses[value] for value in report.exceptions}
                    records.append(
                        ExceptionRecord(p, s, t, report.f, report.g, report.exceptions, witnesses)
                    )
    return ScanResult(
        p_min=p_min,
        p_max=p_max,
        budget=budget,
        records=tuple(records),
        skipped=tuple(skipped),
        instances_run=instances,
    )

"""Attained-value spectra of r(A, B, B) for fixed (p, s, t).

Three enumeration modes with very different costs:

* ``exhaustive``        - all C(p,s) * C(p,t) pairs (A, B); the ground truth.
* ``fixed-interval-B``  - all C(p,s) sets A against B = {0..t-1}.
* ``multiset-dp``       - no enumeration at all: bounded-multiplicity
  subset-sum dynamic programming over the interval overlap profile, which
  by the selection equivalence must reproduce the fixed-interval spectrum.

Reports record the attained values, the closed-form interval [f, g], the
gaps inside it and any exceptional values outside it. For prime p there are
provably no gaps and no exceptions; for composite odd p exceptions exist
(the scanner below hunts for them) and every reported exception is
re-verified against the naive counting oracle before it is returned.

Exhaustive enumeration can be partitioned across worker processes by the
first (smallest) element of A. Each worker reports the first witness it saw
per value; the merge keeps the lexicographically smallest (A, B) pair, which
is exactly the witness single-threaded enumeration finds, so results do not
depend on the partition.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from itertools import combinations
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


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise DomainError(f"budget must be at least 1, got {budget}")


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


def _overlap_table(p: int, t: int, keep_sets: bool):
    """Overlap values |(a + B) n B| for every size-t set B and every shift a.

    Returns (V, b_tuples): V[i, a] is the overlap of shift a against the
    i-th set in lexicographic order; b_tuples lists the sets themselves when
    ``keep_sets`` is true (needed only for witness reporting).
    """
    n_sets = comb(p, t)
    indicator = np.zeros((n_sets, p), dtype=np.uint8)
    b_tuples: list[tuple[int, ...]] | None = [] if keep_sets else None
    for i, b in enumerate(combinations(range(p), t)):
        indicator[i, list(b)] = 1
        if b_tuples is not None:
            b_tuples.append(b)
    table = np.empty((n_sets, p), dtype=np.int64)
    for a in range(p):
        # roll by a aligns column c with c - a, so the row dot is |B n (a+B)|
        table[:, a] = (indicator & np.roll(indicator, a, axis=1)).sum(axis=1, dtype=np.int64)
    return table, b_tuples


def _scan_a_subsets(p, s, table, b_tuples, firsts, want_witnesses):
    """Enumerate A (lex order, restricted to given smallest elements) against all B."""
    attained: set[int] = set()
    witnesses: dict[int, Witness] = {}
    for first in firsts:
        for rest in combinations(range(first + 1, p), s - 1):
            a_tuple = (first, *rest)
            row = table[:, a_tuple].sum(axis=1)
            if want_witnesses:
                for b_idx, r in enumerate(row.tolist()):
                    if r not in attained:
                        attained.add(r)
                        witnesses[r] = (a_tuple, b_tuples[b_idx])
            else:
                attained.update(np.unique(row).tolist())
    return attained, witnesses


def _exhaustive_worker(args):
    p, s, t, firsts, want_witnesses = args
    table, b_tuples = _overlap_table(p, t, keep_sets=want_witnesses)
    return _scan_a_subsets(p, s, table, b_tuples, firsts, want_witnesses)


def spectrum_exhaustive(
    p: int,
    s: int,
    t: int,
    want_witnesses: bool = False,
    jobs: int = 1,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SpectrumReport:
    """All values of r(A, B, B) over every pair |A| = s, |B| = t.

    Cost grows as C(p,s) * C(p,t); the call refuses to start when that (or
    the C(p,t) * p overlap table) exceeds ``budget``.
    """
    params = Params(p, s, t)
    _check_budget(budget)
    started = time.perf_counter()
    pairs = comb(p, s) * comb(p, t)
    cells = comb(p, t) * p
    if max(pairs, cells) > budget:
        raise BudgetExceededError(max(pairs, cells), budget)
    firsts = list(range(p - s + 1))
    jobs = max(1, min(jobs, len(firsts)))
    if jobs == 1:
        table, b_tuples = _overlap_table(p, t, keep_sets=want_witnesses)
        attained, witnesses = _scan_a_subsets(p, s, table, b_tuples, firsts, want_witnesses)
    else:
        chunks = [firsts[w::jobs] for w in range(jobs)]
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=jobs) as pool:
            partials = pool.map(
                _exhaustive_worker, [(p, s, t, chunk, want_witnesses) for chunk in chunks]
            )
        attained = set().union(*(part[0] for part in partials))
        witnesses = {}
        for _, wit in partials:
            for value, pair in wit.items():
                if value not in witnesses or pair < witnesses[value]:
                    witnesses[value] = pair
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
    _check_budget(budget)
    started = time.perf_counter()
    n_sets = comb(p, s)
    if n_sets > budget:
        raise BudgetExceededError(n_sets, budget)
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
    _check_budget(budget)
    started = time.perf_counter()
    n_sets = comb(p, s)
    if n_sets > budget:
        raise BudgetExceededError(n_sets, budget)
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
    recorded as skipped rather than failing the scan. Each exceptional value
    is re-verified by the naive counting oracle on its witness.
    """
    if p_min > p_max:
        raise DomainError(f"empty modulus range [{p_min}, {p_max}]")
    _check_budget(budget)
    records: list[ExceptionRecord] = []
    skipped: list[tuple[int, int, int]] = []
    instances = 0
    for p in range(p_min | 1, p_max + 1, 2):
        if p < 9 or is_prime(p):
            continue
        for s in range(1, p):
            for t in range(1, p):
                if max(comb(p, s) * comb(p, t), comb(p, t) * p) > budget:
                    skipped.append((p, s, t))
                    continue
                report = spectrum_exhaustive(p, s, t, want_witnesses=True, budget=budget)
                instances += 1
                if report.exceptions:
                    witnesses = {}
                    for value in report.exceptions:
                        a_tuple, b_tuple = report.witnesses[value]
                        check = counting.count_naive(make_set(p, a_tuple), make_set(p, b_tuple))
                        if check != value:
                            raise VerificationError(
                                f"witness for exceptional value {value} at (p={p}, s={s}, t={t}) "
                                f"recounts to {check}"
                            )
                        witnesses[value] = (a_tuple, b_tuple)
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

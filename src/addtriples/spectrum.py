"""Attained-value spectra of r(A, B, B) for fixed (p, s, t).

Three modes with very different costs:

* ``exhaustive``        - every pair |A| = s, |B| = t; the ground truth.
* ``fixed-interval-B``  - all C(p,s) sets A against B = {0..t-1}.
* ``multiset-dp``       - no enumeration at all: the same engine run on
  the interval's overlap profile alone, which by the selection equivalence
  must reproduce the fixed-interval spectrum.

The engine: r(A, B, B) = sum over a in A of |(a + B) n B|, so the values
over all A are the exactly-s selection sums of B's overlap multiset. One
selection-sum DP serves them: a suffix table over the overlaps in position
order, where suffix[x][c] is the bitmask over the sums of c overlaps at
positions >= x. Its row 0 gives the sums of every size, and the rows below
it let a greedy walk pick the lex-first positions for each value. Translating
B changes no count, so ``exhaustive`` visits only the B that contain 0 and
builds one table per distinct histogram, at the largest size it wants. The
histograms depend on (p, t) alone, so the scanner makes one such pass per
(p, t) for all its sizes s. When a histogram is gapless (its distinct values
are consecutive integers, max - min + 1 of them), the exchange lemma gives
its rows without the table: the exactly-c sums are every integer from the
sum of the c smallest elements to the sum of the c largest, since swapping a
selected x for an unselected x + 1 adds 1. Every interval profile is
gapless, its values running from max(0, 2t - p) to t, so ``multiset-dp``
reads its row off the sorted histogram by the lemma alone, which refuses
any histogram with a hole.

Every mode hands its attained values to the report as runs: the bitmask
engines read them off their bitmask once with ``bit_runs``, from its binary
digits and without numpy, and ``multiset-dp`` hands over the lemma's one run.
The report finds the gaps inside the closed-form interval [f, g] and any
exceptional values outside it by arithmetic on those runs. It holds each as
an ``IntRuns``, a sequence of ints kept as its runs, so an interval spectrum
of any length is one run and its values are never listed unless a caller
iterates them. The three (p, s, t) modes take f, g and primality from one
``bounds_for`` call, which validates the instance once. For prime p there
are provably no gaps and no exceptions; for composite odd p exceptions
exist (the scanner below hunts for them). An exhaustive witness takes the
lex-first t-set B containing 0 that attains the value, then the lex-first
s-set A for that B, and is recounted by the naive counting oracle before it
is returned; the scanner makes witnesses for its exceptions only. (``construct``'s
interval-B witnesses are recounted by ``counting.count_interval`` instead, a
specialised recount over the runs of A for B = {0..t-1}, not a fifth
cross-check route.)

Budgets keep their pricing: C(p,s) * C(p,t) pairs for ``exhaustive`` and for
each scanned instance, C(p,s) sets A for ``fixed-interval-B`` and the Schur
spectrum. One rule decides whether a cost exceeds the budget, exactly: the
lgamma estimate decides when it is more than a factor e from the budget, and
the exact product is compared otherwise.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, lgamma, log, prod

from . import counting
from .bounds import (
    BoundsResult,
    bounds_for,
    lower_bound,
    schur_lower_bound,
    schur_upper_bound,
    upper_bound,
)
from .construction import build_shift_profile, shift_overlap
from .residues import (
    DomainError,
    IntRuns,
    InvalidModulusError,
    MAX_MODULUS,
    NumpyOnFirstUse,
    Params,
    ResidueSet,
    VerificationError,
    bit_positions,
    bit_runs,
    is_prime,
    make_set,
)

np = NumpyOnFirstUse(globals())  # numpy is imported on first use

DEFAULT_PAIR_BUDGET = 10**8

Witness = tuple[tuple[int, ...], tuple[int, ...]]

_PRINTABLE = 10**4300  # Python's default int -> str limit is 4300 digits


def _shown(n: int) -> int | str:
    """``n`` itself below 10^4300, else the bound it passes."""
    return n if n < _PRINTABLE else "at least 10^4300"


class BudgetExceededError(RuntimeError):
    """Estimated enumeration cost exceeds the configured budget."""

    def __init__(self, estimated: int, budget: int):
        super().__init__(f"estimated cost {_shown(estimated)} exceeds budget {_shown(budget)}")
        self.estimated = estimated
        self.budget = budget


def _log_comb(n: int, k: int) -> float:
    """The lgamma estimate of log C(n, k)."""
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def _log_cost(choices: tuple[tuple[int, int], ...]) -> float:
    """The lgamma estimate of log prod C(n, k), off by far less than 1."""
    return sum(_log_comb(n, k) for n, k in choices)


def _exceeds(budget: int, log_cost: float, choices: tuple[tuple[int, int], ...]) -> bool:
    """Exactly whether prod C(n, k) > ``budget``, given ``log_cost``, the estimate of its log.

    The estimate decides when it is more than a factor e from the budget;
    otherwise the exact product is computed and compared.
    """
    log_budget = log(budget)
    if abs(log_cost - log_budget) > 1:
        return log_cost > log_budget
    return prod(comb(n, k) for n, k in choices) > budget


def _check_budget(budget: int, *choices: tuple[int, int]) -> None:
    """Reject a budget below 1, then refuse a call whose cost prod C(n, k) exceeds it."""
    if budget < 1:
        raise DomainError(f"budget must be at least 1, got {budget}")
    log_cost = _log_cost(choices)
    if not _exceeds(budget, log_cost, choices):
        return
    # a cost far above both the budget and 10^4300 is reported as a bound, never computed
    if log_cost > log(max(budget, _PRINTABLE)) + 1:
        raise BudgetExceededError(max(budget + 1, _PRINTABLE), budget)
    raise BudgetExceededError(prod(comb(n, k) for n, k in choices), budget)


@dataclass(frozen=True)
class SpectrumReport:
    """Attained values for one instance, with bounds, gaps and exceptions.

    ``attained``, ``gaps`` and ``exceptions`` are ascending :class:`IntRuns`,
    each equal to the tuple of its values.
    """

    p: int
    s: int
    t: int
    mode: str
    attained: IntRuns
    f: int
    g: int
    gaps: IntRuns
    exceptions: IntRuns
    prime: bool
    witnesses: dict[int, Witness] | None
    elapsed: float

    def is_exact_interval(self) -> bool:
        """True when the attained set is exactly [f, g]."""
        return not self.gaps and not self.exceptions and bool(self.attained)


def _between(f: int, g: int) -> int:
    """The bitmask of the values f..g."""
    return (1 << (g + 1)) - (1 << f)


def _make_report(
    interval: BoundsResult,
    mode: str,
    attained: Iterable[tuple[int, int]],
    witnesses: dict[int, Witness] | None,
    started: float,
) -> SpectrumReport:
    """The report for the values in the ascending, disjoint runs ``attained``, against [f, g].

    The gaps are the runs of [f, g] that no attained run covers, and the
    exceptions the parts of the attained runs outside it: O(runs) steps.
    """
    f, g = interval.f, interval.g
    attained = IntRuns(attained)
    gaps, exceptions, covered = [], [], f  # [f, covered) is attained or a gap already
    for start, stop in attained.runs:
        if start < f:
            exceptions.append((start, min(stop, f)))
        if stop > g + 1:
            exceptions.append((max(start, g + 1), stop))
        if covered < min(start, g + 1):
            gaps.append((covered, min(start, g + 1)))
        covered = max(covered, stop)
    if covered < g + 1:
        gaps.append((covered, g + 1))
    return SpectrumReport(
        p=interval.p,
        s=interval.s,
        t=interval.t,
        mode=mode,
        attained=attained,
        f=f,
        g=g,
        gaps=IntRuns(gaps),
        exceptions=IntRuns(exceptions),
        prime=interval.guaranteed,
        witnesses=witnesses,
        elapsed=time.perf_counter() - started,
    )


_CHUNK_CELLS = 1 << 22  # overlap cells built at once; bounds the engine's memory


def _distinct_profiles(p: int, t: int):
    """Yield (B, overlaps) for the first B with each distinct overlap histogram.

    B runs over the t-sets containing 0 in lex order; overlaps[a] =
    |(a + B) n B| counts the pairs x, y in B with y - x = a. The bytes of
    the sorted overlap row key its histogram, and one set of keys spans every
    chunk of the walk.
    """
    rests = combinations(range(1, p), t - 1)
    seen: set[bytes] = set()
    while chunk := list(islice(rests, max(1, _CHUNK_CELLS // (p + t * t)))):
        members = np.zeros((len(chunk), t), dtype=np.int64)
        members[:, 1:] = chunk
        diffs = (members[:, None, :] - members[:, :, None]) % p
        diffs += np.arange(len(chunk))[:, None, None] * p
        table = np.bincount(diffs.ravel(), minlength=len(chunk) * p).reshape(len(chunk), p)
        for i, key in enumerate(map(bytes, np.sort(table, axis=1))):
            if key not in seen:
                seen.add(key)
                yield (0, *chunk[i]), table[i].tolist()


def _suffix_sums(values: list[int], size: int) -> list[list[int]]:
    """The selection-sum table of ``values``: suffix[x][c], for c <= ``size``, is the
    bitmask over the sums of c values at positions >= x.

    Row suffix[0] gives the sums of exactly c values for every c <= ``size``
    (0 past the number of values), and the rows below it let
    :func:`_first_selections` pick witnesses.
    """
    suffix = [[1] + [0] * size]
    for v in reversed(values):
        below = suffix[-1]
        suffix.append([1] + [below[c] | below[c - 1] << v for c in range(1, size + 1)])
    suffix.reverse()
    return suffix


def _first_selections(values: list[int], suffix: list[list[int]], size: int, targets: list[int]):
    """Yield (target, lex-first ``size`` positions of ``values`` summing to it).

    ``suffix`` is :func:`_suffix_sums` of ``values`` at a size of at least
    ``size``; each position is taken greedily while the rest can still be met.
    """
    for target in targets:
        chosen, rest = [], target
        for x, v in enumerate(values):
            need = size - len(chosen)
            if need and rest >= v and suffix[x + 1][need - 1] >> (rest - v) & 1:
                chosen.append(x)
                rest -= v
        yield target, tuple(chosen)


def _exhaustive_pass(p: int, t: int, wanted: dict[int, int]):
    """One histogram walk for every size s in ``wanted``: (attained, witnesses) by s.

    ``wanted[s]`` is a bitmask over the values r that get a recounted witness
    (-1 for all). Each histogram builds one :func:`_suffix_sums` table, at the
    largest wanted size, over its overlaps in residue order: row 0 gives every
    size's sums, and the same table picks that size's witnesses.
    """
    attained = dict.fromkeys(wanted, 0)
    witnesses: dict[int, dict[int, Witness]] = {s: {} for s in wanted}
    size = max(wanted)
    for b_tuple, overlaps in _distinct_profiles(p, t):
        suffix = _suffix_sums(overlaps, size)
        for s, mask in wanted.items():
            new = suffix[0][s] & ~attained[s]
            attained[s] |= new
            if new & mask:
                for r, a_tuple in _first_selections(overlaps, suffix, s, bit_positions(new & mask)):
                    check = counting.count_naive(make_set(p, a_tuple), make_set(p, b_tuple))
                    if check != r:
                        raise VerificationError(
                            f"witness for {r} at (p={p}, s={s}, t={t}) recounts to {check}")
                    witnesses[s][r] = (a_tuple, b_tuple)
    return attained, witnesses


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
    interval = bounds_for(p, s, t)
    _check_budget(budget, (p, s), (p, t))
    started = time.perf_counter()
    attained, witnesses = _exhaustive_pass(p, t, {s: -1 if want_witnesses else 0})
    return _make_report(
        interval, "exhaustive", bit_runs(attained[s]),
        witnesses[s] if want_witnesses else None, started,
    )


def _first_a_per_value(p: int, s: int, count) -> dict[int, tuple[int, ...]]:
    """The lex-first s-set A for each value of ``count(A)`` over the s-subsets of Z_p."""
    first: dict[int, tuple[int, ...]] = {}
    for a_tuple in combinations(range(p), s):
        first.setdefault(count(a_tuple), a_tuple)
    return first


def spectrum_fixed_interval(
    p: int,
    s: int,
    t: int,
    want_witnesses: bool = False,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SpectrumReport:
    """All values of r(A, B, B) over |A| = s with B frozen to {0..t-1}."""
    interval = bounds_for(p, s, t)
    _check_budget(budget, (p, s))
    started = time.perf_counter()
    values = [shift_overlap(p, t, a) for a in range(p)]
    first = _first_a_per_value(p, s, lambda a_tuple: sum(values[a] for a in a_tuple))
    witnesses = {r: (a_tuple, tuple(range(t))) for r, a_tuple in first.items()}
    return _make_report(
        interval, "fixed-interval-B", bit_runs(sum(1 << r for r in first)),
        witnesses if want_witnesses else None, started,
    )


def _attainable_selection_sums(
    counts: dict[int, int], sizes: Collection[int],
) -> dict[int, tuple[tuple[int, int], ...]]:
    """The sums of exactly c elements of a gapless multiset, for each c in ``sizes``.

    ``counts`` maps each value to its (positive) multiplicity, and its
    distinct values must be consecutive integers, as in every interval
    profile; any other histogram raises :class:`DomainError` (row 0 of
    :func:`_suffix_sums` serves those). Returns {c: the runs of the sums
    attainable with exactly c elements}, as :func:`bit_runs` reads them off
    a row of the DP: one run, or none when c exceeds the multiset's size.
    The exchange lemma gives each row as the full range from the sum of the
    c smallest elements to the sum of the c largest: in a selection that is
    not the largest, let x be the largest selected value below some
    unselected one and y the least unselected value above x; every value
    strictly between them exists and is fully selected, so y = x + 1, and
    swapping x for y adds exactly 1.
    """
    ascending = sorted(counts.items())
    if ascending[-1][0] - ascending[0][0] + 1 != len(ascending):
        raise DomainError(f"{len(ascending)} distinct values from {ascending[0][0]} to "
                          f"{ascending[-1][0]} are not consecutive integers")
    total = sum(counts.values())
    return {c: ((_first_sum(ascending, c), _first_sum(reversed(ascending), c) + 1),)
            if c <= total else () for c in sizes}


def _first_sum(items: Iterable[tuple[int, int]], c: int) -> int:
    """The sum of the first c elements of the multiset that ``items`` lists as (value, copies)."""
    total = 0
    for v, m in items:
        if c <= m:
            return total + c * v
        total += m * v
        c -= m
    return total


def spectrum_multiset_dp(p: int, s: int, t: int) -> SpectrumReport:
    """The fixed-interval spectrum computed without enumerating sets at all.

    The interval's overlap values run from max(0, 2t - p) to t with no hole,
    so the engine serves size s by the exchange lemma, off the sorted
    histogram, runs no DP, and hands the report the lemma's one run.
    """
    interval = bounds_for(p, s, t)
    started = time.perf_counter()
    attained = _attainable_selection_sums(build_shift_profile(p, t).counts, (s,))[s]
    return _make_report(interval, "multiset-dp", attained, None, started)


def schur_spectrum(
    p: int,
    s: int,
    want_witnesses: bool = False,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SpectrumReport:
    """All values of the Schur count r(A, A, A) over |A| = s."""
    params = Params(p, s, s)
    _check_budget(budget, (p, s))
    interval = BoundsResult(
        params.p, params.s, params.s, schur_lower_bound(p, s), schur_upper_bound(p, s), params.prime
    )
    started = time.perf_counter()

    def schur_count(a_tuple: tuple[int, ...]) -> int:
        a_set = ResidueSet.from_elements(p, a_tuple)
        return counting.count_shift(a_set, a_set)

    first = _first_a_per_value(p, s, schur_count)
    witnesses = {r: (a_tuple, a_tuple) for r, a_tuple in first.items()}
    return _make_report(
        interval, "schur-exhaustive", bit_runs(sum(1 << r for r in first)),
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

    For every composite odd p in [p_min, p_max], each (s, t) whose
    C(p,s) * C(p,t) pairs fit the per-instance budget runs, and the rest are
    recorded as skipped rather than failing the scan. One exhaustive pass per
    (p, t) serves every admissible s, and witnesses are made, and recounted
    by ``count_naive``, only for the values outside [f, g].
    """
    if p_min > p_max:
        raise DomainError(f"empty modulus range [{p_min}, {p_max}]")
    if p_max > MAX_MODULUS:  # refused before any per-modulus list is built
        raise InvalidModulusError(f"modulus range [{p_min}, {p_max}] exceeds 2^31-1")
    _check_budget(budget)  # validates the budget only
    records: list[ExceptionRecord] = []
    skipped: list[tuple[int, int, int]] = []
    instances = 0
    for p in range(max(p_min, 9) | 1, p_max + 1, 2):  # 9 is the least odd composite
        if is_prime(p):
            continue
        log_comb = [_log_comb(p, k) for k in range(p)]  # each log C(p, k) once per modulus
        for t in range(1, p):
            bounds: dict[int, tuple[int, int]] = {}
            for s in range(1, p):
                if _exceeds(budget, log_comb[s] + log_comb[t], ((p, s), (p, t))):
                    skipped.append((p, s, t))
                else:
                    bounds[s] = (lower_bound(p, s, t), upper_bound(p, s, t))
            if not bounds:
                continue
            outside = {s: ~_between(f, g) for s, (f, g) in bounds.items()}
            _, witnesses = _exhaustive_pass(p, t, outside)
            instances += len(bounds)
            for s, (f, g) in bounds.items():
                if witnesses[s]:
                    found = dict(sorted(witnesses[s].items()))
                    records.append(ExceptionRecord(p, s, t, f, g, tuple(found), found))
    return ScanResult(
        p_min=p_min,
        p_max=p_max,
        budget=budget,
        records=tuple(sorted(records, key=lambda record: (record.p, record.s, record.t))),
        skipped=tuple(sorted(skipped)),
        instances_run=instances,
    )

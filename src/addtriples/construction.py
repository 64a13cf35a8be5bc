"""Constructing a set A with any prescribed triple count against an interval B.

Fix B = {0, ..., t-1}. Because r(A, B, B) = sum over a in A of the overlap
|(a + B) n B|, choosing A is the same as choosing a size-s multi-subset of
the overlap multiset M = { |(a + B) n B| : a in Z_p }. Writing residues with
symmetric representatives, the overlap at a depends only on |a| and equals

    max(t - |a|, floor),  floor = max(0, 2t - p),

so M consists of one copy of t, two copies of every intermediate value, and
a run of copies of the floor value. Consecutive values make the size-s
selection sums an unbroken integer interval [r1, r2], and the endpoints
have the same closed forms as the global bounds. That holds for every odd
p, prime or not, which is what :func:`construct` exploits.

:func:`build_shift_profile` writes M as a value -> count dict, one entry per
distinct value, for the tests; nothing else needs the profile. With F the
floor value and run = p - 1 - 2(t - 1 - F) its number of copies, the sum of
the n smallest elements of M is n*F + floor((max(0, n - run) + 1)^2 / 4),
and the element at any ascending position is as direct. That one form gives
the selection range, r1 the sum of the s smallest and r2 = t^2 less the sum
of the p - s smallest (:func:`extreme_sums`, and the spectrum's
``multiset-dp`` mode), and :func:`construct` selects by it. The selection
takes the most copies of each value, compared from the largest value down;
on consecutive values that is the k largest elements, one element w, then
the smallest rest, with k found by one bisect over those closed forms, so
choosing costs O(log s) arithmetic.
The chosen values are written as at most seven descending segments
(high, low, count): each run's top and bottom values with their counts,
the values strictly between with two copies each, and w; the witness
lists them as a value -> count dict only when its ``selection`` is read,
and the CLI writes them segment by segment. The k largest, w and the
smallest rest hold disjoint values, and each run of positions lies on at
most two runs of residues, so :func:`construct` realises A as at most
four sorted residue runs (``ResidueSet._from_runs``): its bitmask is
built by int arithmetic, and it keeps the runs, which
:meth:`ResidueSet.runs` hands to the CLI, so its members are listed only
if a caller iterates it. The recount by :func:`counting.count_interval`
clips those kept runs to the two windows that meet B, without reading
the bitmask. It walks no value, and neither step imports numpy; only
:func:`extreme_sums_grid` does. The selection rule and the
residue tie-breaking here are deterministic, so a given (p, s, t, r) always
yields the same witness set A.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import counting
from .bounds import piecewise
from .residues import (
    DomainError,
    NumpyOnFirstUse,
    Params,
    ResidueSet,
    VerificationError,
    check_modulus,
    interval_set,
)

np = NumpyOnFirstUse(globals())  # numpy is imported on first use

Segment = tuple[int, int, int]  # (high, low, count): the values high, ..., low, count copies each


class UnattainableTargetError(DomainError):
    """Target count lies outside the attainable interval [r1, r2]."""

    def __init__(self, target: int, r1: int, r2: int):
        super().__init__(f"target {target} is outside the attainable interval [{r1}, {r2}]")
        self.target = target
        self.r1 = r1
        self.r2 = r2


def _check_interval_args(p: int, t: int) -> tuple[int, int]:
    p = check_modulus(p)
    t = operator.index(t)
    if not 1 <= t <= p - 1:
        raise DomainError(f"interval length must satisfy 1 <= t <= p-1, got t={t}, p={p}")
    return p, t


def _overlap_floor(p, t):
    """The least overlap |(a + B) n B| over a: 0, or 2t - p once 2t > p."""
    return piecewise(2 * t > p, 2 * t - p, 0)


def _floor_run(p, t):
    """(F, run): the floor value and its number of copies p - 1 - 2(t - 1 - F) in the profile."""
    floor = _overlap_floor(p, t)
    return floor, p - 1 - 2 * (t - 1 - floor)


def shift_overlap(p: int, t: int, a: int) -> int:
    """|(a + B) n B| for the interval B = {0, ..., t-1}, by closed form."""
    p, t = _check_interval_args(p, t)
    a = operator.index(a) % p
    sym = min(a, p - a)  # symmetric representative magnitude, p odd so no tie
    return max(t - sym, _overlap_floor(p, t))


@dataclass(frozen=True)
class ShiftProfile:
    """The overlap multiset for an interval B, as value -> multiplicity counts."""

    p: int
    t: int
    counts: dict[int, int]

    @property
    def floor_value(self) -> int:
        return _overlap_floor(self.p, self.t)

    def total(self) -> int:
        return sum(self.counts.values())

    def weighted_total(self) -> int:
        return sum(map(operator.mul, self.counts, self.counts.values()))


def build_shift_profile(p: int, t: int) -> ShiftProfile:
    """The overlap multiset of B = {0..t-1} in closed form, checked by both mass identities
    (:func:`_checked_floor_run`, as ``construct`` and multiset-dp are).

    With floor = max(0, 2t - p): one copy of t (from a = 0), two copies of
    every v strictly between floor and t (from a = +-(t - v)), and the other
    p - 1 - 2(t - 1 - floor) residues at the floor. That is O(min(t, p - t))
    entries, whatever the size of p.
    """
    p, t = _check_interval_args(p, t)
    floor, run = _checked_floor_run(p, t)
    counts = dict.fromkeys(range(t, floor, -1), 2)
    counts[t] = 1
    counts[floor] = run
    return ShiftProfile(p, t, counts)


def _smallest_of_pairs(n: int) -> int:
    """Sum of the n smallest elements of {1, 1, 2, 2, ...}: floor((n+1)^2 / 4), 0 at n = 0."""
    return (n + 1) ** 2 // 4


def partial_sum_smallest(u: int, n: int) -> int:
    """Sum of the n smallest elements of {1,1,2,2,...,u-1,u-1,u}: floor((n+1)^2 / 4)."""
    if not 1 <= n <= 2 * u - 1:
        raise DomainError(f"need 1 <= n <= 2u-1 = {2 * u - 1}, got n={n}")
    return _smallest_of_pairs(n)


def partial_sum_largest(u: int, n: int) -> int:
    """Sum of the n largest elements of {1,1,2,2,...,u-1,u-1,u}: ceil(n(4u-n) / 4)."""
    if not 1 <= n <= 2 * u - 1:
        raise DomainError(f"need 1 <= n <= 2u-1 = {2 * u - 1}, got n={n}")
    return -(-(n * (4 * u - n)) // 4)


def _smallest_overlaps(n, floor, run):
    """Sum of the n smallest overlaps of the interval profile with ``run`` copies of its
    floor value F: n floors, plus the n - run smallest of {1, 1, 2, 2, ..., t-F-1, t-F-1, t-F},
    on ints or int64 arrays alike."""
    return n * floor + _smallest_of_pairs(piecewise(n > run, n - run, 0))


def _checked_floor_run(p: int, t: int) -> tuple[int, int]:
    """:func:`_floor_run` of a validated instance, checked by both mass identities:
    the profile has run + 2(t - F) - 1 = p elements, and they sum to t^2."""
    floor, run = _floor_run(p, t)
    if run + 2 * (t - floor) - 1 != p:
        raise VerificationError(f"profile mass {run + 2 * (t - floor) - 1} != p = {p}")
    total = _smallest_overlaps(p, floor, run)
    if total != t * t:
        raise VerificationError(f"profile weighted mass {total} != t^2 = {t * t}")
    return floor, run


def _extreme_sums(p, s, t, floor, run):
    # The s smallest overlaps, and t^2 less the p - s smallest, on ints or int64 arrays alike.
    return _smallest_overlaps(s, floor, run), t * t - _smallest_overlaps(p - s, floor, run)


def extreme_sums(p: int, s: int, t: int) -> tuple[int, int]:
    """(r1, r2): the sums of the s smallest and s largest overlap values.

    Evaluated from the profile's closed form, the one :func:`construct`
    selects by: r1 is the sum of the s smallest, and r2 is t^2 less the sum
    of the p - s smallest; the profile-sorting route is kept as a test
    oracle. For every odd p the result coincides with (lower_bound,
    upper_bound), the paper's case forms, which is the identity the test
    suite pins across the whole desk-scale range.
    """
    params = Params(p, s, t)
    return _extreme_sums(params.p, params.s, params.t, *_checked_floor_run(params.p, params.t))


def extreme_sums_grid(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(r1, r2) over the whole (s, t) grid; entry [s-1, t-1] is the value at (s, t)."""
    p = check_modulus(p)
    s = np.arange(1, p, dtype=np.int64)[:, None]
    t = np.arange(1, p, dtype=np.int64)[None, :]
    return _extreme_sums(p, s, t, *_floor_run(p, t))


def _select(p: int, t: int, s: int, r: int) -> tuple[list[Segment], tuple[int, int, int | None]]:
    """The size-s multi-subset of the overlap multiset summing to r with the most
    copies of each value, compared from the largest value down, as descending
    segments (high, low, count), and its runs (k, n, w): the k largest
    elements, the n smallest, and w, the one element between them, or None
    when w is the next smallest element and so is counted in n.

    The ascending multiset is run copies of F, two of each value in (F, t),
    and one t. Write split(k) for the sum of the k largest plus the s - k
    smallest; it grows with k. The top k elements can be taken exactly while
    split(k) <= r, so k is the largest such k, found by one bisect. No
    further element may reach the (k + 1)-th largest value, since that would
    cost at least split(k + 1) > r. The largest remaining element is then as
    large as possible when the others are the smallest: w is the (s - k)-th
    smallest value plus r - split(k), and it lies below the (k + 1)-th
    largest value. Each of the two runs of positions is at most three
    segments: its top value, the values strictly between (two copies each),
    and its bottom value; w is one more. Needs 1 <= s <= p; raises
    :class:`UnattainableTargetError` when r is outside [r1, r2], the sums of
    the s smallest and s largest.
    """
    floor, run = _checked_floor_run(p, t)

    def value(i: int) -> int:
        # The element at ascending position i.
        return floor if i < run else floor + (i - run) // 2 + 1

    def copies(v: int, lo: int, hi: int) -> int:
        # How many of the positions [lo, hi) hold v; t has one position, p - 1.
        first = 0 if v == floor else run + 2 * (v - floor - 1)
        return min(hi, run if v == floor else first + 2) - max(lo, first)

    def split(k: int) -> int:
        # The k largest elements (t^2 less the p - k smallest) plus the s - k smallest.
        return t * t - _smallest_overlaps(p - k, floor, run) + _smallest_overlaps(s - k, floor, run)

    r1, r2 = split(0), split(s)
    if not r1 <= r <= r2:
        raise UnattainableTargetError(r, r1, r2)
    k = bisect_right(range(s + 1), r, key=split) - 1

    def take(lo: int, hi: int) -> list[Segment]:
        # Positions [lo, hi) as descending segments: the top and bottom values
        # with their counts, and the values strictly between, two copies each.
        if lo >= hi:
            return []
        top, bottom = value(hi - 1), value(lo)
        if top == bottom:
            return [(top, top, hi - lo)]
        between = [(top - 1, bottom + 1, 2)] if top - bottom > 1 else []
        return [(top, top, copies(top, lo, hi)), *between,
                (bottom, bottom, copies(bottom, lo, hi))]

    # The k largest (with k = s they may reach the floor run), w, the n smallest:
    # disjoint values, so their segments in this order descend.
    segments = take(p - k, p)
    n, w, short = s - k, None, r - split(k)
    if short:  # so k < s; w is the (s - k)-th smallest value plus the shortfall
        n -= 1
        w = value(n) + short  # below the k largest, above the n smallest
        segments.append((w, w, 1))
    segments += take(0, n)
    size = sum((high - low + 1) * count for high, low, count in segments)
    weight = sum((high + low) * (high - low + 1) * count for high, low, count in segments) // 2
    if (size, weight) != (s, r):
        raise VerificationError(f"selection has (size, sum) {(size, weight)}, wanted {(s, r)}")
    return segments, (k, n, w)


def _selection_counts(segments: Iterable[Segment]) -> dict[int, int]:
    """The value -> count dict of descending segments (high, low, count), in their order."""
    selection: dict[int, int] = {}
    for high, low, count in segments:
        selection.update(dict.fromkeys(range(high, low - 1, -1), count))
    return selection


def _realize_runs(p: int, t: int, k: int, n: int, w: int | None) -> ResidueSet:
    """The canonical set A realising the selection of runs (k, n, w) from :func:`_select`,
    as at most four sorted residue runs, with no numpy and no per-value pass.

    Tie-breaking: value t comes from a = 0; an intermediate value v comes
    first from the positive representative a = t - v, then from p - (t - v);
    the floor value takes residues from its run in increasing order,
    starting at t - F (t when the floor F is 0, p - t otherwise). Residue a
    has overlap max(t - |a|, F), |a| its symmetric magnitude, so the
    tie-break puts the values on the residues in order: t on 0, the first
    copies of t - 1, ..., F + 1 on 1, ..., t - F - 1, the floor run on t -
    F, ..., p - t + F, and the second copies of F + 1, ..., t - 1 on p - t +
    F + 1, ..., p - 1. So the k largest are the residues nearest 0 on both
    sides, one more on the first-copy side when k is even, reaching into the
    floor run once k > 2(t - F) - 1; the n smallest are the floor run, or
    its first n residues, widened on both sides, one more on the first-copy
    side when n - run is odd; w alone is t - w, the first copy of its value.
    """
    floor, run = _floor_run(p, t)
    edge = t - floor  # the first residue of the floor run
    ranges = []
    if k:
        ranges.append((0, max(k // 2, k - edge) + 1))
        ranges.append((p - min((k - 1) // 2, edge - 1), p))
    if n:
        above = n - run  # elements of the n smallest above the floor
        ranges.append((edge, edge + n) if above <= 0
                      else (edge - (above + 1) // 2, p - edge + 1 + above // 2))
    if w is not None:
        ranges.append((t - w, t - w + 1))
    return ResidueSet._from_runs(p, sorted((start, stop) for start, stop in ranges if start < stop))


@dataclass(frozen=True)
class ConstructionWitness:
    """A verified witness: |A| = s, B = {0..t-1}, and r(A, B, B) = target_r.

    ``selection_segments`` holds the overlap values of A as descending
    segments (high, low, count); ``selection`` is the same selection as a
    value -> count dict in descending value order, built on first read.
    """

    p: int
    s: int
    t: int
    target_r: int
    a_set: ResidueSet
    b_set: ResidueSet
    selection_segments: tuple[Segment, ...]
    achieved_r: int

    @cached_property
    def selection(self) -> dict[int, int]:
        return _selection_counts(self.selection_segments)


def construct(p: int, s: int, t: int, r: int) -> ConstructionWitness:
    """Build A with r(A, B, B) = r for B = {0..t-1}; works for every odd p.

    The selection (:func:`_select`) and its realisation
    (:func:`_realize_runs`) come from (p, t) in closed form, with no profile
    built: the selection's runs are set as residue runs (see the module
    docstring). ``selection_segments`` holds the overlap values of A as at
    most seven descending segments (high, low, count), and ``selection``
    lists them as a value -> count dict only when read. The achieved count
    is recomputed by :func:`counting.count_interval`, in closed form over
    the runs A keeps, before the witness is returned; a mismatch would be a
    bug and raises :class:`VerificationError`. No step imports numpy.
    """
    params = Params(p, s, t)
    r = operator.index(r)
    segments, (k, n, w) = _select(params.p, params.t, params.s, r)
    a_set = _realize_runs(params.p, params.t, k, n, w)
    b_set = interval_set(p, t)
    if a_set.cardinality != s:
        raise VerificationError(f"witness has {a_set.cardinality} elements, wanted {s}")
    achieved = counting.count_interval(a_set, b_set)
    if achieved != r:
        raise VerificationError(f"witness count {achieved} != target {r} at (p={p}, s={s}, t={t})")
    return ConstructionWitness(
        p=params.p,
        s=params.s,
        t=params.t,
        target_r=r,
        a_set=a_set,
        b_set=b_set,
        selection_segments=tuple(segments),
        achieved_r=achieved,
    )

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

:func:`build_shift_profile` writes M in this closed form, one entry per
distinct value, so the profile, the selection and the realisation cost
O(min(t, p - t)) rather than O(p); :func:`construct` builds the profile once
and hands it to both. The selection takes the most copies of each value,
compared from the largest value down; on consecutive values that is the k
largest elements, one element w, then the smallest rest, with k found by
one bisect (see :func:`select_multisubset`). The selection rule and the
residue tie-breaking here are deterministic, so a given (p, s, t, r) always
yields the same witness set A.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import counting
from .bounds import _ceil_div4, _where
from .residues import (
    DomainError,
    Params,
    ResidueSet,
    VerificationError,
    check_modulus,
    interval_set,
    pack_indicator,
)


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


def _overlap_floor(p: int, t: int) -> int:
    """The least overlap |(a + B) n B| over a: 0, or 2t - p once 2t > p."""
    return max(0, 2 * t - p)


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

    def ascending(self) -> list[int]:
        """The full multiset as a sorted list of its p values (O(p); a test oracle)."""
        out: list[int] = []
        for v in sorted(self.counts):
            out.extend([v] * self.counts[v])
        return out


def build_shift_profile(p: int, t: int) -> ShiftProfile:
    """The overlap multiset of B = {0..t-1} in closed form, checked by both mass identities.

    With floor = max(0, 2t - p): one copy of t (from a = 0), two copies of
    every v strictly between floor and t (from a = +-(t - v)), and the other
    p - 1 - 2(t - 1 - floor) residues at the floor. That is O(min(t, p - t))
    entries, whatever the size of p.
    """
    p, t = _check_interval_args(p, t)
    floor = _overlap_floor(p, t)
    counts = dict.fromkeys(range(t, floor, -1), 2)
    counts[t] = 1
    counts[floor] = p - 1 - 2 * (t - 1 - floor)
    profile = ShiftProfile(p, t, counts)
    if profile.total() != p:
        raise VerificationError(f"profile mass {profile.total()} != p = {p}")
    if profile.weighted_total() != t * t:
        raise VerificationError(f"profile weighted mass {profile.weighted_total()} != t^2 = {t * t}")
    return profile


def partial_sum_smallest(u: int, n: int) -> int:
    """Sum of the n smallest elements of {1,1,2,2,...,u-1,u-1,u}: floor((n+1)^2 / 4)."""
    if not 1 <= n <= 2 * u - 1:
        raise DomainError(f"need 1 <= n <= 2u-1 = {2 * u - 1}, got n={n}")
    return (n + 1) ** 2 // 4


def partial_sum_largest(u: int, n: int) -> int:
    """Sum of the n largest elements of {1,1,2,2,...,u-1,u-1,u}: ceil(n(4u-n) / 4)."""
    if not 1 <= n <= 2 * u - 1:
        raise DomainError(f"need 1 <= n <= 2u-1 = {2 * u - 1}, got n={n}")
    return -(-(n * (4 * u - n)) // 4)


def _extreme_sums(p, s, t):
    # The two-regime case table, on ints or on int64 arrays alike.
    tt = 2 * t
    middle = (s + tt - p) ** 2 // 4
    big = _ceil_div4(s * (4 * t - s))
    small_b = tt <= p - 1
    r1 = _where(
        small_b,
        _where(s <= p - tt + 1, 0, middle),
        _where(s <= tt - p + 1, s * (tt - p), middle),
    )
    r2 = _where(
        small_b,
        _where(s <= tt - 1, big, t * t),
        _where(s <= 2 * p - tt - 1, big, s * (tt - p) + (p - t) ** 2),
    )
    return r1, r2


def extreme_sums(p: int, s: int, t: int) -> tuple[int, int]:
    """(r1, r2): the sums of the s smallest and s largest overlap values.

    Evaluated from the two-regime case table rather than by sorting the
    profile; the profile-sorting route is kept as a test oracle. For every
    odd p the result coincides with (lower_bound, upper_bound), which is the
    identity the test suite pins across the whole desk-scale range.
    """
    params = Params(p, s, t)
    return _extreme_sums(params.p, params.s, params.t)


def extreme_sums_grid(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(r1, r2) over the whole (s, t) grid; entry [s-1, t-1] is the value at (s, t)."""
    p = check_modulus(p)
    s = np.arange(1, p, dtype=np.int64)[:, None]
    t = np.arange(1, p, dtype=np.int64)[None, :]
    return _extreme_sums(p, s, t)


def select_multisubset(profile: ShiftProfile, s: int, r: int) -> dict[int, int]:
    """The size-s multi-subset of the profile summing to r with the most
    copies of each value, compared from the largest value down.

    On consecutive values this is the k largest elements, one element w,
    then the s - k - 1 smallest elements. Write split(k) for the sum of the
    k largest plus the s - k smallest; it grows with k. The top k elements
    can be taken exactly while split(k) <= r, so k is the largest such k, found
    by one bisect. No further element may reach the (k + 1)-th largest
    value, since that would cost at least split(k + 1) > r. The largest
    remaining element is then as large as possible when the others are the
    smallest: w is the (s - k)-th smallest value plus r - split(k), and it
    lies below the (k + 1)-th largest value. Sums of the n smallest come from
    cumulative counts and sums over the distinct values, so the multiset is
    never expanded.

    Raises :class:`UnattainableTargetError` when r is outside [r1, r2].
    """
    s = operator.index(s)
    r = operator.index(r)
    if not 1 <= s <= profile.p:
        raise DomainError(f"selection size must satisfy 1 <= s <= p, got s={s}")
    values = sorted(profile.counts)
    # below[i]: how many elements are smaller than values[i]; below_sum[i]: their sum
    below = [0, *accumulate(profile.counts[v] for v in values)]
    below_sum = [0, *accumulate(v * profile.counts[v] for v in values)]
    size = below[-1]

    def smallest(n: int) -> int:
        # Sum of the n smallest elements of the ascending multiset.
        i = bisect_right(below, n) - 1
        return below_sum[i] if i == len(values) else below_sum[i] + (n - below[i]) * values[i]

    def split(k: int) -> int:
        # The k largest elements plus the s - k smallest.
        return below_sum[-1] - smallest(size - k) + smallest(s - k)

    r1, r2 = split(0), split(s)
    if not r1 <= r <= r2:
        raise UnattainableTargetError(r, r1, r2)
    k = bisect_right(range(s + 1), r, key=split) - 1
    chosen: Counter[int] = Counter()
    # positions [lo, hi) of the ascending multiset: the k largest, the s - k - 1 smallest
    for lo, hi in ((size - k, size), (0, max(s - k - 1, 0))):
        i = bisect_right(below, lo) - 1
        while i < len(values) and below[i] < hi:
            chosen[values[i]] += min(hi, below[i + 1]) - max(lo, below[i])
            i += 1
    if k < s:  # w: the (s - k)-th smallest value plus the remainder
        w = values[bisect_right(below, s - k - 1) - 1] + r - split(k)
        chosen[w] += 1
    selection = {v: chosen[v] for v in sorted(chosen, reverse=True)}
    taken = (sum(selection.values()), sum(v * c for v, c in selection.items()))
    if taken != (s, r):
        raise VerificationError(f"selection has (size, sum) {taken}, wanted {(s, r)}")
    return selection


def realize_set(selection: dict[int, int], profile: ShiftProfile) -> ResidueSet:
    """The canonical set A whose overlap multiset equals ``selection``.

    ``selection`` must draw on ``profile``, the overlap multiset of the
    interval B = {0..t-1} in Z_p. Tie-breaking: value t comes from a = 0; an
    intermediate value v comes first from the positive representative
    a = t - v, then from p - (t - v); the floor value takes residues from its
    canonical run in increasing order (starting at t when the floor is 0, at
    p - t otherwise). The residues and the floor run go into one bool
    indicator, packed into the bitmask once.
    """
    p, t = profile.p, profile.t
    floor = profile.floor_value
    residues = []
    run = slice(0, 0)  # the floor run
    for v, c in sorted(selection.items(), reverse=True):
        c = operator.index(c)
        if c < 0 or c > profile.counts.get(v, 0):
            raise DomainError(
                f"selection takes {c} copies of value {v}, profile has {profile.counts.get(v, 0)}"
            )
        if c == 0:
            continue
        if v == t:
            residues.append(0)
        elif v > floor:
            residues.append(t - v)
            if c == 2:
                residues.append(p - (t - v))
        else:
            start = t if floor == 0 else p - t
            run = slice(start, start + c)
    flags = np.zeros(max(run.stop, max(residues, default=-1) + 1), dtype=bool)
    flags[residues] = True
    flags[run] = True
    return ResidueSet(p, pack_indicator(flags))


@dataclass(frozen=True)
class ConstructionWitness:
    """A verified witness: |A| = s, B = {0..t-1}, and r(A, B, B) = target_r."""

    p: int
    s: int
    t: int
    target_r: int
    a_set: ResidueSet
    b_set: ResidueSet
    selection: dict[int, int]
    achieved_r: int


def construct(p: int, s: int, t: int, r: int) -> ConstructionWitness:
    """Build A with r(A, B, B) = r for B = {0..t-1}; works for every odd p.

    The achieved count is recomputed from the residues of A by
    :func:`counting.count_interval`, in O(s), before the witness is
    returned; a mismatch would be a bug and raises :class:`VerificationError`.
    """
    params = Params(p, s, t)
    r = operator.index(r)
    r1, r2 = extreme_sums(p, s, t)
    if not r1 <= r <= r2:
        raise UnattainableTargetError(r, r1, r2)
    profile = build_shift_profile(p, t)
    selection = select_multisubset(profile, s, r)
    a_set = realize_set(selection, profile)
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
        selection=selection,
        achieved_r=achieved,
    )

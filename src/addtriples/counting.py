"""Four independent methods for the additive-triple count r(A, B, B).

r(A, B, B) is the number of triples (a, b, a+b) in A x B x B, equivalently
the number of pairs (a, b) in A x B with a + b in B. The methods use
deliberately different mechanisms so that they can cross-check one another:

* :func:`count_naive` walks every (a, b) pair; it is the reference oracle.
* :func:`count_shift` sums the shift overlaps |(x + Y) n B| by bitmask
  shift and popcount, with x running over the smaller of A and B and Y the
  other set (a + b is symmetric in a and b).
* :func:`count_layers` sums |S_i n B| over the layer sets S_i, where S_i
  collects the residues expressible as a + b in at least i ways.
* :func:`count_convolution` forms the representation counts as a schoolbook
  ``np.convolve`` of float64 indicator vectors (no FFT) and sums them over B.
  It is exact: every product is 0 or 1, so every partial sum is an integer
  of at most min(|A|, |B|) < 2^31 < 2^53, and the sum over B is taken in int64.

:func:`count_triples` is the entry point for callers that just want the
number; it is :func:`count_shift`, the fastest of the four at every modulus.
The numpy routes read the members of A and B as the read-only int64 array
each :class:`ResidueSet` caches once; :func:`count_shift` reads the same
members as Python ints through :meth:`ResidueSet.elements`.

:func:`count_interval` is not a fifth cross-check route: it is a specialised
recount for B = {0..t-1} only, which :func:`construct` uses to recount every
witness it builds. It reads the maximal runs of A inside the two windows
that meet B with :func:`residues.bit_runs`, C-level O(p) scans, and adds a
closed-form arithmetic series per run, so its Python work is O(runs) and it
never imports numpy.

:func:`count_naive` and the representation counts behind :func:`count_layers`
both walk the pair sums a + b in numpy blocks of whole rows of A, each
holding at most max(_PAIR_BLOCK, |B|) pairs (2^20 pairs, 8 MB, unless B alone
is larger), so their memory does not grow with |A| * |B|.

Nothing here keeps state between calls. A caller that wants the naive count
and N(c) for one pair, as a verify trial does, walks the pair sums once with
:func:`naive_and_representation_counts`: each block goes through the naive
membership gather and through the tally, each route keeping its own
mechanism. N(c) then feeds :func:`count_layers_from_counts`, the core of
:func:`count_layers`, and :func:`sizes_at_least`, which reads the layer
sizes off it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .residues import (
    DomainError,
    NumpyOnFirstUse,
    ResidueSet,
    bit_runs,
    common_modulus,
    pack_indicator,
)

np = NumpyOnFirstUse(globals())  # numpy is imported on first use


def _index(x_set: ResidueSet) -> np.ndarray:
    """The members of a set as its cached read-only int64 array, not a copy."""
    return x_set._member_array


# Pairs per block of :func:`_pair_sums`: 8 MB of int64 sums.
_PAIR_BLOCK = 1 << 20


def _pair_sums(a_set: ResidueSet, b_set: ResidueSet) -> Iterator[np.ndarray]:
    """The sums a + b over A x B, unreduced (in [0, 2p - 2]), as 2-d int64 blocks.

    Each block is ``np.add.outer`` of a run of whole rows of A with B, and
    holds at most max(_PAIR_BLOCK, |B|) pairs. The sums are int64 because
    2p - 2 overflows int32 once p > 2^30.
    """
    a_idx, b_idx = _index(a_set), _index(b_set)
    if not b_idx.size:
        return
    rows = max(1, _PAIR_BLOCK // b_idx.size)
    for start in range(0, a_idx.size, rows):
        yield np.add.outer(a_idx[start:start + rows], b_idx)


def _doubled_indicator(b_set: ResidueSet, p: int) -> np.ndarray:
    """Entry c, for c < 2p, is true exactly when c mod p is in B."""
    in_b = np.zeros(2 * p, dtype=bool)
    in_b[_index(b_set)] = True
    in_b[p:] = in_b[:p]
    return in_b


def count_naive(a_set: ResidueSet, b_set: ResidueSet) -> int:
    """Definitional enumeration of all |A| * |B| pairs. The reference the fast paths answer to.

    Membership of each sum a + b in B is gathered from a doubled indicator of
    length 2p (a + b < 2p, so no reduction is needed), one block of
    :func:`_pair_sums` at a time. The gathers run in numpy, but the work is
    still one lookup per pair.
    """
    in_b = _doubled_indicator(b_set, common_modulus(a_set, b_set))
    return sum(int(np.count_nonzero(in_b[block])) for block in _pair_sums(a_set, b_set))


def count_shift(a_set: ResidueSet, b_set: ResidueSet) -> int:
    """Pairs (a, b) with a + b in B, by shift and popcount over the smaller of A and B.

    ``doubled`` = B | B << p has bit c set for c < 2p exactly when c mod p is
    in B, so for x in one set and Y the other, popcount((Y << x) & doubled)
    counts the y in Y with x + y in B. a + b is symmetric in a and b, so x
    may run over whichever of A and B is smaller.
    """
    p = common_modulus(a_set, b_set)
    doubled = b_set.bits | b_set.bits << p
    walk, other = sorted((a_set, b_set), key=len)
    yy = other.bits
    total = 0
    for x in walk.elements():
        total += ((yy << x) & doubled).bit_count()
    return total


def count_interval(a_set: ResidueSet, b_set: ResidueSet) -> int:
    """r(A, B, B) for the interval B = {0..t-1} only, in closed form over the runs of A.

    For 0 <= a < p the arc a + B is the integers a..a+t-1: its part below p
    meets B in t - a residues when a < t, and its part from p up, reduced,
    in a + t - p when a > p - t. So only the members of A in those two
    windows count, and a run [lo, hi) of them adds an arithmetic series:
    T(t - lo) - T(t - hi) in the first, T(hi + t - p - 1) - T(lo + t - p - 1)
    in the second, T(n) = n(n + 1)/2. :func:`residues.bit_runs` reads the
    runs of each window alone, off the bits of A masked by B and off the bits
    of A from p - t + 1 up: a C-level O(p) scan plus O(runs) Python
    arithmetic, exact for any A, and no numpy. Raises :class:`DomainError`
    for any other B.
    """
    p = common_modulus(a_set, b_set)
    t = b_set.cardinality
    if b_set.bits.bit_length() != t:  # t members, the highest at t - 1
        raise DomainError(f"B is not the interval {{0..{t - 1}}} of Z_{p}")
    twice = 0  # twice the count: each series is T(.) - T(.), and 2T(n) = n(n + 1)
    for lo, hi in bit_runs(a_set.bits & b_set.bits):
        twice += (t - lo) * (t - lo + 1) - (t - hi) * (t - hi + 1)
    for lo, hi in bit_runs(a_set.bits >> (p - t + 1)):  # lo, hi counted from p - t + 1
        twice += hi * (hi + 1) - lo * (lo + 1)
    return twice // 2


def representation_counts(a_set: ResidueSet, b_set: ResidueSet) -> np.ndarray:
    """N(c) = #{(a, b) in A x B : a + b = c} for every residue c, as an int64[p].

    The sums are tallied over a table of length 2p, one block of at most
    max(_PAIR_BLOCK, |B|) pairs at a time, so memory stays bounded however
    large |A| * |B| is; the two halves of the table are then folded.
    """
    p = common_modulus(a_set, b_set)
    doubled = np.zeros(2 * p, dtype=np.int64)
    for block in _pair_sums(a_set, b_set):
        doubled += np.bincount(block.ravel(), minlength=2 * p)
    return doubled[:p] + doubled[p:]  # c and c + p are the same residue


def naive_and_representation_counts(
    a_set: ResidueSet, b_set: ResidueSet
) -> tuple[int, np.ndarray]:
    """(:func:`count_naive`, :func:`representation_counts`) from one walk of the pair sums.

    Each block of :func:`_pair_sums` goes through both routes in turn: the
    naive gather against the doubled indicator of B, one membership lookup
    per pair, and the ``bincount`` tally of the sums. Neither result is
    derived from the other.
    """
    p = common_modulus(a_set, b_set)
    in_b = _doubled_indicator(b_set, p)
    doubled = np.zeros(2 * p, dtype=np.int64)
    hits = 0
    for block in _pair_sums(a_set, b_set):
        hits += int(np.count_nonzero(in_b[block]))
        doubled += np.bincount(block.ravel(), minlength=2 * p)
    return hits, doubled[:p] + doubled[p:]


@dataclass(frozen=True)
class LayerDecomposition:
    """The nested layer sets S_1 >= S_2 >= ... of a pair (A, B).

    ``layers[i-1]`` is S_i, the set of residues expressible as a + b in at
    least i ways; ``multiplicity[c]`` is the exact number of representations
    of c. Only the nonempty layers are materialised, and there are at most
    min(|A|, |B|) of them.
    """

    modulus: int
    layers: tuple[ResidueSet, ...]
    multiplicity: tuple[int, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(layer.cardinality for layer in self.layers)


def layers(a_set: ResidueSet, b_set: ResidueSet) -> LayerDecomposition:
    """Materialise the layer decomposition of (A, B)."""
    counts = representation_counts(a_set, b_set)
    built = tuple(
        ResidueSet(a_set.modulus, pack_indicator(counts >= i))
        for i in range(1, int(counts.max()) + 1)
    )
    return LayerDecomposition(a_set.modulus, built, tuple(int(c) for c in counts))


def sizes_at_least(multiplicity: np.ndarray) -> np.ndarray:
    """Entry i-1 counts the entries of ``multiplicity`` that are >= i, for i = 1..max.

    On the representation counts N of (A, B) these are the layer sizes
    |S_1|, |S_2|, ...; on N restricted to B they are the |S_i n B|.
    """
    return np.cumsum(np.bincount(multiplicity)[::-1])[::-1][1:]


def layer_sizes(a_set: ResidueSet, b_set: ResidueSet) -> list[int]:
    """|S_1|, |S_2|, ... without materialising the sets."""
    return [int(x) for x in sizes_at_least(representation_counts(a_set, b_set))]


def count_layers_from_counts(counts: np.ndarray, b_set: ResidueSet) -> int:
    """Sum of |S_i n B|, from the representation counts N of (A, B)."""
    return int(sizes_at_least(counts[_index(b_set)]).sum())  # entry i-1 is |S_i n B|


def count_layers(a_set: ResidueSet, b_set: ResidueSet) -> int:
    """Sum of |S_i n B| over the layer decomposition.

    |S_i n B| is the number of residues of B with multiplicity at least i,
    so the layer sets are consumed as thresholds of the multiplicity vector
    rather than materialised; :func:`layers` does the materialising when the
    sets themselves are wanted, and the two views are pinned to each other
    by tests.
    """
    return count_layers_from_counts(representation_counts(a_set, b_set), b_set)


def count_convolution(a_set: ResidueSet, b_set: ResidueSet) -> int:
    """Representation counts as a schoolbook float64 convolution, summed over B.

    ``np.convolve`` of the two 0/1 indicator vectors (direct summation, no
    FFT) is exact in float64: every product is 0 or 1, so every partial sum
    is an integer of at most min(|A|, |B|) < 2^31 < 2^53. The counts are
    summed over B in int64, since their total can pass 2^53. The work is
    O(p^2) whatever the sizes of A and B.
    """
    p = common_modulus(a_set, b_set)
    if not a_set.cardinality or not b_set.cardinality:
        return 0
    a_idx, b_idx = _index(a_set), _index(b_set)
    ind_a = np.zeros(p)
    ind_b = np.zeros(p)
    ind_a[a_idx] = 1.0
    ind_b[b_idx] = 1.0
    linear = np.convolve(ind_a, ind_b)  # length 2p-1, exact integers
    circular = linear[:p].copy()
    circular[: p - 1] += linear[p:]  # indices c and c + p agree mod p
    return int(circular[b_idx].sum(dtype=np.int64))


def count_triples(a_set: ResidueSet, b_set: ResidueSet) -> int:
    """r(A, B, B) for callers that just want the number: :func:`count_shift`.

    Shift-and-popcount costs O(min(|A|, |B|) p / 64) word operations, so it
    beats the O(p^2) schoolbook convolution at every modulus.
    :func:`count_convolution` stays only as an independent cross-check.
    """
    return count_shift(a_set, b_set)


def complement_identity_rhs(p: int, s: int, t: int) -> int:
    """st - s(p - t) + (p - t)^2, the joint total of a count and its complement count.

    r(A, B, B) + r(A', B', B') equals this for complements A', B', whatever
    the sets look like.
    """
    if not (0 <= s <= p and 0 <= t <= p):
        raise DomainError(f"sizes must lie in [0, p], got s={s}, t={t}, p={p}")
    return s * t - s * (p - t) + (p - t) ** 2

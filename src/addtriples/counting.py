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

:func:`count_naive` and the representation counts N(c) behind
:func:`count_layers` each choose one of two kernels by :func:`_dense`. A
dense kernel reads the length-p windows of a doubled indicator, one strided
view, and builds no table of pair sums; a sparse one walks ``np.add.outer``
blocks of the sums a + b, so a sparse pair costs O(|A| * |B|) at any p.
Every kernel works in blocks of whole rows, so memory does not grow with
|A| * |B|. N(c) never comes from ``np.convolve`` or from the naive count.

Nothing here keeps state between calls. N(c) feeds
:func:`count_layers_from_counts`, the core of :func:`count_layers`, and
:func:`sizes_at_least`, which reads the layer sizes off it.
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


# Pairs per block of :func:`_pair_sums` (8 MB of int64 sums), and bytes per
# block of :func:`_window_rows` (at most max(_PAIR_BLOCK, p)).
_PAIR_BLOCK = 1 << 20

# The dense kernels read p cells per walked row where the pair sums read one
# per pair, and make a few more numpy calls. Measured with numpy 2 at
# p = 101..4099, they win once the set not walked holds p / _DENSE residues
# or more and there are at least _DENSE_PAIRS pairs.
_DENSE = 8
_DENSE_PAIRS = 1 << 11


def _dense(p: int, other: int, pairs: int) -> bool:
    """Whether a dense kernel beats the pair sums, ``other`` the size of the set not walked."""
    return _DENSE * other >= p and pairs >= _DENSE_PAIRS


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


def _window_rows(doubled: np.ndarray, p: int, starts: np.ndarray) -> Iterator[np.ndarray]:
    """The windows ``doubled[x : x + p]`` for x in ``starts`` (each in [0, p]), as 2-d blocks.

    The p + 1 windows of the length-2p array are one read-only view with
    strides (1, 1), so a row costs nothing until it is gathered. Each block
    gathers max(1, _PAIR_BLOCK // p) rows, so it holds at most
    max(_PAIR_BLOCK, p) bytes, and at most p starts make at most 1024 rows.
    """
    windows = np.ndarray((p + 1, p), dtype=doubled.dtype, buffer=doubled, strides=(1, 1))
    windows.flags.writeable = False
    rows = max(1, _PAIR_BLOCK // p)
    for start in range(0, starts.size, rows):
        yield windows[starts[start:start + rows]]


def _naive_dense(a_set: ResidueSet, b_set: ResidueSet, p: int) -> int:
    """The rows of the windows of B's doubled indicator at A, then their columns at B."""
    b_idx = _index(b_set)
    rows = _window_rows(_doubled_indicator(b_set, p), p, _index(a_set))
    total = 0
    for block in rows:
        total += int(np.count_nonzero(block[:, b_idx]))
    return total


def _naive_sparse(a_set: ResidueSet, b_set: ResidueSet, p: int) -> int:
    """B's doubled indicator read at the sums of :func:`_pair_sums`."""
    in_b = _doubled_indicator(b_set, p)
    total = 0
    for sums in _pair_sums(a_set, b_set):
        total += int(np.count_nonzero(in_b[sums]))
    return total


def count_naive(a_set: ResidueSet, b_set: ResidueSet) -> int:
    """Definitional enumeration of all |A| * |B| pairs. The reference the fast paths answer to.

    Membership of each sum a + b in B is read from a doubled indicator of
    length 2p (a + b < 2p, so no reduction is needed), one lookup per pair.
    The dense kernel gathers the windows of that indicator at A, a block of
    rows at a time, then their columns at B: entry (a, b) is the indicator
    at a + b. The sparse kernel indexes it by the blocks of
    :func:`_pair_sums`, so a sparse B costs O(|A| * |B|) at any p.
    """
    p = common_modulus(a_set, b_set)
    if _dense(p, b_set.cardinality, a_set.cardinality * b_set.cardinality):
        return _naive_dense(a_set, b_set, p)
    return _naive_sparse(a_set, b_set, p)


def count_shift(a_set: ResidueSet, b_set: ResidueSet) -> int:
    """Pairs (a, b) with a + b in B, by shift and popcount over the smaller of A and B.

    ``doubled`` = B | B << p has bit c set for c < 2p exactly when c mod p is
    in B, so for x in one set and Y the other, popcount((Y << x) & doubled)
    counts the y in Y with x + y in B. a + b is symmetric in a and b, so x
    may run over whichever of A and B is smaller.
    """
    p = common_modulus(a_set, b_set)
    doubled = b_set.bits | b_set.bits << p
    walk, other = (a_set, b_set) if a_set.cardinality <= b_set.cardinality else (b_set, a_set)
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


def _counts_dense(x_set: ResidueSet, y_set: ResidueSet, p: int) -> np.ndarray:
    """The sum of the windows at p - x of Y's doubled indicator, over x in X.

    A block of :func:`_window_rows` has at most 1024 rows, so its column
    sums fit in uint16, which numpy adds faster than int32.
    """
    counts = np.zeros(p, dtype=np.int64)
    in_y = _doubled_indicator(y_set, p).view(np.uint8)
    for block in _window_rows(in_y, p, p - _index(x_set)):
        counts += block.sum(axis=0, dtype=np.uint16)
    return counts


def _counts_sparse(a_set: ResidueSet, b_set: ResidueSet, p: int) -> np.ndarray:
    """The sums of :func:`_pair_sums` tallied over 2p slots, then folded."""
    doubled = np.zeros(2 * p, dtype=np.int64)
    for block in _pair_sums(a_set, b_set):
        doubled += np.bincount(block.ravel(), minlength=2 * p)
    return doubled[:p] + doubled[p:]  # c and c + p are the same residue


def representation_counts(a_set: ResidueSet, b_set: ResidueSet) -> np.ndarray:
    """N(c) = #{(a, b) in A x B : a + b = c} for every residue c, as an int64[p].

    With X the smaller of A and B and Y the other, N(c) is the sum over x in
    X of 1_Y(c - x), and those p values are the window at p - x of Y's
    doubled indicator. The dense kernel sums those windows, a block of rows
    at a time; the sparse kernel tallies the blocks of :func:`_pair_sums`.
    Either way memory stays bounded however large |A| * |B| is.
    """
    p = common_modulus(a_set, b_set)
    x_set, y_set = (a_set, b_set) if a_set.cardinality <= b_set.cardinality else (b_set, a_set)
    if _dense(p, y_set.cardinality, a_set.cardinality * b_set.cardinality):
        return _counts_dense(x_set, y_set, p)
    return _counts_sparse(a_set, b_set, p)


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
    return np.bincount(multiplicity)[::-1].cumsum()[::-1][1:]


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

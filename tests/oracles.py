"""Deliberately dumb reference implementations used to pin expected values.

Everything here is written for transparency, not speed, and stays
independent of the library code it checks.
"""

from itertools import combinations, product


def brute_count(p, a_elems, b_elems):
    """Triple count straight from the definition."""
    b = {x % p for x in b_elems}
    total = 0
    for a in a_elems:
        for x in b:
            if (a + x) % p in b:
                total += 1
    return total


def interval_count(p, a_elems, t):
    """r(A, B, B) for B = {0..t-1}, 0 <= t <= p, one residue of A at a time: the arc
    a + B meets B in max(0, t - a) residues below p and max(0, a + t - p) from p up."""
    return sum(max(0, t - a) + max(0, a + t - p) for a in a_elems)


def sample_indicator(rng, p, size):
    """The bitmask of ``rng.sample(range(p), size)``, which verify's draw must match word for
    word."""
    return sum(1 << x for x in rng.sample(range(p), size))


def brute_multiplicities(p, a_elems, b_elems):
    """Number of representations of each residue as a + b."""
    counts = [0] * p
    for a in a_elems:
        for b in b_elems:
            counts[(a + b) % p] += 1
    return counts


def brute_spectrum(p, s, t):
    """Attained triple counts over every pair of subsets of sizes s and t."""
    values = set()
    for b in combinations(range(p), t):
        for a in combinations(range(p), s):
            values.add(brute_count(p, a, b))
    return sorted(values)


def ascending_profile(profile):
    """The full overlap multiset of a ``ShiftProfile`` as a sorted list of its p values."""
    out = []
    for v in sorted(profile.counts):
        out.extend([v] * profile.counts[v])
    return out


def pair_multiset(u):
    """The multiset {1,1,2,2,...,u-1,u-1,u}, sorted ascending."""
    out = []
    for v in range(1, u):
        out.extend((v, v))
    out.append(u)
    return out


def first_witnesses(p, s, t):
    """The first (A, B) per attained value: B containing 0, then A, both in lex order."""
    found = {}
    for rest in combinations(range(1, p), t - 1):
        b = (0, *rest)
        for a in combinations(range(p), s):
            found.setdefault(brute_count(p, a, b), (a, b))
    return found


def first_b_per_histogram(p, t):
    """Yield (B, overlaps) for the lex-first t-set B containing 0 with each overlap histogram.

    overlaps[a] = |(a + B) n B|; two sets share a histogram when their sorted
    overlaps are equal.
    """
    seen = set()
    for rest in combinations(range(1, p), t - 1):
        b = (0, *rest)
        overlaps = [len({(a + x) % p for x in b} & set(b)) for a in range(p)]
        key = tuple(sorted(overlaps))
        if key not in seen:
            seen.add(key)
            yield b, overlaps


def lexmax_selection(counts, s, r):
    """The size-s, sum-r count vector over a multiset that is lex-max from the largest value down.

    ``counts`` maps value -> multiplicity. Count vectors are enumerated with the
    largest value's count varying slowest and every count descending, so the
    first match is the lex-max one. Returns a value -> count dict in descending
    value order without zero counts, or None when nothing matches.
    """
    values = sorted(counts, reverse=True)
    for vector in product(*(range(counts[v], -1, -1) for v in values)):
        if sum(vector) == s and sum(v * c for v, c in zip(values, vector)) == r:
            return {v: c for v, c in zip(values, vector) if c}
    return None


def greedy_lexmax_selection(ascending, s, r):
    """The size-s, sum-r sub-multiset of a sorted list that is lex-max from the largest value down.

    Walks the list from its largest element down and takes an element whenever
    the rest can still be completed from the elements below it. That test is
    exact when neighbouring values differ by at most one, as in an overlap
    profile: then the sums of n elements drawn from the i lowest are every
    integer from the n smallest to the n largest of them. Returns a value ->
    count dict in descending value order, or None when nothing matches.
    """
    prefix = [0]
    for x in ascending:
        prefix.append(prefix[-1] + x)
    chosen = {}
    need, left = s, r
    for i in range(len(ascending) - 1, -1, -1):
        x, n = ascending[i], need - 1  # after taking x, n more from ascending[:i]
        if 0 <= n <= i and prefix[n] <= left - x <= prefix[i] - prefix[i - n]:
            chosen[x] = chosen.get(x, 0) + 1
            need, left = n, left - x
    return chosen if (need, left) == (0, 0) else None


def realized_elements(selection, p, t):
    """The residues that realise an overlap selection for B = {0..t-1}, ascending.

    The element-list tie-break rule: value t comes from 0; an intermediate
    value v from t - v, then from p - (t - v); the floor value max(0, 2t - p)
    from its run in increasing order, starting at t when the floor is 0 and
    at p - t otherwise.
    """
    floor = max(0, 2 * t - p)
    elements = []
    for v, c in selection.items():
        if v == t:
            elements.append(0)
        elif v > floor:
            elements.extend([t - v, p - (t - v)][:c])
        else:
            start = t if floor == 0 else p - t
            elements.extend(range(start, start + c))
    return tuple(sorted(elements))


def selection_sums(values, size):
    """For c = 0..size, the set of sums of c entries of ``values`` taken at distinct positions.

    Entry c of the result collects the sums of c entries among those seen so far.
    """
    sums = [{0}] + [set() for _ in range(size)]
    for seen, v in enumerate(values, start=1):
        for c in range(min(seen, size), 0, -1):
            sums[c] |= {x + v for x in sums[c - 1]}
    return sums


def pollard_sweep(p, a_elems, b_elems):
    """(holds, lhs, rhs) of sum_{i<=j} |S_i| >= j min(p, s+t-j) for j = 1..min(s, t), by plain loops.

    S_i is the set of residues with at least i representations as a + b.
    """
    counts = brute_multiplicities(p, a_elems, b_elems)
    s, t = len(a_elems), len(b_elems)
    checks = []
    lhs = 0
    for j in range(1, min(s, t) + 1):
        lhs += sum(1 for c in counts if c >= j)
        rhs = j * min(p, s + t - j)
        checks.append((lhs >= rhs, lhs, rhs))
    return checks

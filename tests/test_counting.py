import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from addtriples import counting
from addtriples.construction import construct, extreme_sums
from addtriples.residues import (
    DomainError,
    IncompatibleSetsError,
    ResidueSet,
    empty_set,
    full_set,
    interval_set,
    make_set,
)

from oracles import brute_count, brute_multiplicities, interval_count

METHODS = [
    counting.count_naive,
    counting.count_shift,
    counting.count_layers,
    counting.count_convolution,
    counting.count_triples,
]

PAPER_A9 = [0, 1, 2, 4, 5, 7, 8]
PAPER_B9 = [0, 1, 3, 4, 6, 7]


@pytest.mark.parametrize("method", METHODS)
class TestAgainstKnownValues:
    def test_small_pair(self, method):
        a = make_set(5, [0, 1])
        assert method(a, a) == 3

    def test_composite_witness(self, method):
        assert method(make_set(9, PAPER_A9), make_set(9, PAPER_B9)) == 24

    def test_empty_sides(self, method):
        assert method(make_set(5, []), make_set(5, [0, 1])) == 0
        assert method(make_set(5, [0, 1]), make_set(5, [])) == 0

    def test_shift_sum_example(self, method):
        # per-shift overlaps are 5, 2, 0, 0
        assert method(make_set(11, [0, 3, 5, 6]), make_set(11, range(5))) == 7

    def test_full_a_gives_t_squared(self, method):
        assert method(full_set(7), make_set(7, [0, 1, 2])) == 9

    def test_singleton_a_against_interval(self, method):
        assert method(make_set(13, [0]), make_set(13, range(4))) == 4

    def test_modulus_mismatch(self, method):
        with pytest.raises(IncompatibleSetsError):
            method(make_set(5, [0]), make_set(7, [0]))


def all_subset_pairs(p):
    for abits in range(1 << p):
        for bbits in range(1 << p):
            yield ResidueSet(p, abits), ResidueSet(p, bbits)


@pytest.mark.parametrize("p", [3, 5])
def test_four_way_agreement_exhaustive(p):
    for a, b in all_subset_pairs(p):
        reference = brute_count(p, list(a), list(b))
        assert counting.count_naive(a, b) == reference
        assert counting.count_shift(a, b) == reference
        assert counting.count_layers(a, b) == reference
        assert counting.count_convolution(a, b) == reference


def test_four_way_agreement_exhaustive_p7():
    mismatches = []
    for a, b in all_subset_pairs(7):
        r = counting.count_naive(a, b)
        if not r == counting.count_shift(a, b) == counting.count_layers(a, b) == counting.count_convolution(a, b):
            mismatches.append((a, b))
    assert not mismatches


@given(
    st.sampled_from([9, 15, 17, 23, 25, 49]).flatmap(
        lambda p: st.tuples(
            st.integers(min_value=0, max_value=(1 << p) - 1),
            st.integers(min_value=0, max_value=(1 << p) - 1),
        ).map(lambda bits: (ResidueSet(p, bits[0]), ResidueSet(p, bits[1])))
    )
)
def test_four_way_agreement_randomized(pair):
    a, b = pair
    reference = brute_count(a.modulus, list(a), list(b))
    for method in METHODS:
        assert method(a, b) == reference


class TestLayers:
    def test_small_example(self):
        a = make_set(5, [0, 1])
        dec = counting.layers(a, a)
        assert [layer.elements() for layer in dec.layers] == [(0, 1, 2), (1,)]
        assert counting.count_layers(a, a) == 2 + 1

    def test_singleton(self):
        dec = counting.layers(make_set(5, [0]), make_set(5, [0]))
        assert [layer.elements() for layer in dec.layers] == [(0,)]

    def test_three_element_interval(self):
        a = make_set(5, [0, 1, 2])
        dec = counting.layers(a, a)
        assert [layer.elements() for layer in dec.layers] == [
            (0, 1, 2, 3, 4),
            (1, 2, 3),
            (2,),
        ]

    @given(
        st.sampled_from([5, 7, 9, 11, 13]).flatmap(
            lambda p: st.tuples(
                st.integers(min_value=0, max_value=(1 << p) - 1),
                st.integers(min_value=0, max_value=(1 << p) - 1),
            ).map(lambda bits: (ResidueSet(p, bits[0]), ResidueSet(p, bits[1])))
        )
    )
    def test_structure_invariants(self, pair):
        a, b = pair
        dec = counting.layers(a, b)
        # multiplicity matches the brute-force tally
        assert list(dec.multiplicity) == brute_multiplicities(a.modulus, list(a), list(b))
        # nesting, thresholds, and total mass
        for i, layer in enumerate(dec.layers, start=1):
            assert layer.elements() == tuple(
                c for c, m in enumerate(dec.multiplicity) if m >= i
            )
            if i > 1:
                assert layer.bits & dec.layers[i - 2].bits == layer.bits
        assert sum(layer.cardinality for layer in dec.layers) == a.cardinality * b.cardinality
        if dec.layers:
            assert len(dec.layers) <= min(a.cardinality, b.cardinality)
        # the two views of the layer method agree
        assert counting.count_layers(a, b) == sum(
            layer.intersection_size(b) for layer in dec.layers
        )
        assert counting.layer_sizes(a, b) == list(dec.sizes())


class TestIdentities:
    @pytest.mark.parametrize(
        "p,s,t,expected",
        [(5, 2, 2, 7), (9, 7, 6, 30), (7, 3, 7, 21)],
    )
    def test_complement_rhs_values(self, p, s, t, expected):
        assert counting.complement_identity_rhs(p, s, t) == expected

    def test_complement_rhs_domain(self):
        with pytest.raises(ValueError):
            counting.complement_identity_rhs(5, 6, 2)

    @given(
        st.sampled_from([5, 7, 9, 11, 15]).flatmap(
            lambda p: st.tuples(
                st.integers(min_value=0, max_value=(1 << p) - 1),
                st.integers(min_value=0, max_value=(1 << p) - 1),
            ).map(lambda bits: (ResidueSet(p, bits[0]), ResidueSet(p, bits[1])))
        )
    )
    def test_complement_identity(self, pair):
        a, b = pair
        p = a.modulus
        lhs = counting.count_naive(a, b) + counting.count_naive(a.complement(), b.complement())
        assert lhs == counting.complement_identity_rhs(p, a.cardinality, b.cardinality)

    @given(
        st.sampled_from([5, 7, 9, 11, 13]).flatmap(
            lambda p: st.integers(min_value=1, max_value=(1 << p) - 1).map(
                lambda bits: ResidueSet(p, bits)
            )
        )
    )
    def test_all_shifts_total_is_t_squared(self, b):
        total = sum(b.shift(a).intersection_size(b) for a in range(b.modulus))
        assert total == b.cardinality**2

    @given(
        st.sampled_from([5, 7, 9, 11]).flatmap(
            lambda p: st.tuples(
                st.integers(min_value=0, max_value=(1 << p) - 1),
                st.integers(min_value=0, max_value=(1 << p) - 1),
                st.integers(min_value=0, max_value=p - 1),
            ).map(lambda v: (ResidueSet(p, v[0]), ResidueSet(p, v[1]), v[2]))
        )
    )
    def test_translation_of_b_invariance(self, args):
        a, b, c = args
        assert counting.count_triples(a, b.shift(c)) == counting.count_triples(a, b)

    @given(
        st.sampled_from([5, 7, 11, 13]).flatmap(
            lambda p: st.tuples(
                st.integers(min_value=0, max_value=(1 << p) - 1),
                st.integers(min_value=0, max_value=(1 << p) - 1),
                st.integers(min_value=1, max_value=p - 1),
            ).map(lambda v: (ResidueSet(p, v[0]), ResidueSet(p, v[1]), v[2]))
        )
    )
    def test_dilation_invariance(self, args):
        a, b, lam = args
        p = a.modulus
        a2 = make_set(p, [lam * x for x in a])
        b2 = make_set(p, [lam * x for x in b])
        assert counting.count_triples(a2, b2) == counting.count_triples(a, b)


def test_count_triples_matches_naive_beyond_4096():
    rng = random.Random(4099)
    p = 4099
    for s, t in [(1, p - 1), (300, 2000), (p - 1, 1500)]:
        a = make_set(p, rng.sample(range(p), s))
        b = make_set(p, rng.sample(range(p), t))
        assert counting.count_triples(a, b) == counting.count_naive(a, b)


def test_convolution_matches_on_structured_inputs():
    # dense, sparse and interval shapes across a few moduli
    for p in (9, 15, 21):
        for a_elems, b_elems in [
            (range(p), range(3)),
            ([0], range(p - 1)),
            (range(0, p, 3), range(0, p, 2)),
        ]:
            a, b = make_set(p, a_elems), make_set(p, b_elems)
            assert counting.count_convolution(a, b) == brute_count(p, list(a), list(b))


@pytest.mark.parametrize("p", [3, 63, 65, 129, 4099])
def test_shift_walks_either_side(p):
    # |A| < |B|, |A| > |B|, |A| = |B|, an empty side and a full side; at p = 63, 65
    # and 129 the 2p-bit doubled mask of B ends beside a 64-bit word boundary
    rng = random.Random(p)
    small, big = max(1, p // 5), p - 1
    sizes = [(small, big), (big, small), (small, small), (big, big),
             (0, big), (big, 0), (p, small), (small, p), (0, p), (p, 0), (p, p)]
    for s, t in sizes:
        a = make_set(p, rng.sample(range(p), s))
        b = make_set(p, rng.sample(range(p), t))
        assert counting.count_shift(a, b) == counting.count_naive(a, b), (p, s, t)


def test_convolution_matches_shift_on_dense_and_interval_sets_at_p10001():
    p = 10001
    rng = random.Random(p)
    dense = [make_set(p, rng.sample(range(p), k)) for k in (p - 1, 9000, 7001)]
    intervals = [interval_set(p, k) for k in (1, 5000, p - 1)]
    for a, b in [(dense[0], dense[1]), (dense[2], dense[0]), (intervals[1], intervals[2]),
                 (dense[1], intervals[1]), (intervals[0], dense[2]), (full_set(p), intervals[1])]:
        assert counting.count_convolution(a, b) == counting.count_shift(a, b), (len(a), len(b))


@pytest.mark.parametrize("p,a_elems,b_elems", [
    (5, [], [0, 1, 3]),                  # empty A
    (5, [0, 2, 4], []),                  # empty B
    (11, [0, 3, 5, 6, 10], [7]),         # singleton B
    (11, range(11), [3, 10]),            # several rows per block
    (3, [0, 1, 2], [1, 2]),
    (3, [2], [2]),
    (13, [0, 4, 12], [1, 5, 12]),        # 12 + 12 = 2p - 2, the last slot of the doubled table
    (13, range(13), range(0, 13, 2)),
])
def test_pair_blocks_count_every_pair_once(monkeypatch, p, a_elems, b_elems):
    # each route's dense and sparse kernel, driven directly, whichever the rule picks
    a, b = make_set(p, a_elems), make_set(p, b_elems)
    x, y = sorted((a, b), key=len)
    expected_count = brute_count(p, list(a), list(b))
    expected_counts = brute_multiplicities(p, list(a), list(b))
    for block in sorted({1, 7, max(b.cardinality - 1, 1), 2 * p + 1}):  # 2p + 1: two rows a block
        monkeypatch.setattr(counting, "_PAIR_BLOCK", block)
        assert counting._naive_dense(a, b, p) == expected_count, block
        assert counting._naive_sparse(a, b, p) == expected_count, block
        assert counting.count_naive(a, b) == expected_count, block
        for counts in (counting._counts_dense(x, y, p), counting._counts_sparse(a, b, p),
                       counting.representation_counts(a, b)):
            assert counts.dtype == np.int64
            assert counts.tolist() == expected_counts, block


RULE_P = 257  # dense once the set not walked holds 33 residues and there are 2048 pairs


@pytest.mark.parametrize("s,t,naive_kernel,counts_kernel", [
    (100, 32, "_naive_sparse", "_counts_dense"),   # 8 * 32 < 257 <= 8 * 100
    (63, 33, "_naive_dense", "_counts_dense"),     # 63 * 33 = 2079 pairs
    (62, 33, "_naive_sparse", "_counts_sparse"),   # 62 * 33 = 2046 pairs
    (32, 31, "_naive_sparse", "_counts_sparse"),
    (RULE_P, RULE_P, "_naive_dense", "_counts_dense"),
    (0, 200, "_naive_sparse", "_counts_sparse"),
])
def test_each_kernel_serves_its_side_of_the_rule(monkeypatch, s, t, naive_kernel, counts_kernel):
    rng = random.Random(s * 1000 + t)
    p = RULE_P
    a, b = make_set(p, rng.sample(range(p), s)), make_set(p, rng.sample(range(p), t))
    ran = []
    for name in ("_naive_dense", "_naive_sparse", "_counts_dense", "_counts_sparse"):
        def spy(*args, name=name, kernel=getattr(counting, name)):
            ran.append(name)
            return kernel(*args)
        monkeypatch.setattr(counting, name, spy)
    for block in (1, 7, max(t - 1, 1), counting._PAIR_BLOCK):
        monkeypatch.setattr(counting, "_PAIR_BLOCK", block)
        ran.clear()
        assert counting.count_naive(a, b) == brute_count(p, list(a), list(b))
        assert counting.representation_counts(a, b).tolist() == brute_multiplicities(
            p, list(a), list(b))
        assert ran == [naive_kernel, counts_kernel], block


def test_a_sparse_pair_at_large_p_gathers_no_rows(monkeypatch):
    # 200 x 200 pairs at p = 1,000,003: the windows at A would be s * p = 200 MB of rows.
    # Their blocks would bound the peak too, so the gather itself is refused here.
    p, rng = 1_000_003, random.Random(11)
    a, b = make_set(p, rng.sample(range(p), 200)), make_set(p, rng.sample(range(p), 200))
    a._member_array, b._member_array  # the member caches are not what is measured

    def no_rows(*args):
        raise AssertionError("a sparse pair gathered window rows")

    monkeypatch.setattr(counting, "_window_rows", no_rows)
    results = {}
    for route in (counting.count_naive, counting.representation_counts):
        tracemalloc.start()
        try:
            results[route.__name__] = route(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sparse kernels hold a 2p indicator or 2p-slot tally (32 MB at most) and 40,000 sums
        assert peak < 48 * 2**20, (route.__name__, peak)
    assert results["count_naive"] == brute_count(p, list(a), list(b))
    counts = results["representation_counts"]
    expected = brute_multiplicities(p, list(a), list(b))
    assert counts.sum() == 200 * 200
    assert {c: int(counts[c]) for c in np.flatnonzero(counts)} == {
        c: n for c, n in enumerate(expected) if n}


def test_pair_routes_memory_is_bounded():
    # 4.2 M pairs, several blocks; one unblocked int64 table of their sums is 32 MB
    p = 4099
    a, b = make_set(p, range(p - 1)), make_set(p, range(1, p))
    a.elements(), b.elements()  # the member caches are not what is measured
    results = {}
    for route in (counting.count_naive, counting.count_layers, counting.layer_sizes,
                  counting.representation_counts):
        tracemalloc.start()
        try:
            results[route.__name__] = route(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (route.__name__, peak)  # 1 MB blocks of window rows
    assert results["count_naive"] == results["count_layers"] == counting.count_shift(a, b)
    assert sum(results["layer_sizes"]) == (p - 1) ** 2
    assert results["representation_counts"].sum() == (p - 1) ** 2


class TestCountInterval:
    def test_matches_shift_and_naive_for_every_a_and_t_to_p13(self):
        for p in range(3, 14, 2):
            for t in range(p + 1):
                b = interval_set(p, t)
                for abits in range(1 << p):
                    a = ResidueSet(p, abits)
                    r = counting.count_interval(a, b)
                    assert r == counting.count_shift(a, b) == counting.count_naive(a, b), (p, t, abits)

    def test_matches_shift_at_random_points_to_large_p(self):
        rng = random.Random(100001)
        for p in [100001, 99999, 65537, 30001, *(rng.randrange(3, 100002, 2) for _ in range(16))]:
            s, t = rng.randint(0, min(p, 20000)), rng.randint(0, p)
            a = make_set(p, rng.sample(range(p), s))
            b = interval_set(p, t)
            assert counting.count_interval(a, b) == counting.count_shift(a, b), (p, s, t)

    def test_refuses_a_b_that_is_not_the_interval_from_0(self):
        a = make_set(11, [0, 3, 5])
        for b_elems in ([1], [1, 2, 3], [0, 2], [0, 1, 3], [10, 0, 1], range(1, 11)):
            with pytest.raises(DomainError):
                counting.count_interval(a, make_set(11, b_elems))

    def test_modulus_mismatch(self):
        with pytest.raises(IncompatibleSetsError):
            counting.count_interval(make_set(5, [0]), interval_set(7, 3))

    @pytest.mark.parametrize("p", [3, 5, 9, 101, 4099])
    def test_empty_full_and_alternating_sets_for_every_t(self, p):
        # The even residues 0, 2, ..., p - 1 are the A with the most runs, (p + 1) / 2.
        # Closed forms: nothing for empty A; every overlap, t^2 in all, for full A; for
        # the even residues, the m = ceil(t/2) of them below t add t, t - 2, ..., and
        # the m2 = floor(t/2) of them above p - t add t - 1, t - 3, ...
        alternating = make_set(p, range(0, p, 2))
        sets = (empty_set(p), full_set(p), alternating)
        slow_ts = set(range(p + 1)) if p <= 101 else {0, 1, 2, 3, p // 2, p // 2 + 1, p - 1, p}
        for t in range(p + 1):
            b = interval_set(p, t)
            got = [counting.count_interval(a, b) for a in sets]
            m, m2 = (t + 1) // 2, t // 2
            assert got == [0, t * t, m * t - m * (m - 1) + m2 * (t - 1) - m2 * (m2 - 1)], (p, t)
            if t in slow_ts:
                assert got[2] == interval_count(p, alternating.elements(), t), (p, t)
                assert got == [counting.count_naive(a, b) for a in sets], (p, t)

    def test_kept_runs_and_the_bitmask_scan_agree(self):
        # count_interval clips ResidueSet.runs() to the two windows: the runs a set
        # built from runs keeps, or for a set built from its bitmask, a bit_runs
        # scan. The tests above keep to bitmask-built sets, so the scan stays
        # covered; here both sources meet on construct's witnesses and on runs that
        # straddle either window's edge, for every t at small p.
        rng = random.Random(31)
        for _ in range(300):
            p = rng.choice([rng.randrange(3, 60, 2), rng.randrange(61, 100002, 2)])
            s, t = rng.randint(1, p - 1), rng.randint(1, p - 1)
            r1, r2 = extreme_sums(p, s, t)
            r = rng.choice([r1, r1 + 1, r2 - 1, r2, rng.randint(r1, r2)])
            r = min(max(r, r1), r2)
            a, b = construct(p, s, t, r).a_set, interval_set(p, t)
            scanned = ResidueSet(p, a.bits)
            assert "_runs" in a.__dict__ and "_runs" not in scanned.__dict__
            got = counting.count_interval(a, b)
            assert got == counting.count_interval(scanned, b) == r, (p, s, t, r)
            if p < 2000:
                assert got == counting.count_shift(scanned, b), (p, s, t, r)
        for p in (3, 5, 9, 21):
            for _ in range(40):
                cuts = sorted(rng.choices(range(p + 1), k=2 * rng.randint(0, 4)))
                a = ResidueSet._from_runs(p, list(zip(cuts[::2], cuts[1::2])))
                scanned = ResidueSet(p, a.bits)
                for t in range(p + 1):
                    b = interval_set(p, t)
                    assert (counting.count_interval(a, b) == counting.count_interval(scanned, b)
                            == counting.count_shift(scanned, b)), (p, a, t)

    @pytest.mark.parametrize("p", [3, 5, 9, 101, 4099])
    def test_refuses_non_interval_b_at_every_modulus(self, p):
        a = make_set(p, range(0, p, 2))
        for b_elems in ([1], [0, 2], [p - 1], range(1, p), [*range(p // 2), p - 1]):
            with pytest.raises(DomainError):
                counting.count_interval(a, make_set(p, b_elems))

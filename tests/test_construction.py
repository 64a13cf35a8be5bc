import random
import time
import tracemalloc
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from addtriples import bounds, construction, counting
from addtriples.construction import (
    ShiftProfile,
    _select,
    _selection_counts,
    UnattainableTargetError,
    build_shift_profile,
    construct,
    extreme_sums,
    extreme_sums_grid,
    partial_sum_largest,
    partial_sum_smallest,
    shift_overlap,
)
from addtriples.residues import DomainError, VerificationError, interval_set, make_set
from addtriples.spectrum import spectrum_multiset_dp

from oracles import (
    ascending_profile,
    brute_count,
    greedy_lexmax_selection,
    lexmax_selection,
    pair_multiset,
    realized_elements,
)


class TestShiftOverlap:
    def test_zero_shift_gives_full_overlap(self):
        for p, t in [(11, 5), (9, 6), (101, 1)]:
            assert shift_overlap(p, t, 0) == t

    def test_symmetric_pair(self):
        assert shift_overlap(11, 5, 3) == 2
        assert shift_overlap(11, 5, 8) == 2

    def test_wraparound_regime(self):
        assert shift_overlap(9, 6, 4) == 3

    def test_matches_direct_set_computation(self):
        for p in (9, 11, 15, 21):
            for t in range(1, p):
                b = make_set(p, range(t))
                for a in range(p):
                    assert shift_overlap(p, t, a) == b.shift(a).intersection_size(b), (p, t, a)

    def test_domain(self):
        with pytest.raises(DomainError):
            shift_overlap(11, 0, 1)
        with pytest.raises(DomainError):
            shift_overlap(11, 11, 1)


class TestShiftProfile:
    def test_small_interval_shape(self):
        assert build_shift_profile(11, 5).counts == {0: 2, 1: 2, 2: 2, 3: 2, 4: 2, 5: 1}

    def test_wraparound_shape(self):
        assert build_shift_profile(9, 6).counts == {3: 4, 4: 2, 5: 2, 6: 1}

    def test_mass_identities_everywhere(self):
        for p in range(3, 100, 2):
            for t in range(1, p):
                profile = build_shift_profile(p, t)
                assert profile.total() == p
                assert profile.weighted_total() == t * t

    @pytest.mark.parametrize("off, message", [((0, 2), "profile mass"), ((1, 2), "weighted mass")])
    def test_construct_and_multiset_dp_check_both_mass_identities(self, monkeypatch, off, message):
        # (F, run) moved by ``off`` breaks one identity; every closed-form route refuses it
        real = construction._floor_run
        monkeypatch.setattr(construction, "_floor_run",
                            lambda p, t: (real(p, t)[0] + off[0], real(p, t)[1] + off[1]))
        for route in (lambda: construct(11, 4, 5, 10), lambda: spectrum_multiset_dp(11, 4, 5),
                      lambda: build_shift_profile(11, 5)):
            with pytest.raises(VerificationError, match=message):
                route()

    def test_figure_shape_everywhere(self):
        # one copy of t, two of each intermediate value, a run at the floor
        for p in range(3, 100, 2):
            for t in range(1, p):
                profile = build_shift_profile(p, t)
                floor = profile.floor_value
                run = p - 2 * t + 1 if floor == 0 else 2 * t - p + 1
                assert profile.counts[t] == 1
                assert profile.counts[floor] == run
                assert set(profile.counts) == set(range(floor, t + 1))
                for v, count in profile.counts.items():
                    if v not in (t, floor):
                        assert count == 2

    def test_closed_form_matches_per_residue_tally(self):
        for p in range(3, 100, 2):
            for t in range(1, p):
                tally = Counter(shift_overlap(p, t, a) for a in range(p))
                assert build_shift_profile(p, t).counts == tally, (p, t)

    def test_largest_modulus_is_immediate(self):
        assert build_shift_profile(2**31 - 1, 3).counts == {3: 1, 2: 2, 1: 2, 0: 2**31 - 6}

    def test_ascending_expansion(self):
        assert ascending_profile(build_shift_profile(11, 5)) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5]


class TestPartialSums:
    def test_examples(self):
        assert partial_sum_smallest(3, 3) == 4
        assert partial_sum_largest(3, 3) == 7
        assert partial_sum_smallest(10, 1) == 1
        assert partial_sum_largest(10, 1) == 10
        assert partial_sum_largest(5, 4) == 16
        assert partial_sum_smallest(6, 11) == 36  # the whole multiset sums to u^2

    def test_against_brute_multiset(self):
        for u in (1, 2, 3, 7, 12):
            multiset = pair_multiset(u)
            for n in range(1, 2 * u):
                assert partial_sum_smallest(u, n) == sum(multiset[:n])
                assert partial_sum_largest(u, n) == sum(multiset[-n:])

    def test_domain(self):
        with pytest.raises(DomainError):
            partial_sum_smallest(3, 0)
        with pytest.raises(DomainError):
            partial_sum_largest(3, 6)


class TestExtremeSums:
    @pytest.mark.parametrize(
        "p,s,t,expected",
        [(9, 7, 6, (25, 30)), (11, 4, 5, (2, 16)), (11, 3, 4, (0, 10))],
    )
    def test_values(self, p, s, t, expected):
        assert extreme_sums(p, s, t) == expected

    def test_against_sorted_profile(self):
        for p in range(3, 32, 2):
            for t in range(1, p):
                ordered = ascending_profile(build_shift_profile(p, t))
                for s in range(1, p):
                    assert extreme_sums(p, s, t) == (
                        sum(ordered[:s]),
                        sum(ordered[-s:]),
                    ), (p, s, t)

    def test_grid_matches_scalar(self):
        for p in (9, 25, 99):
            r1, r2 = extreme_sums_grid(p)
            for s in range(1, p):
                for t in range(1, p):
                    assert (r1[s - 1, t - 1], r2[s - 1, t - 1]) == extreme_sums(p, s, t)


def construction_instances():
    return st.sampled_from([3, 5, 7, 9, 11, 13, 15, 21, 27, 33, 45]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(min_value=1, max_value=p - 1),
            st.integers(min_value=1, max_value=p - 1),
            st.integers(min_value=0, max_value=10**9),
        )
    )


def selection_of(p, s, t, r):
    # construct's selection for s <= p - 1; at s = p, which construct refuses, the
    # selection rule it runs, listed as the witness lists its segments.
    return construct(p, s, t, r).selection if s < p else _selection_counts(_select(p, t, s, r)[0])


class TestSelectMultisubset:
    def test_examples(self):
        assert selection_of(11, 4, 5, 7) == {5: 1, 2: 1, 0: 2}
        assert selection_of(11, 4, 5, 2) == {1: 2, 0: 2}
        assert selection_of(9, 7, 6, 30) == {6: 1, 5: 2, 4: 2, 3: 2}
        assert selection_of(9, 9, 6, 36) == {6: 1, 5: 2, 4: 2, 3: 4}  # s = p: all of it

    def test_unattainable_target(self):
        for s, r, interval in [(7, 24, (25, 30)), (9, 35, (36, 36)), (9, 37, (36, 36))]:
            with pytest.raises(UnattainableTargetError) as excinfo:
                selection_of(9, s, 6, r)
            assert (excinfo.value.r1, excinfo.value.r2) == interval

    def test_matches_lexmax_oracle_for_every_target_to_p13(self):
        # The overlap multiset comes from brute_count, not from the profile builder.
        for p in range(3, 14, 2):
            for t in range(1, p):
                counts = Counter(brute_count(p, [a], range(t)) for a in range(p))
                ascending = sorted(counts.elements())
                for s in range(1, p + 1):
                    r1, r2 = sum(ascending[:s]), sum(ascending[-s:])
                    for r in range(r1, r2 + 1):
                        selection = selection_of(p, s, t, r)
                        expected = lexmax_selection(counts, s, r)
                        assert list(selection.items()) == list(expected.items()), (p, s, t, r)
                    for r in (r1 - 1, r2 + 1):
                        with pytest.raises(UnattainableTargetError):
                            selection_of(p, s, t, r)

    @given(
        st.integers(min_value=1, max_value=1000).flatmap(
            lambda h: st.tuples(
                st.just(2 * h + 1),
                st.integers(min_value=1, max_value=2 * h),
                st.integers(min_value=1, max_value=2 * h + 1),
                st.integers(min_value=0, max_value=10**12),
            )
        )
    )
    def test_matches_greedy_oracle_to_p2001(self, args):
        p, t, s, seed = args
        ascending = ascending_profile(build_shift_profile(p, t))
        r1, r2 = sum(ascending[:s]), sum(ascending[-s:])
        r = r1 - 1 + seed % (r2 - r1 + 3)  # [r1, r2] and one step outside on each side
        expected = greedy_lexmax_selection(ascending, s, r)
        if expected is None:
            with pytest.raises(UnattainableTargetError):
                selection_of(p, s, t, r)
        else:
            selection = selection_of(p, s, t, r)
            assert list(selection.items()) == list(expected.items()), (p, s, t, r)

    def test_matches_greedy_oracle_at_edges(self):
        p = 2001
        cases = [
            (s, t, where)
            for t in (1, (p - 1) // 2, (p + 1) // 2, p - 1)  # either side of 2t = p
            for s in (1, 2, (p - 1) // 2, p - 1, p)
            for where in ("r1", "r1+1", "mid", "r2-1", "r2")
        ]
        cases += [(700, 300, "r1"), (700, 300, "r1+1")]  # k = 0: nothing from the top
        # k = s with the top run deep into the floor run, at floor 0 and at floor 2t - p
        cases += [(1900, 300, "r2"), (1900, 1500, "r2"), (1900, 1500, "r2-1")]
        for s, t, where in cases:
            profile = build_shift_profile(p, t)
            ascending = ascending_profile(profile)
            r1, r2 = sum(ascending[:s]), sum(ascending[-s:])
            r = {"r1": r1, "r1+1": r1 + 1, "mid": (r1 + r2) // 2, "r2-1": r2 - 1, "r2": r2}[where]
            r = min(max(r, r1), r2)
            expected = greedy_lexmax_selection(ascending, s, r)
            selection = selection_of(p, s, t, r)
            assert list(selection.items()) == list(expected.items()), (p, s, t, r)
            if s == 1900 and where == "r2":  # the s largest, floor copies and all
                assert selection[profile.floor_value] == s - (2 * (t - profile.floor_value) - 1)

    @given(construction_instances())
    def test_selection_contract(self, args):
        p, s, t, seed = args
        profile = build_shift_profile(p, t)
        r1, r2 = extreme_sums(p, s, t)
        r = r1 + seed % (r2 - r1 + 1)
        selection = construct(p, s, t, r).selection
        assert sum(selection.values()) == s
        assert sum(v * c for v, c in selection.items()) == r
        assert all(0 < c <= profile.counts[v] for v, c in selection.items())


class TestRealizeSet:
    # construct realises its selection as the canonical set A of the tie-break
    # rule that realized_elements spells out value by value.
    def test_examples(self):
        assert construct(11, 4, 5, 7).a_set.elements() == (0, 3, 5, 6)
        w = construct(11, 1, 5, 5)
        assert (w.selection, w.a_set.elements()) == ({5: 1}, (0,))
        w = construct(11, 3, 4, 0)
        assert (w.selection, w.a_set.elements()) == ({0: 3}, (4, 5, 6))

    def test_all_zero_overlap_shifts(self):
        p, t = 13, 4
        w = construct(p, p - 2 * t + 1, t, 0)
        assert w.selection == {0: p - 2 * t + 1}
        assert w.a_set.elements() == tuple(range(t, p - t + 1))

    def test_matches_element_list_oracle_for_every_target_to_p13(self):
        # t runs on both sides of 2t = p, so the floor run starts at t and at p - t
        for p in range(3, 14, 2):
            for t in range(1, p):
                ascending = ascending_profile(build_shift_profile(p, t))
                for s in range(1, p):
                    for r in range(sum(ascending[:s]), sum(ascending[-s:]) + 1):
                        w = construct(p, s, t, r)
                        assert w.a_set.elements() == realized_elements(w.selection, p, t), \
                            (p, s, t, r)
        # and at a large modulus, at r1, the midpoint and r2
        p = 10**5 + 1
        for s, t in [(50000, 50000), (20000, 30000), (50000, 50001), (70000, 80000), (1, 99999)]:
            r1, r2 = extreme_sums(p, s, t)
            for r in (r1, (r1 + r2) // 2, r2):
                w = construct(p, s, t, r)
                assert w.a_set.elements() == realized_elements(w.selection, p, t), (p, s, t, r)
        # and at p = 2^20 + 1, seeded (s, t, r) that meet every run shape in both floor regimes
        p = 2**20 + 1
        rng = random.Random(20)
        shapes = set()
        for t in (rng.randrange(2, p // 2), rng.randrange(p // 2 + 1, p - 1)):  # floor 0, 2t - p
            profile = build_shift_profile(p, t)
            floor, run = profile.floor_value, profile.counts[profile.floor_value]
            prefix = list(accumulate(ascending_profile(profile), initial=0))
            for s in (rng.randrange(2, run), rng.randrange(run, p - 1)):
                def split(k):  # the k largest plus the s - k smallest
                    return prefix[p] - prefix[p - k] + prefix[s - k]

                # the k largest above the floor run; the s - k smallest past it when s > run
                k = rng.randrange(1, min(s, p - run, max(2, s - run)))
                between = (split(k) + split(k + 1)) // 2
                for r in sorted({split(0), split(s), split(k), split(k + 1), between}):
                    witness = construct(p, s, t, r)
                    selection = witness.selection
                    assert witness.a_set.elements() == realized_elements(selection, p, t), \
                        (p, s, t, r)
                    k_run, n, w = _select(p, t, s, r)[1]
                    top = n and (floor if n <= run else floor + (n - run + 1) // 2)
                    shapes.add((floor > 0, "k = 0" if k_run == 0 else "k = s" if k_run == s
                                else "w alone" if w is not None
                                else "w, two copies atop the rest" if selection[top] == 2
                                else "w in the floor run" if top == floor else "w, one copy"))
        for regime in (False, True):
            for shape in ("k = 0", "k = s", "w alone", "w, two copies atop the rest"):
                assert (regime, shape) in shapes, (regime, shape)

    @given(construction_instances())
    def test_realised_overlaps_match_selection(self, args):
        p, s, t, seed = args
        r1, r2 = extreme_sums(p, s, t)
        r = r1 + seed % (r2 - r1 + 1)
        w = construct(p, s, t, r)
        assert w.a_set.cardinality == s
        observed: dict[int, int] = {}
        for elem in w.a_set:
            v = shift_overlap(p, t, elem)
            observed[v] = observed.get(v, 0) + 1
        assert observed == w.selection


class TestConstruct:
    def test_examples(self):
        w = construct(11, 4, 5, 7)
        assert w.a_set.elements() == (0, 3, 5, 6)
        assert w.b_set.elements() == (0, 1, 2, 3, 4)
        assert w.achieved_r == 7
        assert construct(9, 7, 6, 25).achieved_r == 25
        assert construct(11, 3, 4, 0).a_set.elements() == (4, 5, 6)

    def test_out_of_range_target(self):
        with pytest.raises(UnattainableTargetError) as excinfo:
            construct(9, 7, 6, 24)
        assert (excinfo.value.r1, excinfo.value.r2) == (25, 30)
        with pytest.raises(UnattainableTargetError):
            construct(9, 7, 6, 31)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            construct(9, 9, 6, 25)

    @given(construction_instances())
    def test_round_trip_against_oracle(self, args):
        p, s, t, seed = args
        f = bounds.lower_bound(p, s, t)
        g = bounds.upper_bound(p, s, t)
        r = f + seed % (g - f + 1)
        w = construct(p, s, t, r)
        assert w.a_set.cardinality == s
        assert brute_count(p, list(w.a_set), list(w.b_set)) == r

    def test_realises_its_runs_without_a_per_value_pass(self):
        # At p = 2^20 + 1 and s = t = 2^19 the selection holds 2^18 + 1 values in
        # three segments. _select writes segments, not values: its traced peak is
        # about 2 kB. construct sets its runs as O(1) residue ranges and recounts
        # them off the binary digits of A, a p-byte string: its peak is 1.27p bytes
        # on CPython 3.11. A per-value pass that lists the selection or A's
        # residues costs over 4p bytes, so a peak of 2p bytes means one is back.
        p, s, t = 2**20 + 1, 2**19, 2**19
        r = extreme_sums(p, s, t)[1]

        def traced_peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        selection = traced_peak(lambda: _select(p, t, s, r))
        runs = traced_peak(lambda: construct(p, s, t, r))
        assert selection < 2**16, selection
        assert runs < 2 * p, (runs, selection)

    def test_construct_and_count_interval_stay_linear_in_p(self):
        # From p ~ 2^18 to p ~ 2^20 linear work takes about 4x the time and quadratic
        # work about 16x; 8x is the line. Each time is the best of three. construct
        # gets s = t = (p - 1)/2 at the midpoint target; count_interval gets its worst
        # case, the even residues (the most runs) against B = {0..p-2}, whose two
        # windows cover all of Z_p.
        def best_time(call):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - start)
            return best

        times = {}
        for p in (2**18 + 1, 2**20 + 1):
            s = t = (p - 1) // 2
            r = sum(extreme_sums(p, s, t)) // 2
            alternating, b = make_set(p, range(0, p, 2)), interval_set(p, p - 1)
            times[p] = (best_time(lambda: construct(p, s, t, r)),
                        best_time(lambda: counting.count_interval(alternating, b)))
        small, large = times.values()
        assert large[0] < 8 * small[0], ("construct", times)
        assert large[1] < 8 * small[1], ("count_interval", times)

    def test_recount_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(counting, "count_interval", lambda a, b: -1)
        with pytest.raises(VerificationError):
            construct(11, 4, 5, 7)

    def test_deterministic(self):
        first = construct(21, 8, 11, 40)
        second = construct(21, 8, 11, 40)
        assert first.a_set == second.a_set
        assert first.selection == second.selection


def test_profile_is_plain_dataclass():
    profile = ShiftProfile(11, 5, {5: 1, 4: 2, 3: 2, 2: 2, 1: 2, 0: 2})
    assert profile == build_shift_profile(11, 5)
    assert profile.floor_value == 0

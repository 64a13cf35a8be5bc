import json
import random
from collections import Counter
from functools import cache
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from addtriples import construction, counting, residues, spectrum
from addtriples.bounds import BoundsResult, lower_bound, upper_bound
from addtriples.construction import build_shift_profile, shift_overlap
from addtriples.residues import DomainError, VerificationError, bit_positions, bit_runs, make_set
from addtriples.spectrum import (
    BudgetExceededError,
    _between,
    _check_budget,
    _distinct_profiles,
    _exhaustive_pass,
    _make_report,
    _suffix_sums,
    exception_scan,
    schur_spectrum,
    spectrum_exhaustive,
    spectrum_fixed_interval,
    spectrum_multiset_dp,
)

from oracles import brute_count, brute_spectrum, first_b_per_histogram, first_witnesses, selection_sums

SCAN_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "scan_expected.json"

PAPER_A9 = (0, 1, 2, 4, 5, 7, 8)
PAPER_B9 = (0, 1, 3, 4, 6, 7)


def _dp_rows(counts, sizes):
    """{c: row c of the selection-sum DP} for c in ``sizes``: row 0 of the suffix table
    over the elements of ``counts``, whatever their histogram, with no lemma in between."""
    row = _suffix_sums([v for v, m in counts.items() for _ in range(m)], max(sizes))[0]
    return {c: row[c] for c in sizes}


@cache
def _interval_row(p, t):
    """Row 0 of the selection-sum DP over the p shift overlaps of [0, t), every size to p - 1.
    Cached, so the two sweeps over odd p < 100 build each (p, t) row once between them."""
    return _suffix_sums([shift_overlap(p, t, a) for a in range(p)], p - 1)[0]


class TestExhaustive:
    def test_composite_exception_instance(self):
        report = spectrum_exhaustive(9, 7, 6, want_witnesses=True)
        assert report.attained == (24, 25, 26, 27, 28, 29, 30)
        assert (report.f, report.g) == (25, 30)
        assert report.exceptions == (24,)
        assert report.gaps == ()
        assert not report.prime
        a, b = report.witnesses[24]
        assert brute_count(9, a, b) == 24

    def test_small_prime_interval(self):
        report = spectrum_exhaustive(5, 2, 2)
        assert report.attained == (0, 1, 2, 3)
        assert report.is_exact_interval()

    def test_matches_brute_spectrum(self):
        for p, s, t in [(5, 2, 3), (7, 3, 4)]:
            assert list(spectrum_exhaustive(p, s, t).attained) == brute_spectrum(p, s, t)

    def test_matches_brute_spectrum_for_every_size_at_p9(self):
        # p = 9 is the smallest composite, where the exceptions live
        for s in range(1, 9):
            for t in range(1, 9):
                report = spectrum_exhaustive(9, s, t)
                assert list(report.attained) == brute_spectrum(9, s, t), (s, t)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            spectrum_exhaustive(21, 10, 10, budget=1000)
        assert excinfo.value.estimated > 1000

    def test_budget_message_keeps_a_printable_exact_cost(self):
        # C(14281, 7140) has 4297 digits, inside Python's 4300-digit int -> str limit
        with pytest.raises(BudgetExceededError) as excinfo:
            spectrum_fixed_interval(14281, 7140, 1)
        assert excinfo.value.estimated == comb(14281, 7140)
        assert str(excinfo.value) == f"estimated cost {comb(14281, 7140)} exceeds budget {10**8}"

    def test_budget_message_past_the_printable_limit(self):
        # C(14293, 7061) is just above 10^4300: computed exactly, since it is near that
        # limit, but too long to print in full
        with pytest.raises(BudgetExceededError) as excinfo:
            spectrum_fixed_interval(14293, 7061, 1)
        assert excinfo.value.estimated == comb(14293, 7061) > 10**4300
        assert str(excinfo.value) == f"estimated cost at least 10^4300 exceeds budget {10**8}"

    def test_budget_refusal_far_above_is_a_lower_bound(self):
        # about 10^602052 pairs: refused from the lgamma estimate, never computed
        with pytest.raises(BudgetExceededError) as excinfo:
            spectrum_exhaustive(1000001, 500000, 500000, budget=10**4200)
        assert excinfo.value.estimated > 10**4200

    def test_budget_past_the_printable_limit_is_shown_as_a_bound(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            spectrum_exhaustive(1000001, 500000, 500000, budget=10**4400)
        assert excinfo.value.budget == 10**4400 < excinfo.value.estimated
        assert str(excinfo.value) == "estimated cost at least 10^4300 exceeds budget at least 10^4300"

    def test_witnesses_follow_the_stated_rule(self):
        # B is the lex-first t-set containing 0 that attains r, A the lex-first s-set for that B
        for p, s, t in [(9, 7, 6), (11, 4, 5), (11, 5, 6)]:
            report = spectrum_exhaustive(p, s, t, want_witnesses=True)
            assert report.witnesses == first_witnesses(p, s, t), (p, s, t)

    def test_witness_recount_failure_raises(self, monkeypatch):
        monkeypatch.setattr(counting, "count_naive", lambda a, b: -1)
        with pytest.raises(VerificationError):
            spectrum_exhaustive(9, 7, 6, want_witnesses=True)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            spectrum_exhaustive(9, 0, 2)

    @pytest.mark.parametrize("one_b_per_chunk", [False, True], ids=["default_chunk", "one_b_per_chunk"])
    def test_walk_keeps_the_first_b_per_histogram(self, monkeypatch, one_b_per_chunk):
        # at p <= 15 one default chunk holds every B; one B per chunk makes every
        # repeat histogram cross a chunk boundary
        if one_b_per_chunk:
            monkeypatch.setattr(spectrum, "_CHUNK_CELLS", 1)
        for p in (9, 11, 15):
            for t in range(1, p):
                assert list(_distinct_profiles(p, t)) == list(first_b_per_histogram(p, t)), (p, t)


class TestSelectionSums:
    @pytest.mark.parametrize("shape", ["single", "run", "sparse"])
    def test_requested_rows_match_the_oracle(self, shape):
        # the value 0 is always present and one value has more copies than the
        # largest size, so rows past a value's copies and sizes past none are exercised
        rng = random.Random(f"selection-sums:{shape}")
        for _ in range(300):
            if shape == "single":
                sizes = [rng.randint(1, 6)]
            elif shape == "run":
                first = rng.randint(1, 6)
                sizes = list(range(first, first + rng.randint(2, 5)))
            else:
                sizes = [1, 5, 9] if rng.random() < 0.5 else rng.sample(range(1, 14), 3)
            counts = {0: rng.randint(1, max(sizes) + 3)}
            for _ in range(rng.randint(0, 4)):
                counts[rng.randint(1, 25)] = rng.randint(1, 6)
            counts[rng.randint(0, 25)] = max(sizes) + rng.randint(1, 3)
            self._assert_rows_match_the_oracle(counts, sizes)

    @staticmethod
    def _assert_rows_match_the_oracle(counts, sizes, engine=_dp_rows):
        values = [v for v, m in counts.items() for _ in range(m)]
        oracle = selection_sums(values, max(sizes))
        rows = engine(counts, sizes)
        assert sorted(rows) == sorted(sizes), (counts, sizes)
        for c in sizes:
            assert bit_positions(rows[c]) == tuple(sorted(oracle[c])), (counts, sizes, c)

    @pytest.mark.parametrize("p", [7, 9, 15, 21, 31])
    def test_interval_profiles_match_the_oracle(self, p):
        # Interval profiles are gapless, so spectrum_multiset_dp serves them by the
        # lemma's closed form alone; here, as for every histogram in this class, the
        # DP is called directly, and TestGaplessFastPath checks the form against it
        for t in range(1, p):
            counts = build_shift_profile(p, t).counts
            for s in range(1, p):
                self._assert_rows_match_the_oracle(counts, (s,))
            self._assert_rows_match_the_oracle(counts, range(1, p))
            self._assert_rows_match_the_oracle(counts, (1, 2, p - 2, p - 1))

    @pytest.mark.parametrize("p", [9, 15, 21])
    def test_random_b_histograms_match_the_oracle(self, p):
        # overlaps at a and -a agree, so a value held by one such pair has two copies
        rng = random.Random(f"selection-sums:histogram:{p}")
        for _ in range(12):
            b = rng.sample(range(p), rng.randint(1, p - 1))
            counts = Counter(brute_count(p, [a], b) for a in range(p))
            self._assert_rows_match_the_oracle(counts, (rng.randint(1, p - 1),))
            self._assert_rows_match_the_oracle(counts, sorted(rng.sample(range(1, p), 3)))
            self._assert_rows_match_the_oracle(counts, range(1, p))

    @pytest.mark.parametrize("counts", [
        {0: 1, 3: 2},
        {1: 3, 4: 2},
        {0: 2, 2: 2, 7: 2},
        {5: 1, 6: 2, 9: 4, 11: 2},
    ])
    def test_a_last_pair_with_row_1_or_2_lowest_live(self, counts):
        # histograms with a hole, which only the DP serves: every size alone and
        # with each larger one, the rows next to a last value of two copies included
        total = sum(counts.values())
        for least in range(1, total + 1):
            self._assert_rows_match_the_oracle(counts, (least,))
            for other in range(least + 1, total + 1):
                self._assert_rows_match_the_oracle(counts, (least, other))


class TestGaplessFastPath:
    """multiset-dp's closed-form range against the DP, and that it builds no profile and no table."""

    def test_interval_profiles_equal_the_dp_core(self):
        # multiset-dp's closed form, which builds no profile, equals the DP's runs; the
        # row is built from the overlaps, whose histogram is the shift profile
        for p in range(3, 100, 2):
            for t in range(1, p):
                overlaps = Counter(shift_overlap(p, t, a) for a in range(p))
                assert build_shift_profile(p, t).counts == overlaps, (p, t)
                rows = _interval_row(p, t)
                for s in range(1, p):
                    assert spectrum_multiset_dp(p, s, t).attained.runs == bit_runs(rows[s]), (p, s, t)

    def test_gapless_histograms_skip_the_dp_core(self, monkeypatch):
        # the range comes from its closed form: no profile is built and no DP table
        calls = []
        def spy(name, real):
            return lambda *args: calls.append(name) or real(*args)

        monkeypatch.setattr(spectrum, "_suffix_sums", spy("_suffix_sums", spectrum._suffix_sums))
        profile = spy("build_shift_profile", construction.build_shift_profile)
        monkeypatch.setattr(construction, "build_shift_profile", profile)
        monkeypatch.setattr(spectrum, "build_shift_profile", profile, raising=False)  # if imported
        for p, s, t in [(9, 7, 6), (101, 30, 80), (401, 300, 350), (2001, 1000, 1000)]:
            assert spectrum_multiset_dp(p, s, t).is_exact_interval()
        assert calls == []


class TestFixedInterval:
    def test_excludes_composite_exception(self):
        report = spectrum_fixed_interval(9, 7, 6)
        assert report.attained == (25, 26, 27, 28, 29, 30)
        assert 24 not in report.attained

    def test_prime_instance(self):
        assert spectrum_fixed_interval(11, 4, 5).attained == tuple(range(2, 17))

    def test_single_shift_selections(self):
        # s = 1: exactly the distinct overlap values
        for p, t in [(11, 5), (9, 6), (13, 9)]:
            expected = tuple(sorted(build_shift_profile(p, t).counts))
            assert spectrum_fixed_interval(p, 1, t).attained == expected

    def test_subset_of_exhaustive(self):
        for p, s, t in [(7, 3, 4), (9, 5, 3), (11, 4, 5)]:
            fixed = set(spectrum_fixed_interval(p, s, t).attained)
            assert fixed <= set(spectrum_exhaustive(p, s, t).attained)

    def test_witnesses_verify(self):
        report = spectrum_fixed_interval(9, 5, 3, want_witnesses=True)
        for value, (a, b) in report.witnesses.items():
            assert b == (0, 1, 2)
            assert brute_count(9, a, b) == value


class TestMultisetDP:
    def test_matches_fixed_interval(self):
        for p, s, t in [(9, 7, 6), (11, 4, 5), (13, 6, 9), (15, 7, 11)]:
            assert spectrum_multiset_dp(p, s, t).attained == spectrum_fixed_interval(p, s, t).attained

    def test_largest_s_is_gap_free(self):
        for p in (9, 15, 25, 49):
            for t in (1, p // 2, p - 1):
                report = spectrum_multiset_dp(p, p - 1, t)
                assert report.is_exact_interval()

    def test_no_witnesses(self):
        assert spectrum_multiset_dp(11, 4, 5).witnesses is None

    def test_matches_selection_sum_oracle_for_every_size_to_p41(self):
        # s on both sides of p/2 (the mirrored half) and t on both sides (overlaps >= 2t - p)
        for p in range(3, 42, 2):
            for t in range(1, p):
                sums = selection_sums([brute_count(p, [a], range(t)) for a in range(p)], p - 1)
                for s in range(1, p):
                    assert spectrum_multiset_dp(p, s, t).attained == tuple(sorted(sums[s])), (p, s, t)

    def test_interval_exactly_for_all_odd_p_to_99(self):
        # the DP is cheap enough to sweep every (s, t) for every odd p <= 99;
        # this is the constructive theorem checked through a non-constructive route.
        # spectrum_multiset_dp takes the exchange-lemma path, so the DP is
        # called directly, once per (p, t) for every size (shared with the sweep above)
        for p in range(3, 100, 2):
            for t in range(1, p):
                rows = _interval_row(p, t)
                for s in range(1, p):
                    exact = _between(lower_bound(p, s, t), upper_bound(p, s, t))
                    assert rows[s] == exact, (p, s, t, bit_positions(rows[s] ^ exact))


class TestSchur:
    def test_small_prime(self):
        report = schur_spectrum(7, 3, want_witnesses=True)
        expected = sorted({brute_count(7, a, a) for a in combinations(range(7), 3)})
        assert list(report.attained) == expected
        assert (report.f, report.g) == (1, 7)
        assert report.f in report.attained and report.g in report.attained
        for value, (a, b) in report.witnesses.items():
            assert a == b and brute_count(7, a, a) == value

    def test_both_endpoints_attained_by_tiny_instance(self):
        report = schur_spectrum(5, 4)
        assert report.attained == (12, 13)
        assert (report.f, report.g) == (12, 13)

    def test_gap_reporting_is_consistent(self):
        report = schur_spectrum(11, 5)
        covered = set(report.gaps) | (set(report.attained) & set(range(report.f, report.g + 1)))
        assert covered == set(range(report.f, report.g + 1))


class TestReports:
    def test_report_envelope(self):
        report = spectrum_exhaustive(7, 3, 4)
        assert all(0 <= v <= 3 * 4 for v in report.attained)
        covered = set(report.gaps) | (set(report.attained) & set(range(report.f, report.g + 1)))
        assert covered == set(range(report.f, report.g + 1))
        assert report.elapsed >= 0.0

    def test_gaps_and_exceptions_match_their_set_definitions(self):
        def check(report):
            attained = set(report.attained)
            assert report.attained == tuple(sorted(attained))
            inside = range(report.f, report.g + 1)
            assert report.gaps == tuple(v for v in inside if v not in attained), report
            assert report.exceptions == tuple(v for v in report.attained if v not in inside), report

        for p in (9, 11):
            for s in range(1, p):
                for t in range(1, p):
                    for engine in (spectrum_exhaustive, spectrum_fixed_interval):
                        check(engine(p, s, t))
                    check(spectrum_multiset_dp(p, s, t))
        for p in range(3, 14, 2):
            for s in range(1, p):
                check(schur_spectrum(p, s))

    @given(st.integers(0, 2**70), st.integers(0, 72), st.integers(-1, 72))
    @example(0, 0, 0)  # nothing attained: [f, g] is one gap
    @example(0b1111, 0, 3)  # exactly [f, g]
    @example(0b111110000011, 4, 8)  # runs across both ends, one gap inside
    @example(0b1000000001, 2, 6)  # runs wholly outside on either side
    @example(1 << 5, 5, 5)  # f = g
    def test_run_arithmetic_matches_the_bitmask_reading(self, attained, f, width):
        # the report reads gaps and exceptions off the runs; the bitmask gives them too
        g = f + width
        report = _make_report(BoundsResult(99, 1, 1, f, g, False), "any", bit_runs(attained),
                              None, 0.0)
        inside = _between(f, g) if g >= f else 0
        assert report.attained.runs == bit_runs(attained)
        assert report.gaps.runs == bit_runs(inside & ~attained)
        assert report.exceptions.runs == bit_runs(attained & ~inside)

    def test_each_report_validates_its_instance_once(self, monkeypatch):
        # f, g and primality come from one bounds_for, so one Params and one primality test
        tests = []
        real = residues.is_prime
        monkeypatch.setattr(residues, "is_prime", lambda n: tests.append(n) or real(n))
        for engine in (spectrum_exhaustive, spectrum_fixed_interval, spectrum_multiset_dp):
            tests.clear()
            report = engine(11, 4, 5)
            assert tests == [11], engine
            assert (report.f, report.g, report.prime) == (2, 16, True), engine

    def test_modes_labelled(self):
        assert spectrum_exhaustive(5, 2, 2).mode == "exhaustive"
        assert spectrum_fixed_interval(5, 2, 2).mode == "fixed-interval-B"
        assert spectrum_multiset_dp(5, 2, 2).mode == "multiset-dp"
        assert schur_spectrum(5, 2).mode == "schur-exhaustive"


class TestBudgetRule:
    def test_over_budget_is_the_exact_product_rule(self):
        # one and two (n, k) choices; budgets at the cost and on both sides of it,
        # and a factor 3 away, where the lgamma estimate decides
        cases = [((n, k),) for n in (1, 2, 9, 21, 101, 1001, 5001) for k in (0, 1, n // 3, n // 2, n)]
        cases += [((n, k), (n, j)) for n in (9, 21, 1001, 5001) for k in (1, n // 2) for j in (2, n // 3)]
        for choices in cases:
            cost = prod(comb(n, k) for n, k in choices)
            for budget in {cost - 1, cost, cost + 1, cost // 3, 3 * cost} - {0}:
                if cost > budget:
                    with pytest.raises(BudgetExceededError) as excinfo:
                        _check_budget(budget, *choices)
                    assert (excinfo.value.estimated, excinfo.value.budget) == (cost, budget)
                else:
                    _check_budget(budget, *choices)

    def test_scan_skips_exactly_the_instances_over_budget(self):
        for p in (9, 15, 21):
            for s0, t0 in ((1, 1), (2, 1), (2, 3)):
                cost = comb(p, s0) * comb(p, t0)
                for budget in (cost - 1, cost, cost + 1):
                    result = exception_scan(p, p, budget=budget)
                    expected = [(p, s, t) for s in range(1, p) for t in range(1, p)
                                if comb(p, s) * comb(p, t) > budget]
                    assert list(result.skipped) == expected, (p, budget)
                    assert result.instances_run == (p - 1) ** 2 - len(expected)


class TestExceptionScan:
    def test_finds_the_p9_instance(self):
        result = exception_scan(9, 9)
        hits = {(r.p, r.s, r.t): r for r in result.records}
        assert (9, 7, 6) in hits
        record = hits[(9, 7, 6)]
        assert record.values == (24,)
        assert (record.f, record.g) == (25, 30)
        a, b = record.witnesses[24]
        assert brute_count(9, a, b) == 24
        assert result.instances_run == 64
        assert not result.skipped

    def test_prime_only_range_is_empty(self):
        result = exception_scan(11, 13)
        assert result.records == ()
        assert result.instances_run == 0

    def test_budget_skips_recorded(self):
        result = exception_scan(9, 9, budget=2000)
        assert result.skipped
        assert all(p == 9 for p, _, _ in result.skipped)

    def test_scan_9_to_15_matches_recorded_results(self):
        # recorded from the initial pair-enumerating scanner; read, never written
        expected = json.loads(SCAN_EXPECTED.read_text())
        assert expected["argv"] == ["scan", "--p-min", "9", "--p-max", "15", "--budget", "2000000"]
        result = exception_scan(9, 15, budget=2_000_000)
        assert result.instances_run == expected["instances_run"] == 184
        assert [list(item) for item in result.skipped] == expected["skipped"]
        found = [[r.p, r.s, r.t, list(r.values)] for r in result.records]
        assert found == expected["exceptions"]

    def test_multi_size_pass_equals_single_size_path(self):
        # all 260 instances: each record is what spectrum_exhaustive reports outside
        # [f, g], so no attained mask or DP row leaks between the sizes of one pass
        result = exception_scan(9, 15, budget=10**20)
        assert result.instances_run == 260 and not result.skipped
        records = {(r.p, r.s, r.t): r for r in result.records}
        for p in (9, 15):
            for s in range(1, p):
                for t in range(1, p):
                    report = spectrum_exhaustive(p, s, t, want_witnesses=True, budget=10**20)
                    record = records.pop((p, s, t), None)
                    if not report.exceptions:
                        assert record is None, (p, s, t)
                        continue
                    assert (record.f, record.g) == (report.f, report.g)
                    assert record.values == report.exceptions, (p, s, t)
                    expected = {value: report.witnesses[value] for value in report.exceptions}
                    assert record.witnesses == expected, (p, s, t)
        assert not records

    def test_pass_without_size_one_equals_single_size_path(self):
        # one table at size 6 serves both sizes' rows and witnesses
        for t in range(1, 15):
            attained, witnesses = _exhaustive_pass(15, t, {4: -1, 6: -1})
            for s in (4, 6):
                report = spectrum_exhaustive(15, s, t, want_witnesses=True)
                assert bit_positions(attained[s]) == report.attained, (s, t)
                assert witnesses[s] == report.witnesses, (s, t)

    def test_pass_builds_one_table_per_histogram_for_every_size(self, monkeypatch):
        # witnesses for three sizes, every row and every witness off the one table
        # each distinct histogram builds at the largest size
        built = []
        def spy(values, size):
            built.append(size)
            return _suffix_sums(values, size)

        monkeypatch.setattr(spectrum, "_suffix_sums", spy)
        for t in (3, 6, 9):
            built.clear()
            _, witnesses = _exhaustive_pass(15, t, {4: -1, 6: -1, 9: -1})
            assert built == [9] * len(list(_distinct_profiles(15, t))), t
            assert all(witnesses[s] for s in (4, 6, 9)), t

    def test_scan_witnesses_match_brute_oracle(self):
        result = exception_scan(9, 9)
        assert result.records
        for record in result.records:
            expected = first_witnesses(record.p, record.s, record.t)
            for value, witness in record.witnesses.items():
                assert witness == expected[value], (record.s, record.t, value)

    def test_all_scan_witnesses_reverify(self):
        result = exception_scan(9, 9)
        for record in result.records:
            for value, (a, b) in record.witnesses.items():
                assert brute_count(record.p, a, b) == value
                assert value < record.f or value > record.g


def test_counting_methods_agree_on_witnesses():
    report = spectrum_exhaustive(9, 7, 6, want_witnesses=True)
    a, b = report.witnesses[24]
    a_set, b_set = make_set(9, a), make_set(9, b)
    assert (
        counting.count_naive(a_set, b_set)
        == counting.count_shift(a_set, b_set)
        == counting.count_layers(a_set, b_set)
        == counting.count_convolution(a_set, b_set)
        == 24
    )

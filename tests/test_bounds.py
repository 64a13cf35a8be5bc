import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from addtriples import bounds
from addtriples.construction import extreme_sums
from addtriples.residues import DomainError, ResidueSet, is_prime, make_set

from oracles import brute_count, pollard_sweep


class TestLowerBound:
    @pytest.mark.parametrize(
        "p,s,t,expected",
        [(9, 7, 6, 25), (11, 3, 4, 0), (7, 3, 3, 1), (11, 4, 5, 2), (5, 4, 4, 12)],
    )
    def test_values(self, p, s, t, expected):
        assert bounds.lower_bound(p, s, t) == expected

    def test_matches_exhaustive_minimum(self):
        smallest = min(
            brute_count(7, a, b)
            for a in combinations(range(7), 3)
            for b in combinations(range(7), 3)
        )
        assert bounds.lower_bound(7, 3, 3) == smallest == 1

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            bounds.lower_bound(9, 0, 3)


class TestUpperBound:
    @pytest.mark.parametrize(
        "p,s,t,expected",
        [(9, 7, 6, 30), (11, 9, 2, 4), (5, 2, 2, 3), (11, 4, 5, 16)],
    )
    def test_values(self, p, s, t, expected):
        assert bounds.upper_bound(p, s, t) == expected

    def test_matches_exhaustive_maximum(self):
        largest = max(
            brute_count(5, a, b)
            for a in combinations(range(5), 2)
            for b in combinations(range(5), 2)
        )
        assert bounds.upper_bound(5, 2, 2) == largest == 3


class TestSchurBounds:
    @pytest.mark.parametrize(
        "p,s,lower,upper",
        [(7, 3, 1, 7), (11, 4, 0, 12), (11, 10, 90, 91), (101, 1, 0, 1)],
    )
    def test_values(self, p, s, lower, upper):
        assert bounds.schur_lower_bound(p, s) == lower
        assert bounds.schur_upper_bound(p, s) == upper

    def test_schur_upper_matches_exhaustive_maximum(self):
        largest = max(
            brute_count(7, a, a) for a in combinations(range(7), 3)
        )
        assert bounds.schur_upper_bound(7, 3) == largest == 7

    def test_specialisation_small_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 97):
            for s in range(1, p):
                assert bounds.lower_bound(p, s, s) == bounds.schur_lower_bound(p, s)
                assert bounds.upper_bound(p, s, s) == bounds.schur_upper_bound(p, s)

    def test_domain(self):
        with pytest.raises(DomainError):
            bounds.schur_lower_bound(9, 9)


def valid_params():
    return st.sampled_from([3, 5, 7, 9, 11, 13, 25, 99, 101]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(min_value=1, max_value=p - 1),
            st.integers(min_value=1, max_value=p - 1),
        )
    )


@given(valid_params())
def test_bounds_are_ordered(args):
    p, s, t = args
    f = bounds.lower_bound(p, s, t)
    g = bounds.upper_bound(p, s, t)
    assert 0 <= f <= g <= s * t


@given(valid_params())
def test_duality_identity(args):
    p, s, t = args
    rhs = s * t - s * (p - t) + (p - t) ** 2 - bounds.lower_bound(p, p - s, p - t)
    assert bounds.upper_bound(p, s, t) == rhs


def test_bounds_result_fields():
    result = bounds.bounds_for(9, 7, 6)
    assert (result.f, result.g, result.guaranteed) == (25, 30, False)
    assert bounds.bounds_for(11, 4, 5).guaranteed


def test_bounds_for_matches_the_scalar_bounds():
    for p in (3, 5, 7, 9, 15, 21, 25, 27, 31, 33, 35, 49):
        for s in range(1, p):
            for t in range(1, p):
                result = bounds.bounds_for(p, s, t)
                assert (result.p, result.s, result.t) == (p, s, t)
                assert (result.f, result.g, result.guaranteed) == (
                    bounds.lower_bound(p, s, t), bounds.upper_bound(p, s, t), is_prime(p)
                )


class TestPollardLowerAt:
    def test_values(self):
        assert bounds.pollard_lower_at(11, 4, 5, 2) == 2
        assert bounds.pollard_lower_at(11, 4, 8, 4) == 20
        assert bounds.pollard_lower_at(5, 4, 4, 1) == 4

    def test_domain(self):
        with pytest.raises(DomainError):
            bounds.pollard_lower_at(11, 4, 5, 5)
        with pytest.raises(DomainError):
            bounds.pollard_lower_at(11, 4, 5, 0)

    def test_max_over_j_dominates_f_when_middle_or_upper(self):
        # direct sweep over every j for all odd p <= 199, vectorised per j
        floor = np.iinfo(np.int64).min
        for p in range(3, 200, 2):
            s = np.arange(1, p, dtype=np.int64)[:, None]
            t = np.arange(1, p, dtype=np.int64)[None, :]
            best = np.full((p - 1, p - 1), floor)
            top = np.minimum(s, t)
            for j in range(1, p):
                value = j * np.minimum(p, s + t - j) - j * (p - t)
                best = np.where(j <= top, np.maximum(best, value), best)
            f = bounds.bound_grids(p)[0]
            applies = 2 * t >= p - s + 2
            assert np.all(best[applies] >= f[applies]), p

    def test_scalar_agrees_with_sweep_samples(self):
        for p, s, t in [(199, 57, 130), (101, 40, 80), (11, 4, 5)]:
            best = max(bounds.pollard_lower_at(p, s, t, j) for j in range(1, min(s, t) + 1))
            assert best >= bounds.lower_bound(p, s, t)


class TestInequalityChecks:
    def test_cauchy_davenport_examples(self):
        two = make_set(5, [0, 1])
        assert bounds.cauchy_davenport_check(two, two) == (True, 3, 3)
        one = make_set(5, [0])
        assert bounds.cauchy_davenport_check(one, one) == (True, 1, 1)
        three = make_set(5, [0, 1, 2])
        assert bounds.cauchy_davenport_check(three, three) == (True, 5, 5)

    def test_cauchy_davenport_hypotheses(self):
        with pytest.raises(DomainError):
            bounds.cauchy_davenport_check(make_set(9, [0]), make_set(9, [1]))
        with pytest.raises(DomainError):
            bounds.cauchy_davenport_check(make_set(5, []), make_set(5, [1]))

    def test_pollard_examples(self):
        two = make_set(5, [0, 1])
        assert bounds.pollard_check_sweep(two, two)[2 - 1] == (True, 4, 4)
        three = make_set(5, [0, 1, 2])
        assert bounds.pollard_check_sweep(three, three)[3 - 1] == (True, 9, 9)

    def test_pollard_j1_is_cauchy_davenport(self):
        a = make_set(11, [0, 2, 3, 7])
        b = make_set(11, [1, 4, 5])
        pol = bounds.pollard_check_sweep(a, b)[0]
        cd = bounds.cauchy_davenport_check(a, b)
        assert (pol.lhs, pol.rhs) == (cd.lhs, cd.rhs)

    def test_pollard_domain(self):
        with pytest.raises(DomainError):
            bounds.pollard_check_sweep(make_set(9, [0, 1]), make_set(9, [0, 1]))

    def test_sweep(self):
        a = make_set(13, [0, 1, 5, 11])
        b = make_set(13, [2, 3, 4, 8, 9])
        checks = bounds.pollard_check_sweep(a, b)
        assert len(checks) == 4
        assert all(c.holds for c in checks)

    def test_sweep_matches_the_loop_oracle(self):
        # every pair at p <= 7, then seeded pairs at larger primes
        pairs = [(ResidueSet(p, x), ResidueSet(p, y))
                 for p in (3, 5, 7) for x in range(1 << p) for y in range(1 << p)]
        rng = random.Random(499)
        for p in (101, 499):
            for _ in range(40):
                s, t = rng.randint(1, p - 1), rng.randint(1, p - 1)
                pairs.append((make_set(p, rng.sample(range(p), s)), make_set(p, rng.sample(range(p), t))))
        for a, b in pairs:
            checks = bounds.pollard_check_sweep(a, b)
            assert checks == pollard_sweep(a.modulus, a.elements(), b.elements()), (a, b)
            for check in checks:
                assert type(check) is bounds.InequalityCheck
                assert type(check.holds) is bool
                assert type(check.lhs) is int and type(check.rhs) is int


@given(
    st.sampled_from([5, 7, 11, 13, 17]).flatmap(
        lambda p: st.tuples(
            st.integers(min_value=1, max_value=(1 << p) - 2),
            st.integers(min_value=1, max_value=(1 << p) - 2),
        ).map(lambda bits: (ResidueSet(p, bits[0]), ResidueSet(p, bits[1])))
    )
)
def test_sandwich_on_random_prime_sets(pair):
    a, b = pair
    p = a.modulus
    if a.cardinality == p or b.cardinality == p:
        return
    r = brute_count(p, list(a), list(b))
    assert bounds.lower_bound(p, a.cardinality, b.cardinality) <= r
    assert r <= bounds.upper_bound(p, a.cardinality, b.cardinality)


class TestGrids:
    def test_grid_matches_scalar_exhaustively(self):
        for p in range(3, 100, 2):
            f, g = bounds.bound_grids(p)
            for s in range(1, p):
                for t in range(1, p):
                    assert f[s - 1, t - 1] == bounds.lower_bound(p, s, t)
                    assert g[s - 1, t - 1] == bounds.upper_bound(p, s, t)

    def test_grid_matches_scalar_sampled_large(self):
        rng = np.random.default_rng(5)
        for p in (499, 999, 2001):
            f, g = bounds.bound_grids(p)
            for _ in range(50):
                s = int(rng.integers(1, p))
                t = int(rng.integers(1, p))
                assert f[s - 1, t - 1] == bounds.lower_bound(p, s, t)
                assert g[s - 1, t - 1] == bounds.upper_bound(p, s, t)

    def test_diagonals_match_grid(self):
        for p in (9, 31, 101):
            f, g = bounds.bound_grids(p)
            fd, gd = bounds.bound_diagonals(p)
            assert np.array_equal(fd, np.diag(f))
            assert np.array_equal(gd, np.diag(g))

    def test_schur_grid_matches_scalar(self):
        for p in (7, 25, 101):
            fs, gs = bounds.schur_bound_grids(p)
            for s in range(1, p):
                assert fs[s - 1] == bounds.schur_lower_bound(p, s)
                assert gs[s - 1] == bounds.schur_upper_bound(p, s)


class TestExactAtMaxModulus:
    """At p = 2^31 - 1 the scalar API returns Python ints equal to the paper's formulas."""

    P = 2**31 - 1
    T_BIG = (P + 1) // 2 + 5  # 2t >= p + 1 with 2t - p + 1 = 12
    # (P - 1, P - 2) squares s + 2t - p = 2p - 5, which overflows int64
    POINTS = [(5, 10), (P - 1, 10), (10**9, 10**9), (3, P - 1), (P - 1, P - 1),
              (P - 1, P - 2), (5, T_BIG), (10**9, T_BIG), (P - 1, T_BIG)]

    @staticmethod
    def paper_forms(p, s, t):
        """(case, value) for f, g, r1 and r2, evaluated inline with Python ints."""
        tt = 2 * t
        middle = (s + tt - p) ** 2 // 4
        big = -(-s * (4 * t - s) // 4)
        f = (("f0", 0) if tt <= p - s + 1 else ("f1", middle) if tt <= p + s - 2
             else ("f2", s * (tt - p)))
        g = (("g0", t * t) if tt <= s else ("g1", big) if tt <= 2 * p - s - 1
             else ("g2", s * (tt - p) + (p - t) ** 2))
        if tt <= p - 1:
            r1 = ("r1a", 0) if s <= p - tt + 1 else ("r1b", middle)
            r2 = ("r2a", big) if s <= tt - 1 else ("r2b", t * t)
        else:
            r1 = ("r1c", s * (tt - p)) if s <= tt - p + 1 else ("r1d", middle)
            r2 = ("r2c", big) if s <= 2 * p - tt - 1 else ("r2d", s * (tt - p) + (p - t) ** 2)
        return f, g, r1, r2

    @staticmethod
    def paper_schur(p, s):
        lower = ("sf0", 0) if 3 * s <= p + 1 else ("sf1", (3 * s - p) ** 2 // 4)
        upper = (("sg0", -(-3 * s * s // 4)) if 3 * s <= 2 * p + 1
                 else ("sg1", s * (2 * s - p) + (p - s) ** 2))
        return lower, upper

    def test_every_case_is_exact(self):
        p = self.P
        seen = set()
        for s, t in self.POINTS:
            got = (bounds.lower_bound(p, s, t), bounds.upper_bound(p, s, t), *extreme_sums(p, s, t))
            for value, (case, expected) in zip(got, self.paper_forms(p, s, t)):
                assert type(value) is int and value == expected, (case, s, t)
                seen.add(case)
        for s in (5, 10**9, p - 1):
            got = (bounds.schur_lower_bound(p, s), bounds.schur_upper_bound(p, s))
            for value, (case, expected) in zip(got, self.paper_schur(p, s)):
                assert type(value) is int and value == expected, (case, s)
                seen.add(case)
        cases = {f"{name}{i}" for name in ("f", "g") for i in range(3)}
        cases |= {f"{name}{i}" for name in ("r1", "r2") for i in "abcd"}
        cases |= {"sf0", "sf1", "sg0", "sg1"}
        assert seen == cases

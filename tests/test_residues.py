import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from addtriples import counting, residues
from addtriples.counting import layers
from addtriples.residues import (
    DomainError,
    IncompatibleSetsError,
    IntRuns,
    InvalidModulusError,
    Params,
    ResidueSet,
    bit_positions,
    bit_runs,
    empty_set,
    full_set,
    interval_set,
    is_prime,
    make_set,
    primes_up_to,
)

ODD_MODULI = [3, 5, 7, 9, 11, 13, 15, 21, 25]


def random_sets(p):
    return st.integers(min_value=0, max_value=(1 << p) - 1).map(lambda bits: ResidueSet(p, bits))


def modulus_and_set():
    return st.sampled_from(ODD_MODULI).flatmap(lambda p: random_sets(p))


class TestConstruction:
    def test_make_set_reduces_and_dedups(self):
        assert make_set(5, [7, 2, 12]).elements() == (2,)

    def test_make_set_empty(self):
        s = make_set(5, [])
        assert s.cardinality == 0 and s.elements() == ()

    def test_make_set_size(self):
        assert make_set(9, [0, 1, 3, 4, 6, 7]).cardinality == 6

    @pytest.mark.parametrize("bad", [2, 1, 0, -5, 4, 2**31 + 1])
    def test_bad_modulus_rejected(self, bad):
        with pytest.raises(InvalidModulusError):
            make_set(bad, [0])

    def test_bitmask_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            ResidueSet(5, 1 << 5)
        with pytest.raises(DomainError):
            ResidueSet(5, -1)
        assert ResidueSet(5, 1 << 4).elements() == (4,)

    def test_range_check_builds_no_modulus_wide_integer(self):
        tracemalloc.start()
        try:
            ResidueSet(2**27 + 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_membership_and_iteration(self):
        s = make_set(7, [1, 5])
        assert 1 in s and 5 in s and 0 not in s
        assert 8 in s  # reduced mod 7
        assert list(s) == [1, 5]
        assert len(s) == 2
        assert repr(s) == "ResidueSet(7, {1, 5})"

    def test_member_array_is_cached_read_only_and_matches_elements(self):
        for s in (empty_set(7), make_set(7, [1, 5]), full_set(65), ResidueSet(4099, 1 << 4098 | 5)):
            members = s._member_array
            assert members is s._member_array
            assert members.dtype == np.int64 and not members.flags.writeable
            assert tuple(members.tolist()) == s.elements()
            with pytest.raises(ValueError):
                members[...] = 0
            assert counting._index(s) is members  # the counters read it without a copy


def reference_positions(bits, p):
    return [i for i in range(p) if bits >> i & 1]


@given(st.sampled_from([3, 5, 7, 9, 63, 65, 4097, 4099, 10001]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(min_value=0, max_value=(1 << p) - 1),
                        st.booleans())))
def test_elements_round_trip(case):
    p, bits, top = case
    if top:
        bits |= 1 << (p - 1)
    s = ResidueSet(p, bits)
    elements = s.elements()
    assert all(x < y for x, y in zip(elements, elements[1:]))
    assert list(elements) == reference_positions(bits, p)
    assert list(s) == list(elements)
    assert ResidueSet.from_elements(p, elements).bits == bits
    # A + {0} is A with every residue represented once: one layer, equal to A
    assert layers(s, make_set(p, [0])).layers == ((s,) if bits else ())


def assert_same_as_validated(made, p):
    """``made`` is the set ``ResidueSet(p, made.bits)`` builds through ``__post_init__``."""
    validated = ResidueSet(p, made.bits)
    assert type(made) is ResidueSet and type(made.modulus) is int and type(made.bits) is int
    assert made == validated and hash(made) == hash(validated) and repr(made) == repr(validated)
    assert made.modulus == p and made.cardinality == validated.cardinality
    assert made.elements() == validated.elements()
    members = made._member_array
    assert members.dtype == np.int64 and not members.flags.writeable
    assert members.tolist() == residues._position_array(made.bits).tolist()


@given(st.one_of(st.integers(min_value=1, max_value=128).map(lambda k: 2 * k + 1), st.just(32749))
       .flatmap(lambda p: st.tuples(st.just(p), st.integers(min_value=0, max_value=(1 << p) - 1),
                                    st.integers(min_value=0, max_value=(1 << p) - 1),
                                    st.integers(min_value=-2 * p, max_value=2 * p), st.booleans())))
def test_derived_sets_equal_validated_ones(case):
    # complement, shift, sumset and _from_indicator skip __post_init__'s checks
    p, bits, other, a, short = case
    x = ResidueSet(p, bits)
    assert_same_as_validated(x.complement(), p)
    assert_same_as_validated(x.shift(a), p)
    assert_same_as_validated(x.sumset(ResidueSet(p, other)), p)
    flags = np.array([bits >> r & 1 for r in range(bits.bit_length() if short else p)], dtype=bool)
    made = ResidueSet._from_indicator(p, flags)
    assert made.bits == bits
    assert_same_as_validated(made, p)


class TestComplement:
    def test_examples(self):
        assert make_set(5, [0, 1]).complement().elements() == (2, 3, 4)
        assert make_set(9, []).complement() == full_set(9)
        x = make_set(7, [0, 2])
        assert x.complement().complement() == x

    @given(modulus_and_set())
    def test_involution_and_size(self, x):
        assert x.complement().complement() == x
        assert x.complement().cardinality == x.modulus - x.cardinality


class TestShift:
    def test_examples(self):
        b = make_set(11, [0, 1, 2, 3, 4])
        assert b.shift(3).elements() == (3, 4, 5, 6, 7)
        assert b.shift(9).elements() == (0, 1, 2, 9, 10)
        assert b.shift(0) == b

    @given(modulus_and_set(), st.integers(min_value=-50, max_value=50))
    def test_cardinality_preserved_and_invertible(self, x, a):
        shifted = x.shift(a)
        assert shifted.cardinality == x.cardinality
        assert shifted.shift(x.modulus - a % x.modulus) == x

    @given(modulus_and_set(), st.integers(min_value=0, max_value=50))
    def test_shift_overlap_symmetry(self, x, a):
        # |(a+X) n X| = |(-a+X) n X| for any X, via the bijection y -> y - a
        assert x.shift(a).intersection_size(x) == x.shift(-a).intersection_size(x)


class TestIntersectionSize:
    def test_examples(self):
        lhs = make_set(11, [3, 4, 5, 6, 7])
        rhs = make_set(11, [0, 1, 2, 3, 4])
        assert lhs.intersection_size(rhs) == 2

    @given(modulus_and_set())
    def test_idempotence_and_disjointness(self, x):
        assert x.intersection_size(x) == x.cardinality
        assert x.intersection_size(x.complement()) == 0

    def test_modulus_mismatch(self):
        with pytest.raises(IncompatibleSetsError):
            make_set(5, [1]).intersection_size(make_set(7, [1]))


class TestSumset:
    def test_examples(self):
        two = make_set(5, [0, 1])
        assert (two + two).elements() == (0, 1, 2)
        three = make_set(5, [0, 1, 2])
        assert (three + three) == full_set(5)
        x = make_set(9, [2, 5, 8])
        assert x + make_set(9, [0]) == x

    def test_empty_operand(self):
        assert (make_set(5, [1, 2]) + empty_set(5)).cardinality == 0

    def test_modulus_mismatch(self):
        with pytest.raises(IncompatibleSetsError):
            make_set(5, [1]) + make_set(7, [1])

    @given(st.sampled_from([5, 7, 11, 13]).flatmap(
        lambda p: st.tuples(random_sets(p), random_sets(p), random_sets(p))))
    def test_commutative_and_associative(self, triple):
        x, y, z = triple
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)

    @given(st.sampled_from([3, 5, 7, 11, 13]).flatmap(
        lambda p: st.tuples(
            st.integers(min_value=1, max_value=(1 << p) - 1),
            st.integers(min_value=1, max_value=(1 << p) - 1),
        ).map(lambda bits: (ResidueSet(p, bits[0]), ResidueSet(p, bits[1])))))
    def test_cauchy_davenport_inequality(self, pair):
        x, y = pair
        assert (x + y).cardinality >= min(x.modulus, x.cardinality + y.cardinality - 1)


class TestFromRuns:
    def test_bits_and_members_agree_with_make_set(self):
        for p, runs in [(9, []), (9, [(0, 9)]), (9, [(0, 2), (2, 3), (5, 6), (8, 9)]),
                        (4099, [(0, 1), (7, 7), (100, 2000), (4098, 4099)]),
                        (21, [(3, 3), (4, 10), (10, 10), (12, 21)])]:
            made = ResidueSet._from_runs(p, runs)
            expected = make_set(p, [x for start, stop in runs for x in range(start, stop)])
            assert made == expected and made.cardinality == expected.cardinality
            assert made.elements() == expected.elements()
            assert made._member_array.tolist() == list(expected.elements())

    def test_members_are_listed_off_the_runs_on_first_read(self):
        made = ResidueSet._from_runs(2**20 + 1, [(5, 8), (2**20, 2**20 + 1)])
        assert "_members" not in made.__dict__ and "_member_array" not in made.__dict__
        assert list(made) == [5, 6, 7, 2**20]
        assert "_member_array" not in made.__dict__  # never unpacked from the bitmask

    def test_runs_are_the_maximal_runs_of_the_bitmask(self):
        rng = random.Random(9)
        cases = [(9, []), (9, [(0, 9)]), (9, [(0, 2), (2, 3), (5, 6), (8, 9)]),
                 (21, [(3, 3), (4, 10), (10, 10), (12, 21)])]
        for _ in range(200):
            p = rng.randrange(3, 400, 2)
            cuts = sorted(rng.choices(range(p + 1), k=2 * rng.randint(0, 6)))  # some repeat
            cases.append((p, list(zip(cuts[::2], cuts[1::2]))))
        for p, runs in cases:
            made = ResidueSet._from_runs(p, runs)
            scanned = ResidueSet(p, made.bits)
            assert made.runs() == scanned.runs() == bit_runs(made.bits), (p, runs)
            assert all(start < stop for start, stop in made.runs())
            assert all(a[1] < b[0] for a, b in zip(made.runs(), made.runs()[1:]))  # maximal
            assert "_members" not in made.__dict__ and "_runs" not in scanned.__dict__

    def test_refuses_unsorted_overlapping_or_out_of_range_runs(self):
        for runs in ([(3, 5), (0, 2)], [(0, 4), (3, 6)], [(4, 3)], [(-1, 2)], [(5, 10)]):
            with pytest.raises(DomainError):
                ResidueSet._from_runs(9, runs)


class TestHelpers:
    def test_interval_set(self):
        assert interval_set(9, 6).elements() == (0, 1, 2, 3, 4, 5)
        assert interval_set(9, 6) == make_set(9, range(6))
        assert interval_set(9, 0).cardinality == 0
        assert interval_set(9, 9) == full_set(9)
        with pytest.raises(DomainError):
            interval_set(9, 10)

    def test_primes(self):
        assert [p for p in range(50) if is_prime(p)] == primes_up_to(49)
        assert not is_prime(1) and is_prime(2) and not is_prime(2**20)

    def test_bit_positions_of_zero_skips_numpy(self, monkeypatch):
        # each spectrum report with no gaps and no exceptions lists two empty bitmasks
        assert bit_positions(0b101001) == (0, 3, 5)
        monkeypatch.setattr(residues, "_position_array", None)
        assert bit_positions(0) == ()

    def test_bit_positions_reads_runs_without_numpy(self, monkeypatch):
        rng = np.random.default_rng(21)
        cases = [0, 1, 2, 0b1011, (1 << 64) - 1, 1 << 4300, (1 << 40_000) - (1 << 17)]
        cases += [int(rng.integers(0, 1 << 62)) << int(rng.integers(0, 200)) for _ in range(300)]
        cases += [int.from_bytes(rng.bytes(256), "little") for _ in range(20)]  # many short runs
        expected = [residues._position_array(bits).tolist() for bits in cases]
        monkeypatch.setattr(residues, "_position_array", None)
        monkeypatch.setattr(residues, "np", None)
        for bits, positions in zip(cases, expected):
            listed = bit_positions(bits)
            assert list(listed) == positions, bits
            assert all(type(r) is int for r in listed)
            assert listed == tuple(r for r in range(bits.bit_length()) if bits >> r & 1)


class TestIntRuns:
    def test_behaves_as_the_tuple_of_its_ints(self):
        runs = IntRuns([(0, 0), (2, 5), (5, 7), (10, 11), (1000, 1003)])
        flat = (2, 3, 4, 5, 6, 10, 1000, 1001, 1002)
        assert runs.runs == ((2, 7), (10, 11), (1000, 1003))  # empty dropped, adjacent merged
        assert tuple(runs) == flat and len(runs) == len(flat) and runs == flat and flat == runs
        assert hash(runs) == hash(flat) and runs == IntRuns([(2, 7), (10, 11), (1000, 1003)])
        assert runs != list(flat) and runs != flat[:-1] and runs != IntRuns([(2, 7)])
        assert [runs[i] for i in range(-len(flat), len(flat))] == list(flat) * 2
        assert runs[1:4] == flat[1:4]
        for value in range(-2, 1010):
            assert (value in runs) == (value in flat), value
        assert 3.0 in runs and 3.5 not in runs and "3" not in runs
        assert runs.index(1001) == 7 and runs.count(5) == 1
        with pytest.raises(IndexError):
            runs[len(flat)]
        assert not IntRuns() and IntRuns() == () and list(IntRuns([(4, 4)])) == []

    def test_refuses_unsorted_overlapping_or_negative_runs(self):
        for runs in ([(3, 5), (0, 2)], [(0, 4), (3, 6)], [(4, 3)], [(-1, 2)]):
            with pytest.raises(DomainError):
                IntRuns(runs)


class TestParams:
    def test_valid(self):
        params = Params(9, 7, 6)
        assert not params.prime
        assert Params(11, 4, 5).prime

    @pytest.mark.parametrize("p,s,t", [(9, 0, 3), (9, 3, 9), (9, -1, 1), (8, 2, 2)])
    def test_invalid(self, p, s, t):
        with pytest.raises(DomainError):
            Params(p, s, t)

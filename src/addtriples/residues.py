"""Immutable subsets of Z_p stored as integer bitmasks.

Bit r of ``bits`` is set exactly when residue r is a member, so complement,
shift, intersection size and sumset all reduce to word-parallel integer
operations, which stay cheap even for moduli in the thousands.

A set finds its members once and caches them. By default they are unpacked
from the bitmask with numpy (:func:`pack_indicator` packs the other way)
into a read-only int64 array: the one fast path to the members of an
arbitrary set. (:func:`bit_runs` reads the runs of set bits of an int off
its binary digits, without numpy, and :class:`IntRuns` holds such runs as
a sequence of ints: they serve bitmasks of a few long runs, such as a
spectrum's attained values.) A set built from a
bool indicator takes that array from the indicator. A set built from a few
sorted, disjoint residue runs (:func:`interval_set`, and the witnesses of
``construct``) gets its bitmask by int arithmetic, keeps its runs for
:meth:`ResidueSet.runs` and lists its member tuple off them on first read,
so it needs no numpy; numpy itself is imported on first use (see
:class:`NumpyOnFirstUse`). Moduli are odd and at least 3. Empty
sets are legal here; cardinality constraints such as 1 <= s, t <= p-1 are
enforced only at the :class:`Params` boundary.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, starmap
from typing import Iterable, Iterator


class NumpyOnFirstUse:
    """Stands in for ``np`` in one module's globals until numpy is first used there.

    Each module of this package that uses numpy binds
    ``np = NumpyOnFirstUse(globals())``. The first attribute read imports
    numpy and rebinds ``np`` in that module's globals to numpy itself, so
    later reads there go straight to numpy, and a command that never needs
    numpy never imports it. Nothing is put into ``sys.modules``.
    """

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = NumpyOnFirstUse(globals())

# Counts r(A, B, B) can approach p^2, so they need 64-bit integers; the
# modulus itself is capped well below that.
MAX_MODULUS = 2**31 - 1


class DomainError(ValueError):
    """Input lies outside an operation's documented domain."""


class InvalidModulusError(DomainError):
    """Modulus is not an odd integer in [3, MAX_MODULUS]."""


class IncompatibleSetsError(DomainError):
    """Operands live in different ambient groups Z_p."""


class VerificationError(RuntimeError):
    """An internal consistency check failed; this is a bug, not bad input."""


def check_modulus(p: int) -> int:
    """Return ``p`` as a plain int, or raise :class:`InvalidModulusError`."""
    try:
        p = operator.index(p)
    except TypeError:
        raise InvalidModulusError(f"modulus must be an integer, got {p!r}") from None
    if p < 3 or p % 2 == 0 or p > MAX_MODULUS:
        raise InvalidModulusError(f"modulus must be an odd integer in [3, 2^31-1], got {p}")
    return p


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for n <= 2^31."""
    n = operator.index(n)
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, int(n**0.5) + 1):
        if sieve[q]:
            start = q * q
            sieve[start : n + 1 : q] = bytearray(len(range(start, n + 1, q)))
    return [i for i, flag in enumerate(sieve) if flag]


def _position_array(bits: int) -> np.ndarray:
    """The positions of the set bits of a nonnegative int, ascending, as a new int64 array."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").nonzero()[0].astype(np.int64, copy=False)


def bit_runs(bits: int) -> tuple[tuple[int, int], ...]:
    """The maximal runs [start, stop) of set bits of a nonnegative int, ascending; () for 0.

    Read off the binary digits with ``str.find``, without numpy: a C-level
    scan plus O(runs) Python steps. The one routine here that finds runs.
    """
    digits = format(bits, "b")[::-1]  # digits[r] is bit r
    runs = []
    stop = 0
    while (start := digits.find("1", stop)) >= 0:
        stop = digits.find("0", start)
        if stop < 0:
            stop = len(digits)
        runs.append((start, stop))
    return tuple(runs)


def bit_positions(bits: int) -> tuple[int, ...]:
    """The positions of the set bits of a nonnegative int, ascending, as plain ints; () for 0.

    The runs of :func:`bit_runs`, flattened: cheap for a few long runs of
    set bits, such as a spectrum's attained values.
    """
    return tuple(chain.from_iterable(starmap(range, bit_runs(bits))))


class IntRuns(Sequence):
    """An ascending sequence of distinct nonnegative ints, held as half-open runs.

    ``runs`` is the tuple of the maximal runs (start, stop), ascending, so
    equal sequences hold equal runs. The sequence iterates, counts, indexes
    and compares as the tuple of its ints: it equals a tuple with the same
    items, and hashes as one. Lengths, membership and equality between two
    of them take O(runs) steps; nothing but iteration lists the ints.
    """

    __slots__ = ("runs", "_length")

    def __init__(self, runs: Iterable[tuple[int, int]] = ()) -> None:
        merged: list[tuple[int, int]] = []
        last = 0
        for start, stop in runs:
            start, stop = operator.index(start), operator.index(stop)
            if not last <= start <= stop:
                raise DomainError(f"runs must be nonnegative, sorted and disjoint: "
                                  f"[{start}, {stop}) follows one ending at {last}")
            if start == stop:
                continue
            if merged and merged[-1][1] == start:  # adjacent: one maximal run
                start = merged.pop()[0]
            merged.append((start, stop))
            last = stop
        self.runs = tuple(merged)
        self._length = sum(stop - start for start, stop in merged)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(starmap(range, self.runs))

    def __contains__(self, value) -> bool:
        if not isinstance(value, int):
            return value in tuple(self)
        at = bisect_right(self.runs, value, key=operator.itemgetter(0))  # runs starting at or below
        return at > 0 and value < self.runs[at - 1][1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        index = operator.index(index)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("IntRuns index out of range")
        for start, stop in self.runs:
            if index < stop - start:
                return start + index
            index -= stop - start

    def __eq__(self, other) -> bool:
        if isinstance(other, IntRuns):
            return self.runs == other.runs
        if isinstance(other, tuple):
            return len(other) == self._length and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"IntRuns({list(self.runs)!r})"


def pack_indicator(flags: np.ndarray) -> int:
    """The bitmask whose bit i is set exactly when ``flags[i]`` is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def common_modulus(a_set: "ResidueSet", b_set: "ResidueSet") -> int:
    """The modulus two sets share, or :class:`IncompatibleSetsError`."""
    if a_set.modulus != b_set.modulus:
        raise IncompatibleSetsError(
            f"sets have different moduli: {a_set.modulus} and {b_set.modulus}"
        )
    return a_set.modulus


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z_p with bit-indexed membership, cached cardinality and cached members.

    The members are derived from ``bits`` on first use, once, as a read-only
    int64 array; the member tuple is read off that array. Neither is a field,
    so equality, hashing and the repr see only the modulus and the bits.

    The public constructor, :meth:`from_elements` and :meth:`_from_runs`
    validate the modulus and the members. :meth:`complement`, :meth:`shift`,
    :meth:`sumset` and :meth:`_from_indicator` trust a valid parent of the
    same modulus, and build through :meth:`_derived` without checks.
    """

    modulus: int
    bits: int
    cardinality: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        p = check_modulus(self.modulus)
        bits = operator.index(self.bits)
        if bits < 0 or bits.bit_length() > p:
            raise DomainError(f"bitmask has members outside [0, {p})")
        object.__setattr__(self, "modulus", p)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "cardinality", bits.bit_count())

    @classmethod
    def from_elements(cls, modulus: int, elements: Iterable[int]) -> "ResidueSet":
        """Build a set from arbitrary integers, reduced mod ``modulus``."""
        p = check_modulus(modulus)
        residues = [operator.index(x) % p for x in elements]
        flags = np.zeros(max(residues, default=-1) + 1, dtype=bool)
        flags[residues] = True
        return cls(p, pack_indicator(flags))

    @classmethod
    def _derived(cls, modulus: int, bits: int) -> "ResidueSet":
        """The set ``bits`` of a valid ``modulus``, built from a valid set: its fields go straight
        into the instance dict, with no checks and no frozen ``__setattr__``."""
        made = object.__new__(cls)
        fields = made.__dict__
        fields["modulus"] = modulus
        fields["bits"] = bits
        fields["cardinality"] = bits.bit_count()
        return made

    @classmethod
    def _from_indicator(cls, modulus: int, flags: np.ndarray) -> "ResidueSet":
        """The set whose members are the true entries of the bool array ``flags``.

        The bitmask is packed from ``flags`` and the member array is read off
        it too, so the set is never unpacked. Private because it trusts
        ``modulus`` and ``flags``, a bool array of length at most ``modulus``.
        """
        members = flags.nonzero()[0].astype(np.int64, copy=False)
        members.flags.writeable = False
        made = cls._derived(modulus, pack_indicator(flags))
        made.__dict__["_member_array"] = members  # the key the _member_array property fills
        return made

    @classmethod
    def _from_runs(cls, modulus: int, runs: Iterable[tuple[int, int]]) -> "ResidueSet":
        """The union of the half-open residue ranges ``runs``, sorted and disjoint.

        The bitmask is built by int arithmetic, one mask per run, so its cost
        is O(len(runs) * p / 64) word operations: this is for sets of a few
        runs. The runs are kept, merged where adjacent and without empty ones,
        for :meth:`runs`, and the member tuple is listed off them when it is
        first read, without numpy. Raises :class:`DomainError` unless
        0 <= start <= stop <= next start <= ... <= p, so that the bitmask and
        the members agree.
        """
        runs = IntRuns(runs).runs  # checks 0 <= start <= stop <= next start
        bits = 0
        for start, stop in runs:
            bits |= (1 << stop) - (1 << start)
        made = cls(modulus, bits)  # checks stop <= p
        made.__dict__["_runs"] = runs  # read by runs and elements
        return made

    def runs(self) -> tuple[tuple[int, int], ...]:
        """The maximal runs [start, stop) of members, ascending, as :func:`bit_runs` reads them.

        A set built from runs hands back the runs it keeps, in O(1); any other
        set is scanned from its bitmask on each call, in O(p) C-level steps
        plus O(runs) Python steps, and keeps nothing.
        """
        runs = self.__dict__.get("_runs")
        return bit_runs(self.bits) if runs is None else runs

    @property
    def _member_array(self) -> np.ndarray:
        """The members in ascending order, as a read-only int64 array.

        Unpacked from the bitmask on the first read and kept in the instance
        dict under the same key, unless the set was built with it
        (:meth:`_from_indicator`).
        """
        members = self.__dict__.get("_member_array")
        if members is None:
            members = _position_array(self.bits)
            members.flags.writeable = False
            self.__dict__["_member_array"] = members
        return members

    def elements(self) -> tuple[int, ...]:
        """The members in ascending order.

        Listed on first call into the instance dict under ``_members``: off the
        kept runs of a set built from runs, else off :attr:`_member_array`.
        The fills take no lock, unlike ``functools.cached_property`` before
        Python 3.12; two threads that miss together compute equal values.
        """
        members = self.__dict__.get("_members")
        if members is None:
            runs = self.__dict__.get("_runs")
            members = (tuple(chain.from_iterable(starmap(range, runs))) if runs is not None
                       else tuple(self._member_array.tolist()))
            self.__dict__["_members"] = members
        return members

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, residue: int) -> bool:
        return bool((self.bits >> (operator.index(residue) % self.modulus)) & 1)

    def __repr__(self) -> str:
        return f"ResidueSet({self.modulus}, {{{', '.join(map(str, self))}}})"

    def complement(self) -> "ResidueSet":
        """Z_p minus this set."""
        return ResidueSet._derived(self.modulus, self.bits ^ ((1 << self.modulus) - 1))

    def shift(self, a: int) -> "ResidueSet":
        """The translate a + X; cardinality is preserved."""
        p = self.modulus
        a = operator.index(a) % p
        full = (1 << p) - 1
        return ResidueSet._derived(p, ((self.bits << a) | (self.bits >> (p - a))) & full)

    def intersection_size(self, other: "ResidueSet") -> int:
        common_modulus(self, other)
        return (self.bits & other.bits).bit_count()

    def sumset(self, other: "ResidueSet") -> "ResidueSet":
        """{x + y mod p : x in self, y in other}; empty if either side is empty."""
        p = common_modulus(self, other)
        full = (1 << p) - 1
        small, big = (self, other) if self.cardinality <= other.cardinality else (other, self)
        acc = 0
        bb = big.bits
        for a in small:
            acc |= ((bb << a) | (bb >> (p - a))) & full
            if acc == full:
                break
        return ResidueSet._derived(p, acc)

    __add__ = sumset


def make_set(modulus: int, elements: Iterable[int]) -> ResidueSet:
    """Canonical constructor: elements reduced mod p, duplicates collapsed."""
    return ResidueSet.from_elements(modulus, elements)


def empty_set(modulus: int) -> ResidueSet:
    return ResidueSet(modulus, 0)


def full_set(modulus: int) -> ResidueSet:
    p = check_modulus(modulus)
    return ResidueSet(p, (1 << p) - 1)


def interval_set(modulus: int, length: int) -> ResidueSet:
    """The interval {0, 1, ..., length-1} in Z_p."""
    p = check_modulus(modulus)
    length = operator.index(length)
    if not 0 <= length <= p:
        raise DomainError(f"interval length must lie in [0, {p}], got {length}")
    return ResidueSet._from_runs(p, [(0, length)])


@dataclass(frozen=True)
class Params:
    """A problem instance: odd modulus p with prescribed cardinalities s = |A|, t = |B|."""

    p: int
    s: int
    t: int
    prime: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        p = check_modulus(self.p)
        s = operator.index(self.s)
        t = operator.index(self.t)
        if not (1 <= s <= p - 1 and 1 <= t <= p - 1):
            raise DomainError(f"cardinalities must satisfy 1 <= s, t <= p-1, got s={s}, t={t}, p={p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "prime", is_prime(p))

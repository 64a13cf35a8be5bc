"""Closed-form extremal values for r(A, B, B) and the inequalities behind them.

For an odd prime p and cardinalities 1 <= s, t <= p-1 the count r(A, B, B)
is confined to the integer interval [lower_bound(p, s, t), upper_bound(p, s, t)].
Both bounds are piecewise quadratics whose case boundaries are written in
terms of 2t, which keeps the parity bookkeeping out of the conditions. The
Schur specialisation (A = B) has its own classical two-case forms, and the
per-level inequality :func:`pollard_lower_at` is the engine that produces
the lower bound.

For composite odd p every formula still evaluates, but the resulting
:class:`BoundsResult` carries ``guaranteed=False``: the sandwich can fail,
and the spectrum machinery exists to find such failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .counting import layer_sizes
from .residues import (
    DomainError,
    NumpyOnFirstUse,
    Params,
    ResidueSet,
    check_modulus,
    common_modulus,
    is_prime,
)

np = NumpyOnFirstUse(globals())  # numpy is imported on first use


def piecewise(cond, yes, no):
    """``yes if cond else no`` on a scalar condition, so an int stays a Python int and no
    numpy is imported; ``np.where(cond, yes, no)`` on a bool array. The piecewise forms
    here and in ``construction`` are written once through it, for both."""
    if isinstance(cond, bool):
        return yes if cond else no
    return np.where(cond, yes, no) if isinstance(cond, np.ndarray) else (yes if cond else no)


def _ceil_div4(x):
    return -(-x // 4)


# Each piecewise form is written once, for Python ints (the exact scalar API)
# and int64 arrays (the grids at the end) alike.


def _f(p, s, t):
    tt = 2 * t
    middle = piecewise(tt <= p + s - 2, (s + tt - p) ** 2 // 4, s * (tt - p))
    return piecewise(tt <= p - s + 1, 0, middle)


def _g(p, s, t):
    tt = 2 * t
    large = piecewise(tt <= 2 * p - s - 1, _ceil_div4(s * (4 * t - s)), s * (tt - p) + (p - t) ** 2)
    return piecewise(tt <= s, t * t, large)


def _schur_f(p, s):
    return piecewise(3 * s <= p + 1, 0, (3 * s - p) ** 2 // 4)


def _schur_g(p, s):
    return piecewise(3 * s <= 2 * p + 1, _ceil_div4(3 * s * s), s * (2 * s - p) + (p - s) ** 2)


def lower_bound(p: int, s: int, t: int) -> int:
    """Minimum of r(A, B, B) over |A| = s, |B| = t (guaranteed for prime p).

    Piecewise in 2t: zero while B is small enough to dodge A entirely,
    floor((s + 2t - p)^2 / 4) in the middle range, and s(2t - p) once B is
    so large that every shift of it meets it in at least 2t - p points.
    """
    params = Params(p, s, t)
    return _f(params.p, params.s, params.t)


def upper_bound(p: int, s: int, t: int) -> int:
    """Maximum of r(A, B, B) over |A| = s, |B| = t (guaranteed for prime p)."""
    params = Params(p, s, t)
    return _g(params.p, params.s, params.t)


def schur_lower_bound(p: int, s: int) -> int:
    """Minimum Schur-triple count over |A| = s: 0, or floor((3s - p)^2 / 4)."""
    params = Params(p, s, s)
    return _schur_f(params.p, params.s)


def schur_upper_bound(p: int, s: int) -> int:
    """Maximum Schur-triple count over |A| = s: ceil(3s^2 / 4), or the large-s form."""
    params = Params(p, s, s)
    return _schur_g(params.p, params.s)


def pollard_lower_at(p: int, s: int, t: int, j: int) -> int:
    """j min(p, s+t-j) - j(p-t): a valid lower bound for r(A, B, B) at prime p.

    Follows from Pollard's inequality on the first j layers plus
    |S_i n B| >= |S_i| - (p - t). Maximising over j recovers the closed-form
    lower bound.
    """
    Params(p, s, t)
    if not 1 <= j <= min(s, t):
        raise DomainError(f"need 1 <= j <= min(s, t) = {min(s, t)}, got j={j}")
    return j * min(p, s + t - j) - j * (p - t)


@dataclass(frozen=True)
class BoundsResult:
    """The closed interval [f, g] for a given instance, with its validity flag."""

    p: int
    s: int
    t: int
    f: int
    g: int
    guaranteed: bool  # True iff p is prime; composite moduli can escape [f, g]


def bounds_for(p: int, s: int, t: int) -> BoundsResult:
    """f and g for one instance, validated (and p tested for primality) once."""
    params = Params(p, s, t)
    p, s, t = params.p, params.s, params.t
    return BoundsResult(p=p, s=s, t=t, f=_f(p, s, t), g=_g(p, s, t), guaranteed=params.prime)


class InequalityCheck(NamedTuple):
    """Outcome of a single inequality, with both sides as the witness."""

    holds: bool
    lhs: int
    rhs: int


def _prime_modulus(a_set: ResidueSet, b_set: ResidueSet, inequality: str) -> int:
    """The shared modulus of two sets, which the named inequality needs to be prime."""
    p = common_modulus(a_set, b_set)
    if not is_prime(p):
        raise DomainError(f"the {inequality} inequality is only guaranteed for prime p, got p={p}")
    return p


def cauchy_davenport_check(a_set: ResidueSet, b_set: ResidueSet) -> InequalityCheck:
    """|A + B| >= min(p, |A| + |B| - 1). Requires prime p and nonempty sets."""
    p = _prime_modulus(a_set, b_set, "sumset")
    if not a_set.cardinality or not b_set.cardinality:
        raise DomainError("the sumset inequality requires nonempty sets")
    lhs = a_set.sumset(b_set).cardinality
    rhs = min(p, a_set.cardinality + b_set.cardinality - 1)
    return InequalityCheck(lhs >= rhs, lhs, rhs)


def pollard_sides(p: int, s: int, t: int, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the layer inequality at j = 1..min(s, t) from the layer sizes, as int64
    arrays (each entry below p^2 < 2^62); layers beyond ``sizes`` are empty."""
    top = min(s, t)
    lhs = np.zeros(top, dtype=np.int64)
    lhs[: len(sizes)] = sizes
    j = np.arange(1, top + 1, dtype=np.int64)
    return lhs.cumsum(), j * np.minimum(p, s + t - j)


def pollard_check_sweep(a_set: ResidueSet, b_set: ResidueSet) -> list[InequalityCheck]:
    """sum_{i<=j} |S_i| >= j min(p, s+t-j) at every j = 1..min(s, t), entry j - 1 for
    level j, as plain Python bools and ints. Requires prime p."""
    p = _prime_modulus(a_set, b_set, "layer")
    lhs, rhs = pollard_sides(p, a_set.cardinality, b_set.cardinality, layer_sizes(a_set, b_set))
    return list(map(InequalityCheck, (lhs >= rhs).tolist(), lhs.tolist(), rhs.tolist()))


# -- grids ---------------------------------------------------------------------
#
# The sweeps in the test suite span millions of (p, s, t) triples, so these
# evaluate the same forms over int64 arrays; they add no formula of their own.


def bound_grids(p: int) -> tuple[np.ndarray, np.ndarray]:
    """f and g over the whole (s, t) grid; entry [s-1, t-1] is the value at (s, t)."""
    p = check_modulus(p)
    s = np.arange(1, p, dtype=np.int64)[:, None]
    t = np.arange(1, p, dtype=np.int64)[None, :]
    return _f(p, s, t), _g(p, s, t)


def bound_diagonals(p: int) -> tuple[np.ndarray, np.ndarray]:
    """f(s, s) and g(s, s) for s = 1..p-1, without building the full grid."""
    p = check_modulus(p)
    s = np.arange(1, p, dtype=np.int64)
    return _f(p, s, s), _g(p, s, s)


def schur_bound_grids(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The Schur-case bounds for s = 1..p-1 as arrays."""
    p = check_modulus(p)
    s = np.arange(1, p, dtype=np.int64)
    return _schur_f(p, s), _schur_g(p, s)

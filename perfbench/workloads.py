"""Seeded call streams for the four workloads, and the checks on their outputs.

Every stream is a function of the seed alone: the program under test only
ever sees the argv generated here. A stream is a sequence of blocks of calls,
and a run stops only at a block boundary. Random inputs come from stratified
blocks (see :func:`_design`): a block of GROUP^2 draws covers every fine
stratum of every coordinate once. Costs here grow steeply with p and set
size, so plain random draws would make a run's cost and its latency
quantiles depend on where a few large draws fell; whole stratified blocks
keep each draw's distribution (log-uniform or uniform, as stated per
workload) while making a run's inputs nearly seed-independent.

The checks never call into the program. They recount with routes of their
own (brute-force pair loops, a numpy FFT convolution, trial division) and
compare against data recorded from the initial implementation.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

WORKLOADS = ("scan", "verify", "interval", "count")

SCAN_EXPECTED = Path(__file__).with_name("scan_expected.json")
VERIFY_MODULI = (5, 7, 11, 101, 499, 9, 501)
VERIFY_TRIALS_PER_CALL = 5
PRIME_ONLY_CHECKS = ("sumset-inequality", "layer-inequalities", "bound-sandwich")
ANY_GROUP_CHECKS = ("four-way-agreement", "complement-identity")
GROUP = 8  # a block is GROUP groups of GROUP calls
FFT_RESIDUAL_MAX = 0.01  # float64 FFT of 0/1 vectors of length <= 2^18 errs far below this


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the inputs its check needs."""

    kind: str
    argv: tuple[str, ...]
    params: dict


class CheckFailure(Exception):
    """An output that the benchmark's own recount does not confirm."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def closed_form_interval(p: int, s: int, t: int) -> tuple[int, int]:
    """The paper's [f, g] for (p, s, t).

    Kept apart from ``addtriples.bounds`` so that the generated inputs do not
    depend on the code under test; the DP check also compares against it.
    """
    tt = 2 * t
    if tt <= p - s + 1:
        f = 0
    elif tt <= p + s - 2:
        f = (s + tt - p) ** 2 // 4
    else:
        f = s * (tt - p)
    if tt <= s:
        g = t * t
    elif tt <= 2 * p - s - 1:
        g = -(-(s * (4 * t - s)) // 4)
    else:
        g = s * (tt - p) + (p - t) ** 2
    return f, g


def _gf8_mul(a: int, b: int) -> int:
    """Product in GF(8) = GF(2)[x] / (x^3 + x + 1)."""
    r = 0
    for i in range(3):
        if b >> i & 1:
            r ^= a << i
    for i in (4, 3):
        if r >> i & 1:
            r ^= 0b1011 << (i - 3)
    return r


def _design(rng: random.Random, dims: int) -> list[list[float]]:
    """GROUP^2 points in [0, 1)^dims, in GROUP groups of GROUP consecutive points.

    Coordinate d of a point lies in coarse stratum c (of GROUP) and fine
    stratum (of GROUP^2) inside it. The coarse strata form a randomly
    relabelled orthogonal array of strength 2: coordinate d of point (j, k) is
    the cell (d*j + k) of a Latin square over GF(8), and the squares of
    distinct d are mutually orthogonal. So every group holds each coarse
    stratum of every coordinate once, the block meets every pair of coarse
    strata of every two coordinates once, and over the block each fine
    stratum is used once.
    """
    assert GROUP == 8 and dims <= GROUP
    n = GROUP * GROUP
    rows, cols = rng.sample(range(GROUP), GROUP), rng.sample(range(GROUP), GROUP)
    labels = [rng.sample(range(GROUP), GROUP) for _ in range(dims)]
    coarse = [[labels[d][_gf8_mul(d, rows[j]) ^ cols[k]] for d in range(dims)]
              for j in range(GROUP) for k in range(GROUP)]
    points = [[0.0] * dims for _ in range(n)]
    for d in range(dims):
        for c in range(GROUP):
            members = [i for i in range(n) if coarse[i][d] == c]
            for i, fine in zip(members, rng.sample(range(GROUP), GROUP)):
                points[i][d] = (c * GROUP + fine + rng.random()) / n
    for j in range(0, n, GROUP):
        group = points[j : j + GROUP]
        rng.shuffle(group)
        points[j : j + GROUP] = group
    return points


def _designs(rng: random.Random, dims: int) -> Iterator[list[list[float]]]:
    """Endless designs in mirrored pairs.

    The second of a pair keeps each point's coarse strata and reflects the
    point inside them (fine stratum and offset alike), so it is a design of
    its own and a point in an expensive corner is paired with one near the
    opposite end of that corner: a pair's cost varies less than two
    independent blocks' would.
    """
    while True:
        points = _design(rng, dims)
        yield points
        yield [[(2 * math.floor(x * GROUP) + 1) / GROUP - x for x in point] for point in points]


def _log_uniform(u: float, lo: int, hi: int) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _odd_at_most(x: float, hi: int) -> int:
    return min(int(x) | 1, hi)


def stream(workload: str, seed: int) -> Iterator[Iterable[Call]]:
    """The endless stream of call blocks of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "scan": _scan_stream,
        "verify": _verify_stream,
        "interval": _interval_stream,
        "count": _count_stream,
    }[workload](rng)


def warmup_call(workload: str) -> Call:
    """A small call through the same code path, for set-up and cache warming."""
    if workload == "scan":
        return Call("scan", ("scan", "--p-min", "9", "--p-max", "9", "--budget", "2000000"),
                    {"p_min": 9, "p_max": 9})
    if workload == "verify":
        return _verify_call(0, 1)
    if workload == "interval":
        return _construct_call(1001, 40, 300, 5000)
    return _count_call(1001, list(range(0, 1001, 3)), list(range(0, 1001, 2)))


def corner_calls(workload: str) -> list[Call]:
    """Calls at the largest inputs of the workload's range, made once per run after
    the timed calls, so that the run's peak RSS does not hang on whether its
    draws came near that corner (one draw in a few hundred costs seconds and
    sets the peak). The other workloads' inputs do not vary in size."""
    if workload == "interval":
        p = 10**5 + 1
        f, g = closed_form_interval(p, p - 1, p - 1)
        return [_construct_call(p, p - 1, p - 1, (f + g) // 2)]
    if workload == "count":
        p = 3 * 10**4 + 1
        return [_count_call(p, list(range(p - 1)), list(range(p - 1)))]
    return []


def _scan_stream(rng: random.Random) -> Iterator[list[Call]]:
    expected = json.loads(SCAN_EXPECTED.read_text())
    argv = tuple(expected["argv"])
    call = Call("scan", argv, {"p_min": int(argv[2]), "p_max": int(argv[4])})
    while True:
        yield [call]


def _verify_call(seed: int, trials: int = VERIFY_TRIALS_PER_CALL) -> Call:
    moduli = ",".join(map(str, VERIFY_MODULI))
    argv = ("verify", "--p", moduli, "--trials", str(trials), "--seed", str(seed))
    return Call("verify", argv, {"trials": trials, "seed": seed})


def _verify_stream(rng: random.Random) -> Iterator[list[Call]]:
    while True:
        yield [_verify_call(rng.randrange(2**31))]


def _construct_call(p: int, s: int, t: int, r: int) -> Call:
    argv = ("construct", "--p", str(p), "--s", str(s), "--t", str(t), "--r", str(r))
    return Call("construct", argv, {"p": p, "s": s, "t": t, "r": r})


def _dp_call(p: int, s: int, t: int) -> Call:
    argv = ("spectrum", "--p", str(p), "--s", str(s), "--t", str(t), "--mode", "multiset-dp")
    return Call("dp", argv, {"p": p, "s": s, "t": t})


def _interval_block(rng: random.Random, points, dp_points) -> Iterator[Call]:
    """Alternate construct (large p, log-uniform sizes) and multiset-DP spectra (p <= 401)."""
    for (up, ut, us), (uq, udt, uds) in zip(points, dp_points):
        p = _odd_at_most(_log_uniform(up, 101, 10**5 + 1), 10**5 + 1)
        t = max(1, int(math.exp(ut * math.log(p))))
        s = max(1, int(math.exp(us * math.log(p))))
        f, g = closed_form_interval(p, s, t)
        yield _construct_call(p, s, t, rng.randint(f, g))
        q = 3 + 2 * int(uq * 200)
        yield _dp_call(q, 1 + int(uds * (q - 1)), 1 + int(udt * (q - 1)))


def _interval_stream(rng: random.Random) -> Iterator[Iterator[Call]]:
    for points, dp_points in zip(_designs(rng, 3), _designs(rng, 3)):
        yield _interval_block(rng, points, dp_points)


def _count_call(p: int, a: list[int], b: list[int]) -> Call:
    argv = ("count", "--p", str(p), "--set-a", ",".join(map(str, a)),
            "--set-b", ",".join(map(str, b)), "--method", "auto")
    return Call("count", argv, {"p": p, "a": a, "b": b})


def _count_block(rng: random.Random, points) -> Iterator[Call]:
    """count --method auto on random sets, p log-uniform across the dispatch threshold."""
    for up, *densities in points:
        p = _odd_at_most(_log_uniform(up, 10**3, 3 * 10**4 + 1), 3 * 10**4 + 1)
        a, b = (sorted(rng.sample(range(p), min(p - 1, max(1, round(d * p)))))
                for d in densities)
        yield _count_call(p, a, b)


def _count_stream(rng: random.Random) -> Iterator[Iterator[Call]]:
    for points in _designs(rng, 3):
        yield _count_block(rng, points)


# ---------------------------------------------------------------- checks


def brute_count(p: int, a: list[int], b: list[int]) -> int:
    """r(A, B, B) by the definition: pairs (a, b) with a + b in B."""
    members = set(b)
    return sum(1 for x in a for y in b if (x + y) % p in members)


def fft_count(p: int, a: list[int], b: list[int]) -> int:
    """r(A, B, B) from a float FFT convolution, rounded and checked."""
    n = 1 << (2 * p - 1).bit_length()
    ind_a = np.zeros(p)
    ind_b = np.zeros(p)
    ind_a[a] = 1.0
    ind_b[b] = 1.0
    linear = np.fft.irfft(np.fft.rfft(ind_a, n) * np.fft.rfft(ind_b, n), n)[: 2 * p - 1]
    circular = linear[:p].copy()
    circular[: p - 1] += linear[p:]
    rounded = np.rint(circular)
    residual = float(np.abs(circular - rounded).max())
    _require(residual < FFT_RESIDUAL_MAX, f"FFT rounding residual {residual} too large")
    counts = rounded.astype(np.int64)
    _require(int(counts.sum()) == len(a) * len(b), "FFT mass identity sum N(c) = st fails")
    return int(counts[b].sum())


def check(call: Call, payload: dict) -> int:
    """Raise CheckFailure unless ``payload`` is right for ``call``; return the ops it completed."""
    return _CHECKS[call.kind](call.params, payload)


def _check_scan(params: dict, payload: dict) -> int:
    expected = json.loads(SCAN_EXPECTED.read_text())
    lo, hi = params["p_min"], params["p_max"]
    moduli = [p for p in range(lo | 1, hi + 1, 2) if p >= 9 and not is_prime(p)]
    instances = {(p, s, t) for p in moduli for s in range(1, p) for t in range(1, p)}
    ran = instances - {tuple(x) for x in payload["skipped"]}
    _require(payload["instances_run"] == len(ran), "instances_run disagrees with skipped list")
    got = {(r["p"], r["s"], r["t"]): r["exceptions"] for r in payload["records"]}
    seed_ran = instances - {tuple(x) for x in expected["skipped"]}
    want = {(p, s, t): values for p, s, t, values in expected["exceptions"]}
    for inst in ran & seed_ran:
        _require(got.get(inst, []) == want.get(inst, []), f"exceptions at {inst} changed")
    if 9 in moduli:
        _require(24 in got.get((9, 7, 6), []), "canonical exception (9,7,6) -> 24 missing")
    for rec in payload["records"]:
        p, s, t = rec["p"], rec["s"], rec["t"]
        values = [w["value"] for w in rec["witnesses"]]
        _require(sorted(values) == sorted(rec["exceptions"]), f"witness values at {p, s, t}")
        for w in rec["witnesses"]:
            a, b, value = w["witness_a"], w["witness_b"], w["value"]
            _require(len(set(a)) == s and len(set(b)) == t, f"witness sizes at {p, s, t}")
            _require(not rec["f"] <= value <= rec["g"], f"value {value} inside [f, g]")
            _require(brute_count(p, a, b) == value, f"witness for {value} at {p, s, t}")
    return payload["instances_run"]


def _check_verify(params: dict, payload: dict) -> int:
    trials = params["trials"]
    _require(payload["ok"] is True, "verify reports a violation")
    _require(payload["trials"] == trials and payload["seed"] == params["seed"], "echoed args")
    _require([m["p"] for m in payload["moduli"]] == list(VERIFY_MODULI), "moduli")
    for m in payload["moduli"]:
        prime = is_prime(m["p"])
        names = ANY_GROUP_CHECKS + (PRIME_ONLY_CHECKS if prime else ())
        _require(m["prime"] is prime, f"primality of {m['p']}")
        _require(sorted(m["checks"]) == sorted(names), f"checks run at p={m['p']}")
        _require(all(v == trials for v in m["checks"].values()), f"check counts at p={m['p']}")
        _require(sorted(m["skipped_checks"]) == sorted(() if prime else PRIME_ONLY_CHECKS),
                 f"skipped checks at p={m['p']}")
        _require(not m["failures"], f"failures at p={m['p']}")
    return trials * len(VERIFY_MODULI)


def _check_construct(params: dict, payload: dict) -> int:
    p, s, t, r = params["p"], params["s"], params["t"], params["r"]
    _require((payload["p"], payload["s"], payload["t"]) == (p, s, t), "echoed (p, s, t)")
    _require(payload["target_r"] == r and payload["achieved_r"] == r, "reported count")
    a, b = payload["witness_a"], payload["witness_b"]
    _require(b == list(range(t)), "B is not the interval {0..t-1}")
    _require(len(a) == s and a == sorted(set(a)) and 0 <= a[0] and a[-1] < p, "witness A")
    _require(fft_count(p, a, b) == r, "witness recount differs from target")
    return 1


def _check_dp(params: dict, payload: dict) -> int:
    p, s, t = params["p"], params["s"], params["t"]
    _require((payload["p"], payload["s"], payload["t"]) == (p, s, t), "echoed (p, s, t)")
    f, g = closed_form_interval(p, s, t)
    _require((payload["f"], payload["g"]) == (f, g), "closed-form interval")
    _require(payload["attained"] == list(range(f, g + 1)), "DP spectrum is not [f, g]")
    return 1


def _check_count(params: dict, payload: dict) -> int:
    p, a, b = params["p"], params["a"], params["b"]
    _require(payload["set_a"] == a and payload["set_b"] == b, "echoed sets")
    _require(payload["count"] == fft_count(p, a, b), "count differs from FFT recount")
    return 1


_CHECKS = {
    "scan": _check_scan,
    "verify": _check_verify,
    "construct": _check_construct,
    "dp": _check_dp,
    "count": _check_count,
}


def plant_wrong_answer(kind: str, payload: dict) -> None:
    """Corrupt ``payload`` in place so that a working check must reject it."""
    if kind == "scan":
        payload["records"][0]["witnesses"][0]["value"] += 1
    elif kind == "verify":
        payload["ok"] = False
    elif kind == "construct":
        payload["achieved_r"] += 1
    elif kind == "dp":
        payload["attained"].pop()
    else:
        payload["count"] += 1

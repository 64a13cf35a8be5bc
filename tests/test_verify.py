import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from addtriples import cli, counting, verify
from addtriples.residues import DomainError, ResidueSet, _position_array
from addtriples.verify import PRIME_ONLY_CHECKS, _random_pair, _random_set, run_verification

from oracles import brute_count, brute_multiplicities, sample_indicator


def test_primes_pass_cleanly():
    report = run_verification([5, 7, 11], 150, seed=42)
    assert report.ok
    for summary in report.moduli:
        assert summary.prime
        assert not summary.skipped
        assert summary.checks["four-way-agreement"] == 150
        assert summary.checks["bound-sandwich"] == 150


def test_composite_gates_prime_only_checks():
    report = run_verification([9], 150, seed=42)
    assert report.ok
    summary = report.moduli[0]
    assert not summary.prime
    assert summary.skipped == PRIME_ONLY_CHECKS
    assert summary.checks["four-way-agreement"] == 150
    assert "bound-sandwich" not in summary.checks
    assert "sumset-inequality" not in summary.checks


def test_seed_determinism():
    first = run_verification([7, 9], 60, seed=13)
    second = run_verification([7, 9], 60, seed=13)
    for lhs, rhs in zip(first.moduli, second.moduli):
        assert lhs.checks == rhs.checks
        assert lhs.violations == rhs.violations


def test_zero_trials_vacuous_pass():
    report = run_verification([5], 0, seed=1)
    assert report.ok
    assert report.moduli[0].checks == {}
    assert report.first_violation() is None


def test_each_route_counts_the_drawn_pair_once_per_trial(monkeypatch):
    # the naive count, N(c) (read by count_layers and the Pollard sweep), the shift
    # and the convolution count each see the very pair the trial drew, once; the
    # moduli reach both sides of the dense-or-sparse rule of the first two
    calls, kernels = [], []
    for name in ("count_naive", "representation_counts", "count_shift", "count_convolution"):
        def route(a_set, b_set, name=name, original=getattr(counting, name)):
            calls.append((name, a_set, b_set))
            return original(a_set, b_set)
        monkeypatch.setattr(counting, name, route)
    for name in ("_naive_dense", "_naive_sparse", "_counts_dense", "_counts_sparse"):
        def kernel(*args, name=name, original=getattr(counting, name)):
            kernels.append(name)
            return original(*args)
        monkeypatch.setattr(counting, name, kernel)
    moduli, trials, seed = [7, 11, 9, 101], 40, 3
    report = run_verification(moduli, trials, seed)
    assert report.ok
    rng = random.Random(seed)
    expected = []
    for p in moduli:
        for _ in range(trials):
            a, b = _random_pair(rng, p)
            expected += [("count_naive", a, b), ("representation_counts", a, b),
                         ("count_shift", a, b), ("count_convolution", a, b),
                         ("count_shift", a.complement(), b.complement())]
    assert calls == expected
    ran = Counter(kernels)
    assert ran["_naive_dense"] + ran["_naive_sparse"] == len(moduli) * trials
    assert ran["_counts_dense"] + ran["_counts_sparse"] == len(moduli) * trials
    assert all(ran[name] for name in ("_naive_dense", "_naive_sparse", "_counts_dense",
                                      "_counts_sparse")), ran


def test_draw_stream_is_pinned():
    # every (p, s, t, A, B) that seed 42 draws for the golden verify run, hashed;
    # a passing report lists no sets, so the golden file cannot see the draws
    rng = random.Random(42)
    digest = hashlib.sha256()
    for p in (5, 7, 11, 101, 499, 9, 501):
        for _ in range(200):
            a, b = _random_pair(rng, p)
            digest.update(f"{p} {a.cardinality} {b.cardinality} {a.bits} {b.bits}\n".encode())
    assert digest.hexdigest() == "9cca4f29c34b34213671bac6b0f5e866e684f5374e92f3bcc577f566107de29a"


@pytest.mark.parametrize(
    "p", [3, 5, 9, 21, 23, 85, 87, 101, 277, 279, 499, 501, 1045, 1047, 4099, 4117, 4119, 30001]
)
def test_random_set_reads_the_words_sample_reads(p):
    # sample pools all p residues when p <= setsize and rejects repeats otherwise;
    # setsize is 21, 85, 277, 1045 and 4117 for k in 1..5, 6..21, 22..85, 86..341
    # and 342..1365, so every p from 23 up meets both branches, and each setsize
    # and the odd p after it pin the branch boundary
    sizes = {1, 5, 6, 21, 22, 85, 86, 341, 342, p // 2, p - 1}
    for seed in range(3):
        drawn, oracle = random.Random(seed), random.Random(seed)
        for size in sorted(size for size in sizes if 1 <= size < p):
            made = _random_set(drawn, p, size)
            assert made.bits == sample_indicator(oracle, p, size)
            assert drawn.getstate() == oracle.getstate(), (seed, size)
            # the members come from the draw's indicator, never from unpacking the bits
            members = made.__dict__["_member_array"]
            assert members.tolist() == _position_array(made.bits).tolist(), (seed, size)
            assert members.dtype == np.int64 and not members.flags.writeable


@pytest.mark.parametrize("p", [7, 499])
def test_a_trial_validates_no_derived_set_and_calls_no_flatnonzero(monkeypatch, p):
    # every set a trial builds comes from its draw or from a valid set, so none is re-validated
    built, flat = [], []
    post_init = ResidueSet.__post_init__
    monkeypatch.setattr(ResidueSet, "__post_init__", lambda self: built.append(self) or post_init(self))
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda *args: flat.append(args) or flatnonzero(*args))
    ResidueSet(p, 1)  # the spies see what they should
    np.flatnonzero([1])
    assert len(built) == 1 and len(flat) == 1
    built.clear()
    flat.clear()
    summary = verify._check_modulus(p, 1, random.Random(p))
    assert summary.checks == dict.fromkeys(
        ["four-way-agreement", "complement-identity", *PRIME_ONLY_CHECKS], 1)
    assert not summary.violations
    assert built == [] and flat == []


def test_moduli_above_the_cap_are_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(verify, "_random_set", lambda *args: pytest.fail("drew a set"))
    for p in (verify._MAX_MODULUS + 1, 2**31 - 1):
        with pytest.raises(DomainError, match=f"at most 2\\^15 = {verify._MAX_MODULUS}"):
            run_verification([5, p], 1, seed=1)
    assert verify._MAX_MODULUS == 2**15


def _replayed_pairs(p, trials, seed):
    """The (A, B) of every trial of ``run_verification([p], trials, seed)``, drawn again."""
    rng = random.Random(seed)
    return [_random_pair(rng, p) for _ in range(trials)]


def test_counter_disagreement_is_reported_once_per_trial(monkeypatch, capsys):
    p, trials, seed = 7, 5, 11
    true_convolution = counting.count_convolution
    monkeypatch.setattr(counting, "count_convolution", lambda a, b: true_convolution(a, b) + 1)
    report = run_verification([p], trials, seed)
    assert not report.ok
    summary = report.moduli[0]
    # a disagreement ends its trial, so no later check runs or reports
    assert summary.checks == {"four-way-agreement": trials}
    assert [v.trial for v in summary.violations] == list(range(trials))
    for v, (a, b) in zip(summary.violations, _replayed_pairs(p, trials, seed)):
        assert (v.set_a, v.set_b) == (a.elements(), b.elements())
        r = brute_count(p, v.set_a, v.set_b)
        assert v.check == "four-way-agreement"
        assert v.detail == f"naive={r}, {{'shift': {r}, 'layers': {r}, 'convolution': {r + 1}}}"
    assert report.first_violation() == summary.violations[0]
    assert cli.main(["verify", "--p", str(p), "--trials", str(trials), "--seed", str(seed)]) == 2
    capsys.readouterr()


def test_layer_inequality_failure_names_the_first_failing_j(monkeypatch, capsys):
    p, trials, seed = 7, 30, 5
    # the layer sizes |S_1|, |S_2|, ... are read off the length-p vector N(c);
    # keep only |S_1|, so every deeper layer looks empty
    true_at_least = counting.sizes_at_least
    monkeypatch.setattr(
        counting, "sizes_at_least",
        lambda m: true_at_least(m)[:1] if m.size == p else true_at_least(m),
    )
    failing = {}
    for trial, (a, b) in enumerate(_replayed_pairs(p, trials, seed)):
        s, t = a.cardinality, b.cardinality
        first = sum(1 for n in brute_multiplicities(p, a.elements(), b.elements()) if n)
        bad = [(j, first, j * min(p, s + t - j)) for j in range(1, min(s, t) + 1)
               if first < j * min(p, s + t - j)]
        if bad:
            failing[trial] = bad
    assert any(len(bad) > 1 for bad in failing.values())  # some trial fails at several j
    report = run_verification([p], trials, seed)
    assert not report.ok
    violations = report.moduli[0].violations
    assert [v.trial for v in violations] == sorted(failing)
    for v in violations:
        j, lhs, rhs = failing[v.trial][0]
        assert v.check == "layer-inequalities"
        assert v.detail == f"j={j}: {lhs} < {rhs}"
    assert cli.main(["verify", "--p", str(p), "--trials", str(trials), "--seed", str(seed)]) == 2
    capsys.readouterr()

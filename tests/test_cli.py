import argparse
import contextlib
import enum
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from addtriples import cli, construction, spectrum, verify
from addtriples.construction import ConstructionWitness, construct, extreme_sums
from addtriples.residues import IntRuns, ResidueSet

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBounds:
    def test_composite_instance(self, capsys):
        payload = run_json(capsys, "bounds", "--p", "9", "--s", "7", "--t", "6")
        assert payload == {"p": 9, "s": 7, "t": 6, "f": 25, "g": 30,
                           "prime": False, "guaranteed": False}

    def test_first_case_zero(self, capsys):
        payload = run_json(capsys, "bounds", "--p", "11", "--s", "3", "--t", "4")
        assert payload["f"] == 0 and payload["guaranteed"] is True

    def test_schur_agreement(self, capsys):
        payload = run_json(capsys, "bounds", "--p", "7", "--s", "3", "--t", "3")
        assert (payload["f"], payload["g"]) == (1, 7)

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--p", "9", "--s", "7", "--t", "6",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "p,s,t,f,g,prime,guaranteed"
        assert row == "9,7,6,25,30,False,False"


class TestCount:
    def test_paper_witness(self, capsys):
        payload = run_json(capsys, "count", "--p", "9",
                           "--set-a", "0,1,2,4,5,7,8", "--set-b", "0,1,3,4,6,7")
        assert payload["count"] == 24 and payload["method"] == "auto"

    def test_all_methods_agree(self, capsys):
        payload = run_json(capsys, "count", "--p", "5", "--set-a", "0,1",
                           "--set-b", "0,1", "--method", "all")
        assert payload["agree"] is True
        assert set(payload["counts"].values()) == {3}

    def test_empty_set_flag(self, capsys):
        payload = run_json(capsys, "count", "--p", "5", "--set-a", "", "--set-b", "0,1")
        assert payload["count"] == 0 and payload["set_a"] == []

    def test_method_disagreement_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.COUNT_METHODS, "naive", lambda a, b: -1)
        code, out, _ = run_cli(capsys, "count", "--p", "5", "--set-a", "0,1",
                               "--set-b", "0,1", "--method", "all")
        assert code == 2
        assert json.loads(out)["agree"] is False

    def test_unparseable_set_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "count", "--p", "5", "--set-a", "0;1", "--set-b", "0")
        assert code == 1 and "integer list" in err


class TestConstruct:
    def test_witness(self, capsys):
        payload = run_json(capsys, "construct", "--p", "11", "--s", "4", "--t", "5", "--r", "7")
        assert payload["witness_a"] == [0, 3, 5, 6]
        assert payload["witness_b"] == [0, 1, 2, 3, 4]
        assert payload["achieved_r"] == payload["target_r"] == 7
        assert payload["selection"] == [[5, 1], [2, 1], [0, 2]]

    def test_out_of_range_exits_1_with_interval(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--p", "9", "--s", "7", "--t", "6",
                               "--r", "24")
        assert code == 1
        assert "[25, 30]" in err

    def test_zero_target(self, capsys):
        payload = run_json(capsys, "construct", "--p", "11", "--s", "3", "--t", "4", "--r", "0")
        assert payload["witness_a"] == [4, 5, 6]


class TestSpectrum:
    def test_exhaustive_composite(self, capsys):
        payload = run_json(capsys, "spectrum", "--p", "9", "--s", "7", "--t", "6",
                           "--mode", "exhaustive", "--witnesses")
        assert payload["attained"] == [24, 25, 26, 27, 28, 29, 30]
        assert payload["exceptions"] == [24]
        assert payload["witnesses"][0]["value"] == 24

    def test_multiset_dp(self, capsys):
        payload = run_json(capsys, "spectrum", "--p", "11", "--s", "4", "--t", "5",
                           "--mode", "multiset-dp")
        assert payload["attained"] == list(range(2, 17))
        assert "witnesses" not in payload

    def test_mode_spelling_is_flexible(self, capsys):
        payload = run_json(capsys, "spectrum", "--p", "9", "--s", "7", "--t", "6",
                           "--mode", "fixed-interval-b")
        assert payload["mode"] == "fixed-interval-B"
        assert payload["attained"] == [25, 26, 27, 28, 29, 30]

    def test_budget_exceeded_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--p", "21", "--s", "10", "--t", "10",
                               "--budget", "100")
        assert code == 3 and "budget" in err

    def test_timing_flag_controls_elapsed(self, capsys):
        without = run_json(capsys, "spectrum", "--p", "5", "--s", "2", "--t", "2")
        assert "elapsed" not in without
        with_timing = run_json(capsys, "spectrum", "--p", "5", "--s", "2", "--t", "2", "--timing")
        assert "elapsed" in with_timing


class TestSchur:
    def test_report(self, capsys):
        payload = run_json(capsys, "schur", "--p", "7", "--s", "3")
        assert (payload["f"], payload["g"]) == (1, 7)
        assert payload["s"] == payload["t"] == 3


class TestScan:
    def test_finds_composite_exception(self, capsys):
        payload = run_json(capsys, "scan", "--p-min", "9", "--p-max", "9")
        records = {(r["p"], r["s"], r["t"]): r for r in payload["records"]}
        assert (9, 7, 6) in records
        assert records[(9, 7, 6)]["exceptions"] == [24]

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--p-min", "9", "--p-max", "9", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,s,t,f,g,exceptions"
        assert any(line.startswith("9,7,6,25,30,24") for line in lines)

    def test_empty_range_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--p-min", "15", "--p-max", "9")
        assert code == 1 and "range" in err

    def test_moduli_above_the_cap_exit_1_before_any_work(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "scan", "--p-min", "2147483647", "--p-max", "2147483649")
        assert time.perf_counter() - started < 1.0
        assert code == 1 and out == ""
        assert "2^31-1" in err and "Traceback" not in err

    def test_negative_p_min_walks_no_modulus_below_9(self, capsys):
        # p_min is echoed as given, but the walk starts at 9, the least odd composite,
        # rather than stepping through about 10^9 smaller values (20 s before).
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "scan", "--p-min", "-2147483647", "--p-max", "9",
                                 "--budget", "1")
        assert time.perf_counter() - started < 2.0
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "db889a5516ed29fe6b8f3525839fc3ec33b2ddbce5aade18f767a4c69f856b01"

    def test_nonpositive_budget_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--p-min", "9", "--p-max", "15",
                                 "--budget", "-5")
        assert code == 1 and out == "" and "budget" in err


class TestVerify:
    def test_pass(self, capsys):
        payload = run_json(capsys, "verify", "--p", "7,11", "--trials", "40", "--seed", "42")
        assert payload["ok"] is True
        assert [m["p"] for m in payload["moduli"]] == [7, 11]

    def test_composite_exclusions_reported(self, capsys):
        payload = run_json(capsys, "verify", "--p", "9", "--trials", "40", "--seed", "42")
        assert payload["ok"] is True
        summary = payload["moduli"][0]
        assert "bound-sandwich" in summary["skipped_checks"]
        assert summary["checks"]["four-way-agreement"] == 40

    def test_zero_trials(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "5", "--trials", "0")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_invalid_modulus_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "5,1", "--trials", "3")
        assert code == 1 and out == "" and "modulus" in err

    def test_negative_trials_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "5", "--trials", "-5")
        assert code == 1 and out == "" and "trials" in err

    def test_moduli_above_the_cap_exit_1_before_any_draw(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--p", "2147483647", "--trials", "1",
                                 "--seed", "1")
        assert time.perf_counter() - started < 1.0
        assert code == 1 and out == ""
        assert f"at most 2^15 = {verify._MAX_MODULUS}" in err and "Traceback" not in err

    def test_help_names_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--help")
        assert code == 0 and f"at most 2^15 = {verify._MAX_MODULUS}" in " ".join(out.split())

    def test_default_output_matches_golden_file(self, capsys):
        # pins the seeded draw stream and the default JSON byte for byte
        code, out, err = run_cli(capsys, "verify", "--p", "5,7,11,101,499,9,501",
                                 "--trials", "200", "--seed", "42")
        assert code == 0, err
        assert out.encode() == (DATA / "verify_p5-501_t200_s42.json").read_bytes()


class TestContract:
    def test_usage_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--p", "9", "--s", "7")
        assert code == 1 and "required" in err

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--p", "8", "--s", "2", "--t", "2")
        assert code == 1 and "odd" in err

    def test_unknown_mode_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--p", "5", "--s", "2", "--t", "2",
                             "--mode", "bogus")
        assert code == 1

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--p", "9", "--s", "7", "--t", "6",
                            "--witnesses")
        assert cli.render_json(json.loads(out)) == out

    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "--p", "7,9", "--trials", "25", "--seed", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "bounds", "--p", "9", "--s", "7", "--t", "6",
                               "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["f"] == 25

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        for target in (tmp_path, tmp_path / "missing" / "report.json"):
            code, out, err = run_cli(capsys, "bounds", "--p", "9", "--s", "7", "--t", "6",
                                     "--output", str(target))
            assert code == 1 and out == ""
            assert "cannot write" in err and "Traceback" not in err

    def test_huge_budget_refusals_exit_3_quickly(self, capsys):
        # exact costs of 4500 to 600,000 digits: past Python's int -> str limit, and slow to compute
        for argv in (
            ("spectrum", "--p", "15001", "--s", "7500", "--t", "7500", "--mode", "fixed-interval-B"),
            ("schur", "--p", "15001", "--s", "7500"),
            ("spectrum", "--p", "1000001", "--s", "500000", "--t", "500000"),
        ):
            started = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - started < 1.0, argv
            assert code == 3 and out == "", argv
            assert "Traceback" not in err
            assert err == ("addtriples: budget exceeded: estimated cost at least 10^4300 "
                           "exceeds budget 100000000\n")

    def test_removed_jobs_flag_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--p", "9", "--s", "7", "--t", "6",
                                 "--jobs", "4")
        assert code == 1 and out == ""
        assert err.startswith("usage: addtriples ")
        assert "unrecognized arguments: --jobs 4" in err and "Traceback" not in err

    def test_unknown_option_prints_the_subcommand_usage(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--p", "9", "--s", "7", "--t", "6",
                                 "--jobs", "4")
        assert code == 1 and out == ""
        assert err.startswith("usage: addtriples spectrum")
        assert "--jobs" in err and "Traceback" not in err

    def test_json_calls_build_no_csv_rows(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("CSV built for a JSON call")

        monkeypatch.setattr(cli, "render_csv", refuse)
        for name, (run, _) in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name, (run, refuse))
        for argv in (
            ("construct", "--p", "101", "--s", "30", "--t", "41", "--r", "500"),
            ("spectrum", "--p", "11", "--s", "4", "--t", "5", "--mode", "multiset-dp"),
            ("verify", "--p", "7,9", "--trials", "5", "--seed", "3"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
            json.loads(out)

    def test_witness_recount_round_trip(self, capsys):
        payload = run_json(capsys, "construct", "--p", "9", "--s", "7", "--t", "6", "--r", "27")
        recount = run_json(
            capsys, "count", "--p", "9",
            "--set-a", ",".join(map(str, payload["witness_a"])),
            "--set-b", ",".join(map(str, payload["witness_b"])),
            "--method", "all",
        )
        assert recount["count"] == 27 and recount["agree"] is True


# JSON-like payloads for the renderer: every scalar json.dumps writes, lists of
# plain ints and lists of such lists (the renderer's fast paths) and of bools,
# tuples, empty containers.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**60), 10**60),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300]),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\r", "\x00\x1f", "é", "漢字", "\u2028", "\ud800", "🎲"]),
)
_JSON_PAYLOADS = st.recursive(
    st.one_of(_JSON_SCALARS, st.lists(st.integers()), st.lists(st.booleans())),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(['"', "\\", "é", ""])), inner, max_size=5),
    ),
    max_leaves=25,
)


class _Colour(enum.IntEnum):
    RED = 1


@given(_JSON_PAYLOADS)
@example((7,))  # str((7,)) is "(7,)"
@example([])
@example([True, 1])  # bools are ints but render as true/false
@example([1, True])
@example([-3, 10**60])
@example([1, _Colour.RED])  # an int subclass whose str is not its JSON
@example([[1, 2], [3]])  # lists of int lists: the nested fast path
@example([[1], []])  # an empty row
@example([[True, 1]])
@example([[1, 2], (3, 4)])  # str((3, 4)) is "(3, 4)"
@example([[[1]]])
@example([[-3, 10**60]])
@example([[1, _Colour.RED]])
@example([7])  # a one-item template
@example([-(2**70), 2**64, 0])  # past int64 either way
@example(list(range(-500, 1500)))
@example([[1, 2, 3], [4], [5, 6]])  # unequal rows: one template per row length
@example([[1, 2], [3, 4]] * 500)
@example({"%d": [1, 2], "a%s": [[3, 4]]})  # a '%' in a key never reaches a template
def test_render_json_matches_json_dumps(payload):
    assert cli.render_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [[10**5000], [[1, 10**5000]], {"x": 10**5000}])
def test_render_json_refuses_ints_past_the_digit_limit_as_json_dumps_does(payload):
    with pytest.raises(ValueError):
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(ValueError):
        cli.render_json(payload)


def _ascending_runs(draws):
    """Runs of each length that start near their anchor, or end there when ``ends`` is
    set, pushed up to be ascending and disjoint; some come out empty or adjacent to the
    one before."""
    runs, stop = [], 0
    for anchor, offset, length, ends in sorted(draws):
        start = max(anchor + offset - (length if ends else 0), stop)
        stop = start + length
        runs.append((start, stop))
    return runs


# Ascending, disjoint, nonnegative runs, short enough to list, that start or end
# at and around the block writer's edges: 0, 1000, and 10^k - 1, 10^k, 10^k + 1 for
# k = 3..12, where str(q) of block q gains a digit, so every width from 1 to 10.
_RUN_EDGES = [0, 1000, *(10**k + d for k in range(3, 13) for d in (-1, 0, 1)), 2**40]
_RUNS = st.lists(
    st.tuples(st.sampled_from(_RUN_EDGES),
              st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-1100, 1100)),
              st.one_of(st.sampled_from([0, 1, 999, 1000, 1001]), st.integers(0, 2100)),
              st.booleans()),
    max_size=6,
).map(_ascending_runs)


def _nested(value, depth):
    """``value`` inside ``depth`` levels of alternating one-item lists and dicts."""
    for level in range(depth):
        value = {"k": value} if level % 2 else [value]
    return value


@settings(deadline=None)
@given(_RUNS, st.integers(0, 3))
@example([], 0)
@example([(0, 1)], 0)  # [0]
@example([(0, 1000)], 1)  # exactly block 0
@example([(999, 1001)], 2)  # across the first block edge
@example([(10**k - 1001, 10**k + 1001) for k in range(4, 13)], 0)  # every width, whole blocks
def test_runs_render_as_their_flat_ints(runs, depth):
    flat = [x for start, stop in runs for x in range(start, stop)]
    as_runs = IntRuns(runs)
    # the block writer, on the merged runs, each way, with each kind of separator
    for sep in (",\n    ", " ", ",\n      2\n    ],\n    [\n      "):
        for descending in (False, True):
            out = []
            cli._write_runs(as_runs.runs, sep, out, descending)
            ints = [x for start, stop in as_runs.runs
                    for x in (range(stop - 1, start - 1, -1) if descending else range(start, stop))]
            assert "".join(out) == sep.join(map(str, ints)), (sep, descending)
    assert list(as_runs) == flat and len(as_runs) == len(flat) and as_runs == tuple(flat)
    payload = {"values": _nested(as_runs, depth), "twice": [as_runs, as_runs], "n": len(flat)}
    listed = {"values": _nested(flat, depth), "twice": [flat, flat], "n": len(flat)}
    assert cli.render_json(payload) == json.dumps(listed, indent=2, sort_keys=True) + "\n"
    # the CSV derivers give the same rows from the runs as from the listed ints
    row = {"p": 2**41 + 1, "s": len(flat), "t": 2, "target_r": 3, "achieved_r": 3}
    assert (cli._construct_rows({**row, "witness_a": as_runs, "witness_b": IntRuns([(0, 2)])})
            == cli._construct_rows({**row, "witness_a": flat, "witness_b": [0, 1]}))
    assert (cli._spectrum_rows({**row, "attained": as_runs, "gaps": IntRuns(), "x": [5]})
            == cli._spectrum_rows({**row, "attained": flat, "gaps": [], "x": [5]}))


def test_runs_refuse_ints_past_the_digit_limit_as_json_dumps_does():
    with pytest.raises(ValueError):
        cli.render_json({"x": IntRuns([(10**5000, 10**5000 + 2)])})


# Selection sizes at and around the block writer's edges, where a count-2 segment
# going down crosses 1001, 1000, 999 or 10000, 9999, and whole floor runs past 1000.
_EDGES = [1, 2, 999, 1000, 1001, 1002, 9999, 10000, 10001, 10002]


@st.composite
def _construct_instances(draw):
    """(p, s, t, r) with r in [r1, r2]: the ends of the interval and their neighbours,
    where w sits next to a run of the selection, and any r between."""
    p = draw(st.one_of(st.integers(1, 40).map(lambda h: 2 * h + 1),
                       st.sampled_from([2003, 2999, 3001, 20001, 20005, 24001])))
    near = st.sampled_from([x for x in _EDGES if x < p] + [p // 2, p // 2 + 1, p - 1])
    t = draw(st.one_of(st.integers(1, p - 1), near))
    s = draw(st.one_of(st.integers(1, p - 1), near))
    r1, r2 = extreme_sums(p, s, t)
    r = draw(st.one_of(st.integers(r1, r2),
                       st.sampled_from([r1 + 1, r1 + 2, r2 - 2, r2 - 1, (r1 + r2) // 2])))
    return p, s, t, min(max(r, r1), r2)


def _listed(value_counts):
    """The [value, count] rows of a ValueCounts, largest value first."""
    return [[v, count] for high, low, count in value_counts.segments
            for v in range(high, low - 1, -1)]


@settings(deadline=None, max_examples=60)
@given(_construct_instances())
@example((11, 4, 5, 7))
@example((11, 10, 5, 22))  # s = p - 1
@example((5001, 4500, 1500, 1562250))  # w, a run down through 1000, and 2002 floors
@example((20001, 10002, 10002, 75030003))  # one run down through 10000 and 9999
def test_selection_renders_as_its_listed_rows(args):
    p, s, t, r = args
    payload, code = cli._run_construct(argparse.Namespace(p=p, s=s, t=t, r=r))
    assert code == cli.EXIT_OK
    pairs = _listed(payload["selection"])
    assert pairs == list(map(list, construct(p, s, t, r).selection.items()))
    if (p, s, t, r) == (11, 4, 5, 7):
        assert pairs == [[5, 1], [2, 1], [0, 2]]
    listed = {**payload, "selection": pairs, "witness_a": list(payload["witness_a"]),
              "witness_b": list(payload["witness_b"])}
    assert cli.render_json(payload) == json.dumps(listed, indent=2, sort_keys=True) + "\n"


def test_value_counts_render_as_their_rows_at_any_depth():
    segments = [(10**6 + 1, 10**6 + 1, 1), (10**6, 10**6 - 1001, 2), (1500, 998, 2),
                (7, 7, 3000), (5, 0, 3)]
    counts = cli.ValueCounts(segments)
    rows = _listed(counts)
    for depth in range(3):
        assert (cli.render_json({"x": _nested(counts, depth), "e": cli.ValueCounts(())})
                == json.dumps({"x": _nested(rows, depth), "e": []}, indent=2, sort_keys=True)
                + "\n")


def test_block_cache_sees_one_separator_per_form():
    # 200 construct calls whose floor counts and one-value counts all differ: the
    # block writer caches its text per separator, and its templates per separator,
    # direction and width of str(q), so no count may reach either. The JSON writes
    # A, B and the selection's count-2 segments with two separators, the CSV A and
    # B with a third; every block q >= 1 here has a one-digit str(q).
    floors, ends = set(), set()
    misses = cli._int_blocks.cache_info().misses
    template_misses = cli._block_template.cache_info().misses
    for i in range(200):
        p, t = 4001 + 4 * i, 1000 + i  # floor 0 with p - 2t + 1 = 2002 + 2i copies
        s = p - 2 * t + 1 + 3 * i + 1  # every floor and 3i + 1 more
        r = extreme_sums(p, s, t)[0] + 1 + i  # the s smallest but one, and w
        args = ["construct", "--p", str(p), "--s", str(s), "--t", str(t), "--r", str(r)]
        segments = construct(p, s, t, r).selection_segments
        floors.add(segments[-1][2])
        ends.update((high, count) for high, low, count in segments if high == low)
        for form in ([], ["--format", "csv"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(args + form) == 0, args
    assert len(floors) == 200 and len(ends) > 400
    assert cli._int_blocks.cache_info().misses - misses <= 3
    assert cli._block_template.cache_info().misses - template_misses <= 3


def test_concurrent_renders_keep_their_own_texts():
    # Each call stamps str(q) into its own copy of a block template. Four threads
    # render payloads whose blocks share the separator and the width of str(q),
    # 200 times each, with the interpreter switching threads as often as it can: a
    # template shared between calls would mix their digits.
    payloads = [{"values": IntRuns([(base + i, base + 20000 + i)])}
                for i, base in enumerate((10**6, 3 * 10**6, 5 * 10**6, 7 * 10**6))]
    expected = [json.dumps({"values": list(payload["values"])}, indent=2) + "\n"
                for payload in payloads]
    texts = [[] for _ in payloads]
    start = threading.Barrier(len(payloads))

    def render(i):
        start.wait()
        for _ in range(200):
            texts[i].append(cli.render_json(payloads[i]))

    threads = [threading.Thread(target=render, args=(i,)) for i in range(len(payloads))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(texts, expected):
        assert len(got) == 200 and all(text == want for text in got)


# The default JSON and CSV of a large construct and a mirrored multiset-dp
# spectrum (s > p/2), and the CSV of every other command, pinned byte for byte
# by sha256.
@pytest.mark.parametrize("argv, digest", [
    (("construct", "--p", "100001", "--s", "30000", "--t", "41000", "--r", "900000000"),
     "ef8e9bc16bdd3fedd86e22359ae745285393ae9613e36ac38250edd4ef7572e8"),
    (("construct", "--p", "100001", "--s", "30000", "--t", "41000", "--r", "900000000",
      "--format", "csv"),
     "327c6c2792da054fff64ad957566a21c4e91fbce2a38f6293b7638062249b726"),
    (("spectrum", "--p", "401", "--s", "300", "--t", "150", "--mode", "multiset-dp"),
     "abe61c381d63947327a5e232bd0a327ae820cde0c3716abaa55fff66ae234940"),
    (("spectrum", "--p", "401", "--s", "300", "--t", "150", "--mode", "multiset-dp",
      "--format", "csv"),
     "5368f1c3954e6d9ea8ea81e1b5ff72a6d79c28671f615c251b497193cf19f4da"),
    (("bounds", "--p", "9", "--s", "7", "--t", "6", "--format", "csv"),
     "effb4984c47e4184a5999453c6d0eea6a9eb32deef37684abe4d8e81270780c7"),
    (("count", "--p", "9", "--set-a", "0,1,2,4,5,7,8", "--set-b", "0,1,3,4,6,7",
      "--method", "all", "--format", "csv"),
     "f67f5c830f5ace29152e4dba1781953561c30d046991ff5e7fb49566517e26db"),
    (("spectrum", "--p", "9", "--s", "7", "--t", "6", "--witnesses", "--format", "csv"),
     "0b9a561d0fd9b01008d1037e94d179f3e6e55cd5667f652e57fe15c4d44912a2"),
    (("schur", "--p", "7", "--s", "3", "--witnesses", "--format", "csv"),
     "a5af1226b555cebf3468a13a723d6668b3b7700c15cb47a39600433011894d03"),
    (("scan", "--p-min", "9", "--p-max", "9", "--format", "csv"),
     "d0e1136c16a1829498b8c55e707b7b4fec12d948a006ed65eb0fdcb1862369c5"),
    (("verify", "--p", "7,9", "--trials", "25", "--seed", "7", "--format", "csv"),
     "99a8b2e271e088ac46ae257ca46901f0a5bfb33525c7e2298e5f25e19543c7d3"),
    # 2t > p: the overlap floor max(0, 2t - p) is positive
    (("spectrum", "--p", "401", "--s", "300", "--t", "350", "--mode", "multiset-dp"),
     "4b884a42e83b8742b706a972ec95f8dffcf3339d41d687609c367470855dc981"),
    (("spectrum", "--p", "2001", "--s", "1500", "--t", "1800", "--mode", "multiset-dp"),
     "d6fd61853ea850734e5144e9c57e1b0a54d03cb1f5bcdcca8eaf0f20cd9e0915"),
    (("spectrum", "--p", "2001", "--s", "1500", "--t", "1800", "--mode", "multiset-dp",
      "--format", "csv"),
     "2e186cda5f686c53828222d6784d917fa5db83edbdb72356f6b4cdbf67753130"),
], ids=["construct-json", "construct-csv", "multiset-dp-json", "multiset-dp-csv",
        "bounds-csv", "count-all-csv", "spectrum-csv", "schur-csv", "scan-csv", "verify-csv",
        "multiset-dp-floor-json", "multiset-dp-floor-p2001-json", "multiset-dp-floor-p2001-csv"])
def test_default_output_digest(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# construct at p = 2^20 + 1 and multiset-dp spectra, JSON and CSV, pinned by sha256
_RUN_PINS = [
    (("construct", "--p", "1048577", "--s", "524288", "--t", "524288", "--r", "137438822400"),
     "d650a24943f3b83b3780b26c3964cd9b37aad3c76a35917f6e3129f4a5ab5a8e"),
    (("construct", "--p", "1048577", "--s", "524288", "--t", "524288", "--r", "137438822400",
      "--format", "csv"),
     "aa5e4631ee35ac925fe4c23eb472d919b2b923345849b1440418a4ec6d977ff9"),
    (("spectrum", "--p", "401", "--s", "300", "--t", "150", "--mode", "multiset-dp"),
     "abe61c381d63947327a5e232bd0a327ae820cde0c3716abaa55fff66ae234940"),
    (("spectrum", "--p", "2001", "--s", "1000", "--t", "1000", "--mode", "multiset-dp",
      "--format", "csv"),
     "f3a41aefda829fc86f2cc2b382ed6dc73087ee67b155193acd3c89db9f50d8f6"),
]


def test_cli_writes_runs_without_listing_their_ints(capsys, monkeypatch):
    # construct's witnesses are sets built from runs, and a multiset-dp spectrum is
    # one run: the CLI writes them from their runs, so nothing may list their ints.
    def refuse(*_):
        raise AssertionError("the ints of a run were listed")

    for owner, name in [(ResidueSet, "elements"), (ResidueSet, "__iter__"),
                        (IntRuns, "__iter__"), (IntRuns, "__getitem__")]:
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(spectrum, "bit_positions", refuse)
    # construct's selection is written from its segments: no dict of it is built
    monkeypatch.setattr(ConstructionWitness, "selection", property(refuse))
    monkeypatch.setattr(construction, "_selection_counts", refuse)
    for argv, digest in _RUN_PINS:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


class _CappedRaw(io.RawIOBase):
    """A raw writer that takes at most ``cap`` bytes per call, as one Linux write()
    takes at most 0x7ffff000, or refuses every byte with ENOSPC while ``full``."""

    def __init__(self, cap=None, full=False):
        self.cap, self.full, self.received = cap, full, bytearray()

    def writable(self):
        return True

    def write(self, data):
        if self.full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        taken = bytes(data[:self.cap])
        self.received += taken
        return len(taken)


def _text_stream(raw, buffered):
    """sys.stdout's layers over ``raw``: buffered, or unbuffered as under ``python -u``."""
    return io.TextIOWrapper(io.BufferedWriter(raw) if buffered else raw, encoding="utf-8",
                            write_through=not buffered)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_stdout_receives_every_byte_through_short_writes(buffered):
    # Unbuffered, the text layer hands each write to the descriptor whole and drops a
    # short count, as one write past Linux's cap keeps 0x7ffff000 bytes. The raw here
    # takes fewer bytes per call than the 8 KiB writes of a BufferedWriter, and than
    # most pieces of this 21.5 MB JSON, so each of those writes is cut short
    raw = _CappedRaw(cap=4093)
    stream = _text_stream(raw, buffered)
    with contextlib.redirect_stdout(stream):
        assert cli.main(list(_RUN_PINS[0][0])) == 0
    stream.flush()
    assert hashlib.sha256(raw.received).hexdigest() == _RUN_PINS[0][1]


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [("bounds", "--p", "7", "--s", "3", "--t", "3"), _RUN_PINS[0][0]],
                         ids=["bounds", "construct"])
def test_a_full_stdout_exits_1_with_one_line(argv, buffered):
    raw = _CappedRaw(full=True)
    stream, err = _text_stream(raw, buffered), io.StringIO()
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    raw.full = False  # the stream's own close then flushes what it holds
    assert code == 1
    assert err.getvalue() == "addtriples: cannot write stdout: No space left on device\n"


MAIN = "import sys; from addtriples.cli import main; sys.exit(main())"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("bounds", "--p", "7", "--s", "3", "--t", "3"),
                                  ("construct", "--p", "100001", "--s", "50000", "--t", "50000",
                                   "--r", "1249987500")], ids=["bounds", "construct"])
def test_writing_to_dev_full_exits_1_with_one_stderr_line(argv, unbuffered):
    # before: unbuffered, a traceback and exit 1; buffered, "Exception ignored" from
    # the interpreter's flush at exit, and exit 120
    with open("/dev/full", "w") as full:
        proc = _fresh_interpreter(MAIN, *argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "addtriples: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_help_to_dev_full_exits_1_with_one_stderr_line(unbuffered):
    # before: argparse dropped the failed write of the help, and the exit was 0
    with open("/dev/full", "w") as full:
        proc = _fresh_interpreter(MAIN, "construct", "--help", stdout=full,
                                  PYTHONUNBUFFERED=unbuffered, COLUMNS="80")
    assert proc.returncode == 1
    assert proc.stderr.decode() == "addtriples: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", [
    (("construct", "--p", "9", "--s", "7"), 1),
    (("construct", "--p", "9", "--s", "7", "--t", "6", "--r", "24"), 1),
    (("spectrum", "--p", "21", "--s", "10", "--t", "10", "--budget", "1"), 3),
    (("construct", "--p", "9", "--s", "7", "--t", "6", "--r", "25", "--jobs", "4"), 1),
    (("--jobs", "4"), 1),
], ids=["usage", "domain", "budget", "unknown-option", "unknown-command"])
def test_an_error_to_a_full_stderr_keeps_its_exit_code(argv, code, unbuffered):
    # before: buffered, "Exception ignored" from the interpreter's flush of stderr at
    # exit, and exit 120; unbuffered, exit 1, the budget error's 3 included
    with open("/dev/full", "w") as full:
        proc = _fresh_interpreter(MAIN, *argv, stderr=full, PYTHONUNBUFFERED=unbuffered)
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_failed_write_to_a_full_stdout_and_stderr_exits_1(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _fresh_interpreter(MAIN, "bounds", "--p", "7", "--s", "3", "--t", "3",
                                  stdout=full, stderr=full, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 1


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_pipe_closed_part_way_exits_1(unbuffered):
    # the output (about 1 MB) outgrows the pipe; the reader takes 10 bytes and closes
    # it. Before, unbuffered, the write's short count was dropped and the exit was 0
    argv = ("construct", "--p", "100001", "--s", "50000", "--t", "50000", "--r", "1249987500")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-c", MAIN, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b'{\n  "achie'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err.decode() == "addtriples: cannot write stdout: Broken pipe\n"


class _KeepingSink(io.TextIOBase):
    """A text sink that keeps the strings written to it, each the very object
    passed in, with no copy. So a traced peak counts what the writer holds, not
    how a StringIO buffers its text, which differs between CPython versions."""

    def __init__(self):
        self.pieces = []

    def writable(self):
        return True

    def write(self, text):
        self.pieces.append(text)
        return len(text)


def test_construct_peak_memory_stays_near_its_output_size():
    # The pieces main writes are the output's size or so: both calls read 1.01x on
    # CPython 3.11. Listing a run's ints, or any join or copy of the whole text next
    # to its pieces, takes the peak to 2x or more.
    warm = ["--p", "9", "--s", "7", "--t", "6"]  # parser and block texts built first
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["construct", *warm, "--r", "27"]) == 0
        assert cli.main(["spectrum", *warm, "--mode", "multiset-dp"]) == 0
    multiset_dp = (("spectrum", "--p", "2001", "--s", "1000", "--t", "1000", "--mode",
                    "multiset-dp"),
                   "35df1e2f9dcd58f1fa2f1696689491e19256f657588c0cb38467fb00e1a6800b")
    for argv, digest in (_RUN_PINS[0], multiset_dp):
        sink = _KeepingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert cli.main(list(argv)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = "".join(sink.pieces)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        assert peak < 1.25 * len(out), (argv, peak, len(out))


def _fresh_interpreter(code, *args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
    """Run ``code`` in a new interpreter that imports this addtriples package, with
    ``env`` added to its environment."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], stdout=stdout,
                          stderr=stderr, env={**os.environ, "PYTHONPATH": path, **env},
                          timeout=120)


NO_NUMPY_MAIN = ("import sys; sys.modules['numpy'] = None; "
                 "from addtriples.cli import main; sys.exit(main())")


@pytest.mark.parametrize("argv", [
    ("construct", "--p", "100001", "--s", "30000", "--t", "41000", "--r", "900000000"),
    ("construct", "--p", "100001", "--s", "30000", "--t", "41000", "--r", "900000000",
     "--format", "csv"),
    ("construct", "--p", "9", "--s", "7", "--t", "6", "--r", "25"),
    ("bounds", "--p", "101", "--s", "30", "--t", "40"),
    ("bounds", "--p", "9", "--s", "7", "--t", "6", "--format", "csv"),
    ("spectrum", "--p", "401", "--s", "200", "--t", "200", "--mode", "multiset-dp"),
    ("spectrum", "--p", "2001", "--s", "1500", "--t", "1800", "--mode", "multiset-dp"),
    ("spectrum", "--p", "9", "--s", "7", "--t", "6", "--mode", "multiset-dp", "--format", "csv"),
    ("spectrum", "--p", "9", "--s", "4", "--t", "3", "--mode", "fixed-interval-B", "--witnesses"),
], ids=["construct-json", "construct-csv", "construct-composite", "bounds-json", "bounds-csv",
        "multiset-dp-json", "multiset-dp-floor-json", "multiset-dp-csv", "fixed-interval-json"])
def test_construct_and_bounds_need_no_numpy(capsys, argv):
    # numpy made unimportable: any import of it would end in a traceback and exit 1.
    # The multiset-dp and fixed-interval-B spectra need none either: their reports
    # list their bits by runs
    proc = _fresh_interpreter(NO_NUMPY_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert proc.stdout == out.encode()


def test_numpy_is_imported_on_first_use_only():
    proc = _fresh_interpreter(
        "import sys\n"
        "from addtriples import cli, counting, residues\n"
        "assert 'numpy' not in sys.modules and type(counting.np).__name__ == 'NumpyOnFirstUse'\n"
        "cli.main(['bounds', '--p', '9', '--s', '7', '--t', '6'])\n"
        "assert 'numpy' not in sys.modules\n"
        "cli.main(['count', '--p', '9', '--set-a', '0,1', '--set-b', '0,1', '--method', 'naive'])\n"
        "import numpy\n"
        "assert counting.np is numpy and residues.np is numpy\n")
    assert proc.returncode == 0, proc.stderr.decode()


def test_parser_reuse_carries_no_state(capsys, monkeypatch):
    argv = ("construct", "--p", "21", "--s", "8", "--t", "11", "--r", "40")
    assert run_cli(capsys, "construct", "--p", "21", "--s", "8")[0] == 1
    shared = cli._parser
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "construct" in out
    reused = run_cli(capsys, *argv)
    assert cli._parser is shared
    monkeypatch.setattr(cli, "_parser", None)  # the next call builds a fresh parser
    fresh = run_cli(capsys, *argv)
    assert cli._parser is not shared
    assert reused[0] == 0 and reused == fresh


# CLI totality: any argv ends in a documented exit code, never an exception.
# Sizes stay small (p <= 15 where the command enumerates), but every numeric
# flag also sees negative, zero, even and out-of-range values.
_SMALL = st.integers(-3, 15)
_NUMBER = st.one_of(st.integers(-3, 45), st.sampled_from([2**31 - 2, 2**31 + 1, -(10**20)]))
_BUDGET = st.one_of(st.integers(-3, 2 * 10**6), st.just(10**20))
_RESIDUES = st.one_of(
    st.lists(st.integers(-50, 50), max_size=8).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", " ", ",", "1,,2", "0;1", "a", "1.5", "0x3", "--", "-", "3,-"]),
    st.text(max_size=6),
)

# verify's --p also sees the moduli cap and the top of the domain, alone or after a small p
_MODULI = st.one_of(
    _RESIDUES,
    st.lists(st.sampled_from([5, 2**31 - 1, verify._MAX_MODULUS - 2, verify._MAX_MODULUS + 2]),
             min_size=1, max_size=2).map(lambda ps: ",".join(map(str, ps))),
)


def _flag(name, values):
    """Either the flag with one drawn value, or the flag left out."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _argv(command, *parts):
    return st.tuples(*parts, st.sampled_from([[], ["--format", "csv"], ["--format", "xml"]])).map(
        lambda chunks: [command] + [token for chunk in chunks for token in chunk]
    )


_ARGV = st.one_of(
    _argv("bounds", _flag("--p", _NUMBER), _flag("--s", _NUMBER), _flag("--t", _NUMBER)),
    _argv("count", _flag("--p", _NUMBER), _flag("--set-a", _RESIDUES), _flag("--set-b", _RESIDUES),
          _flag("--method", st.sampled_from([*cli.COUNT_METHODS, "all", "bogus"]))),
    _argv("construct", _flag("--p", _NUMBER), _flag("--s", _NUMBER), _flag("--t", _NUMBER),
          _flag("--r", st.integers(-5, 2000))),
    _argv("spectrum", _flag("--p", _SMALL), _flag("--s", _SMALL), _flag("--t", _SMALL),
          _flag("--mode", st.sampled_from([*cli.SPECTRUM_MODES, "MULTISET-DP", "bogus"])),
          _flag("--budget", _BUDGET),
          st.sampled_from([[], ["--witnesses"], ["--timing"]])),
    _argv("schur", _flag("--p", _SMALL), _flag("--s", _SMALL), _flag("--budget", _BUDGET),
          st.sampled_from([[], ["--witnesses"], ["--timing"]])),
    _argv("scan", _flag("--p-min", _SMALL), _flag("--p-max", _SMALL),
          _flag("--budget", _BUDGET)),
    _argv("verify", _flag("--p", _MODULI), _flag("--trials", st.integers(-3, 20)),
          _flag("--seed", st.integers(-(10**6), 10**6))),
    st.lists(st.sampled_from(["bounds", "scan", "--p", "9", "-1", "--help", "", "x"]), max_size=4),
)


@settings(deadline=None, max_examples=150)
@given(_ARGV)
def test_main_is_total(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in {0, 1, 2, 3}, (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue()


def _parsed(parse, argv):
    """(namespace, extras, SystemExit code, stdout, stderr) of one parse of ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    result, code = (None, None), None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
    return (*result, code, out.getvalue(), err.getvalue())


# main reads a well-formed call off its command's option table, and hands any
# other to the top-level parser; either way it must see what that parser gives.
_PST = ["--p", "7", "--s", "3", "--t", "3"]


@settings(deadline=None, max_examples=300)
@given(_ARGV)
@example(["construct", "-h"])
@example(["construct", "--"])
@example(["construct", "--", "--p", "7"])
@example(["construct", "--p=7", "--s", "3", "--t", "3", "--r", "4"])
@example(["construct", "--he"])
@example(["construct", "--p", "7", "--s", "3", "--t", "3", "--r", "4", "stray", "--x"])
@example(["verify", "--p", "5", "--trials", "1", "-x", "--", "y"])
@example(["--", "construct"])
@example(["-h", "construct"])
@example([])
@example(["constr"])  # a prefix of a command name is no command
# well-formed: the table's path, string defaults through their type included
@example(["construct", *_PST, "--r", "4"])
@example(["spectrum", *_PST, "--witnesses", "--timing", "--budget", "9", "--format", "csv"])
@example(["spectrum", *_PST])  # --mode's default "exhaustive" goes through _mode
@example(["verify", "--p", "5,7", "--trials", "2"])
@example(["count", "--p", "5", "--set-a", "", "--set-b", "0,1"])  # an empty value
@example(["spectrum", *_PST, "--mode", "MULTISET-DP"])  # its type gives "multiset-dp"
# each case the table hands to argparse
@example(["construct", "--p", "7", "--p", "9", "--s", "3", "--t", "3", "--r", "4"])  # given twice
@example(["construct", *_PST, "--r", "-5"])  # a value starting with '-'
@example(["verify", "--p", "5", "--trials", "1", "--seed", "-3"])
@example(["count", "--p", "5", "--set-a", "-1,2", "--set-b", "0"])  # an option to argparse
@example(["construct", *_PST, "--r"])  # a value-taking option last
@example(["spectrum", *_PST, "--wit"])  # an abbreviation
@example(["spectrum", *_PST, "--witnesses", "--witnesses"])
@example(["bounds", *_PST, "--format", "xml"])  # outside choices
@example(["spectrum", *_PST, "--mode", "bogus"])  # a type that raises
@example(["construct", "--p", "7", "-h", "--s", "3"])  # -h mid-argv
@example(["construct", "--p", "7", "--s", "3", "--r", "4"])  # --t missing
def test_parse_matches_the_top_level_parser(argv):
    table = _parsed(cli._parse, argv)  # builds the shared parser if no call has yet
    top_level = _parsed(cli._parser.parse_known_args, argv)
    assert table == top_level, argv

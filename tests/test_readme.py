"""The README's examples, run: each CLI line exits as the README says, and each
library line prints what its comment shows."""

import argparse
import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from addtriples import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)  # (language, text)
CLI_LINES = [shlex.split(line)[1:] for _, text in BLOCKS for line in text.splitlines()
             if line.startswith("addtriples ")]
LIBRARY = next(text for language, text in BLOCKS if language == "python")

# one call of each kind the benchmark's gated workloads make, in their argv form
WORKLOAD_CALLS = [
    ["verify", "--p", "5,7,11", "--trials", "20", "--seed", "1234567"],
    ["construct", "--p", "100001", "--s", "30000", "--t", "41000", "--r", "900000000"],
    ["spectrum", "--p", "401", "--s", "300", "--t", "150", "--mode", "multiset-dp"],
]


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_every_command_has_a_cli_line():
    assert sorted({argv[0] for argv in CLI_LINES}) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv", CLI_LINES, ids=" ".join)
def test_cli_line_exits_0(argv):
    code, out, err = _main(argv)
    assert code == 0, err
    assert out and err == ""


def test_the_impossible_target_of_the_notes_exits_1():
    assert "`--p 9 --s 7 --t 6 --r 24` is correctly impossible" in " ".join(README.split())
    code, out, err = _main(["construct", "--p", "9", "--s", "7", "--t", "6", "--r", "24"])
    assert code == 1 and out == ""
    assert "[25, 30]" in err


def test_library_lines_print_their_comments():
    namespace: dict = {}
    lines = LIBRARY.splitlines()
    for statement in ast.parse(LIBRARY).body:
        source = ast.get_source_segment(LIBRARY, statement)
        if isinstance(statement, ast.Expr):
            shown = lines[statement.end_lineno - 1].partition("#")[2].strip()
            assert repr(eval(source, namespace)) == shown, source
        else:
            exec(source, namespace)


def test_well_formed_calls_never_reach_argparse(monkeypatch):
    # They are read off the option tables. Were one handed to argparse, every call
    # would still succeed, and the tables' saving would be gone without a sign.
    def refuse(*_):
        raise AssertionError("a well-formed argv reached argparse")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in CLI_LINES + WORKLOAD_CALLS:
        code, out, err = _main(argv)
        assert code == 0, (argv, err)

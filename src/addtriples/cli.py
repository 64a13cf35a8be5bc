"""Command-line front end with machine-readable JSON and CSV output.

Exit codes: 0 success, 1 usage or domain error, 2 internal verification
failure (methods disagree or a property check fails), 3 budget exceeded.
Output is byte-identical across runs for identical flags and seed; wall
times are only included when --timing is passed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import operator
import os
import sys
from itertools import accumulate, chain

from . import counting, verify
from .bounds import bounds_for
from .construction import construct
from .residues import DomainError, IntRuns, VerificationError, make_set
from .spectrum import (
    DEFAULT_PAIR_BUDGET,
    BudgetExceededError,
    ScanResult,
    SpectrumReport,
    Witness,
    exception_scan,
    schur_spectrum,
    spectrum_exhaustive,
    spectrum_fixed_interval,
    spectrum_multiset_dp,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3

SPECTRUM_MODES = ("exhaustive", "fixed-interval-B", "multiset-dp")
COUNT_METHODS = {
    "naive": counting.count_naive,
    "shift": counting.count_shift,
    "layers": counting.count_layers,
    "convolution": counting.count_convolution,
    "auto": counting.count_triples,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for math failures."""

    def error(self, message):
        _warn(f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        # argparse drops a failed write; help written to stdout raises, so main reports it
        if message and file is sys.stdout:
            _write(file, [message])
        else:
            super()._print_message(message, file)


def _residue_list(text: str) -> list[int]:
    """Parse a comma-separated residue list; the empty string is the empty set."""
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _mode(text: str) -> str:
    canon = {m.lower(): m for m in SPECTRUM_MODES}
    if text.lower() not in canon:
        raise argparse.ArgumentTypeError(f"mode must be one of {', '.join(SPECTRUM_MODES)}")
    return canon[text.lower()]


def _int_list(text: str) -> list[int]:
    values = _residue_list(text)
    if not values:
        raise argparse.ArgumentTypeError("need at least one modulus")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="addtriples", description="Additive triples (a, b, a+b) in Z_p.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--output", default=None, help="write to this path instead of stdout")
    pst = argparse.ArgumentParser(add_help=False)  # the instance (p, s, t)
    for flag in ("--p", "--s", "--t"):
        pst.add_argument(flag, type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("bounds", parents=[common, pst], help="closed-form interval [f, g]")

    c = sub.add_parser("count", parents=[common], help="count triples for explicit sets")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--set-a", type=_residue_list, required=True)
    c.add_argument("--set-b", type=_residue_list, required=True)
    c.add_argument("--method", choices=[*COUNT_METHODS, "all"], default="auto")

    k = sub.add_parser("construct", parents=[common, pst], help="build A achieving a target count")
    k.add_argument("--r", type=int, required=True)

    sp = sub.add_parser("spectrum", parents=[common, pst], help="attained values for (p, s, t)")
    sp.add_argument("--mode", type=_mode, default="exhaustive",
                    help="exhaustive, fixed-interval-B or multiset-dp")
    sp.add_argument("--witnesses", action="store_true", help="record one witness per value")
    sp.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)
    sp.add_argument("--timing", action="store_true", help="include wall time in the report")

    sc = sub.add_parser("schur", parents=[common], help="Schur-triple spectrum for (p, s)")
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--s", type=int, required=True)
    sc.add_argument("--witnesses", action="store_true")
    sc.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)
    sc.add_argument("--timing", action="store_true")

    sn = sub.add_parser("scan", parents=[common], help="hunt composite moduli for exceptions")
    sn.add_argument("--p-min", type=int, required=True)
    sn.add_argument("--p-max", type=int, required=True)
    sn.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)

    v = sub.add_parser("verify", parents=[common], help="seeded randomized property checks")
    v.add_argument("--p", type=_int_list, required=True,
                   help="comma-separated odd moduli, each at most 2^15 = 32768")
    v.add_argument("--trials", type=int, required=True)
    v.add_argument("--seed", type=int, default=0)

    for command in sub.choices.values():  # main reports stray arguments with their own usage
        command.set_defaults(command_parser=command)
    # name -> the subcommand's option table, read off its parser once, for _parse
    parser.commands = {name: _OptionTable(command) for name, command in sub.choices.items()}
    return parser


_VALUE = object()  # an _OptionTable entry's const for an option that takes one value
# the errors of an option's type that argparse reports as a usage error
_TYPE_ERRORS = (argparse.ArgumentTypeError, TypeError, ValueError)


class _OptionTable:
    """One subcommand's options, read once off its argparse actions, for :func:`_parse`.

    ``options`` maps the option strings of each plain store action (one value,
    or a ``nargs == 0`` flag storing its ``const``) to (dest, type, choices,
    const), with ``_VALUE`` as the const of an option that takes a value.
    ``defaults`` is what argparse puts in the namespace before it parses:
    each action's default, then the subparser's ``set_defaults``. ``converted``
    holds the (dest, type) of the string defaults that have a type, which
    argparse passes through it when the option is absent, and ``required``
    the dests that must be given.
    """

    __slots__ = ("options", "defaults", "converted", "required")

    def __init__(self, command: argparse.ArgumentParser) -> None:
        self.options: dict[str, tuple] = {}
        self.defaults: dict[str, object] = {}
        self.converted: list[tuple[str, object]] = []
        for action in command._actions:
            if type(action) is argparse._StoreAction and action.nargs is None:
                entry = (action.dest, action.type, action.choices, _VALUE)
            elif isinstance(action, argparse._StoreConstAction) and action.nargs == 0:
                entry = (action.dest, None, None, action.const)
            else:
                entry = None  # help, or any other action: its option strings go to argparse
            if entry is not None:
                self.options.update(dict.fromkeys(action.option_strings, entry))
            if action.dest != argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                self.defaults.setdefault(action.dest, action.default)
                if isinstance(action.default, str) and action.type is not None:
                    self.converted.append((action.dest, action.type))
        for dest, value in command._defaults.items():
            self.defaults.setdefault(dest, value)
        self.required = frozenset(action.dest for action in command._actions if action.required)

    def parse(self, argv: list[str]) -> argparse.Namespace | None:
        """The namespace argparse gives ``argv`` (argv[0] this command), or None unless well-formed.

        Well-formed is every token after the command an exact option string of
        the table, each given once: a flag alone, any other option followed by
        one value that does not start with '-' and that its type and choices
        accept; and every required option given. None sends ``argv`` to argparse.
        """
        options, given = self.options, {}
        i, n = 1, len(argv)
        while i < n:
            entry = options.get(argv[i])
            if entry is None or entry[0] in given:
                return None
            dest, convert, choices, value = entry
            if value is _VALUE:
                i += 1
                if i == n or argv[i][:1] == "-":
                    return None
                try:
                    value = argv[i] if convert is None else convert(argv[i])
                except _TYPE_ERRORS:
                    return None
                if choices is not None and value not in choices:
                    return None
            given[dest] = value
            i += 1
        if not self.required <= given.keys():
            return None
        values = {"command": argv[0], **self.defaults, **given}
        for dest, convert in self.converted:
            if dest not in given:
                try:
                    values[dest] = convert(values[dest])
                except _TYPE_ERRORS:
                    return None
        args = argparse.Namespace()
        vars(args).update(values)
        return args


def _witness_rows(witnesses: dict[int, Witness]) -> list[dict]:
    return [
        {"value": value, "witness_a": list(a), "witness_b": list(b)}
        for value, (a, b) in sorted(witnesses.items())
    ]


def _spectrum_output(report: SpectrumReport, timing: bool):
    payload = {
        "p": report.p,
        "s": report.s,
        "t": report.t,
        "mode": report.mode,
        "f": report.f,
        "g": report.g,
        "prime": report.prime,
        "attained": report.attained,
        "gaps": report.gaps,
        "exceptions": report.exceptions,
    }
    if report.witnesses is not None:
        payload["witnesses"] = _witness_rows(report.witnesses)
    if timing:
        payload["elapsed"] = report.elapsed
    return payload, EXIT_OK


def _csv_row(payload: dict) -> dict:
    """A CSV row from a JSON payload: witnesses and elapsed dropped, int lists and runs joined with ';'."""
    return {
        key: _joined(value, ";") if isinstance(value, (list, IntRuns)) else value
        for key, value in payload.items()
        if key not in ("witnesses", "elapsed")
    }


def _run_bounds(args):
    result = bounds_for(args.p, args.s, args.t)
    payload = {
        "p": result.p, "s": result.s, "t": result.t,
        "f": result.f, "g": result.g,
        "prime": result.guaranteed, "guaranteed": result.guaranteed,
    }
    return payload, EXIT_OK


def _run_count(args):
    a = make_set(args.p, args.set_a)
    b = make_set(args.p, args.set_b)
    base = {"p": args.p, "set_a": list(a), "set_b": list(b)}
    if args.method == "all":
        results = {name: fn(a, b) for name, fn in COUNT_METHODS.items() if name != "auto"}
        agree = len(set(results.values())) == 1
        payload = {**base, "method": "all", "counts": results,
                   "count": next(iter(results.values())), "agree": agree}
        return payload, EXIT_OK if agree else EXIT_VERIFICATION
    payload = {**base, "method": args.method, "count": COUNT_METHODS[args.method](a, b)}
    return payload, EXIT_OK


def _run_construct(args):
    witness = construct(args.p, args.s, args.t, args.r)
    payload = {
        "p": witness.p, "s": witness.s, "t": witness.t,
        "target_r": witness.target_r, "achieved_r": witness.achieved_r,
        "witness_a": IntRuns(witness.a_set.runs()), "witness_b": IntRuns(witness.b_set.runs()),
        "selection": ValueCounts(witness.selection_segments),
    }
    return payload, EXIT_OK


def _run_spectrum(args):
    if args.mode == "multiset-dp":
        report = spectrum_multiset_dp(args.p, args.s, args.t)
    else:
        engine = spectrum_exhaustive if args.mode == "exhaustive" else spectrum_fixed_interval
        report = engine(args.p, args.s, args.t, want_witnesses=args.witnesses, budget=args.budget)
    return _spectrum_output(report, args.timing)


def _run_schur(args):
    report = schur_spectrum(args.p, args.s, want_witnesses=args.witnesses, budget=args.budget)
    return _spectrum_output(report, args.timing)


def scan_payload(result: ScanResult) -> dict:
    """The JSON payload of ``scan``, also written by ``scripts/scan_composites.py``."""
    return {
        "p_min": result.p_min, "p_max": result.p_max, "budget": result.budget,
        "instances_run": result.instances_run,
        "skipped": [list(item) for item in result.skipped],
        "records": [
            {"p": rec.p, "s": rec.s, "t": rec.t, "f": rec.f, "g": rec.g,
             "exceptions": list(rec.values), "witnesses": _witness_rows(rec.witnesses)}
            for rec in result.records
        ],
    }


def _run_scan(args):
    return scan_payload(exception_scan(args.p_min, args.p_max, budget=args.budget)), EXIT_OK


def _run_verify(args):
    report = verify.run_verification(args.p, args.trials, args.seed)
    moduli = []
    for summary in report.moduli:
        failures = [
            {"trial": v.trial, "check": v.check, "detail": v.detail,
             "set_a": list(v.set_a), "set_b": list(v.set_b)}
            for v in summary.violations
        ]
        moduli.append({
            "p": summary.p, "prime": summary.prime, "trials": summary.trials,
            "checks": summary.checks, "skipped_checks": list(summary.skipped),
            "failures": failures,
        })
    payload = {"seed": report.seed, "trials": report.trials, "ok": report.ok, "moduli": moduli}
    return payload, EXIT_OK if report.ok else EXIT_VERIFICATION


# The CSV rows of each command, derived from its JSON payload alone; main
# builds them only for --format csv.

def _bounds_rows(payload: dict) -> list[dict]:
    return [payload]


def _count_rows(payload: dict) -> list[dict]:
    counts = payload.get("counts", {payload["method"]: payload["count"]})  # one row per method
    return [{"p": payload["p"], "method": name, "count": value} for name, value in counts.items()]


def _construct_rows(payload: dict) -> list[dict]:
    row = {key: payload[key] for key in ("p", "s", "t", "target_r", "achieved_r")}
    row["witness_a"] = _joined(payload["witness_a"], " ")
    row["witness_b"] = _joined(payload["witness_b"], " ")
    return [row]


def _spectrum_rows(payload: dict) -> list[dict]:
    return [_csv_row(payload)]


def _scan_rows(payload: dict) -> list[dict]:
    return [_csv_row(record) for record in payload["records"]]


def _verify_rows(payload: dict) -> list[dict]:
    return [
        {"p": m["p"], "prime": m["prime"], "trials": m["trials"], "violations": len(m["failures"])}
        for m in payload["moduli"]
    ]


_COMMANDS = {  # command -> (runner returning (payload, exit code), CSV rows of the payload)
    "bounds": (_run_bounds, _bounds_rows),
    "count": (_run_count, _count_rows),
    "construct": (_run_construct, _construct_rows),
    "spectrum": (_run_spectrum, _spectrum_rows),
    "schur": (_run_schur, _spectrum_rows),
    "scan": (_run_scan, _scan_rows),
    "verify": (_run_verify, _verify_rows),
}


class ValueCounts:
    """A value -> count listing held as descending segments (high, low, count): the
    values high, high - 1, ..., low, each with ``count`` copies (``construct``'s
    selection). :func:`render_json` writes it as the [value, count] rows of its
    values, largest first, with no object per value."""

    __slots__ = ("segments",)

    def __init__(self, segments) -> None:
        self.segments = tuple(segments)


def render_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte, with every
    :class:`IntRuns` in ``payload`` written as the list of its ints and every
    :class:`ValueCounts` as the list of its [value, count] rows: the one join
    of the pieces :func:`_render` lists for the whole payload, the trailing
    ``"\\n"`` last. :func:`main` writes the same pieces unjoined.

    ``json.dumps`` falls back to its pure-Python encoder whenever ``indent``
    is set. Here only the containers are walked in Python, each appending its
    brackets, separators and items to the one list, with no join of its own:
    strings go through json's own string encoder, ints through ``str``, other
    scalars through ``json.dumps``. An ``IntRuns`` (the runs a payload holds
    by construction: ``construct``'s witnesses, a spectrum's values) is
    written run by run in blocks of a thousand ints by :func:`_write_runs`,
    each block q >= 1 one ASCII slice of a byte template of its items with
    str(q) stamped in, with no int object or string per item. A
    :class:`ValueCounts` (``construct``'s selection) is written as the list
    of its [value, count] rows segment by segment: a one-value segment as
    one row, a longer one by the block writer, going down, with the rows'
    text between its values as the separator. A list of plain ints is one
    piece, by one ``%`` format: a template with one ``%d`` per item and the
    indented separators between them, applied to the tuple of the items. A
    list of lists of n >= 1 plain ints each (the ``skipped`` triples of
    ``scan``) joins one row template per row and applies ``%`` once to all
    the ints; rows of mixed lengths are walked item by item. ``'%d' % x`` is
    ``str(x)`` for an exact int, and raises the same ``ValueError`` past the
    int -> str digit limit, as the block writer does. Dict keys must be strings, as in every payload the
    CLI builds.
    """
    return "".join(_render(payload, "\n"))


_quote = json.encoder.encode_basestring_ascii  # the string writer json.dumps uses


def _int_template(n: int, inner: str, pad: str) -> str:
    """The ``%`` template of an indented list of n >= 1 ints, one ``%d`` per item."""
    return "[" + inner + "%d" + ("," + inner + "%d") * (n - 1) + pad + "]"


def _render(value, pad: str, out: list[str] | None = None) -> list[str]:
    # Appends the JSON text of ``value`` to ``out`` and returns ``out``; with no ``out``, a
    # new list of the pieces of the whole output ``value``, then its trailing "\n". ``pad``
    # is a newline plus the indent of the line that holds ``value``; exact types, so bools
    # (ints too) and other subclasses go to json.dumps. A container writes ``head``
    # before each item: its opening bracket and ``inner`` first, then "," + inner.
    if out is None:
        return _render(value, pad, []) + ["\n"]
    inner = pad + "  "
    if type(value) is int:
        out.append(str(value))
    elif type(value) is str:
        out.append(_quote(value))
    elif isinstance(value, dict):
        head = "{" + inner
        for key, item in sorted(value.items()):
            out.append(head + _quote(key) + ": ")
            _render(item, inner, out)
            head = "," + inner
        out.append(pad + "}" if value else "{}")
    elif not value and isinstance(value, (list, tuple, IntRuns)):
        out.append("[]")
    elif isinstance(value, (list, tuple)):
        if operator.countOf(map(type, value), int) == len(value):
            # '%d' of an exact int is its str; pads hold no '%', keys never reach a template
            out.append(_int_template(len(value), inner, pad) % tuple(value))
        elif ((n := len(value[0]) if type(value[0]) is list else 0)
                and operator.countOf(map(type, value), list) == len(value)
                and operator.countOf(map(len, value), n) == len(value)
                and operator.countOf(map(type, chain.from_iterable(value)), int) == n * len(value)):
            # rows of n >= 1 exact ints each, as every int-row payload has: one row template
            body = ("," + inner).join([_int_template(n, inner + "  ", inner)] * len(value))
            out.append(("[" + inner + body + pad + "]") % tuple(chain.from_iterable(value)))
        else:
            head = "[" + inner
            for item in value:
                out.append(head)
                _render(item, inner, out)
                head = "," + inner
            out.append(pad + "]")
    elif type(value) is IntRuns:
        out.append("[" + inner)
        _write_runs(value.runs, "," + inner, out)
        out.append(pad + "]")
    elif type(value) is ValueCounts:
        # Each row is "," + inner + "[" + item + value + "," + item + count + inner + "]",
        # the first with "[" for its ",". In a segment of two or more values the text
        # between two values is the same throughout, so the block writer writes the
        # values going down with it as the separator. It holds the count, which is 2
        # in every such segment construct makes, so the block cache sees one separator
        # per indent.
        item = inner + "  "
        head, opened = "[" + inner + "[" + item, "," + inner + "[" + item
        closed = "," + item + "%d" + inner + "]"
        for high, low, count in value.segments:
            if high == low:
                out.append(head + str(high) + closed % count)
            else:
                out.append(head)
                _write_runs(((low, high + 1),), closed % count + opened, out, descending=True)
                out.append(closed % count)
            head = opened
        out.append(pad + "]" if value.segments else "[]")
    else:
        out.append(json.dumps(value))
    return out


@functools.lru_cache(maxsize=4)  # the CLI writes runs with four: see _write_runs
def _int_blocks(sep: str, descending: bool) -> tuple[str, tuple[int, ...]]:
    """Block 0 of the block writer for one separator and direction, built on its first
    use: the text of the ints 0, 1, ..., 999, each followed by ``sep``, and where each
    int's text starts in it, with its length last. Going down, the ints are in the
    reverse order, from 999 to 0."""
    order = range(999, -1, -1) if descending else range(1000)
    head = [f"{k}{sep}" for k in order]
    return "".join(head), tuple(accumulate(map(len, head), initial=0))


# one column of a block's items, for each digit of str(q): see _write_runs
_DIGIT_COLUMNS = {digit: digit.encode() * 1000 for digit in "0123456789"}


@functools.lru_cache(maxsize=32)  # four separators, str(q) of 1 to 7 digits for p < 2^31
def _block_template(sep: str, descending: bool, width: int) -> bytes:
    """The ASCII bytes of the thousand items of a block q >= 1 whose str(q) has
    ``width`` digits, built on its first use for one separator and direction: each
    item is ``width`` zeros, then k in three digits, then ``sep``, for k = 0..999,
    or 999..0 going down. Items are ``width + 3 + len(sep)`` bytes apart."""
    order = range(999, -1, -1) if descending else range(1000)
    return b"".join(b"%s%03d%s" % (b"0" * width, k, sep.encode("ascii")) for k in order)


def _write_runs(runs, sep: str, out: list[str], descending: bool = False) -> None:
    """Append to ``out`` the text of the ints of the half-open ``runs``, joined by ``sep``,
    each run going up, or going down from its last int when ``descending``.

    The ints go in blocks of a thousand. Block q >= 1 holds 1000q + k for
    0 <= k < 1000, whose text is str(q) then k in three digits. Each call
    copies the block template of each width of str(q) it meets
    (:func:`_block_template`) and, when q is not the block last stamped
    there, stamps str(q) into the copy's first columns, one strided slice
    assignment per digit; items i..j-1 of the block are then one slice of
    the copy, decoded as ASCII, each item followed by ``sep``.
    Block 0 is one slice of the cached text of 0..999. Going down, the same
    holds with the items in reverse order. A run costs O(its blocks) Python
    steps plus copying its text, with no int object or string per item, and
    no call shares a mutable buffer with another. Runs are nonempty,
    nonnegative and disjoint, and ``sep`` is ASCII. The CLI's separators
    are the witnesses' and a spectrum's ",\\n    ", the CSV's " " and ";",
    and the one between the rows of ``construct``'s selection, going down.
    """
    head, starts = _int_blocks(sep, descending)
    stamps: dict[int, list] = {}  # width -> [this call's copy of its template, the q in it]
    written = len(out)
    for start, stop in runs:
        str(stop - 1)  # the largest item: ValueError past the digit limit, as json.dumps
        first, last = start // 1000, (stop - 1) // 1000
        for q in range(last, first - 1, -1) if descending else range(first, last + 1):
            i, j = max(start - 1000 * q, 0), min(stop - 1000 * q, 1000)  # its items i..j-1
            if descending:  # their places among the block's items in reverse order
                i, j = 1000 - j, 1000 - i
            if not q:
                out.append(head[starts[i]:starts[j]])
                continue
            high = str(q)
            width = len(high)
            size = width + 3 + len(sep)  # bytes per item
            stamp = stamps.get(width)
            if stamp is None:
                stamp = stamps[width] = [bytearray(_block_template(sep, descending, width)), 0]
            block = stamp[0]
            if stamp[1] != q:
                for column, digit in enumerate(high):
                    block[column::size] = _DIGIT_COLUMNS[digit]
                stamp[1] = q
            out.append((block if j - i == 1000 else block[i * size:j * size]).decode("ascii"))
    if len(out) > written:  # no separator after the last int
        out[-1] = out[-1][:len(out[-1]) - len(sep)]


def _joined(values, sep: str) -> str:
    """The ints of ``values`` joined by ``sep``; an :class:`IntRuns` by :func:`_write_runs`."""
    if type(values) is IntRuns:
        out: list[str] = []
        _write_runs(values.runs, sep, out)
        return "".join(out)
    return sep.join(map(str, values))


def render_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    import csv  # imported here, so that a JSON call's start-up does not pay for it

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


_parser: _Parser | None = None


def _parse(argv: list[str] | None) -> tuple[argparse.Namespace, list[str]]:
    """``_parser.parse_known_args(argv)``, read off an option table when argv is well-formed.

    When argv[0] names a command and the rest is well-formed for it (see
    :meth:`_OptionTable.parse`), argparse would give the namespace that the
    command's table gives in one pass, with no extras. Any other argv (none,
    help, an unknown or abbreviated option, ``--opt=value``, a repeated
    option, a value starting with '-', ``--``, a stray argument, a bad value,
    a missing required option) goes to the top-level parser, so its usage,
    help and errors are its own.
    """
    global _parser
    if _parser is None:  # built on first use, then shared by every call in the process
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    table = _parser.commands.get(argv[0]) if argv else None
    args = table.parse(argv) if table is not None else None
    return (args, []) if args is not None else _parser.parse_known_args(argv)


def _write(stream, pieces: list[str]) -> None:
    """Write the strings ``pieces`` to the text stream ``stream`` in order, then flush it.

    Unbuffered (``python -u``, ``PYTHONUNBUFFERED``), ``sys.stdout`` sits on
    a raw stream, each write is one write() of its descriptor, and the text
    layer drops the count it returns: a write cut short (by Linux's cap of
    0x7ffff000 bytes, a reader that closes the pipe part-way, a full disk)
    would end with no error. So over a raw stream the pieces go, encoded,
    through an ``io.BufferedWriter``, which gathers them into few writes
    and writes until the counts add up; it is detached at the end, or after
    a failed write left to close the raw stream. Any other stream, buffered
    or with no ``buffer`` (such as ``io.StringIO``), takes the pieces through
    ``writelines``: a buffered one checks its counts itself, and the flush
    brings its write errors here, so the caller reports them.
    """
    raw = getattr(stream, "buffer", None)
    if raw is None or not isinstance(raw, io.RawIOBase):  # None skips the slower ABC check
        stream.writelines(pieces)
        stream.flush()
        return
    stream.flush()  # anything the text layer holds goes first
    buffered = io.BufferedWriter(raw)
    buffered.writelines(piece.encode(stream.encoding, stream.errors) for piece in pieces)
    buffered.detach()  # flushes it, and leaves the raw stream open


def _write_failed(output: str | None, exc: OSError) -> int:
    """Report a failed write of the output in one line, and return exit code 1."""
    _warn(f"addtriples: cannot write {output or 'stdout'}: {exc.strerror or exc}\n")
    if not output:
        _discard(sys.stdout)
    return EXIT_USAGE


def _warn(text: str) -> None:
    """Write ``text`` to stderr and flush it; if that fails, discard stderr.

    Every stderr line of :func:`main` goes through here, so stderr on a full
    device or a closed pipe loses the message but keeps the exit code the
    documented one.
    """
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        _discard(sys.stderr)


def _discard(stream) -> None:
    """Point the descriptor of ``stream`` (stdout or stderr) at os.devnull, after a
    write to it failed.

    A buffered stream keeps the bytes it could not write, and the interpreter
    flushes it at exit, which would fail again, print "Exception ignored" and
    exit 120. This is the remedy Python's ``signal`` docs give for a closed
    pipe. A stream with no descriptor, such as ``io.StringIO``, is left alone.
    """
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        args, extras = _parse(argv)
        if extras:  # blame the subcommand, so its own usage line is printed
            args.command_parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:  # usage error or --help; keep main() total
        return int(exc.code or 0)
    except OSError as exc:  # --help to a stdout that fails
        return _write_failed(None, exc)
    run, csv_rows = _COMMANDS[args.command]
    try:
        payload, code = run(args)
    except BudgetExceededError as exc:
        _warn(f"addtriples: budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except DomainError as exc:
        _warn(f"addtriples: {exc}\n")
        return EXIT_USAGE
    except VerificationError as exc:
        _warn(f"addtriples: internal verification failure: {exc}\n")
        return EXIT_VERIFICATION
    # every piece is built before the first byte is written
    pieces = _render(payload, "\n") if args.format == "json" else [render_csv(csv_rows(payload))]
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                _write(handle, pieces)
        else:
            _write(sys.stdout, pieces)
    except OSError as exc:
        return _write_failed(args.output, exc)
    return code


if __name__ == "__main__":
    sys.exit(main())

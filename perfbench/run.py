"""Benchmark of the addtriples command line, driven in-process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Run from the repository root; ``all`` runs each workload in a process of its
own. One client calls ``addtriples.cli.main(argv)`` in a closed loop: each
call starts when the previous one has returned and its output has been
checked (the check is outside the timed region). A run makes whole blocks of
calls (see ``workloads.py``) and stops at the first block boundary after
``--seconds``. One process, one thread, numpy/BLAS pinned to one thread.

Call times are reported at a reference speed: between calls, at least every
0.1 s, the run times a fixed kernel of the benchmark's own (see
``reference.py``) and rescales each call's wall time by how much slower or
faster than nominal the kernel ran just before and just after it. The host
is shared, and its speed changes by up to half within seconds; the rescaled
times follow the program, not the neighbours. Wall-clock values are in the
record as ``wall_*``. ``setup_s`` is wall time, the median of fresh-process
set-ups spread over the run: the reference kernel does not track a fresh
process's speed well. ``peak_rss_mb`` includes one call at the
largest inputs of the workload's range, made after the timed calls.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with every public function of the seven layer
modules wrapped in a span (see ``tracer.py``), and prints the per-layer
metrics; the ratio of the two halves' throughput is the tracing overhead.
Metric names and units come from ``BENCHMARK.json``; ``perfbench/layers.json``
says which end-to-end metric each per-layer metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with machine facts and (when traced) every span, goes to ``.bench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import reference  # noqa: E402
from tracer import COUNTERS, LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailure,
    check,
    plant_wrong_answer,
    stream,
    corner_calls,
    warmup_call,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9  # fresh processes per run; the median is reported
# call_tail_ms is a fixed percentile per workload, so that it does not move up
# when a faster program fits more calls into a run. Each leaves at least ten
# calls beyond it in a 45 s run, except scan, whose run holds about eight calls
# and reports its slowest.
TAIL_PERCENTILE = {"scan": 100, "verify": 95, "interval": 95, "count": 90}
DIGEST_CALLS = 16  # leading calls of the stream covered by the argv digest
SERIES = ("functions", "latencies_s", "references_s", "reference_at")  # recorded, not printed

# Functions whose calls and share of self time the traced run reports.
NAMED_FUNCTIONS = (
    "spectrum.exception_scan", "spectrum.spectrum_exhaustive", "spectrum.spectrum_multiset_dp",
    "construction.construct", "construction.build_shift_profile",
    "construction.select_multisubset", "construction.realize_set",
    "counting.count_naive", "counting.count_shift", "counting.count_layers",
    "counting.count_convolution", "counting.layer_sizes", "counting.count_triples",
    "residues.make_set", "residues.from_elements", "residues.sumset", "residues.complement",
    "residues.interval_set",
    "bounds.cauchy_davenport_check", "bounds.lower_bound", "bounds.upper_bound",
    "verify.run_verification", "cli.main",
)

SETUP_CODE = """
import contextlib, io, json, sys, time
start = time.perf_counter()
from addtriples import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"seconds": time.perf_counter() - start, "code": code}))
"""


@dataclass
class Tally:
    """What one stretch of calls did."""

    latencies: list = field(default_factory=list)  # wall seconds
    ops: int = 0
    references: list = field(default_factory=list)  # reference.sample() seconds
    reference_at: list = field(default_factory=list)  # calls made before each sample
    next_reference: float = 0.0
    setup_times: list = field(default_factory=list)  # fresh-process set-up seconds
    failed: int = 0
    output_bytes: int = 0
    reasons: list = field(default_factory=list)
    planted: dict = field(default_factory=dict)  # call kind -> planted error was caught

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def rescaled(self) -> list:
        """Each call's seconds at the reference speed (see ``reference.py``)."""
        return reference.rescale(self.latencies, self.references, self.reference_at)

    @property
    def scale(self) -> float:
        """Reference seconds per wall second, over the whole stretch."""
        return sum(self.rescaled()) / self.busy if self.busy else 1.0

    @property
    def ops_per_s(self) -> float:
        busy = sum(self.rescaled())
        return self.ops / busy if busy else 0.0


def run_calls(cli, blocks, seconds, tracer=None, setup_argv=None) -> Tally:
    """Make the calls of whole blocks until ``seconds`` have passed (at least one block).

    With ``setup_argv``, also time SETUP_REPEATS fresh-process set-ups spread
    evenly over the stretch, between calls, so that their median meets the
    host in the states the calls met rather than in one moment's.
    """
    tally = Tally()
    start = time.perf_counter()
    deadline = start + seconds
    setups_due = [start + i * seconds / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    for call in itertools.chain.from_iterable(_blocks_until(blocks, deadline)):
        if setup_argv is not None and setups_due and time.perf_counter() >= setups_due[0]:
            setups_due.pop(0)
            tally.setup_times.append(measure_setup(setup_argv))
            tally.next_reference = 0.0  # sample again before the next call
        if time.perf_counter() >= tally.next_reference:
            _sample_reference(tally)
        _call(cli, call, tally, tracer)
    _sample_reference(tally)
    if setup_argv is not None:
        tally.setup_times.extend(measure_setup(setup_argv) for _ in setups_due)
    return tally


def _sample_reference(tally: Tally) -> None:
    tally.references.append(reference.sample())
    tally.reference_at.append(len(tally.latencies))
    tally.next_reference = time.perf_counter() + reference.REF_INTERVAL_S


def _call(cli, call, tally: Tally, tracer) -> None:
    """Make one call, time it and check its output into ``tally``."""
    if tracer is not None:
        tracer.call_id = len(tally.latencies)
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(call.argv))
        except Exception:  # a traceback is a failed call, not the end of the run
            traceback.print_exc()
        tally.latencies.append(time.perf_counter() - start)
    text = out.getvalue()
    tally.output_bytes += len(text)
    try:
        if code != 0:
            raise CheckFailure(f"exit code {code}: {err.getvalue().strip()[-300:]}")
        payload = json.loads(text)
        tally.ops += check(call, payload)
        if call.kind not in tally.planted:
            wrong = copy.deepcopy(payload)
            plant_wrong_answer(call.kind, wrong)
            try:
                check(call, wrong)
                tally.planted[call.kind] = False
            except CheckFailure:
                tally.planted[call.kind] = True
    except (CheckFailure, ValueError, KeyError, TypeError, IndexError) as exc:
        tally.failed += 1
        if len(tally.reasons) < 5:
            tally.reasons.append(f"{' '.join(call.argv)[:120]}: {exc!r}")


def _blocks_until(blocks, deadline: float):
    for block in blocks:
        yield block
        if time.perf_counter() >= deadline:
            return


def measure_setup(argv) -> float:
    """Seconds to import addtriples.cli and make one call, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, json.dumps(list(argv))],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    if record["code"] != 0:
        raise RuntimeError(f"set-up call exited {record['code']}: {proc.stderr[-300:]}")
    return record["seconds"]


def tail(latencies, percentile: float) -> tuple:
    """(value, calls beyond it): the given percentile of ``latencies``, by nearest rank."""
    xs = sorted(latencies)
    rank = math.ceil(percentile / 100 * len(xs))
    return xs[rank - 1], len(xs) - rank


def end_to_end(tally: Tally, percentile: float) -> tuple:
    """The end-to-end metrics and details; call times are at the reference speed."""
    rescaled = tally.rescaled()
    tail_value, beyond = tail(rescaled, percentile)
    metrics = {
        "ops_per_s": tally.ops_per_s,
        "call_p50_ms": 1e3 * statistics.median(rescaled),
        "call_tail_ms": 1e3 * tail_value,
        "setup_s": statistics.median(tally.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "calls": len(tally.latencies),
        "ops": tally.ops,
        "busy_s": tally.busy,
        "scale": tally.scale,
        "reference_samples": len(tally.references),
        "wall_ops_per_s": tally.ops / tally.busy if tally.busy else 0.0,
        "wall_call_p50_ms": 1e3 * statistics.median(tally.latencies),
        "wall_call_tail_ms": 1e3 * tail(tally.latencies, percentile)[0],
        "tail_percentile": percentile,
        "calls_beyond_tail": beyond,
        "fail_ratio": tally.failed / len(tally.latencies),
        "setup_samples_s": tally.setup_times,
        "latencies_s": tally.latencies,
        "references_s": tally.references,
        "reference_at": tally.reference_at,
    }
    return metrics, details


def per_layer(tracer, untraced: Tally, traced: Tally) -> tuple:
    times = tracer.self_times()
    root = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)

    def calls(name):
        return times.get(name, (0, 0.0))[0]

    def self_s(name):
        return times.get(name, (0, 0.0))[1]

    def layer_self(layer):
        return sum(rec[1] for name, rec in times.items() if name.startswith(layer + "."))

    counters = tracer.counters
    k = traced.scale  # absolute times below are at the reference speed
    metrics = {f"{layer}.self_pct": 100 * layer_self(layer) / root for layer in LAYERS}
    for name in NAMED_FUNCTIONS:
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_pct"] = 100 * self_s(name) / root
    metrics["cli.main.self_s"] = k * self_s("cli.main")
    metrics["residues.self_s"] = k * layer_self("residues")
    metrics["counting.self_s"] = k * layer_self("counting")
    pairs = counters["counting.pairs"]
    counter_self = sum(self_s(f"counting.{name}") for name in COUNTERS)
    metrics["counting.ns_per_pair"] = 1e9 * k * counter_self / pairs if pairs else 0.0
    metrics["counting.pairs"] = pairs

    spans = tracer.spans
    dispatched = sum(1 for name, *_, parent, _ in spans if name == "counting.count_convolution"
                     and parent >= 0 and spans[parent][0] == "counting.count_triples")
    auto = calls("counting.count_triples")
    metrics["counting.dispatch_convolution_ratio"] = dispatched / auto if auto else 0.0
    constructs = calls("construction.construct")
    builds = sum(1 for i, span in enumerate(spans) if span[0] == "construction.build_shift_profile"
                 and tracer.has_ancestor(i, "construction.construct"))
    metrics["construction.profile_builds_per_construct"] = builds / constructs if constructs else 0.0
    metrics["construction.profile_residues"] = counters["construction.profile_residues"]
    metrics["spectrum.pairs_enumerated"] = counters["spectrum.pairs_enumerated"]
    metrics["spectrum.table_cells"] = counters["spectrum.table_cells"]
    ran, skipped = counters["spectrum.scan_instances_run"], counters["spectrum.scan_instances_skipped"]
    metrics["spectrum.skip_ratio"] = skipped / (ran + skipped) if ran + skipped else 0.0
    metrics["residues.iter.elements"] = counters["residues.iter.elements"]
    metrics["verify.checks"] = counters["verify.checks"]
    metrics["cli.output_bytes"] = traced.output_bytes
    metrics["trace.spans"] = len(spans)
    metrics["trace.overhead_ratio"] = (untraced.ops_per_s / traced.ops_per_s
                                       if traced.ops_per_s else 0.0)

    exhaustive = k * self_s("spectrum.spectrum_exhaustive")
    details = {
        "traced_calls": len(traced.latencies),
        "untraced_ops_per_s": untraced.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "spectrum.ns_per_pair": 1e9 * exhaustive / metrics["spectrum.pairs_enumerated"]
        if metrics["spectrum.pairs_enumerated"] else None,
        "scale": k,
        "functions": {name: {"calls": rec[0], "self_s": k * rec[1]} for name, rec in sorted(times.items())},
    }
    return metrics, details


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def argv_digest(workload: str, seed: int) -> str:
    calls = itertools.chain.from_iterable(stream(workload, seed))
    digest = hashlib.sha256()
    for call in itertools.islice(calls, DIGEST_CALLS):
        digest.update(json.dumps(call.argv).encode())
    return digest.hexdigest()[:16]


def machine_facts(workload: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "argv_digest": argv_digest(workload, seed),
    }


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from addtriples import cli

    warm = run_calls(cli, [[warmup_call(workload)]], 0)
    if trace:
        untraced = run_calls(cli, stream(workload, seed), seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_calls(cli, stream(workload, seed), seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tallies = [warm, untraced, traced]
        metrics, details = per_layer(tracer, untraced, traced)
        names = spec()["per_layer"]
    else:
        setup_argv = warmup_call(workload).argv
        measure_setup(setup_argv)  # untimed: the first process may still write bytecode caches
        measured = run_calls(cli, stream(workload, seed), seconds, setup_argv=setup_argv)
        corner = run_calls(cli, [corner_calls(workload)], 0)
        tallies = [warm, measured, corner]
        metrics, details = end_to_end(measured, TAIL_PERCENTILE[workload])
        names = spec()["end_to_end"]
        tracer = None

    planted = {}
    for tally in tallies:
        planted.update(tally.planted)
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": failed == 0 and all(planted.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    record = {
        "facts": machine_facts(workload, seed),
        "result": result,
        "details": details,
        "planted_wrong_answer_caught": planted,
        "failures": [r for t in tallies for r in t.reasons],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call"], "spans": tracer.spans}, fh)
    return record


def report(record: dict) -> None:
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    details = record["details"]
    for name, value in details.items():
        if name not in SERIES:
            print(f"{name:<48} {value}")
    for name, rec in details.get("functions", {}).items():
        print(f"{name + '.self_s':<48} {rec['self_s']:>16.6g} s  ({rec['calls']} calls)")
    if not all(record["planted_wrong_answer_caught"].values()):
        print(f"planted wrong answer not caught: {record['planted_wrong_answer_caught']}")
    for reason in record["failures"]:
        print(f"failed: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "addtriples" / "cli.py").is_file():
        print(f"perfbench: no addtriples sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", workload,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for workload in WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(SRC))
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

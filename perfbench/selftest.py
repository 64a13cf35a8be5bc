"""Self-tests of the benchmark itself: tracer, output checks and metric names.

    python3 perfbench/selftest.py

Run from the repository root; exits non-zero on the first failed check.
It makes one short traced stretch of calls per workload (about 20 s in all).
"""

import contextlib
import io
import itertools
import json
import random
import sys
import time

import reference
import run
from tracer import Tracer
import workloads
from workloads import WORKLOADS, plant_wrong_answer, stream

KIND_OF_COMMAND = {"scan": "scan", "verify": "verify", "construct": "construct",
                   "spectrum": "dp", "count": "count"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_spans(tracer: Tracer, wall: float) -> None:
    spans = tracer.spans
    expect(spans, "no spans recorded")
    for name, start, end, parent, call in spans:
        expect(start <= end, f"{name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _, p_call = spans[parent]
            expect(p_start <= start and end <= p_end, f"{name} lies outside its parent {p_name}")
            expect(call == p_call, f"{name} and its parent {p_name} name different calls")
    total_self = sum(rec[1] for rec in tracer.self_times().values())
    expect(total_self <= wall, f"self times sum to {total_self} s, more than the wall {wall} s")
    expect(all(rec[1] >= -1e-9 for rec in tracer.self_times().values()), "negative self time")


def check_uninstalled(cli) -> None:
    from addtriples import counting, residues

    expect(not hasattr(cli.main, "__wrapped__"), "cli.main still wrapped")
    expect(cli.COUNT_METHODS["auto"] is counting.count_triples, "COUNT_METHODS not restored")
    expect(not hasattr(counting.count_triples, "__wrapped__"), "count_triples still wrapped")
    expect(residues.ResidueSet.__iter__.__name__ == "__iter__", "ResidueSet.__iter__ not restored")


def test_tracer_and_layers(cli, spec: dict, layers: dict) -> None:
    for workload in WORKLOADS:
        untraced = run.run_calls(cli, stream(workload, 1), 0.5)
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            traced = run.run_calls(cli, stream(workload, 1), 0.5, tracer)
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - start
        check_uninstalled(cli)
        expect(traced.failed == 0 and untraced.failed == 0, f"{workload}: {traced.reasons}")
        expect(all(traced.planted.values()), f"{workload}: planted error passed {traced.planted}")
        check_spans(tracer, wall)
        seen = {span[0].split(".")[0] for span in tracer.spans}
        wanted = set(layers["workloads"][workload]["layers"])
        expect(wanted <= seen, f"{workload}: no spans in {sorted(wanted - seen)}")
        metrics, _ = run.per_layer(tracer, untraced, traced)
        names = {m["name"] for m in spec["per_layer"]}
        expect(set(metrics) == names, f"per-layer names differ: {set(metrics) ^ names}")
        print(f"ok   tracer on {workload}: {len(tracer.spans)} spans, layers {sorted(seen)}")


def test_planted_answers_count_as_failures(cli) -> None:
    real_main = cli.main

    def corrupting_main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real_main(argv)
        payload = json.loads(out.getvalue())
        plant_wrong_answer(KIND_OF_COMMAND[argv[0]], payload)
        sys.stdout.write(json.dumps(payload))
        return code

    cli.main = corrupting_main
    try:
        for workload in WORKLOADS:
            tally = run.run_calls(cli, stream(workload, 2), 0.3)
            expect(tally.failed == len(tally.latencies) and tally.ops == 0,
                   f"{workload}: {tally.failed} of {len(tally.latencies)} planted answers caught")
            print(f"ok   planted wrong answers on {workload}: {tally.failed} failed calls")
    finally:
        cli.main = real_main


def test_names(spec: dict, layers: dict) -> None:
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "workload names")
    expect(set(layers["workloads"]) == set(WORKLOADS), "layers.json workloads")
    tally = run.Tally(latencies=[0.1] * 12, ops=12, references=[reference.NOMINAL_S] * 2,
                      reference_at=[0, 12], setup_times=[0.2])
    metrics, _ = run.end_to_end(tally, 95)
    names = {m["name"] for m in spec["end_to_end"]}
    expect(set(metrics) == names, f"end-to-end names differ: {set(metrics) ^ names}")
    expect(run.tail([float(i) for i in range(200, 0, -1)], 95) == (190.0, 10), "p95 of 1..200")
    expect(run.tail([3.0, 1.0, 2.0], 100) == (3.0, 0), "p100 is the slowest call")
    expect(set(run.TAIL_PERCENTILE) == set(WORKLOADS), "a tail percentile for every workload")
    cited = {n for move in layers["moves"] for n in move["per_layer"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect(cited <= per_layer, f"layers.json cites unknown metrics {cited - per_layer}")
    moved = {n for move in layers["moves"] for n in move["end_to_end"]}
    expect(moved <= names, f"layers.json cites unknown end-to-end metrics {moved - names}")
    print("ok   metric and workload names agree with BENCHMARK.json")


def test_designs() -> None:
    g = workloads.GROUP
    pairs = workloads._designs(random.Random(7), 3)
    for points in itertools.islice(pairs, 4):  # two mirrored pairs
        expect(len(points) == g * g and all(0 <= x < 1 for pt in points for x in pt), "range")
        for d in range(3):
            expect(len({int(pt[d] * g * g) for pt in points}) == g * g, "a fine stratum twice")
            for e in range(d + 1, 3):
                cells = {(int(pt[d] * g), int(pt[e] * g)) for pt in points}
                expect(len(cells) == g * g, f"coarse strata of coordinates {d}, {e} unbalanced")
        for j in range(0, g * g, g):
            for d in range(3):
                expect(len({int(pt[d] * g) for pt in points[j : j + g]}) == g, "group strata")
    for workload in WORKLOADS:
        first, again = (list(itertools.islice(itertools.chain.from_iterable(stream(workload, 3)), 130))
                        for _ in range(2))
        expect([c.argv for c in first] == [c.argv for c in again], f"{workload}: seed not repeatable")
    print("ok   designs are balanced and streams repeat for a seed")


def test_rescale() -> None:
    nominal = reference.NOMINAL_S
    same = reference.rescale([0.5, 0.25], [nominal, nominal], [0, 2])
    expect(same == [0.5, 0.25], f"nominal samples change times: {same}")
    slow = reference.rescale([1.0, 1.0, 1.0], [nominal, 3 * nominal, 2 * nominal], [0, 1, 3])
    expect(slow == [0.5, 0.4, 0.4], f"rescaled by the samples around each call: {slow}")
    print("ok   call times rescale by the reference samples around them")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from addtriples import cli

    spec = run.spec()
    layers = json.loads((run.ROOT / "perfbench" / "layers.json").read_text())
    test_names(spec, layers)
    test_designs()
    test_rescale()
    test_planted_answers_count_as_failures(cli)
    test_tracer_and_layers(cli, spec, layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Budgeted exception hunt over composite odd moduli.

For prime p the spectrum of r(A, B, B) is exactly [f, g]; for composite odd
p that can fail, and nothing in the closed forms says where. This sweep runs
the exhaustive spectrum for every (s, t) that fits the per-instance pair
budget and reports all values found outside [f, g], each re-verified against
the naive count on its witness before being reported.
"""

import argparse
import sys
import time

from addtriples.cli import render_json, scan_payload
from addtriples.spectrum import exception_scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p-min", type=int, default=9)
    parser.add_argument("--p-max", type=int, default=15)
    parser.add_argument("--budget", type=int, default=2 * 10**6,
                        help="max enumeration cost per (p, s, t) instance")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also dump the full records to this path")
    args = parser.parse_args()

    started = time.perf_counter()
    result = exception_scan(args.p_min, args.p_max, budget=args.budget)
    elapsed = time.perf_counter() - started

    print(f"scanned composite odd moduli in [{args.p_min}, {args.p_max}], "
          f"budget {args.budget} per instance")
    print(f"instances run: {result.instances_run}, skipped over budget: {len(result.skipped)}, "
          f"elapsed {elapsed:.1f}s")
    if not result.records:
        print("no out-of-interval values found")
    by_p: dict[int, int] = {}
    for record in result.records:
        by_p[record.p] = by_p.get(record.p, 0) + 1
    for p, hits in sorted(by_p.items()):
        print(f"  p={p}: {hits} instances with exceptional values")
    print()
    for record in result.records:
        for value, (a, b) in sorted(record.witnesses.items()):
            side = "below f" if value < record.f else "above g"
            print(f"  p={record.p} s={record.s} t={record.t} [f,g]=[{record.f},{record.g}] "
                  f"r={value} ({side})  A={list(a)} B={list(b)}")

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(render_json(scan_payload(result)))
        print(f"\nfull records written to {args.json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

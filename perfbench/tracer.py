"""In-memory span tracer wrapped around the public functions of addtriples.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces every
public module-level function of the seven layer modules (and the public
ResidueSet methods) with a wrapper that records a span, in every namespace
that holds a reference to the original. That includes names re-bound by
``from ... import`` (``cli.construct``, ``spectrum.build_shift_profile``, ...),
class attributes such as ``ResidueSet.__add__`` and module-level dispatch
tables such as ``cli.COUNT_METHODS``. :meth:`Tracer.uninstall` puts the
originals back.

A span is ``[name, start, end, parent index or -1, call id]``; the call id
names the CLI call that caused it. Self time is a span's duration minus the
durations of its direct children, which never overlap in one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from math import comb

PACKAGE = "addtriples"
LAYERS = ("residues", "counting", "bounds", "construction", "spectrum", "verify", "cli")
SET_METHODS = ("from_elements", "elements", "complement", "shift", "intersection_size", "sumset")
COUNTERS = ("count_naive", "count_shift", "count_layers", "count_convolution")


def _on_exhaustive(counters, args, kwargs, report):
    p, s, t = report.p, report.s, report.t
    counters["spectrum.pairs_enumerated"] += comb(p, s) * comb(p, t)
    counters["spectrum.table_cells"] += comb(p, t) * p


def _on_scan(counters, args, kwargs, result):
    counters["spectrum.scan_instances_run"] += result.instances_run
    counters["spectrum.scan_instances_skipped"] += len(result.skipped)


def _on_profile(counters, args, kwargs, profile):
    counters["construction.profile_residues"] += profile.p


def _on_counter(counters, args, kwargs, result):
    a_set, b_set = args[:2]
    counters["counting.pairs"] += len(a_set) * len(b_set)


def _on_verification(counters, args, kwargs, report):
    counters["verify.checks"] += sum(sum(m.checks.values()) for m in report.moduli)


# Work counts recorded at the boundary of the function that does the work.
HOOKS = {
    "spectrum.spectrum_exhaustive": _on_exhaustive,
    "spectrum.exception_scan": _on_scan,
    "construction.build_shift_profile": _on_profile,
    "verify.run_verification": _on_verification,
    **{f"counting.{name}": _on_counter for name in COUNTERS},
}


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def _originals(self) -> dict:
        """Original function -> wrapper, for every traced function."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        residue_set = importlib.import_module(f"{PACKAGE}.residues").ResidueSet
        for name in SET_METHODS:
            raw = residue_set.__dict__[name]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrappers[fn] = self._wrap(f"residues.{name}", fn)
        return wrappers

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = self._originals()

        def swap(obj, key, value, setter):
            if inspect.isfunction(value) and value in wrappers:
                setter(obj, key, wrappers[value])
                self._undo.append((setter, obj, key, value))
            elif isinstance(value, classmethod) and value.__func__ in wrappers:
                setter(obj, key, classmethod(wrappers[value.__func__]))
                self._undo.append((setter, obj, key, value))

        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for key, value in list(vars(module).items()):
                swap(module, key, value, setattr)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        swap(value, k, v, dict.__setitem__)
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for k, v in list(vars(value).items()):
                        swap(value, k, v, setattr)

        residue_set = importlib.import_module(f"{PACKAGE}.residues").ResidueSet
        plain_iter = residue_set.__iter__
        counters = self.counters

        def counted_iter(self_):
            # __iter__ is a generator, so it gets a count but no span
            counters["residues.iter.elements"] += self_.cardinality
            return plain_iter(self_)

        residue_set.__iter__ = counted_iter
        self._undo.append((setattr, residue_set, "__iter__", plain_iter))

    def uninstall(self) -> None:
        while self._undo:
            setter, obj, key, original = self._undo.pop()
            setter(obj, key, original)

    def self_times(self) -> dict[str, list]:
        """Function name -> [calls, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += (end - start) - child[i]
        return dict(out)

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

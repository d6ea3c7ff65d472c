"""Spans around calls into psqlab's functions, recorded from outside the package.

`install` replaces every binding of each target function in every loaded
``psqlab`` module (``cli`` imports names directly and ``representations``
re-imports ``wtrick.delta_table``, so wrapping one module is not enough) with
a wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory; the worker hands them to the runner when its op ends.

A span's self time is its duration minus the part of its interval that its
direct child spans cover.  With integer nanoseconds and properly nested
calls, the self times of all spans of an op sum exactly to the root span.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from typing import NamedTuple, Optional

ROOT_SPAN = "cli.handler"


# psqlab passes these arguments positionally at every call site.
def _sieve_limit(args):
    return args[0]


def _conv_points(args):
    # Same transform length as representations._fft_convolve_guarded(a, b, limit).
    return 1 << (len(args[0]) + len(args[1]) - 2).bit_length()


def _grid_points(args):
    # grid_transform(values, N, K, one_indexed): the FFT has K * N points.
    return args[1] * args[2]


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# span name -> (module under psqlab, attribute, quantity taken before the call)
TARGETS = {
    "primes.sieve": ("primes", "sieve", _sieve_limit),
    "primes.subset_members": ("primes", "subset_members", None),
    "wtrick.build_context": ("wtrick", "build_context", None),
    "wtrick.nu_sequence": ("wtrick", "nu_sequence", None),
    "wtrick.f_sequence": ("wtrick", "f_sequence", None),
    "wtrick.delta_table": ("wtrick", "delta_table", None),
    "wtrick.select_residues": ("wtrick", "select_residues", None),
    "representations.count_representations": ("representations", "count_representations", None),
    "representations.conv_fft": ("representations", "_fft_convolve_guarded", _conv_points),
    "representations.conv_split": ("representations", "_split_convolve_exact", None),
    "representations.find_witness": ("representations", "find_witness", None),
    "representations.transfer_witness": ("representations", "transfer_witness", None),
    "representations.meet_in_middle": ("representations", "_meet_in_middle", None),
    "expsums.compare_major": ("expsums", "compare_major", None),
    "expsums.dft_at": ("expsums", "dft_at", None),
    "expsums.dft_grid": ("expsums", "dft_grid", None),
    "expsums.minor_arc_scan": ("expsums", "minor_arc_scan", None),
    "expsums.indicator_transform_grid": ("expsums", "indicator_transform_grid", None),
    "expsums.s_direct": ("expsums", "s_direct", None),
    "expsums.s_closed": ("expsums", "s_closed", None),
    "expsums.gauss_sum_row": ("expsums", "gauss_sum_row", None),
    "arith.factorize": ("arith", "factorize", None),
    "sumsets.exhaustive_lemma_check": ("sumsets", "exhaustive_lemma_check", None),
    "sumsets.verify_cover": ("sumsets", "verify_cover", None),
    "gridfft.grid_transform": ("_gridfft", "grid_transform", _grid_points),
    "restriction.fourth_moment_routes": ("restriction", "fourth_moment_routes", None),
    "restriction.lq_moment": ("restriction", "lq_moment", None),
    "restriction.level_sets": ("restriction", "level_sets", None),
    "cli.emit": ("cli", "_emit", None),
}
# Spans whose quantity is the rise in peak RSS (MB) while they run.
RSS_SPANS = {"representations.meet_in_middle"}
# Every to_csv(path, ...) method of a psqlab class is wrapped under this name;
# its quantity is the size in bytes of the file it wrote.
CSV_SPAN = "cli.csv"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]  # index of the parent span in the same list
    op: str
    quantity: Optional[float]


class Tracer:
    """Collects spans in memory.

    One stack of open spans gives each span its parent: psqlab runs on one
    thread at its default --threads, which the benchmark never changes.
    """

    def __init__(self, op: str):
        self.op = op
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, before=None):
        stack = self._open
        record = [name, 0, 0, stack[-1] if stack else None, self.op, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        if before is not None:
            record[5] = before(args)
        rss0 = _rss_mb() if name in RSS_SPANS else None
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()
            if rss0 is not None:
                record[5] = _rss_mb() - rss0
            elif name == CSV_SPAN:
                path = args[1]
                record[5] = os.path.getsize(path) if os.path.exists(path) else 0

    def wrap(self, name, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before)

        return traced

    def finished(self) -> list[Span]:
        return [Span(*record) for record in self.spans]


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding of every target in the loaded psqlab modules.

    Returns the names of targets the package no longer has; their metrics
    are reported as absent rather than failing the run.
    """
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "psqlab" or name.startswith("psqlab."))
    ]
    absent = []
    for name, (module, attr, before) in TARGETS.items():
        fn = getattr(sys.modules.get(f"psqlab.{module}"), attr, None)
        if fn is None:
            absent.append(name)
            continue
        traced = tracer.wrap(name, fn, before)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
    classes = {
        value
        for mod in modules
        for value in vars(mod).values()
        if isinstance(value, type)
        and value.__module__.startswith("psqlab")
        and "to_csv" in vars(value)
    }
    for cls in classes:
        cls.to_csv = tracer.wrap(CSV_SPAN, vars(cls)["to_csv"])
    return absent


def self_times(spans: list[Span]) -> list[int]:
    """Self time in ns of each span: duration minus the union of its children."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start_ns, span.end_ns))
    out = []
    for span, kids in zip(spans, children):
        covered = 0
        reach = span.start_ns
        for start, end in sorted(kids):
            start = max(start, reach)
            end = min(end, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end_ns - span.start_ns - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time (s) and summed quantity."""
    totals: dict[str, dict[str, float]] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "quantity": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_ns / 1e9
        if span.quantity is not None:
            entry["quantity"] += span.quantity
    return totals

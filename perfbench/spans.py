"""Per-layer spans recorded from outside the slce package.

`install` replaces each traced function at the place its callers look it
up (a module global, or a class attribute for `Gf2Poly.divides`) with a
wrapper that records one span per call: name, start, end, the span that
was open when it started, and `ru_maxrss` at both ends.  Arguments and
results pass through unchanged.  Spans stay in memory; `aggregate` turns
them into per-name calls, self time and self RSS growth when the run ends.

A name that no longer exists in the package is skipped, and reported with
calls = 0, so that refactors of the package do not break the trace.
"""

from __future__ import annotations

import functools
import importlib
import math
import resource
import time

# (span name, module, attribute) -- the attribute is where callers look it up
TARGETS = (
    ("cli.main", "slce.cli", "main"),
    ("fields.build_field", "slce.cli", "build_field"),
    ("sequences.generate", "slce.sequences", "generate"),
    ("gf2poly.poly_from_seq", "slce.gf2poly", "poly_from_seq"),
    ("gf2poly.gcd", "slce.gf2poly", "gcd"),
    ("gf2poly.factor", "slce.gf2poly", "factor"),
    ("gf2poly.factor_squarefree", "slce.cyclotomic", "factor_squarefree"),
    ("gf2poly.divides", "slce.gf2poly", "Gf2Poly.divides"),
    ("cyclotomic.cyclotomic_poly", "slce.cyclotomic", "cyclotomic_poly"),
    ("cyclotomic.ideal_factors", "slce.cyclotomic", "ideal_factors"),
    ("cyclotomic.jacobi_K", "slce.cyclotomic", "jacobi_K"),
    ("cyclotomic.criterion", "slce.cyclotomic", "criterion"),
    ("predict.predict", "slce.cli", "run_predict"),
    ("predict.pure_case_params", "slce.predict", "pure_case_params"),
    ("predict.class_number", "slce.predict", "class_number"),
    ("predict.represent", "slce.predict", "represent"),
)
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# How each count and ratio beside the spans is obtained.
COUNT_SOURCES = {
    "fields.build_field.q_sum": "computed from arguments: sum of p^m",
    "gf2poly.gcd.in_bits": "computed from arguments: sum of input bit lengths",
    "predict.represent.scan_len": "computed from arguments: sum of isqrt(4 p^h)",
    "cyclotomic.ideal_factors.hit_ratio": "measured: lru cache_info() hits / lookups",
    "cyclotomic.jacobi_K.reuse_ratio": "computed from arguments: 1 - distinct (q, k) / calls",
    "trace.overhead_s": "measured: traced minus untraced wall_s",
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _count_build_field(rec, args):
    rec.counts["fields.build_field.q_sum"] += args[0] ** args[1]


def _count_gcd(rec, args):
    rec.counts["gf2poly.gcd.in_bits"] += args[0].bits.bit_length() + args[1].bits.bit_length()


def _count_represent(rec, args):
    rec.counts["predict.represent.scan_len"] += math.isqrt(4 * args[0] ** args[2])


def _count_jacobi(rec, args):
    rec.jacobi_keys.add((args[0].q, args[1]))


_COUNTERS = {
    "fields.build_field": _count_build_field,
    "gf2poly.gcd": _count_gcd,
    "predict.represent": _count_represent,
    "cyclotomic.jacobi_K": _count_jacobi,
}


class Recorder:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        # each span: [name, start_s, end_s, parent index or -1, rss_start_kb, rss_end_kb]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts = {"fields.build_field.q_sum": 0, "gf2poly.gcd.in_bits": 0, "predict.represent.scan_len": 0}
        self.jacobi_keys: set = set()
        self.originals: dict = {}

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, open_[-1] if open_ else -1, _maxrss_kb(), 0])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span = spans[idx]
                span[2] = time.perf_counter()
                span[5] = _maxrss_kb()

        return traced

    def summary(self) -> dict:
        """Per-span calls / self_s / rss_growth_mb, plus the counts and ratios."""
        agg = aggregate(self.spans)
        out = {}
        for name in SPAN_NAMES:
            calls, self_s, rss_kb = agg.get(name, (0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.rss_growth_mb"] = rss_kb / 1024
        out.update(self.counts)
        info = getattr(self.originals.get("cyclotomic.ideal_factors"), "cache_info", None)
        hits, lookups = (info().hits, info().hits + info().misses) if info else (0, 0)
        out["cyclotomic.ideal_factors.hits"] = hits
        out["cyclotomic.ideal_factors.lookups"] = lookups
        out["cyclotomic.jacobi_K.distinct"] = len(self.jacobi_keys)
        return out


def aggregate(spans) -> dict[str, tuple[int, float, int]]:
    """name -> (calls, self seconds, self RSS growth in kB).

    A span's self time is its duration minus the durations of its direct
    children.  Growth of ru_maxrss is charged the same way, so each kB of
    growth lands on the innermost span open when it happened.
    """
    child_s = [0.0] * len(spans)
    child_kb = [0] * len(spans)
    for _, start, end, parent, rss0, rss1 in spans:
        if parent >= 0:
            child_s[parent] += end - start
            child_kb[parent] += rss1 - rss0
    out: dict[str, tuple[int, float, int]] = {}
    for i, (name, start, end, _, rss0, rss1) in enumerate(spans):
        calls, self_s, self_kb = out.get(name, (0, 0.0, 0))
        out[name] = (calls + 1, self_s + (end - start) - child_s[i], self_kb + (rss1 - rss0) - child_kb[i])
    return out


def _resolve(module: str, attr: str):
    """(owner, leaf name) for a dotted attribute, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, leaf) if callable(getattr(owner, leaf, None)) else None


def install(rec: Recorder) -> list[tuple]:
    """Wrap every target that exists; returns (owner, leaf, original) to restore."""
    installed = []
    for name, module, attr in TARGETS:
        found = _resolve(module, attr)
        if found is None:
            continue
        owner, leaf = found
        original = getattr(owner, leaf)
        rec.originals[name] = original
        setattr(owner, leaf, rec.wrap(name, original))
        installed.append((owner, leaf, original))
    return installed

"""Spans around the program's public functions, recorded from outside.

The tracer replaces each listed function by a wrapper on its module, so
calls through the module attribute (``certify.macaulay_is_empty(...)``) and
calls from inside the same module (which look the name up in the module's
globals) are both recorded.  Each span keeps its name, its parent span and
its start and end; a span's self time is its duration minus the durations
of its direct child spans.

A listed function that no longer exists is reported as absent, with zero
calls, so the benchmark keeps running across refactors that delete or
rename it.  Nothing in the program is edited; ``uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

PACKAGE = "transverse"

TARGETS = (
    "poly.substitute_rows",
    "poly.form_partials",
    "poly.binary_squarefree",
    "linalg.rank",
    "linalg.kernel",
    "linalg.u_gcd",
    "linalg.u_distinct_roots",
    "certify.macaulay_is_empty",
    "certify.dim_upper_bound",
    "certify.dim_at_most_exact",
    "certify.is_empty_projective",
    "certify.scheme_points_upto",
    "certify.is_reduced_form",
    "certify.is_transverse",
    "certify.is_very_transverse",
    "certify.ensure_smooth",
    "search.find_very_transverse_flag",
    "audit.count_bad_hyperplanes",
    "audit.count_bad_superspaces",
    "cli.main",
)

# counters read from a call's arguments or result; a missing attribute or
# an argument that moved only leaves the counter unchanged


def _rank_entries(counts, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    ncols = args[2] if len(args) > 2 else kwargs.get("ncols")
    if rows is None or len(rows) == 0:
        return
    if ncols is None:
        ncols = len(rows[0])
    counts["linalg.rank.entries"] += len(rows) * ncols


def _dim_certificate(counts, args, kwargs, result):
    counts["certify.dim_upper_bound.retries"] += getattr(result, "retries_used", 0)
    if getattr(result, "verdict", None) == "at-most":
        counts["certify.dim_upper_bound.holds"] += 1


def _flag_tested(counts, args, kwargs, result):
    counts["search.find_very_transverse_flag.tested"] += getattr(result, "tested", 0)


OBSERVERS = {
    "linalg.rank": _rank_entries,
    "certify.dim_upper_bound": _dim_certificate,
    "search.find_very_transverse_flag": _flag_tested,
}


class Tracer:
    def __init__(self, targets=TARGETS, package=PACKAGE):
        self.targets = tuple(targets)
        self.package = package
        self.absent = []
        self.spans = []  # (target index, parent span index or -1, start, end)
        self.counts = defaultdict(int)
        self._stack = []
        self._replaced = []

    def install(self):
        for index, target in enumerate(self.targets):
            module_name, _, attr = target.partition(".")
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            setattr(module, attr, self._wrap(index, original))
            self._replaced.append((module, attr, original))

    def uninstall(self):
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, index, fn):
        spans = self.spans
        stack = self._stack
        observe = OBSERVERS.get(self.targets[index])
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[slot] = (index, parent, start, end)
            if observe is not None:
                try:
                    observe(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return traced

    def summary(self, pass_s: float) -> dict:
        """Per-target calls and self time, the derived counters, and the
        pass time no span covers."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for index, parent, start, end in self.spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        calls = [0] * len(self.targets)
        self_s = [0.0] * len(self.targets)
        edges = defaultdict(lambda: [0, 0.0])
        builds = 0
        for slot, (index, parent, start, end) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += end - start - child[slot]
            parent_index = self.spans[parent][0] if parent >= 0 else -1
            edge = edges[(index, parent_index)]
            edge[0] += 1
            edge[1] += end - start
        names = self.targets
        for (index, parent_index), (count, _) in edges.items():
            if (
                names[index] == "linalg.rank"
                and parent_index >= 0
                and names[parent_index] == "certify.macaulay_is_empty"
            ):
                builds += count
        metrics = {}
        for index, name in enumerate(names):
            metrics[f"{name}.calls"] = calls[index]
            metrics[f"{name}.self_s"] = self_s[index]
        dim_calls = metrics.get("certify.dim_upper_bound.calls", 0)
        metrics["linalg.rank.entries"] = self.counts["linalg.rank.entries"]
        metrics["certify.macaulay_is_empty.builds"] = builds
        metrics["certify.dim_upper_bound.retries"] = self.counts[
            "certify.dim_upper_bound.retries"
        ]
        metrics["certify.dim_upper_bound.holds_ratio"] = (
            self.counts["certify.dim_upper_bound.holds"] / dim_calls if dim_calls else 0.0
        )
        metrics["search.find_very_transverse_flag.tested"] = self.counts[
            "search.find_very_transverse_flag.tested"
        ]
        metrics["trace.other_s"] = pass_s - top
        return {
            "metrics": metrics,
            "absent": list(self.absent),
            "edges": [
                {
                    "span": names[index],
                    "parent": names[parent_index] if parent_index >= 0 else None,
                    "calls": count,
                    "total_s": total,
                }
                for (index, parent_index), (count, total) in sorted(edges.items())
            ],
        }

"""The benchmark's trace targets must name live functions of the package.

bench/spans.py reports a target that no longer exists as absent, with zero
calls, so a refactor that renames or deletes one would quietly empty a
per-layer metric.  The file is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_is_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for target in spans.TARGETS:
        modname, _, attr = target.rpartition(".")
        module = importlib.import_module(f"{spans.PACKAGE}.{modname}")
        assert callable(getattr(module, attr, None)), target

"""Replays the benchmark's flags and emptiness corpora at seed 0 under the
default caps and checks every case against the digests recorded in
bench/expected/, with no invariant broken.

bench/workloads.py is loaded by path and left as it is.  The census is
pinned separately, by CORPUS_SHA256 in test_cli.py.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["flags", "emptiness"])
def test_seed_zero_matches_recorded_digests(workload, monkeypatch):
    wl = load_workloads(monkeypatch)
    expected = wl.load_expected(workload, 0)
    cases = wl.build_cases(workload, 0)
    assert expected and set(expected) == {case.id for case in cases}
    for case in cases:
        output, problems = case.finish(case.compute())
        assert problems == [], case.id
        assert wl.digest(output) == expected[case.id], case.id

"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

They check that tracing and the speed probe do not change what the program
computes, that times are scaled to reference speed, that the span
accounting adds up, that the tracer survives functions that no
longer exist, that the field timings are taken in fresh processes, and
that ``BENCHMARK.json`` matches what the harness reports.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gfprobe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

workloads.import_package()

from transverse import gf, linalg  # noqa: E402


def small_cases():
    """Cheap cases that still cross every layer the corpora use: the F_2
    emptiness schemes, a quartic surface flag and a capped threefold."""
    empties = [c for c in workloads.build_cases("emptiness", 0) if c.id.startswith("f2-")]
    flags = workloads.build_cases("flags", 0)[1:3]
    return empties + flags


def traced_pass():
    tracer = spans.Tracer()
    with tracer:
        records, pass_s = worker.run_pass(small_cases())
    return records, pass_s, tracer


def test_traced_pass_gives_the_same_digests():
    plain, _ = worker.run_pass(small_cases())
    traced, _, tracer = traced_pass()
    assert [(r["id"], r["digest"], r["error"]) for r in plain] == [
        (r["id"], r["digest"], r["error"]) for r in traced
    ]
    assert any(r["error"] for r in plain), "the capped threefold must still fail"
    assert tracer.spans, "the pass must have been traced"


@pytest.mark.parametrize("kernel", sorted(worker.KERNELS))
def test_speed_probe_leaves_outputs_alone_and_takes_its_time_off(kernel):
    assert set(workloads.SPEED_KERNEL) == set(workloads.WORKLOADS)
    plain, _ = worker.run_pass(small_cases())
    probe = worker.SpeedProbe(worker.KERNELS[kernel]())
    probe.start()
    try:
        probed, pass_s = worker.run_pass(small_cases(), probe)
    finally:
        probe.stop()
    assert [(r["id"], r["digest"], r["error"]) for r in plain] == [
        (r["id"], r["digest"], r["error"]) for r in probed
    ]
    assert probe.samples and probe.spent > 0
    assert all(r["seconds"] >= 0 and r["scale"] > 0 for r in probed)
    assert math.isclose(pass_s, sum(r["seconds"] for r in probed))


def test_measured_times_are_scaled_to_reference_speed(monkeypatch):
    def fake_spawn(workload, seed, mode):
        result = {"setup_s": 0.3, "maxrss_kb": 2048}
        if mode == "pass":
            result["probe_samples"] = 40
            result["pass_s"] = 4.0
            result["cases"] = [
                {"id": "a", "seconds": 1.0, "scale": 0.5, "digest": "d", "error": None,
                 "problems": []},
                {"id": "b", "seconds": 3.0, "scale": 0.5, "digest": "d", "error": None,
                 "problems": []},
            ]
        return result

    # every speed loop runs at half the reference speed
    monkeypatch.setattr(run, "spawn", fake_spawn)
    # every reference launch runs at half the reference speed
    monkeypatch.setattr(run, "launch_s", lambda: 2 * run.NOMINAL_LAUNCH_S)
    metrics, _, detail = run.measured_run("census", 0, 0, run.Tally(None))
    assert math.isclose(metrics["verdicts_per_s"], 2 / 2.0)
    assert math.isclose(detail["raw_verdicts_per_s"], 2 / 4.0)
    assert math.isclose(metrics["setup_s"], 0.15)
    assert math.isclose(detail["raw_setup_s"], 0.3)


def test_self_times_and_other_time_add_up_to_the_pass():
    records, pass_s, tracer = traced_pass()
    metrics = tracer.summary(pass_s)["metrics"]
    self_total = sum(metrics[f"{t}.self_s"] for t in spans.TARGETS)
    assert metrics["trace.other_s"] >= 0
    assert math.isclose(self_total + metrics["trace.other_s"], pass_s, rel_tol=1e-9)
    assert metrics["linalg.rank.calls"] > 0
    assert metrics["certify.macaulay_is_empty.builds"] > 0
    assert metrics["linalg.rank.entries"] > 0


def test_tracer_reports_missing_functions_as_absent():
    original = linalg.rank
    tracer = spans.Tracer(
        targets=("poly.no_such_function", "no_such_module.f", "linalg.rank")
    )
    with tracer:
        assert linalg.rank is not original
        linalg.rank(gf.field_create(5), [[1, 0], [0, 1]], ncols=2)
    assert linalg.rank is original
    assert tracer.absent == ["poly.no_such_function", "no_such_module.f"]
    metrics = tracer.summary(1.0)["metrics"]
    assert metrics["poly.no_such_function.calls"] == 0
    assert metrics["poly.no_such_function.self_s"] == 0
    assert metrics["linalg.rank.calls"] == 1
    assert metrics["linalg.rank.entries"] == 4


def test_gf_timings_run_in_fresh_processes():
    probes = gfprobe.measure()
    pids = [raw["pid"] for raw in probes["raw"].values()]
    assert len(set(pids)) == len(pids)
    assert os.getpid() not in pids
    expected = {k for k in run.per_layer_units() if k.startswith("gf.")}
    assert set(probes["metrics"]) == expected
    assert all(v > 0 for v in probes["metrics"].values())


def test_judge_counts_errors_and_mismatches():
    ok = {"id": "a", "digest": "d1", "error": None, "problems": []}
    assert run.judge(ok, {"a": "d1"}) == (True, False)
    assert run.judge(ok, None) == (True, False)
    assert run.judge(ok, {"a": "other"}) == (False, True)
    raised = dict(ok, digest=None, error="CapExceededError: over the cap")
    assert run.judge(raised, {"a": "d1"}) == (False, False)
    broken = dict(ok, problems=["empty verdict but the sweep found points"])
    assert run.judge(broken, None) == (False, True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_has_a_digest_for_every_case(workload):
    expected = workloads.load_expected(workload, 0)
    assert expected is not None
    ids = [c.id for c in workloads.build_cases(workload, 0)]
    assert sorted(expected) == sorted(ids)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(workloads.WORKLOADS) and len(listed) >= 2
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

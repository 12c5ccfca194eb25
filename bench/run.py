"""Benchmark harness for ``transverse``.

    python3 bench/run.py --workload {census,flags,emptiness} --seed N \\
        --seconds T --trace {0,1}

Run from the root of a checkout.  Every pass runs in a fresh Python process
(``worker.py``) that imports the package from ``src/``, builds the
workload's seeded inputs and runs each case once.  Passes repeat until
the next pass would end after ``--seconds``, and at least three times.

``--trace 0`` reports the end-to-end metrics:

* ``verdicts_per_s``: cases answered correctly per second of the pass; a
  case's time is its median over the passes, and the pass time the sum of
  those medians;
* ``setup_s``: process launch until the package is imported and the inputs
  are built, median over set-up-only processes started before and between
  the passes;
* ``peak_rss_mb``: peak resident memory of a pass process, median;
* ``answered_frac``: answered cases over attempted cases.  A case is not
  answered when it raises or when its output differs from the recorded
  digest or breaks an invariant (``failed_frac`` is one minus this).

``--trace 1`` alternates untraced passes with passes in which the public
functions are wrapped by ``spans.Tracer``, then times the field layer in
fresh processes (``gfprobe.py``).  It reports the per-layer metrics: calls
and self time per span, derived counters, time outside any span, the
tracing overhead, and the field timings.

Both times are taken at reference speed.  A shared host slows its CPUs by
up to half for seconds to minutes at a time, so the speed is measured next
to every time with a reference that runs none of the program, and the time
is scaled by the reference's nominal time over its measured time.  A pass
samples a fixed pure-Python loop all along (``worker.SpeedProbe``); a
set-up-only process is bracketed by two launches of Python that import
numpy and exit (``REFERENCE_LAUNCH``).  A change to the program moves the
metrics in full; only the machine's speed is taken out.  The unscaled
values are printed to stderr and kept in the record.

Every result is checked against the digests in ``expected/`` where the
seed has them, and against seed-independent invariants always.  The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a readable summary with the machine goes to stderr, and the
full record (machine, per-case digests and times, span edges) to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gfprobe
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

SETUP_PROBES = 3
# Python started with numpy imported and nothing else, launched before and
# after each set-up-only process: the part of set-up the program shares with
# any numpy program, and the gauge of how fast set-up can run just then.
# Set-up time follows it closely and follows the speed loop hardly at all.
REFERENCE_LAUNCH = (sys.executable, "-c", "import numpy")
# its time on the 2-vCPU Xeon VM the benchmark was tuned on, at its fastest;
# it only sets the scale of setup_s
NOMINAL_LAUNCH_S = 0.1
# iterations of the speed loop timed at the start and end of a run and
# recorded with the machine, as a gauge of how fast it was running
REFERENCE_ITERATIONS = 500_000
MIN_PASSES = 3
# no new pass starts after this, so a run ends well within three minutes
WALL_LIMIT_S = 100.0
WORKER_TIMEOUT_S = 150.0

END_TO_END = {
    "verdicts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answered_frac": "ratio",
}

_DERIVED = {
    "linalg.rank.entries": "count",
    "certify.macaulay_is_empty.builds": "count",
    "certify.dim_upper_bound.retries": "count",
    "certify.dim_upper_bound.holds_ratio": "ratio",
    "search.find_very_transverse_flag.tested": "count",
    "trace.other_s": "s",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for target in spans.TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
    units.update(_DERIVED)
    for label, (_, m, ops) in gfprobe.FIELDS.items():
        if m > 1:
            units[f"gf.tables_s.{label}"] = "s"
        for op in ops:
            units[f"gf.{op}_ns.{label}"] = "ns"
    return units


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"),
         "--workload", workload, "--seed", str(seed), "--mode", mode],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - launch
    return result


def judge(record: dict, expected: dict | None) -> tuple:
    """(answered, wrong) for one case record."""
    if record["problems"]:
        return False, True
    if record["error"] is not None:
        return False, False
    if expected is not None and expected.get(record["id"]) != record["digest"]:
        return False, True
    return True, False


def machine_info(seed: int, first: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    mem_gb = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_gb = round(int(line.split()[1]) / 2**20, 2)
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_gb": mem_gb,
        "python": first["python"],
        "numpy": first["numpy"],
        "seed": seed,
    }


class Tally:
    """Answered, failed and wrong cases over every pass of a run."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def add(self, passed: dict) -> int:
        answered = 0
        for record in passed["cases"]:
            ok, wrong = judge(record, self.expected)
            self.attempted += 1
            answered += ok
            self.failed += not ok
            if wrong:
                self.wrong.append(record)
        return answered


def launch_s() -> float:
    start = time.monotonic()
    subprocess.run(REFERENCE_LAUNCH, cwd=workloads.ROOT, capture_output=True,
                   check=True, timeout=WORKER_TIMEOUT_S)
    return time.monotonic() - start


def measured_setup(workload, seed) -> tuple:
    """(set-up seconds, scale) of one set-up-only process, bracketed by
    two reference launches."""
    before = launch_s()
    setup_s = spawn(workload, seed, "setup")["setup_s"]
    after = launch_s()
    return setup_s, 2 * NOMINAL_LAUNCH_S / (before + after)


def measured_run(workload, seed, seconds, tally):
    # set-up-only processes go before the passes and between them, so that
    # their median spans the machine's speed over the whole run
    setups = [measured_setup(workload, seed) for _ in range(SETUP_PROBES)]
    passes = []
    answered = []
    rounds = []
    start = time.monotonic()
    # a round (one set-up-only process and one pass) starts only when a
    # round as long as the slowest so far still ends within ``seconds``
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + max(rounds) < seconds
    ):
        if passes and time.monotonic() - start > WALL_LIMIT_S:
            break
        round_start = time.monotonic()
        setups.append(measured_setup(workload, seed))
        passed = spawn(workload, seed, "pass")
        passes.append(passed)
        answered.append(tally.add(passed))
        rounds.append(time.monotonic() - round_start)

    def pass_time(scaled: bool) -> float:
        # the sum over cases of each case's median time over the passes
        return sum(
            statistics.median(
                p["cases"][i]["seconds"] * (p["cases"][i]["scale"] if scaled else 1)
                for p in passes
            )
            for i in range(len(passes[0]["cases"]))
        )

    def setup_time(scaled: bool) -> float:
        return statistics.median(t * (k if scaled else 1) for t, k in setups)

    metrics = {
        "verdicts_per_s": statistics.median(answered) / pass_time(True),
        "setup_s": setup_time(True),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
        "answered_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    detail = {
        "passes": len(passes),
        "raw_verdicts_per_s": statistics.median(answered) / pass_time(False),
        "raw_setup_s": setup_time(False),
        "pass_s": [p["pass_s"] for p in passes],
        "case_s": {
            case["id"]: [p["cases"][i]["seconds"] for p in passes]
            for i, case in enumerate(passes[0]["cases"])
        },
        "case_scale": {
            case["id"]: [p["cases"][i]["scale"] for p in passes]
            for i, case in enumerate(passes[0]["cases"])
        },
        "probe_samples": [p["probe_samples"] for p in passes],
        "setup_s": setups,
    }
    return metrics, passes, detail


def traced_run(workload, seed, seconds, tally):
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        if traced and time.monotonic() - start > WALL_LIMIT_S:
            break
        for mode, bucket in (("pass", plain), ("traced", traced)):
            passed = spawn(workload, seed, mode)
            bucket.append(passed)
            tally.add(passed)
    names = traced[0]["trace"]["metrics"].keys()
    metrics = {
        name: statistics.median(p["trace"]["metrics"][name] for p in traced)
        for name in names
    }
    metrics["trace.overhead"] = (
        statistics.median(p["pass_s"] for p in traced)
        / statistics.median(p["pass_s"] for p in plain)
        - 1
    )
    probes = gfprobe.measure()
    metrics.update(probes["metrics"])
    detail = {
        "pairs": len(traced),
        "plain_pass_s": [p["pass_s"] for p in plain],
        "traced_pass_s": [p["pass_s"] for p in traced],
        "absent_spans": traced[0]["trace"]["absent"],
        "span_edges": traced[0]["trace"]["edges"],
        "gf_probes": probes["raw"],
    }
    return metrics, plain + traced, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (workloads.SRC / "transverse" / "__init__.py").is_file():
        print(f"benchmark: no package source under {workloads.SRC}", file=sys.stderr)
        return 2
    expected = workloads.load_expected(args.workload, args.seed)
    tally = Tally(expected)
    reference = [worker.speed_loop(REFERENCE_ITERATIONS)]
    try:
        if args.trace:
            metrics, passes, detail = traced_run(
                args.workload, args.seed, args.seconds, tally
            )
            units = per_layer_units()
        else:
            metrics, passes, detail = measured_run(
                args.workload, args.seed, args.seconds, tally
            )
            units = END_TO_END
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    missing = set(units) - set(metrics)
    if missing:
        print(f"benchmark: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1

    reference.append(worker.speed_loop(REFERENCE_ITERATIONS))
    machine = machine_info(args.seed, passes[0])
    machine["reference_s"] = reference
    correct = not tally.wrong
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "digests_recorded": expected is not None,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "cases": [
            {k: c[k] for k in ("id", "digest", "error")} for c in passes[0]["cases"]
        ],
        "detail": detail,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{machine['nproc']} cpus ({machine['cpu']}), {machine['mem_gb']} GB, "
        f"python {machine['python']}, numpy {machine['numpy']}, reference loop "
        f"{reference[0]:.3f}/{reference[1]:.3f} s at start/end",
        file=sys.stderr,
    )
    for name in units:
        print(f"  {name:48s} {metrics[name]:>14.6g} {units[name]}", file=sys.stderr)
    if not args.trace:
        print(f"  {'failed_frac':48s} {tally.failed / tally.attempted:>14.6g} ratio",
              file=sys.stderr)
        for name in ("raw_verdicts_per_s", "raw_setup_s"):
            print(f"  {name + ' (unscaled)':48s} {detail[name]:>14.6g} "
                  f"{units[name[4:]]}", file=sys.stderr)
    checked = "digests and invariants" if expected is not None else "invariants only"
    print(f"  correct={correct} ({checked}), {tally.failed}/{tally.attempted} "
          f"case runs failed; record in {out.relative_to(workloads.ROOT)}",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, optionally run one pass of it.

    python3 bench/worker.py --workload W --seed S --mode {setup,pass,traced}

Each pass runs in a fresh process, so the lazy field tables a user pays
for are built inside the pass.  The process prints one JSON line: the
monotonic clock reading when the package was imported and the inputs were
built (the parent subtracts its launch time to get the set-up time), and
for a pass the time, digest, error and broken invariants of every case,
plus the process's peak resident memory.  ``traced`` wraps the program's
public functions before the pass and adds the span summary.

``pass`` also runs a ``SpeedProbe`` through the pass: every case time
excludes the probe's own time and comes with the ``scale`` that turns it
into a time at reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time

import spans
import workloads

PROBE_INTERVAL_S = 0.05


def speed_loop(iterations: int) -> float:
    """Time of a fixed pure-Python loop that calls none of the program,
    dict and tuple work like the program's own."""
    start = time.perf_counter()
    table = {}
    for i in range(iterations):
        key = (i % 31, i % 37)
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - start


# Each kernel's ``nominal_s`` is about its time on an unloaded CPU of the
# 2-vCPU Xeon VM the benchmark was tuned on; it only sets the scale of the
# reported times.


class PythonKernel:
    """5,000 iterations of ``speed_loop``: interpreter work on small dicts
    and tuples, like the restriction and field code."""

    nominal_s = 1e-3

    def __call__(self) -> float:
        return speed_loop(5_000)


class NumpyKernel:
    """One elimination step mod 83 on a fixed 384 x 384 int64 matrix, in
    arrays allocated once: whole-row numpy updates on arrays larger than a
    core's cache, like the Macaulay ranks."""

    nominal_s = 8e-4

    def __init__(self):
        import numpy

        self.np = numpy
        self.matrix = numpy.random.default_rng(0).integers(
            0, 83, size=(384, 384), dtype=numpy.int64
        )
        self.out = numpy.empty((383, 384), dtype=numpy.int64)

    def __call__(self) -> float:
        np, m, out = self.np, self.matrix, self.out
        start = time.perf_counter()
        np.multiply.outer(m[1:, 0], m[0], out=out)
        np.subtract(m[1:], out, out=out)
        np.remainder(out, 83, out=out)
        return time.perf_counter() - start


KERNELS = {"python": PythonKernel, "numpy": NumpyKernel}


class SpeedProbe:
    """How fast the CPU is running this process, sampled all along.

    A shared host slows each of its CPUs by up to half for seconds to
    minutes at a time, and which CPU is slow changes; a process sees a mix
    of speeds that differs from run to run.  Every ``PROBE_INTERVAL_S`` a
    timer signal runs a fixed kernel that calls none of the program and
    records how long it took.  A stretch of the program's work is scaled by
    the kernel's nominal time over its mean time within the stretch, which
    takes the machine's speed out and leaves the program's cost; the time
    spent in the kernel is taken off the stretch first.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self.spent = 0.0

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - start

    def mark(self) -> tuple:
        return len(self.samples), self.spent

    def since(self, mark: tuple) -> tuple:
        """(probe seconds, scale) for the stretch since ``mark``; a stretch
        too short to hold a sample takes the scale of every sample so far."""
        taken = self.samples[mark[0]:] or self.samples or [self.kernel()]
        return self.spent - mark[1], self.kernel.nominal_s / statistics.fmean(taken)


def run_pass(cases, probe=None):
    """Run every case once; returns (per-case records, pass seconds).  With
    a running ``probe``, case times exclude the probe's time and each record
    carries its ``scale`` to reference speed."""
    records = []
    total = 0.0
    for case in cases:
        record = {"id": case.id, "seconds": 0.0, "digest": None, "error": None,
                  "problems": []}
        mark = probe.mark() if probe else None
        start = time.perf_counter()
        try:
            raw = case.compute()
        except Exception as exc:  # a failed case is data, not a crash
            record["seconds"] = time.perf_counter() - start
            record["error"] = f"{type(exc).__name__}: {exc}"
            raw = None
        else:
            record["seconds"] = time.perf_counter() - start
        if probe:
            spent, record["scale"] = probe.since(mark)
            record["seconds"] -= spent
        if record["error"] is None:
            output, problems = case.finish(raw)
            record["digest"] = workloads.digest(output)
            record["problems"] = problems
        total += record["seconds"]
        records.append(record)
    return records, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    args = parser.parse_args(argv)

    workloads.import_package()
    import numpy

    cases = workloads.build_cases(args.workload, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {
        "ready": ready,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.mode == "pass":
        probe = SpeedProbe(KERNELS[workloads.SPEED_KERNEL[args.workload]]())
        probe.start()
        try:
            result["cases"], result["pass_s"] = run_pass(cases, probe)
        finally:
            probe.stop()
        result["probe_samples"] = len(probe.samples)
    elif args.mode == "traced":
        tracer = spans.Tracer()
        with tracer:
            result["cases"], result["pass_s"] = run_pass(cases)
        result["trace"] = tracer.summary(result["pass_s"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

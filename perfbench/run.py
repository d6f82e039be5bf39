"""Layered benchmark of rosevent, run from the root of a source checkout.

    python3 perfbench/run.py --workload order-ladder --seed 1 --seconds 25 --trace 0

Inputs come from --seed. The workload's batch of jobs (see workloads.py) is
repeated until --seconds have passed; every job's output is checked on
every repeat and must reproduce its first digest. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, with no layer traced:
  setup_s      median over SETUP_REPEATS of: fresh import of rosevent (numpy
               stays loaded), building the jobs, one short warm-up run
  batch_s      time to finish one batch, the sum of each job's median time
               (on order-ladder: the full set of order tables)
  steps_per_s  accepted steps in a batch / batch_s
  run_ms_p50, run_ms_p90
               latency of one top-level call (one order table, one
               integrate call) over every call in the run
  peak_rss_mb  peak resident memory of the process
All times are rescaled to a nominal machine speed by gauge.py, which times
a calibration loop throughout the run; the line before the result gives
the raw batch time and the scale factor next to the machine note.

--trace 1 alternates untraced and traced batches. Traced batches wrap each
layer's public functions from outside (spans.py) and report the per-layer
metrics of BENCHMARK.json; counts are per batch and must repeat exactly.
The run also fails unless linalg.lu_factor.calls equals the summed
IntegrationStats.lu_factorizations and, where no finite-difference stencil
evaluates the fields, problems.eval_field.calls equals the summed f_evals.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from gauge import SpeedGauge
from spans import NAMES, Instrumentation, Tracer
from workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "rosevent"
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "steps_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _layer_units() -> dict:
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_us"] = "us"
        units[f"{name}.incl_us"] = "us"
    units.update({
        "events.integrate.self_us_per_step": "us/step",
        "events.root_iters_per_event": "iter/event",
        "events.nonconverged": "count",
        "events.f_evals_per_step": "eval/step",
        "bench.reference_event_state.incl_s": "s",
        "bench.reference_event_state.share": "frac",
        "bench.run_order_study.incl_s": "s",
        "onesided.lu_per_shortening": "lu/call",
        "onesided.guard_passed_frac": "frac",
        "trace.overhead_frac": "frac",
    })
    return units


PER_LAYER = _layer_units()


def load_package(fresh: bool = False):
    """Import rosevent from this checkout's src; with fresh=True drop any
    loaded copy first so the import runs again."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise FileNotFoundError(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def machine_note() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def batch_digest(digests) -> str:
    return hashlib.sha256(" ".join(map(str, digests)).encode()).hexdigest()[:16]


class Tally:
    """Per-job latencies, steps and digests of one run. `failures` holds one
    entry per failed job run, `errors` the run-level checks that failed."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.spans = [[] for _ in jobs]  # (start, end) of each run of a job
        self.steps = [0] * len(jobs)
        self.digests = [None] * len(jobs)
        self.attempted = 0
        self.failures = []
        self.errors = []

    def run_job(self, j: int, inst: Instrumentation):
        """Run job j once, check it, and return its integration results."""
        job = self.jobs[j]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = job.call()
        except Exception:  # a failing job is reported, the run goes on
            self._record(j, t0)
            self.failures.append(f"{job.label}: {traceback.format_exc(limit=3)}")
            inst.integrations.clear()
            return []
        self._record(j, t0)
        results = list(inst.integrations)
        inst.integrations.clear()
        problems = job.check(output)
        dig = digest(output, results)
        if self.digests[j] is None:
            self.digests[j] = dig
            self.steps[j] = sum(r.stats.steps for r in results)
        elif dig != self.digests[j]:
            problems.append("output differs from the first run of this job")
        if problems:
            self.failures.append(f"{job.label} {job.inputs}: " + "; ".join(problems))
        return results

    def _record(self, j: int, t0: float) -> None:
        self.spans[j].append((t0, time.perf_counter()))

    def raw_seconds(self) -> list:
        return [[t1 - t0 for t0, t1 in runs] for runs in self.spans]

    def scaled_seconds(self, gauge: SpeedGauge) -> list:
        """Per-job times at the nominal machine speed (see gauge.py)."""
        return [list(gauge.rescale(*zip(*runs))) for runs in self.spans]

    def run_batch(self, inst: Instrumentation, deadline: float | None = None) -> list:
        results = []
        for j in range(len(self.jobs)):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            results.extend(self.run_job(j, inst))
        return results


def setup(workload, seed: int, gauge: SpeedGauge):
    """Fresh import, job construction and warm-up; returns the package, the
    jobs and the rescaled set-up seconds of each repeat."""
    t0s, t1s = [], []
    with gauge:
        for _ in range(SETUP_REPEATS):
            t0s.append(time.perf_counter())
            pkg = load_package(fresh=True)
            jobs = workload.make_jobs(pkg, seed)
            jobs[0].warm()
            t1s.append(time.perf_counter())
    return pkg, jobs, list(gauge.rescale(t0s, t1s))


def measure_end_to_end(pkg, jobs, seconds: float, setup_times, gauge) -> tuple:
    tally = Tally(jobs)
    with Instrumentation(pkg) as inst, gauge:
        deadline = time.perf_counter() + seconds
        tally.run_batch(inst)
        while time.perf_counter() < deadline:
            tally.run_batch(inst, deadline)
    scaled = tally.scaled_seconds(gauge)
    batch_s = sum(statistics.median(s) for s in scaled)
    latencies_ms = [1e3 * s for per_job in scaled for s in per_job]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "batch_s": batch_s,
        "steps_per_s": sum(tally.steps) / batch_s,
        "run_ms_p50": statistics.median(latencies_ms),
        "run_ms_p90": statistics.quantiles(latencies_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"latency_samples": len(latencies_ms), "batch_jobs": len(jobs),
            "batch_steps": sum(tally.steps), "batch_digest": batch_digest(tally.digests),
            "raw_batch_s": sum(statistics.median(s) for s in tally.raw_seconds()),
            "speed_scale": gauge.scale()}
    return metrics, tally, info


def cross_check(calls: dict, results, analytic: bool) -> list:
    """Outside wrappers must see exactly the work the integrator counted."""
    failures = []
    lu = sum(r.stats.lu_factorizations for r in results)
    if calls["linalg.lu_factor"] != lu:
        failures.append(f"linalg.lu_factor.calls {calls['linalg.lu_factor']} != "
                        f"summed lu_factorizations {lu}")
    f_evals = sum(sum(r.stats.f_evals.values()) for r in results)
    if analytic and calls["problems.eval_field"] != f_evals:
        failures.append(f"problems.eval_field.calls {calls['problems.eval_field']} != "
                        f"summed f_evals {f_evals}")
    return failures


def traced_batch(pkg, jobs, tally: Tally, tracer: Tracer, analytic: bool):
    """One traced batch: (wall seconds, layer totals, integration results)."""
    with Instrumentation(pkg, [job.problem for job in jobs], tracer) as inst:
        t0 = time.perf_counter()
        results = tally.run_batch(inst)
        wall = time.perf_counter() - t0
    totals = tracer.reduce()
    tally.errors += cross_check(totals.calls, results, analytic)
    return wall, totals, results


def measure_layers(pkg, jobs, seconds: float, analytic: bool, gauge) -> tuple:
    """Alternate untraced and traced batches until `seconds` have passed.
    The gauge runs only in the untraced batches; layer times are rescaled
    with its mean over the run."""
    tally = Tally(jobs)
    tracer = Tracer()
    ratios = []
    first = None
    calls_ns = {name: [0, 0.0, 0.0] for name in NAMES}  # calls, incl, self
    steps = f_evals = 0
    traced_wall = 0.0
    root_iters = located = nonconverged = guards = guards_passed = lu_1b = 0
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        with Instrumentation(pkg) as inst, gauge:
            t0 = time.perf_counter()
            tally.run_batch(inst)
            t1 = time.perf_counter()
        plain = gauge.net(t0, t1)
        wall, totals, results = traced_batch(pkg, jobs, tally, tracer, analytic)
        ratios.append(wall / plain)
        traced_wall += wall
        if first is None:
            first = totals.calls
        elif totals.calls != first:
            tally.errors.append("per-layer call counts differ between traced batches")
        for name in NAMES:
            acc = calls_ns[name]
            acc[0] += totals.calls[name]
            acc[1] += totals.incl_ns[name]
            acc[2] += totals.self_ns[name]
        steps += sum(r.stats.steps for r in results)
        f_evals += sum(sum(r.stats.f_evals.values()) for r in results)
        records = totals.results["events.locate_event"]
        located += len(records)
        root_iters += sum(rec.root_iterations for rec in records)
        nonconverged += sum(not rec.converged for rec in records)
        reports = totals.results["onesided.guard_ros2_dense"]
        guards += len(reports)
        guards_passed += sum(rep.passed for rep in reports)
        lu_1b += totals.lu_in_case_1b

    def per_call(total, n, unit=1.0):
        return total / n / unit if n else 0.0

    us = 1e3 / gauge.scale()  # nanoseconds per rescaled microsecond
    metrics = {}
    for name in NAMES:
        n, incl, own = calls_ns[name]
        metrics[f"{name}.calls"] = first[name]
        metrics[f"{name}.self_us"] = per_call(own, n, us)
        metrics[f"{name}.incl_us"] = per_call(incl, n, us)
    n_ref, incl_ref, _ = calls_ns["bench.reference_event_state"]
    n_study, incl_study, _ = calls_ns["bench.run_order_study"]
    n_1b = calls_ns["onesided.resolve_case_1b"][0]
    metrics.update({
        "events.integrate.self_us_per_step": per_call(calls_ns["events.integrate"][2], steps, us),
        "events.root_iters_per_event": per_call(root_iters, located),
        "events.nonconverged": nonconverged // len(ratios),
        "events.f_evals_per_step": per_call(f_evals, steps),
        "bench.reference_event_state.incl_s": per_call(incl_ref, n_ref, 1e6 * us),
        "bench.reference_event_state.share": incl_ref / 1e9 / traced_wall,
        "bench.run_order_study.incl_s": per_call(incl_study, n_study, 1e6 * us),
        "onesided.lu_per_shortening": per_call(lu_1b, n_1b),
        "onesided.guard_passed_frac": per_call(guards_passed, guards),
        "trace.overhead_frac": statistics.median(ratios) - 1.0,
    })
    info = {"traced_batches": len(ratios), "batch_digest": batch_digest(tally.digests),
            "speed_scale": gauge.scale()}
    return metrics, tally, info


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"seconds must be positive, got {text}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=_positive_seconds)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    gauge = SpeedGauge()
    pkg, jobs, setup_times = setup(workload, args.seed, gauge)
    if args.trace:
        metrics, tally, info = measure_layers(pkg, jobs, args.seconds, workload.analytic, gauge)
        units = PER_LAYER
    else:
        metrics, tally, info = measure_end_to_end(pkg, jobs, args.seconds, setup_times, gauge)
        units = END_TO_END
    for failure in tally.failures + tally.errors:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(tally.failures)
    correct = not tally.failures and not tally.errors
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:.6g} {unit}")
    if "latency_samples" in info:
        print(f"{'run_ms samples':44s} {info['latency_samples']} calls")
    print(f"{'failed_frac':44s} {failed / tally.attempted:.6g} "
          f"({failed} of {tally.attempted} runs)")
    print(json.dumps({"machine": machine_note(), "workload": args.workload,
                      "seed": args.seed, **info}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

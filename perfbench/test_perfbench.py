"""Tests of the benchmark harness: seeded inputs, determinism of what it
counts, the outside-in call-count cross-checks, and its metric names."""

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
from gauge import CAL_NOMINAL_S, SpeedGauge
from spans import NAMES, Instrumentation, Tracer
from workloads import WORKLOADS

#: leading jobs of each batch run by these tests, to keep them short
PREFIX = {"order-ladder": 1, "relay-orbit": 2, "relay-fd": 2, "najafi-guarded": 5}


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


def traced_prefix(pkg, name, seed):
    workload = WORKLOADS[name]
    jobs = workload.make_jobs(pkg, seed)[: PREFIX[name]]
    tally = run.Tally(jobs)
    _, totals, results = run.traced_batch(pkg, jobs, tally, Tracer(), workload.analytic)
    return tally, totals, results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_counts_and_event_states(pkg, name):
    first, first_totals, first_results = traced_prefix(pkg, name, 5)
    again, again_totals, again_results = traced_prefix(pkg, name, 5)
    # every output check and both call-count cross-checks hold
    assert first.failures == [] and first.errors == []
    assert again.failures == [] and again.errors == []
    assert first_totals.calls == again_totals.calls
    assert first_totals.calls["events.integrate"] == len(first_results) > 0
    assert [r.stats.steps for r in first_results] == [r.stats.steps for r in again_results]
    for a, b in zip(first_results, again_results):
        assert len(a.events) == len(b.events)
        for ea, eb in zip(a.events, b.events):
            assert ea.t_star == eb.t_star
            assert ea.x_star.tolist() == eb.x_star.tolist()
    # the digests cover steps, counts, events and located states
    assert first.digests == again.digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_other_inputs(pkg, name):
    make = WORKLOADS[name].make_jobs
    assert [j.inputs for j in make(pkg, 5)] == [j.inputs for j in make(pkg, 5)]
    assert [j.inputs for j in make(pkg, 5)] != [j.inputs for j in make(pkg, 6)]


def test_instrumentation_is_removed_on_exit(pkg):
    originals = {(mod, fn): getattr(getattr(pkg, mod), fn) for mod, fn in (
        ("linalg", "lu_factor"), ("events", "integrate"), ("bench", "integrate"))}
    problem = pkg.problems.builtin("najafi")
    h = problem.h
    with Instrumentation(pkg, [problem], Tracer()):
        assert pkg.linalg.lu_factor is not originals["linalg", "lu_factor"]
        assert pkg.bench.integrate is not originals["bench", "integrate"]
        assert problem.h is not h
    for (mod, fn), original in originals.items():
        assert getattr(getattr(pkg, mod), fn) is original
    assert problem.h is h


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    inner = tracer.wrap("linalg.lu_solve", lambda: sum(range(1000)))
    outer = tracer.wrap("rosenbrock.ros2_step", lambda: inner() + inner())
    outer()
    outer()
    totals = tracer.reduce()
    assert totals.calls["rosenbrock.ros2_step"] == 2
    assert totals.calls["linalg.lu_solve"] == 4
    assert totals.self_ns["linalg.lu_solve"] == totals.incl_ns["linalg.lu_solve"]
    assert totals.self_ns["rosenbrock.ros2_step"] == (
        totals.incl_ns["rosenbrock.ros2_step"] - totals.incl_ns["linalg.lu_solve"])
    assert tracer.reduce().calls == {name: 0 for name in NAMES}


def test_cross_check_reports_unseen_calls(pkg):
    problem = pkg.problems.builtin("najafi")
    cfg = pkg.events.IntegratorConfig(tau=2.0**-3, t_end=1.5)
    result = pkg.events.integrate(problem, problem.x0, cfg)
    calls = {"linalg.lu_factor": result.stats.lu_factorizations,
             "problems.eval_field": sum(result.stats.f_evals.values())}
    assert run.cross_check(calls, [result], analytic=True) == []
    calls["linalg.lu_factor"] -= 1
    assert len(run.cross_check(calls, [result], analytic=True)) == 1


def test_gauge_rescales_by_the_calibration_inside_the_interval():
    gauge = SpeedGauge()
    gauge.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    gauge.durations = [0.1] * 6
    # ticks 1..5 lie inside [0.5, 5.5]: 0.5 s of them is not the job's time
    assert gauge.rescale([0.5], [5.5])[0] == pytest.approx(4.5 * CAL_NOMINAL_S / 0.1)
    gauge.durations = [0.2] * 6
    assert gauge.rescale([0.5], [5.5])[0] == pytest.approx(4.0 * CAL_NOMINAL_S / 0.2)


def test_gauge_ticks_only_while_entered():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedGauge() as gauge:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(gauge.durations) == len(gauge.starts) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "najafi-guarded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

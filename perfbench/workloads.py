"""The benchmark's workloads: seeded inputs, one top-level call per job, and
the check each job's output must pass.

A workload is a batch of jobs drawn from the seed. A job is one call into
rosevent (`bench.run_order_study` or `events.integrate`) and is repeated
unchanged while a run lasts. Every workload is a closed loop: one caller,
each call waits for the previous one. The package is passed in as `pkg` and
every rosevent function is looked up on it at call time, so wrappers
installed by `spans.Instrumentation` see the calls.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

LADDER_HALVINGS = 4
ROS2_BAND = (3.4, 4.3)
ROS1_BAND = (1.85, 2.15)

RELAY_EPS = 1e-2
RELAY_TAU = 4e-3
RELAY_T_END = 2.0
RELAY_JOBS = 16

NAJAFI_TAU = 2.0**-5
NAJAFI_T_END = 1.25
NAJAFI_JOBS = 100

#: steps of the short integration that warms each workload up
WARM_STEPS = 20


@dataclass
class Job:
    label: str
    inputs: tuple
    problem: object
    call: Callable[[], object]
    check: Callable[[object], list]
    warm: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    make_jobs: Callable
    #: every field evaluation goes through problems.eval_field (no FD stencils)
    analytic: bool


def digest(output, integrations) -> str:
    """Hash of everything a job produced: per integration the counts,
    termination and located event states, plus the order-study rows."""
    parts = []
    for r in integrations:
        s = r.stats
        parts.append((s.steps, s.lu_factorizations, sorted(s.f_evals.items()),
                      sorted(s.domain_violations.items()), r.termination.value))
        parts.extend((e.step_index, e.theta_star, e.t_star, tuple(e.x_star),
                      e.root_iterations, e.converged) for e in r.events)
    if isinstance(output, list):
        parts.extend((row.tau, row.global_error) for row in output)
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks: each returns the list of failed conditions, empty when correct
# ---------------------------------------------------------------------------


def check_ladder(band, rows) -> list:
    failures = []
    factors = [r.reduction_factor for r in rows if r.reduction_factor is not None]
    if len(factors) != LADDER_HALVINGS:
        failures.append(f"{len(factors)} reduction factors, expected {LADDER_HALVINGS}")
    lo, hi = band
    failures += [f"factor {f:.4f} outside [{lo}, {hi}]" for f in factors if not lo <= f <= hi]
    errors = [r.global_error for r in rows]
    if not all(b < a for a, b in zip(errors, errors[1:])):
        failures.append(f"errors do not fall monotonically: {errors}")
    return failures


def _no_violations(result) -> list:
    dv = result.stats.domain_violations
    return [f"domain violations {dv}"] if any(dv.values()) else []


def check_relay(result) -> list:
    failures = _no_violations(result)
    if result.termination.value != "t_end":
        failures.append(f"terminated by {result.termination.value}")
    directions = [e.direction for e in result.events]
    if any(a is b for a, b in zip(directions, directions[1:])):
        failures.append("crossing directions do not alternate")
    if not result.events:
        failures.append("no events")
    failures += [f"event {i} not converged" for i, e in enumerate(result.events)
                 if not e.converged]
    return failures


def check_najafi(result) -> list:
    failures = _no_violations(result)
    if result.termination.value != "t_end":
        failures.append(f"terminated by {result.termination.value}")
    if not result.events:
        failures.append("no events")
    failures += [f"guard at step {i} did not pass" for i, rep in result.guard_reports
                 if not rep.passed]
    return failures


# ---------------------------------------------------------------------------
# calls: rosevent functions are looked up on pkg when the job runs
# ---------------------------------------------------------------------------


def _order_study(pkg, problem, method, tau0, x0):
    return pkg.bench.run_order_study(problem, method, tau0, LADDER_HALVINGS, x0=x0)


def _integrate(pkg, problem, x0, cfg):
    return pkg.events.integrate(problem, x0, cfg)


def _integrate_job(pkg, label, inputs, problem, x0, cfg, check) -> Job:
    warm_cfg = pkg.events.IntegratorConfig(
        tau=cfg.tau, t_end=WARM_STEPS * cfg.tau, guard_mode=cfg.guard_mode)
    return Job(label, inputs, problem,
               call=partial(_integrate, pkg, problem, x0, cfg),
               check=check,
               warm=partial(_integrate, pkg, problem, x0, warm_cfg))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def order_ladder_jobs(pkg, seed: int) -> list:
    """The acceptance ladders: kowalczyk ROS2 at eps 1e-2, 1e-3, 1e-4 from
    TABLE2_TAU0 and the eps = 1e-2 ROS1 ladder from TABLE1_TAU0, each with
    its own relay theta and initial slow state drawn from the seed."""
    rng = np.random.default_rng(seed)
    ros1, ros2 = pkg.rosenbrock.ROS1, pkg.rosenbrock.ROS2
    ladders = [(ros2, eps, pkg.bench.TABLE2_TAU0[eps], ROS2_BAND) for eps in (1e-2, 1e-3, 1e-4)]
    ladders.append((ros1, 1e-2, pkg.bench.TABLE1_TAU0[1e-2], ROS1_BAND))
    jobs = []
    for method, eps, tau0, band in ladders:
        theta = float(rng.uniform(-0.95, -0.85))
        y0 = float(rng.uniform(0.8, 1.2))
        problem = pkg.problems.spp_flatten(
            pkg.problems.builtin("kowalczyk", theta=theta, eps=eps))
        x0 = np.array([y0, 0.0])
        warm_cfg = pkg.events.IntegratorConfig(
            tau=tau0, t_end=WARM_STEPS * tau0, method=method, max_events=1)
        jobs.append(Job(
            label=f"kowalczyk {method.label} eps={eps:g}",
            inputs=(theta, y0),
            problem=problem,
            call=partial(_order_study, pkg, problem, method, tau0, x0),
            check=partial(check_ladder, band),
            warm=partial(_integrate, pkg, problem, x0, warm_cfg),
        ))
    return jobs


def _relay_draws(pkg, seed: int):
    """(label, inputs, flattened problem, x0) for alternating kowalczyk and
    teixeira relays. Start states sit well inside region 1 or 2."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(RELAY_JOBS):
        sign = float(rng.choice([-1.0, 1.0]))
        if k % 2 == 0:
            theta = float(rng.uniform(-0.95, -0.85))
            y = sign * float(rng.uniform(0.5, 1.5))
            x0 = np.array([y, y * float(rng.uniform(-0.5, 0.2))])
            spp = pkg.problems.builtin("kowalczyk", theta=theta, eps=RELAY_EPS)
            inputs = (theta, *x0)
        else:
            y1 = sign * float(rng.uniform(0.5, 1.5))
            x0 = np.array([y1, float(rng.uniform(-1.0, 1.0)), y1 * float(rng.uniform(-0.5, 0.25))])
            spp = pkg.problems.builtin("teixeira", eps=RELAY_EPS)
            inputs = tuple(x0)
        draws.append((spp.label, tuple(float(v) for v in inputs),
                      pkg.problems.spp_flatten(spp), x0))
    return draws


def relay_orbit_jobs(pkg, seed: int) -> list:
    """Long integrate calls on the flattened relays: a crossing every ~10
    steps, so location, dense output, h and classification do real work."""
    cfg = pkg.events.IntegratorConfig(tau=RELAY_TAU, t_end=RELAY_T_END)
    return [_integrate_job(pkg, label, inputs, problem, x0, cfg, check_relay)
            for label, inputs, problem, x0 in _relay_draws(pkg, seed)]


def relay_fd_jobs(pkg, seed: int) -> list:
    """The relay-orbit inputs handed over as derivative-free problems: only
    f1, f2 and h. Jacobians and the h gradient then come from the
    finite-difference stencils, and without the slow/fast link every hit is
    classified on the stacked fields."""
    cfg = pkg.events.IntegratorConfig(tau=RELAY_TAU, t_end=RELAY_T_END)
    jobs = []
    for label, inputs, flat, x0 in _relay_draws(pkg, seed):
        bare = pkg.problems.PiecewiseProblem(
            dim=flat.dim, f1=flat.f1, f2=flat.f2, h=flat.h, label=label + "/fd")
        jobs.append(_integrate_job(pkg, label + "/fd", inputs, bare, x0, cfg, check_relay))
    return jobs


def najafi_guarded_jobs(pkg, seed: int) -> list:
    """Short guarded integrations of the square-root model from offset
    starts: nearly every run shortens one step (case 1b) and runs one dense
    guard before the surface."""
    rng = np.random.default_rng(seed)
    cfg = pkg.events.IntegratorConfig(
        tau=NAJAFI_TAU, t_end=NAJAFI_T_END, guard_mode=pkg.onesided.GuardMode.ROS2_DENSE)
    jobs = []
    for _ in range(NAJAFI_JOBS):
        x0 = np.array([float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 0.9))])
        jobs.append(_integrate_job(pkg, "najafi", tuple(float(v) for v in x0),
                                   pkg.problems.builtin("najafi"), x0, cfg, check_najafi))
    return jobs


WORKLOADS = {
    "order-ladder": Workload(order_ladder_jobs, analytic=True),
    "relay-orbit": Workload(relay_orbit_jobs, analytic=True),
    "relay-fd": Workload(relay_fd_jobs, analytic=False),
    "najafi-guarded": Workload(najafi_guarded_jobs, analytic=True),
}

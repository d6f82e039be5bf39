"""Convergence studies against a refined reference, plus CSV serialization.

A study integrates up to the first surface hit for a sequence of halved
step sizes and reports the Euclidean error of the located event state
against a reference computed with the two-stage method at a much smaller
step. Successive error ratios ("reduction factors") sit near 4 for a
second-order event integrator, near 2 for the one-stage variant, and
collapse toward 2^1 (erratically) when event location is disabled.

All CSV output is byte-deterministic: repr() float cells, comma separators,
"\n" line endings, empty cells for absent values.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import onesided, problems, rosenbrock
from .errors import NoEventBeforeHorizon
from .events import IntegratorConfig, Termination, integrate

#: per-eps starting steps for the relay-filter study with the two-stage method
TABLE2_TAU0 = {1e-2: 1e-3, 1e-3: 4e-5, 1e-4: 1e-5}

#: per-eps starting steps for the one-stage variant of the same study
TABLE1_TAU0 = {1e-2: 1e-3, 1e-3: 1e-5, 1e-4: 1e-6}

ORDER_STUDY_HEADER = "tau,epsilon,global_error,reduction_factor"

#: the reference runs at the finest study step divided by this
REFERENCE_REFINEMENT = 64

#: surface-residual tolerance of the reference run's event location
REFERENCE_H_TOL = 1e-13


@dataclass(frozen=True)
class OrderStudyRow:
    tau: float
    eps: float | None
    global_error: float
    reduction_factor: float | None


def _dense_guard(problem: problems.PiecewiseProblem, method: rosenbrock.RosMethod):
    # a two-stage step must not cross the surface into field 1's domain edge
    if method.stages == 2 and problem.domain_f1 is not None:
        return onesided.GuardMode.ROS2_DENSE
    return None


def _first_event(result, t_end: float, run: str):
    # NoEventBeforeHorizon names how a run without a hit ended
    if result.events:
        return result.events[0]
    if result.termination is Termination.REACHED_T_END:
        raise NoEventBeforeHorizon(f"no surface hit before t = {t_end:g} in {run}")
    raise NoEventBeforeHorizon(
        f"{run} ended by {result.termination.value} before a surface hit")


def reference_event_state(problem: problems.PiecewiseProblem, x0, tau_min: float,
                          t_end: float = 1.0):
    """(t, x) of the first surface hit, two-stage method at
    tau_min/REFERENCE_REFINEMENT."""
    cfg = IntegratorConfig(
        tau=tau_min / REFERENCE_REFINEMENT,
        t_end=t_end,
        method=rosenbrock.ROS2,
        h_tol=REFERENCE_H_TOL,
        guard_mode=_dense_guard(problem, rosenbrock.ROS2),
        max_events=1,
    )
    event = _first_event(integrate(problem, x0, cfg), t_end, "the reference run")
    return event.t_star, event.x_star


def run_order_study(problem, method: rosenbrock.RosMethod = rosenbrock.ROS2,
                    tau0: float = 1e-3, halvings: int = 4, *,
                    locate: bool = True, t_end: float = 1.0, x0=None) -> list:
    """Error at the first surface hit for tau0, tau0/2, ..., tau0/2^halvings.

    Accepts a plain piecewise problem or a slow/fast system (flattened
    here). Each row carries the error against the shared reference state
    and the ratio to the previous row's error. Two-stage runs, the
    reference included, use the dense-output guard when field 1 has a
    domain, and the guard needs a declared surface (onesided): on such a
    problem with an undeclared surface the study raises ValueError.
    """
    if halvings < 0:
        raise ValueError(f"halvings must be non-negative, got {halvings}")
    if not 0.0 < tau0 < math.inf:
        raise ValueError(f"tau0 must be positive and finite, got {tau0}")
    if isinstance(problem, problems.SppProblem):
        problem = problems.spp_flatten(problem)
    if x0 is None:
        x0 = problem.x0
    if x0 is None:
        raise ValueError("problem has no default initial state; pass x0")
    spp = problem.source_spp
    eps = spp.eps if spp is not None else None

    taus = [tau0 * 0.5**k for k in range(halvings + 1)]
    _, x_ref = reference_event_state(problem, x0, taus[-1], t_end)

    rows = []
    prev_err = None
    for tau in taus:
        cfg = IntegratorConfig(
            tau=tau, t_end=t_end, method=method, locate_events=locate,
            guard_mode=_dense_guard(problem, method), max_events=1,
        )
        event = _first_event(integrate(problem, x0, cfg), t_end, f"the run at tau = {tau:g}")
        err = float(np.linalg.norm(event.x_star - x_ref))
        if prev_err is None:
            factor = None
        else:
            factor = prev_err / err if err > 0.0 else math.inf
        rows.append(OrderStudyRow(tau=tau, eps=eps, global_error=err,
                                  reduction_factor=factor))
        prev_err = err
    return rows


def mean_observed_order(rows) -> float:
    """Mean log2 of the reduction factors, i.e. the observed order."""
    factors = [r.reduction_factor for r in rows if r.reduction_factor is not None]
    if not factors:
        raise ValueError("need at least two rows to estimate an order")
    return float(np.mean([math.log2(f) for f in factors]))


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def order_study_csv(rows) -> str:
    lines = [ORDER_STUDY_HEADER]
    for r in rows:
        lines.append(",".join(
            [_cell(r.tau), _cell(r.eps), _cell(r.global_error),
             _cell(r.reduction_factor)]
        ))
    return "\n".join(lines) + "\n"


def parse_order_study_csv(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ORDER_STUDY_HEADER.split(","):
        raise ValueError(f"unexpected order-study header: {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        tau, eps, err, factor = rec
        rows.append(OrderStudyRow(
            tau=float(tau),
            eps=float(eps) if eps else None,
            global_error=float(err),
            reduction_factor=float(factor) if factor else None,
        ))
    return rows


def events_csv(events, dim: int) -> str:
    cols = ["index", "t", "theta", "direction", "residual"] + [
        f"x{i}" for i in range(dim)
    ]
    lines = [",".join(cols)]
    for ev in events:
        cells = [str(ev.step_index), _cell(ev.t_star), _cell(ev.theta_star),
                 ev.direction.value, _cell(ev.residual)]
        cells.extend(_cell(v) for v in ev.x_star)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def trajectory_csv(mesh) -> str:
    if not mesh:
        raise ValueError("empty mesh")
    dim = len(mesh[0][1])
    cols = ["t"] + [f"x{i}" for i in range(dim)]
    lines = [",".join(cols)]
    for t, x in mesh:
        lines.append(",".join([_cell(t)] + [_cell(v) for v in x]))
    return "\n".join(lines) + "\n"

"""Acceptance suite: one test per headline capability, tolerances pinned.

Each test states its pass band in the assertions themselves. Step-size
ladders start from the documented tau0 values in rosevent.bench
(TABLE1_TAU0 / TABLE2_TAU0); deviations from round numbers there are
deliberate and explained next to the tables.
"""

import math
import time
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest

from rosevent.bench import (
    TABLE1_TAU0,
    TABLE2_TAU0,
    mean_observed_order,
    parse_order_study_csv,
    run_order_study,
)
from rosevent.cli import cli_main
from rosevent.events import Direction, IntegratorConfig, Termination, integrate, locate_event
from rosevent.filippov import Kind, classify_general, classify_spp, filippov_coeffs
from rosevent.onesided import GuardMode
from rosevent.problems import (
    PiecewiseProblem,
    SppProblem,
    builtin,
    eval_field,
    field_jacobian,
    reduced_order_model,
    spp_flatten,
)
from rosevent.rosenbrock import (
    GAMMA_ROS2,
    ROS1,
    dense_eval,
    method_by_name,
    restep,
    ros2_step,
)

SLIDING_KINDS = (Kind.SLIDING, Kind.SLIDING_ATTRACTIVE, Kind.SLIDING_REPULSIVE)


def study_factors(rows):
    return [r.reduction_factor for r in rows if r.reduction_factor is not None]


def test_criterion_01_second_order_reduction_factors():
    start = time.monotonic()
    for eps, tau0 in sorted(TABLE2_TAU0.items(), reverse=True):
        rows = run_order_study(builtin("kowalczyk", eps=eps), tau0=tau0, halvings=4)
        factors = study_factors(rows)
        assert len(factors) == 4
        for f in factors:
            assert 3.4 <= f <= 4.3, (eps, factors)
        order = mean_observed_order(rows)
        assert 1.85 <= order <= 2.1, (eps, order)
        errors = [r.global_error for r in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
    assert time.monotonic() - start < 60.0


def test_criterion_01_holds_with_finite_difference_jacobians():
    # the relay with its fields and h only: its plain steps keep a
    # finite-difference W across each region visit (a W-method), and the
    # event states keep second order
    flat = spp_flatten(builtin("kowalczyk", eps=1e-2))
    bare = PiecewiseProblem(flat.dim, flat.f1, flat.f2, flat.h, x0=flat.x0)
    rows = run_order_study(bare, tau0=TABLE2_TAU0[1e-2], halvings=4)
    factors = study_factors(rows)
    assert len(factors) == 4
    for f in factors:
        assert 3.4 <= f <= 4.3, factors


def test_criterion_02_first_order_reduction_factors():
    start = time.monotonic()
    for eps, tau0 in sorted(TABLE1_TAU0.items(), reverse=True):
        rows = run_order_study(builtin("kowalczyk", eps=eps), method=ROS1,
                               tau0=tau0, halvings=4)
        factors = study_factors(rows)
        assert len(factors) == 4
        for f in factors:
            assert 1.85 <= f <= 2.15, (eps, factors)
        errors = [r.global_error for r in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
    assert time.monotonic() - start < 60.0


def test_criterion_03_order_falls_to_one_without_location():
    # naive switching leaves an O(tau) error at the first mesh point past
    # the surface; tau0 values are chosen off the events' dyadic grids so
    # halving actually moves that mesh point (see README)
    tent_rows = run_order_study(builtin("tent"), tau0=0.07, halvings=4,
                                locate=False)
    tent_order = mean_observed_order(tent_rows)
    assert 0.8 <= tent_order <= 1.3, tent_order

    kow_rows = run_order_study(builtin("kowalczyk", eps=1e-2), tau0=1.05e-3,
                               halvings=4, locate=False)
    kow_order = mean_observed_order(kow_rows)
    assert 0.8 <= kow_order <= 1.3, kow_order

    # with location on, the same ladders sit at second order (criterion 1)
    located = run_order_study(builtin("kowalczyk", eps=1e-2), tau0=1.05e-3,
                              halvings=4)
    assert mean_observed_order(located) >= 1.85


def test_criterion_04_dense_output_matches_endpoints():
    rng = np.random.default_rng(20260822)
    najafi = builtin("najafi")
    tent = builtin("tent")
    linear = builtin("linear_test")
    kow = spp_flatten(builtin("kowalczyk", eps=1e-2))
    tex = spp_flatten(builtin("teixeira", eps=1e-2))
    ost = spp_flatten(builtin("ostermann_modified", eps=1e-3))

    def tame(lo, hi, n):
        return rng.uniform(lo, hi, size=n) * rng.choice([-1.0, 1.0], size=n)

    # (problem, field, tau cap, state sampler) covering every builtin family
    draws = [
        (tent, 1, 0.5, lambda: tame(0.2, 2.0, 1)),
        (tent, 2, 0.5, lambda: tame(0.2, 2.0, 1)),
        (linear, 1, 0.5, lambda: tame(0.2, 2.0, 1)),
        (najafi, 1, 0.2, lambda: np.array([rng.uniform(0.2, 2.0),
                                           rng.uniform(0.0, 0.7)])),
        (najafi, 2, 0.5, lambda: np.array([rng.uniform(0.2, 2.0),
                                           rng.uniform(0.0, 3.0)])),
        (kow, 1, 2e-3, lambda: tame(0.2, 1.5, 2)),
        (kow, 2, 2e-3, lambda: tame(0.2, 1.5, 2)),
        (tex, 1, 2e-3, lambda: tame(0.2, 1.5, 3)),
        (tex, 2, 2e-3, lambda: tame(0.2, 1.5, 3)),
        (ost, 1, 2e-4, lambda: tame(0.2, 1.5, 3)),
        (ost, 2, 2e-4, lambda: tame(0.2, 1.5, 3)),
    ]
    worst = 0.0
    for i in range(10_000):
        problem, which, tau_cap, sampler = draws[i % len(draws)]
        x = sampler()
        tau = float(rng.uniform(0.1, 1.0)) * tau_cap
        step = ros2_step(partial(eval_field, problem, which), x, tau,
                         field_jacobian(problem, which, x))
        npt.assert_array_equal(dense_eval(step, 0.0), step.x0)  # bit-exact
        gap = float(np.max(np.abs(dense_eval(step, 1.0) - step.x1)))
        allowance = 4.0 * float(np.spacing(np.max(np.abs(step.x1))))
        assert gap <= allowance, (problem.label, which, tau, gap, allowance)
        worst = max(worst, gap / allowance if allowance else 0.0)
    assert worst <= 1.0


def test_criterion_05_interpolant_carries_the_method_order():
    lam = -1.0
    problem = builtin("linear_test", lam=lam)
    thetas = np.linspace(0.0, 1.0, 33)

    def sup_error(tau0):
        field = partial(eval_field, problem, 1)
        x = np.array([1.0])
        t = 0.0
        sup = 0.0
        while t < 1.0 - 1e-12:
            tau = min(tau0, 1.0 - t)
            step = ros2_step(field, x, tau, field_jacobian(problem, 1, x))
            for theta in thetas:
                exact = math.exp(lam * (t + theta * tau))
                sup = max(sup, abs(float(dense_eval(step, float(theta))[0]) - exact))
            x = step.x1
            t += tau
        return sup

    errs = [sup_error(0.1 / 2**k) for k in range(5)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    mean_order = float(np.mean(orders))
    assert 1.85 <= mean_order <= 2.15, (errs, orders)


def test_criterion_06_guarded_stepping_never_trespasses_the_domain():
    runs = [((1.0, 0.0), 2.0**-k) for k in range(3, 11)]
    runs += [((1.0, 0.3), 2.0**-5), ((0.7, 0.55), 2.0**-5)]
    assert len(runs) == 10
    for x0, tau in runs:
        problem = builtin("najafi")
        cfg = IntegratorConfig(tau=tau, t_end=2.0,
                               guard_mode=GuardMode.ROS2_DENSE)
        result = integrate(problem, x0, cfg)
        assert result.stats.domain_violations == {1: 0, 2: 0}, (x0, tau)
        assert len(result.events) >= 1
        assert result.termination is Termination.REACHED_T_END


def test_criterion_06_cli_reports_zero_domain_violations(capsys):
    code = cli_main(["integrate", "--problem", "najafi", "--guard", "ros2-dense",
                     "--tau", "0.125", "--t-end", "2"])
    assert code == 0
    assert "domain violations: f1 0, f2 0" in capsys.readouterr().out


def test_criterion_07_location_is_free_and_consistent(monkeypatch):
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    tau = 2e-5
    cfg = IntegratorConfig(tau=tau, t_end=1.0, max_events=1)
    result = integrate(problem, problem.x0, cfg)
    ev = result.events[0]
    t0, x_before = result.mesh[ev.step_index]
    fld = partial(eval_field, problem, 1)
    step = ros2_step(fld, x_before, tau, field_jacobian(problem, 1, x_before))

    # part 1: zero field evaluations and zero linear solves during location
    import rosevent.linalg as _linalg

    def banned(*a, **k):  # pragma: no cover
        raise AssertionError("linear algebra called during event location")

    monkeypatch.setattr(_linalg, "lu_factor", banned)
    monkeypatch.setattr(_linalg, "lu_solve", banned)
    before = problem.counters.snapshot()[0]
    # integrate locates on the declared surface's polynomial, so does this
    record = locate_event(step, problem.h, cfg, surface=problem.surface)
    assert problem.counters.snapshot()[0] == before
    monkeypatch.undo()

    # part 2: the theta-space root agrees with the sigma-space oracle built
    # from fully re-run shortened steps
    lo, hi = 0.0, tau
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(problem.h(restep(fld, step, mid).x1)) > 0.0:
            hi = mid
        else:
            lo = mid
    sigma_star = 0.5 * (lo + hi)
    assert abs((t0 + sigma_star) - ev.t_star) <= 1e-10
    # the standalone location above reproduces the driver's event exactly
    assert record.theta_star == ev.theta_star
    assert abs((t0 + record.t_star) - ev.t_star) <= 1e-15


def fast_only_problem(eps, offset):
    # stacked state u = (y, z): F_i = [f_i; g], g = y - z shared
    return SppProblem(PiecewiseProblem(
        dim=2,
        f1=lambda u: np.array([1.0, u[0] - u[1]]),
        f2=lambda u: np.array([-2.0, u[0] - u[1]]),
        h=lambda u: u[1] - offset,
        grad_h=lambda u: np.array([0.0, 1.0]),
    ), slow_dim=1, eps=eps)


def test_criterion_08a_fast_only_surfaces_always_cross():
    for offset in (0.3, -0.7):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            problem = fast_only_problem(eps, offset)
            coeffs = filippov_coeffs(problem, [1.0, offset])
            assert classify_spp(coeffs, eps) is Kind.CROSSING, (offset, eps)


def test_criterion_08b_feedthrough_events_cross_when_fast_state_nonzero():
    spp = builtin("ostermann_modified", eps=1e-3)
    problem = spp_flatten(spp)
    cfg = IntegratorConfig(tau=1e-3, t_end=1.0)
    result = integrate(problem, problem.x0, cfg)
    assert result.termination is Termination.REACHED_T_END
    assert len(result.events) >= 1
    for ev in result.events:
        z = float(ev.x_star[2])
        assert abs(z) > 1e-3
        coeffs = filippov_coeffs(spp, ev.x_star)
        assert classify_spp(coeffs, spp.eps) is Kind.CROSSING


def test_criterion_08c_relay_attractive_sliding_impossible():
    rng = np.random.default_rng(7)
    for eps in (1e-1, 1e-3):
        spp = builtin("teixeira", eps=eps)
        flat = spp_flatten(spp)
        for _ in range(25):
            y1 = float(rng.uniform(-2.0, 2.0))
            y2 = float(rng.uniform(-2.0, 2.0))
            u = np.array([y1, y2, y1 / 2.0])
            kind = classify_general(flat, u).kind
            assert kind is not Kind.SLIDING_ATTRACTIVE, (eps, y1)


def test_criterion_08d_fast_and_stacked_classifiers_agree():
    rng = np.random.default_rng(99)

    def surface_states():
        states = []
        for _ in range(34):
            y = float(rng.uniform(-2.0, 2.0))
            states.append(("kowalczyk", np.array([y, 0.9 * y / 1.9])))
        for _ in range(33):
            y1, y2 = rng.uniform(-2.0, 2.0, size=2)
            states.append(("teixeira", np.array([y1, y2, y1 / 2.0])))
        for _ in range(33):
            y2, z = rng.uniform(-2.0, 2.0, size=2)
            states.append(("ostermann_modified", np.array([0.0, y2, z])))
        return states

    states = surface_states()
    assert len(states) == 100
    compared = 0
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        cache = {}
        for name, u in states:
            if name not in cache:
                spp = builtin(name, eps=eps)
                cache[name] = (spp, spp_flatten(spp))
            spp, flat = cache[name]
            coeffs = filippov_coeffs(spp, u)
            if abs(coeffs.quadratic(eps)) <= 1e-8:
                continue  # tangential band
            full = classify_general(flat, u)
            if min(abs(p) for p in full.normal_products) <= 1e-8:
                continue
            fast = classify_spp(coeffs, eps)
            if fast is Kind.CROSSING:
                assert full.kind is Kind.CROSSING, (name, eps, u)
            else:
                assert fast is Kind.SLIDING
                assert full.kind in SLIDING_KINDS, (name, eps, u)
            compared += 1
    assert compared >= 300


def test_criterion_09_relay_orbit_versus_reduced_model():
    spp = builtin("kowalczyk", eps=1e-2)
    problem = spp_flatten(spp)
    cfg = IntegratorConfig(tau=1e-4, t_end=1.5)
    result = integrate(problem, problem.x0, cfg)
    assert result.termination is Termination.REACHED_T_END
    assert len(result.events) >= 4
    directions = [ev.direction for ev in result.events]
    for prev, cur in zip(directions, directions[1:]):
        assert cur is not prev  # strictly alternating crossings

    # successive same-direction crossing states approach the periodic orbit
    returns = [ev.x_star for ev in result.events
               if ev.direction is Direction.R1_TO_R2]
    assert len(returns) >= 4
    gaps = [float(np.linalg.norm(b - a)) for a, b in zip(returns, returns[1:])]
    ratios = [b / a for a, b in zip(gaps, gaps[1:])
              if a > 1e-8 and b > 1e-8]
    # drop the entry transient (first gap) and require contraction
    assert ratios[1:], gaps
    assert all(r < 1.0 for r in ratios[1:]), (gaps, ratios)

    # the eps = 0 reduced model loses the orbit: it decays to the surface
    # and stays there
    reduced = reduced_order_model(spp, lambda y: np.asarray(y, dtype=float))
    red = integrate(reduced, [1.0], IntegratorConfig(tau=1e-3, t_end=2.0))
    assert red.termination is Termination.SLIDING
    values = [float(x[0]) for _, x in red.mesh]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert abs(values[-1]) <= 1e-9


def test_criterion_10_stiff_modes_are_damped():
    lam = -1e6
    gamma = GAMMA_ROS2

    def stability(z):
        return (1.0 + (1.0 - 2.0 * gamma) * z) / (1.0 - gamma * z) ** 2

    for tau in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        z = tau * lam
        assert abs(stability(z)) < 1.0
        step = ros2_step(lambda x: lam * x, np.array([1.0]), tau,
                         np.array([[lam]]))
        npt.assert_allclose(step.x1[0], stability(z), rtol=1e-9, atol=1e-13)
        assert abs(step.x1[0]) < 1.0


def test_cli_walkthrough_examples(tmp_path, capsys):
    out = tmp_path / "table2.csv"
    code = cli_main(["order-study", "--problem", "kowalczyk", "--method", "ros2",
                     "--eps", "1e-2", "--tau0", "1e-3", "--halvings", "4",
                     "--out", str(out)])
    assert code == 0
    rows = parse_order_study_csv(out.read_text())
    assert len(rows) == 5
    capsys.readouterr()

    code = cli_main(["classify", "--problem", "ostermann_modified",
                     "--eps", "1e-3", "--state", "0,-1,2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "A = 4" in text
    assert "B = 0" in text
    assert "Csq = 0" in text
    assert "classification: crossing" in text

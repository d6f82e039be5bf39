"""Event detection, safe-side location, and the integration driver."""

import contextlib
import functools
import math
import random
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rosevent.events
import rosevent.linalg
import rosevent.onesided
import rosevent.problems
import rosevent.rosenbrock
from rosevent import linalg
from rosevent.errors import (DomainViolation, NoBracket, NonFiniteState, NotOrthogonal,
                             ResidualTooLarge, SingularMatrix)
from rosevent.events import (
    REUSE_STEPS,
    SECANT_RTOL,
    SNAP_TRIES,
    THETA_TOL,
    Direction,
    EventRecord,
    IntegratorConfig,
    Termination,
    detect_sign_change,
    integrate,
    locate_event,
)
from rosevent.onesided import GuardMode, guarded_ros2_step
from rosevent.problems import (
    SIGMA_TOL,
    Affine,
    FloatField,
    PiecewiseProblem,
    SppProblem,
    Surface,
    affine_problem,
    builtin,
    eval_field,
    field_jacobian,
    problem_names,
    reduced_order_model,
    spp_flatten,
)
from rosevent.rosenbrock import (
    C_ROS2,
    GAMMA_ROS1,
    GAMMA_ROS2,
    ROS1,
    ROS2,
    RosMethod,
    dense_derivative,
    dense_eval,
    method_by_name,
    restep,
    ros1_step,
    ros2_step,
)


def array_field(problem, which):
    """problems.eval_field as a public step's field: the float array the
    step hands it, as the floats eval_field takes."""
    return lambda x: eval_field(problem, which, x.tolist())


def unit_speed_step(x0=0.0, tau=1.0):
    """Two-stage step on x' = 1, whose dense output is x0 + theta*tau."""
    return ros2_step(lambda x: np.array([1.0]), np.array([x0]), tau,
                     np.array([[0.0]]))


def default_cfg(**kw):
    kw.setdefault("tau", 1.0)
    kw.setdefault("t_end", 1.0)
    return IntegratorConfig(**kw)


# --- detection -------------------------------------------------------------

def test_detect_sign_change_is_strict():
    assert detect_sign_change(-1.0, 1.0)
    assert detect_sign_change(1.0, -1.0)
    assert not detect_sign_change(0.0, 1.0)
    assert not detect_sign_change(-1.0, 0.0)
    assert not detect_sign_change(0.0, 0.0)
    assert not detect_sign_change(1.0, 2.0)
    assert not detect_sign_change(-2.0, -1.0)
    # denormals still carry a usable sign
    assert detect_sign_change(-5e-324, 5e-324)


# --- location --------------------------------------------------------------

def test_locate_linear_dense_output_first_midpoint():
    step = unit_speed_step()
    record = locate_event(step, lambda x: x[0] - 0.5, default_cfg())
    assert record.theta_star == 0.5
    assert record.root_iterations == 1
    assert record.residual <= 1e-12
    assert record.converged
    assert record.direction is Direction.R1_TO_R2
    assert record.t_star == 0.5
    npt.assert_allclose(record.x_star, [0.5], rtol=0, atol=1e-12)


def test_locate_reports_offset_time_and_direction():
    step = unit_speed_step()
    record = locate_event(step, lambda x: 0.5 - x[0], default_cfg(),
                          step_index=7, t_offset=3.0)
    assert record.step_index == 7
    assert record.direction is Direction.R2_TO_R1
    assert abs(record.t_star - 3.5) <= 1e-12


def test_locate_requires_bracket():
    step = unit_speed_step()
    with pytest.raises(NoBracket):
        locate_event(step, lambda x: x[0] - 5.0, default_cfg())


def test_locate_never_leaves_departing_side_on_width_exit():
    # force width termination: h jumps at its root, so no float is a zero
    # and no residual passes h_tol = 0
    third = 1.0 / 3.0

    def h(x):
        return x[0] - third if x[0] < third else x[0] - third + 0.5

    step = unit_speed_step()
    record = locate_event(step, h, default_cfg(h_tol=0.0))
    assert record.converged
    assert record.root_iterations <= math.ceil(math.log2(1.0 / THETA_TOL)) + 1
    # the returned point sits on the departing (negative) side
    assert h(record.x_star) < 0.0
    assert abs(record.theta_star - third) <= THETA_TOL


def _builtin_step(name, which, tau, shift):
    """A two-stage step of one field of a builtin from its default state
    moved by shift in every coordinate."""
    spec = builtin(name)
    problem = spp_flatten(spec) if isinstance(spec, SppProblem) else spec
    x0 = problem.x0 + shift
    return ros2_step(array_field(problem, which), x0, tau,
                     field_jacobian(problem, which, x0.tolist()))


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(problem_names()),
    which=st.sampled_from((1, 2)),
    tau=st.floats(min_value=1e-6, max_value=0.5),
    shift=st.floats(min_value=-0.2, max_value=0.2),
    s=st.floats(min_value=0.0, max_value=1.0),
    curvature=st.just(0.0) | st.floats(min_value=-1.0, max_value=1.0),
    tilt=st.floats(min_value=-1.0, max_value=1.0),
    flip=st.booleans(),
)
def test_locate_ends_converged_within_41_calls_on_the_departing_side(
        name, which, tau, shift, s, curvature, tilt, flip):
    # The ITP search of [0, 1] reaches the width exit at THETA_TOL after at
    # most 41 iterations, bisection's 40 plus one, for any bracketing h: no
    # iteration cap is needed and every record is converged.
    step = _builtin_step(name, which, tau, shift)
    d = step.x1 - step.x0
    scale = float(np.linalg.norm(d))
    assume(scale > 0.0)
    normal = d + tilt * np.roll(d, 1)
    p = dense_eval(step, s)
    sign = -1.0 if flip else 1.0

    def h(x):
        r = x - p
        return sign * (float(normal @ r) + curvature / scale * float(r @ r)
                       * float(np.linalg.norm(normal)))

    h0 = h(dense_eval(step, 0.0))
    h1 = h(dense_eval(step, 1.0))
    assume(detect_sign_change(h0, h1))
    record = locate_event(step, h, default_cfg())
    assert record.converged
    assert 1 <= record.root_iterations <= 41
    assert 0.0 <= record.theta_star <= 1.0
    g = h(record.x_star)
    assert (g <= 0.0) if h0 < 0.0 else (g >= 0.0)


def test_locate_costs_no_field_evals_or_solves(monkeypatch, counting):
    problem = builtin("tent")
    x = np.array([0.4])
    step = ros2_step(array_field(problem, 1), x, 0.2,
                     field_jacobian(problem, 1, x.tolist()))

    def banned(*a, **k):  # pragma: no cover - should never run
        raise AssertionError("linear algebra called during event location")

    # any solve needs lu_factor's factors and runs in the step kernel
    monkeypatch.setattr(rosevent.linalg, "lu_factor", banned)
    monkeypatch.setattr(rosevent.linalg, "lu_solve", banned)
    monkeypatch.setattr(rosevent.rosenbrock, "kernel", banned)
    with counting() as stats:
        record = locate_event(step, problem.h, default_cfg())
    assert stats.f_evals == {1: 0, 2: 0}
    assert abs(record.t_star - 0.1) <= 1e-12  # theta* = 0.5 of tau = 0.2


def test_located_theta_matches_shortened_step_root():
    # the theta-space root on the interpolant must agree with the root of
    # sigma -> h(x1(sigma)) over re-run shortened steps
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    tau = 1e-3
    cfg = IntegratorConfig(tau=tau, t_end=1.0, max_events=1)
    result = integrate(problem, problem.x0, cfg)
    assert result.termination is Termination.MAX_EVENTS
    ev = result.events[0]

    t0, x_before = result.mesh[ev.step_index]
    assert abs(t0 - ev.step_index * tau) < 1e-12
    fld = array_field(problem, 1)
    step = ros2_step(fld, x_before, tau, field_jacobian(problem, 1, x_before.tolist()))
    assert float(problem.h(step.x1)) > 0.0

    lo, hi = 0.0, tau
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(problem.h(restep(fld, step, mid).x1)) > 0.0:
            hi = mid
        else:
            lo = mid
    sigma_star = 0.5 * (lo + hi)
    # interpolation bias between the two parameterisations is O(tau^3)
    assert abs((t0 + sigma_star) - ev.t_star) <= 5e-8


# --- integration driver ----------------------------------------------------

def test_integrate_validates_inputs():
    tent = builtin("tent")
    with pytest.raises(ValueError, match="surface"):
        integrate(tent, [0.5], default_cfg(tau=0.1))
    with pytest.raises(ValueError, match="shape"):
        integrate(tent, [0.0, 0.0], default_cfg(tau=0.1))
    with pytest.raises(ValueError, match="tau"):
        integrate(tent, [0.0], default_cfg(tau=-1.0))
    with pytest.raises(ValueError, match="t_end"):
        integrate(tent, [0.0], default_cfg(tau=0.1, t_end=0.0))
    for max_events in (0, -1):
        with pytest.raises(ValueError, match="max_events"):
            integrate(tent, [0.0], default_cfg(tau=0.1, max_events=max_events))


@pytest.mark.parametrize("t_end", [math.inf, math.nan])
def test_integrate_rejects_a_horizon_that_is_not_finite(t_end):
    # an infinite horizon never ends a run that does not slide
    with pytest.raises(ValueError, match="t_end must be positive and finite"):
        integrate(builtin("tent"), [0.0], default_cfg(tau=0.1, t_end=t_end))


@pytest.mark.parametrize("h_tol", [math.inf, math.nan, -1.0])
def test_integrate_rejects_an_event_tolerance_that_is_not_a_finite_size(h_tol):
    # at h_tol = inf the first departing-side midpoint is accepted however
    # far from the surface, and the field switches at a state off it
    relay = spp_flatten(builtin("kowalczyk", eps=1e-2))
    with pytest.raises(ValueError, match="h_tol must be non-negative and finite"):
        integrate(relay, relay.x0, default_cfg(tau=1e-3, t_end=0.3, h_tol=h_tol))


def test_integrate_accepts_a_zero_event_tolerance():
    relay = spp_flatten(builtin("kowalczyk", eps=1e-2))
    result = integrate(relay, relay.x0, default_cfg(tau=1e-3, t_end=0.3, h_tol=0.0))
    assert result.termination is Termination.REACHED_T_END
    assert result.events


def test_integrate_rejects_an_event_function_that_is_not_finite_at_x0():
    # h = NaN never changes sign, so the run would report no events
    tent = builtin("tent")
    nan_h = PiecewiseProblem(dim=1, f1=tent.f1, f2=tent.f2, h=lambda x: math.nan)
    with pytest.raises(ValueError, match="h is not finite at the initial state"):
        integrate(nan_h, [0.0], default_cfg(tau=0.1))


@pytest.mark.parametrize("name, x0", [("najafi", [math.inf, 0.0]),
                                      ("najafi", [1.0, -math.inf]),
                                      ("najafi", [math.nan, 0.0]),
                                      ("tent", [math.nan])])
def test_integrate_rejects_an_initial_state_that_is_not_finite(name, x0):
    # h(inf, 0) = -1 is finite at najafi: the first step's Jacobian used
    # to reject this state as a matrix
    with pytest.raises(ValueError, match=r"x0 must be finite, got \["):
        integrate(builtin(name), x0, default_cfg(tau=0.1))


def test_integrate_validates_guard_method_pairing():
    tent = builtin("tent")
    ros1 = method_by_name("ros1")
    with pytest.raises(ValueError, match="two-stage"):
        integrate(tent, [0.0], default_cfg(
            tau=0.1, method=ros1, guard_mode=GuardMode.ROS2_DENSE))
    with pytest.raises(ValueError, match="one-stage"):
        integrate(tent, [0.0], default_cfg(
            tau=0.1, guard_mode=GuardMode.ROS1_GENERAL))


@pytest.mark.parametrize("stages", [3, 0])
def test_integrate_rejects_a_method_the_step_kernel_does_not_run(stages):
    # a method's gamma follows from its stage count, and the kernel runs
    # one or two stages: any other count is refused before h or a field is
    # evaluated
    method = RosMethod(stages=stages, label="g05")
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    problem.h = problem.f1 = problem.f2 = None  # refused before any is called
    with pytest.raises(ValueError, match=r"^method 'g05' \(stages=.*\) is neither ROS1 nor ROS2"):
        integrate(problem, problem.x0, default_cfg(tau=1e-3, method=method))
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    for method in (ROS1, ROS2, RosMethod(stages=2, label="copy")):
        run = integrate(problem, problem.x0, default_cfg(tau=1e-3, t_end=0.01, method=method))
        assert run.termination is Termination.REACHED_T_END


def test_a_declared_one_stage_run_forms_slopes_only_for_the_steps_it_locates():
    # a one-stage chord (m2 = 0) never dips, so a step whose ends do not
    # cross forms no slopes; each step that is located forms them once,
    # for location. The wrappers go on before the run, which binds the
    # slopes function once.
    flat = spp_flatten(builtin("kowalczyk", eps=1e-2))
    real_slopes, real_locate = rosevent.rosenbrock.kernel_slopes, rosevent.events.locate_event
    calls = {"slopes": 0, "locate": 0}

    def kernel_slopes(stages, n):
        slopes = real_slopes(stages, n)

        def counted(*args):
            calls["slopes"] += 1
            return slopes(*args)

        return counted

    def locate_event(*args, **kwargs):
        calls["locate"] += 1
        return real_locate(*args, **kwargs)

    with mock.patch.object(rosevent.rosenbrock, "kernel_slopes", kernel_slopes), \
            mock.patch.object(rosevent.events, "locate_event", locate_event):
        result = integrate(flat, flat.x0, default_cfg(tau=1e-3, t_end=1.5, method=ROS1))
    assert (result.stats.steps, len(result.events)) == (1507, 15)
    located = sum(ev.theta_star < 1.0 for ev in result.events)
    assert calls["slopes"] == calls["locate"] == located > 0


@pytest.mark.parametrize("guard", [GuardMode.ROS1_GENERAL, GuardMode.ROS1_ORTHOGONAL])
def test_a_one_stage_guard_adds_no_evaluation_at_the_hit(guard):
    # the 5 steps to the tent's surface are one visit of a declared affine
    # region, which evaluates its J once; the guard at the hit reads the
    # step's own matrix and f(x0), so it adds no Jacobian and no f1. The
    # sixth f1 and the one f2 are the classification's.
    cfg = default_cfg(tau=0.1, method=method_by_name("ros1"), guard_mode=guard)
    result = integrate(builtin("tent"), [0.0], cfg)
    assert result.termination is Termination.SLIDING
    assert [rep.passed for _, rep in result.guard_reports] == [True]
    assert result.stats.steps == 5
    assert result.stats.jacobian_evaluations == 1
    assert result.stats.f_evals == {1: 6, 2: 1}


def test_event_free_trajectory_reaches_t_end():
    problem = builtin("linear_test")
    cfg = IntegratorConfig(tau=0.01, t_end=1.0)
    result = integrate(problem, [1.0], cfg)
    assert result.termination is Termination.REACHED_T_END
    assert result.events == []
    assert result.stats.steps == 100
    assert len(result.mesh) == result.stats.steps + 1
    assert result.stats.f_evals == {1: 200, 2: 0}
    # J and tau stay the same for the 99 steps at tau = 0.01, which share
    # one factorization; round-off in t makes the last step a little
    # shorter than 0.01, so it factors once more
    assert result.stats.lu_factorizations == 2
    t_final, x_final = result.mesh[-1]
    assert abs(t_final - 1.0) <= 1e-12
    assert abs(x_final[0] - math.exp(-1.0)) <= 1e-4


def test_naive_equals_located_when_event_free():
    problem = builtin("linear_test")
    cfg = IntegratorConfig(tau=0.01, t_end=1.0)
    a = integrate(problem, [1.0], cfg)
    b = integrate(problem, [1.0], IntegratorConfig(tau=0.01, t_end=1.0,
                                                   locate_events=False))
    assert a.termination is b.termination
    assert len(a.mesh) == len(b.mesh)
    for (ta, xa), (tb, xb) in zip(a.mesh, b.mesh):
        assert ta == tb
        npt.assert_array_equal(xa, xb)


def test_tent_slides_at_apex():
    problem = builtin("tent")
    cfg = IntegratorConfig(tau=0.03, t_end=1.0)
    result = integrate(problem, [0.0], cfg)
    assert result.termination is Termination.SLIDING
    assert len(result.events) == 1
    ev = result.events[0]
    assert abs(ev.t_star - 0.5) <= 1e-10
    assert ev.direction is Direction.R1_TO_R2
    # the trajectory stops at the located surface state
    assert result.mesh[-1][0] == ev.t_star


def test_naive_switch_happens_at_mesh_point():
    problem = builtin("tent")
    cfg = IntegratorConfig(tau=0.03, t_end=0.6, locate_events=False)
    result = integrate(problem, [0.0], cfg)
    assert len(result.events) >= 1
    ev = result.events[0]
    assert ev.theta_star == 1.0
    # the recorded event time is the end of the crossing step
    assert abs(ev.t_star / 0.03 - round(ev.t_star / 0.03)) < 1e-9
    assert ev.t_star > 0.5


def test_naive_mode_skips_guard_reports_but_keeps_guarded_steps():
    # without location the crossing step is recorded at theta = 1 and no
    # guard report is made; the guarded construction still shortens the
    # step, so field 1 is never evaluated past t = 1
    problem = builtin("najafi")
    cfg = IntegratorConfig(tau=0.125, t_end=1.0, locate_events=False,
                           guard_mode=GuardMode.ROS2_DENSE, max_events=1)
    result = integrate(problem, [1.0, 0.9], cfg)
    assert result.termination is Termination.MAX_EVENTS
    assert result.guard_reports == []
    assert result.stats.domain_violations == {1: 0, 2: 0}
    assert len(result.events) == 1
    ev = result.events[0]
    assert ev.theta_star == 1.0
    assert ev.direction is Direction.R1_TO_R2


def test_naive_band_hit_does_not_repeat_as_a_second_crossing():
    # the shortened step ends inside the band just below the surface; the
    # switch to field 2 must not read the next step as another R1 -> R2 hit
    problem = builtin("najafi")
    cfg = IntegratorConfig(tau=0.125, t_end=1.0, locate_events=False,
                           guard_mode=GuardMode.ROS2_DENSE)
    result = integrate(problem, [1.0, 0.9], cfg)
    assert result.termination is Termination.REACHED_T_END
    assert result.guard_reports == []
    assert result.stats.domain_violations == {1: 0, 2: 0}
    assert [(ev.theta_star, ev.direction) for ev in result.events] == [
        (1.0, Direction.R1_TO_R2)]


@pytest.mark.parametrize("method, guard", [("ros1", None), ("ros2", GuardMode.ROS2_DENSE)])
def test_band_endpoint_past_the_surface_is_located(method, guard):
    # the one-stage step ends ~5e-13 past t = 1, inside the band; recorded
    # at theta = 1, that state was classified by evaluating field 1 past the
    # surface (tests/test_onesided.py has the case-1b way to such an end)
    problem = builtin("najafi")
    tau = 2.0**-5
    result = integrate(problem, [1.0, 1.0 - tau + 5e-13], IntegratorConfig(
        tau=tau, t_end=2 * tau, method=method_by_name(method), guard_mode=guard))
    assert result.termination is Termination.REACHED_T_END
    assert result.stats.domain_violations == {1: 0, 2: 0}
    assert len(result.events) == 1
    ev = result.events[0]
    assert ev.direction is Direction.R1_TO_R2
    assert float(problem.h(ev.x_star)) <= 0.0


def test_domain_violation_carries_step_context():
    problem = builtin("najafi")
    cfg = IntegratorConfig(tau=0.125, t_end=2.0)
    with pytest.raises(DomainViolation, match=r"step \d+.*field 1"):
        integrate(problem, [1.0, 0.3], cfg)


def test_max_events_halts_integration():
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    cfg = IntegratorConfig(tau=1e-3, t_end=1.5, max_events=1)
    result = integrate(problem, problem.x0, cfg)
    assert result.termination is Termination.MAX_EVENTS
    assert len(result.events) == 1


def test_relay_crossings_alternate():
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    cfg = IntegratorConfig(tau=5e-4, t_end=1.5)
    result = integrate(problem, problem.x0, cfg)
    assert result.termination is Termination.REACHED_T_END
    assert len(result.events) >= 4
    directions = [ev.direction for ev in result.events]
    for prev, cur in zip(directions, directions[1:]):
        assert cur is not prev
    times = [t for t, _ in result.mesh]
    assert all(b > a for a, b in zip(times, times[1:]))
    event_times = [ev.t_star for ev in result.events]
    assert all(b > a for a, b in zip(event_times, event_times[1:]))


def test_chattering_after_a_crossing_stops_the_run():
    # at tau/eps = 5 the one-stage step of the new field relaxes the fast
    # state straight back across the surface; switching again would repeat
    # the hit at the step start forever
    problem = spp_flatten(builtin("kowalczyk"))
    cfg = IntegratorConfig(tau=0.05, t_end=1.5, method=method_by_name("ros1"))
    result = integrate(problem, problem.x0, cfg)
    assert result.termination is Termination.CHATTERING
    assert 1 <= len(result.events) <= 3
    last = result.events[-1]
    assert last.direction is Direction.R2_TO_R1
    assert abs(last.t_star - 1.0746414219471) <= 1e-9
    # the turned-back hit is not recorded and the run ends at the crossing
    assert result.mesh[-1][0] == last.t_star
    assert result.mesh[-1][1].tobytes() == last.x_star.tobytes()


AFFINE_BUILTINS = ["tent", "linear_test", "kowalczyk", "teixeira", "ostermann_modified"]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(AFFINE_BUILTINS), method=st.sampled_from(["ros1", "ros2"]),
       tau=st.floats(1e-4, 0.2), log_eps=st.floats(-4.0, -1.0))
def test_every_run_ends_with_increasing_event_times(name, method, tau, log_eps):
    params = {"eps": 10.0**log_eps} if name in ("kowalczyk", "teixeira",
                                                 "ostermann_modified") else {}
    spec = builtin(name, **params)
    problem = spp_flatten(spec) if isinstance(spec, SppProblem) else spec
    # at most ~1000 steps; max_events bounds a run that stops advancing
    cfg = IntegratorConfig(tau=tau, t_end=min(1.5, 1000 * tau),
                           method=method_by_name(method), max_events=10_000)
    result = integrate(problem, problem.x0, cfg)
    assert result.termination is not Termination.MAX_EVENTS
    event_times = [ev.t_star for ev in result.events]
    assert all(b > a for a, b in zip(event_times, event_times[1:]))


def test_event_record_is_frozen():
    record = EventRecord(0, 0.5, 0.5, np.array([0.5]), 0.0,
                         Direction.R1_TO_R2, 1, True)
    with pytest.raises(AttributeError):
        record.theta_star = 0.7


# --- reuse of the step matrix's factors --------------------------------------

def builtin_piecewise(name):
    spec = builtin(name)
    return spp_flatten(spec) if isinstance(spec, SppProblem) else spec


def integrate_counting_lu(problem, x0, cfg):
    """integrate, plus the number of linalg.lu_factor calls it made. The
    problems.eval_field and problems.field_jacobian calls it made are
    counted too, and must be the run's summed f_evals and its
    jacobian_evaluations."""
    calls = {"lu_factor": 0, "eval_field": 0, "field_jacobian": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return mock.patch.object(module, name, call)

    with counted(rosevent.linalg, "lu_factor"), counted(rosevent.problems, "eval_field"), \
            counted(rosevent.problems, "field_jacobian"):
        result = integrate(problem, x0, cfg)
    assert calls["eval_field"] == sum(result.stats.f_evals.values())
    assert calls["field_jacobian"] == result.stats.jacobian_evaluations
    return result, calls["lu_factor"]


def test_a_singular_step_still_counts_its_factorization_and_jacobian():
    # I - tau*J = 1 - 0.5*2 = 0: the first one-stage step evaluates J, and
    # its factorization runs and raises
    problem = builtin("linear_test", lam=2.0)
    cfg = IntegratorConfig(tau=0.5, t_end=1.0, method=method_by_name("ros1"))
    result, lu_calls = integrate_counting_lu(problem, problem.x0, cfg)
    assert result.termination is Termination.SOLVER_FAILURE
    assert result.stats.steps == 0
    assert lu_calls == result.stats.lu_factorizations == 1
    assert result.stats.jacobian_evaluations == 1


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(problem_names()), method=st.sampled_from(["ros1", "ros2"]),
       tau=st.floats(5e-3, 0.2))
def test_reused_factors_give_the_steps_of_fresh_factorizations(name, method, tau):
    problem = builtin_piecewise(name)
    # an unguarded step would evaluate najafi's field 1 past t = 1
    t_end = 0.9 if name == "najafi" else 1.5
    cfg = IntegratorConfig(tau=tau, t_end=t_end, method=method_by_name(method),
                           max_events=6)
    result, lu_calls = integrate_counting_lu(problem, problem.x0, cfg)
    assert lu_calls == result.stats.lu_factorizations <= result.stats.steps

    # replay every mesh interval that no hit truncates with a step that
    # factors its own step matrix
    stepper = ros2_step if method == "ros2" else ros1_step
    events_at = {ev.t_star: ev for ev in result.events}
    replayed = 0
    for (t0, x0), (t1, x1) in zip(result.mesh, result.mesh[1:]):
        end = events_at.get(t1)
        if end is not None and end.x_star.tobytes() == x1.tobytes():
            continue
        start = events_at.get(t0)
        if start is not None and start.x_star.tobytes() == x0.tobytes():
            active = 2 if start.direction is Direction.R1_TO_R2 else 1
        else:
            active = 1 if problem.h(x0) < 0.0 else 2
        fresh = stepper(array_field(problem, active), x0,
                        min(cfg.tau, cfg.t_end - t0), field_jacobian(problem, active, x0.tolist()))
        assert fresh.x1.tobytes() == x1.tobytes(), (t0, active)
        replayed += 1
    assert replayed >= 1


def test_constant_jacobians_factor_once_per_step_size():
    # the flattened relay has the same constant J in both regions
    problem = builtin_piecewise("kowalczyk")
    cfg = IntegratorConfig(tau=1e-3, t_end=1.5, max_events=4)
    result, lu_calls = integrate_counting_lu(problem, problem.x0, cfg)
    assert len(result.events) == 4
    assert result.stats.steps > 500
    assert result.stats.lu_factorizations == lu_calls == 1


def test_a_state_dependent_jacobian_factors_on_every_step():
    # J of najafi's field 1 depends on t, so no two steps share a matrix
    problem = builtin("najafi")
    cfg = IntegratorConfig(tau=0.05, t_end=0.9)
    result, lu_calls = integrate_counting_lu(problem, problem.x0, cfg)
    assert result.events == []
    assert result.stats.steps == 18
    assert result.stats.lu_factorizations == lu_calls == 18


def test_najafis_region_2_steps_reuse_the_factors_of_equal_float_rows():
    # jac_f2 is float-form: every region-2 step evaluates J = 0 afresh, a
    # new list of float rows, and the factor key compares the rows, so the
    # steps after the first solve with the kept factors and give, bit for
    # bit, the steps a fresh factorization gives
    problem = builtin("najafi")
    cfg = IntegratorConfig(tau=0.125, t_end=0.625)
    result, taken = recorded_steps(problem, np.array([1.5, 1.0625]), cfg)
    assert result.termination is Termination.REACHED_T_END and result.events == []
    assert result.stats.steps == len(taken) == 5
    assert (result.stats.lu_factorizations, result.stats.jacobian_evaluations) == (1, 5)
    assert [(active, jacobians) for _, active, _, jacobians in taken] == [(2, 1)] * 5
    for i, (x, _, step, _) in enumerate(taken):
        if i:
            rows = taken[i - 1][2].jac
            assert type(step.jac) is list and step.jac == rows and step.jac is not rows
        assert step.J.tobytes() == np.zeros((2, 2)).tobytes()
        fresh = ros2_step(array_field(problem, 2), x, 0.125, field_jacobian(problem, 2, x))
        for name in ("x1", "k1", "k2"):
            assert getattr(step, name).tobytes() == getattr(fresh, name).tobytes()


def test_float_rows_with_a_nan_never_match_the_kept_factors():
    # a float-form Jacobian that hands out the same lists every call: its
    # rows match the key and the steps after the first reuse the kept
    # factors. Once a NaN is written into them after the first step, the
    # key, which holds its own copy, misses them, and they reach lu_factor,
    # which refuses them
    rows = [[0.0, 0.0], [0.0, 0.0]]
    problem = PiecewiseProblem(dim=2, f1=FloatField(lambda u: [0.0, 1.0]),
                               f2=FloatField(lambda u: [0.0, 1.0]), h=lambda u: u[1] - 1.0,
                               jac_f2=FloatField(lambda u: rows))
    cfg = IntegratorConfig(tau=0.125, t_end=0.5)
    x0 = np.array([1.0, 1.5])
    result, lu_calls = integrate_counting_lu(problem, x0, cfg)
    assert result.stats.steps == 4
    assert result.stats.lu_factorizations == lu_calls == 1

    def poison(x, active, step, jacobians):
        rows[0][0] = math.nan

    calls = []
    real = rosevent.linalg.lu_factor
    with mock.patch.object(rosevent.events, "_on_step", poison), \
            mock.patch.object(rosevent.linalg, "lu_factor", lambda m: calls.append(m) or real(m)):
        with pytest.raises(ValueError, match=r"^matrix entries must be finite "
                                             r"\(step 1, t = 0\.125, field 2\)$"):
            integrate(problem, x0, cfg)
    # the first step factored; the second step's NaN rows reached lu_factor
    assert len(calls) == 2 and math.isnan(calls[1][0][0])


def test_guarded_and_finite_difference_runs_count_every_factorization():
    # najafi under the dense guard: region 1 factors every step, plus the
    # case-1b trials; region 2 (J = 0) reuses its factors
    najafi = builtin("najafi")
    cfg = IntegratorConfig(tau=2.0**-5, t_end=1.25, guard_mode=GuardMode.ROS2_DENSE)
    result, lu_calls = integrate_counting_lu(najafi, najafi.x0, cfg)
    assert result.termination is Termination.REACHED_T_END
    assert len(result.events) == 1
    assert result.stats.lu_factorizations == lu_calls
    t_event = result.events[0].t_star
    region_1_steps = sum(1 for t, _ in result.mesh[1:] if t < t_event) + 1
    assert lu_calls > region_1_steps
    assert lu_calls < result.stats.steps

    # the relay without analytic Jacobians: a plain step keeps the W of the
    # step before while its secant fits, and factors again when it takes a
    # fresh finite-difference J, whose last bits differ from the kept one's
    relay = builtin_piecewise("kowalczyk")
    relay.jac_f1 = relay.jac_f2 = None
    cfg = IntegratorConfig(tau=4e-3, t_end=1.0)
    result, lu_calls = integrate_counting_lu(relay, relay.x0, cfg)
    assert result.events
    assert result.stats.lu_factorizations == lu_calls <= result.stats.steps


# --- the run's own counts ------------------------------------------------------

def relay_stats(problem):
    """The stats of a short kowalczyk relay run with its crossings."""
    result = integrate(problem, problem.x0, IntegratorConfig(tau=1e-3, t_end=0.2))
    assert result.events
    return result.stats


def test_a_run_nested_in_another_on_its_problem_counts_its_own_work():
    # a run started from the first step of another on the same problem:
    # each reports what a run alone does, not the sum of both
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    alone = relay_stats(problem)
    inner = []

    def nest(x, active, step, jacobians):
        if not inner:
            inner.append(None)  # the nested run's own steps start none
            inner[0] = relay_stats(problem)

    with mock.patch.object(rosevent.events, "_on_step", nest):
        outer = relay_stats(problem)
    assert inner == [alone] and outer == alone
    assert alone.f_evals == {1: 14, 2: 388}


def test_runs_in_threads_on_one_problem_count_their_own_work():
    # three runs, more than the cores, meet at their first steps, so each is
    # in progress while the others evaluate the shared problem's fields, and
    # a short switch interval interleaves the rest of them
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    alone = relay_stats(problem)
    n = 3
    barrier, met, stats = threading.Barrier(n, timeout=30), set(), [None] * n

    def meet(x, active, step, jacobians):
        if threading.get_ident() not in met:
            met.add(threading.get_ident())
            barrier.wait()

    def run(i):
        stats[i] = relay_stats(problem)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(rosevent.events, "_on_step", meet):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(met) == n and stats == [alone] * n


# --- declared affine surfaces: closed-form location and even-count hits -------

def parabola(declared=True):
    """State (y, t) with y' = 1 - 2t, t' = 1 in both regions and the surface
    y = 0.2: from (0, 0) h = t - t^2 - 0.2 rises across zero at
    t = (1 - sqrt(0.2))/2 and falls back at t = (1 + sqrt(0.2))/2."""
    A = [[0.0, -2.0], [0.0, 0.0]]
    problem = affine_problem(Affine(A1=A, b1=[1.0, 1.0], A2=A, b2=[1.0, 1.0],
                                    n=[1.0, 0.0], c=-0.2), "parabola")
    if declared:
        return problem
    return PiecewiseProblem(dim=2, f1=problem.f1, f2=problem.f2,
                            h=lambda x: x[0] - 0.2, label="parabola/undeclared")


@pytest.mark.parametrize("method", ["ros1", "ros2"])
def test_a_step_with_two_crossings_reports_both(method):
    # one step of tau = 0.9: h(x0) = -0.2 and h(x1) = -0.11 share a sign
    cfg = IntegratorConfig(tau=0.9, t_end=0.9, method=method_by_name(method))
    result = integrate(parabola(), [0.0, 0.0], cfg)
    if method == "ros1":
        # the one-stage chord is a line in theta: it has one root at most,
        # and here its end is below the surface too
        assert result.events == []
        return
    assert result.termination is Termination.REACHED_T_END
    assert [ev.direction for ev in result.events] == [Direction.R1_TO_R2,
                                                      Direction.R2_TO_R1]
    npt.assert_allclose([ev.t_star for ev in result.events],
                        [(1.0 - math.sqrt(0.2)) / 2.0, (1.0 + math.sqrt(0.2)) / 2.0],
                        rtol=0, atol=1e-12)
    assert result.events[0].step_index == 0
    # an undeclared surface still sees only the endpoint signs
    assert integrate(parabola(declared=False), [0.0, 0.0], cfg).events == []


def recorded_steps(problem, x0, cfg):
    """integrate, plus (x, active, step, jacobians) for every step it took
    (the events._on_step hook)."""
    taken = []

    def recording(x, active, step, jacobians):
        taken.append((x, active, step, jacobians))

    with mock.patch.object(rosevent.events, "_on_step", recording):
        result = integrate(problem, x0, cfg)
    return result, taken


def accepted_steps(problem, x0, cfg):
    """integrate, plus (step, active, theta_end) for every accepted step:
    the part [0, theta_end] of each step the run kept, found from the event
    each step recorded and checked on the state's bits each step hands to
    the next, and the field that took it."""
    result, taken = recorded_steps(problem, x0, cfg)
    if result.termination is Termination.CHATTERING:
        taken.pop()  # the turned-back step is not kept
    events = iter(result.events)
    pending = next(events, None)
    kept = []

    def bits(v):
        return np.asarray(v, dtype=float).tobytes()

    for i, (_, active, step, _) in enumerate(taken):
        following = taken[i + 1][0] if i + 1 < len(taken) else None
        if pending is not None and pending.step_index == i:
            # the next step starts from the located state
            assert following is None or bits(following) == bits(pending.x_star)
            kept.append((step, active, pending.theta_star))
            pending = next(events, None)
        else:
            assert following is None or bits(following) == bits(step.x1f)
            kept.append((step, active, 1.0))
    assert pending is None
    return result, kept


@st.composite
def declared_runs(draw):
    """A run on a declared surface: either a parabola-like (y, t) problem,
    y' = a - b*t, or a random planar affine problem, from a start off the
    band, at a step size over three decades."""
    fin = st.floats(-3.0, 3.0)
    if draw(st.booleans()):
        a, b2 = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
        A = [[0.0, -b2], [0.0, 0.0]]
        aff = Affine(A1=A, b1=[a, 1.0], A2=A, b2=[a, 1.0], n=[1.0, 0.0],
                     c=-draw(st.floats(0.01, 0.9)) * a * a / (2.0 * b2))
        x0 = [0.0, 0.0]
    else:
        A1 = [[draw(fin) for _ in range(2)] for _ in range(2)]
        A2 = [[draw(fin) for _ in range(2)] for _ in range(2)]
        aff = Affine(A1=A1, b1=[draw(fin), draw(fin)], A2=A2, b2=[draw(fin), draw(fin)],
                     n=[draw(fin), draw(fin)], c=draw(fin))
        x0 = [draw(fin), draw(fin)]
    problem = affine_problem(aff, "random")
    assume(abs(problem.h(np.array(x0))) > 1e-3)
    tau = 10.0 ** draw(st.floats(-3.0, 0.0))
    cfg = IntegratorConfig(tau=tau, t_end=min(2.0, 60 * tau),
                           method=method_by_name(draw(st.sampled_from(["ros1", "ros2"]))),
                           max_events=40)
    return problem, np.array(x0), cfg


@settings(max_examples=150, deadline=None)
@given(run=declared_runs())
def test_no_sign_change_inside_an_accepted_step_goes_unreported(run):
    # sample h along the kept part of every accepted step: it must stay on
    # the side of the active field's region, up to the surface band (and,
    # right after a hit, up to where that hit's state sits)
    problem, x0, cfg = run
    result, kept = accepted_steps(problem, x0, cfg)
    assert result.termination is not Termination.MAX_EVENTS or len(result.events) == 40
    for step, active, theta_end in kept:
        side = -1.0 if active == 1 else 1.0
        tol = max(SIGMA_TOL, 2.0 * abs(float(problem.h(step.x0))))
        tol = SIGMA_TOL if side * float(problem.h(step.x0)) > 0.0 else tol
        g = [side * float(problem.h(dense_eval(step, th)))
             for th in np.linspace(0.0, theta_end, 1000).tolist()]
        assert min(g) >= -tol, (step.x0, step.tau, theta_end, min(g))


@pytest.mark.parametrize("g0, m1, m2, root", [
    # a root near 0 next to one near 2e5: the textbook formula cancels
    (-1e-10, 1e5, -1.0, 1e-15),
    # coefficients whose squares underflow or overflow
    (-1e-200, 1e-190, -2e-190, 1e-10),
    (-1e200, 1e210, -1e210, 1e-10),
    # a line; the first of two roots; a root past 1; no real root
    (-1.0, 2.0, 0.0, 0.5), (0.12, -0.8, 2.0, 0.2), (-1.0, 0.5, 0.0, None),
    (-1.0, 0.5, 0.1, None),
])
def test_first_root_of_the_surface_quadratic(g0, m1, m2, root):
    got = rosevent.linalg.quadratic_root(g0, m1, m2, 1.0)
    if root is None:
        assert got is None
    else:
        assert got == pytest.approx(root, rel=1e-9, abs=0.0)


@st.composite
def affine_steps(draw):
    """A step of a random affine field (dimension 1 to 3, ROS1 or ROS2,
    tau over four decades) and a declared surface through the dense output
    at a random theta."""
    dim = draw(st.integers(1, 3))
    fin = st.floats(-3.0, 3.0)
    A = np.array([[draw(fin) for _ in range(dim)] for _ in range(dim)])
    b = np.array([draw(fin) for _ in range(dim)])
    x0 = np.array([draw(fin) for _ in range(dim)])
    n = np.array([draw(fin) for _ in range(dim)])
    assume(np.any(n != 0.0))
    tau = 10.0 ** draw(st.floats(-4.0, 0.0))
    stepper = draw(st.sampled_from([ros1_step, ros2_step]))
    try:
        step = stepper(lambda x: A @ x + b, x0, tau, A)
    except SingularMatrix:
        assume(False)
    s = draw(st.floats(0.02, 0.98))
    problem = affine_problem(Affine(A1=A, b1=b, A2=A, b2=b, n=n,
                                    c=-float(n @ dense_eval(step, s))))
    return problem, step


def rounding_scale(problem, step):
    # what one evaluation of h on the dense output can be off by, relative
    # rounding plus the absolute step of subnormal numbers
    xs = np.abs(np.array([dense_eval(step, th) for th in (0.0, 0.5, 1.0)])).max(axis=0)
    return 64 * (np.finfo(float).eps * (float(np.abs(problem.surface.n) @ xs)
                                        + abs(problem.surface.c)) + math.ulp(0.0))


@settings(max_examples=300, deadline=None)
@given(case=affine_steps())
def test_closed_form_location_agrees_with_bisection(case, counting):
    problem, step = case
    h = problem.h

    def g(th):
        return float(h(dense_eval(step, th)))

    h0, h1 = g(0.0), g(1.0)
    assume(h0 != 0.0)
    if detect_sign_change(h0, h1):
        hi = 1.0
    else:
        # the surface is crossed twice: bracket the first hit by the vertex
        d0 = float(problem.surface.n @ dense_derivative(step, 0.0))
        d1 = float(problem.surface.n @ dense_derivative(step, 1.0))
        assume(d0 * d1 < 0.0)
        hi = d0 / (d0 - d1)
        assume(detect_sign_change(h0, g(hi)))

    def banned(*a, **k):  # pragma: no cover - should never run
        raise AssertionError("linear algebra called during event location")

    with mock.patch.object(rosevent.linalg, "lu_factor", banned), \
            mock.patch.object(rosevent.linalg, "lu_solve", banned), \
            mock.patch.object(rosevent.rosenbrock, "kernel", banned):
        with counting() as stats:
            record = locate_event(step, h, default_cfg(), surface=problem.surface)
        assert (stats.f_evals, stats.domain_violations) == ({1: 0, 2: 0}, {1: 0, 2: 0})

    # the located state is on the departing side or on the surface
    g_star = g(record.theta_star)
    assert (g_star <= 0.0) if h0 < 0.0 else (g_star >= 0.0)
    npt.assert_array_equal(record.x_star, dense_eval(step, record.theta_star))

    theta_bis, _, _ = rosevent.linalg.safe_side_root(g, 0.0, hi, h0, g(hi), 0.0, THETA_TOL)
    slope = abs(float(problem.surface.n @ dense_derivative(step, record.theta_star)))
    fuzz = rounding_scale(problem, step) / slope if slope else math.inf
    assert abs(record.theta_star - theta_bis) <= THETA_TOL + fuzz


@pytest.mark.parametrize("name", ["kowalczyk", "teixeira"])
def test_location_takes_few_h_calls_on_an_undeclared_relay(name):
    # the relay with only f1, f2 and h: no declared surface, so every hit is
    # found by the ITP search (~7 h calls where bisection took ~31)
    flat = spp_flatten(builtin(name, eps=1e-2))
    bare = PiecewiseProblem(dim=flat.dim, f1=flat.f1, f2=flat.f2, h=flat.h)
    result = integrate(bare, flat.x0, IntegratorConfig(tau=4e-3, t_end=2.0))
    assert len(result.events) >= 10
    assert all(1 <= ev.root_iterations <= 10 for ev in result.events)


def test_closed_form_location_takes_few_h_calls_on_the_relay():
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    result = integrate(problem, problem.x0, IntegratorConfig(tau=4e-3, t_end=2.0))
    assert len(result.events) >= 10
    assert all(1 <= ev.root_iterations <= SNAP_TRIES for ev in result.events)
    assert all(ev.residual <= 1e-12 for ev in result.events)


def test_integrate_spends_h_only_on_the_start_the_steps_and_location():
    # one h call at x0, one at each step's endpoint and the ones location
    # counts: a crossing's state is not evaluated again (28 crossings here),
    # nor is a probe state that equals the previous probe's (none here; see
    # test_probes_that_do_not_move_the_state_call_no_h). The total follows
    # the last bits of the float-row fields and of h's left-to-right sum;
    # the identity 1 + steps + location is what holds whatever they are
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    calls = []
    real = problem.h

    def counted(x):
        calls.append(1)
        return real(x)

    problem.h = counted
    result = integrate(problem, problem.x0, IntegratorConfig(tau=4e-3, t_end=2.0))
    assert result.termination is Termination.REACHED_T_END
    assert len(result.events) == 28
    location = sum(ev.root_iterations for ev in result.events)
    assert len(calls) == 1 + result.stats.steps + location == 570


def test_a_declared_h_gets_the_step_floats_and_a_plain_h_only_arrays():
    # integrate hands a declared surface's h the floats a step holds of its
    # x1, and so do the guarded step's internal stage and each case-1b
    # trial; any other h gets float arrays only: at the steps' ends and in
    # location, and, in the public guarded step, at the internal stage and
    # in each case-1b trial
    seen = []

    def typed(h):
        def call(u):
            seen.append(type(u))
            return h(u)
        return call

    def case_1b():
        return mock.patch.object(rosevent.onesided, "resolve_case_1b",
                                 wraps=rosevent.onesided.resolve_case_1b)

    relay = spp_flatten(builtin("kowalczyk", eps=1e-2))
    relay_cfg = IntegratorConfig(tau=4e-3, t_end=0.5)
    plain_relay = PiecewiseProblem(dim=2, f1=relay.f1, f2=relay.f2,
                                   h=typed(relay.surface.callables[0]),
                                   jac_f1=relay.jac_f1, jac_f2=relay.jac_f2)
    relay.h = typed(relay.h)
    integrate(relay, relay.x0, relay_cfg)
    assert list in seen
    seen.clear()
    result = integrate(plain_relay, relay.x0, relay_cfg)
    assert result.termination is Termination.REACHED_T_END and result.events
    assert seen and set(seen) == {np.ndarray}

    najafi = builtin("najafi")
    plain_najafi = PiecewiseProblem(dim=2, f1=najafi.f1, f2=najafi.f2, h=typed(najafi.h),
                                    jac_f1=najafi.jac_f1, jac_f2=najafi.jac_f2,
                                    domain_f1=najafi.domain_f1)
    najafi.h = typed(najafi.h)
    seen.clear()
    with case_1b() as shortening:
        result = integrate(najafi, np.array([1.0, 0.05]),
                           IntegratorConfig(tau=0.125, t_end=2.0, guard_mode=GuardMode.ROS2_DENSE))
    assert result.termination is Termination.REACHED_T_END and result.events
    # the guarded run shortens a step
    assert shortening.call_count == 1
    assert list in seen
    # the internal stage at t = 1.025 trespasses, so the step is shortened
    x0 = np.array([1.0, 0.9])
    seen.clear()
    with case_1b() as shortening:
        step = guarded_ros2_step(plain_najafi, x0, 0.125,
                                 field_jacobian(plain_najafi, 1, x0.tolist()))
    assert shortening.call_count == 1 and step.tau < 0.125
    assert seen and set(seen) == {np.ndarray}


# --- the step kernel under the driver -----------------------------------------

def same_bytes(a, b):
    return a is None and b is None or a.tobytes() == b.tobytes()


@st.composite
def kernel_cases(draw):
    """A random affine field x' = A x + b with n = 1..3 and a declared
    surface n.x + c, a state below it, a step size and a method."""
    n = draw(st.integers(1, 3))
    entry = st.floats(-5.0, 5.0)
    A = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    normal = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    x0 = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    # the surface sits a random distance above x0, so some steps trespass
    c = -float(normal @ x0) - draw(st.floats(1e-3, 2.0))
    problem = affine_problem(Affine(A, b, A, b, normal, c))
    assume(float(problem.h(x0)) < 0.0)
    tau = draw(st.floats(1e-3, 0.5))
    method = draw(st.sampled_from(["ros1", "ros2"]))
    return problem, x0, tau, method_by_name(method)


def plain_callables(aff, seen, declared=False):
    """The problem of the declaration aff with plain numpy callables for
    fields, Jacobians, domains and h, no float form: each field and domain
    call appends the state it is handed to seen. declared=True declares
    the surface instead of giving h, as a guarded run needs."""

    def field(A, b):
        def f(x):
            seen.append(x)
            return A @ x + b
        return f

    def domain(x):
        seen.append(x)
        return True

    surface = ({"surface": Surface(aff.n, aff.c)} if declared
               else {"h": lambda x: aff.n @ x + aff.c})
    return PiecewiseProblem(dim=aff.dim, f1=field(aff.A1, aff.b1), f2=field(aff.A2, aff.b2),
                            **surface, jac_f1=lambda x: aff.A1,
                            jac_f2=lambda x: aff.A2, domain_f1=domain, domain_f2=domain)


def driver_steps(problem, x0, cfg, seen):
    """integrate, plus per step (x, active, step, jacobians, factorizations,
    handed): the LU factorizations it ran and the states its field and
    domain were handed, the last 2 or 4 entries of seen when it ended; the
    run's exception, if any, instead of its result."""
    taken, lu_calls = [], []
    real = rosevent.linalg.lu_factor

    def recording(x, active, step, jacobians):
        done = sum(t[4] for t in taken)
        taken.append((x, active, step, jacobians, len(lu_calls) - done,
                      seen[-2 * step.stages:]))

    with mock.patch.object(rosevent.events, "_on_step", recording), \
            mock.patch.object(rosevent.linalg, "lu_factor",
                              lambda m: lu_calls.append(1) or real(m)):
        try:
            result = integrate(problem, x0, cfg)
        except ValueError as exc:
            result = exc
    return result, taken


@settings(max_examples=200, deadline=None)
@given(case=kernel_cases(), plain=st.booleans())
def test_driver_steps_are_the_public_steps_bit_for_bit(case, plain):
    # two plain steps of integrate, the second continuing the first unless
    # a hit came between, and one guarded step: each is the public step
    # from its x0 bit for bit. The second solves with the first's factors,
    # and on a declared problem with the A_1 it holds. A problem of plain
    # numpy callables gets the step's state as float arrays with its bits:
    # its domain and field, in that order, at x0 and at the stage x0 + k1.
    # The guarded run needs a declared surface, so there the plain problem
    # declares it and keeps its plain fields.
    problem, x0, tau, method = case
    seen = []
    guarded_problem = plain_callables(problem.affine, seen, declared=True) if plain else problem
    if plain:
        problem = plain_callables(problem.affine, seen)
    J = field_jacobian(problem, 1, x0.tolist())
    public = ros2_step if method.stages == 2 else ros1_step
    try:
        alone = public(array_field(problem, 1), x0, tau, J)
    except (SingularMatrix, ValueError):
        assume(False)
    # the public guarded step and the factorizations it ran
    guarded_lu, real = [], rosevent.linalg.lu_factor
    try:
        with mock.patch.object(rosevent.linalg, "lu_factor",
                               lambda m: guarded_lu.append(1) or real(m)):
            public_guarded = guarded_ros2_step(guarded_problem, x0, tau, J)
    except (NoBracket, SingularMatrix) as exc:
        public_guarded = exc
    runs = [(problem, IntegratorConfig(tau=tau, t_end=2.0 * tau, method=method))]
    if method.stages == 2:
        runs.append((guarded_problem,
                     IntegratorConfig(tau=tau, t_end=tau, guard_mode=GuardMode.ROS2_DENSE)))
    for problem, cfg in runs:
        seen.clear()
        result, taken = driver_steps(problem, x0, cfg, seen)
        if cfg.guard_mode is not None and isinstance(public_guarded, Exception):
            assert taken == []
            assert result.termination is (Termination.GUARD_FAILURE
                                          if isinstance(public_guarded, NoBracket)
                                          else Termination.SOLVER_FAILURE)
            continue
        assert taken
        for i, (x, active, step, _, factorizations, handed) in enumerate(taken):
            if i == 0:
                ref, count = ((alone, 1) if cfg.guard_mode is None
                              else (public_guarded, len(guarded_lu)))
                assert np.array(x).tobytes() == x0.tobytes()
                assert factorizations == count
            else:
                ref = public(array_field(problem, active), x, step.tau,
                             step.J)
            assert (step.tau, step.stages) == (ref.tau, ref.stages)
            for name in ("x0", "x1", "k1", "k2"):
                assert same_bytes(getattr(step, name), getattr(ref, name))
            if plain:
                stage = np.array([u + a for u, a in zip(step.x0f, step.k1f)])
                states = [np.array(x), np.array(x), stage, stage][:2 * step.stages]
                assert [v.tobytes() for v in handed] == [v.tobytes() for v in states]
        if (cfg.guard_mode is None and not isinstance(result, ValueError)
                and len(taken) == 2 and not result.events):
            assert [t[3:5] for t in taken] == [(1, 1), (int(plain), 0)]
    assert all(type(v) is np.ndarray and v.dtype == np.float64 for v in seen)


@pytest.mark.parametrize("name", ["kowalczyk", "teixeira"])
def test_driver_steps_on_the_declared_relays_are_the_public_steps(name):
    # the driver hands its float-row fields floats; the public step hands
    # the same fields arrays: the same steps, bit for bit
    problem = spp_flatten(builtin(name, eps=1e-2))
    result, taken = recorded_steps(problem, problem.x0, IntegratorConfig(tau=4e-3, t_end=2.0))
    assert len(result.events) >= 2
    for x, active, step, _ in taken:
        alone = ros2_step(problem.f1 if active == 1 else problem.f2, x, step.tau, step.J)
        for attr in ("x1", "k1", "k2"):
            assert same_bytes(getattr(step, attr), getattr(alone, attr))


@contextlib.contextmanager
def kernel_wrapped(wrap):
    """Patches of rosenbrock.kernel and rosenbrock.kernel_pair that hand out
    wrap(name, fn) for each kernel function, step, stage1 and finish.
    integrate binds its kernel's step once per run, so the patch must be in
    place before the run starts."""
    rb = rosevent.rosenbrock
    step, pair = rb.kernel, rb.kernel_pair
    with mock.patch.object(rb, "kernel", lambda *key: wrap("step", step(*key))), \
            mock.patch.object(rb, "kernel_pair", lambda *key: tuple(
                map(wrap, ("stage1", "finish"), pair(*key)))):
        yield


@pytest.mark.parametrize("method, guard", [("ros2", None), ("ros1", None),
                                           ("ros2", GuardMode.ROS2_DENSE)])
@pytest.mark.parametrize("banned_name", ["lu_factor", "lu_solve", "kernel"])
def test_banning_the_linear_algebra_stops_every_driver_step(method, guard, banned_name):
    # the bans that show location solves nothing are only worth something
    # if a step, which must factor and solve, runs into them: a run's first
    # step, and, banned from the second step on, a step that solves with
    # the kept factors, guarded or not. A step's solves run
    # inside the step kernel, so "lu_solve" bans the kernel's functions
    # through a wrapper on rosenbrock.kernel installed before the run; a
    # ban on rosenbrock.kernel itself stops every run before its first step
    problem = builtin("tent")
    cfg = IntegratorConfig(tau=0.2, t_end=1.0, method=method_by_name(method),
                           guard_mode=guard)

    def banned(*a, **k):
        raise AssertionError("linear algebra called during event location")

    solves_banned = [True]

    def solves(name, fn):
        # a kernel function, banned while solves_banned holds anything
        return lambda *args: banned() if solves_banned else fn(*args)

    bans = {"lu_factor": mock.patch.object(rosevent.linalg, "lu_factor", banned),
            "lu_solve": kernel_wrapped(solves),
            "kernel": mock.patch.object(rosevent.rosenbrock, "kernel", banned)}
    with bans[banned_name]:
        with pytest.raises(AssertionError, match="linear algebra called"):
            integrate(problem, [0.1], cfg)
    if banned_name != "lu_solve":
        return
    solves_banned.clear()
    taken, lu_calls = [], []
    real = rosevent.linalg.lu_factor

    def ban_after_the_first(x, active, step, jacobians):
        taken.append(step)
        solves_banned.append(True)

    with kernel_wrapped(solves), \
            mock.patch.object(rosevent.events, "_on_step", ban_after_the_first), \
            mock.patch.object(rosevent.linalg, "lu_factor",
                              lambda m: lu_calls.append(1) or real(m)):
        with pytest.raises(AssertionError, match="linear algebra called"):
            integrate(problem, [0.1], cfg)
    assert len(taken) == 1
    assert len(lu_calls) == 1


def _derivative_free(flat):
    # the flattened relay with its fields and h only, as the relay-fd
    # benchmark builds it: every Jacobian is a finite-difference stencil
    return PiecewiseProblem(flat.dim, flat.f1, flat.f2, flat.h, x0=flat.x0)


def _assert_eval_field_sees_every_counted_evaluation(problem):
    seen = []
    real = rosevent.problems.eval_field

    def counting(*args):
        seen.append(args[1])
        return real(*args)

    with mock.patch.object(rosevent.problems, "eval_field", counting):
        result = integrate(problem, problem.x0, IntegratorConfig(tau=1e-3, t_end=1.5))
    assert len(result.events) > 2
    assert {1: seen.count(1), 2: seen.count(2)} == result.stats.f_evals


def test_a_wrapper_on_eval_field_sees_every_counted_evaluation():
    # the cross-check of the traced benchmark: the driver's fields look
    # eval_field up in problems on every call
    _assert_eval_field_sees_every_counted_evaluation(
        spp_flatten(builtin("kowalczyk", eps=1e-2)))


def test_a_wrapper_on_eval_field_sees_every_finite_difference_evaluation():
    # the finite-difference stencils of a derivative-free problem count
    # through the same eval_field as the driver's fields
    _assert_eval_field_sees_every_counted_evaluation(
        _derivative_free(spp_flatten(builtin("kowalczyk", eps=1e-2))))


def test_outside_wrappers_count_the_steps_integrate_runs_itself():
    # a declared affine visit's continuing steps run in integrate's own
    # loop, on the fields and the kernel it binds at its start: wrappers
    # installed before the run still see each field evaluation, kernel step
    # and factorization, and the last step, a remainder at t_end, refactors
    # from the visit's A_i without evaluating a Jacobian. Each step's two
    # solves run inside the kernel's step, not through lu_solve
    flat = spp_flatten(builtin("kowalczyk", eps=1e-2))
    calls = {"eval_field": 0, "lu_solve": 0, "lu_factor": 0, "stage1": 0, "finish": 0,
             "step": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    def counted(module, name):
        return mock.patch.object(module, name, counting(name, getattr(module, name)))

    cfg = IntegratorConfig(tau=1e-3, t_end=1.5)
    with counted(rosevent.problems, "eval_field"), counted(rosevent.linalg, "lu_solve"), \
            counted(rosevent.linalg, "lu_factor"), kernel_wrapped(counting):
        result, taken = recorded_steps(flat, flat.x0, cfg)
    stats = result.stats
    assert result.termination is Termination.REACHED_T_END
    assert stats.steps == len(taken) == 1504
    assert calls["eval_field"] == sum(stats.f_evals.values()) == 2 * stats.steps
    assert (calls["step"], calls["stage1"], calls["finish"]) == (stats.steps, 0, 0)
    assert calls["lu_solve"] == 0
    assert calls["lu_factor"] == stats.lu_factorizations == 2
    # the visits' continuing steps, the remainder among them, keep their J
    *_, (_, _, last, jacobians) = taken
    assert last.tau < cfg.tau and jacobians == 0 and not entered(taken, len(taken) - 1)
    assert sum(j for *_, j in taken) == len(result.events) + 1
    assert stats.jacobian_evaluations == len(result.events) + 1 == 15


# --- the W-method: a finite-difference J kept across a region visit ---------

def van_der_pol(jac=None, mu=10.0):
    """x' = y, y' = mu*(1 - x^2)*y - x in both regions, with a surface that
    never fires and the Jacobian jac (None: finite differences)."""
    def f(u):
        x, y = u
        return np.array([y, mu * (1.0 - x * x) * y - x])

    return PiecewiseProblem(2, f, f, lambda u: -1.0, jac_f1=jac, jac_f2=jac)


def test_a_curved_field_takes_a_fresh_finite_difference_jacobian_every_step():
    # the secant of van der Pol's steps misses FD-error level every time, so
    # the derivative-free run is bit for bit the run with a fresh J per step
    bare = van_der_pol()
    fresh = van_der_pol(jac=lambda u: rosevent.linalg.fd_jacobian(bare.f1, u))
    cfg = IntegratorConfig(tau=0.1, t_end=30.0)
    got, want = integrate(bare, [2.0, 0.0], cfg), integrate(fresh, [2.0, 0.0], cfg)
    assert got.termination is want.termination is Termination.REACHED_T_END
    assert got.stats.steps == want.stats.steps == 300
    assert got.stats.jacobian_evaluations == want.stats.jacobian_evaluations == 300
    assert got.stats.lu_factorizations == want.stats.lu_factorizations
    assert [(t, x.tobytes()) for t, x in got.mesh] == [(t, x.tobytes()) for t, x in want.mesh]


@pytest.mark.parametrize("name", ["kowalczyk", "teixeira"])
def test_an_affine_relay_keeps_its_finite_difference_jacobian_across_a_visit(name):
    flat = spp_flatten(builtin(name, eps=1e-2))
    bare = _derivative_free(flat)
    cfg = IntegratorConfig(tau=4e-3, t_end=2.0)
    evaluated = []
    real = rosevent.problems.field_jacobian

    def counting(*args):
        evaluated.append(args[1])
        return real(*args)

    with mock.patch.object(rosevent.problems, "field_jacobian", counting):
        result, taken = recorded_steps(bare, flat.x0, cfg)
    stats = result.stats
    assert result.termination is Termination.REACHED_T_END
    assert len(result.events) >= 10
    # a fresh J on each region entry, then one at least every REUSE_STEPS
    assert len(evaluated) == stats.jacobian_evaluations == sum(j for *_, j in taken)
    assert stats.jacobian_evaluations <= len(result.events) + 1 + stats.steps / REUSE_STEPS
    assert stats.lu_factorizations <= stats.jacobian_evaluations
    # a region visit starts with a fresh J
    entries = [i for i in range(len(taken)) if entered(taken, i)]
    assert len(entries) == len(result.events) + 1
    assert all(taken[i][3] == 1 for i in entries)
    # each step holds the W it used: its dense output starts at x0 exactly
    # and a restep at the same size is the step again, bit for bit
    for x, active, step, _ in taken[:40]:
        assert step.value(0.0).tobytes() == np.array(x).tobytes()
        again = restep(array_field(bare, active), step, step.tau)
        assert again.x1.tobytes() == step.x1.tobytes()
    # the declared affine relay evaluates its A_i once per region visit
    analytic = integrate(flat, flat.x0, cfg)
    assert analytic.stats.jacobian_evaluations == len(analytic.events) + 1


def report_bits(report):
    """A GuardReport with each float as its bits, for equality bit for bit."""
    return (report.mode, {k: v.hex() for k, v in report.coefficients.items()}, report.passed,
            report.certified_sigma.hex(), report.neumann_ok)


def test_a_one_stage_guard_certifies_the_matrix_its_step_factored():
    # a derivative-free relay under the one-stage guard: region 1 keeps its
    # finite-difference W as region 2 does, and the guard at each hit
    # certifies the step's own matrix, kept or fresh, with the step's f(x0)
    flat = spp_flatten(builtin("kowalczyk", eps=1e-2))
    bare = PiecewiseProblem(flat.dim, flat.f1, flat.f2, surface=flat.surface)
    cfg = IntegratorConfig(tau=1e-3, t_end=1.5, method=ROS1,
                           guard_mode=GuardMode.ROS1_GENERAL)
    result, taken = recorded_steps(bare, flat.x0, cfg)
    assert result.termination is Termination.REACHED_T_END
    assert len(result.guard_reports) >= 5
    hits = {ev.step_index: ev for ev in result.events}
    for index, report in result.guard_reports:
        assert report.passed
        x, active, step, _ = taken[index]
        # the step the run recorded under this index is the one it hit in
        event = hits[index]
        assert same_bytes(step.value(event.theta_star), event.x_star)
        assert active == 1
        fx0 = eval_field(bare, 1, x)
        built = rosevent.onesided._one_stage_report(
            GuardMode.ROS1_GENERAL, bare.surface.n, step.jac, lambda: fx0, step.tau, GAMMA_ROS1)
        assert report_bits(report) == report_bits(built)
    # both regions keep a W, and the guard certified a kept one at a hit
    assert {active for _, active, _, jacobians in taken if not jacobians} == {1, 2}
    assert any(taken[index][3] == 0 for index, _ in result.guard_reports)


def assert_reports_are_the_public_guards(result, taken, problem, guard):
    """Each guard report of a one-stage run is, bit for bit, the public
    guard's at its hit step's start state and size; a run the orthogonal
    guard refused ends on a step whose start the public guard refuses too."""
    public = {GuardMode.ROS1_GENERAL: rosevent.onesided.guard_ros1_general,
              GuardMode.ROS1_ORTHOGONAL: rosevent.onesided.guard_ros1_orthogonal}[guard]
    for index, report in result.guard_reports:
        x, active, step, _ = taken[index]
        assert active == 1
        assert report_bits(report) == report_bits(public(problem, x, step.tau, GAMMA_ROS1))
    refused = (result.termination is Termination.GUARD_FAILURE
               and not (result.guard_reports and not result.guard_reports[-1][1].passed))
    if refused:
        x, _, step, _ = taken[-1]
        with pytest.raises(NotOrthogonal):
            public(problem, x, step.tau, GAMMA_ROS1)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), log_tau=st.floats(-2.0, 0.0),
       guard=st.sampled_from([GuardMode.ROS1_GENERAL, GuardMode.ROS1_ORTHOGONAL]))
def test_a_one_stage_guard_in_a_run_reports_as_the_public_guard(data, dim, log_tau, guard):
    # random declared affine problems, one field in both regions, with
    # f(x0) pointing at the surface. Under the orthogonal guard A is random,
    # a step matrix the guard refuses, or (I - Q)/tau for the Cayley
    # transform Q of a skew-symmetric S, times a reflection or not, so its
    # step matrix at tau is orthogonal.
    fin = st.floats(-1.0, 1.0)
    tau = 10.0 ** log_tau
    if guard is GuardMode.ROS1_GENERAL or data.draw(st.booleans()):
        A = np.array([[data.draw(fin) for _ in range(dim)] for _ in range(dim)])
    else:
        S = np.zeros((dim, dim))
        for i in range(dim):
            for k in range(i):
                S[i, k] = data.draw(fin)
                S[k, i] = -S[i, k]
        Q = np.linalg.solve(np.eye(dim) - S, np.eye(dim) + S)
        if data.draw(st.booleans()):
            Q[:, 0] = -Q[:, 0]
        A = (np.eye(dim) - Q) / tau
    n, x0, b = (np.array([data.draw(fin) for _ in range(dim)]) for _ in range(3))
    assume(float(n @ n) > 0.01)
    # the drift along n at x0 is a drawn speed
    b = b + n * (data.draw(st.floats(0.1, 3.0)) - float(n @ (A @ x0 + b))) / float(n @ n)
    problem = affine_problem(Affine(A1=A, b1=b, A2=A, b2=b, n=n,
                                    c=-float(n @ x0) - data.draw(st.floats(1e-3, 0.5))))
    assume(problem.h(x0) < -SIGMA_TOL)
    result, taken = recorded_steps(problem, x0, IntegratorConfig(
        tau=tau, t_end=16 * tau, method=ROS1, guard_mode=guard))
    assert_reports_are_the_public_guards(result, taken, problem, guard)


def test_najafis_one_stage_guard_reports_as_the_public_guard():
    # najafi's Jacobian is analytic (a float form) and moves with the state,
    # so every step takes a fresh one; the hit's is the public guard's at
    # the step's start. The guard adds no evaluation: one f and one J per
    # step, and the classification's f1 and f2.
    problem = builtin("najafi")
    cfg = IntegratorConfig(tau=0.125, t_end=2.0, method=ROS1,
                           guard_mode=GuardMode.ROS1_GENERAL)
    result, taken = recorded_steps(problem, problem.x0, cfg)
    assert [(i, rep.passed) for i, rep in result.guard_reports] == [(7, True)]
    assert result.stats.steps == result.stats.jacobian_evaluations == 16
    assert result.stats.f_evals == {1: 9, 2: 9}
    assert_reports_are_the_public_guards(result, taken, problem, GuardMode.ROS1_GENERAL)


def entered(taken, i):
    """Whether recorded step i enters a region: the first step, or one whose
    field or start, by its bits, differs from the last step's (a hit
    recorded at the step's end hands its x1 on to the other field)."""
    if i == 0:
        return True
    x, active, *_ = taken[i]
    _, last_active, last, _ = taken[i - 1]
    return active != last_active or np.array(x).tobytes() != last.x1.tobytes()


@pytest.mark.parametrize("name", ["kowalczyk", "teixeira"])
def test_a_declared_affine_relay_evaluates_one_jacobian_per_region_visit(name):
    flat = spp_flatten(builtin(name, eps=1e-2))
    A = {1: flat.affine.A1, 2: flat.affine.A2}
    # the regions share their A_i to the byte, so every visit after the
    # first solves with the factors the last visit kept
    assert A[1] is not A[2] and A[1].tobytes() == A[2].tobytes()
    evaluated = []
    real = rosevent.problems.field_jacobian

    def counting(*args):
        evaluated.append(args[1])
        return real(*args)

    cfg = IntegratorConfig(tau=4e-3, t_end=2.0)
    with mock.patch.object(rosevent.problems, "field_jacobian", counting):
        result, taken = recorded_steps(flat, flat.x0, cfg)
    stats = result.stats
    assert result.termination is Termination.REACHED_T_END
    assert len(result.events) >= 10
    assert len(evaluated) == stats.jacobian_evaluations == len(result.events) + 1
    # one Jacobian on each region entry, of the region entered ...
    entries = [i for i in range(len(taken)) if entered(taken, i)]
    assert evaluated == [taken[i][1] for i in entries]
    assert [j for *_, j in taken] == [int(i in entries) for i in range(len(taken))]
    # ... as one rows object of A_i's bytes, which every step of the visit
    # holds, though its factors are shared
    for i, (_, active, step, _) in enumerate(taken):
        assert np.array(step.jac).tobytes() == A[active].tobytes()
        assert (i > 0 and step.jac is taken[i - 1][2].jac) == (i not in entries)
    assert stats.lu_factorizations <= 2
    # and the steps are the public steps with that J, bit for bit
    for x, active, step, _ in taken[:60]:
        alone = restep(array_field(flat, active), step, step.tau)
        assert same_bytes(alone.x1, step.x1) and same_bytes(alone.k2, step.k2)
    # the naive mode switches fields at a step's end: the next visit starts
    # from the very x1 the last step of the other region made
    naive = integrate(flat, flat.x0, IntegratorConfig(tau=4e-3, t_end=2.0, locate_events=False))
    assert len(naive.events) >= 10
    assert all(e.theta_star == 1.0 for e in naive.events)
    assert naive.stats.jacobian_evaluations == len(naive.events) + 1
    # under the dense guard the steps of region 1 are guarded steps, which
    # take their J as every other step does: one per visit in both regions
    guarded = IntegratorConfig(tau=4e-3, t_end=2.0, guard_mode=GuardMode.ROS2_DENSE)
    evaluated.clear()
    with mock.patch.object(rosevent.problems, "field_jacobian", counting):
        result, taken = recorded_steps(flat, flat.x0, guarded)
    assert result.termination is Termination.REACHED_T_END
    visits = [i for i, (_, active, *_) in enumerate(taken) if active == 2 and entered(taken, i)]
    assert len(visits) >= 5
    entries = [i for i in range(len(taken)) if entered(taken, i)]
    assert result.stats.jacobian_evaluations == len(evaluated) == len(entries)
    assert evaluated == [taken[i][1] for i in entries]
    assert [j for *_, j in taken] == [int(i in entries) for i in range(len(taken))]


@pytest.mark.parametrize("name", ["kowalczyk", "teixeira"])
def test_a_dense_guarded_run_factors_on_key_misses_and_case_1b_trials_only(name):
    # the guarded steps of region 1 solve with the run's kept factors: a
    # factorization runs where (J's rows, the step size asked for) differs
    # from the last factored one's, and once per case-1b trial
    flat = spp_flatten(builtin(name, eps=1e-2))
    shortened = {}  # the guarded step's x0 -> (size asked for, trials)
    real = rosevent.onesided.resolve_case_1b

    def resolving(problem, x0, tau, *args):
        step, trials = real(problem, x0, tau, *args)
        shortened[id(x0)] = tau, trials
        return step, trials

    cfg = IntegratorConfig(tau=4e-3, t_end=2.0 - 1e-3, guard_mode=GuardMode.ROS2_DENSE)
    taken = []
    with mock.patch.object(rosevent.onesided, "resolve_case_1b", resolving), \
            mock.patch.object(rosevent.events, "_on_step",
                              lambda x, active, step, _: taken.append((x, active, step))):
        result, lu_calls = integrate_counting_lu(flat, flat.x0, cfg)
    assert result.termination is Termination.REACHED_T_END
    key, misses = None, 0
    for x, active, step in taken:
        size, _ = shortened.get(id(x), (step.tau, 0))
        rows = [list(r) for r in step.jac]
        if (rows, size) != key:
            key, misses = (rows, size), misses + 1
    trials = sum(t for _, t in shortened.values())
    assert len(shortened) >= 10
    # the first step, and the remainder step at t_end, which asks for
    # another size
    assert misses == 2
    assert result.stats.lu_factorizations == lu_calls == misses + trials


def test_a_field_affine_only_along_the_path_refreshes_its_jacobian_by_the_cap():
    # x' = 1, y' = x*y from y = 0: y stays 0, so every secant fits the first
    # W although dy'/dy = x has moved on; only REUSE_STEPS refreshes it
    def f(u):
        return np.array([1.0, u[0] * u[1]])

    problem = PiecewiseProblem(2, f, f, lambda u: -1.0)
    result, taken = recorded_steps(problem, [0.0, 0.0], IntegratorConfig(tau=0.01, t_end=1.0))
    assert result.stats.steps == 100
    assert all(x[1] == 0.0 for x, *_ in taken)
    assert [j for *_, j in taken] == [1 if i % REUSE_STEPS == 0 else 0 for i in range(100)]
    assert result.stats.jacobian_evaluations == math.ceil(100 / REUSE_STEPS)


def _secant_sum(row, dx):
    # W_i.d, its products summed left to right from 0.0, as builtin sum
    # does on Python 3.10 and 3.11
    s = 0.0
    for w, d in zip(row, dx):
        s += w * d
    return s


def _row_fits(f1, f0, s):
    return abs(f1 - f0 - s) <= SECANT_RTOL * (abs(f1) + abs(f0))


def secant_fits(f1s, f0s, x1, x0, W):
    """The secant test in loop form, the oracle of events._secant: with
    d = x1 - x0, whether every row's residual f1 - f0 - W_i.d is within
    SECANT_RTOL of |f1| + |f0|; a NaN never fits."""
    dx = [a - b for a, b in zip(x1, x0)]
    for f1, f0, row in zip(f1s, f0s, W):
        if not _row_fits(f1, f0, _secant_sum(row, dx)):
            return False
    return True


def secant_test(n):
    """The generated secant test of size n, as integrate binds it."""
    return linalg.generated(rosevent.events._secant_source, n, {"rtol": SECANT_RTOL})


def _secant_edge(f0, s, outside):
    """The float f1 nearest the secant f0 + s whose row still fits, or, when
    outside, the next float beyond it, which does not: a bisection of the
    floats between the secant and a value far off it."""
    lo = f0 + s
    hi = lo + (1.0 + abs(lo) + abs(f0))
    if not (math.isfinite(hi) and _row_fits(lo, f0, s)) or _row_fits(hi, f0, s):
        return lo
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return hi if outside else lo
        if _row_fits(mid, f0, s):
            lo = mid
        else:
            hi = mid


@st.composite
def secant_cases(draw):
    """(f1, f0, x1, x0, W) of size 1 to 4, with NaN and signed-zero entries,
    and each f1_i drawn freely, on the secant, or at either side of the
    edge of SECANT_RTOL."""
    n = draw(st.integers(1, 4))
    # full-mantissa floats in [-4, 4], whose products and sums round, and
    # one entry in ten a NaN, a signed zero or a tiny value
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    specials = [0.0, -0.0, math.nan, 1e-300, -5e-324]

    def vector():
        return [rnd.choice(specials) if rnd.random() < 0.1 else rnd.uniform(-4.0, 4.0)
                for _ in range(n)]

    W, x1, x0, f0 = [vector() for _ in range(n)], vector(), vector(), vector()
    dx = [a - b for a, b in zip(x1, x0)]
    f1 = []
    for row, f0_i in zip(W, f0):
        s = _secant_sum(row, dx)
        kind = draw(st.sampled_from(["free", "secant", "inside", "outside"]))
        if kind == "free":
            f1.append(vector()[0])
        elif kind == "secant":
            f1.append(f0_i + s)
        else:
            f1.append(_secant_edge(f0_i, s, kind == "outside"))
    return f1, f0, x1, x0, W


@settings(max_examples=400, deadline=None)
@given(case=secant_cases())
@example(case=([0.0], [0.0], [0.0], [0.0], [[-1.0]]))  # 0 <= 0 fits
@example(case=([-0.0], [0.0], [0.0], [0.0], [[-1.0]]))  # W.d = -0.0 against 0.0
@example(case=([-0.0, 0.0], [0.0, -0.0], [0.0, 1.0], [0.0, 1.0], [[-1.0, -0.0], [1.0, -0.0]]))
@example(case=([math.nan], [0.0], [0.0], [0.0], [[0.0]]))
@example(case=([1.0], [1.0], [1.0], [0.0], [[math.nan]]))
def test_the_generated_secant_test_agrees_with_the_loop(case):
    f1, f0, x1, x0, W = case
    fits = secant_test(len(f1))
    assert fits(f1, f0, x1, x0, W) is secant_fits(f1, f0, x1, x0, W)


def test_the_secant_edge_is_found():
    # the strategy's edge cases do straddle SECANT_RTOL's edge
    f0, s = 1.0, 0.25
    inside, outside = _secant_edge(f0, s, False), _secant_edge(f0, s, True)
    assert math.nextafter(inside, math.inf) == outside
    assert _row_fits(inside, f0, s) and not _row_fits(outside, f0, s)
    fits = secant_test(1)
    assert fits([inside], [f0], [1.25], [1.0], [[1.0]])
    assert not fits([outside], [f0], [1.25], [1.0], [[1.0]])


@pytest.mark.parametrize("name, counts", [
    ("kowalczyk", (527, 45, 6, {1: 368, 2: 922})),
    ("teixeira", (511, 44, 7, {1: 375, 2: 965})),
])
def test_kept_w_steps_are_the_public_steps_with_that_w_bit_for_bit(name, counts):
    # the steps that keep their W run in integrate's loop; each is the public
    # step on the W it holds, and the run does the work it always did
    flat = spp_flatten(builtin(name, eps=1e-2))
    bare = _derivative_free(flat)
    result, taken = recorded_steps(bare, flat.x0, IntegratorConfig(tau=4e-3, t_end=2.0))
    stats = result.stats
    assert result.termination is Termination.REACHED_T_END
    assert (stats.steps, stats.jacobian_evaluations, stats.lu_factorizations,
            stats.f_evals) == counts
    assert sum(j == 0 for *_, j in taken) == stats.steps - stats.jacobian_evaluations
    for x, active, step, _ in taken:
        alone = ros2_step(bare.f1 if active == 1 else bare.f2, x, step.tau, step.jac)
        assert alone.x1.tobytes() == step.x1.tobytes()


def test_a_remainder_step_refactors_its_kept_w():
    # x' = y, y' = -x without a Jacobian, to t_end = 0.105 at tau = 0.01:
    # the first step takes a finite-difference J, the next nine keep it on
    # its factors, and the last, a remainder of 0.005, keeps it too and
    # factors it at its own size
    def f(u):
        return np.array([u[1], -u[0]])

    problem = PiecewiseProblem(2, f, f, lambda u: -1.0)
    factored = []
    real_factor = rosevent.linalg.lu_factor

    def counting(*args):
        factored.append(None)
        return real_factor(*args)

    taken = []

    def recording(x, active, step, jacobians):
        taken.append((x, step, jacobians, len(factored)))

    cfg = IntegratorConfig(tau=0.01, t_end=0.105)
    with mock.patch.object(rosevent.linalg, "lu_factor", counting), \
            mock.patch.object(rosevent.events, "_on_step", recording):
        result = integrate(problem, [1.0, 0.0], cfg)
    assert result.stats.steps == len(taken) == 11
    assert [j for _, _, j, _ in taken] == [1] + [0] * 10
    assert [n for *_, n in taken] == [1] * 10 + [2]
    assert result.stats.lu_factorizations == 2
    x, last, _, _ = taken[-1]
    assert 0.0 < last.tau < cfg.tau and last.jac is taken[0][1].jac
    fresh = ros2_step(f, x, last.tau, last.jac)
    assert fresh.x1.tobytes() == last.x1.tobytes()


def test_a_kept_w_moves_the_dense_output_by_the_stated_term():
    # a kept W in place of J changes the dense output by
    # c*gamma*2*theta*(1 - theta)*tau^2*(W - J)*f(x0) to leading order, and
    # not at all at theta = 0 (x0) or, to round-off and O(tau^3), at
    # theta = 1. Measured on the kept-W steps of a derivative-free relay
    # against fresh-J steps from the same x0; at eps = 1 and tau = 0.02,
    # tau*|J| is small, so the higher-order terms stay under 10% of it.
    flat = spp_flatten(builtin("kowalczyk", eps=1.0))
    _, taken = recorded_steps(_derivative_free(flat), flat.x0,
                              IntegratorConfig(tau=0.02, t_end=5.0))
    thetas = np.linspace(0.0, 1.0, 11)
    measured = 0
    for x, active, step, jacobians in taken:
        if jacobians:
            continue  # a fresh J: nothing to compare
        A = flat.affine.A1 if active == 1 else flat.affine.A2
        f = flat.f1 if active == 1 else flat.f2
        x = np.array(x)
        fresh = ros2_step(f, x, step.tau, A)
        w_f = (step.J - A) @ f(x)
        terms = [C_ROS2 * GAMMA_ROS2 * 2.0 * th * (1.0 - th) * step.tau**2 * w_f
                 for th in thetas]
        size = max(float(np.abs(t).max()) for t in terms)
        if size <= 100.0 * np.spacing(float(np.abs(x).max())):
            continue  # W - J too small along f(x0) to measure above round-off
        measured += 1
        assert step.value(0.0).tobytes() == fresh.value(0.0).tobytes()
        for th, term in zip(thetas[1:-1], terms[1:-1]):
            assert np.abs(step.value(th) - fresh.value(th) - term).max() <= 0.1 * size
        assert np.abs(step.value(1.0) - fresh.value(1.0)).max() <= 0.05 * size
    assert measured >= 10


def fd_jacobian_error_bound(A, b, reach):
    """Per row, how far a central-difference Jacobian of x -> A x + b may
    be from A, with every stencil point within `reach` of the origin. Each
    f evaluation errs by at most (n + 1)*eps/2 of sum|A_ik*x_k| + |b_i|,
    plus half the smallest subnormal for each of its 2n operations whose
    result underflows (where rounding is absolute: a subnormal A times a
    stencil step can round to 0), and the stencil divides a difference of
    two by at least 2*sqrt(eps)."""
    n = len(b)
    root_eps = math.sqrt(np.finfo(float).eps)
    tiny = float(np.finfo(float).smallest_subnormal)
    size = np.abs(A).sum(axis=1) * reach + np.abs(b)
    return 2.0 * (n + 1) * (root_eps * size + tiny / root_eps)


@st.composite
def affine_switched_fields(draw):
    """A declared affine problem with two different random fields, x0 below
    its surface, and a step size. The fields may agree on the surface
    (A2 = A1 + u n^T, b2 = b1 + u c), so that a crossing's secant fits the
    departing field's W and only the refresh on entry replaces it."""
    n = draw(st.integers(1, 3))
    entry = st.floats(-2.0, 2.0)

    def vector():
        return draw(st.lists(entry, min_size=n, max_size=n))

    A1, b1, normal, x0 = [vector() for _ in range(n)], vector(), vector(), vector()
    c = -float(np.dot(normal, x0)) - draw(st.floats(1e-2, 1.0))
    if draw(st.booleans()):
        u = np.array(vector())
        A2, b2 = np.array(A1) + np.outer(u, normal), np.array(b1) + u * c
    else:
        A2, b2 = [vector() for _ in range(n)], vector()
    problem = affine_problem(Affine(A1, b1, A2, b2, normal, c))
    return problem, np.array(x0), draw(st.floats(1e-2, 0.2))


@settings(max_examples=100, deadline=None)
@given(case=affine_switched_fields())
def test_a_kept_jacobian_stays_within_finite_difference_error_of_the_field(case):
    declared, x0, tau = case
    aff = declared.affine
    cfg = IntegratorConfig(tau=tau, t_end=2.0, max_events=8)
    _, taken = recorded_steps(_derivative_free(declared), x0, cfg)
    # twice the largest |x| the steps start from covers the stencil points
    reach = 2.0 * max(1.0, max(float(np.abs(x).max()) for x, *_ in taken))
    for x, active, step, _ in taken:
        A, b = (aff.A1, aff.b1) if active == 1 else (aff.A2, aff.b2)
        tol = fd_jacobian_error_bound(A, b, reach)
        assert np.all(np.abs(step.J - A) <= tol[:, None]), (active, step.J, A)


def test_a_subnormal_slope_is_within_the_finite_difference_bound():
    # f(x) = 5e-324*x from x = 0: every stencil value underflows to 0, so
    # the finite-difference J is exactly 0. Its error, 5e-324, is within
    # the underflow term of the bound and not within its relative part,
    # which is 0 here.
    declared = affine_problem(Affine([[5e-324]], [0.0], [[0.0]], [0.0], [0.0], -1.0))
    cfg = IntegratorConfig(tau=0.125, t_end=2.0, max_events=8)
    _, taken = recorded_steps(_derivative_free(declared), np.array([0.0]), cfg)
    step = taken[0][2]
    assert step.J.tolist() == [[0.0]]
    tol = fd_jacobian_error_bound(declared.affine.A1, declared.affine.b1, 2.0)
    assert 0.0 < 5e-324 <= tol[0]
    assert 2.0 * 2 * math.sqrt(np.finfo(float).eps) * (5e-324 * 2.0) == 0.0


@pytest.mark.parametrize("t_end", [0.5, 2.0])
def test_a_state_that_overflows_fails_the_run_at_its_step(t_end):
    # x' = x from 1e308: the first step's x1 overflows (1e308 + 1.5*k1
    # rounds to inf though x1 itself would be finite). It used to reach the
    # mesh as a finished run (t_end = 0.5) or fail a step later with a bare
    # "vector entries must be finite" (t_end = 2), with a RuntimeWarning
    # from h either way.
    problem = builtin("linear_test", lam=1.0)
    cfg = IntegratorConfig(tau=0.5, t_end=t_end)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState, match=r"^the step's end state is not finite: "
                           r"x1 = \[inf\] \(step 0, t = 0, field 1\)$"):
            integrate(problem, [1e308], cfg)
    assert issubclass(NonFiniteState, ValueError)


def test_a_nan_h_at_a_step_end_fails_the_run_at_its_step():
    # h has no value on (0.44, 0.56): the run used to read the NaN as
    # region 2's side, then ran field 1 through region 2 to t_end without
    # an event
    def h(x):
        v = float(x[0])
        return math.nan if 0.44 < v < 0.56 else v - 0.5

    problem = PiecewiseProblem(1, lambda x: np.array([1.0]), lambda x: np.array([-1.0]), h,
                               jac_f1=lambda x: np.zeros((1, 1)),
                               jac_f2=lambda x: np.zeros((1, 1)))
    # the stats the run counts on, as its steps see them
    runs = []

    def observe(x, active, step, jacobians):
        runs.append(rosevent.linalg.current_run.get())

    with mock.patch.object(rosevent.events, "_on_step", observe), \
            pytest.raises(ValueError, match=r"^h is NaN at the end of step 8, t = 0\.45: "
                          r"h\(x1\) = nan$"):
        integrate(problem, [0.0], IntegratorConfig(tau=0.05, t_end=1.0))
    stats = runs[0]
    assert all(s is stats for s in runs) and stats.f_evals == {1: 18, 2: 0}
    # the run's counting ended with it: a field evaluated after it counts on
    # no run, the failed one included
    assert rosevent.linalg.current_run.get() is None
    eval_field(problem, 1, [0.0])
    assert stats.f_evals == {1: 18, 2: 0}


def test_probes_that_do_not_move_the_state_call_no_h():
    # a relay-orbit event (seed 24) where X1 does not move at a probe's
    # ulp-scale shift: two probes share a state, so h is called twice, where
    # it is called three times without the check
    problem = spp_flatten(builtin("kowalczyk", theta=-0.9094822684360856, eps=1e-2))
    x0 = np.array([-1.0747378193271921, 0.15639602255499457])
    cfg = IntegratorConfig(tau=4e-3, t_end=0.02)
    result = integrate(problem, x0, cfg)
    event = result.events[0]
    assert event.step_index == 1
    assert event.direction is Direction.R2_TO_R1
    assert event.root_iterations == 2
    g = float(problem.h(event.x_star))
    assert 0.0 <= g <= cfg.h_tol


# --- the array oracle: event location as it ran on arrays, before the dense
# output and a declared h ran on the step's floats. array_value is the body
# RosenbrockStep.value had then, and array_locate_event is that
# locate_event's own body, with X1 read through array_value -----------------

def array_value(step, theta):
    if theta == 0.0:
        return step.x0
    if step.stages == 1:
        return np.array([x + theta * a for x, a in zip(step.x0f, step.k1f)])
    w1 = C_ROS2 * (theta * (theta + (2.0 - 6.0 * GAMMA_ROS2)))
    w2 = C_ROS2 * (theta * (theta - 2.0 * GAMMA_ROS2))
    return np.array([x + w1 * a + w2 * b for x, a, b in zip(step.x0f, step.k1f, step.k2f)])


def array_locate_event(step, h, cfg, step_index=0, t_offset=0.0, h0=None, h1=None,
                       surface=None):
    X1 = functools.partial(array_value, step)

    def g(theta):
        return float(h(X1(theta)))

    if h0 is None:
        h0 = g(0.0)
    neg = h0 < 0.0
    lo, g_lo, hi, g_hi, calls = 0.0, h0, None, None, 0
    settled = False
    theta = None
    if surface is not None and h0 != 0.0:
        m1, m2 = step.slopes(surface.n.tolist())
        theta = linalg.quadratic_root(h0, m1, m2, 1.0)
    seen = None  # the bytes of the last probe's state
    for k in range(SNAP_TRIES if theta is not None else 0):
        x_theta = X1(theta)
        key = x_theta.tobytes()
        if key != seen:
            seen = key
            g_theta = float(h(x_theta))
            calls += 1
        # else X1 is flat at this theta resolution: h reads as before
        departing = g_theta < 0.0 if neg else g_theta > 0.0
        if departing or g_theta == 0.0:
            lo, g_lo = theta, g_theta
        else:  # the far side, or NaN
            hi, g_hi = theta, g_theta
        settled = (g_theta == 0.0 or (departing and abs(g_theta) <= cfg.h_tol)
                   or (hi is not None and hi - lo <= THETA_TOL))
        if settled or (hi is not None and lo > 0.0):
            break
        # step across the root, at least an ulp, twice as far each time
        slope = abs(m1 + theta * m2)
        shift = 2.0 ** (k + 1) * max(math.ulp(theta),
                                     abs(g_theta) / slope if slope else math.inf)
        theta = theta + shift if departing else theta - shift
        if not 0.0 < theta < 1.0:
            break
    if not settled:
        # no closed form, or a bracket the probes did not narrow enough
        if hi is None:
            if h1 is None:
                h1 = g(1.0)
            if not detect_sign_change(h0, h1):
                raise NoBracket(f"no sign change across the step: h0={h0:g}, h1={h1:g}")
            hi, g_hi = 1.0, h1
        lo, g_lo, more = linalg.safe_side_root(g, lo, hi, g_lo, g_hi, cfg.h_tol, THETA_TOL)
        calls += more
    return EventRecord(
        step_index=step_index,
        theta_star=lo,
        t_star=t_offset + lo * step.tau,
        x_star=X1(lo),
        residual=abs(g_lo),
        direction=Direction.R1_TO_R2 if neg else Direction.R2_TO_R1,
        root_iterations=calls,
    )


def location_outcome(locate, *args, **kwargs):
    # every field of the record, each float by its bits, or the NoBracket
    try:
        r = locate(*args, **kwargs)
    except NoBracket as exc:
        return "NoBracket", str(exc)
    return (r.step_index, r.theta_star.hex(), r.t_star.hex(), r.x_star.tobytes(),
            r.residual.hex(), r.direction, r.root_iterations)


@st.composite
def location_cases(draw):
    """A one- or two-stage step of a random affine field on n = 1..4 states,
    tau over eight decades (so the probes may not move the state), and the
    surface n.x + c through its dense output at a random theta or a random
    distance off its start (which may leave no bracket)."""
    dim = draw(st.integers(1, 4))
    fin = st.floats(-3.0, 3.0)
    A = np.array(draw(st.lists(fin, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    b = np.array(draw(st.lists(fin, min_size=dim, max_size=dim)))
    x0 = np.array(draw(st.lists(fin, min_size=dim, max_size=dim)))
    n = np.array(draw(st.lists(fin, min_size=dim, max_size=dim)))
    assume(np.any(n != 0.0))
    tau = 10.0 ** draw(st.floats(-8.0, 0.0))
    stepper = draw(st.sampled_from([ros1_step, ros2_step]))
    try:
        step = stepper(lambda x: A @ x + b, x0, tau, A)
    except SingularMatrix:
        assume(False)
    if draw(st.booleans()):
        c = -float(n @ array_value(step, draw(st.floats(0.0, 1.0))))
    else:
        c = -float(n @ x0) + draw(st.floats(-1.0, 1.0))
    cfg = default_cfg(tau=tau, h_tol=draw(st.sampled_from([1e-12, 0.0])))
    return step, n, c, cfg, draw(st.booleans()), draw(st.integers(0, 9)), draw(st.floats(0.0, 5.0))


@settings(max_examples=400, deadline=None)
@given(case=location_cases())
def test_location_on_floats_is_the_array_location_bit_for_bit(case):
    step, n, c, cfg, ends_given, step_index, t_offset = case
    surface = Surface(n, c)
    declared = surface.callables[0]
    ends = ({"h0": declared(step.x0f), "h1": declared(step.x1f)} if ends_given else {})
    args = (cfg, step_index, t_offset)
    # a declared surface: h is handed floats, with or without the driver's
    # slopes; the oracle hands it arrays
    want = location_outcome(array_locate_event, step, declared, *args, **ends, surface=surface)
    assert location_outcome(locate_event, step, declared, *args, **ends, surface=surface) == want
    assert location_outcome(locate_event, step, declared, *args, **ends, surface=surface,
                            slopes=step.slopes(n.tolist())) == want

    # an undeclared h gets arrays on both paths
    def plain(x):
        assert type(x) is np.ndarray
        return float(n @ x) + c

    assert (location_outcome(locate_event, step, plain, *args, **ends)
            == location_outcome(array_locate_event, step, plain, *args, **ends))


def test_the_drivers_locations_are_the_array_locations_bit_for_bit():
    # every location the driver runs on the declared relays, the flat-probe
    # event of test_probes_that_do_not_move_the_state_call_no_h included,
    # equals the oracle's from the same step and ends
    runs = [(spp_flatten(builtin("kowalczyk", theta=-0.9094822684360856, eps=1e-2)),
             np.array([-1.0747378193271921, 0.15639602255499457]), 0.02)]
    runs += [(spp_flatten(builtin(name, eps=1e-2)), None, 2.0)
             for name in ("kowalczyk", "teixeira")]
    real = rosevent.events.locate_event
    compared = []

    def both(step, h, cfg, *args, slopes=None, **kwargs):
        want = location_outcome(array_locate_event, step, h, cfg, *args, **kwargs)
        assert location_outcome(real, step, h, cfg, *args, slopes=slopes, **kwargs) == want
        compared.append(want)
        return real(step, h, cfg, *args, slopes=slopes, **kwargs)

    for problem, x0, t_end in runs:
        with mock.patch.object(rosevent.events, "locate_event", both):
            result = integrate(problem, problem.x0 if x0 is None else x0,
                               IntegratorConfig(tau=4e-3, t_end=t_end))
        assert result.termination is Termination.REACHED_T_END
    assert len(compared) >= 40


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_the_repeat_test_is_the_bytes_comparison(data):
    # zeros of either sign, NaNs of two payloads and infinities
    other_nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=float)[0].item()
    pool = st.sampled_from([0.0, -0.0, math.nan, other_nan, math.inf, -math.inf, 1.0, -1.0,
                            5e-324, 2.5])
    a = data.draw(st.lists(pool, min_size=1, max_size=4))
    b = [data.draw(pool) if data.draw(st.booleans()) else v for v in a]
    # fresh float objects, as the dense output makes them
    a, b = [v * 1.0 for v in a], [v * 1.0 for v in b]
    assert rosevent.events._same_bits(a, b) == (np.array(a).tobytes() == np.array(b).tobytes())


# --- slopes past fsum's range, and errors with their step -------------------

def overflowing_slopes_problem():
    """x' = (1, 1) then (-1, -1) across h = 1e300*(x0 + x1): on the first
    step from (-4e7, -4e7) at tau = 1e8 each product n_i*k_i is 1e308, so
    math.fsum's partial sums overflow on finite inputs; the surface is hit
    at t = 4e7 and both fields push into it (sliding)."""
    zero = np.zeros((2, 2))
    return affine_problem(Affine(A1=zero, b1=np.array([1.0, 1.0]), A2=zero,
                                 b2=np.array([-1.0, -1.0]), n=np.array([1e300, 1e300]), c=0.0))


@pytest.mark.parametrize("method", [ROS2, ROS1])
def test_a_dot_product_past_the_float_range_does_not_escape_a_run(method):
    result = integrate(overflowing_slopes_problem(), np.array([-4e7, -4e7]),
                       IntegratorConfig(tau=1e8, t_end=2e8, method=method))
    assert len(result.events) == 1
    assert result.events[0].t_star == pytest.approx(4e7, rel=1e-9)
    assert result.termination is Termination.SLIDING


def test_the_slopes_and_the_dense_guard_of_an_overflowing_step_are_values():
    problem = overflowing_slopes_problem()
    step = ros2_step(array_field(problem, 1), np.array([-4e7, -4e7]), 1e8, np.zeros((2, 2)))
    # n.k1 = 2e308 and n.k2 = -2e308 exactly: infinities once rounded
    m1, m2 = step.slopes(problem.surface.n.tolist())
    assert m1 == math.inf and math.isnan(m2)
    report = rosevent.onesided.guard_ros2_dense(problem, step)
    assert not report.passed and report.certified_sigma == 0.0


def region_1_problem(f1, jac_f1):
    """A declared surface x0 = 10 that runs from (0, 0) never reach, with
    field 1 and its Jacobian as given."""
    return PiecewiseProblem(dim=2, f1=f1, f2=lambda x: -x, surface=Surface([1.0, 0.0], -10.0),
                            jac_f1=jac_f1, jac_f2=lambda x: -np.eye(2))


@pytest.mark.parametrize("method, step, t", [(ROS2, 2, r"0\.2"), (ROS1, 3, r"0\.3")])
def test_a_field_value_that_is_not_finite_names_its_step(method, step, t):
    # inf from x0 = 0.25 on: the two-stage step from 0.2 meets it at its
    # stage state, the one-stage step at its start 0.3
    problem = region_1_problem(
        lambda x: np.array([1.0 if x[0] < 0.25 else math.inf, 0.0]),
        lambda x: np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^vector entries must be finite "
                                         rf"\(step {step}, t = {t}, field 1\)$"):
        integrate(problem, np.array([0.0, 0.0]), IntegratorConfig(tau=0.1, t_end=1.0,
                                                                  method=method))


def test_a_jacobian_entry_that_is_not_finite_names_its_step():
    problem = region_1_problem(
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.array([[0.0, 0.0], [0.0, 0.0 if x[0] < 0.25 else math.inf]]))
    with pytest.raises(ValueError, match=r"^matrix entries must be finite "
                                         r"\(step 3, t = 0\.3, field 1\)$"):
        integrate(problem, np.array([0.0, 0.0]), IntegratorConfig(tau=0.1, t_end=1.0))


def test_a_residual_too_large_names_its_step():
    # z = y + 1 is off kowalczyk's manifold z = 0 wherever the field is asked
    problem = reduced_order_model(builtin("kowalczyk"), lambda y: y + 1.0)
    with pytest.raises(ResidualTooLarge, match=r"^g\(y, g0\(y\)\) has residual 1\.000e\+00 "
                                                r"> 1\.0e-08 at y=\[0\.5\] "
                                                r"\(step 0, t = 0, field 2\)$"):
        integrate(problem, np.array([0.5]), IntegratorConfig(tau=0.1, t_end=1.0))

"""Event detection, safe-side location, and the integration driver."""

import math
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rosevent.events
import rosevent.linalg
from rosevent.errors import DomainViolation, NoBracket, SingularMatrix
from rosevent.events import (
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
from rosevent.onesided import GuardMode
from rosevent.problems import (
    SIGMA_TOL,
    Affine,
    PiecewiseProblem,
    SppProblem,
    affine_problem,
    builtin,
    eval_field,
    field_fn,
    field_jacobian,
    problem_names,
    spp_flatten,
)
from rosevent.rosenbrock import (
    dense_derivative,
    dense_eval,
    method_by_name,
    restep,
    ros1_step,
    ros2_step,
)


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
    return ros2_step(field_fn(problem, which), x0, tau,
                     field_jacobian(problem, which, x0))


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


def test_locate_costs_no_field_evals_or_solves(monkeypatch):
    problem = builtin("tent")
    x = np.array([0.4])
    step = ros2_step(field_fn(problem, 1), x, 0.2,
                     field_jacobian(problem, 1, x))

    def banned(*a, **k):  # pragma: no cover - should never run
        raise AssertionError("linear algebra called during event location")

    monkeypatch.setattr(rosevent.linalg, "lu_factor", banned)
    monkeypatch.setattr(rosevent.linalg, "lu_solve", banned)
    before = problem.counters.snapshot()[0]
    record = locate_event(step, problem.h, default_cfg())
    after = problem.counters.snapshot()[0]
    assert after == before
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
    fld = field_fn(problem, 1)
    step = ros2_step(fld, x_before, tau, field_jacobian(problem, 1, x_before))
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
    with pytest.raises(ValueError, match="h is not finite"):
        integrate(tent, [math.nan], default_cfg(tau=0.1))


def test_integrate_validates_guard_method_pairing():
    tent = builtin("tent")
    ros1 = method_by_name("ros1")
    with pytest.raises(ValueError, match="two-stage"):
        integrate(tent, [0.0], default_cfg(
            tau=0.1, method=ros1, guard_mode=GuardMode.ROS2_DENSE))
    with pytest.raises(ValueError, match="one-stage"):
        integrate(tent, [0.0], default_cfg(
            tau=0.1, guard_mode=GuardMode.ROS1_GENERAL))


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
    assert result.mesh[-1][1] is last.x_star


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
    """integrate, plus the number of linalg.lu_factor calls it made."""
    calls = []
    real = rosevent.linalg.lu_factor

    def counted(m):
        calls.append(1)
        return real(m)

    with mock.patch.object(rosevent.linalg, "lu_factor", counted):
        result = integrate(problem, x0, cfg)
    return result, len(calls)


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
        if end is not None and end.x_star is x1:
            continue
        start = events_at.get(t0)
        if start is not None and start.x_star is x0:
            active = 2 if start.direction is Direction.R1_TO_R2 else 1
        else:
            active = 1 if problem.h(x0) < 0.0 else 2
        fresh = stepper(field_fn(problem, active), x0, min(cfg.tau, cfg.t_end - t0),
                        field_jacobian(problem, active, x0), field_id=active)
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

    # the relay without analytic Jacobians: finite differences give J
    # bit patterns that can change from step to step
    relay = builtin_piecewise("kowalczyk")
    relay.jac_f1 = relay.jac_f2 = None
    cfg = IntegratorConfig(tau=4e-3, t_end=1.0)
    result, lu_calls = integrate_counting_lu(relay, relay.x0, cfg)
    assert result.events
    assert result.stats.lu_factorizations == lu_calls <= result.stats.steps


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


def accepted_steps(problem, x0, cfg):
    """integrate, plus (step, theta_end) for every accepted step: the part
    [0, theta_end] of each step the run kept, found by following the state
    each step hands to the next."""
    taken = []
    real = rosevent.events.take_step

    def recording(problem, x, *args):
        out = real(problem, x, *args)
        taken.append((x, out[0]))
        return out

    with mock.patch.object(rosevent.events, "take_step", recording):
        result = integrate(problem, x0, cfg)
    if result.termination is Termination.CHATTERING:
        taken.pop()  # the turned-back step is not kept
    events = iter(result.events)
    pending = next(events, None)
    kept = []
    for i, (_, step) in enumerate(taken):
        following = taken[i + 1][0] if i + 1 < len(taken) else None
        if pending is not None and (following is None or pending.x_star is following):
            kept.append((step, pending.theta_star))
            pending = next(events, None)
        else:
            assert following is None or following is step.x1
            kept.append((step, 1.0))
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
    for step, theta_end in kept:
        side = -1.0 if step.field_id == 1 else 1.0
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
    got = rosevent.events._first_root(g0, m1, m2)
    if root is None:
        assert got is None
    else:
        assert got == pytest.approx(root, rel=1e-9)


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
def test_closed_form_location_agrees_with_bisection(case):
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
            mock.patch.object(rosevent.linalg, "lu_solve", banned):
        before = problem.counters.snapshot()
        record = locate_event(step, h, default_cfg(), surface=problem.surface)
        assert problem.counters.snapshot() == before

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

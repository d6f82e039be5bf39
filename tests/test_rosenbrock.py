"""Rosenbrock steps: scalar closed forms, order, stability, dense output."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import rosevent.linalg
from rosevent.rosenbrock import (
    GAMMA_ROS2,
    ROS1,
    ROS2,
    dense_derivative,
    dense_eval,
    method_by_name,
    restep,
    ros1_step,
    ros2_factor,
    ros2_finish,
    ros2_stage1,
    ros2_step,
    step_matrix,
)


def stability_ros2(z: float) -> float:
    """R(z) for the two-stage scheme, written out independently."""
    g = GAMMA_ROS2
    return (1.0 + (1.0 - 2.0 * g) * z) / (1.0 - g * z) ** 2


def linear_field(lam):
    return lambda x: lam * np.asarray(x, dtype=float)


# --- scheme algebra --------------------------------------------------------

def test_gamma_satisfies_order_two_condition():
    # the z^2 coefficient of R is 2*gamma - gamma^2; order two needs 1/2
    assert abs(2.0 * GAMMA_ROS2 - GAMMA_ROS2**2 - 0.5) < 1e-15


def test_method_lookup():
    assert method_by_name("ros1") is ROS1
    assert method_by_name("ros2") is ROS2
    with pytest.raises(ValueError):
        method_by_name("ros3")


def test_ros1_scalar_closed_form():
    # (1 - tau*lam) k1 = tau*lam*x0  =>  x1 = x0 / (1 - tau*lam)
    lam, tau = -2.0, 0.25
    step = ros1_step(linear_field(lam), np.array([1.0]), tau, np.array([[lam]]))
    npt.assert_allclose(step.x1, [1.0 / 1.5], rtol=1e-15, atol=0)
    assert step.stages == 1 and step.k2 is None


def test_ros2_scalar_matches_stability_function():
    lam = -2.0
    for tau in (0.25, 0.1, 1.0):
        step = ros2_step(linear_field(lam), np.array([1.0]), tau, np.array([[lam]]))
        npt.assert_allclose(step.x1, [stability_ros2(tau * lam)],
                            rtol=1e-13, atol=0)


def test_stability_function_is_second_order():
    for z in (0.1, -0.1, 0.01, -0.01):
        series = 1.0 + z + 0.5 * z * z
        assert abs(stability_ros2(z) - series) <= 0.5 * abs(z) ** 3


def test_l_stability_damps_stiff_modes():
    lam = -1e6
    for tau in (1e-6, 1e-4, 1e-2, 1.0):
        step = ros2_step(linear_field(lam), np.array([1.0]), tau, np.array([[lam]]))
        # x1 comes from cancelling O(1) stage values, so compare absolutely
        npt.assert_allclose(step.x1[0], stability_ros2(tau * lam),
                            rtol=1e-9, atol=1e-13)
        assert abs(step.x1[0]) < 1.0
    # and the damping grows with stiffness
    assert abs(stability_ros2(-1e6)) < 1e-5


def test_convergence_order_smooth_problem():
    # x' = -x over [0, 1]; error at t = 1 against exp(-1)
    def run(method_step, tau):
        x = np.array([1.0])
        J = np.array([[-1.0]])
        t = 0.0
        while t < 1.0 - 1e-12:
            x = method_step(linear_field(-1.0), x, tau, J).x1
            t += tau
        return abs(x[0] - math.exp(-1.0))

    errs2 = [run(ros2_step, 0.1 / 2**k) for k in range(4)]
    orders2 = [math.log2(errs2[k - 1] / errs2[k]) for k in range(1, 4)]
    assert all(1.9 < o < 2.1 for o in orders2)

    errs1 = [run(ros1_step, 0.1 / 2**k) for k in range(4)]
    orders1 = [math.log2(errs1[k - 1] / errs1[k]) for k in range(1, 4)]
    assert all(0.9 < o < 1.1 for o in orders1)


# --- dense output ----------------------------------------------------------

def test_dense_endpoints():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        A = rng.uniform(-2.0, 2.0, size=(n, n))
        x0 = rng.uniform(-3.0, 3.0, size=n)
        tau = float(rng.uniform(0.01, 0.5))
        step = ros2_step(lambda x: A @ x + 1.0, x0, tau, A)
        # theta = 0 returns the start state bit for bit
        npt.assert_array_equal(dense_eval(step, 0.0), x0)
        # theta = 1 reproduces x1 to a few ulp
        end = dense_eval(step, 1.0)
        assert np.all(np.abs(end - step.x1) <= 4.0 * np.spacing(np.abs(step.x1)))


def test_dense_interpolates_linear_flow_to_third_order():
    lam, x0 = -1.0, np.array([1.0])
    for tau in (0.2, 0.1, 0.05):
        step = ros2_step(linear_field(lam), x0, tau, np.array([[lam]]))
        for theta in (0.25, 0.5, 0.75):
            exact = math.exp(lam * theta * tau)
            assert abs(dense_eval(step, theta)[0] - exact) <= abs(tau) ** 3


def test_dense_reproduces_quadratic_flow_exactly():
    # u = (x, t), x' = 2 + 3t, t' = 1: the dense output returns the exact
    # parabola x0 + 2*theta*tau + 1.5*(theta*tau)^2 up to round-off
    def f(u):
        return np.array([2.0 + 3.0 * u[1], 1.0])

    J = np.array([[0.0, 3.0], [0.0, 0.0]])
    tau = 0.4
    step = ros2_step(f, np.array([0.7, 0.0]), tau, J)
    for theta in np.linspace(0.0, 1.0, 9):
        s = theta * tau
        npt.assert_allclose(dense_eval(step, float(theta)),
                            [0.7 + 2.0 * s + 1.5 * s * s, s],
                            rtol=0, atol=1e-14)
        npt.assert_allclose(dense_derivative(step, float(theta)),
                            [tau * (2.0 + 3.0 * s), tau],
                            rtol=0, atol=1e-13)


def test_dense_one_stage_is_chord():
    step = ros1_step(linear_field(-1.0), np.array([2.0]), 0.5, np.array([[-1.0]]))
    npt.assert_array_equal(dense_eval(step, 0.0), [2.0])
    npt.assert_allclose(dense_eval(step, 0.5), step.x0 + 0.5 * step.k1,
                        rtol=0, atol=0)
    npt.assert_array_equal(dense_eval(step, 1.0), step.x1)


def test_dense_theta_validated():
    step = ros1_step(linear_field(-1.0), np.array([1.0]), 0.5, np.array([[-1.0]]))
    with pytest.raises(ValueError):
        dense_eval(step, -0.1)
    with pytest.raises(ValueError):
        dense_eval(step, 1.1)
    with pytest.raises(ValueError):
        dense_derivative(step, 2.0)


# --- restep ----------------------------------------------------------------

def test_restep_full_size_is_bit_identical():
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    step = ros2_step(lambda x: A @ x, np.array([1.0, -1.0]), 0.3, A)
    again = restep(lambda x: A @ x, step, 0.3)
    npt.assert_array_equal(again.x1, step.x1)
    npt.assert_array_equal(again.k1, step.k1)


def test_restep_matches_direct_smaller_step():
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    fld = lambda x: A @ x  # noqa: E731
    step = ros2_step(fld, np.array([1.0, -1.0]), 0.3, A)
    half = restep(fld, step, 0.15)
    direct = ros2_step(fld, np.array([1.0, -1.0]), 0.15, A)
    npt.assert_array_equal(half.x1, direct.x1)
    assert half.tau == 0.15


def test_restep_sigma_validated():
    step = ros1_step(linear_field(-1.0), np.array([1.0]), 0.5, np.array([[-1.0]]))
    with pytest.raises(ValueError):
        restep(linear_field(-1.0), step, 0.0)
    with pytest.raises(ValueError):
        restep(linear_field(-1.0), step, 0.6)


# --- input checks ----------------------------------------------------------

X0 = np.array([1.0, -0.5])
J0 = np.array([[-1.0, 0.5], [0.0, -2.0]])


def field_bad_at(bad, where):
    """J0 @ x, except that the value is `bad` at x0 ("x0") or everywhere
    else, which includes the inner stage x0 + k1 ("inner")."""
    def f(x):
        at_x0 = np.array_equal(x, X0)
        if at_x0 == (where == "x0"):
            return np.array([bad, 0.0])
        return J0 @ x
    return f


@pytest.mark.parametrize("step_fn", [ros1_step, ros2_step])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_steps_reject_nonfinite_inputs(step_fn, bad):
    with pytest.raises(ValueError, match="vector entries must be finite"):
        step_fn(lambda x: J0 @ x, np.array([1.0, bad]), 0.1, J0)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        step_fn(field_bad_at(bad, "x0"), X0, 0.1, J0)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        step_fn(lambda x: J0 @ x, X0, 0.1, np.array([[-1.0, bad], [0.0, -2.0]]))
    with pytest.raises(ValueError, match="expected a square matrix"):
        step_fn(lambda x: J0 @ x, X0, 0.1, np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ros2_rejects_nonfinite_inner_stage(bad):
    # the field is finite at x0, so only the check on the second stage
    # right-hand side can catch this
    with pytest.raises(ValueError, match="vector entries must be finite"):
        ros2_step(field_bad_at(bad, "inner"), X0, 0.1, J0)
    factors = ros2_factor(J0, 0.1)
    k1 = ros2_stage1(factors, J0 @ X0, 0.1)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        ros2_finish(field_bad_at(bad, "inner"), X0, 0.1, J0, factors, k1)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        ros2_finish(lambda x: J0 @ x, np.array([bad, 0.0]), 0.1, J0, factors, k1)


# --- cost ------------------------------------------------------------------

def test_ros2_step_costs_one_factorization_two_solves(monkeypatch):
    counts = {"factor": 0, "solve": 0}
    real_factor = rosevent.linalg.lu_factor
    real_solve = rosevent.linalg.lu_solve

    def counting_factor(m):
        counts["factor"] += 1
        return real_factor(m)

    def counting_solve(f, b):
        counts["solve"] += 1
        return real_solve(f, b)

    monkeypatch.setattr(rosevent.linalg, "lu_factor", counting_factor)
    monkeypatch.setattr(rosevent.linalg, "lu_solve", counting_solve)
    ros2_step(linear_field(-1.0), np.array([1.0]), 0.1, np.array([[-1.0]]))
    assert counts == {"factor": 1, "solve": 2}


@pytest.mark.parametrize("step_fn, gamma", [(ros1_step, 1.0), (ros2_step, GAMMA_ROS2)])
def test_given_factors_give_the_same_step_without_factoring(monkeypatch, step_fn, gamma):
    J = np.array([[-3.0, 1.0], [0.5, -2.0]])
    x0 = np.array([1.0, -0.5])
    fresh = step_fn(lambda x: J @ x, x0, 0.1, J, field_id=2)
    factors = rosevent.linalg.lu_factor(step_matrix(J, 0.1, gamma))

    def banned(*a, **k):  # pragma: no cover - must not run
        raise AssertionError("factored although factors were given")

    monkeypatch.setattr(rosevent.linalg, "lu_factor", banned)
    kept = step_fn(lambda x: J @ x, x0, 0.1, J, field_id=2, factors=factors)
    assert kept.x1.tobytes() == fresh.x1.tobytes()
    assert kept.k1.tobytes() == fresh.k1.tobytes()
    if fresh.k2 is not None:
        assert kept.k2.tobytes() == fresh.k2.tobytes()
    assert (kept.tau, kept.gamma, kept.stages, kept.field_id) == \
        (fresh.tau, fresh.gamma, fresh.stages, fresh.field_id)


def test_ros2_with_fd_jacobian_close_to_analytic():
    def f(x):
        return np.array([math.sin(x[0]) - x[1], x[0] * x[1]])

    x0 = np.array([0.4, -0.3])
    J_exact = np.array([[math.cos(0.4), -1.0], [-0.3, 0.4]])
    J_fd = rosevent.linalg.fd_jacobian(f, x0)
    exact = ros2_step(f, x0, 0.2, J_exact).x1
    approx = ros2_step(f, x0, 0.2, J_fd).x1
    npt.assert_allclose(approx, exact, rtol=1e-7, atol=1e-10)

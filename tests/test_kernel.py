"""The float step kernel against the numpy formulas it replaced, and the
errors a bad field value raises on every step path."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rosevent import linalg
from rosevent.errors import SingularMatrix
from rosevent.events import IntegratorConfig, integrate
from rosevent.onesided import GuardMode
from rosevent.problems import Affine, PiecewiseProblem, affine_problem, field_floats
from rosevent.rosenbrock import (
    ROS1,
    ROS2,
    dense_derivative,
    dense_eval,
    ros1_step,
    ros2_finish,
    ros2_step,
    step_matrix,
)

# --- the numpy reference: the step and dense formulas as numpy array
# expressions, one operation at a time, as rosenbrock computed them before
# its arithmetic moved to Python floats ------------------------------------


def reference_step(method, field, x0, tau, factors):
    """(k1, k2, x1) of a one- or two-stage step from given factors."""
    x0 = linalg.as_vector(x0)
    fx0 = np.asarray(field(x0), dtype=float)
    k1 = linalg.lu_solve(factors, tau * fx0)
    if method.stages == 1:
        return k1, None, x0 + k1
    f_inner = np.asarray(field(x0 + k1), dtype=float)
    k2 = linalg.lu_solve(factors, tau * f_inner - 2.0 * k1)
    return k1, k2, x0 + 1.5 * k1 + 0.5 * k2


def reference_dense_eval(step, theta):
    if theta == 0.0:
        return step.x0
    if step.stages == 1:
        return step.x0 + theta * step.k1
    c = 1.0 / (2.0 * (1.0 - 2.0 * step.gamma))
    b1 = theta * (theta + (2.0 - 6.0 * step.gamma))
    b2 = theta * (theta - 2.0 * step.gamma)
    return step.x0 + (c * b1) * step.k1 + (c * b2) * step.k2


def reference_dense_derivative(step, theta):
    if step.stages == 1:
        return step.k1.copy()
    c = 1.0 / (2.0 * (1.0 - 2.0 * step.gamma))
    db1 = 2.0 * theta + (2.0 - 6.0 * step.gamma)
    db2 = 2.0 * theta - 2.0 * step.gamma
    return (c * db1) * step.k1 + (c * db2) * step.k2


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


STEPPERS = {1: ros1_step, 2: ros2_step}
entry = st.floats(-10.0, 10.0)


@st.composite
def affine_cases(draw):
    """A random affine field x' = A x + b, n = 1..4, a state, a step size,
    a method, and the LU factors of that method's step matrix."""
    n = draw(st.integers(1, 4))
    A = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    x0 = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    tau = draw(st.floats(1e-4, 1.0))
    method = draw(st.sampled_from([ROS1, ROS2]))
    try:
        factors = linalg.lu_factor(step_matrix(A, tau, method.gamma))
    except SingularMatrix:
        assume(False)
    return A, b, x0, tau, method, factors


@settings(max_examples=300, deadline=None)
@given(case=affine_cases(), theta=st.floats(0.0, 1.0))
def test_kernel_reproduces_the_numpy_formulas_bit_for_bit(case, theta):
    A, b, x0, tau, method, factors = case

    def field(x):
        return A @ x + b

    with np.errstate(all="ignore"):
        try:
            k1, k2, x1 = reference_step(method, field, x0, tau, factors)
        except ValueError as exc:
            # a stage that overflows fails the same check in the kernel
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                STEPPERS[method.stages](field, x0, tau, A, factors=factors)
            return
        step = STEPPERS[method.stages](field, x0, tau, A, factors=factors)
        assert same_bits(step.k1, k1)
        assert (step.k2 is None) if k2 is None else same_bits(step.k2, k2)
        assert same_bits(step.x1, x1)
        for th in (0.0, theta, 1.0):
            assert same_bits(dense_eval(step, th), reference_dense_eval(step, th))
            assert same_bits(dense_derivative(step, th), reference_dense_derivative(step, th))


@settings(max_examples=100, deadline=None)
@given(case=affine_cases())
def test_integrate_takes_the_standalone_step(case):
    A, b, x0, tau, method, _ = case
    # h = -1 everywhere: no surface, so a run to t_end = tau is one plain step
    problem = affine_problem(Affine(A, b, A, b, np.zeros(len(b)), -1.0))
    with np.errstate(all="ignore"):
        try:
            alone = STEPPERS[method.stages](field_floats(problem, 1), x0, tau, A)
        except ValueError:
            assume(False)
        result = integrate(problem, x0, IntegratorConfig(tau=tau, t_end=tau, method=method))
    assert result.stats.steps == 1
    t1, x1 = result.mesh[1]
    assert t1 == tau
    assert same_bits(x1, alone.x1)


def test_ros2_finish_rejects_a_first_stage_of_another_length():
    J = -np.eye(2)
    factors = linalg.lu_factor(step_matrix(J, 0.1, ROS2.gamma))
    with pytest.raises(ValueError, match=re.escape("k1 has shape (1,) but x0 has shape (2,)")):
        ros2_finish(lambda x: J @ x, np.ones(2), 0.1, J, factors, np.ones(1))


# --- the error contract: a bad field value fails the step that reads it -----

X0 = np.array([1.0, 1.0])


def problem_with_field_1(value_at):
    """Linear field 2 and an analytic Jacobian; h = x[0] - 10 keeps every run
    in region 1, where field 1 is value_at(x)."""
    return PiecewiseProblem(
        dim=2, f1=value_at, f2=lambda x: -x, h=lambda x: float(x[0]) - 10.0,
        grad_h=lambda x: np.array([1.0, 0.0]), hess_h=lambda x: np.zeros((2, 2)),
        jac_f1=lambda x: -np.eye(2), jac_f2=lambda x: -np.eye(2),
    )


BAD_VALUES = [
    (np.array([np.nan, 0.0]), "vector entries must be finite"),
    (np.array([1.0, 0.0, 0.0]), "matrix is 2x2 but b has length 3"),
]
STEP_PATHS = [
    pytest.param(ROS2, None, id="ros2_step"),
    pytest.param(ROS2, GuardMode.ROS2_DENSE, id="guarded_ros2_step"),
    pytest.param(ROS1, None, id="ros1_step"),
]


@pytest.mark.parametrize("method, guard", STEP_PATHS)
@pytest.mark.parametrize("bad, message", BAD_VALUES)
def test_a_bad_field_value_fails_integrate(method, guard, bad, message):
    problem = problem_with_field_1(lambda x: bad)
    cfg = IntegratorConfig(tau=0.1, t_end=1.0, method=method, guard_mode=guard)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(problem, X0, cfg)


@pytest.mark.parametrize("method, guard", STEP_PATHS[:2])
@pytest.mark.parametrize("bad, message", BAD_VALUES)
def test_a_bad_value_at_the_inner_stage_fails_integrate(method, guard, bad, message):
    # finite and of the right length at x0, so only the second stage's
    # check can catch it
    problem = problem_with_field_1(lambda x: -x if np.array_equal(x, X0) else bad)
    cfg = IntegratorConfig(tau=0.1, t_end=1.0, method=method, guard_mode=guard)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(problem, X0, cfg)

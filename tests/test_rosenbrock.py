"""Rosenbrock steps: scalar closed forms, order, stability, dense output."""

import math
import re
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rosevent.linalg
from rosevent.rosenbrock import (
    GAMMA_ROS1,
    GAMMA_ROS2,
    ROS1,
    ROS2,
    dense_derivative,
    dense_eval,
    factor,
    kernel,
    kernel_pair,
    kernel_slopes,
    method_by_name,
    restep,
    ros1_step,
    ros2_finish,
    ros2_step,
    _step_rows,
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


@pytest.mark.parametrize("step_fn", [ros1_step, ros2_step])
def test_a_step_holds_each_stage_once_as_floats(step_fn):
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    step = step_fn(lambda x: A @ x, np.array([1.0, -1.0]), 0.3, A)
    assert not {"k1", "k2"} & set(type(step).__slots__)
    stages = [("k1", step.k1f), ("k2", step.k2f)][:step.stages]
    for name, floats in stages:
        assert all(type(v) is float for v in floats)
        array = getattr(step, name)
        assert array.dtype == np.float64 and array.tobytes() == np.array(floats).tobytes()
        with pytest.raises(AttributeError):
            setattr(step, name, array)
    if step.stages == 1:
        assert step.k2 is None and step.k2f is None


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
    factors = factor(J0.tolist(), 0.1, GAMMA_ROS2)
    k1 = kernel_pair(2, 2)[0](factors, (J0 @ X0).tolist(), 0.1)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        ros2_finish(field_bad_at(bad, "inner"), X0, 0.1, J0, factors, k1)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        ros2_finish(lambda x: J0 @ x, np.array([bad, 0.0]), 0.1, J0, factors, k1)


# --- cost ------------------------------------------------------------------

def test_ros2_step_costs_one_factorization_two_solves(monkeypatch):
    # the two solves run inside the step kernel, on the one factorization,
    # and give lu_solve's bits on the step's own right-hand sides
    counts = {"factor": 0, "solve": 0}
    made = []
    real_factor = rosevent.linalg.lu_factor
    real_solve = rosevent.linalg.lu_solve

    def counting_factor(m):
        counts["factor"] += 1
        made.append(real_factor(m))
        return made[-1]

    def counting_solve(f, b):
        counts["solve"] += 1
        return real_solve(f, b)

    monkeypatch.setattr(rosevent.linalg, "lu_factor", counting_factor)
    monkeypatch.setattr(rosevent.linalg, "lu_solve", counting_solve)
    field, x0, tau = linear_field(-1.0), np.array([1.0]), 0.1
    step = ros2_step(field, x0, tau, np.array([[-1.0]]))
    assert counts == {"factor": 1, "solve": 0}
    monkeypatch.undo()
    (factors,) = made
    k1 = rosevent.linalg.lu_solve(factors, tau * field(x0))
    k2 = rosevent.linalg.lu_solve(factors, tau * field(x0 + k1) - 2.0 * k1)
    assert step.k1.tobytes() == k1.tobytes()
    assert step.k2.tobytes() == k2.tobytes()


@pytest.mark.parametrize("step_fn, gamma", [(ros1_step, 1.0), (ros2_step, GAMMA_ROS2)])
def test_given_factors_give_the_same_step_without_factoring(monkeypatch, step_fn, gamma):
    # a caller that holds the factors steps with the kernel, as integrate
    # does: the public step's bits, and no factorization
    J = np.array([[-3.0, 1.0], [0.5, -2.0]])
    x0 = np.array([1.0, -0.5])
    fresh = step_fn(lambda x: J @ x, x0, 0.1, J)
    factors = rosevent.linalg.lu_factor(step_matrix(J, 0.1, gamma))

    def banned(*a, **k):  # pragma: no cover - must not run
        raise AssertionError("factored although factors were given")

    monkeypatch.setattr(rosevent.linalg, "lu_factor", banned)
    step = kernel(fresh.stages, 2)
    kept = step(lambda x: (J @ np.array(x)).tolist(), x0.tolist(), (J @ x0).tolist(), 0.1,
                J, factors)
    assert kept.x1.tobytes() == fresh.x1.tobytes()
    assert kept.k1.tobytes() == fresh.k1.tobytes()
    if fresh.k2 is not None:
        assert kept.k2.tobytes() == fresh.k2.tobytes()
    assert (kept.tau, kept.stages) == (fresh.tau, fresh.stages)


def test_ros2_with_fd_jacobian_close_to_analytic():
    def f(x):
        return np.array([math.sin(x[0]) - x[1], x[0] * x[1]])

    x0 = np.array([0.4, -0.3])
    J_exact = np.array([[math.cos(0.4), -1.0], [-0.3, 0.4]])
    J_fd = rosevent.linalg.fd_jacobian(f, x0)
    exact = ros2_step(f, x0, 0.2, J_exact).x1
    approx = ros2_step(f, x0, 0.2, J_fd).x1
    npt.assert_allclose(approx, exact, rtol=1e-7, atol=1e-10)


# --- the step matrix as float rows -----------------------------------------

_j_entries = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), gamma=st.sampled_from([GAMMA_ROS1, GAMMA_ROS2]),
       tau=st.one_of(st.floats(1e-6, 1.0), st.sampled_from([5e-324, 1e-310, 1e-300])))
def test_step_rows_are_the_numpy_step_matrix_bit_for_bit(data, gamma, tau):
    # the array formula step_matrix had, eye(n) - g*J written as 0 - g*J
    # then 1 on the diagonal, signed zeros and subnormal g*J included
    n = data.draw(st.integers(1, 4))
    J = np.array(data.draw(st.lists(_j_entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    with np.errstate(over="ignore"):
        expected = 0.0 - (gamma * tau) * J
    for i in range(n):
        expected[i, i] += 1.0
    rows = _step_rows(J.tolist(), tau, gamma)
    assert all(type(v) is float for row in rows for v in row)
    assert np.array(rows).tobytes() == expected.tobytes()
    assert step_matrix(J, tau, gamma).tobytes() == expected.tobytes()


@pytest.mark.parametrize("J, tau, message", [
    (np.ones((2, 3)), 0.1, "expected a square matrix, got shape (2, 3)"),
    (np.ones((3, 2)), 0.1, "expected a square matrix, got shape (3, 2)"),
    (np.ones(2), 0.1, "expected a square matrix, got shape (2,)"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), 0.1, "matrix entries must be finite"),
    # a finite J whose g*J overflows: lu_factor finds the rows not finite
    (np.array([[1e308, 0.0], [0.0, 1.0]]), 1e10, "matrix entries must be finite"),
])
def test_the_factor_path_checks_j_with_the_array_messages(J, tau, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ros2_step(lambda x: -x, np.ones(2), tau, J)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ros1_step(lambda x: -x, np.ones(2), tau, J)


# --- the slopes: one generated function for both methods -------------------

def reference_slopes(n, k1, k2):
    """RosenbrockStep.slopes as it was written before one generated function
    formed every reader's slopes, kept as the oracle: each dot product
    math.fsum of the tuple of its products, then RosenbrockStep's formula
    on the step's gamma (GAMMA_ROS2 for two stages)."""
    a1 = math.fsum(tuple(a * b for a, b in zip(n, k1)))
    if k2 is None:
        return a1, 0.0
    return two_stage_slopes(a1, math.fsum(tuple(a * b for a, b in zip(n, k2))))


def two_stage_slopes(a1, a2):
    # the formula of the oracle above on a1 = n.k1 and a2 = n.k2
    g = GAMMA_ROS2
    c = 1.0 / (2.0 * (1.0 - 2.0 * g))
    return c * ((2.0 - 6.0 * g) * a1 - 2.0 * g * a2), 2.0 * c * (a1 + a2)


# sums at or past this round to an infinity: halfway from the largest float
# to 2**1024, where round-half-even goes up
OVERFLOW = 2**1024 - 2**970


def exact_dot(n, k):
    """n.k as IEEE arithmetic rounds the exact sum of the rounded products
    of finite n and k: the products that overflowed decide alone (their
    infinity, or NaN for both signs), else the exact rational sum, rounded."""
    products = [a * b for a, b in zip(n, k)]
    special = [p for p in products if not math.isfinite(p)]
    if special:
        return special[0] if len(set(special)) == 1 else math.nan
    total = sum(map(Fraction, products))
    if abs(total) >= OVERFLOW:
        return math.inf if total > 0 else -math.inf
    return float(total)


def dot_or_exact(n, k):
    # fsum where it returns, else the exact sum
    try:
        return math.fsum(tuple(a * b for a, b in zip(n, k)))
    except (OverflowError, ValueError):
        return exact_dot(n, k)


def bits(values):
    return [v.hex() for v in values]


# finite floats of every scale, with signed zeros, subnormals and values
# near the largest float drawn often enough for partial sums to overflow
ANY_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0),
    st.floats(1e150, 1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                     1e154, -1e154, 1e300, -1e300, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=1000, deadline=None)
@given(data=st.data(), stages=st.sampled_from([1, 2]), size=st.integers(1, 4))
def test_the_slopes_are_the_reference_formula_bit_for_bit(data, stages, size):
    vec = st.lists(ANY_FINITE, min_size=size, max_size=size)
    n, k1 = data.draw(vec), data.draw(vec)
    k2 = data.draw(vec) if stages == 2 else None
    got = kernel_slopes(stages, size)(n, k1, k2)
    try:
        want = reference_slopes(n, k1, k2)
    except (OverflowError, ValueError):
        # an fsum raised: each dot product is fsum's where it returns and
        # the exact sum, rounded, where it raises
        d1 = dot_or_exact(n, k1)
        want = (d1, 0.0) if k2 is None else two_stage_slopes(d1, dot_or_exact(n, k2))
    assert bits(got) == bits(want)


@pytest.mark.parametrize("stages", [1, 2])
@pytest.mark.parametrize("n, k, want", [
    # a partial sum overflows, the exact sum does not
    ([1e308, 1e308, -1e308], [1.0, 1.0, 1.0], 1e308),
    # every exact partial sum is past the largest float, the total is not
    ([1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308,
      -1e308], [1.0, 1.0, 1.0, 1.0], 1.7976931348623157e308 - 1e308),
    # the exact sum is past the largest float
    ([1e308, 1e308], [1.0, 1.0], math.inf),
    ([-1e308, -1e308], [1.0, 1.0], -math.inf),
    # products of both infinite signs: the IEEE sum
    ([1e300, 1e300, 1.0], [1e300, -1e300, 1.0], math.nan),
    # one infinite product decides, whatever the finite ones overflow to
    ([1e308, 1e308, 1e300], [1.0, 1.0, -1e300], -math.inf),
])
def test_a_dot_product_fsum_refuses_is_its_exact_sum(stages, n, k, want):
    # math.fsum raises on each of these, so the slopes raised with it
    with pytest.raises((OverflowError, ValueError)):
        math.fsum(tuple(a * b for a, b in zip(n, k)))
    assert bits([exact_dot(n, k)]) == bits([want])
    m1, m2 = kernel_slopes(stages, len(n))(n, k, [0.0] * len(n) if stages == 2 else None)
    if stages == 1:
        assert bits([m1, m2]) == bits([want, 0.0])
    else:
        assert bits([m1, m2]) == bits(two_stage_slopes(want, 0.0))


@pytest.mark.parametrize("step_fn", [ros1_step, ros2_step])
def test_a_steps_slopes_are_the_generated_slopes(step_fn):
    # RosenbrockStep.slopes is kernel_slopes for its stages and size
    A = np.array([[-1.0, 0.5, 0.0], [0.25, -2.0, 0.125], [0.0, 1.0, -0.5]])
    step = step_fn(lambda x: A @ x + 1.0, np.array([1.0, -2.0, 0.5]), 0.1, A)
    n = [0.3, -1.0, 2.0]
    want = kernel_slopes(step.stages, 3)(n, step.k1f, step.k2f)
    assert bits(step.slopes(n)) == bits(want) == bits(reference_slopes(n, step.k1f, step.k2f))

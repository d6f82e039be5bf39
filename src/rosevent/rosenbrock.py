"""One- and two-stage Rosenbrock steps with a second-order dense output.

The two-stage scheme, with gamma = 1 - sqrt(2)/2 and the Jacobian frozen at
the step start, is

    (I - gamma*tau*J) k1 = tau * f(x0)
    (I - gamma*tau*J) k2 = tau * f(x0 + k1) - 2*k1
    x1 = x0 + (3/2) k1 + (1/2) k2

which is second order and L-stable: its stability function is
R(z) = (1 + (1-2*gamma)*z) / (1 - gamma*z)^2 = 1 + z + z^2/2 + O(z^3).
The one-stage scheme is the linearly implicit Euler step
(I - tau*J) k1 = tau * f(x0), x1 = x0 + k1.

Each step solves with the LU factors of its step matrix I - gamma*tau*J,
the two-stage step for both of its stages. A caller that already holds
those factors passes them in (factors=...). events.integrate does: within
one run it factors again only when (J, tau) differs from the previous
step's, not once per step. Without them the step factors the matrix
itself. The dense output

    X1(theta) = x0 + c*b1(theta)*k1 + c*b2(theta)*k2,   c = 1/(2*(1-2*gamma))
    b1(theta) = theta^2 + (2 - 6*gamma)*theta
    b2(theta) = theta^2 - 2*gamma*theta

interpolates x0 at theta = 0 and x1 at theta = 1 and carries the order of
the method, so events can be located inside a step without extra field
evaluations or linear solves. The one-stage dense output is the chord
X1(theta) = x0 + theta*k1. Both are polynomials in theta, so an affine
h = n.x + c along them is a polynomial too: _surface_slopes forms its
coefficients from n.k1 and n.k2, for event location, even-count detection
and the exact dense guard.

The stage and dense-output arithmetic runs on Python floats, in one place:
every step path (ros1_step, ros2_step, ros2_stage1 and ros2_finish here,
the guarded step and its case-1b trials in onesided) builds its stages with
_floats, _stage1 and _ros2_finish, and every reader of the dense output
(dense_eval, dense_derivative, event location, the dense guard) goes
through one _DenseOutput per step. They do the IEEE operations of the
array formulas above in the same order, and numpy's elementwise operations
do not fuse, so the results equal the array expressions bit for bit.
Each input is checked once, where it enters: x0 by the public step
functions (as_vector), each field value's shape and length by _floats, and
each right-hand side's finiteness by linalg.lu_solve, which every solve
still goes through. Fields and h still get float arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg

GAMMA_ROS2 = 1.0 - math.sqrt(2.0) / 2.0
GAMMA_ROS1 = 1.0


@dataclass(frozen=True)
class RosMethod:
    stages: int
    gamma: float
    label: str


ROS1 = RosMethod(stages=1, gamma=GAMMA_ROS1, label="ros1")
ROS2 = RosMethod(stages=2, gamma=GAMMA_ROS2, label="ros2")

_METHODS = {"ros1": ROS1, "ros2": ROS2}


def method_by_name(name: str) -> RosMethod:
    try:
        return _METHODS[name]
    except KeyError:
        raise ValueError(f"unknown method {name!r} (known: ros1, ros2)") from None


@dataclass(frozen=True)
class RosenbrockStep:
    """One accepted step: inputs, stages, and endpoint.

    Treated as immutable; dense evaluation and re-stepping read from it
    without modifying it. k2 is None for one-stage steps.
    """

    x0: np.ndarray
    tau: float
    J: np.ndarray
    gamma: float
    k1: np.ndarray
    k2: np.ndarray | None
    x1: np.ndarray
    stages: int
    field_id: int = 1

    @property
    def c(self) -> float:
        return 1.0 / (2.0 * (1.0 - 2.0 * self.gamma))


def step_matrix(J, tau: float, gamma: float) -> np.ndarray:
    """The step matrix I - gamma*tau*J."""
    J = linalg.as_matrix(J)
    # 0 - g*J then 1 on the diagonal: the same bits as eye(n) - g*J,
    # signed zeros included
    M = 0.0 - (gamma * tau) * J
    for i in range(J.shape[0]):
        M[i, i] += 1.0
    return M


def _floats(value, n: int) -> list:
    """A field value (or f(x0) passed in) as n Python floats.

    Checks the shape with as_vector's message and the length with
    lu_solve's; finiteness is checked where the value enters a solve.
    """
    v = np.asarray(value, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if v.shape[0] != n:
        raise ValueError(f"matrix is {n}x{n} but b has length {v.shape[0]}")
    return v.tolist()


def _stage1(factors: linalg.LuFactors, fx0: list, tau: float) -> np.ndarray:
    # k1 of (I - gamma*tau*J) k1 = tau*f(x0); lu_solve checks tau*f(x0)
    return linalg.lu_solve(factors, [tau * f for f in fx0])


def _ros2_finish(field, x0: np.ndarray, x0f: list, tau: float, J, factors,
                 k1: np.ndarray, field_id: int) -> RosenbrockStep:
    # the second stage and x1 from checked x0 (x0f its floats) and k1; the
    # field takes x0 + k1 as an array, so that sum stays one numpy add
    k1f = k1.tolist()
    f_inner = _floats(field(x0 + k1), len(x0f))
    k2 = linalg.lu_solve(factors, [tau * f - 2.0 * a for f, a in zip(f_inner, k1f)])
    x1 = [x + 1.5 * a + 0.5 * b for x, a, b in zip(x0f, k1f, k2.tolist())]
    return RosenbrockStep(
        x0=x0, tau=tau, J=np.asarray(J, dtype=float), gamma=GAMMA_ROS2,
        k1=k1, k2=k2, x1=np.array(x1), stages=2, field_id=field_id,
    )


def ros1_step(field, x0, tau: float, J, field_id: int = 1,
              factors: linalg.LuFactors | None = None) -> RosenbrockStep:
    """Linearly implicit Euler step of size tau with Jacobian J.

    factors, when given, must be the LU factors of I - tau*J; they are used
    as they are, so the step is the one a fresh factorization would give.
    """
    x0 = linalg.as_vector(x0)
    x0f = x0.tolist()
    if factors is None:
        factors = linalg.lu_factor(step_matrix(J, tau, GAMMA_ROS1))
    k1 = _stage1(factors, _floats(field(x0), len(x0f)), tau)
    return RosenbrockStep(
        x0=x0, tau=tau, J=np.asarray(J, dtype=float), gamma=GAMMA_ROS1,
        k1=k1, k2=None, x1=np.array([x + a for x, a in zip(x0f, k1.tolist())]),
        stages=1, field_id=field_id,
    )


def ros2_factor(J, tau: float) -> linalg.LuFactors:
    """LU factors of (I - gamma*tau*J), shared by both stages."""
    return linalg.lu_factor(step_matrix(J, tau, GAMMA_ROS2))


def ros2_stage1(factors: linalg.LuFactors, fx0, tau: float) -> np.ndarray:
    """The first stage k1 from f(x0): (I - gamma*tau*J) k1 = tau*f(x0)."""
    return _stage1(factors, _floats(fx0, factors.n), tau)


def ros2_finish(field, x0, tau: float, J, factors, k1, field_id: int = 1) -> RosenbrockStep:
    """Complete a two-stage step from its first stage.

    Split out so a driver can inspect x0 + k1 (the only point beyond x0
    where the field gets evaluated) before committing to the evaluation.
    """
    x0 = linalg.as_vector(x0)
    k1 = np.asarray(k1, dtype=float)
    if k1.shape != x0.shape:
        raise ValueError(f"k1 has shape {k1.shape} but x0 has shape {x0.shape}")
    return _ros2_finish(field, x0, x0.tolist(), tau, J, factors, k1, field_id)


def ros2_step(field, x0, tau: float, J, field_id: int = 1,
              factors: linalg.LuFactors | None = None) -> RosenbrockStep:
    """Two-stage step of size tau: one factorization, two solves, two field
    evaluations.

    factors, when given, must be the LU factors of I - gamma*tau*J (see
    ros2_factor); the step then skips its factorization and is the same
    step bit for bit.
    """
    x0 = linalg.as_vector(x0)
    x0f = x0.tolist()
    fx0 = _floats(field(x0), len(x0f))
    if factors is None:
        factors = ros2_factor(J, tau)
    return _ros2_finish(field, x0, x0f, tau, J, factors, _stage1(factors, fx0, tau), field_id)


class _DenseOutput:
    """X1(theta) and dX1/dtheta of one step on Python floats, theta
    unchecked: the formulas of the module docstring, operation for
    operation."""

    def __init__(self, step: RosenbrockStep):
        self.x0 = step.x0
        self.x0f = step.x0.tolist()
        self.k1f = step.k1.tolist()
        self.stages = step.stages
        if step.stages == 2:
            self.k2f = step.k2.tolist()
            self.c = step.c
            self.p1 = 2.0 - 6.0 * step.gamma
            self.p2 = 2.0 * step.gamma

    def value(self, theta: float) -> np.ndarray:
        if theta == 0.0:
            return self.x0
        if self.stages == 1:
            return np.array([x + theta * a for x, a in zip(self.x0f, self.k1f)])
        w1 = self.c * (theta * (theta + self.p1))
        w2 = self.c * (theta * (theta - self.p2))
        return np.array([x + w1 * a + w2 * b for x, a, b in zip(self.x0f, self.k1f, self.k2f)])

    def derivative(self, theta: float) -> np.ndarray:
        if self.stages == 1:
            return np.array(self.k1f)
        w1 = self.c * (2.0 * theta + self.p1)
        w2 = self.c * (2.0 * theta - self.p2)
        return np.array([w1 * a + w2 * b for a, b in zip(self.k1f, self.k2f)])


def _surface_slopes(step: RosenbrockStep, n) -> tuple:
    """(m1, m2) with n . dX1/dtheta = m1 + theta*m2, from a1 = n.k1 and
    a2 = n.k2 (n a sequence of floats). For an affine h = n.x + c the value
    along the dense output is then the quadratic

        h(X1(theta)) = h(x0) + m1*theta + (m2/2)*theta^2

    exactly: the b1/b2 weights above are quadratics in theta. The one-stage
    chord gives a line, m2 = 0."""
    a1 = math.fsum(map(operator.mul, n, step.k1.tolist()))
    if step.stages == 1:
        return a1, 0.0
    a2 = math.fsum(map(operator.mul, n, step.k2.tolist()))
    c = step.c
    return (c * ((2.0 - 6.0 * step.gamma) * a1 - 2.0 * step.gamma * a2),
            2.0 * c * (a1 + a2))


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")


def dense_eval(step: RosenbrockStep, theta: float) -> np.ndarray:
    """Evaluate the dense output X1(theta), theta in [0, 1].

    X1(0) is x0 bit for bit; X1(1) reproduces x1 to round-off.
    """
    _check_theta(theta)
    return _DenseOutput(step).value(theta)


def dense_derivative(step: RosenbrockStep, theta: float) -> np.ndarray:
    """d X1 / d theta at theta in [0, 1]."""
    _check_theta(theta)
    return _DenseOutput(step).derivative(theta)


def restep(field, step: RosenbrockStep, sigma: float) -> RosenbrockStep:
    """Recompute the step from the same x0 and J at a smaller size sigma.

    Fresh factorization and stages; sigma = tau reproduces the original
    step bit for bit.
    """
    if not 0.0 < sigma <= step.tau:
        raise ValueError(f"sigma must lie in (0, tau], got {sigma}")
    if step.stages == 1:
        return ros1_step(field, step.x0, sigma, step.J, field_id=step.field_id)
    return ros2_step(field, step.x0, sigma, step.J, field_id=step.field_id)

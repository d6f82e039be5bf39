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
step's, not once per step. Without them the step factors the matrix itself. The dense output

    X1(theta) = x0 + c*b1(theta)*k1 + c*b2(theta)*k2,   c = 1/(2*(1-2*gamma))
    b1(theta) = theta^2 + (2 - 6*gamma)*theta
    b2(theta) = theta^2 - 2*gamma*theta

interpolates x0 at theta = 0 and x1 at theta = 1 and carries the order of
the method, so events can be located inside a step without extra field
evaluations or linear solves. The one-stage dense output is the chord
X1(theta) = x0 + theta*k1.
"""

from __future__ import annotations

import math
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


def ros1_step(field, x0, tau: float, J, field_id: int = 1,
              factors: linalg.LuFactors | None = None) -> RosenbrockStep:
    """Linearly implicit Euler step of size tau with Jacobian J.

    factors, when given, must be the LU factors of I - tau*J; they are used
    as they are, so the step is the one a fresh factorization would give.
    """
    x0 = linalg.as_vector(x0)
    if factors is None:
        factors = linalg.lu_factor(step_matrix(J, tau, GAMMA_ROS1))
    k1 = linalg.lu_solve(factors, tau * np.asarray(field(x0), dtype=float))
    return RosenbrockStep(
        x0=x0, tau=tau, J=np.asarray(J, dtype=float), gamma=GAMMA_ROS1,
        k1=k1, k2=None, x1=x0 + k1, stages=1, field_id=field_id,
    )


def ros2_factor(J, tau: float) -> linalg.LuFactors:
    """LU factors of (I - gamma*tau*J), shared by both stages."""
    return linalg.lu_factor(step_matrix(J, tau, GAMMA_ROS2))


def ros2_stage1(factors: linalg.LuFactors, fx0, tau: float) -> np.ndarray:
    return linalg.lu_solve(factors, tau * np.asarray(fx0, dtype=float))


def ros2_finish(field, x0, tau: float, J, factors, k1, field_id: int = 1) -> RosenbrockStep:
    """Complete a two-stage step from its first stage.

    Split out so a driver can inspect x0 + k1 (the only point beyond x0
    where the field gets evaluated) before committing to the evaluation.
    """
    x0 = linalg.as_vector(x0)
    f_inner = np.asarray(field(x0 + k1), dtype=float)
    k2 = linalg.lu_solve(factors, tau * f_inner - 2.0 * k1)
    x1 = x0 + 1.5 * k1 + 0.5 * k2
    return RosenbrockStep(
        x0=x0, tau=tau, J=np.asarray(J, dtype=float), gamma=GAMMA_ROS2,
        k1=k1, k2=k2, x1=x1, stages=2, field_id=field_id,
    )


def ros2_step(field, x0, tau: float, J, field_id: int = 1,
              factors: linalg.LuFactors | None = None) -> RosenbrockStep:
    """Two-stage step of size tau: one factorization, two solves, two field
    evaluations.

    factors, when given, must be the LU factors of I - gamma*tau*J (see
    ros2_factor); the step then skips its factorization and is the same
    step bit for bit.
    """
    x0 = linalg.as_vector(x0)
    fx0 = np.asarray(field(x0), dtype=float)
    if factors is None:
        factors = ros2_factor(J, tau)
    k1 = ros2_stage1(factors, fx0, tau)
    return ros2_finish(field, x0, tau, J, factors, k1, field_id=field_id)


def dense_eval(step: RosenbrockStep, theta: float) -> np.ndarray:
    """Evaluate the dense output X1(theta), theta in [0, 1].

    X1(0) is x0 bit for bit; X1(1) reproduces x1 to round-off.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if theta == 0.0:
        return step.x0
    if step.stages == 1:
        return step.x0 + theta * step.k1
    c = step.c
    b1 = theta * (theta + (2.0 - 6.0 * step.gamma))
    b2 = theta * (theta - 2.0 * step.gamma)
    return step.x0 + (c * b1) * step.k1 + (c * b2) * step.k2


def dense_derivative(step: RosenbrockStep, theta: float) -> np.ndarray:
    """d X1 / d theta at theta in [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if step.stages == 1:
        return step.k1.copy()
    c = step.c
    db1 = 2.0 * theta + (2.0 - 6.0 * step.gamma)
    db2 = 2.0 * theta - 2.0 * step.gamma
    return (c * db1) * step.k1 + (c * db2) * step.k2


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

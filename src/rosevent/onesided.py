"""One-sided stepping guards for fields with model singularities.

Setting: the state sits in region 1 (h < 0) and moves toward the surface
h = 0, beyond which field 1 may be undefined (square roots, fractional
powers, table lookups). The guards below certify, from quantities available
at the step start, that h increases monotonically along the step family, so
the surface is approached from one side and never evaluated across.

For the one-stage method the certificate truncates the power series of
dH/dsigma, H(sigma) = h(x1(sigma)), keeping the terms through sigma^2 and
replacing the signs of the unknown coefficients by their worst case. The
general variant needs the Neumann series of (I - gamma*sigma*J)^(-1) to
converge (spectral radius of gamma*tau*J below one); the orthogonal variant
replaces the series by the identity (I - gamma*tau*J)^(-1) =
(I - gamma*tau*J)^T, valid when the step matrix is orthogonal.

For the two-stage method the guard checks positivity of

    d(theta) = grad h(X1(theta)) . dX1/dtheta(theta)

on the dense output. On a declared affine surface (problems.Surface) the
gradient is the constant n, so d is the line m1 + theta*m2 with
m1 = n . c*((2-6*gamma)*k1 - 2*gamma*k2) and m2 = n . 2*c*(k1 + k2), and
d(0) > 0, d(1) > 0 certify it exactly. Otherwise the guard samples d on a
uniform theta grid, which is not exhaustive, and reports the minima of the
two parts over the grid as m1 and m2.

Case 1b is decided in one place, guarded_ros2_step, the only code that
builds a guarded two-stage step (the integrator and the guard-check command
both call it): when the internal stage x0 + k1 would already trespass the
surface, the step is shortened before the second field evaluation ever
happens. resolve_case_1b searches g(sigma) = h(x0 + k1(sigma)) for a safe
size with linalg.safe_side_root, the ITP search event location also uses,
reusing the caller's f(x0), J and g(tau), with one factorization per trial
and no field evaluations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, problems, rosenbrock
from .errors import NoBracket, NotOrthogonal

ORTHOGONALITY_TOL = 1e-8

# theta grid points of the dense-output guard
GUARD_GRID = 64


class GuardMode(enum.Enum):
    ROS1_GENERAL = "ros1"
    ROS1_ORTHOGONAL = "ros1-orth"
    ROS2_DENSE = "ros2-dense"


@dataclass(frozen=True)
class GuardReport:
    mode: GuardMode
    coefficients: dict
    passed: bool
    certified_sigma: float
    neumann_ok: bool


def _check_step_size(tau: float) -> None:
    # a certificate for a step that does not exist certifies nothing
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")


def _harm(v: float) -> float:
    # the harmful part of a coefficient, max(0, v), except that a NaN
    # (sign unknown) stays NaN and so fails every certificate
    return v if not v <= 0.0 else 0.0


def _certified_sigma(a0: float, r1: float, r2: float, tau: float) -> float:
    # Largest sigma <= tau with a0 - sigma*r1 - sigma^2*r2 > 0; none when a
    # coefficient is NaN.
    if not a0 > 0.0 or math.isnan(r1) or math.isnan(r2):
        return 0.0
    if r2 > 0.0:
        root = (-r1 + np.sqrt(r1 * r1 + 4.0 * r2 * a0)) / (2.0 * r2)
    elif r1 > 0.0:
        root = a0 / r1
    else:
        return tau
    return min(tau, float(root))


def guard_ros1_general(problem: problems.PiecewiseProblem, x0, tau: float,
                       gamma: float) -> GuardReport:
    """Truncated-series monotonicity certificate for the one-stage step.

    Coefficients of dH/dsigma = a0 + a1*sigma + a2*sigma^2 + ... are formed
    from f1, its Jacobian, and the gradient/Hessian of h at x0; the guard
    passes when a0 > 0 and the worst-case truncation
    a0 - tau*max(0, -a1) - tau^2*max(0, -a2) stays positive. Requires the
    Neumann series to converge; when the spectral-radius bound of
    gamma*tau*J reaches one the guard abstains (neumann_ok False, not
    passed). Raises ValueError unless tau is positive and finite.
    """
    _check_step_size(tau)
    x0 = np.asarray(x0, dtype=float)
    f = problems.eval_field(problem, 1, x0)
    hx = problems.h_gradient(problem, x0)
    hxx = problems.h_hessian(problem, x0)
    J = problems.field_jacobian(problem, 1, x0)

    neumann_ok = linalg.spectral_radius_bound(gamma * tau * J) < 1.0

    Jf = J @ f
    hxxf = hxx @ f
    a0 = float(hx @ f)
    a1 = float(f @ hxxf) + 2.0 * gamma * float(hx @ Jf)
    a2 = (
        3.0 * gamma * gamma * float(hx @ (J @ Jf))
        + 2.0 * gamma * float(f @ (hxx @ Jf))
        + gamma * float(Jf @ hxxf)
    )
    r1 = _harm(-a1)
    r2 = _harm(-a2)
    passed = bool(neumann_ok and a0 > 0.0 and a0 - tau * r1 - tau * tau * r2 > 0.0)
    return GuardReport(
        mode=GuardMode.ROS1_GENERAL,
        coefficients={"a0": a0, "a1": a1, "a2": a2},
        passed=passed,
        certified_sigma=_certified_sigma(a0, r1, r2, tau) if neumann_ok else 0.0,
        neumann_ok=neumann_ok,
    )


def guard_ros1_orthogonal(problem: problems.PiecewiseProblem, x0, tau: float,
                          gamma: float) -> GuardReport:
    """Variant of the one-stage guard for an orthogonal step matrix.

    Replaces the Neumann series by the transpose identity, so no spectral
    condition enters. Raises NotOrthogonal unless
    (I - gamma*tau*J)^T (I - gamma*tau*J) = I within ORTHOGONALITY_TOL in
    the induced infinity norm, and ValueError unless tau is positive and
    finite.
    """
    _check_step_size(tau)
    x0 = np.asarray(x0, dtype=float)
    J = problems.field_jacobian(problem, 1, x0)
    M = rosenbrock.step_matrix(J, tau, gamma)
    gram_defect = M.T @ M - np.eye(M.shape[0])
    defect = float(np.max(np.sum(np.abs(gram_defect), axis=1)))
    if defect > ORTHOGONALITY_TOL:
        raise NotOrthogonal(
            f"step matrix fails orthogonality check: defect {defect:.3e}"
        )

    f = problems.eval_field(problem, 1, x0)
    hx = problems.h_gradient(problem, x0)
    hxx = problems.h_hessian(problem, x0)

    Jtf = J.T @ f
    hxxf = hxx @ f
    b0 = float(hx @ f)
    b1 = float(f @ hxxf) - 2.0 * gamma * float(hx @ Jtf)
    b2 = 2.0 * gamma * float(f @ (hxx @ Jtf)) + gamma * float(hxxf @ Jtf)
    # dH/dsigma truncates to b0 + sigma*b1 - sigma^2*b2 here, so a positive
    # b2 is the harmful sign.
    r1 = _harm(-b1)
    r2 = _harm(b2)
    passed = bool(b0 > 0.0 and b0 - tau * r1 - tau * tau * r2 > 0.0)
    return GuardReport(
        mode=GuardMode.ROS1_ORTHOGONAL,
        coefficients={"b0": b0, "b1": b1, "b2": b2, "gram_defect": defect},
        passed=passed,
        certified_sigma=_certified_sigma(b0, r1, r2, tau),
        neumann_ok=True,
    )


def guarded_ros2_step(problem: problems.PiecewiseProblem, x0, tau: float, J,
                      h_tol: float = 1e-12):
    """Two-stage step of field 1 that never evaluates it past the surface.

    The internal stage x0 + k1 is checked before the second field
    evaluation; when it trespasses (case 1b) the step is shortened by
    resolve_case_1b first. Returns (step, factorizations); step.tau < tau
    marks a shortened step. Raises ValueError unless tau is positive and
    finite.
    """
    _check_step_size(tau)
    x0 = linalg.as_vector(x0)
    x0f = x0.tolist()
    field = problems.field_fn(problem, 1)
    fx0 = rosenbrock._floats(field(x0), len(x0f))
    factors = rosenbrock.ros2_factor(J, tau)
    k1 = rosenbrock._stage1(factors, fx0, tau)
    g_tau = float(problem.h(x0 + k1))
    if g_tau > 0.0:
        step, trials = resolve_case_1b(problem, x0, tau, fx0, J, g_tau, h_tol)
        return step, 1 + trials
    return rosenbrock._ros2_finish(field, x0, x0f, tau, J, factors, k1, 1), 1


def resolve_case_1b(problem: problems.PiecewiseProblem, x0, tau: float, fx0, J,
                    g_tau: float, h_tol: float = 1e-12):
    """Shrink a two-stage step whose internal stage trespasses the surface.

    The caller has seen x0 + k1(tau) trespass, with fx0 = f1(x0), J its
    Jacobian and g_tau = h(x0 + k1(tau)) > 0. linalg.safe_side_root
    searches g(sigma) = h(x0 + k1(sigma)) over (0, tau) from the safe side,
    down to a 4*eps*tau bracket: each trial factors (I - gamma*sigma*J) and
    recomputes k1 from fx0, with no field evaluation. The factors of the
    trial it ends at complete the step, so the internal stage has g <= 0.
    Returns (step, factorizations); raises NoBracket when x0 is not below
    the surface or no trial is safe.
    """
    x0 = linalg.as_vector(x0)
    fx0 = rosenbrock._floats(fx0, len(x0))
    g_lo = float(problem.h(x0))
    if not g_lo < 0.0:
        raise NoBracket(f"x0 must start below the surface, h(x0) = {g_lo}")

    tried = {}  # sigma -> (factors, k1) of that trial

    def g(sigma):
        factors = rosenbrock.ros2_factor(J, sigma)
        k1 = rosenbrock._stage1(factors, fx0, sigma)
        tried[sigma] = factors, k1
        return float(problem.h(x0 + k1))

    sigma_bar, _, trials = linalg.safe_side_root(
        g, 0.0, tau, g_lo, g_tau, h_tol, 4.0 * np.finfo(float).eps * tau)
    if sigma_bar == 0.0:
        raise NoBracket(f"the internal stage trespasses at all {trials} trial sizes")

    factors, k1 = tried[sigma_bar]
    field = problems.field_fn(problem, 1)
    step = rosenbrock._ros2_finish(field, x0, x0.tolist(), sigma_bar, J, factors, k1, 1)
    return step, trials


def guard_ros2_dense(problem: problems.PiecewiseProblem,
                     step: rosenbrock.RosenbrockStep) -> GuardReport:
    """Positivity of d(theta) = grad h(X1(theta)) . dX1/dtheta on [0, 1].

    Passing means h is strictly increasing along the dense output, so the
    located surface hit is the unique one inside the step and the approach
    is one-sided. certified_sigma is tau scaled by the theta up to which d
    stays positive.

    On a declared affine surface d is the line m1 + theta*m2
    (rosenbrock._surface_slopes), so d(0) > 0 and d(1) > 0 is an exact
    certificate; certified_sigma comes from the line's root. Otherwise d is
    sampled on a GUARD_GRID-point grid, which is not exhaustive: a dip
    between grid points goes unseen. certified_sigma then stops at the last
    grid point before d turns non-positive, and the coefficients carry
    n_grid.
    """
    if step.stages != 2:
        raise ValueError("dense-output guard applies to two-stage steps")
    if problem.surface is not None:
        m1, m2 = rosenbrock._surface_slopes(step, problem.surface.n.tolist())
        d1 = m1 + m2
        passed = m1 > 0.0 and d1 > 0.0
        if passed:
            certified = step.tau
        elif m1 > 0.0 and m2 < 0.0:
            certified = step.tau * (m1 / -m2)  # d's root, in (0, 1]
        else:
            certified = 0.0
        coefficients = {"d_min": min(m1, d1), "m1": m1, "m2": m2}
    else:
        passed, certified, coefficients = _sampled_dense_guard(problem, step)
    return GuardReport(
        mode=GuardMode.ROS2_DENSE,
        coefficients=coefficients,
        passed=passed,
        certified_sigma=certified,
        neumann_ok=True,
    )


def _sampled_dense_guard(problem: problems.PiecewiseProblem,
                         step: rosenbrock.RosenbrockStep):
    # d on the grid, with m1 and m2 as the minima over it of the
    # theta-independent and theta-linear parts of d
    c = step.c
    gamma = step.gamma
    term_const = c * ((2.0 - 6.0 * gamma) * step.k1 - 2.0 * gamma * step.k2)
    term_linear = 2.0 * c * (step.k1 + step.k2)

    dense = rosenbrock._DenseOutput(step)
    thetas = np.linspace(0.0, 1.0, GUARD_GRID)
    d_min = np.inf
    m1 = np.inf
    m2 = np.inf
    first_bad = None
    for i, theta in enumerate(thetas.tolist()):
        hx = problems.h_gradient(problem, dense.value(theta))
        d = float(hx @ dense.derivative(theta))
        d_min = min(d_min, d)
        m1 = min(m1, float(hx @ term_const))
        m2 = min(m2, float(hx @ term_linear))
        if d <= 0.0 and first_bad is None:
            first_bad = i
    passed = first_bad is None
    if passed:
        certified = step.tau
    elif first_bad == 0:
        certified = 0.0
    else:
        certified = step.tau * float(thetas[first_bad - 1])
    return passed, certified, {"d_min": d_min, "m1": m1, "m2": m2,
                               "n_grid": float(GUARD_GRID)}

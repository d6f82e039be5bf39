"""One-sided stepping guards for fields with model singularities.

Setting: the state sits in region 1 (h < 0) and moves toward the surface
h = 0, beyond which field 1 may be undefined (square roots, fractional
powers, table lookups). The guards below certify, from quantities available
at the step start, that h increases monotonically along the step family, so
the surface is approached from one side and never evaluated across.

Every guard certifies only on a declared affine surface h = n.x + c
(problems.Surface; an affine problem declares one), where the gradient is
the constant n and the Hessian is zero; on any other surface a guard raises
ValueError, as integrate does for a guarded run, since there it could
certify nothing.

For the one-stage method the step family is x1(sigma) = x0 +
sigma*M(sigma)^(-1) f(x0), M(sigma) = I - gamma*sigma*J with the gamma the
one-stage method fixes (rosenbrock.GAMMA_ROS1), so along it
H(sigma) = h(x1(sigma)) has the derivative H'(sigma) = n.M(sigma)^(-2) f =
sum_k (k+1)*(gamma*sigma)^k * n.J^k f, whose coefficients through sigma^2,
a0 + a1*sigma + a2*sigma^2, the guards report. Both one-stage guards decide
from a lower bound of it (_declared_certificate): the terms through sigma^2
with their harmless signs dropped, less a bound on the tail in the infinity
norm, all of it exact in rationals. So a pass certifies that H increases
along the whole family up to tau, and the certified sigma is the largest
size, to within a few ulps, at which the bound is still positive. The
general variant needs the Neumann series of (I - gamma*sigma*J)^(-1) to
converge (spectral radius of gamma*tau*J below one); the orthogonal variant
forms its coefficients from the identity (I - gamma*tau*J)^(-1) =
(I - gamma*tau*J)^T, valid when the step matrix is orthogonal at tau (at
smaller sigma it is not, which is why it decides by the same bound as the
general variant).

Both one-stage guards build their report in one place (_one_stage_report)
from J and f(x0). The public guards evaluate f1 and its Jacobian at x0.
integrate's guard reads the step it hit in: the matrix that step factored,
a kept finite-difference W included, and the f(x0) it was built from, so
it evaluates no field or Jacobian at the hit. A step on a kept W is drawn
from the family of W, not of the Jacobian at x0 (a W-method: Steihaug &
Wolfbrandt, Math. Comp. 33, 1979), and the family of W is what the report
certifies.

For the two-stage method the guard checks positivity of

    d(theta) = n . dX1/dtheta(theta)

on the dense output. The step's slopes (m1, m2) =
RosenbrockStep.slopes(n) give n . dX1/dtheta = m1 + theta*m2, with
m1 = n . c*((2-6*gamma)*k1 - 2*gamma*k2) and m2 = n . 2*c*(k1 + k2), so d
is that line and d(0) > 0, d(1) > 0 certify it exactly.

Case 1b is decided in one place, _guarded_step (integrate's region-1 step
on the run's J and factors, and guarded_ros2_step's): when the internal
stage x0 + k1 would already trespass the surface, the step is shortened
before the second field evaluation ever happens. resolve_case_1b searches
g(sigma) = h(x0 + k1(sigma)) for a safe size with linalg.safe_side_root,
the ITP search event location also uses, reusing the caller's f(x0), J and
g(tau), with one factorization per trial and no field evaluations.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, problems, rosenbrock
from .errors import NoBracket, NotOrthogonal

ORTHOGONALITY_TOL = 1e-8


class GuardMode(enum.Enum):
    ROS1_GENERAL = "ros1"
    ROS1_ORTHOGONAL = "ros1-orth"
    ROS2_DENSE = "ros2-dense"


@dataclass(frozen=True)
class GuardReport:
    """A guard's verdict. neumann_ok is whether the Neumann series'
    contraction bound holds, which only guard_ros1_general checks; the
    other guards have no such condition and report None (not checked)."""

    mode: GuardMode
    coefficients: dict
    passed: bool
    certified_sigma: float
    neumann_ok: bool | None


def _check_step_size(tau: float) -> None:
    # a certificate for a step that does not exist certifies nothing
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")


def _surface_normal(problem: problems.PiecewiseProblem) -> np.ndarray:
    # n of the declared surface n.x + c, the only surface a guard certifies on
    if problem.surface is None:
        raise ValueError(f"{problem.label or 'the problem'} declares no surface: a guard "
                         f"certifies only on a declared affine surface (problems.Surface)")
    return problem.surface.n


def _declared_certificate(n: list, J: list, f: list, tau: float) -> tuple:
    # (passed, certified sigma) of the one-stage step family on the surface
    # n.x + c from a lower bound of H'(sigma) = n.M(sigma)^-2 f, exact in
    # rationals, n and f lists of floats and J n rows of n floats:
    # c0 - sigma*r1 - sigma^2*r2 - tail(sigma), with
    # c_k = n.J^k f, r1 = max(0, -2*gamma*c1), r2 = max(0, -3*gamma^2*c2)
    # and, from |n.J^k f| <= ||J^T n||_1 * ||J||_inf^(k-1) * ||f||_inf,
    #   tail = ||J^T n||_1 * ||f||_inf * (gamma*sigma)^3 * ||J||_inf^2 * S(q),
    #   q = gamma*sigma*||J||_inf < 1, S(q) = sum_{k>=3} (k+1)*q^(k-3)
    #                                       = (4 - 3q)/(1 - q)^2.
    # Every term worsens as sigma grows, so the bound at tau decides the
    # pass, and linalg.safe_side_root finds the last sigma (within 4 ulps of
    # tau) where it is positive. An entry that is not finite certifies
    # nothing.
    # fractions, and the decimal module it imports, load where a one-stage
    # guard runs, so an import of the package does not pay for them
    from fractions import Fraction

    if not all(map(math.isfinite, [*n, *f, *(v for row in J for v in row)])):
        return False, 0.0
    nv = [Fraction(v) for v in n]
    fv = [Fraction(v) for v in f]
    rows = [[Fraction(v) for v in row] for row in J]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    c0 = dot(nv, fv)
    if not c0 > 0:
        return False, 0.0
    Jf = [dot(row, fv) for row in rows]
    c1, c2 = dot(nv, Jf), dot(nv, [dot(row, Jf) for row in rows])
    g = Fraction(rosenbrock.GAMMA_ROS1)
    r1, r2 = max(0, -2 * g * c1), max(0, -3 * g * g * c2)
    norm_J = max(sum(abs(v) for v in row) for row in rows)
    tail_scale = (sum(abs(dot(col, nv)) for col in zip(*rows)) * max(abs(v) for v in fv)
                  * norm_J * norm_J)

    def bound(sigma: float) -> float:
        # the bound at sigma as a float of its sign: one > 0 reads positive
        # and one <= 0 negative, however small, and q >= 1 reads -inf
        s = Fraction(sigma)
        q = g * s * norm_J
        if q >= 1:
            return -math.inf
        v = c0 - s * r1 - s * s * r2 - tail_scale * (g * s) ** 3 * (4 - 3 * q) / (1 - q) ** 2
        try:
            out = float(v)
        except OverflowError:
            out = math.inf if v > 0 else -math.inf
        return max(out, 5e-324) if v > 0 else min(out, -5e-324)

    at_tau = bound(tau)
    if at_tau > 0.0:
        return True, tau
    sigma, _, _ = linalg.safe_side_root(bound, 0.0, tau, bound(0.0), at_tau, 0.0,
                                        4.0 * np.finfo(float).eps * tau)
    return False, sigma


def _one_stage_report(mode: GuardMode, n: np.ndarray, J: list, f, tau: float) -> GuardReport:
    # the report of the one-stage guard `mode` on the step family of the
    # matrix I - gamma*tau*J from x0, gamma = GAMMA_ROS1: n the declared
    # surface's normal, J n rows of n floats and f a callable giving f1(x0)
    # as floats, called only once the orthogonal mode has checked its step
    # matrix, so a refusal (NotOrthogonal) evaluates no field. integrate
    # hands it the matrix and f(x0) its hit step was drawn from, a kept W
    # included, the public guards those they evaluate at x0.
    Ja, gamma = np.array(J), rosenbrock.GAMMA_ROS1
    neumann_ok = defect = None
    if mode is GuardMode.ROS1_ORTHOGONAL:
        M = rosenbrock.step_matrix(Ja, tau, gamma)
        defect = float(np.max(np.sum(np.abs(M.T @ M - np.eye(len(J))), axis=1)))
        if defect > ORTHOGONALITY_TOL:
            raise NotOrthogonal(f"step matrix fails orthogonality check: defect {defect:.3e}")
    else:
        neumann_ok = linalg.spectral_radius_bound(gamma * tau * Ja) < 1.0
    fx = f()
    fa = np.array(fx)
    if defect is None:
        Jf = Ja @ fa
        coefficients = {"a0": float(n @ fa), "a1": 2.0 * gamma * float(n @ Jf),
                        "a2": 3.0 * gamma * gamma * float(n @ (Ja @ Jf))}
    else:  # a zero b1 is +0.0, printed as 0
        coefficients = {"b0": float(n @ fa), "b1": 0.0 - 2.0 * gamma * float(n @ (Ja.T @ fa)),
                        "b2": 0.0, "gram_defect": defect}
    passed, certified = ((False, 0.0) if neumann_ok is False
                         else _declared_certificate(n.tolist(), J, fx, tau))
    return GuardReport(mode, coefficients, passed, certified, neumann_ok)


def guard_ros1_general(problem: problems.PiecewiseProblem, x0, tau: float) -> GuardReport:
    """Monotonicity certificate for the one-stage step.

    Coefficients of dH/dsigma = a0 + a1*sigma + a2*sigma^2 + ... are formed
    from f1, its Jacobian and the declared surface's normal n at x0: f1 and
    J as problems.eval_field and field_jacobian give them on x0's floats,
    checked there. The
    guard passes, certifying tau, when a lower bound of dH/dsigma over the
    whole series stays positive up to tau (_declared_certificate); else
    certified_sigma is the last size where it does. Requires the Neumann
    series to converge; when the spectral-radius bound of gamma*tau*J
    reaches one the guard abstains (neumann_ok False, not passed,
    certified_sigma 0). Raises ValueError unless tau is positive and finite
    and the problem declares its surface. integrate's guard builds the same
    report from its hit step's own matrix and f(x0), a kept W included.
    """
    _check_step_size(tau)
    n = _surface_normal(problem)
    x0f = np.asarray(x0, dtype=float).tolist()
    f = problems.eval_field(problem, 1, x0f)
    J = problems.field_jacobian(problem, 1, x0f)
    return _one_stage_report(GuardMode.ROS1_GENERAL, n, J, lambda: f, tau)


def guard_ros1_orthogonal(problem: problems.PiecewiseProblem, x0, tau: float) -> GuardReport:
    """Variant of the one-stage guard for an orthogonal step matrix.

    Forms its coefficients from the transpose identity, so no spectral
    condition is reported; b2, the Hessian's term, is zero on the declared
    surface. It decides passed and certified_sigma by the bound
    guard_ros1_general uses, since the step matrix at sigma < tau is not
    orthogonal. Raises NotOrthogonal, before f1 is evaluated, unless
    (I - gamma*tau*J)^T (I - gamma*tau*J) = I within ORTHOGONALITY_TOL in
    the induced infinity norm, and ValueError unless tau is positive and
    finite and the problem declares its surface. integrate's guard builds
    the same report from its hit step's own matrix and f(x0), a kept W
    included.
    """
    _check_step_size(tau)
    n = _surface_normal(problem)
    x0f = np.asarray(x0, dtype=float).tolist()
    J = problems.field_jacobian(problem, 1, x0f)
    return _one_stage_report(GuardMode.ROS1_ORTHOGONAL, n, J,
                             functools.partial(problems.eval_field, problem, 1, x0f), tau)


def guarded_ros2_step(problem: problems.PiecewiseProblem, x0, tau: float, J,
                      h_tol: float = 1e-12):
    """Two-stage step of field 1 that never evaluates it past the surface.

    The internal stage x0 + k1 is checked before the second field
    evaluation; when it trespasses (case 1b), or h is NaN there and so has
    no side, the step is shortened by resolve_case_1b first. Returns the
    step, as ros2_step does; step.tau < tau marks a shortened step. Before
    any field evaluation, raises ValueError unless tau is positive and
    finite, and checks x0 and J and factors as ros2_step does.
    """
    _check_step_size(tau)
    x0, J, factors = rosenbrock._entry(x0, tau, J, rosenbrock.GAMMA_ROS2)
    field, x0f = functools.partial(problems.eval_field, problem, 1), x0.tolist()
    return _guarded_step(problem, x0f, field(x0f), tau, J.tolist(), factors, h_tol, field,
                         rosenbrock.kernel_pair(2, len(x0f)))


def _h(problem, x: list) -> float:
    # h at a state given as floats: a declared surface's h takes them as
    # they are, any other h gets their array
    return float(problem.h(x if problem.surface is not None else np.array(x)))


def _guarded_step(problem, x0f, fx0, tau, J, factors, h_tol, field, pair):
    # guarded_ros2_step on the kernel, unchecked: x0f the floats of a finite
    # state of the problem's dimension, fx0 = f1(x0) as floats, J n rows of
    # n floats and factors those of its step matrix, field the counted
    # field 1 and pair rosenbrock.kernel_pair(2, n); integrate's region-1
    # step. A NaN h at the internal stage has no side, so it shortens the
    # step as a trespass does.
    stage1, finish = pair
    k1 = stage1(factors, fx0, tau)
    g_tau = _h(problem, [u + a for u, a in zip(x0f, k1)])
    if not g_tau <= 0.0:
        return resolve_case_1b(problem, x0f, tau, fx0, J, g_tau, h_tol)[0]
    return finish(field, x0f, tau, J, factors, k1)


def resolve_case_1b(problem: problems.PiecewiseProblem, x0f: list, tau: float, fx0, J,
                    g_tau: float, h_tol: float = 1e-12):
    """Shrink a two-stage step whose internal stage trespasses the surface.

    The caller has seen x0 + k1(tau) trespass, with fx0 = f1(x0), J its
    Jacobian and g_tau = h(x0 + k1(tau)) > 0 or NaN; it passes them as the
    guarded step has them, unchecked: x0f the floats of a finite state, fx0
    f1(x0) as Python floats, J n rows of n Python floats, which each trial
    factors as they are. linalg.safe_side_root searches
    g(sigma) = h(x0 + k1(sigma)) over (0, tau) from the safe side, down to
    a 4*eps*tau bracket: each trial factors (I - gamma*sigma*J) and recomputes k1 from fx0, with no
    field evaluation. The factors of the trial it ends at complete the
    step, so the internal stage has g <= 0. Returns (step, trials), trials
    the factorizations it ran; raises NoBracket when x0 is not below the
    surface or no trial is safe, and SingularMatrix from a trial's step
    matrix.
    """
    g_lo = _h(problem, x0f)
    if not g_lo < 0.0:
        raise NoBracket(f"x0 must start below the surface, h(x0) = {g_lo}")

    tried = {}  # sigma -> (factors, k1) of that trial
    stage1, finish = rosenbrock.kernel_pair(2, len(x0f))

    def g(sigma):
        factors = rosenbrock.factor(J, sigma, rosenbrock.GAMMA_ROS2)
        k1 = stage1(factors, fx0, sigma)
        tried[sigma] = factors, k1
        return _h(problem, [u + a for u, a in zip(x0f, k1)])

    sigma_bar, _, trials = linalg.safe_side_root(
        g, 0.0, tau, g_lo, g_tau, h_tol, 4.0 * np.finfo(float).eps * tau)
    if sigma_bar == 0.0:
        raise NoBracket(f"the internal stage trespasses at all {trials} trial sizes")

    factors, k1 = tried[sigma_bar]
    step = finish(functools.partial(problems.eval_field, problem, 1), x0f, sigma_bar, J,
                  factors, k1)
    return step, trials


def guard_ros2_dense(problem: problems.PiecewiseProblem,
                     step: rosenbrock.RosenbrockStep) -> GuardReport:
    """Positivity of d(theta) = n . dX1/dtheta on [0, 1], n the declared
    surface's normal.

    Passing means h is strictly increasing along the dense output, so the
    located surface hit is the unique one inside the step and the approach
    is one-sided. d is the line m1 + theta*m2 (RosenbrockStep.slopes), so
    d(0) > 0 and d(1) > 0 is an exact certificate; certified_sigma is tau
    scaled by the line's root in (0, 1] when d turns non-positive there,
    and 0 when d(0) is not positive. Raises ValueError unless the step is a
    two-stage one and the problem declares its surface.
    """
    if step.stages != 2:
        raise ValueError("dense-output guard applies to two-stage steps")
    m1, m2 = step.slopes(_surface_normal(problem).tolist())
    d1 = m1 + m2
    passed = m1 > 0.0 and d1 > 0.0
    if passed:
        certified = step.tau
    elif m1 > 0.0 and m2 < 0.0:
        certified = step.tau * (m1 / -m2)  # d's root, in (0, 1]
    else:
        certified = 0.0
    return GuardReport(
        mode=GuardMode.ROS2_DENSE,
        coefficients={"d_min": min(m1, d1), "m1": m1, "m2": m2},
        passed=passed,
        certified_sigma=certified,
        neumann_ok=None,
    )

"""One-sided stepping guards and case-1b step shortening."""

import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rosevent.linalg
from rosevent.errors import NoBracket, NotOrthogonal, SingularMatrix
from rosevent.events import IntegratorConfig, Termination, integrate
from rosevent.onesided import (
    GuardMode,
    _series_certificate,
    guard_ros1_general,
    guard_ros1_orthogonal,
    guard_ros2_dense,
    guarded_ros2_step,
)
from rosevent.problems import (
    SIGMA_TOL,
    Affine,
    PiecewiseProblem,
    affine_problem,
    builtin,
    field_jacobian,
)
from rosevent.rosenbrock import GAMMA_ROS2, dense_derivative, ros1_step, ros2_step


def scalar_problem(f1, h, *, jac=None, grad=None, hess=None):
    return PiecewiseProblem(
        dim=1, f1=f1, f2=lambda x: np.zeros(1), h=h,
        jac_f1=jac, grad_h=grad, hess_h=hess,
    )


def unit_speed(h, **kw):
    return scalar_problem(lambda x: np.array([1.0]), h,
                          jac=lambda x: np.zeros((1, 1)), **kw)


def declared(A, b, n, c):
    return affine_problem(Affine(A1=A, b1=b, A2=A, b2=b, n=n, c=c))


# Constant drift toward h = 1 - x^2 from x0 = -2: the series coefficients
# are exact because f is constant and h quadratic.
QUADRATIC_H = unit_speed(
    lambda x: 1.0 - x[0] ** 2,
    grad=lambda x: np.array([-2.0 * x[0]]),
    hess=lambda x: np.array([[-2.0]]),
)


# --- one-stage series guard --------------------------------------------------

def test_series_guard_passes_on_transversal_drift():
    report = guard_ros1_general(builtin("tent"), [0.3], 0.25, 1.0)
    assert report.mode is GuardMode.ROS1_GENERAL
    assert report.passed
    assert report.neumann_ok
    assert report.certified_sigma == 0.25
    assert abs(report.coefficients["a0"] - 1.0) <= 1e-9
    assert abs(report.coefficients["a1"]) <= 1e-6
    assert abs(report.coefficients["a2"]) <= 1e-6


def test_series_guard_certificate_exact_for_quadratic_h():
    # H'(sigma) = 4 - 2*sigma exactly, so the monotone window ends at 2
    report = guard_ros1_general(QUADRATIC_H, [-2.0], 3.0, 1.0)
    assert report.coefficients == {"a0": 4.0, "a1": -2.0, "a2": 0.0}
    assert not report.passed
    assert report.certified_sigma == 2.0
    assert report.neumann_ok

    # inside the window the same certificate passes at full size
    ok = guard_ros1_general(QUADRATIC_H, [-2.0], 0.5, 1.0)
    assert ok.passed
    assert ok.certified_sigma == 0.5


def test_series_guard_abstains_without_neumann_convergence():
    stiff = scalar_problem(
        lambda x: np.array([-100.0 * x[0]]),
        lambda x: x[0] - 2.0,
        jac=lambda x: np.array([[-100.0]]),
    )
    report = guard_ros1_general(stiff, [-1.0], 1.0, 1.0)
    assert not report.neumann_ok
    assert not report.passed
    assert report.certified_sigma == 0.0
    # the coefficients are still reported for diagnostics
    assert report.coefficients["a0"] == pytest.approx(100.0)


# Unit drift with a NaN Hessian of h: the leading coefficient is 1, every
# coefficient that reads the Hessian is NaN, so its sign is unknown.
NAN_HESSIAN = unit_speed(lambda x: x[0], grad=lambda x: np.array([1.0]),
                         hess=lambda x: np.array([[math.nan]]))


@pytest.mark.parametrize("guard, higher", [(guard_ros1_general, ("a1", "a2")),
                                           (guard_ros1_orthogonal, ("b1", "b2"))])
def test_series_guards_fail_on_a_nan_coefficient(guard, higher):
    report = guard(NAN_HESSIAN, [-1.0], 0.1, 1.0)
    assert list(report.coefficients.values())[0] == 1.0
    assert all(math.isnan(report.coefficients[name]) for name in higher)
    assert not report.passed
    assert report.certified_sigma == 0.0


@pytest.mark.parametrize("coeffs", [(math.nan, 0.0, 0.0), (1.0, math.nan, 0.0),
                                    (1.0, 0.0, math.nan), (-1.0, 0.0, 0.0)])
def test_certified_sigma_is_zero_without_a_certificate(coeffs):
    assert _series_certificate(*coeffs, 0.5) == (False, 0.0)


def test_certified_sigma_of_a_certificate():
    assert _series_certificate(1.0, 0.0, 0.0, 0.5) == (True, 0.5)
    assert _series_certificate(1.0, 4.0, 0.0, 0.5) == (False, 0.25)
    assert _series_certificate(2.0, 0.0, 8.0, 0.75) == (False, 0.5)


# magnitudes over twenty decades, and the zero a harmless coefficient has
MAGNITUDES = st.floats(-12.0, 8.0).map(lambda e: 10.0 ** e)
HARM = st.one_of(st.just(0.0), MAGNITUDES)


def truncation(a0, r1, r2, sigma):
    # a0 - sigma*r1 - sigma^2*r2, exactly
    s = Fraction(sigma)
    return Fraction(a0) - s * Fraction(r1) - s * s * Fraction(r2)


@settings(max_examples=500, deadline=None)
@given(a0=MAGNITUDES, r1=HARM, r2=HARM, tau=st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e))
def test_the_series_certificate_is_the_root_of_its_truncation(a0, r1, r2, tau):
    passed, sigma = _series_certificate(a0, r1, r2, tau)
    ulps = 8 * Fraction(np.finfo(float).eps) * Fraction(a0)
    # the truncation is not negative, beyond rounding, up to the certified
    # sigma, and a pass certifies the whole step
    assert 0.0 <= sigma <= tau
    assert truncation(a0, r1, r2, sigma) >= -ulps
    assert passed == (sigma == tau)
    if not passed:
        # a short sigma is the root itself, not a point below it
        assert truncation(a0, r1, r2, sigma) <= ulps


def test_the_series_certificate_has_no_cancellation():
    # r1^2 dwarfs 4*r2*a0, so the textbook formula cancels: it gives 3.0654,
    # where the truncation is -0.67*a0
    passed, sigma = _series_certificate(6170409.673455715, 3369641.8808141537,
                                        7.595408584012954e-11, 10.0)
    assert not passed
    assert sigma == pytest.approx(1.83118, rel=1e-5)
    assert abs(truncation(6170409.673455715, 3369641.8808141537, 7.595408584012954e-11,
                          sigma)) <= 4 * np.finfo(float).eps * 6170409.673455715


@pytest.mark.parametrize("coeffs", [(5e-324, 1.0, 0.0), (1e-320, 0.0, 1e10),
                                    (1e-320, 1e-300, 1e10)])
def test_a_root_below_the_solvers_resolution_is_no_pass(coeffs):
    # a subnormal c0 beside coefficients ~2**1000 larger: the root is tiny,
    # so no pass, and the certified sigma is the last float before it
    passed, sigma = _series_certificate(*coeffs, 1.0)
    assert not passed
    assert truncation(*coeffs, sigma) >= 0
    assert truncation(*coeffs, math.nextafter(sigma, 1.0)) < 0


def test_a_certificate_over_coefficients_far_apart_stops_before_the_root():
    # r1^2 underflowed beside 4*r2*c0 once the solver scaled all three by
    # one power of two: it certified 5.3873888e-160, where the truncation
    # is already negative; the root is 5.38736546057547647e-160
    coeffs = (6.24367235517765e-39, 5.945360508154198e-79, 2.1512319015551195e+280)
    passed, sigma = _series_certificate(*coeffs, 4.832548891140742e-10)
    assert not passed
    assert sigma == 5.387365460575476e-160
    assert truncation(*coeffs, sigma) >= 0
    assert truncation(*coeffs, math.nextafter(sigma, 1.0)) < 0


# magnitudes over the float range, and a zero
WIDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=500, deadline=None)
@given(a0=WIDE, r1=st.one_of(st.just(0.0), WIDE), r2=st.one_of(st.just(0.0), WIDE), tau=WIDE)
def test_the_series_certificate_certifies_nothing_past_its_root(a0, r1, r2, tau):
    assume(math.isfinite(2.0 * r2))
    passed, sigma = _series_certificate(a0, r1, r2, tau)
    # the exact truncation is not negative at the certified sigma, and a
    # pass certifies the whole step
    assert 0.0 <= sigma <= tau
    assert truncation(a0, r1, r2, sigma) >= 0
    assert passed == (sigma == tau)
    if not passed and sigma >= 2.0 ** -1022:
        # a short sigma is the root to a few ulps, not a point far below it
        assert truncation(a0, r1, r2, sigma * (1.0 + 8.0 * np.finfo(float).eps)) < 0


def test_a_passing_series_guard_certifies_the_whole_step():
    # r2 ~ 1.6e-15 next to r1 ~ 2.9: the textbook root cancels to 0 here,
    # which gave a pass with a certified sigma of 0
    eps_j = 1.8300780372745886e-16
    problem = PiecewiseProblem(
        dim=2, f1=lambda x: np.array([1.0, 0.02234997892112104]) + eps_j * x,
        f2=lambda x: np.zeros(2), h=lambda x: x[1] - 1.4730870726971745 * x[0] ** 2 - 1.0,
        jac_f1=lambda x: eps_j * np.eye(2),
        grad_h=lambda x: np.array([-2.0 * 1.4730870726971745 * x[0], 1.0]),
        hess_h=lambda x: np.array([[-2.0 * 1.4730870726971745, 0.0], [0.0, 0.0]]),
    )
    report = guard_ros1_general(problem, [0.0, 0.0], 3.501693097234597e-4, 1.0)
    assert report.passed
    assert report.certified_sigma == 3.501693097234597e-4


@pytest.mark.parametrize("tau", [-0.25, 0.0, math.nan, math.inf])
def test_guards_reject_a_step_that_is_not_positive_and_finite(tau):
    problem = builtin("tent")
    x0 = np.array([0.3])
    J = field_jacobian(problem, 1, x0)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        guard_ros1_general(problem, x0, tau, 1.0)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        guard_ros1_orthogonal(problem, x0, tau, 1.0)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        guarded_ros2_step(problem, x0, tau, J)
    # rejected before any field evaluation
    assert problem.counters.f_evals == {1: 0, 2: 0}


# --- one-stage orthogonal guard ----------------------------------------------

def test_orthogonal_guard_accepts_rotation_step_matrix():
    tau, gamma, angle = 0.5, 1.0, 0.3
    Q = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    J = (np.eye(2) - Q) / (gamma * tau)
    b = np.array([1.0, 0.2])
    problem = PiecewiseProblem(
        dim=2,
        f1=lambda x: J @ x + b,
        f2=lambda x: np.zeros(2),
        h=lambda x: x[0] - 1.0,
        jac_f1=lambda x: J,
        grad_h=lambda x: np.array([1.0, 0.0]),
        hess_h=lambda x: np.zeros((2, 2)),
    )
    report = guard_ros1_orthogonal(problem, [0.0, 0.0], tau, gamma)
    assert report.mode is GuardMode.ROS1_ORTHOGONAL
    assert report.coefficients["gram_defect"] <= 1e-12
    assert report.coefficients["b0"] == pytest.approx(1.0)
    # h is linear, so b1 = -2*gamma*hx.(J^T f) and b2 = 0
    expected_b1 = -2.0 * gamma * float((J.T @ b)[0])
    assert report.coefficients["b1"] == pytest.approx(expected_b1, rel=1e-12)
    assert report.coefficients["b2"] == pytest.approx(0.0, abs=1e-12)
    assert report.passed
    assert report.certified_sigma == tau


def test_orthogonal_guard_matches_general_when_jacobian_vanishes():
    ga = guard_ros1_general(QUADRATIC_H, [-2.0], 0.5, 1.0)
    go = guard_ros1_orthogonal(QUADRATIC_H, [-2.0], 0.5, 1.0)
    assert go.coefficients["b0"] == ga.coefficients["a0"]
    assert go.coefficients["b1"] == ga.coefficients["a1"]
    assert go.coefficients["b2"] == ga.coefficients["a2"]
    assert go.passed == ga.passed
    assert go.certified_sigma == ga.certified_sigma


def test_orthogonal_guard_rejects_generic_step_matrix():
    with pytest.raises(NotOrthogonal, match="orthogonality"):
        guard_ros1_orthogonal(builtin("linear_test"), [1.0], 0.5, 1.0)


def test_one_stage_guards_read_najafis_float_form_jacobian_as_an_array():
    # najafi declares its Jacobian's float form; the one-stage guards take
    # field_jacobian's array form (gamma*tau*J, J @ f), so they run on it
    # as on any other Jacobian. At t = 0.9, h = t - 1 rises at unit speed
    # and J has a zero second row: a0 = 1, a1 = a2 = 0, tau certified.
    problem = builtin("najafi")
    x0 = np.array([1.0, 0.9])
    rep = guard_ros1_general(problem, x0, 0.125, 1.0)
    assert rep.passed and rep.neumann_ok is True and rep.certified_sigma == 0.125
    assert rep.coefficients == {"a0": 1.0, "a1": 0.0, "a2": 0.0}
    # I - tau*J is upper triangular with a non-zero corner: not orthogonal
    with pytest.raises(NotOrthogonal, match="orthogonality"):
        guard_ros1_orthogonal(problem, x0, 0.125, 1.0)
    assert problem.counters.f_evals == {1: 1, 2: 0}


def test_guards_without_a_contraction_condition_do_not_certify_one():
    # only the series guard checks the Neumann series' contraction bound;
    # the others report None (not checked), not a True they never tested
    assert guard_ros1_general(builtin("tent"), [0.3], 0.25, 1.0).neumann_ok is True
    orthogonal = guard_ros1_orthogonal(QUADRATIC_H, [-2.0], 0.5, 1.0)
    assert orthogonal.passed and orthogonal.neumann_ok is None
    # the dense guard's exact (declared surface) and sampled certificates
    declared = affine_problem(Affine(A1=[[0.0]], b1=[1.0], A2=[[0.0]], b2=[1.0],
                                     n=[1.0], c=-2.0))
    sampled = unit_speed(lambda x: x[0] - 2.0, grad=lambda x: np.array([1.0]))
    for problem in (declared, sampled):
        step = ros2_step(problem.f1, np.array([0.0]), 0.8, np.zeros((1, 1)))
        dense = guard_ros2_dense(problem, step)
        assert dense.passed and dense.neumann_ok is None


# --- one-stage guards on a declared surface against the H' oracle ------------

def h_prime(A, f, n, gamma, sigmas):
    """H'(sigma) = n.M(sigma)^-2 f with M(sigma) = I - gamma*sigma*A, the
    derivative of h along the one-stage step family x0 + sigma*M^-1 f on
    the surface n.x + c, by numpy.linalg.solve at each sigma where M is
    not numerically singular (condition number below 1e12): where it is,
    the solve says nothing of H'. n is scaled to a largest entry of 1,
    which keeps H''s sign, so a subnormal n does not round H' to 0."""
    n = np.asarray(n) / np.abs(n).max()
    M = np.eye(len(f)) - gamma * np.asarray(sigmas)[:, None, None] * A
    sv = np.linalg.svd(M, compute_uv=False)
    M = M[sv[:, -1] > 1e-12 * sv[:, 0]]
    F = np.broadcast_to(np.asarray(f)[:, None], M.shape[:-1] + (1,))
    return (np.linalg.solve(M, np.linalg.solve(M, F))[..., 0] @ n)


def check_one_stage_certificate(report, problem, x0, tau, gamma):
    # no certified sigma may see H' <= 0 on (0, sigma], sampled densely,
    # and a pass certifies the whole step
    assert report.passed == (report.certified_sigma == tau)
    if report.certified_sigma > 0.0:
        A, n = problem.affine.A1, problem.affine.n
        sigmas = np.linspace(0.0, report.certified_sigma, 2001)[1:]
        assert h_prime(A, problem.f1(x0), n, gamma, sigmas).min() > 0.0


# An affine field whose one-stage end state crosses the surface inside the
# step and comes back: the series truncated after sigma^2 passed it.
PINNED = declared([[0.7494305476522148, 0.10628944609664308],
                   [-0.1908466417121482, 0.41585030711681836]],
                  [-0.27569182256266134, 1.1198322753344498],
                  [-0.8906886071465294, 0.20543389798570286], -0.31008706380509854)
PINNED_X0 = np.array([0.0937499619126291, 0.9072457236618531])
PINNED_TAU = 0.8332737666451671


def test_a_one_stage_step_that_crosses_and_returns_fails_the_guard():
    x0, tau = PINNED_X0, PINNED_TAU
    A = PINNED.affine.A1
    # the end state is past the surface at sigma = 0.7 and back below it
    # at tau, and H' falls to about -0.56 in between
    assert PINNED.h(ros1_step(PINNED.f1, x0, 0.7, A).x1) == pytest.approx(0.0314, abs=1e-4)
    assert -0.0004 < PINNED.h(ros1_step(PINNED.f1, x0, tau, A).x1) < 0.0
    sigmas = np.linspace(0.0, tau, 2001)[1:]
    assert h_prime(A, PINNED.f1(x0), PINNED.affine.n, 1.0, sigmas).min() < -0.5
    report = guard_ros1_general(PINNED, x0, tau, 1.0)
    # the truncated series' coefficients are reported as they were
    assert report.coefficients == {"a0": 0.4009686100744706, "a1": 0.1267278942172567,
                                   "a2": -0.1777772547357146}
    assert report.neumann_ok and not report.passed
    assert 0.0 < report.certified_sigma < 0.7
    check_one_stage_certificate(report, PINNED, x0, tau, 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(2, 3), log_tau=st.floats(-2.0, 0.5))
def test_the_one_stage_guard_on_a_declared_surface_is_an_oracle_certificate(data, dim,
                                                                             log_tau):
    fin = st.floats(-3.0, 3.0)
    A = np.array([[data.draw(fin) for _ in range(dim)] for _ in range(dim)])
    b, n, x0 = (np.array([data.draw(fin) for _ in range(dim)]) for _ in range(3))
    problem = declared(A, b, n, -float(n @ x0) - data.draw(st.floats(1e-3, 2.0)))
    assume(problem.h(x0) < 0.0)
    tau = 10.0 ** log_tau
    check_one_stage_certificate(guard_ros1_general(problem, x0, tau, 1.0), problem, x0,
                                tau, 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(2, 3), log_tau=st.floats(-2.0, 0.5),
       reflect=st.booleans())
def test_the_orthogonal_guard_on_a_declared_surface_is_an_oracle_certificate(
        data, dim, log_tau, reflect):
    # I - tau*J is the orthogonal Cayley transform (I - S)^-1 (I + S) of a
    # skew-symmetric S, times a reflection or not; at sigma < tau the step
    # matrix is not orthogonal, and a reflection's is singular at tau/2
    fin = st.floats(-3.0, 3.0)
    S = np.zeros((dim, dim))
    for i in range(dim):
        for k in range(i):
            S[i, k] = data.draw(st.floats(-1.0, 1.0))
            S[k, i] = -S[i, k]
    Q = np.linalg.solve(np.eye(dim) - S, np.eye(dim) + S)
    if reflect:
        Q[:, 0] = -Q[:, 0]
    tau = 10.0 ** log_tau
    J = (np.eye(dim) - Q) / tau
    b, n, x0 = (np.array([data.draw(fin) for _ in range(dim)]) for _ in range(3))
    problem = declared(J, b, n, -float(n @ x0) - data.draw(st.floats(1e-3, 2.0)))
    assume(problem.h(x0) < 0.0)
    try:
        report = guard_ros1_orthogonal(problem, x0, tau, 1.0)
    except NotOrthogonal:
        assume(False)
    check_one_stage_certificate(report, problem, x0, tau, 1.0)


# --- case-1b shortening ------------------------------------------------------

def guarded(problem, x0, tau, **kw):
    """The guarded two-stage step from x0 with the problem's own Jacobian."""
    x0 = np.array(x0, dtype=float)
    return guarded_ros2_step(problem, x0, tau, field_jacobian(problem, 1, x0), **kw)


def test_resolve_case_1b_places_internal_stage_on_surface(monkeypatch):
    problem = unit_speed(lambda x: x[0] - 0.4)
    factored = []
    lu_factor = rosevent.linalg.lu_factor

    def counted(m):
        factored.append(1)
        return lu_factor(m)

    monkeypatch.setattr(rosevent.linalg, "lu_factor", counted)
    before = problem.counters.snapshot()[0]
    step, factorizations = guarded(problem, [0.0], 1.0)
    after = problem.counters.snapshot()[0]

    assert abs(step.tau - 0.4) <= 1e-9
    h_inner = float(problem.h(step.x0 + step.k1))
    assert -2e-12 <= h_inner <= 0.0
    # the completed short step ends at the surface for this field
    assert abs(step.x1[0] - 0.4) <= 1e-9
    # exactly two field evaluations for the whole guarded step: f(x0) once,
    # then the second stage of the shortened step
    assert after[1] - before[1] == 2
    assert after[2] - before[2] == 0
    # the full-size trial plus one per bisection trial, and every one counted
    assert factorizations >= 2
    assert factorizations == len(factored)


def test_resolve_case_1b_accounts_for_jacobian():
    problem = scalar_problem(lambda x: x.copy(), lambda x: x[0] - 1.1,
                             jac=lambda x: np.eye(1))
    step, _ = guarded(problem, [1.0], 1.0)
    # internal stage 1 + sigma/(1 - gamma*sigma) = 1.1
    expected = 0.1 / (1.0 + 0.1 * GAMMA_ROS2)
    assert abs(step.tau - expected) <= 1e-9
    assert float(problem.h(step.x0 + step.k1)) <= 0.0


def test_resolve_case_1b_completed_step_can_fall_back_inside():
    problem = scalar_problem(
        lambda x: np.array([1.0 - 4.0 * x[0] ** 2]),
        lambda x: x[0] - 0.35,
        jac=lambda x: np.array([[-8.0 * x[0]]]),
    )
    step, _ = guarded(problem, [0.0], 0.5)
    assert abs(step.tau - 0.35) <= 1e-6
    # second stage sees the slower field past the surface and pulls the
    # endpoint back to the safe side
    npt.assert_allclose(step.x1, [0.26425], rtol=0, atol=1e-5)
    assert float(problem.h(step.x1)) < 0.0


def test_resolve_case_1b_requires_actual_trespass():
    # right after an R2 -> R1 crossing the step can start on the surface's
    # far side; the trespassing internal stage then has no bracket
    problem = unit_speed(lambda x: x[0] - 0.4)
    with pytest.raises(NoBracket, match="below the surface"):
        guarded(problem, [0.5], 1.0)
    # an internal stage on the safe side leaves the step unshortened and
    # bit-identical to the plain two-stage step
    far = unit_speed(lambda x: x[0] - 5.0)
    step, factorizations = guarded(far, [0.0], 1.0)
    assert factorizations == 1
    plain = ros2_step(far.f1, np.array([0.0]), 1.0, np.zeros((1, 1)))
    assert step.tau == 1.0
    npt.assert_array_equal(step.k1, plain.k1)
    npt.assert_array_equal(step.k2, plain.k2)
    npt.assert_array_equal(step.x1, plain.x1)


def test_resolve_case_1b_iteration_budget():
    # the internal stage is exactly sigma here and no float squares to 0.5,
    # so with h_tol = 0 the search narrows its bracket to 4*eps*tau and
    # completes the step at its last safe trial
    problem = unit_speed(lambda x: x[0] * x[0] - 0.5)
    step, factorizations = guarded(problem, [0.0], 1.0, h_tol=0.0)
    assert float(problem.h(step.x0 + step.k1)) <= 0.0
    assert 0.0 < math.sqrt(0.5) - step.tau <= 4 * np.finfo(float).eps
    assert factorizations - 1 <= 52
    # an h that jumps across zero has no trial within h_tol either
    jump = unit_speed(lambda x: -1.0 if x[0] < 0.3 else 1.0)
    step, factorizations = guarded(jump, [0.0], 1.0)
    assert float(jump.h(step.x0 + step.k1)) == -1.0
    assert 0.0 < 0.3 - step.tau <= 4 * np.finfo(float).eps
    assert factorizations - 1 <= 52


def test_resolve_case_1b_lands_a_linear_stage_on_the_surface():
    # najafi's t row is t' = 1 with a zero Jacobian row, so the internal
    # stage's h is t0 + sigma - 1, linear in sigma: the search lands it
    # exactly on t = 1, and x1 of the short step then rounds one ulp past
    # the surface into the band
    najafi = builtin("najafi")
    tau = 2.0**-5
    x0 = np.array([1.0, 1.0 - 14 * 2.0**-10])
    step, _ = guarded(najafi, x0, tau)
    assert step.tau < tau
    assert float(najafi.h(step.x0 + step.k1)) == 0.0
    assert 0.0 < float(najafi.h(step.x1)) <= SIGMA_TOL
    # integrate locates that endpoint instead of recording it, so field 1
    # is never evaluated past t = 1
    result = integrate(najafi, x0, IntegratorConfig(
        tau=tau, t_end=2 * tau, guard_mode=GuardMode.ROS2_DENSE))
    assert result.termination is Termination.REACHED_T_END
    assert result.stats.domain_violations == {1: 0, 2: 0}
    assert len(result.events) == 1
    assert result.events[0].root_iterations >= 1
    assert float(najafi.h(result.events[0].x_star)) <= 0.0


def test_resolve_case_1b_takes_few_trials_on_najafi():
    # ITP needs ~8 trials per shortening where bisection took ~34
    najafi = builtin("najafi")
    tau = 2.0**-5
    rng = np.random.default_rng(3)
    for _ in range(50):
        # the full step's internal stage passes t = 1 from each of these
        x0 = np.array([rng.uniform(0.5, 1.5), 1.0 - rng.uniform(0.0, tau)])
        step, factorizations = guarded(najafi, x0, tau)
        assert step.tau < tau
        assert factorizations - 1 <= 12
        assert float(najafi.h(step.x0 + step.k1)) <= 0.0


def test_resolve_case_1b_without_a_safe_trial_is_a_guard_failure():
    # every internal stage off x0 trespasses, so the search ends at sigma = 0
    cliff = unit_speed(lambda x: -1.0 if x[0] <= 0.0 else 1.0)
    with pytest.raises(NoBracket, match="trespasses at all"):
        guarded(cliff, [0.0], 1.0)
    result = integrate(cliff, [0.0], IntegratorConfig(
        tau=1.0, t_end=2.0, guard_mode=GuardMode.ROS2_DENSE))
    assert result.termination is Termination.GUARD_FAILURE
    assert result.stats.steps == 0


def _guarded_cliff_run(monkeypatch, singular_call=None):
    """The guarded run of test_resolve_case_1b_without_a_safe_trial_is_a_guard_failure
    and the number of linalg.lu_factor calls it made; the call numbered
    singular_call factors a zero matrix instead of its own."""
    cliff = unit_speed(lambda x: -1.0 if x[0] <= 0.0 else 1.0)
    calls = []
    real = rosevent.linalg.lu_factor

    def counted(m):
        calls.append(1)
        return real([[0.0]] if len(calls) == singular_call else m)

    monkeypatch.setattr(rosevent.linalg, "lu_factor", counted)
    result = integrate(cliff, [0.0], IntegratorConfig(
        tau=1.0, t_end=2.0, guard_mode=GuardMode.ROS2_DENSE))
    return result, len(calls)


def test_a_guard_failure_still_counts_its_factorizations(monkeypatch):
    # the step's own factorization and every case-1b trial, all of which
    # trespass, and the step's Jacobian
    result, lu_calls = _guarded_cliff_run(monkeypatch)
    assert result.termination is Termination.GUARD_FAILURE
    assert lu_calls == result.stats.lu_factorizations > 2
    assert result.stats.jacobian_evaluations == 1


def test_a_singular_case_1b_trial_still_counts_the_factorizations_before_it(monkeypatch):
    # the step's own factorization, the first trial's, and the second
    # trial's, which is singular
    result, lu_calls = _guarded_cliff_run(monkeypatch, singular_call=3)
    assert result.termination is Termination.SOLVER_FAILURE
    assert lu_calls == result.stats.lu_factorizations == 3
    assert result.stats.jacobian_evaluations == 1


def test_a_nan_h_at_the_internal_stage_shortens_the_step():
    # h = t - 1 has no value on (0.95, 1.05): the full step's internal
    # stage lands at t = 1.025, where a NaN used to read as the safe side,
    # so field 1 ran past the surface and the step was not shortened
    times = []

    def f1(u):
        times.append(float(u[1]))
        return np.array([0.0, 1.0])

    def h(u):
        t = float(u[1])
        return math.nan if 0.95 < t < 1.05 else t - 1.0

    problem = PiecewiseProblem(dim=2, f1=f1, f2=lambda u: np.array([0.0, 1.0]), h=h,
                               jac_f1=lambda u: np.zeros((2, 2)),
                               jac_f2=lambda u: np.zeros((2, 2)))
    step, _ = guarded_ros2_step(problem, (1.0, 0.9), 0.125, np.zeros((2, 2)))
    assert step.tau < 0.125
    assert times and max(times) <= 1.0
    assert float(problem.h(step.x0 + step.k1)) <= 0.0


# --- two-stage dense-output guard --------------------------------------------

def test_dense_guard_passes_on_monotone_approach():
    problem = unit_speed(lambda x: x[0] - 2.0,
                         grad=lambda x: np.array([1.0]))
    step = ros2_step(problem.f1, np.array([0.0]), 0.8, np.zeros((1, 1)))
    report = guard_ros2_dense(problem, step)
    assert report.mode is GuardMode.ROS2_DENSE
    assert report.passed
    assert report.certified_sigma == step.tau
    assert report.coefficients["n_grid"] == 64.0
    assert report.coefficients["d_min"] == pytest.approx(0.8, rel=1e-12)
    # for a constant field k2 = -k1, so the theta-linear part vanishes
    assert abs(report.coefficients["m2"]) <= 1e-15
    assert report.coefficients["m1"] == pytest.approx(0.8, rel=1e-12)


def test_dense_guard_fails_immediately_on_stalled_flow():
    problem = scalar_problem(lambda x: np.zeros(1), lambda x: x[0] - 0.5,
                             jac=lambda x: np.zeros((1, 1)),
                             grad=lambda x: np.array([1.0]))
    step = ros2_step(problem.f1, np.array([0.0]), 1.0, np.zeros((1, 1)))
    report = guard_ros2_dense(problem, step)
    assert not report.passed
    assert report.certified_sigma == 0.0
    assert report.coefficients["d_min"] == 0.0


def test_dense_guard_catches_double_crossing_endpoint_detection_misses():
    # h = 0.04 - (x - 0.5)^2 dips positive inside the step while both
    # endpoints sit on the negative side
    problem = unit_speed(
        lambda x: 0.04 - (x[0] - 0.5) ** 2,
        grad=lambda x: np.array([-2.0 * (x[0] - 0.5)]),
    )
    step = ros2_step(problem.f1, np.array([0.0]), 0.8, np.zeros((1, 1)))
    assert float(problem.h(step.x0)) < 0.0
    assert float(problem.h(step.x1)) < 0.0  # endpoint comparison sees nothing
    report = guard_ros2_dense(problem, step)
    assert not report.passed
    assert report.coefficients["d_min"] < 0.0
    # d flips sign at x = 0.5, i.e. theta = 0.625: the certificate stops at
    # the last grid point before that
    assert report.certified_sigma == pytest.approx(0.8 * 39.0 / 63.0, rel=1e-12)
    assert 0.0 < report.certified_sigma < step.tau


def test_dense_guard_validates_inputs():
    problem = unit_speed(lambda x: x[0] - 2.0)
    one_stage = ros1_step(problem.f1, np.array([0.0]), 0.5, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="two-stage"):
        guard_ros2_dense(problem, one_stage)


# --- the exact dense guard on a declared affine surface ------------------------

def test_exact_dense_guard_passes_on_monotone_approach():
    problem = declared([[0.0]], [1.0], [1.0], -2.0)
    step = ros2_step(problem.f1, np.array([0.0]), 0.8, np.zeros((1, 1)))
    report = guard_ros2_dense(problem, step)
    assert report.passed
    assert report.certified_sigma == step.tau
    assert "n_grid" not in report.coefficients
    assert report.coefficients["d_min"] == pytest.approx(0.8, rel=1e-12)
    assert abs(report.coefficients["m2"]) <= 1e-15


def test_exact_dense_guard_certifies_up_to_the_root_of_d():
    # y' = 1 - 2t, t' = 1 toward y = 0.2: d(theta) = tau*(1 - 2*tau*theta)
    # turns at theta = 1/(2*tau) = 5/9, between the 64-point grid's nodes
    problem = declared([[0.0, -2.0], [0.0, 0.0]], [1.0, 1.0], [1.0, 0.0], -0.2)
    step = ros2_step(problem.f1, np.array([0.0, 0.0]), 0.9, problem.jac_f1(None))
    report = guard_ros2_dense(problem, step)
    assert not report.passed
    assert report.certified_sigma == pytest.approx(0.5, rel=1e-14)
    assert report.coefficients["m1"] == pytest.approx(0.9, rel=1e-14)
    assert report.coefficients["m2"] == pytest.approx(-1.62, rel=1e-14)
    assert report.coefficients["d_min"] == pytest.approx(0.9 - 1.62, rel=1e-14)


def test_exact_dense_guard_fails_at_once_when_d_starts_non_positive():
    problem = declared([[0.0]], [0.0], [1.0], -0.5)
    step = ros2_step(problem.f1, np.array([0.0]), 1.0, np.zeros((1, 1)))
    report = guard_ros2_dense(problem, step)
    assert not report.passed
    assert report.certified_sigma == 0.0


def check_exact_dense_guard(A, b, n, x0, c, tau):
    # the exact dense guard's verdict against d sampled densely; a singular
    # step matrix is no case
    problem = declared(A, b, n, c)
    try:
        step = ros2_step(problem.f1, x0, tau, A)
    except SingularMatrix:
        assume(False)
    report = guard_ros2_dense(problem, step)
    assert "n_grid" not in report.coefficients

    def d(theta):
        return float(n @ dense_derivative(step, theta))

    # d in floats is off by the rounding of one derivative and one dot
    # product: relative rounding plus the absolute step of subnormal numbers
    size = float(np.abs(n) @ (np.abs(step.k1) + np.abs(step.k2)))
    slack = 64 * (np.finfo(float).eps * step.c * 4.0 * size + math.ulp(0.0))
    if report.passed:
        assert report.certified_sigma == tau
        assert min(d(th) for th in np.linspace(0.0, 1.0, 10_000).tolist()) > -slack
    else:
        # d is not positive at the line's root: at theta = 0 when d starts
        # there, else at the root in (0, 1], and then at theta = 1 too
        root = report.certified_sigma / tau
        assert 0.0 <= root <= 1.0
        assert d(root) <= slack
        if root > 0.0:
            assert d(root) >= -slack
            assert d(1.0) <= slack


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), log_tau=st.floats(-4.0, 0.0))
def test_exact_dense_guard_is_an_oracle_certificate(data, dim, log_tau):
    fin = st.floats(-3.0, 3.0)
    A = np.array([[data.draw(fin) for _ in range(dim)] for _ in range(dim)])
    b = np.array([data.draw(fin) for _ in range(dim)])
    n = np.array([data.draw(fin) for _ in range(dim)])
    x0 = np.array([data.draw(fin) for _ in range(dim)])
    check_exact_dense_guard(A, b, n, x0, data.draw(fin), 10.0 ** log_tau)


@pytest.mark.parametrize("a11", [-1.0, -2.0])
def test_exact_dense_guard_on_a_subnormal_normal(a11):
    # n = (-5e-324, 0): d's exact values are below the smallest subnormal
    # and round to 0 or 5e-324, where the relative part of the slack is 0
    check_exact_dense_guard(np.array([[a11, 0.0], [0.0, 0.0]]), np.zeros(2),
                            np.array([-5e-324, 0.0]), np.array([1.0, 0.0]), 0.0, 1.0)

"""One-sided stepping guards and case-1b step shortening."""

import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rosevent.linalg
import rosevent.problems
from rosevent.errors import NoBracket, NotOrthogonal, SingularMatrix
from rosevent.events import IntegratorConfig, Termination, integrate
from rosevent.onesided import (
    GuardMode,
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
    spp_flatten,
)
from rosevent.rosenbrock import (
    C_ROS2,
    GAMMA_ROS2,
    ROS1,
    ROS2,
    dense_derivative,
    dense_eval,
    ros1_step,
    ros2_step,
)


def scalar_problem(f1, h, *, jac=None):
    return PiecewiseProblem(dim=1, f1=f1, f2=lambda x: np.zeros(1), h=h, jac_f1=jac)


def unit_speed(h):
    return scalar_problem(lambda x: np.array([1.0]), h, jac=lambda x: np.zeros((1, 1)))


def declared(A, b, n, c):
    return affine_problem(Affine(A1=A, b1=b, A2=A, b2=b, n=n, c=c))


@pytest.fixture
def evaluated(monkeypatch):
    """The field numbers of the problems.eval_field calls made while the
    test runs, in order: every field evaluation is one such call."""
    calls = []
    real = rosevent.problems.eval_field

    def recorded(problem, which, *args):
        calls.append(which)
        return real(problem, which, *args)

    monkeypatch.setattr(rosevent.problems, "eval_field", recorded)
    return calls


@pytest.fixture
def factored(monkeypatch):
    """One entry per linalg.lu_factor call made while the test runs."""
    calls = []
    real = rosevent.linalg.lu_factor
    monkeypatch.setattr(rosevent.linalg, "lu_factor", lambda m: calls.append(1) or real(m))
    return calls


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


def test_series_guard_abstains_without_neumann_convergence():
    stiff = declared([[-100.0]], [0.0], [1.0], -2.0)
    report = guard_ros1_general(stiff, [-1.0], 1.0, 1.0)
    assert not report.neumann_ok
    assert not report.passed
    assert report.certified_sigma == 0.0
    # the coefficients are still reported for diagnostics
    assert report.coefficients["a0"] == pytest.approx(100.0)


@pytest.mark.parametrize("tau", [-0.25, 0.0, math.nan, math.inf])
def test_guards_reject_a_step_that_is_not_positive_and_finite(tau, evaluated):
    problem = builtin("tent")
    x0 = np.array([0.3])
    J = field_jacobian(problem, 1, x0.tolist())
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        guard_ros1_general(problem, x0, tau, 1.0)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        guard_ros1_orthogonal(problem, x0, tau, 1.0)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        guarded_ros2_step(problem, x0, tau, J)
    # rejected before any field evaluation
    assert evaluated == []


# --- one-stage orthogonal guard ----------------------------------------------

def test_orthogonal_guard_accepts_rotation_step_matrix():
    tau, gamma, angle = 0.5, 1.0, 0.3
    Q = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    J = (np.eye(2) - Q) / (gamma * tau)
    b = np.array([1.0, 0.2])
    problem = declared(J, b, [1.0, 0.0], -1.0)
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


# Constant drift toward the surface 2*x0 - x1 = 3 with a zero Jacobian
DRIFT = declared(np.zeros((2, 2)), [1.0, 0.5], [2.0, -1.0], -3.0)


def test_orthogonal_guard_matches_general_when_jacobian_vanishes():
    ga = guard_ros1_general(DRIFT, [0.0, 0.0], 0.5, 1.0)
    go = guard_ros1_orthogonal(DRIFT, [0.0, 0.0], 0.5, 1.0)
    assert ga.coefficients == {"a0": 1.5, "a1": 0.0, "a2": 0.0}
    assert go.coefficients["b0"] == ga.coefficients["a0"]
    assert go.coefficients["b1"] == ga.coefficients["a1"]
    assert go.coefficients["b2"] == ga.coefficients["a2"]
    assert go.passed == ga.passed
    assert go.certified_sigma == ga.certified_sigma


def test_orthogonal_guard_rejects_generic_step_matrix():
    with pytest.raises(NotOrthogonal, match="orthogonality"):
        guard_ros1_orthogonal(builtin("linear_test"), [1.0], 0.5, 1.0)


def test_an_orthogonal_guard_that_refuses_its_step_matrix_ends_the_run(evaluated, monkeypatch):
    # the relay's step matrix is no rotation: at the first hit the guard
    # raises NotOrthogonal, and the run ends there as a failed guard does,
    # with its mesh and counts and no report
    jacobians = []
    real = rosevent.problems.field_jacobian
    monkeypatch.setattr(rosevent.problems, "field_jacobian",
                        lambda *args: jacobians.append(1) or real(*args))
    flat = spp_flatten(builtin("kowalczyk", eps=1e-2))
    result = integrate(flat, flat.x0, IntegratorConfig(
        tau=1e-3, t_end=0.5, method=ROS1, guard_mode=GuardMode.ROS1_ORTHOGONAL))
    assert result.termination is Termination.GUARD_FAILURE
    assert result.events == [] and result.guard_reports == []
    # the six steps before the hit; the hit's step is not kept
    assert len(result.mesh) == 7 and result.mesh[-1][0] == pytest.approx(0.006)
    assert result.stats.steps == 7
    assert result.stats.f_evals == {1: 7, 2: 0} and evaluated == [1] * 7
    assert result.stats.lu_factorizations == 1
    # the visit's A_1, the matrix of the hit's step, which the guard refused
    # without a Jacobian or a field of its own
    assert result.stats.jacobian_evaluations == len(jacobians) == 1


def test_one_stage_guards_read_najafis_float_form_jacobian_as_an_array(counting):
    # najafi declares its Jacobian's float form; the one-stage guards read
    # field_jacobian's rows as an array (gamma*tau*J, J @ f), so they run on it
    # as on any other Jacobian. At t = 0.9, h = t - 1 rises at unit speed
    # and J has a zero second row: a0 = 1, a1 = a2 = 0, tau certified.
    problem = builtin("najafi")
    x0 = np.array([1.0, 0.9])
    with counting() as stats:
        rep = guard_ros1_general(problem, x0, 0.125, 1.0)
        assert rep.passed and rep.neumann_ok is True and rep.certified_sigma == 0.125
        assert rep.coefficients == {"a0": 1.0, "a1": 0.0, "a2": 0.0}
        # I - tau*J is upper triangular with a non-zero corner: not orthogonal
        with pytest.raises(NotOrthogonal, match="orthogonality"):
            guard_ros1_orthogonal(problem, x0, 0.125, 1.0)
    assert stats.f_evals == {1: 1, 2: 0}


def test_guards_without_a_contraction_condition_do_not_certify_one():
    # only the series guard checks the Neumann series' contraction bound;
    # the others report None (not checked), not a True they never tested
    assert guard_ros1_general(builtin("tent"), [0.3], 0.25, 1.0).neumann_ok is True
    orthogonal = guard_ros1_orthogonal(DRIFT, [0.0, 0.0], 0.5, 1.0)
    assert orthogonal.passed and orthogonal.neumann_ok is None
    problem = declared([[0.0]], [1.0], [1.0], -2.0)
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


def exact_solve(M, b):
    """M x = b in rationals by Gaussian elimination, or None when M is
    singular."""
    size = len(M)
    rows = [[*row, v] for row, v in zip(M, b)]
    for k in range(size):
        p = next((i for i in range(k, size) if rows[i][k] != 0), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, size):
            r = rows[i][k] / rows[k][k]
            rows[i] = [a - r * c for a, c in zip(rows[i], rows[k])]
    x = [Fraction(0)] * size
    for k in reversed(range(size)):
        x[k] = (rows[k][size] - sum(rows[k][j] * x[j] for j in range(k + 1, size))) / rows[k][k]
    return x


def exact_h_prime(A, f, n, gamma, sigma):
    """H'(sigma) = n.M(sigma)^-2 f in rationals, or None where M(sigma) is
    singular and H' is not defined."""
    g = Fraction(gamma) * Fraction(sigma)
    M = [[int(i == j) - g * Fraction(a) for j, a in enumerate(row)]
         for i, row in enumerate(np.asarray(A).tolist())]
    y = exact_solve(M, [Fraction(v) for v in np.asarray(f).tolist()])
    z = None if y is None else exact_solve(M, y)
    return None if z is None else sum(Fraction(a) * b for a, b in zip(n.tolist(), z))


def check_one_stage_certificate(report, problem, x0, tau, gamma):
    # no certified sigma may see H' <= 0 on (0, sigma], sampled densely,
    # and a pass certifies the whole step
    assert report.passed == (report.certified_sigma == tau)
    if report.certified_sigma > 0.0:
        A, n, f = problem.affine.A1, problem.affine.n, problem.f1(x0)
        sigmas = np.linspace(0.0, report.certified_sigma, 2001)[1:]
        if h_prime(A, f, n, gamma, sigmas).min() <= 0.0:
            # the float solves can round an H' far below the size of its
            # terms to zero or past it: each sample is then decided in
            # rationals, as the guards decide
            for sigma in sigmas.tolist():
                value = exact_h_prime(A, f, n, gamma, sigma)
                assert value is None or value > 0, sigma


# An affine field whose one-stage end state crosses the surface inside the
# step and comes back, which the series truncated after sigma^2 passes.
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


def undeclared_twin(problem):
    """An affine problem's fields, Jacobians, h and gradient as plain
    callables: the same problem, with its surface undeclared."""
    aff = problem.affine
    return PiecewiseProblem(
        dim=problem.dim, f1=lambda x: aff.A1 @ x + aff.b1, f2=lambda x: aff.A2 @ x + aff.b2,
        h=lambda x: float(aff.n @ x) + aff.c, grad_h=lambda x: aff.n,
        jac_f1=lambda x: aff.A1, jac_f2=lambda x: aff.A2)


def test_the_guards_refuse_an_undeclared_surface(evaluated):
    # the pinned case's undeclared twin: the series truncated after sigma^2
    # passed it, certifying tau, where the declared case fails. Without a
    # declared surface no guard has a certificate to give.
    twin = undeclared_twin(PINNED)
    for guard in (guard_ros1_general, guard_ros1_orthogonal):
        with pytest.raises(ValueError, match="declares no surface"):
            guard(twin, PINNED_X0, PINNED_TAU, 1.0)
    step = ros2_step(twin.f1, PINNED_X0, PINNED_TAU, PINNED.affine.A1)
    with pytest.raises(ValueError, match="declares no surface"):
        guard_ros2_dense(twin, step)
    # refused before any field evaluation
    assert evaluated == []


@pytest.mark.parametrize("guard, method", [(GuardMode.ROS1_GENERAL, ROS1),
                                           (GuardMode.ROS1_ORTHOGONAL, ROS1),
                                           (GuardMode.ROS2_DENSE, ROS2)],
                         ids=["ros1", "ros1-orth", "ros2-dense"])
def test_a_guarded_run_refuses_an_undeclared_surface(guard, method, evaluated):
    twin = undeclared_twin(PINNED)
    h, h_calls = twin.h, []
    twin.h = lambda x: h_calls.append(1) or h(x)
    with pytest.raises(ValueError, match="declares no surface"):
        integrate(twin, PINNED_X0, IntegratorConfig(tau=PINNED_TAU, t_end=1.0, method=method,
                                                    guard_mode=guard))
    # refused while the inputs are checked: no h, no field
    assert not h_calls
    assert evaluated == []


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
    return guarded_ros2_step(problem, x0, tau, field_jacobian(problem, 1, x0.tolist()), **kw)


def test_resolve_case_1b_places_internal_stage_on_surface(factored, counting):
    problem = unit_speed(lambda x: x[0] - 0.4)
    with counting() as stats:
        step = guarded(problem, [0.0], 1.0)

    assert abs(step.tau - 0.4) <= 1e-9
    h_inner = float(problem.h(step.x0 + step.k1))
    assert -2e-12 <= h_inner <= 0.0
    # the completed short step ends at the surface for this field
    assert abs(step.x1[0] - 0.4) <= 1e-9
    # exactly two field evaluations for the whole guarded step: f(x0) once,
    # then the second stage of the shortened step
    assert stats.f_evals[1] == 2
    assert stats.f_evals[2] == 0
    # the full-size trial plus one per bisection trial, and every one counted
    assert len(factored) >= 2
    assert stats.lu_factorizations == len(factored)


def test_resolve_case_1b_accounts_for_jacobian():
    problem = scalar_problem(lambda x: x.copy(), lambda x: x[0] - 1.1,
                             jac=lambda x: np.eye(1))
    step = guarded(problem, [1.0], 1.0)
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
    step = guarded(problem, [0.0], 0.5)
    assert abs(step.tau - 0.35) <= 1e-6
    # second stage sees the slower field past the surface and pulls the
    # endpoint back to the safe side
    npt.assert_allclose(step.x1, [0.26425], rtol=0, atol=1e-5)
    assert float(problem.h(step.x1)) < 0.0


def test_resolve_case_1b_requires_actual_trespass(factored):
    # right after an R2 -> R1 crossing the step can start on the surface's
    # far side; the trespassing internal stage then has no bracket
    problem = unit_speed(lambda x: x[0] - 0.4)
    with pytest.raises(NoBracket, match="below the surface"):
        guarded(problem, [0.5], 1.0)
    # an internal stage on the safe side leaves the step unshortened and
    # bit-identical to the plain two-stage step
    far = unit_speed(lambda x: x[0] - 5.0)
    factored.clear()
    step = guarded(far, [0.0], 1.0)
    assert len(factored) == 1
    plain = ros2_step(far.f1, np.array([0.0]), 1.0, np.zeros((1, 1)))
    assert step.tau == 1.0
    npt.assert_array_equal(step.k1, plain.k1)
    npt.assert_array_equal(step.k2, plain.k2)
    npt.assert_array_equal(step.x1, plain.x1)


def test_resolve_case_1b_iteration_budget(factored):
    # the internal stage is exactly sigma here and no float squares to 0.5,
    # so with h_tol = 0 the search narrows its bracket to 4*eps*tau and
    # completes the step at its last safe trial
    problem = unit_speed(lambda x: x[0] * x[0] - 0.5)
    step = guarded(problem, [0.0], 1.0, h_tol=0.0)
    assert float(problem.h(step.x0 + step.k1)) <= 0.0
    assert 0.0 < math.sqrt(0.5) - step.tau <= 4 * np.finfo(float).eps
    assert len(factored) - 1 <= 52
    # an h that jumps across zero has no trial within h_tol either
    jump = unit_speed(lambda x: -1.0 if x[0] < 0.3 else 1.0)
    factored.clear()
    step = guarded(jump, [0.0], 1.0)
    assert float(jump.h(step.x0 + step.k1)) == -1.0
    assert 0.0 < 0.3 - step.tau <= 4 * np.finfo(float).eps
    assert len(factored) - 1 <= 52


def test_resolve_case_1b_lands_a_linear_stage_on_the_surface():
    # najafi's t row is t' = 1 with a zero Jacobian row, so the internal
    # stage's h is t0 + sigma - 1, linear in sigma: the search lands it
    # exactly on t = 1, and x1 of the short step then rounds one ulp past
    # the surface into the band
    najafi = builtin("najafi")
    tau = 2.0**-5
    x0 = np.array([1.0, 1.0 - 14 * 2.0**-10])
    step = guarded(najafi, x0, tau)
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


def test_resolve_case_1b_takes_few_trials_on_najafi(factored):
    # ITP needs ~8 trials per shortening where bisection took ~34
    najafi = builtin("najafi")
    tau = 2.0**-5
    rng = np.random.default_rng(3)
    for _ in range(50):
        # the full step's internal stage passes t = 1 from each of these
        x0 = np.array([rng.uniform(0.5, 1.5), 1.0 - rng.uniform(0.0, tau)])
        factored.clear()
        step = guarded(najafi, x0, tau)
        assert step.tau < tau
        assert len(factored) - 1 <= 12
        assert float(najafi.h(step.x0 + step.k1)) <= 0.0


# A declared surface 2e-12 ahead of x0 = 0 at speed 1e6: the internal
# stage reaches it at sigma = 2e-18, below the case-1b search's resolution
# of 4*eps*tau, so every trial trespasses
RUSH = declared([[0.0]], [1e6], [1.0], -2e-12)


def test_resolve_case_1b_without_a_safe_trial_is_a_guard_failure():
    # every internal stage off x0 trespasses, so the search ends at sigma = 0
    cliff = unit_speed(lambda x: -1.0 if x[0] <= 0.0 else 1.0)
    for problem in (cliff, RUSH):
        with pytest.raises(NoBracket, match="trespasses at all"):
            guarded(problem, [0.0], 1.0)
    result = integrate(RUSH, [0.0], IntegratorConfig(
        tau=1.0, t_end=2.0, guard_mode=GuardMode.ROS2_DENSE))
    assert result.termination is Termination.GUARD_FAILURE
    assert result.stats.steps == 0


def _unsafe_guarded_run(monkeypatch, singular_call=None):
    """The guarded run of test_resolve_case_1b_without_a_safe_trial_is_a_guard_failure
    and the number of linalg.lu_factor calls it made; the call numbered
    singular_call factors a zero matrix instead of its own."""
    calls = []
    real = rosevent.linalg.lu_factor

    def counted(m):
        calls.append(1)
        return real([[0.0]] if len(calls) == singular_call else m)

    monkeypatch.setattr(rosevent.linalg, "lu_factor", counted)
    result = integrate(RUSH, [0.0], IntegratorConfig(
        tau=1.0, t_end=2.0, guard_mode=GuardMode.ROS2_DENSE))
    return result, len(calls)


def test_a_guard_failure_still_counts_its_factorizations(monkeypatch):
    # the step's own factorization and every case-1b trial, all of which
    # trespass, and the step's Jacobian
    result, lu_calls = _unsafe_guarded_run(monkeypatch)
    assert result.termination is Termination.GUARD_FAILURE
    assert lu_calls == result.stats.lu_factorizations > 2
    assert result.stats.jacobian_evaluations == 1


def test_a_singular_case_1b_trial_still_counts_the_factorizations_before_it(monkeypatch):
    # the step's own factorization, the first trial's, and the second
    # trial's, which is singular
    result, lu_calls = _unsafe_guarded_run(monkeypatch, singular_call=3)
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
    step = guarded_ros2_step(problem, (1.0, 0.9), 0.125, np.zeros((2, 2)))
    assert step.tau < 0.125
    assert times and max(times) <= 1.0
    assert float(problem.h(step.x0 + step.k1)) <= 0.0


# --- two-stage dense-output guard --------------------------------------------

def test_dense_guard_validates_inputs():
    problem = declared([[0.0]], [1.0], [1.0], -2.0)
    one_stage = ros1_step(problem.f1, np.array([0.0]), 0.5, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="two-stage"):
        guard_ros2_dense(problem, one_stage)


def test_dense_guard_passes_on_monotone_approach():
    # x' = 2 - x rises toward x = 1 without reaching it in the step
    problem = declared([[-1.0]], [2.0], [1.0], -1.0)
    step = ros2_step(problem.f1, np.array([0.0]), 0.5, problem.jac_f1(None))
    report = guard_ros2_dense(problem, step)
    assert report.passed
    assert report.certified_sigma == step.tau
    assert report.coefficients["d_min"] > 0.0
    assert problem.h(step.x1) < 0.0


def test_dense_guard_fails_immediately_on_stalled_flow():
    # x' = -x sits at its equilibrium x = 0 below the surface x = 0.5
    problem = declared([[-1.0]], [0.0], [1.0], -0.5)
    step = ros2_step(problem.f1, np.array([0.0]), 1.0, problem.jac_f1(None))
    report = guard_ros2_dense(problem, step)
    assert not report.passed
    assert report.certified_sigma == 0.0
    assert report.coefficients["d_min"] == 0.0


def test_dense_guard_catches_double_crossing_endpoint_detection_misses():
    # a rotation carries x up past the surface x = 0.99 and back inside one
    # step, while both endpoints sit on the negative side
    problem = declared([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0], [1.0, 0.0], -0.99)
    step = ros2_step(problem.f1, np.array([0.6, -0.8]), 1.2, problem.jac_f1(None))
    assert problem.h(step.x0) < 0.0
    assert problem.h(step.x1) < 0.0  # endpoint comparison sees nothing
    report = guard_ros2_dense(problem, step)
    assert not report.passed
    assert report.coefficients["d_min"] < 0.0
    m1, m2 = report.coefficients["m1"], report.coefficients["m2"]
    assert report.certified_sigma == step.tau * (m1 / -m2)
    assert 0.0 < report.certified_sigma < step.tau
    # the certificate stops at the dense output's peak, which is past the surface
    assert problem.h(dense_eval(step, report.certified_sigma / step.tau)) > 0.0


def test_exact_dense_guard_passes_on_monotone_approach():
    problem = declared([[0.0]], [1.0], [1.0], -2.0)
    step = ros2_step(problem.f1, np.array([0.0]), 0.8, np.zeros((1, 1)))
    report = guard_ros2_dense(problem, step)
    assert report.mode is GuardMode.ROS2_DENSE
    assert report.passed
    assert report.certified_sigma == step.tau
    assert report.coefficients["d_min"] == pytest.approx(0.8, rel=1e-12)
    # for a constant field k2 = -k1, so the theta-linear part vanishes
    assert abs(report.coefficients["m2"]) <= 1e-15
    assert report.coefficients["m1"] == pytest.approx(0.8, rel=1e-12)


def test_exact_dense_guard_certifies_up_to_the_root_of_d():
    # y' = 1 - 2t, t' = 1 toward y = 0.2: d(theta) = tau*(1 - 2*tau*theta)
    # turns at theta = 1/(2*tau) = 5/9, where y = 0.25 is past the surface
    # while both endpoints sit below it
    problem = declared([[0.0, -2.0], [0.0, 0.0]], [1.0, 1.0], [1.0, 0.0], -0.2)
    step = ros2_step(problem.f1, np.array([0.0, 0.0]), 0.9, problem.jac_f1(None))
    assert problem.h(step.x0) < 0.0
    assert problem.h(step.x1) < 0.0  # endpoint comparison sees nothing
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
    assert report.coefficients["d_min"] == 0.0


def check_exact_dense_guard(A, b, n, x0, c, tau):
    # the exact dense guard's verdict against d sampled densely; a singular
    # step matrix is no case
    problem = declared(A, b, n, c)
    try:
        step = ros2_step(problem.f1, x0, tau, A)
    except SingularMatrix:
        assume(False)
    report = guard_ros2_dense(problem, step)

    def d(theta):
        return float(n @ dense_derivative(step, theta))

    # d in floats is off by the rounding of one derivative and one dot
    # product: relative rounding plus the absolute step of subnormal numbers
    size = float(np.abs(n) @ (np.abs(step.k1) + np.abs(step.k2)))
    slack = 64 * (np.finfo(float).eps * C_ROS2 * 4.0 * size + math.ulp(0.0))
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

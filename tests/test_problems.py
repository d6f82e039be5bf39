"""Problem containers, counting, slow/fast flattening, builtin registry."""

import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rosevent.linalg
import rosevent.problems
from rosevent.errors import DomainViolation, ResidualTooLarge
from rosevent.filippov import classify_general, filippov_coeffs
from rosevent.events import IntegratorConfig, integrate
from rosevent.onesided import GuardMode, guard_ros1_general, guard_ros1_orthogonal
from rosevent.rosenbrock import ROS1
from rosevent.problems import (
    Affine,
    FloatField,
    FloatRows,
    PiecewiseProblem,
    SppProblem,
    Surface,
    affine_problem,
    affine_spp,
    builtin,
    eval_field,
    field_jacobian,
    h_gradient,
    problem_names,
    reduced_order_model,
    spp_flatten,
)


def test_eval_field_counts_and_validates(counting):
    p = builtin("tent")
    with counting() as stats:
        npt.assert_array_equal(eval_field(p, 1, [0.0]), [1.0])
        npt.assert_array_equal(eval_field(p, 2, [0.0]), [-1.0])
    assert stats.f_evals == {1: 1, 2: 1}
    with pytest.raises(ValueError):
        eval_field(p, 3, [0.0])


def test_najafi_domain_violation_counted(counting):
    p = builtin("najafi")
    with counting() as stats:
        ok = eval_field(p, 1, [1.0, 0.96])
        npt.assert_allclose(ok, [0.2, 1.0], rtol=0, atol=1e-15)
        with pytest.raises(DomainViolation):
            eval_field(p, 1, [1.0, 1.5])
    assert stats.domain_violations == {1: 1, 2: 0}
    assert stats.f_evals == {1: 1, 2: 0}
    # the post-switch field has no domain restriction
    npt.assert_array_equal(eval_field(p, 2, [1.0, 1.5]), [0.0, 1.0])


def test_najafi_jacobian_refuses_past_switch():
    p = builtin("najafi")
    J = field_jacobian(p, 1, [2.0, 0.75])
    npt.assert_allclose(J, [[0.5, -2.0], [0.0, 0.0]], rtol=0, atol=1e-15)
    with pytest.raises(DomainViolation):
        field_jacobian(p, 1, [2.0, 1.0])


@pytest.mark.parametrize("x, rejected", [([1.0, 0.5], 0), ([1.0, 1.0], 1)])
def test_a_finite_difference_jacobian_checks_each_point_once(x, rejected, counting):
    # najafi's field 1 without its Jacobian, under a counting domain
    # predicate: the stencil checks each point once and eval_field takes its
    # verdict. At t = 1 the forward t-probe leaves the domain, and the
    # one-sided difference checks and evaluates the point itself instead.
    najafi = builtin("najafi")
    checked = []

    def domain(u):
        checked.append(u.copy())
        return najafi.domain_f1(u)

    p = PiecewiseProblem(2, najafi.f1, najafi.f2, surface=najafi.surface, domain_f1=domain)
    with counting() as stats:
        J = field_jacobian(p, 1, x)
    assert stats.f_evals[1] == len(checked) - rejected == 4
    assert stats.domain_violations == {1: 0, 2: 0}
    npt.assert_allclose(J[1], [0.0, 0.0], atol=0)
    if not rejected:  # central differences: dx' / dx = sqrt(1 - t)
        npt.assert_allclose(J[0], [math.sqrt(0.5), -1.0 / (2.0 * math.sqrt(0.5))], rtol=1e-7)


def test_h_gradient_analytic_or_fd():
    p = builtin("tent")
    npt.assert_array_equal(h_gradient(p, np.array([0.3])), [1.0])
    # an undeclared h gets each stencil point as its float array, and the
    # gradient comes back as an array of the stencil's floats
    seen = []

    def h(u):
        seen.append(type(u))
        return u[0] * u[0] - 0.5

    undeclared = PiecewiseProblem(1, p.f1, p.f2, h=h)
    grad = h_gradient(undeclared, [0.25])
    assert isinstance(grad, np.ndarray) and grad.dtype == float
    assert grad.tobytes() == np.array(rosevent.linalg.fd_gradient(h, [0.25])).tobytes()
    npt.assert_allclose(grad, [0.5], rtol=1e-7)
    assert seen[:2] == [np.ndarray, np.ndarray] and set(seen[2:]) == {list}


def test_spp_flatten_kowalczyk_fields():
    spp = builtin("kowalczyk", eps=2.0**-7)
    flat = spp_flatten(spp)
    assert flat.dim == 2
    assert flat.source_spp is spp
    u = np.array([0.5, -0.25])
    # slow block +-1, fast block (y - z)/eps = 0.75 * 128 exactly
    npt.assert_array_equal(eval_field(flat, 1, u.tolist()), [1.0, 96.0])
    npt.assert_array_equal(eval_field(flat, 2, u.tolist()), [-1.0, 96.0])
    npt.assert_array_equal(h_gradient(flat, u), [-0.9, 1.9])
    npt.assert_allclose(flat.h(u), -0.9 * 0.5 + 1.9 * -0.25, rtol=0, atol=0)
    npt.assert_array_equal(flat.x0, [1.0, 0.0])


def test_spp_flatten_slow_block_bit_equal():
    spp = builtin("teixeira", eps=1e-3)
    flat = spp_flatten(spp)
    u = np.array([0.37, -1.12, 0.185])
    npt.assert_array_equal(eval_field(flat, 1, u.tolist())[:2], spp.stacked.f1(u)[:2])
    npt.assert_array_equal(eval_field(flat, 2, u.tolist())[:2], spp.stacked.f2(u)[:2])


def test_spp_flatten_jacobian_stacks_fast_rows():
    spp = builtin("kowalczyk", eps=1e-2)
    flat = spp_flatten(spp)
    J = field_jacobian(flat, 1, [0.4, -0.2])
    npt.assert_array_equal(J, [[0.0, 0.0], [100.0, -100.0]])


def test_spp_eps_must_be_positive():
    with pytest.raises(ValueError):
        builtin("kowalczyk", eps=0.0)
    with pytest.raises(ValueError):
        builtin("teixeira", eps=-1.0)


def test_spp_needs_a_slow_and_a_fast_part():
    stacked = builtin("teixeira").stacked
    for slow_dim in (0, 3):
        with pytest.raises(ValueError, match=f"need 0 < slow_dim < 3, got slow_dim = {slow_dim}"):
            SppProblem(stacked, slow_dim, 1e-2)
    spp = SppProblem(stacked, 2, 1e-2)
    assert spp.label == "teixeira"
    assert spp.x0 is stacked.x0


@pytest.mark.parametrize("dim", [0, -1])
def test_a_problem_needs_at_least_one_state(dim):
    # refused where it is built, not later by the step kernel of size dim
    with pytest.raises(ValueError, match=f"^a problem needs at least one state, got dim = {dim}$"):
        PiecewiseProblem(dim=dim, f1=lambda u: u, f2=lambda u: u, h=lambda u: -1.0)


def state_of(problem) -> dict:
    """What a problem holds, attribute by attribute, as its repr: a value
    replaced or changed in place reads differently."""
    return {name: repr(value) for name, value in vars(problem).items()}


def test_spp_flatten_and_a_run_leave_both_problems_as_they_were():
    # the counts of a run are the run's: neither the flat problem nor its
    # stacked source holds any, so neither changes
    for spp in (builtin("kowalczyk"), stacked(reference_kowalczyk(-0.9, 1e-2))):
        before = state_of(spp.stacked)
        flat = spp_flatten(spp)
        made = state_of(flat)
        result = integrate(flat, [1.0, 0.0], IntegratorConfig(tau=1e-3, t_end=0.2))
        assert result.stats.f_evals[1] > 0 and result.events
        assert state_of(flat) == made
        assert state_of(spp.stacked) == before


def bare_relay() -> PiecewiseProblem:
    # kowalczyk flattened and stripped to its fields and h: finite-difference
    # Jacobians on an undeclared surface, as the derivative-free relay runs
    flat = spp_flatten(builtin("kowalczyk", eps=1e-2))
    return PiecewiseProblem(flat.dim, flat.f1, flat.f2, flat.h, x0=flat.x0)


@pytest.mark.parametrize("make, cfg", [
    (lambda: spp_flatten(builtin("kowalczyk", eps=1e-2)), IntegratorConfig(tau=1e-3, t_end=0.2)),
    (bare_relay, IntegratorConfig(tau=1e-3, t_end=0.2)),
    (lambda: builtin("najafi"),
     IntegratorConfig(tau=0.125, t_end=2.0, guard_mode=GuardMode.ROS2_DENSE)),
    (lambda: builtin("najafi"),
     IntegratorConfig(tau=0.125, t_end=2.0, method=ROS1, guard_mode=GuardMode.ROS1_GENERAL)),
], ids=["plain", "finite-difference", "ros2-dense", "ros1-guarded"])
def test_a_run_leaves_its_problem_as_it_was(make, cfg):
    problem = make()
    before = state_of(problem)
    result = integrate(problem, problem.x0, cfg)
    assert result.stats.f_evals[1] > 0 and result.stats.lu_factorizations > 0
    assert state_of(problem) == before


def test_spp_flatten_wraps_a_callable_stacked_problem():
    # no declaration: the fast rows of f_i and J_i are divided per call,
    # h, its derivatives and the domains pass through unchanged
    def in_domain(u):
        return u[0] <= 2.0

    spp = SppProblem(PiecewiseProblem(
        dim=2,
        f1=lambda u: np.array([u[1], u[0] - u[1]]),
        f2=lambda u: np.array([1.0, u[0] - u[1]]),
        h=lambda u: u[0] - 1.0,
        grad_h=lambda u: np.array([1.0, 0.0]),
        jac_f1=lambda u: np.array([[0.0, 1.0], [1.0, -1.0]]),
        domain_f1=in_domain,
        label="callable",
        x0=np.array([0.0, 0.5]),
    ), slow_dim=1, eps=0.25)
    flat = spp_flatten(spp)
    u = np.array([1.5, 0.5])
    npt.assert_array_equal(eval_field(flat, 1, u.tolist()), [0.5, 4.0])
    npt.assert_array_equal(eval_field(flat, 2, u.tolist()), [1.0, 4.0])
    npt.assert_array_equal(field_jacobian(flat, 1, u.tolist()), [[0.0, 1.0], [4.0, -4.0]])
    assert flat.jac_f2 is None
    assert flat.h is spp.stacked.h and flat.grad_h is spp.stacked.grad_h
    assert flat.domain_f1 is in_domain and flat.domain_f2 is None
    assert flat.affine is None and flat.source_spp is spp
    assert flat.label == "callable/flattened"
    with pytest.raises(DomainViolation):
        eval_field(flat, 1, [2.5, 0.0])


@pytest.mark.parametrize("eps", [1e-320, 5e-324])
def test_spp_flatten_names_eps_when_a_fast_row_overflows(eps):
    message = re.escape(f"cannot flatten kowalczyk at eps = {eps}:")
    with np.errstate(all="raise"):  # numpy warnings become errors here
        with pytest.raises(ValueError, match=message):
            spp_flatten(builtin("kowalczyk", eps=eps))


def test_reduced_model_on_consistent_manifold():
    spp = builtin("kowalczyk", eps=1e-2)
    red = reduced_order_model(spp, lambda y: y)  # g(y, y) = 0 identically
    assert red.dim == 1
    npt.assert_array_equal(eval_field(red, 1, [0.7]), [1.0])
    # h on the manifold collapses to x itself: -0.9 x + 1.9 x = x
    npt.assert_allclose(red.h(np.array([0.7])), 0.7, rtol=1e-15, atol=0)


def test_reduced_model_rejects_bad_manifold():
    spp = builtin("kowalczyk", eps=1e-2)
    red = reduced_order_model(spp, lambda y: np.zeros(1))  # g(1, 0) = 1
    with pytest.raises(ResidualTooLarge):
        eval_field(red, 1, [1.0])


def test_builtin_registry():
    names = problem_names()
    assert names == sorted(names)
    for name in ("najafi", "tent", "linear_test", "kowalczyk",
                 "teixeira", "ostermann_modified"):
        assert name in names
    with pytest.raises(ValueError):
        builtin("nosuch")
    with pytest.raises(ValueError):
        builtin("tent", eps=1.0)  # tent takes no eps


def test_builtin_parameters_forwarded():
    p = builtin("tent", level=0.25)
    assert p.h(np.array([0.25])) == 0.0
    spp = builtin("kowalczyk", theta=-0.5, eps=1e-3)
    assert spp.eps == 1e-3
    npt.assert_array_equal(h_gradient(spp.stacked, np.array([1.0, 0.0])), [-0.5, 1.5])


# --- affine declarations against the hand-written builtins --------------------
#
# The five affine builtins used to write every field and derivative by hand,
# the slow/fast ones on the two parts (y, z) of the state. Those lambdas are
# kept here as the reference the declarations must match.

def reference_tent(level):
    return PiecewiseProblem(
        dim=1,
        f1=lambda u: np.array([1.0]),
        f2=lambda u: np.array([-1.0]),
        h=lambda u: u[0] - level,
        grad_h=lambda u: np.array([1.0]),
        jac_f1=lambda u: np.zeros((1, 1)),
        jac_f2=lambda u: np.zeros((1, 1)),
    )


def reference_linear_test(lam):
    return PiecewiseProblem(
        dim=1,
        f1=lambda u: lam * np.asarray(u, dtype=float),
        f2=lambda u: lam * np.asarray(u, dtype=float),
        h=lambda u: -1.0,
        grad_h=lambda u: np.zeros(1),
        jac_f1=lambda u: np.array([[lam]]),
        jac_f2=lambda u: np.array([[lam]]),
    )


def reference_kowalczyk(theta, eps):
    th = theta
    return SimpleNamespace(
        slow_dim=1, fast_dim=1,
        f1=lambda y, z: np.array([1.0]),
        f2=lambda y, z: np.array([-1.0]),
        g=lambda y, z: np.array([y[0] - z[0]]),
        eps=eps,
        h=lambda y, z: th * y[0] + (1.0 - th) * z[0],
        h_y=lambda y, z: np.array([th]),
        h_z=lambda y, z: np.array([1.0 - th]),
        jac_f1=lambda y, z: np.zeros((1, 2)),
        jac_f2=lambda y, z: np.zeros((1, 2)),
        jac_g=lambda y, z: np.array([[1.0, -1.0]]),
    )


def reference_teixeira(eps):
    return SimpleNamespace(
        slow_dim=2, fast_dim=1,
        f1=lambda y, z: np.array([1.0, -y[0] - y[1]]),
        f2=lambda y, z: np.array([-1.0, -y[0] - y[1]]),
        g=lambda y, z: np.array([y[0] - z[0]]),
        eps=eps,
        h=lambda y, z: 2.0 * z[0] - y[0],
        h_y=lambda y, z: np.array([-1.0, 0.0]),
        h_z=lambda y, z: np.array([2.0]),
        jac_f1=lambda y, z: np.array([[0.0, 0.0, 0.0], [-1.0, -1.0, 0.0]]),
        jac_f2=lambda y, z: np.array([[0.0, 0.0, 0.0], [-1.0, -1.0, 0.0]]),
        jac_g=lambda y, z: np.array([[1.0, 0.0, -1.0]]),
    )


def reference_ostermann_modified(eps):
    e = eps
    return SimpleNamespace(
        slow_dim=2, fast_dim=1,
        f1=lambda y, z: np.array([z[0], y[0]]),
        f2=lambda y, z: np.array([z[0], -y[0]]),
        g=lambda y, z: np.array([y[1] - z[0] - e * y[0]]),
        eps=e,
        h=lambda y, z: y[0],
        h_y=lambda y, z: np.array([1.0, 0.0]),
        h_z=lambda y, z: np.array([0.0]),
        jac_f1=lambda y, z: np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
        jac_f2=lambda y, z: np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]),
        jac_g=lambda y, z: np.array([[-e, 1.0, -1.0]]),
    )


def stacked(ref) -> SppProblem:
    """The SppProblem of a reference written on (y, z): F_i = [f_i; g],
    grad h = [h_y; h_z] and J_i = [jac_f_i; jac_g], every block called on
    the two parts of the stacked state."""
    s = ref.slow_dim

    def on_u(top, bottom, join):
        return lambda u: join([np.asarray(top(u[:s], u[s:]), dtype=float),
                               np.asarray(bottom(u[:s], u[s:]), dtype=float)])

    return SppProblem(PiecewiseProblem(
        dim=s + ref.fast_dim,
        f1=on_u(ref.f1, ref.g, np.concatenate),
        f2=on_u(ref.f2, ref.g, np.concatenate),
        h=lambda u: ref.h(u[:s], u[s:]),
        grad_h=on_u(ref.h_y, ref.h_z, np.concatenate),
        jac_f1=on_u(ref.jac_f1, ref.jac_g, np.vstack),
        jac_f2=on_u(ref.jac_f2, ref.jac_g, np.vstack),
    ), s, ref.eps)


def assert_within_ulps(got, want, scale, ulps=8):
    """|got - want| <= ulps spacings of `scale`, the sum of the magnitudes
    of the terms each entry is made of (a dot product can cancel, so its
    rounding is bounded relative to its terms, not to its value)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    tol = ulps * np.spacing(np.asarray(scale, dtype=float))
    assert np.all(np.abs(got - want) <= tol), (got, want, tol)


def term_scale(A, b, x):
    return np.abs(A) @ np.abs(x) + np.abs(b)


def assert_piecewise_matches(derived, reference, aff, x):
    """Fields, Jacobians, h and its gradient of `derived` (built from the
    declaration aff) against the hand-written `reference`, at x."""
    for which, (A, b) in ((1, (aff.A1, aff.b1)), (2, (aff.A2, aff.b2))):
        xf = x.tolist()
        assert_within_ulps(eval_field(derived, which, xf), eval_field(reference, which, xf),
                           term_scale(A, b, x))
        J = field_jacobian(derived, which, xf)
        assert_within_ulps(J, field_jacobian(reference, which, xf), np.abs(J))
    assert_within_ulps(derived.h(x), reference.h(x), np.abs(aff.n) @ np.abs(x) + abs(aff.c))
    assert_within_ulps(h_gradient(derived, x), h_gradient(reference, x), np.abs(aff.n))


# Zero or at least 1e-100 in magnitude: products of a few of these stay
# normal, where rounding is relative. (In the subnormal range it is absolute,
# and the two orders of operations can differ by more than a few ulp.)
finite = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)
positive_eps = st.floats(1e-6, 1.0)


@st.composite
def builtin_draws(draw):
    """(name, params, reference) for one of the five affine builtins."""
    name = draw(st.sampled_from(["tent", "linear_test", "kowalczyk", "teixeira",
                                 "ostermann_modified"]))
    if name == "tent":
        level = draw(finite)
        return name, {"level": level}, reference_tent(level)
    if name == "linear_test":
        lam = draw(finite)
        return name, {"lam": lam}, reference_linear_test(lam)
    eps = draw(positive_eps)
    if name == "kowalczyk":
        theta = draw(st.floats(-2.0, 2.0))
        return name, {"theta": theta, "eps": eps}, reference_kowalczyk(theta, eps)
    if name == "teixeira":
        return name, {"eps": eps}, reference_teixeira(eps)
    return name, {"eps": eps}, reference_ostermann_modified(eps)


@settings(max_examples=300, deadline=None)
@given(draw=builtin_draws(), data=st.data())
def test_declared_builtins_match_the_hand_written_lambdas(draw, data):
    name, params, reference = draw
    spec = builtin(name, **params)
    if not isinstance(spec, SppProblem):
        x = np.array(data.draw(st.lists(finite, min_size=reference.dim, max_size=reference.dim)))
        # the hand-written problem's own coefficients, for the term scales
        zero = np.zeros(reference.dim)
        aff = Affine(reference.jac_f1(x), reference.f1(zero), reference.jac_f2(x),
                     reference.f2(zero), reference.grad_h(x), reference.h(zero))
        assert_piecewise_matches(spec, reference, aff, x)
        return

    dim = reference.slow_dim + reference.fast_dim
    x = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    # unflattened: the stacked declaration against the stacked (y, z) blocks
    aff = spec.stacked.affine
    ref = stacked(reference)
    assert spec.slow_dim == ref.slow_dim and spec.eps == ref.eps
    assert_piecewise_matches(spec.stacked, ref.stacked, aff, x)

    # flattened: the declaration with its fast rows over eps, against the
    # hand-written blocks with their fast rows divided per call
    flat = spp_flatten(spec)
    assert flat.source_spp is spec
    rows = np.r_[np.ones(spec.slow_dim), np.full(reference.fast_dim, 1.0 / spec.eps)]
    flat_aff = Affine(aff.A1 * rows[:, None], aff.b1 * rows, aff.A2 * rows[:, None],
                      aff.b2 * rows, aff.n, aff.c)
    assert_piecewise_matches(flat, spp_flatten(ref), flat_aff, x)


REFERENCES = {"kowalczyk": reference_kowalczyk, "teixeira": reference_teixeira,
              "ostermann_modified": reference_ostermann_modified}

# g0 solving g(y, g0(y)) = 0 for each slow/fast builtin
MANIFOLDS = {"kowalczyk": lambda eps: lambda y: y,
             "teixeira": lambda eps: lambda y: y[:1],
             "ostermann_modified": lambda eps: lambda y: np.array([y[1] - eps * y[0]])}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(REFERENCES)), eps=positive_eps,
       theta=st.floats(-2.0, 2.0), data=st.data())
def test_classification_and_reduced_fields_equal_the_yz_forms(name, eps, theta, data):
    # the slow/fast quantities read off the stacked declaration equal the
    # (y, z) formulas on the hand-written blocks exactly (as floats: a zero
    # may differ in sign)
    params = {"eps": eps, "theta": theta} if name == "kowalczyk" else {"eps": eps}
    spec, ref = builtin(name, **params), REFERENCES[name](**params)
    s = ref.slow_dim
    x = np.array(data.draw(st.lists(finite, min_size=s + ref.fast_dim,
                                    max_size=s + ref.fast_dim)))
    y, z = x[:s], x[s:]
    hy, hz = ref.h_y(y, z), ref.h_z(y, z)
    p1, p2 = float(hy @ ref.f1(y, z)), float(hy @ ref.f2(y, z))
    q = float(hz @ ref.g(y, z))
    coeffs = filippov_coeffs(spec, x)
    assert (coeffs.A, coeffs.B, coeffs.Csq) == (p1 * p2, p1 * q + p2 * q, q * q)

    g0 = MANIFOLDS[name](eps)
    red = reduced_order_model(spec, g0)
    for which, f in ((1, ref.f1), (2, ref.f2)):
        npt.assert_array_equal(eval_field(red, which, y.tolist()), f(y, g0(y)))


def test_filippov_coeffs_rejects_fast_rows_that_differ():
    spp = SppProblem(PiecewiseProblem(
        dim=2, f1=lambda u: np.array([1.0, u[0] - u[1]]),
        f2=lambda u: np.array([-1.0, u[0] - 2.0 * u[1]]),
        h=lambda u: u[0]), slow_dim=1, eps=1e-2)
    with pytest.raises(ValueError, match="fast rows of F1 and F2 differ"):
        filippov_coeffs(spp, [0.0, 1.0])
    # where the rows agree the coefficients follow
    coeffs = filippov_coeffs(spp, [0.0, 0.0])
    assert coeffs.Csq == 0.0 and coeffs.A == -1.0


def test_returned_jacobians_and_gradients_are_read_only():
    # a Jacobian comes back as fresh float rows: writing into them changes
    # neither the declared A_i nor the next field_jacobian; the gradient of
    # h is the read-only n
    x = [0.3, -0.2, 0.1]
    for name in ("tent", "linear_test", "kowalczyk", "teixeira", "ostermann_modified"):
        spec = builtin(name)
        problem = spp_flatten(spec) if isinstance(spec, SppProblem) else spec
        u = x[: problem.dim]
        for p in [problem] + ([spec.stacked] if isinstance(spec, SppProblem) else []):
            for which, A in ((1, p.affine.A1), (2, p.affine.A2)):
                before = A.tobytes()
                rows = field_jacobian(p, which, u)
                rows[0][0] = 1.0
                rows[0] = [7.0] * p.dim
                assert A.tobytes() == before
                assert np.array(field_jacobian(p, which, u)).tobytes() == before
            with pytest.raises(ValueError, match="read-only"):
                h_gradient(p, np.array(u))[0] = 1.0


def test_affine_stores_read_only_copies():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    n = [1.0, 0.0]
    aff = Affine(A1=A, b1=[0.0, 0.0], A2=A, b2=[1.0, 0.0], n=n, c=-0.5)
    A[0, 1] = 7.0
    n[0] = 7.0
    npt.assert_array_equal(aff.A1, [[0.0, 1.0], [-1.0, 0.0]])
    npt.assert_array_equal(aff.n, [1.0, 0.0])
    assert aff.dim == 2 and aff.c == -0.5
    for arr in (aff.A1, aff.b1, aff.A2, aff.b2, aff.n):
        assert not arr.flags.writeable
    with pytest.raises(AttributeError):
        aff.c = 0.0
    problem = affine_problem(aff, label="rotor", x0=np.array([0.0, 1.0]))
    npt.assert_array_equal(eval_field(problem, 2, [2.0, 3.0]), [4.0, -2.0])
    assert problem.h(np.array([2.0, 3.0])) == 1.5
    assert problem.label == "rotor"
    assert problem.affine is aff


@pytest.mark.parametrize("change", [
    {"A1": [[1.0, 0.0]]},                  # not square
    {"b2": [1.0, 2.0, 3.0]},               # wrong length
    {"n": [[1.0, 0.0]]},                   # not a vector
    {"n": []},                             # empty
    {"A2": [[0.0, math.nan], [0.0, 0.0]]},
    {"b1": [math.inf, 0.0]},
    {"n": [1.0, -math.inf]},
    {"c": math.nan},
])
def test_affine_rejects_bad_shapes_and_non_finite_entries(change):
    fields = dict(A1=np.zeros((2, 2)), b1=np.zeros(2), A2=np.zeros((2, 2)),
                  b2=np.zeros(2), n=[1.0, 0.0], c=0.0)
    fields.update(change)
    with pytest.raises(ValueError):
        Affine(**fields)


def test_affine_spp_checks_the_split_and_the_shared_fast_rows():
    aff = Affine(A1=[[0.0, 0.0], [1.0, -1.0]], b1=[1.0, 0.0],
                 A2=[[0.0, 0.0], [1.0, -1.0]], b2=[-1.0, 0.0], n=[0.0, 1.0], c=0.0)
    for slow_dim in (0, 2):
        with pytest.raises(ValueError, match="slow_dim"):
            affine_spp(aff, slow_dim, 1e-2)
    split = Affine(A1=aff.A1, b1=aff.b1, A2=[[0.0, 0.0], [2.0, -1.0]], b2=aff.b2,
                   n=aff.n, c=aff.c)
    with pytest.raises(ValueError, match="fast rows"):
        affine_spp(split, 1, 1e-2)
    with pytest.raises(ValueError, match="eps"):
        affine_spp(aff, 1, 0.0)
    spp = affine_spp(aff, 1, 1e-2, "relay", np.array([1.0, 0.0]))
    assert spp.stacked.affine is aff and spp.slow_dim == 1
    assert spp.label == "relay"
    npt.assert_array_equal(spp.x0, [1.0, 0.0])


@pytest.mark.parametrize("change", [{"A2": [[0.0, 0.0], [2.0, -1.0]]}, {"b2": [-1.0, 0.5]}])
def test_a_declared_spp_with_fast_rows_that_differ_fails_at_construction(change):
    # SppProblem itself refuses the declaration, not only affine_spp, so a
    # declared problem cannot reach its first hit with a fast row that is
    # not shared; a slow row may differ, and the signs of zeros do not count
    rows = dict(A1=[[0.0, 0.0], [1.0, -1.0]], b1=[1.0, 0.0],
                A2=[[5.0, 0.0], [1.0, -1.0]], b2=[-1.0, -0.0], n=[0.0, 1.0], c=0.0)
    SppProblem(affine_problem(Affine(**rows)), 1, 1e-2)
    rows.update(change)
    with pytest.raises(ValueError, match="both regions must share the fast rows"):
        SppProblem(affine_problem(Affine(**rows)), 1, 1e-2)


@pytest.mark.parametrize("name, params", [
    ("kowalczyk", {"theta": math.nan}),
    ("kowalczyk", {"theta": math.inf}),
    ("tent", {"level": math.nan}),
    ("linear_test", {"lam": math.inf}),
    ("ostermann_modified", {"eps": math.nan}),
    ("kowalczyk", {"eps": math.inf}),
])
def test_non_finite_builtin_parameters_are_rejected(name, params):
    # h = theta*y + (1 - theta)*z or x - level would be NaN everywhere, and
    # a run would report no events instead of failing; eps = inf would
    # flatten the fast rows to zero and classify with q(inf) = NaN
    with pytest.raises(ValueError, match=f"bad parameters for '{name}'"):
        builtin(name, **params)


# --- declared affine surfaces --------------------------------------------------

def test_surface_stores_a_read_only_copy():
    n = [2.0, -1.0]
    surface = Surface(n, 0.5)
    n[0] = 7.0
    npt.assert_array_equal(surface.n, [2.0, -1.0])
    assert not surface.n.flags.writeable and surface.c == 0.5
    with pytest.raises(AttributeError):
        surface.c = 0.0


@pytest.mark.parametrize("n, c", [
    ([], 0.0), ([[1.0, 0.0]], 0.0), ([1.0, math.nan], 0.0), ([1.0], math.inf),
])
def test_surface_rejects_bad_shapes_and_non_finite_entries(n, c):
    with pytest.raises(ValueError, match="surface"):
        Surface(n, c)


def left_to_right(n, c, x) -> float:
    """(n0*x0 + n1*x1 + ...) + c with the sum taken left to right, or
    x[i] + c, one operation, for a unit normal e_i."""
    nonzero = [j for j, v in enumerate(n) if v != 0.0]
    if len(nonzero) == 1 and n[nonzero[0]] == 1.0:
        return x[nonzero[0]] + c
    total = n[0] * x[0]
    for nj, xj in zip(n[1:], x[1:]):
        total = total + nj * xj
    return total + c


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4))
def test_a_declared_surface_gives_h_and_its_derivatives(data, dim):
    fin = st.floats(-1e3, 1e3)
    n = np.array([data.draw(fin) for _ in range(dim)])
    c = data.draw(fin)
    x = np.array([data.draw(fin) for _ in range(dim)])
    problem = PiecewiseProblem(dim=dim, f1=lambda u: u, f2=lambda u: -u,
                               surface=Surface(n, c))
    assert problem.h(x) == left_to_right(n.tolist(), c, x.tolist())
    npt.assert_array_equal(h_gradient(problem, x), n)


def float_bits(v) -> bytes:
    return np.float64(v).tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4))
def test_a_declared_h_reads_a_list_and_an_array_to_the_same_bits(data, dim):
    # signed zeros beside ordinary values, so a sum's sign of zero matters
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
    if data.draw(st.booleans(), label="unit normal"):
        n = [data.draw(st.sampled_from([0.0, -0.0])) for _ in range(dim)]
        n[data.draw(st.integers(0, dim - 1))] = 1.0
    else:
        n = [data.draw(entry) for _ in range(dim)]
    c = data.draw(entry)
    x = [data.draw(entry) for _ in range(dim)]
    h = Surface(n, c).callables[0]
    expected = float_bits(left_to_right(n, c, x))
    assert float_bits(h(list(x))) == float_bits(h(np.array(x))) == expected
    if [v for v in n if v != 0.0] != [1.0]:
        # not a unit normal: h is the one row of the float rows of [n], c
        assert float_bits(FloatRows([n], [c]).floats(list(x))[0]) == expected


def test_h_and_a_declared_surface_exclude_each_other():
    f = lambda u: u  # noqa: E731
    with pytest.raises(ValueError, match="give one or the other"):
        PiecewiseProblem(dim=1, f1=f, f2=f, h=lambda u: u[0], surface=Surface([1.0], 0.0))
    with pytest.raises(ValueError, match="give one or the other"):
        PiecewiseProblem(dim=1, f1=f, f2=f, grad_h=lambda u: u, surface=Surface([1.0], 0.0))
    with pytest.raises(ValueError, match="needs an event function h or a declared surface"):
        PiecewiseProblem(dim=1, f1=f, f2=f)
    with pytest.raises(ValueError, match="normal has 2 entries, the state 1"):
        PiecewiseProblem(dim=1, f1=f, f2=f, surface=Surface([1.0, 0.0], 0.0))


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1e6, 1e6), t=st.floats(-1e6, 1e6))
def test_najafi_declares_t_minus_one(x, t):
    problem = builtin("najafi")
    npt.assert_array_equal(problem.surface.n, [0.0, 1.0])
    assert problem.surface.c == -1.0
    u = np.array([x, t])
    # bit for bit the hand-written u[1] - 1.0 it replaces
    assert problem.h(u) == u[1] - 1.0
    npt.assert_array_equal(h_gradient(problem, u), [0.0, 1.0])


def test_declarations_and_flattening_keep_the_surface():
    aff = Affine(A1=[[0.0]], b1=[1.0], A2=[[0.0]], b2=[-1.0], n=[2.0], c=-1.0)
    problem = affine_problem(aff)
    npt.assert_array_equal(problem.surface.n, aff.n)
    assert problem.surface.c == aff.c
    for name in ("kowalczyk", "teixeira", "ostermann_modified"):
        spec = builtin(name)
        flat = spp_flatten(spec)
        npt.assert_array_equal(flat.surface.n, spec.stacked.affine.n)
        assert flat.surface.c == spec.stacked.affine.c
    # the callable branch passes a declared surface through as it is
    st_problem = PiecewiseProblem(dim=2, f1=lambda u: u, f2=lambda u: -u,
                                  surface=Surface([0.0, 1.0], -0.5))
    flat = spp_flatten(SppProblem(st_problem, slow_dim=1, eps=0.5))
    assert flat.surface is st_problem.surface
    assert flat.h(np.array([3.0, 2.0])) == 1.5


# --- float-row fields: a declaration's fields on Python floats ---------------

def left_to_right_rows(A, b, x):
    """(A[i][0]*x[0] + A[i][1]*x[1] + ...) + b[i] per row, one IEEE
    operation at a time, on Python floats."""
    out = []
    for row, b_i in zip(A, b):
        s = row[0] * x[0]
        for a, v in zip(row[1:], x[1:]):
            s = s + a * v
        out.append(s + b_i)
    return out


class NoNumpy:
    """Stands in for numpy in a module: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 4))
def test_float_rows_are_the_left_to_right_sums_in_both_forms(data, n, counting):
    def floats():
        return data.draw(st.lists(finite, min_size=n, max_size=n))

    A1, A2 = [floats() for _ in range(n)], [floats() for _ in range(n)]
    b1, b2, x = floats(), floats(), floats()
    problem = affine_problem(Affine(A1, b1, A2, b2, np.ones(n), 0.0))
    with counting() as stats:
        for which, A, b in ((1, A1, b1), (2, A2, b2)):
            want = np.array(left_to_right_rows(A, b, x)).tobytes()
            f = problem.f1 if which == 1 else problem.f2
            assert isinstance(f, FloatRows)
            # the float form runs no numpy: a list of floats in, a list out
            with mock.patch.object(rosevent.problems, "np", NoNumpy()):
                as_list = eval_field(problem, which, list(x))
            assert type(as_list) is list and all(type(v) is float for v in as_list)
            # the array form is the field's own __call__, which counts nothing
            as_array = f(np.array(x))
            assert isinstance(as_array, np.ndarray) and as_array.dtype == float
            assert np.array(as_list).tobytes() == as_array.tobytes() == want
    # each eval_field call counted once
    assert stats.f_evals == {1: 1, 2: 1}


def test_float_rows_are_generated_once_per_size():
    A = [[1.0, 2.0], [3.0, 4.0]]
    first = FloatRows(A, [0.5, -0.5])
    other = FloatRows([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])
    # one generated maker per size: two fields of one size share its code
    assert first.floats.__code__ is other.floats.__code__
    assert first.floats.__code__ is not FloatRows([[1.0]], [0.0]).floats.__code__
    assert first.floats([1.0, 1.0]) == [3.5, 6.5]
    assert other.floats([1.0, 2.0]) == [-2.0, 1.0]


def test_the_float_form_of_a_callable_field_checks_its_value(counting):
    # a callable field gets one float array and its value comes back as
    # floats, or fails the checks the step kernel relies on
    problem = PiecewiseProblem(dim=2, f1=lambda u: 2.0 * u, f2=lambda u: np.ones(3),
                               h=lambda u: -1.0, domain_f1=lambda u: u[0] <= 1.0)
    with counting() as stats:
        assert eval_field(problem, 1, [0.5, 0.25]) == [1.0, 0.5]
        with pytest.raises(DomainViolation):
            eval_field(problem, 1, [1.5, 0.0])
        with pytest.raises(ValueError, match="^matrix is 2x2 but b has length 3$"):
            eval_field(problem, 2, [0.0, 0.0])
    assert stats.f_evals == {1: 1, 2: 1}
    assert stats.domain_violations == {1: 1, 2: 0}
    # a list of ints reaches the field as a float array, as any x does
    # (an int array would raise at a negative integer power)
    reciprocal = PiecewiseProblem(dim=2, f1=lambda u: u ** -1, f2=lambda u: u,
                                  h=lambda u: -1.0, domain_f1=lambda u: u[0] > 0.0)
    assert eval_field(reciprocal, 1, [1, 2]) == [1.0, 0.5]


# --- declared float forms: najafi's fields and Jacobians ---------------------


def najafi_reference(which, u):
    """najafi's field and Jacobian `which` as numpy formulas on the array's
    entries, as the model was written before its float forms; None for the
    part that is undefined at u (the field past t = 1, the Jacobian of
    field 1 at t >= 1)."""
    x, t = np.array(u)
    if which == 2:
        return np.array([0.0, 1.0]), np.zeros((2, 2))
    f = np.array([x * math.sqrt(1.0 - t), 1.0]) if t <= 1.0 else None
    if not 1.0 - t > 0.0:
        return f, None
    r = math.sqrt(1.0 - t)
    return f, np.array([[r, -x / (2.0 * r)], [0.0, 0.0]])


# subnormal and signed-zero x beside ordinary ones; t below, at and past the
# switch at t = 1
najafi_x = st.one_of(st.floats(-1e100, 1e100), st.floats(-1e-307, 1e-307),
                     st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
najafi_t = st.one_of(st.floats(-1e6, 1.0, exclude_max=True), st.just(1.0),
                     st.floats(1.0, 1e6, exclude_min=True), st.sampled_from([0.0, -0.0]))


@settings(max_examples=300, deadline=None)
@given(x=najafi_x, t=najafi_t)
def test_najafi_float_forms_are_its_array_forms_bit_for_bit(x, t, counting):
    # eval_field and field_jacobian give the float forms; the array forms
    # are the FloatFields' own __call__ on the state's array
    problem = builtin("najafi")
    assert isinstance(problem.f1, FloatField) and isinstance(problem.jac_f1, FloatField)
    fields = {1: (problem.f1, problem.jac_f1), 2: (problem.f2, problem.jac_f2)}
    with counting() as stats:
        for which in (1, 2):
            f_want, J_want = najafi_reference(which, [x, t])
            f, jac = fields[which]
            if f_want is None:
                # past the switch: eval_field refuses, with the state's array
                # in the message, and counts the refusal
                with pytest.raises(DomainViolation) as from_floats:
                    eval_field(problem, which, [x, t])
                assert str(from_floats.value) == (
                    f"field 1 of najafi is undefined at {np.array([x, t])}")
            else:
                got = eval_field(problem, which, [x, t])
                assert type(got) is list and all(type(v) is float for v in got)
                want = f(np.array([x, t]))
                assert np.array(got).tobytes() == want.tobytes() == f_want.tobytes()
            if J_want is None:
                # the Jacobian of field 1 refuses t >= 1 in both forms
                with pytest.raises(DomainViolation, match="^pre-switch Jacobian is singular"):
                    field_jacobian(problem, which, [x, t])
                with pytest.raises(DomainViolation, match="^pre-switch Jacobian is singular"):
                    jac(np.array([x, t]))
            else:
                rows = field_jacobian(problem, which, [x, t])
                assert type(rows) is list and all(type(v) is float for row in rows for v in row)
                J = jac(np.array([x, t]))
                assert isinstance(J, np.ndarray) and J.dtype == float
                assert np.array(rows).tobytes() == J.tobytes() == J_want.tobytes()
    assert stats.f_evals == {1: int(t <= 1.0), 2: 1}
    assert stats.domain_violations == {1: int(t > 1.0), 2: 0}
    assert stats.jacobian_evaluations == 2


def test_a_float_form_field_hands_its_domain_the_floats(counting):
    seen = []

    def domain(u):
        seen.append(type(u))
        return u[0] <= 1.0

    problem = PiecewiseProblem(dim=2, f1=FloatField(lambda u: [u[1], u[0]]),
                               f2=FloatField(lambda u: [0.0, 0.0]), h=lambda u: -1.0,
                               domain_f1=domain, label="swap")
    assert eval_field(problem, 1, [0.5, 0.25]) == [0.25, 0.5]
    # a callable field's domain gets the one array built from the floats
    plain = PiecewiseProblem(dim=2, f1=lambda u: u[::-1], f2=lambda u: 0.0 * u,
                             h=lambda u: -1.0, domain_f1=domain)
    assert eval_field(plain, 1, [0.5, 0.25]) == [0.25, 0.5]
    with counting() as stats:
        with pytest.raises(DomainViolation,
                           match=re.escape("field 1 of swap is undefined at [2. 0.]")):
            eval_field(problem, 1, [2.0, 0.0])
    assert seen == [list, np.ndarray, list]
    assert stats.domain_violations == {1: 1, 2: 0}


def test_a_derivative_free_run_hands_each_domain_one_form():
    # najafi without its Jacobians, under the dense guard: every point its
    # domain predicate checks, the finite-difference stencil's as well as
    # eval_field's, comes in the form eval_field hands the field, the
    # floats for a float-form field and one array for any other. Both runs
    # take the same steps with the same bits.
    nj = builtin("najafi")
    cfg = IntegratorConfig(tau=0.125, t_end=2.0, guard_mode=GuardMode.ROS2_DENSE)
    runs = {}
    for form, f1 in ((list, nj.f1), (np.ndarray, lambda u: nj.f1(u))):
        seen = []

        def domain(u):
            seen.append(type(u))
            return nj.domain_f1(u)

        p = PiecewiseProblem(nj.dim, f1, nj.f2, surface=nj.surface, domain_f1=domain)
        runs[form] = result = integrate(p, [1.0, 0.0], cfg)
        assert seen == [form] * 49
        stats = result.stats
        assert (stats.steps, stats.lu_factorizations, stats.jacobian_evaluations) == (16, 9, 9)
        assert stats.f_evals == {1: 49, 2: 21}
        assert stats.domain_violations == {1: 0, 2: 0}
        assert [ev.t_star for ev in result.events] == [1.0]
        [(index, report)] = result.guard_reports
        assert (index, report.passed, report.certified_sigma) == (7, True, 0.125)
    assert ([(t, x.tobytes()) for t, x in runs[list].mesh]
            == [(t, x.tobytes()) for t, x in runs[np.ndarray].mesh])


def test_a_float_form_of_the_wrong_shape_fails_the_shared_checks():
    # a value or rows of the wrong shape fail linalg.as_floats's and
    # as_matrix's messages, in eval_field and field_jacobian and through
    # the driver, not an unpack error inside a generated kernel
    problem = PiecewiseProblem(dim=2, f1=FloatField(lambda u: [u[0]]),
                               f2=FloatField(lambda u: [0.0, 1.0, 2.0]), h=lambda u: u[1] - 1.0,
                               jac_f2=FloatField(lambda u: [[0.0, 0.0]]))
    for which, length in ((1, 1), (2, 3)):
        with pytest.raises(ValueError, match=f"^matrix is 2x2 but b has length {length}$"):
            eval_field(problem, which, [0.5, 0.25])
    cfg = IntegratorConfig(tau=0.1, t_end=1.0)
    with pytest.raises(ValueError, match=r"^matrix is 2x2 but b has length 1 "
                                         r"\(step 0, t = 0, field 1\)$"):
        integrate(problem, np.array([0.5, 0.25]), cfg)
    with pytest.raises(ValueError, match=re.escape("expected a square matrix, got shape (1, 2)")):
        field_jacobian(problem, 2, [0.5, 0.25])
    problem.f2 = FloatField(lambda u: [0.0, 1.0])
    with pytest.raises(ValueError, match=re.escape("expected a square matrix, got shape (1, 2)")):
        integrate(problem, np.array([0.5, 1.25]), cfg)


# a J of another shape than 2x2, with the message it fails on where it enters
WRONG_JACOBIANS = {
    (2,): "expected a square matrix, got shape (2,)",
    (2, 3): "expected a square matrix, got shape (2, 3)",
    (3, 2): "expected a square matrix, got shape (3, 2)",
    (3, 3): "the Jacobian of field 1 is 3x3 but the state has 2 entries",
    (1, 1): "the Jacobian of field 1 is 1x1 but the state has 2 entries",
}


@pytest.mark.parametrize("shape", list(WRONG_JACOBIANS), ids=str)
@pytest.mark.parametrize("form", ["array", "float rows"])
def test_a_jacobian_of_another_shape_fails_before_any_factorization(monkeypatch, shape, form):
    # an analytic J, or a float form's rows, of another shape fails
    # field_jacobian's checks on every driver path: not an unpack error
    # inside the generated kernel, and before anything is factored
    message = WRONG_JACOBIANS[shape]
    value = np.full(shape, 0.5)
    jac = FloatField(lambda u: value.tolist()) if form == "float rows" else (lambda u: value)
    problem = PiecewiseProblem(dim=2, f1=FloatField(lambda u: [1.0, 0.0]),
                               f2=FloatField(lambda u: [-1.0, 0.0]),
                               surface=Surface([1.0, 0.0], -1.0), jac_f1=jac, jac_f2=jac)

    def banned(*args):  # pragma: no cover - must not run
        raise AssertionError("factored a Jacobian of another shape")

    monkeypatch.setattr(rosevent.linalg, "lu_factor", banned)
    # integrate adds the context of the step that failed
    for cfg in (IntegratorConfig(tau=0.1, t_end=1.0),
                IntegratorConfig(tau=0.1, t_end=1.0, guard_mode=GuardMode.ROS2_DENSE),
                IntegratorConfig(tau=0.1, t_end=1.0, method=ROS1)):
        with pytest.raises(ValueError,
                           match=f"^{re.escape(message + ' (step 0, t = 0, field 1)')}$"):
            integrate(problem, np.array([0.0, 0.0]), cfg)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        field_jacobian(problem, 1, [0.0, 0.0])


def test_a_field_value_of_another_length_fails_the_guards_and_the_classifier():
    # the guards and the classifier get eval_field's checked floats, so a
    # value of 3 entries on 2 states fails its length check, not a matmul
    problem = PiecewiseProblem(dim=2, f1=lambda u: np.ones(3), f2=lambda u: np.ones(3),
                               surface=Surface([1.0, 0.0], 0.0),
                               jac_f1=lambda u: np.zeros((2, 2)))
    message = "^matrix is 2x2 but b has length 3$"
    with pytest.raises(ValueError, match=message):
        guard_ros1_general(problem, [-0.5, 0.0], 0.1)
    with pytest.raises(ValueError, match=message):
        guard_ros1_orthogonal(problem, [-0.5, 0.0], 0.1)
    with pytest.raises(ValueError, match=message):
        classify_general(problem, [0.0, 0.0])

"""Problem containers, counters, slow/fast flattening, builtin registry."""

import math
import re
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosevent.errors import DomainViolation, ResidualTooLarge
from rosevent.filippov import filippov_coeffs
from rosevent.problems import (
    Affine,
    PiecewiseProblem,
    SppProblem,
    Surface,
    affine_problem,
    affine_spp,
    builtin,
    eval_field,
    field_jacobian,
    h_gradient,
    h_hessian,
    problem_names,
    reduced_order_model,
    spp_flatten,
)


def test_eval_field_counts_and_validates():
    p = builtin("tent")
    npt.assert_array_equal(eval_field(p, 1, np.array([0.0])), [1.0])
    npt.assert_array_equal(eval_field(p, 2, np.array([0.0])), [-1.0])
    assert p.counters.f_evals == {1: 1, 2: 1}
    with pytest.raises(ValueError):
        eval_field(p, 3, np.array([0.0]))


def test_najafi_domain_violation_counted():
    p = builtin("najafi")
    ok = eval_field(p, 1, np.array([1.0, 0.96]))
    npt.assert_allclose(ok, [0.2, 1.0], rtol=0, atol=1e-15)
    with pytest.raises(DomainViolation):
        eval_field(p, 1, np.array([1.0, 1.5]))
    assert p.counters.domain_violations == {1: 1, 2: 0}
    assert p.counters.f_evals == {1: 1, 2: 0}
    # the post-switch field has no domain restriction
    npt.assert_array_equal(eval_field(p, 2, np.array([1.0, 1.5])), [0.0, 1.0])


def test_najafi_jacobian_refuses_past_switch():
    p = builtin("najafi")
    J = field_jacobian(p, 1, np.array([2.0, 0.75]))
    npt.assert_allclose(J, [[0.5, -2.0], [0.0, 0.0]], rtol=0, atol=1e-15)
    with pytest.raises(DomainViolation):
        field_jacobian(p, 1, np.array([2.0, 1.0]))


def test_h_gradient_hessian_analytic_or_fd():
    p = builtin("tent")
    npt.assert_array_equal(h_gradient(p, np.array([0.3])), [1.0])
    npt.assert_array_equal(h_hessian(p, np.array([0.3])), [[0.0]])


def test_spp_flatten_kowalczyk_fields():
    spp = builtin("kowalczyk", eps=2.0**-7)
    flat = spp_flatten(spp)
    assert flat.dim == 2
    assert flat.source_spp is spp
    u = np.array([0.5, -0.25])
    # slow block +-1, fast block (y - z)/eps = 0.75 * 128 exactly
    npt.assert_array_equal(eval_field(flat, 1, u), [1.0, 96.0])
    npt.assert_array_equal(eval_field(flat, 2, u), [-1.0, 96.0])
    npt.assert_array_equal(h_gradient(flat, u), [-0.9, 1.9])
    npt.assert_allclose(flat.h(u), -0.9 * 0.5 + 1.9 * -0.25, rtol=0, atol=0)
    npt.assert_array_equal(flat.x0, [1.0, 0.0])


def test_spp_flatten_slow_block_bit_equal():
    spp = builtin("teixeira", eps=1e-3)
    flat = spp_flatten(spp)
    u = np.array([0.37, -1.12, 0.185])
    npt.assert_array_equal(eval_field(flat, 1, u)[:2], spp.stacked.f1(u)[:2])
    npt.assert_array_equal(eval_field(flat, 2, u)[:2], spp.stacked.f2(u)[:2])


def test_spp_flatten_jacobian_stacks_fast_rows():
    spp = builtin("kowalczyk", eps=1e-2)
    flat = spp_flatten(spp)
    J = field_jacobian(flat, 1, np.array([0.4, -0.2]))
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


def test_spp_flatten_gives_the_flat_problem_its_own_counters():
    for spp in (builtin("kowalczyk"), stacked(reference_kowalczyk(-0.9, 1e-2))):
        flat = spp_flatten(spp)
        eval_field(flat, 1, np.array([0.5, 0.25]))
        assert flat.counters is not spp.stacked.counters
        assert flat.counters.f_evals == {1: 1, 2: 0}
        assert spp.stacked.counters.f_evals == {1: 0, 2: 0}


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
    npt.assert_array_equal(eval_field(flat, 1, u), [0.5, 4.0])
    npt.assert_array_equal(eval_field(flat, 2, u), [1.0, 4.0])
    npt.assert_array_equal(field_jacobian(flat, 1, u), [[0.0, 1.0], [4.0, -4.0]])
    assert flat.jac_f2 is None
    assert flat.h is spp.stacked.h and flat.grad_h is spp.stacked.grad_h
    assert flat.domain_f1 is in_domain and flat.domain_f2 is None
    assert flat.affine is None and flat.source_spp is spp
    assert flat.label == "callable/flattened"
    with pytest.raises(DomainViolation):
        eval_field(flat, 1, np.array([2.5, 0.0]))


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
    npt.assert_array_equal(eval_field(red, 1, np.array([0.7])), [1.0])
    # h on the manifold collapses to x itself: -0.9 x + 1.9 x = x
    npt.assert_allclose(red.h(np.array([0.7])), 0.7, rtol=1e-15, atol=0)


def test_reduced_model_rejects_bad_manifold():
    spp = builtin("kowalczyk", eps=1e-2)
    red = reduced_order_model(spp, lambda y: np.zeros(1))  # g(1, 0) = 1
    with pytest.raises(ResidualTooLarge):
        eval_field(red, 1, np.array([1.0]))


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
        hess_h=lambda u: np.zeros((1, 1)),
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
        hess_h=lambda u: np.zeros((1, 1)),
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
        hess_h=lambda u: np.zeros((2, 2)),
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
        hess_h=lambda u: np.zeros((3, 3)),
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
        hess_h=lambda u: np.zeros((3, 3)),
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
        hess_h=ref.hess_h,
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
        assert_within_ulps(eval_field(derived, which, x), eval_field(reference, which, x),
                           term_scale(A, b, x))
        J = field_jacobian(derived, which, x)
        assert_within_ulps(J, field_jacobian(reference, which, x), np.abs(J))
    assert_within_ulps(derived.h(x), reference.h(x), np.abs(aff.n) @ np.abs(x) + abs(aff.c))
    assert_within_ulps(h_gradient(derived, x), h_gradient(reference, x), np.abs(aff.n))
    npt.assert_array_equal(h_hessian(derived, x), h_hessian(reference, x))


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
        npt.assert_array_equal(eval_field(red, which, y), f(y, g0(y)))


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
    x = np.array([0.3, -0.2, 0.1])
    for name in ("tent", "linear_test", "kowalczyk", "teixeira", "ostermann_modified"):
        spec = builtin(name)
        problem = spp_flatten(spec) if isinstance(spec, SppProblem) else spec
        u = x[: problem.dim]
        for J in (field_jacobian(problem, 1, u), field_jacobian(problem, 2, u),
                  h_gradient(problem, u), h_hessian(problem, u)):
            with pytest.raises(ValueError, match="read-only"):
                J[0] = 1.0
        if isinstance(spec, SppProblem):
            for J in (field_jacobian(spec.stacked, 1, u), h_gradient(spec.stacked, u)):
                with pytest.raises(ValueError, match="read-only"):
                    J[0] = 1.0


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
    npt.assert_array_equal(eval_field(problem, 2, np.array([2.0, 3.0])), [4.0, -2.0])
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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4))
def test_a_declared_surface_gives_h_and_its_derivatives(data, dim):
    fin = st.floats(-1e3, 1e3)
    n = np.array([data.draw(fin) for _ in range(dim)])
    c = data.draw(fin)
    x = np.array([data.draw(fin) for _ in range(dim)])
    problem = PiecewiseProblem(dim=dim, f1=lambda u: u, f2=lambda u: -u,
                               surface=Surface(n, c))
    if np.count_nonzero(n) == 1 and n[np.flatnonzero(n)[0]] == 1.0:
        # a unit normal e_i: h = x[i] + c, one operation
        assert problem.h(x) == x[np.flatnonzero(n)[0]] + c
    else:
        assert problem.h(x) == float(n @ x) + c
    npt.assert_array_equal(h_gradient(problem, x), n)
    npt.assert_array_equal(h_hessian(problem, x), np.zeros((dim, dim)))


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

"""The float step kernel against the numpy formulas it replaced, against
the element loops the generated kernel replaced, its inline solves against
linalg.lu_solve, and the errors a bad field value raises on every step
path."""

import math
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rosevent import linalg, rosenbrock
from rosevent.errors import NonFiniteState, SingularMatrix
from rosevent.events import IntegratorConfig, integrate
from rosevent.onesided import GuardMode, guarded_ros2_step
from rosevent.problems import (
    Affine,
    PiecewiseProblem,
    Surface,
    affine_problem,
    builtin,
    eval_field,
    spp_flatten,
)
from rosevent.rosenbrock import (
    ROS1,
    ROS2,
    dense_derivative,
    dense_eval,
    kernel,
    kernel_pair,
    kernel_slopes,
    ros1_step,
    ros2_finish,
    ros2_step,
    step_matrix,
)

# --- the numpy reference: the step and dense formulas as numpy array
# expressions, one operation at a time, as rosenbrock computed them before
# its arithmetic moved to Python floats ------------------------------------


def array_field(problem, which):
    """problems.eval_field as a public step's field: the float array the
    step hands it, as the floats eval_field takes."""
    return lambda x: eval_field(problem, which, x.tolist())


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
    gamma = rosenbrock.GAMMA_ROS2
    c = 1.0 / (2.0 * (1.0 - 2.0 * gamma))
    b1 = theta * (theta + (2.0 - 6.0 * gamma))
    b2 = theta * (theta - 2.0 * gamma)
    return step.x0 + (c * b1) * step.k1 + (c * b2) * step.k2


def reference_dense_derivative(step, theta):
    if step.stages == 1:
        return step.k1.copy()
    gamma = rosenbrock.GAMMA_ROS2
    c = 1.0 / (2.0 * (1.0 - 2.0 * gamma))
    db1 = 2.0 * theta + (2.0 - 6.0 * gamma)
    db2 = 2.0 * theta - 2.0 * gamma
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
                STEPPERS[method.stages](field, x0, tau, A)
            return
        step = STEPPERS[method.stages](field, x0, tau, A)
        assert same_bits(step.k1, k1)
        assert (step.k2 is None) if k2 is None else same_bits(step.k2, k2)
        assert same_bits(step.x1, x1)
        for th in (0.0, theta, 1.0):
            assert same_bits(dense_eval(step, th), reference_dense_eval(step, th))
            assert same_bits(dense_derivative(step, th), reference_dense_derivative(step, th))


@settings(max_examples=300, deadline=None)
@given(case=affine_cases(), normal=st.lists(entry, min_size=4, max_size=4))
def test_a_steps_slopes_are_its_own_derivative_along_n(case, normal):
    # (m1, m2) of kernel_slopes against n . dX1/dtheta from the step's own
    # derivative, at theta = 0 (m1) and theta = 1 (m1 + m2). Both round the
    # exact c*((2*theta + b1)*n.k1 + (2*theta - b2)*n.k2) with the dense
    # output's float constants: each by a few unit roundoffs of the terms'
    # magnitudes (fsum's two dot products, then at most four operations;
    # the derivative's two weights, two products and a sum per entry), so
    # 8*eps of scale below bounds their distance, plus the absolute step of
    # subnormal numbers. A step whose gamma disagreed with the slopes'
    # constants was off by a fraction of scale itself.
    A, b, x0, tau, method, factors = case
    n = len(b)
    normal = normal[:n]
    x0f = x0.tolist()
    rows = A.tolist()

    def field(x):
        return (A @ np.array(x) + b).tolist()

    try:
        with np.errstate(all="ignore"):
            step = kernel(method.stages, n)(field, x0f, field(x0f), tau, rows, factors)
    except ValueError:
        assume(False)
    m1, m2 = step.slopes(normal)
    k2 = step.k2f or [0.0] * n
    a = sum(abs(v * k) for v, k in zip(normal, step.k1f))
    d = sum(abs(v * k) for v, k in zip(normal, k2))
    if method.stages == 1:
        scale = a
    else:
        scale = rosenbrock.C_ROS2 * ((abs(rosenbrock._B1) + 2.0) * a
                                     + (abs(rosenbrock._B2) + 2.0) * d)
    bound = 8.0 * np.finfo(float).eps * scale + 64 * math.ulp(0.0)
    for theta, m in ((0.0, m1), (1.0, m1 + m2)):
        along = sum(Fraction(v) * Fraction(w)
                    for v, w in zip(normal, step.derivative(theta).tolist()))
        assert abs(Fraction(m) - along) <= bound, (theta, m, float(along), bound)


@settings(max_examples=100, deadline=None)
@given(case=affine_cases())
def test_integrate_takes_the_standalone_step(case):
    A, b, x0, tau, method, _ = case
    # h = -1 everywhere: no surface, so a run to t_end = tau is one plain step
    problem = affine_problem(Affine(A, b, A, b, np.zeros(len(b)), -1.0))
    with np.errstate(all="ignore"):
        try:
            alone = STEPPERS[method.stages](array_field(problem, 1), x0, tau, A)
        except ValueError:
            assume(False)
        result = integrate(problem, x0, IntegratorConfig(tau=tau, t_end=tau, method=method))
    assert result.stats.steps == 1
    t1, x1 = result.mesh[1]
    assert t1 == tau
    assert same_bits(x1, alone.x1)


# --- the loop oracle: the kernel's arithmetic as element loops over Python
# floats, as rosenbrock.stage1 and rosenbrock.finish computed it before the
# kernel was generated per method and size; the bodies are those functions'
# own, only the step record they built is returned as (k2, x1) -------------


def loop_stage1(factors, fx0, tau):
    return linalg.lu_solve(factors, [tau * f for f in fx0])


def loop_finish(field, x0, tau, factors, k1):
    x0f = x0.tolist()
    if field is None:
        k2 = None
        x1 = [x + a for x, a in zip(x0f, k1)]
    else:
        f_inner = field(list(map(operator.add, x0f, k1)))
        k2 = linalg.lu_solve(factors, [tau * f - 2.0 * a for f, a in zip(f_inner, k1)])
        x1 = [x + 1.5 * a + 0.5 * b for x, a, b in zip(x0f, k1, k2)]
    if not all(map(math.isfinite, x1)):
        raise NonFiniteState(f"the step's end state is not finite: x1 = {x1}")
    return k2, x1


def outcome(run):
    """run()'s result, or the type and message of what it raised."""
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


def floats_bytes(v):
    return None if v is None else np.array(v, dtype=float).tobytes()


# finite floats of every scale: signed zeros, subnormals and huge values
wide = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                     1e300, -1e308, 1.7976931348623157e308]),
)


@st.composite
def wide_cases(draw):
    """A method, n = 1..4, an affine field A x + b on Python floats, a state,
    a step size and packed LU factors, entries of every scale. The kernel
    takes the factors as given, so they are drawn directly (L's entries,
    U's with a nonzero diagonal, any row permutation): a solve may then
    overflow and take lu_solve's scaled path, or fail its finiteness check."""
    n = draw(st.integers(1, 4))
    A = np.array(draw(st.lists(wide, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = draw(st.lists(wide, min_size=n, max_size=n))
    x0 = np.array(draw(st.lists(wide, min_size=n, max_size=n)))
    tau = draw(st.one_of(st.floats(1e-4, 1.0), st.sampled_from([5e-324, 1e-300, 1e300])))
    method = draw(st.sampled_from([ROS1, ROS2]))
    combined = [[draw(wide.filter(bool) if i == j else wide) for j in range(n)]
                for i in range(n)]
    factors = linalg.LuFactors(combined, draw(st.permutations(range(n))))
    rows = A.tolist()

    def field(x):  # A x + b, each row summed left to right
        return [sum(map(operator.mul, row, x)) + bi for row, bi in zip(rows, b)]

    return method, A, field, x0, tau, factors


@settings(max_examples=400, deadline=None)
@given(case=wide_cases())
def test_the_generated_kernel_is_the_element_loops_bit_for_bit(case):
    method, A, field, x0, tau, factors = case
    stage1, finish = kernel_pair(method.stages, x0.shape[0])
    fx0 = field(x0.tolist())
    k1 = outcome(lambda: stage1(factors, fx0, tau))
    want = outcome(lambda: loop_stage1(factors, fx0, tau))
    if type(k1) is not list:  # a ValueError, with the loops' type and message
        assert k1 == want
        return
    assert floats_bytes(k1) == floats_bytes(want)
    two = field if method.stages == 2 else None
    x0f = x0.tolist()
    step = outcome(lambda: finish(two, x0f, tau, A, factors, k1))
    want = outcome(lambda: loop_finish(two, x0, tau, factors, k1))
    if isinstance(step, tuple):  # a ValueError, with the loops' type and message
        assert step == want
        return
    k2, x1 = want
    assert floats_bytes(step.k1f) == floats_bytes(k1)
    assert floats_bytes(step.k2f) == floats_bytes(k2)
    assert floats_bytes(step.x1f) == floats_bytes(x1) == step.x1.tobytes()
    # the step holds the floats it was handed and builds x0's array of them
    assert step.x0f is x0f and step.x0.tobytes() == x0.tobytes() and step.J is A
    assert (step.tau, step.stages) == (tau, method.stages)


def step_bits(o):
    """An outcome as comparable bits: a list's bytes, a step's k1, k2 and x1
    (floats and array), or the type and message of what was raised."""
    if type(o) is list:
        return floats_bytes(o)
    if isinstance(o, tuple):
        return o
    return floats_bytes(o.k1f), floats_bytes(o.k2f), floats_bytes(o.x1f), o.x1.tobytes()


# a right-hand side entry to spoil: where (f(x0) or f at the stage), which
# entry, and with what
spoil = st.one_of(st.none(), st.tuples(st.sampled_from(["x0", "stage"]), st.integers(0, 3),
                                       st.sampled_from([math.nan, math.inf, -math.inf])))


@settings(max_examples=400, deadline=None)
@given(case=wide_cases(), spoilt=spoil)
def test_the_kernel_solves_are_lu_solve_bit_for_bit(case, spoilt):
    # the substitution inline in the kernel against linalg.lu_solve on the
    # same factors and right-hand sides: drawn factors pivot, and entries
    # of every scale give signed zeros, subnormals, products that overflow
    # (lu_solve's scaled solve) and right-hand sides that are not finite
    # (its ValueError); the fused step is finish(stage1(...)) throughout
    method, A, field, x0, tau, factors = case
    n = x0.shape[0]
    (stage1, finish), step_fn = kernel_pair(method.stages, n), kernel(method.stages, n)
    x0f = x0.tolist()
    fx0 = field(x0f)
    two = field if method.stages == 2 else None
    if spoilt is not None:
        where, i, bad = spoilt
        if where == "x0":
            fx0[i % n] = bad
        elif two is not None:
            def two(x):
                value = field(x)
                value[i % n] = bad
                return value
    k1 = outcome(lambda: stage1(factors, fx0, tau))
    assert step_bits(k1) == step_bits(outcome(
        lambda: linalg.lu_solve(factors, [tau * f for f in fx0])))
    step = outcome(lambda: step_fn(two, x0f, fx0, tau, A, factors))
    if type(k1) is not list:
        assert step == k1
        return
    want = outcome(lambda: finish(two, x0f, tau, A, factors, k1))
    assert step_bits(step) == step_bits(want)
    if two is not None:
        f_inner = two([x + a for x, a in zip(x0f, k1)])
        k2 = outcome(lambda: linalg.lu_solve(factors, [tau * f - 2.0 * a
                                                       for f, a in zip(f_inner, k1)]))
        if type(k2) is not list:
            assert want == k2
        elif not isinstance(want, tuple):
            assert floats_bytes(want.k2f) == floats_bytes(k2)


@pytest.mark.parametrize("stages, n", [(3, 2), (0, 2), (2, 0), (1, -1), (2, 2.0), (2, "2")])
def test_a_kernel_is_made_for_one_or_two_stages_on_some_states(stages, n):
    kernel(2, 2), kernel_slopes(2, 2)  # made, so a key equal to them must not find them
    for unit in (kernel, kernel_pair, kernel_slopes):
        with pytest.raises(ValueError, match=f"^no step kernel for {stages} stages on {n} states"):
            unit(stages, n)


def test_factors_of_another_size_fail_the_solve_length_check(counting):
    # the kernel checks nothing: the public entries that take a caller's J
    # or factors refuse another size where it enters, with lu_solve's length
    # message, before the field is evaluated
    factors = linalg.lu_factor(np.eye(3))
    x0, J = np.array([0.5, 0.5]), np.eye(2)
    handed = []

    def field(x):
        handed.append(x)
        return -x

    message = "^matrix is 3x3 but b has length 2$"
    with pytest.raises(ValueError, match=message):
        ros2_finish(field, x0, 0.1, J, factors, [0.0, 0.0])
    # a J of another size, which the step factors itself
    for step_fn in (ros1_step, ros2_step):
        with pytest.raises(ValueError, match=message):
            step_fn(field, x0, 0.1, np.eye(3))
    zero = np.zeros((2, 2))
    problem = affine_problem(Affine(zero, [1.0, 0.0], zero, [-1.0, 0.0], [1.0, 0.0], -1.0))
    with counting() as stats, pytest.raises(ValueError, match=message):
        guarded_ros2_step(problem, x0, 0.1, np.eye(3))
    assert handed == [] and stats.f_evals == {1: 0, 2: 0}


def _ill_scaled_factors():
    # L = I and U = [[1, 1e308], [0, 1]], which lu_factor calls singular at
    # its row scale: solving for b = (1.5e308, 2) forms 1.5e308 - 1e308*2,
    # whose product overflows though x[0] = -0.5e308 is finite
    factors = linalg.LuFactors([[1.0, 1e308], [0.0, 1.0]], [0, 1])
    substitute = linalg.generated(linalg._substitution_source, 2)
    assert not math.isfinite(substitute(factors.combined, factors.pivots, [1.5e308, 2.0])[0])
    return factors


def test_a_first_stage_whose_substitution_overflows_takes_the_scaled_solve():
    factors = _ill_scaled_factors()
    k1 = kernel_pair(2, 2)[0](factors, [1.5e308, 2.0], 1.0)
    assert floats_bytes(k1) == floats_bytes(loop_stage1(factors, [1.5e308, 2.0], 1.0))
    assert floats_bytes(k1) == floats_bytes(linalg.lu_solve(factors, [1.5e308, 2.0]))
    assert all(map(math.isfinite, k1)) and k1[0] < -1e307
    # the fused step solves its first stage the same way
    step = kernel(1, 2)(None, [1.0, 1.0], [1.5e308, 2.0], 1.0, np.eye(2), factors)
    assert floats_bytes(step.k1f) == floats_bytes(k1)
    assert step_bits(step) == step_bits(kernel_pair(1, 2)[1](None, [1.0, 1.0], 1.0,
                                                             np.eye(2), factors, k1))


def test_a_second_stage_whose_substitution_overflows_takes_the_scaled_solve():
    factors = _ill_scaled_factors()
    x0 = np.array([1.0, 1.0])
    k1 = [0.0, 0.0]

    def field(x):  # tau*f - 2*k1 is (1.5e308, 2) at tau = 1
        return [1.5e308, 2.0]

    step = kernel_pair(2, 2)[1](field, x0.tolist(), 1.0, np.eye(2), factors, k1)
    k2, x1 = loop_finish(field, x0, 1.0, factors, k1)
    assert floats_bytes(step.k2f) == floats_bytes(k2)
    assert floats_bytes(k2) == floats_bytes(linalg.lu_solve(factors, [1.5e308, 2.0]))
    assert floats_bytes(step.x1f) == floats_bytes(x1)
    # the fused step from f(x0) = 0, whose first stage is k1 = 0
    fused = kernel(2, 2)(field, x0.tolist(), [0.0, 0.0], 1.0, np.eye(2), factors)
    assert step_bits(fused) == step_bits(step)


@pytest.mark.parametrize("method", [ROS1, ROS2], ids=["ros1", "ros2"])
def test_an_end_state_that_overflows_raises_nonfinite_state(method):
    # J = 0 and tau = 1 from x0 = 1.5e308: k1 = f(x0) = 4e307 and k2 =
    # f(x0 + k1) - 2*k1 = 2e307, so x1 rounds to inf for either method
    factors = linalg.lu_factor([[1.0]])
    x0 = np.array([1.5e308])
    stage1, finish = kernel_pair(method.stages, 1)
    k1 = stage1(factors, [4e307], 1.0)
    field = (lambda x: [1e308]) if method.stages == 2 else None
    with pytest.raises(NonFiniteState) as got:
        finish(field, x0.tolist(), 1.0, np.zeros((1, 1)), factors, k1)
    with pytest.raises(NonFiniteState) as want:
        loop_finish(field, x0, 1.0, factors, k1)
    assert str(got.value) == str(want.value) == "the step's end state is not finite: x1 = [inf]"


def test_a_right_hand_side_that_is_not_finite_fails_the_solve():
    factors = linalg.lu_factor([[1.0]])
    stage1, finish = kernel_pair(2, 1)
    # tau*f(x0) overflows
    with pytest.raises(ValueError, match="^vector entries must be finite$") as exc:
        stage1(factors, [1e308], 10.0)
    assert type(exc.value) is ValueError
    # tau*f(x0 + k1) overflows
    with pytest.raises(ValueError, match="^vector entries must be finite$") as exc:
        finish(lambda x: [1e308], [0.0], 10.0, np.zeros((1, 1)), factors, [0.0])
    assert type(exc.value) is ValueError
    # the fused step, at either stage
    for fx0, inner in (([1e308], [0.0]), ([0.0], [1e308])):
        with pytest.raises(ValueError, match="^vector entries must be finite$") as exc:
            kernel(2, 1)(lambda x: inner, [0.0], fx0, 10.0, np.zeros((1, 1)), factors)
        assert type(exc.value) is ValueError


def test_each_kernel_is_generated_once():
    assert kernel(2, 3) is kernel(2, 3)
    assert kernel(1, 3) is not kernel(2, 3)


def test_a_run_generates_only_the_kernel_units_it_calls(monkeypatch):
    # from an empty cache, an unguarded run compiles the step alone; only
    # a run that splits a step at its first stage, the dense-guarded one,
    # compiles the (stage1, finish) pair
    monkeypatch.setattr(linalg, "_GENERATED", {})

    def units():
        return {key for emit, key in linalg._GENERATED if emit is rosenbrock._kernel_source}

    flat = spp_flatten(builtin("kowalczyk"))
    integrate(flat, flat.x0, IntegratorConfig(tau=1e-2, t_end=0.5))
    assert units() == {("step", 2, 2)}
    najafi = builtin("najafi")
    integrate(najafi, najafi.x0, IntegratorConfig(tau=0.1, t_end=1.5,
                                                  guard_mode=GuardMode.ROS2_DENSE))
    assert units() == {("step", 2, 2), ("pair", 2, 2)}


def test_ros2_finish_rejects_a_first_stage_of_another_length():
    J = -np.eye(2)
    factors = linalg.lu_factor(step_matrix(J, 0.1, ROS2.gamma))
    with pytest.raises(ValueError, match=re.escape("k1 has shape (1,) but x0 has shape (2,)")):
        ros2_finish(lambda x: J @ x, np.ones(2), 0.1, J, factors, np.ones(1))


# --- the error contract: a bad field value fails the step that reads it -----

X0 = np.array([1.0, 1.0])


def problem_with_field_1(value_at):
    """Linear field 2 and an analytic Jacobian; the declared surface
    h = x[0] - 10 keeps every run in region 1, where field 1 is
    value_at(x)."""
    return PiecewiseProblem(
        dim=2, f1=value_at, f2=lambda x: -x, surface=Surface([1.0, 0.0], -10.0),
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
# the context integrate adds to an error of its first step
AT_THE_FIRST_STEP = " (step 0, t = 0, field 1)"


@pytest.mark.parametrize("method, guard", STEP_PATHS)
@pytest.mark.parametrize("bad, message", BAD_VALUES)
def test_a_bad_field_value_fails_integrate(method, guard, bad, message):
    # the check's message, with the context of the step that failed
    problem = problem_with_field_1(lambda x: bad)
    cfg = IntegratorConfig(tau=0.1, t_end=1.0, method=method, guard_mode=guard)
    with pytest.raises(ValueError, match=f"^{re.escape(message + AT_THE_FIRST_STEP)}$"):
        integrate(problem, X0, cfg)


@pytest.mark.parametrize("method, guard", STEP_PATHS[:2])
@pytest.mark.parametrize("bad, message", BAD_VALUES)
def test_a_bad_value_at_the_inner_stage_fails_integrate(method, guard, bad, message):
    # finite and of the right length at x0, so only the second stage's
    # check can catch it
    problem = problem_with_field_1(lambda x: -x if np.array_equal(x, X0) else bad)
    cfg = IntegratorConfig(tau=0.1, t_end=1.0, method=method, guard_mode=guard)
    with pytest.raises(ValueError, match=f"^{re.escape(message + AT_THE_FIRST_STEP)}$"):
        integrate(problem, X0, cfg)

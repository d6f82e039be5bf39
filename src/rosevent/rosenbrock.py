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
itself. J may be any matrix W in place of the Jacobian: x1 keeps order 2
for every W (a W-method), which lets events.integrate keep a
finite-difference J over several steps; the dense output's interior then
carries an error term in W - J (see events). The dense output

    X1(theta) = x0 + c*b1(theta)*k1 + c*b2(theta)*k2,   c = 1/(2*(1-2*gamma))
    b1(theta) = theta^2 + (2 - 6*gamma)*theta
    b2(theta) = theta^2 - 2*gamma*theta

interpolates x0 at theta = 0 and x1 at theta = 1 and carries the order of
the method, so events can be located inside a step without extra field
evaluations or linear solves. The one-stage dense output is the chord
X1(theta) = x0 + theta*k1. Both are polynomials in theta, so an affine
h = n.x + c along them is a polynomial too: RosenbrockStep.slopes forms its
coefficients from n.k1 and n.k2, for event location, even-count detection
and the exact dense guard.

The step kernel is public, unchecked and runs on Python floats: factor
(the step matrix's LU factors) and kernel(stages, n), whose stage1 (k1),
finish (k2, x1 and the RosenbrockStep) and step (the two fused) are
straight-line code generated once per method and system size
(_kernel_source): b = tau*f(x0), the substitution that solves for k1, the
stage state x0 + k1, f there, the k2 right-hand side, its substitution and
x1 as one expression per entry, no loop. Every step path runs it: the
public steps here (ros1_step and ros2_step call step, ros2_finish finish,
and restep them), the driver's one step path in events.integrate (which
binds step once per run), and the guarded step and each of its case-1b
trials (onesided), which call stage1 and finish, where the guarded step
hands finish the k1 whose stage it has checked. The step holds each stage
once, as those floats (k1 and k2 are arrays built when read), and x1 as
floats beside its array, which the driver's next step starts from; it is
its own dense output: dense_eval, dense_derivative, event location and the
dense guard all read its value, derivative and slopes. Its value has one
formula, on floats (value_floats, which location hands a declared h);
value is its array. The kernel does the IEEE operations of the array
formulas above in the same order, and numpy's elementwise operations do
not fuse, so the results equal the array expressions bit for bit. Each
solve is linalg.lu_solve's substitution (linalg._substitution_lines),
written into the kernel on the factors' entries unpacked into locals: the
bits of lu_solve without a call. Where the solution is not finite, and
lu_solve would do more than substitute, the kernel hands it the same
right-hand side (see Kernel), so the bits and the errors stay lu_solve's;
an outside wrapper on lu_solve sees only those calls, and one on kernel,
installed before the run, sees every step. The step matrix is built as
float rows (_step_rows, generated once per system size, one expression per
entry) and factored by linalg.lu_factor as they are, whose elimination is
generated the same way; step_matrix is the same rows as an array.
The kernel re-checks nothing; each input is checked once, where it enters.
The state: x0 by integrate at its entry, or by the public step functions
here (as_vector), and x1 where finish makes it (NonFiniteState, a
ValueError, when an entry overflowed). Each field value's shape and length:
linalg.as_floats, which problems.eval_field (every field of the driver and
the guarded step) and the public step functions apply. J's shape and size:
problems.field_jacobian, which gives every J of the driver and the guarded
step as n rows of n floats, and the public entries that take a caller's J
or factors (ros1_step, ros2_step, ros2_finish and
onesided.guarded_ros2_step), which refuse another size before any field
evaluation; the kernel, factor and onesided.resolve_case_1b check neither.
The step matrix's finiteness by lu_factor, and each
right-hand side's finiteness, tau*f(x0) and tau*f(x0 + k1) - 2*k1, by
linalg.lu_solve ("vector entries must be finite"), to which the kernel
hands any right-hand side whose solution is not finite.

The kernel's field takes a list of floats and returns floats: finish and
step hand it the stage state x0 + k1 as floats. The driver and the guarded
step hand every field x0's floats too, through problems.eval_field, which
runs a float-form field (problems.FloatField: the float-row fields of a
declared affine problem, and najafi's) on them as they are and gives any
other field one float array built from them. So a step of a float-form
field makes no numpy call for a field value. J has one form as well:
problems.field_jacobian on x0's floats gives n rows of n floats, whatever
the Jacobian's kind, which the step factors as they are and holds. h,
too, takes floats where the surface
is declared (problems.Surface): the driver hands it the floats of each
step's x1, and the guarded step and its case-1b trials those of their
stage state x0 + k1, while any other h gets float arrays. The public steps
here give a caller's field an array built from the stage's floats
(_checked), take J as an array and factor its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .errors import NonFiniteState

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


class RosenbrockStep:
    """One accepted step: inputs, stages, endpoint, and its dense output.

    Treated as immutable; dense evaluation, location, the guards and
    re-stepping read from it without modifying it. x0f, k1f, k2f and x1f
    hold x0, k1, k2 and x1 as the Python floats the kernel computed with,
    which the dense output reads and the driver's next step starts from;
    k2f is None for one-stage steps. The stages are held only as those
    floats: k1 and k2 are arrays built when read. jac is the Jacobian as the
    step was given it: on the driver's and the guarded step's path the rows
    of floats problems.field_jacobian gave (a continuing step holds the
    last step's rows object itself), on the public steps here the array
    they were given. J reads it as a float array, that array itself or one
    built from the rows when read.
    """

    __slots__ = ("x0", "x0f", "tau", "jac", "gamma", "c", "k1f", "k2f", "x1f", "x1", "stages")

    def __init__(self, x0: np.ndarray, x0f: list, tau: float, jac, gamma: float,
                 k1f: list, k2f: list | None, x1f: list, x1: np.ndarray):
        self.x0 = x0
        self.x0f = x0f
        self.tau = tau
        self.jac = jac
        self.gamma = gamma
        self.c = 1.0 / (2.0 * (1.0 - 2.0 * gamma))
        self.k1f = k1f
        self.k2f = k2f
        self.x1f = x1f
        self.x1 = x1
        self.stages = 1 if k2f is None else 2

    @property
    def J(self) -> np.ndarray:
        jac = self.jac
        return np.array(jac) if type(jac) is list else jac

    @property
    def k1(self) -> np.ndarray:
        return np.array(self.k1f)

    @property
    def k2(self) -> np.ndarray | None:
        return None if self.k2f is None else np.array(self.k2f)

    def value_floats(self, theta: float) -> list:
        """X1(theta) as Python floats, theta unchecked: the formula of the
        module docstring, operation for operation. At theta = 0 it is x0f
        itself, which the caller must not modify."""
        if theta == 0.0:
            return self.x0f
        if self.stages == 1:
            return [x + theta * a for x, a in zip(self.x0f, self.k1f)]
        w1 = self.c * (theta * (theta + (2.0 - 6.0 * self.gamma)))
        w2 = self.c * (theta * (theta - 2.0 * self.gamma))
        return [x + w1 * a + w2 * b for x, a, b in zip(self.x0f, self.k1f, self.k2f)]

    def value(self, theta: float) -> np.ndarray:
        """X1(theta), theta unchecked: x0 itself at theta = 0, else the
        array of value_floats(theta)."""
        return self.x0 if theta == 0.0 else np.array(self.value_floats(theta))

    def derivative(self, theta: float) -> np.ndarray:
        """dX1/dtheta at theta, unchecked."""
        if self.stages == 1:
            return np.array(self.k1f)
        w1 = self.c * (2.0 * theta + (2.0 - 6.0 * self.gamma))
        w2 = self.c * (2.0 * theta - 2.0 * self.gamma)
        return np.array([w1 * a + w2 * b for a, b in zip(self.k1f, self.k2f)])

    def slopes(self, n) -> tuple:
        """(m1, m2) with n . dX1/dtheta = m1 + theta*m2, from a1 = n.k1 and
        a2 = n.k2 (n a sequence of floats). For an affine h = n.x + c the
        value along the dense output is then the quadratic

            h(X1(theta)) = h(x0) + m1*theta + (m2/2)*theta^2

        exactly: the b1/b2 weights are quadratics in theta. The one-stage
        chord gives a line, m2 = 0. Each dot product is math.fsum of a
        tuple of the products (_dot_source), correctly rounded."""
        dot = _dot(len(n))
        a1 = dot(n, self.k1f)
        if self.stages == 1:
            return a1, 0.0
        a2 = dot(n, self.k2f)
        return (self.c * ((2.0 - 6.0 * self.gamma) * a1 - 2.0 * self.gamma * a2),
                2.0 * self.c * (a1 + a2))


def _dot_source(n: int) -> str:
    """Source of dot(n, k) for size n: fsum of the tuple of the n products
    n_i*k_i, written out."""
    v, k = [f"n{i}" for i in range(n)], [f"k{i}" for i in range(n)]
    return (f"def dot(n, k):\n    [{', '.join(v)}] = n\n    [{', '.join(k)}] = k\n"
            f"    return fsum(({', '.join(f'{a} * {b}' for a, b in zip(v, k))},))\n")


# the dot product of each size, generated on its first use
_DOTS: dict = {}


def _dot(n: int) -> Callable:
    """dot(n, k) of size n (_dot_source), the one slopes forms its a1 and
    a2 with; events.integrate binds it once per run for the even-count
    test and location."""
    return _DOTS.get(n) or linalg.generated(_DOTS, n, _dot_source, "dot", {"fsum": math.fsum})


def _step_rows_source(n: int) -> str:
    """Source of step_rows(J, g) for size n: the rows of I - g*J from J's
    rows of Python floats, one expression per entry, 0.0 - g*J_ij and then
    + 1.0 on the diagonal, the bits of eye(n) - g*J, signed zeros
    included."""
    j = [[f"j{i}_{k}" for k in range(n)] for i in range(n)]
    rows = [[f"0.0 - g * {v}" + (" + 1.0" if i == k else "") for k, v in enumerate(r)]
            for i, r in enumerate(j)]
    return (f"def step_rows(J, g):\n"
            f"    [{', '.join('[' + ', '.join(r) + ']' for r in j)}] = J\n"
            f"    return [{', '.join('[' + ', '.join(r) + ']' for r in rows)}]\n")


# step_rows of each size, generated on its first use
_STEP_ROWS: dict = {}


def _step_rows(J: list, tau: float, gamma: float) -> list:
    # I - gamma*tau*J as Python float rows, J n rows of n Python floats
    # (problems.field_jacobian's form, which checks their shape), taken as
    # they are; lu_factor checks the rows' finiteness
    n = len(J)
    step_rows = _STEP_ROWS.get(n) or linalg.generated(_STEP_ROWS, n, _step_rows_source,
                                                      "step_rows")
    return step_rows(J, gamma * tau)


def step_matrix(J, tau: float, gamma: float) -> np.ndarray:
    """The step matrix I - gamma*tau*J."""
    J = linalg.as_matrix(J)
    return np.array(_step_rows(J.tolist(), tau, gamma)).reshape(J.shape)


def _checked(field, n: int):
    # a caller's field as the kernel takes it: the stage's floats in, as the
    # float array a field is given, and each value out as n floats
    return lambda x: linalg.as_floats(field(np.array(x)), n)


# --- the kernel: Python floats in and out, nothing re-checked ---------------

def factor(J, tau: float, gamma: float) -> linalg.LuFactors:
    """LU factors of the step matrix I - gamma*tau*J, J n rows of n Python
    floats (as problems.field_jacobian gives them), unchecked: the step
    matrix's float rows (_step_rows) through linalg.lu_factor, so an
    outside wrapper on lu_factor sees every factorization of every step
    path."""
    return linalg.lu_factor(_step_rows(J, tau, gamma))


class Kernel(NamedTuple):
    """The stage arithmetic of one method and system size, generated once
    (_kernel_source), unchecked: the factors must be of its size, as the
    public entries check. Each solve substitutes inline on the factors and
    hands its right-hand side to linalg.lu_solve only when the solution's
    first entry is not finite (lu_solve's check and scaled solve):

    stage1(factors, fx0, tau) -> k1, the floats solving
        (I - gamma*tau*J) k1 = tau*f(x0) from f(x0) as floats;
    finish(field, x0, x0f, tau, J, factors, k1) -> RosenbrockStep, the step
        from x0 (a finite float array, x0f its floats) and k1: for two
        stages k2 from field(x0 + k1) and x1 = x0 + 1.5*k1 + 0.5*k2, for
        one x1 = x0 + k1 (field unused). field takes the stage state as a
        list of floats and returns floats, as problems.eval_field does.
        J is kept on the step as given, float rows or an array. Only
        x1 is checked, here where it is made (NonFiniteState);
    step(field, x0, x0f, fx0, tau, J, factors) -> RosenbrockStep, the whole
        step from f(x0) as floats: finish(field, x0, x0f, tau, J, factors,
        stage1(factors, fx0, tau)) bit for bit, with the factors unpacked
        once.
    """

    stage1: Callable
    finish: Callable
    step: Callable


def _kernel_source(key: tuple) -> str:
    """Source of the Kernel of (stages, n): the formulas of the module
    docstring with one expression per entry, the IEEE operations of the
    element loops in the same order, and each solve linalg.lu_solve's
    substitution (linalg._substitution_lines) on the factors unpacked into
    locals. Where lu_solve would do more than return that substitution (a
    non-finite first entry) the right-hand side goes to lu_solve itself,
    for its checks and its scaled solve, so the bits and the errors are
    lu_solve's. Nothing else is checked: factors of another size fail the
    unpacking. x1 is finite exactly when the sum of 0.0*x1_i is 0.0."""
    stages, n = key

    def vec(names):
        return "[" + ", ".join(names) + "]"

    # x0, k1, the stage's f, k2 and x1, entry by entry
    x, a, g, b, y = ([f"{c}{i}" for i in range(n)] for c in "uagby")
    # the factors into locals, once a right-hand side r is formed
    unpack = linalg._factor_lines(n, "factors.combined", "factors.pivots")

    def solve(into, name):
        # name, the solution of r: a non-finite entry of r or of the sweeps
        # reaches the first entry, which sums a product with each, so one
        # test on it stands for lu_solve's checks
        return [*linalg._substitution_lines(n, "r", into),
                f"if 0.0 * {into[0]} == 0.0:",
                f"    {name} = {vec(into)}",
                "else:",
                f"    {vec(into)} = {name} = linalg.lu_solve(factors, r)"]

    first = [f"{vec(g)} = fx0", f"r = {vec(f'tau * {v}' for v in g)}", *unpack,
             *solve(a, "k1")]
    if stages == 1:
        gamma, k2, inner, second = "GAMMA_ROS1", "None", [], []
        ends = [f"{xi} + {ai}" for xi, ai in zip(x, a)]
    else:
        gamma, k2 = "GAMMA_ROS2", "k2"
        inner = [f"{vec(g)} = field({vec(f'{xi} + {ai}' for xi, ai in zip(x, a))})",
                 f"r = {vec(f'tau * {gi} - 2.0 * {ai}' for gi, ai in zip(g, a))}"]
        second = solve(b, "k2")
        ends = [f"{xi} + 1.5 * {ai} + 0.5 * {bi}" for xi, ai, bi in zip(x, a, b)]
    end = [*(f"{yi} = {e}" for yi, e in zip(y, ends)),
           f"x1 = {vec(y)}",
           f"if not {' + '.join(f'0.0 * {yi}' for yi in y)} == 0.0:",
           "    raise NonFiniteState(f\"the step's end state is not finite: x1 = {x1}\")",
           f"return RosenbrockStep(x0, x0f, tau, J, {gamma}, k1, {k2}, x1, array(x1))"]
    functions = {
        "stage1(factors, fx0, tau)": [*first, "return k1"],
        "finish(field, x0, x0f, tau, J, factors, k1)": [
            f"{vec(x)} = x0f", f"{vec(a)} = k1", *inner, *(unpack if second else []), *second,
            *end],
        "step(field, x0, x0f, fx0, tau, J, factors)": [
            *first, f"{vec(x)} = x0f", *inner, *second, *end],
    }
    return "".join(f"def {head}:\n" + "".join(f"    {line}\n" for line in body) + "\n"
                   for head, body in functions.items()) + "kernel = Kernel(stage1, finish, step)\n"


# the Kernel of each (stages, n), generated on its first use
_KERNELS: dict = {}


def _new_kernel(key: tuple) -> Kernel:
    stages, n = key
    if stages not in (1, 2) or n < 1:
        raise ValueError(f"no step kernel for {stages} stages on {n} states "
                         f"(stages must be 1 or 2, n at least 1)")
    return linalg.generated(
        _KERNELS, key, _kernel_source, "kernel",
        {"linalg": linalg, "array": np.array, "NonFiniteState": NonFiniteState,
         "RosenbrockStep": RosenbrockStep, "Kernel": Kernel,
         "GAMMA_ROS1": GAMMA_ROS1, "GAMMA_ROS2": GAMMA_ROS2})


def kernel(stages: int, n: int) -> Kernel:
    """The step kernel of the stages-stage method (1 or 2) on n >= 1
    states; ValueError for any other."""
    key = (stages, n)
    return _KERNELS.get(key) or _new_kernel(key)


def _sized(m: int, n: int) -> None:
    # a caller's J or factors of m states for a state of n: refused where it
    # enters, with lu_solve's length message, as the kernel checks nothing
    if m != n:
        raise ValueError(f"matrix is {m}x{m} but b has length {n}")


def _entry(x0, tau: float, J, gamma: float, factors) -> tuple:
    # the public steps' checks, before any field evaluation: x0 a finite
    # vector, J a square finite matrix when the step factors it, and the
    # factors, given or made, of x0's size
    x0 = linalg.as_vector(x0)
    J = linalg.as_matrix(J) if factors is None else np.asarray(J, dtype=float)
    _sized(len(J) if factors is None else factors.n, x0.shape[0])
    return x0, J, factor(J.tolist(), tau, gamma) if factors is None else factors


def ros1_step(field, x0, tau: float, J, *,
              factors: linalg.LuFactors | None = None) -> RosenbrockStep:
    """Linearly implicit Euler step of size tau with Jacobian J.

    factors, when given, must be the LU factors of I - tau*J; they are used
    as they are, so the step is the one a fresh factorization would give.
    ValueError, before the field is evaluated, when J or the factors are
    not of x0's size.
    """
    x0, J, factors = _entry(x0, tau, J, GAMMA_ROS1, factors)
    n = x0.shape[0]
    return kernel(1, n).step(None, x0, x0.tolist(), linalg.as_floats(field(x0), n), tau, J,
                             factors)


def ros2_finish(field, x0, tau: float, J, factors, k1) -> RosenbrockStep:
    """Complete a two-stage step from its first stage.

    Split out so a driver can inspect x0 + k1 (the only point beyond x0
    where the field gets evaluated) before committing to the evaluation.
    ValueError, before the field is evaluated, when k1 or the factors are
    not of x0's size.
    """
    x0 = linalg.as_vector(x0)
    k1 = np.asarray(k1, dtype=float)
    if k1.shape != x0.shape:
        raise ValueError(f"k1 has shape {k1.shape} but x0 has shape {x0.shape}")
    n = x0.shape[0]
    _sized(factors.n, n)
    return kernel(2, n).finish(_checked(field, n), x0, x0.tolist(), tau,
                               np.asarray(J, dtype=float), factors, k1.tolist())


def ros2_step(field, x0, tau: float, J, *,
              factors: linalg.LuFactors | None = None) -> RosenbrockStep:
    """Two-stage step of size tau: one factorization, two solves, two field
    evaluations.

    factors, when given, must be the LU factors of I - gamma*tau*J (see
    factor); the step then skips its factorization and is the same step
    bit for bit. ValueError, before the field is evaluated, when J or the
    factors are not of x0's size.
    """
    x0, J, factors = _entry(x0, tau, J, GAMMA_ROS2, factors)
    n = x0.shape[0]
    return kernel(2, n).step(_checked(field, n), x0, x0.tolist(),
                             linalg.as_floats(field(x0), n), tau, J, factors)


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")


def dense_eval(step: RosenbrockStep, theta: float) -> np.ndarray:
    """Evaluate the dense output X1(theta), theta in [0, 1].

    X1(0) is x0 bit for bit; X1(1) reproduces x1 to round-off.
    """
    _check_theta(theta)
    return step.value(theta)


def dense_derivative(step: RosenbrockStep, theta: float) -> np.ndarray:
    """d X1 / d theta at theta in [0, 1]."""
    _check_theta(theta)
    return step.derivative(theta)


def restep(field, step: RosenbrockStep, sigma: float) -> RosenbrockStep:
    """Recompute the step from the same x0 and J at a smaller size sigma.

    Fresh factorization and stages; sigma = tau reproduces the original
    step bit for bit.
    """
    if not 0.0 < sigma <= step.tau:
        raise ValueError(f"sigma must lie in (0, tau], got {sigma}")
    if step.stages == 1:
        return ros1_step(field, step.x0, sigma, step.J)
    return ros2_step(field, step.x0, sigma, step.J)

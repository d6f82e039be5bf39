"""Piecewise-smooth and slow/fast switched problem descriptions.

A scalar event function h splits the state space into region 1 = {h < 0},
region 2 = {h > 0}, and the switching surface = {h = 0} (an absolute band
of width `sigma_tol` in practice). Each region owns one branch of the
vector field; branches may carry domain predicates marking where they can
be evaluated at all. Evaluation bookkeeping lives on the problem instance
so integrations can report exact evaluation and violation counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import DomainViolation, ResidualTooLarge

# Half-width of the band around h = 0 that counts as "on the surface".
# Event location targets residuals at round-off scale, so the band sits at
# the same scale; states produced by the event locator land inside it.
SIGMA_TOL = 1e-12

# Residual tolerance for user-supplied quasi-steady-state solutions.
RESIDUAL_TOL = 1e-8


@dataclass
class EvalCounters:
    """Mutable per-problem evaluation counters, keyed by field number."""

    f_evals: dict = field(default_factory=lambda: {1: 0, 2: 0})
    domain_violations: dict = field(default_factory=lambda: {1: 0, 2: 0})

    def snapshot(self):
        return dict(self.f_evals), dict(self.domain_violations)


@dataclass
class PiecewiseProblem:
    """A vector field with one switching surface.

    f1 drives region 1 (h < 0), f2 drives region 2 (h > 0). Analytic
    derivatives are optional; finite-difference fallbacks are used when a
    slot is None. Domain predicates, when present, must cover at least the
    closure of the owning region (the field must be evaluable up to and on
    the surface).
    """

    dim: int
    f1: Callable
    f2: Callable
    h: Callable
    grad_h: Callable | None = None
    hess_h: Callable | None = None
    jac_f1: Callable | None = None
    jac_f2: Callable | None = None
    domain_f1: Callable | None = None
    domain_f2: Callable | None = None
    label: str = ""
    x0: np.ndarray | None = None
    source_spp: "SppProblem | None" = None
    counters: EvalCounters = field(default_factory=EvalCounters)


def eval_field(problem: PiecewiseProblem, which: int, x) -> np.ndarray:
    """Evaluate branch field `which` (1 or 2) at x, with bookkeeping.

    Raises DomainViolation (and counts it) when the branch has a domain
    predicate and x falls outside it.
    """
    if which not in (1, 2):
        raise ValueError(f"field selector must be 1 or 2, got {which!r}")
    x = np.asarray(x, dtype=float)
    dom = problem.domain_f1 if which == 1 else problem.domain_f2
    if dom is not None and not dom(x):
        problem.counters.domain_violations[which] += 1
        name = problem.label or "problem"
        raise DomainViolation(f"field {which} of {name} is undefined at {x}")
    problem.counters.f_evals[which] += 1
    f = problem.f1 if which == 1 else problem.f2
    return np.asarray(f(x), dtype=float)


def field_fn(problem: PiecewiseProblem, which: int) -> Callable:
    """Counted, domain-checked callable for one branch field."""
    return lambda x: eval_field(problem, which, x)


def _counted_raw(problem: PiecewiseProblem, which: int) -> Callable:
    # Counts evaluations but skips the predicate check; used by FD stencils
    # that have already chosen in-domain probe points.
    f = problem.f1 if which == 1 else problem.f2

    def call(x):
        problem.counters.f_evals[which] += 1
        return np.asarray(f(x), dtype=float)

    return call


def field_jacobian(problem: PiecewiseProblem, which: int, x) -> np.ndarray:
    """Jacobian of a branch field: analytic when available, else central
    differences that respect the branch's domain predicate."""
    jac = problem.jac_f1 if which == 1 else problem.jac_f2
    x = np.asarray(x, dtype=float)
    if jac is not None:
        return np.asarray(jac(x), dtype=float)
    dom = problem.domain_f1 if which == 1 else problem.domain_f2
    return linalg.fd_jacobian(_counted_raw(problem, which), x, domain=dom)


def h_gradient(problem: PiecewiseProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if problem.grad_h is not None:
        return np.asarray(problem.grad_h(x), dtype=float)
    return linalg.fd_gradient(problem.h, x)


def h_hessian(problem: PiecewiseProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if problem.hess_h is not None:
        return np.asarray(problem.hess_h(x), dtype=float)
    return linalg.fd_hessian(problem.h, x)


@dataclass
class SppProblem:
    """Slow/fast system with an eps-scaled fast block and a switched slow
    derivative.

    Slow states y (dimension slow_dim) follow f1/f2 across the surface
    h(y, z) = 0; fast states z follow z' = g(y, z)/eps. Jacobian slots, when
    given, are taken with respect to the stacked state (y, z).
    """

    slow_dim: int
    fast_dim: int
    f1: Callable
    f2: Callable
    g: Callable
    eps: float
    h: Callable
    h_y: Callable | None = None
    h_z: Callable | None = None
    hess_h: Callable | None = None
    jac_f1: Callable | None = None
    jac_f2: Callable | None = None
    jac_g: Callable | None = None
    label: str = ""
    y0: np.ndarray | None = None
    z0: np.ndarray | None = None

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    def split(self, u):
        u = np.asarray(u, dtype=float)
        return u[: self.slow_dim], u[self.slow_dim:]

    @property
    def x0(self) -> np.ndarray | None:
        if self.y0 is None or self.z0 is None:
            return None
        return np.concatenate([np.asarray(self.y0, float), np.asarray(self.z0, float)])


def spp_h_gradients(problem: SppProblem, u):
    """(dh/dy, dh/dz) at a stacked state, analytic or finite-difference."""
    y, z = problem.split(u)
    if problem.h_y is not None and problem.h_z is not None:
        return (
            np.asarray(problem.h_y(y, z), dtype=float),
            np.asarray(problem.h_z(y, z), dtype=float),
        )
    grad = linalg.fd_gradient(lambda v: problem.h(*problem.split(v)), u)
    return grad[: problem.slow_dim], grad[problem.slow_dim:]


def spp_flatten(problem: SppProblem) -> PiecewiseProblem:
    """Stack a slow/fast system into a plain piecewise problem on (y, z).

    The flattened branch fields are [f_i(y, z); g(y, z)/eps]; the slow
    components reproduce f_i bit for bit. The returned problem keeps a link
    to its source so surface hits can be classified with the slow/fast
    structure intact.
    """
    s = problem.slow_dim
    eps = problem.eps

    def make_field(f):
        def F(u):
            y, z = problem.split(u)
            return np.concatenate([
                np.asarray(f(y, z), dtype=float),
                np.asarray(problem.g(y, z), dtype=float) / eps,
            ])

        return F

    def h_flat(u):
        y, z = problem.split(u)
        return problem.h(y, z)

    grad_h = None
    if problem.h_y is not None and problem.h_z is not None:
        def grad_h(u):
            y, z = problem.split(u)
            return np.concatenate([
                np.asarray(problem.h_y(y, z), dtype=float),
                np.asarray(problem.h_z(y, z), dtype=float),
            ])

    def make_jac(jac_f):
        def J(u):
            y, z = problem.split(u)
            return np.vstack([
                np.asarray(jac_f(y, z), dtype=float),
                np.asarray(problem.jac_g(y, z), dtype=float) / eps,
            ])

        return J

    jac_f1 = jac_f2 = None
    if problem.jac_g is not None:
        if problem.jac_f1 is not None:
            jac_f1 = make_jac(problem.jac_f1)
        if problem.jac_f2 is not None:
            jac_f2 = make_jac(problem.jac_f2)

    return PiecewiseProblem(
        dim=problem.slow_dim + problem.fast_dim,
        f1=make_field(problem.f1),
        f2=make_field(problem.f2),
        h=h_flat,
        grad_h=grad_h,
        hess_h=problem.hess_h,
        jac_f1=jac_f1,
        jac_f2=jac_f2,
        label=(problem.label + "/flattened") if problem.label else "flattened",
        x0=problem.x0,
        source_spp=problem,
    )


def reduced_order_model(problem: SppProblem, g0: Callable) -> PiecewiseProblem:
    """Slow dynamics on the manifold z = g0(y).

    g0 must solve g(y, g0(y)) = 0; the residual is checked (inf-norm,
    RESIDUAL_TOL) at every state where a branch field is requested, and
    ResidualTooLarge is raised on failure.
    """

    def manifold(y):
        z = np.atleast_1d(np.asarray(g0(y), dtype=float))
        res = float(np.max(np.abs(np.asarray(problem.g(y, z), dtype=float))))
        if res > RESIDUAL_TOL:
            raise ResidualTooLarge(
                f"g(y, g0(y)) has residual {res:.3e} > {RESIDUAL_TOL:.1e} at y={y}"
            )
        return z

    def make_field(f):
        def fr(y):
            y = np.asarray(y, dtype=float)
            return np.asarray(f(y, manifold(y)), dtype=float)

        return fr

    def h_reduced(y):
        y = np.asarray(y, dtype=float)
        return problem.h(y, np.atleast_1d(np.asarray(g0(y), dtype=float)))

    return PiecewiseProblem(
        dim=problem.slow_dim,
        f1=make_field(problem.f1),
        f2=make_field(problem.f2),
        h=h_reduced,
        label=(problem.label + "/reduced") if problem.label else "reduced",
        x0=None if problem.y0 is None else np.asarray(problem.y0, dtype=float),
    )


# ---------------------------------------------------------------------------
# Builtin benchmark problems
# ---------------------------------------------------------------------------


def _najafi() -> PiecewiseProblem:
    """Scalar model with a square-root factor that exists only up to the
    switching time.

    State is (x, t) with t carried as an extra coordinate (t' = 1). Before
    the switch x' = x*sqrt(1 - t), defined only for t <= 1; after it x' = 0.
    The surface is h = t - 1.
    """

    def f1(u):
        x, t = u
        return np.array([x * math.sqrt(1.0 - t), 1.0])

    def f2(u):
        return np.array([0.0, 1.0])

    def h(u):
        return u[1] - 1.0

    def jac_f1(u):
        x, t = u
        s = 1.0 - t
        if s <= 0.0:
            # the x-derivative is fine at t = 1 but dt blows up; refuse
            raise DomainViolation("pre-switch Jacobian is singular at t >= 1")
        r = math.sqrt(s)
        return np.array([[r, -x / (2.0 * r)], [0.0, 0.0]])

    def jac_f2(u):
        return np.zeros((2, 2))

    return PiecewiseProblem(
        dim=2,
        f1=f1,
        f2=f2,
        h=h,
        grad_h=lambda u: np.array([0.0, 1.0]),
        hess_h=lambda u: np.zeros((2, 2)),
        jac_f1=jac_f1,
        jac_f2=jac_f2,
        domain_f1=lambda u: u[1] <= 1.0,
        label="najafi",
        x0=np.array([1.0, 0.0]),
    )


def _tent(level: float = 0.5) -> PiecewiseProblem:
    """x' = +1 below the threshold, -1 above it; h = x - level."""
    level = float(level)
    return PiecewiseProblem(
        dim=1,
        f1=lambda u: np.array([1.0]),
        f2=lambda u: np.array([-1.0]),
        h=lambda u: u[0] - level,
        grad_h=lambda u: np.array([1.0]),
        hess_h=lambda u: np.zeros((1, 1)),
        jac_f1=lambda u: np.zeros((1, 1)),
        jac_f2=lambda u: np.zeros((1, 1)),
        label="tent",
        x0=np.array([0.0]),
    )


def _linear_test(lam: float = -1.0) -> PiecewiseProblem:
    """Smooth linear field x' = lam*x with a surface that never fires
    (h = -1 everywhere); used for order and stability checks."""
    lam = float(lam)

    def f(u):
        return lam * np.asarray(u, dtype=float)

    return PiecewiseProblem(
        dim=1,
        f1=f,
        f2=f,
        h=lambda u: -1.0,
        grad_h=lambda u: np.zeros(1),
        hess_h=lambda u: np.zeros((1, 1)),
        jac_f1=lambda u: np.array([[lam]]),
        jac_f2=lambda u: np.array([[lam]]),
        label="linear_test",
        x0=np.array([1.0]),
    )


def _kowalczyk(theta: float = -0.9, eps: float = 1e-2) -> SppProblem:
    """Relay feedback with a fast first-order filter.

    Slow x switches as -sign(theta*x + (1-theta)*y); fast y tracks x with
    time constant eps. For theta < 0 the closed loop settles into a stable
    periodic orbit of amplitude O(eps) that the quasi-steady-state model
    (y = x) cannot reproduce.
    """
    th = float(theta)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")

    return SppProblem(
        slow_dim=1,
        fast_dim=1,
        f1=lambda y, z: np.array([1.0]),
        f2=lambda y, z: np.array([-1.0]),
        g=lambda y, z: np.array([y[0] - z[0]]),
        eps=float(eps),
        h=lambda y, z: th * y[0] + (1.0 - th) * z[0],
        h_y=lambda y, z: np.array([th]),
        h_z=lambda y, z: np.array([1.0 - th]),
        hess_h=lambda u: np.zeros((2, 2)),
        jac_f1=lambda y, z: np.zeros((1, 2)),
        jac_f2=lambda y, z: np.zeros((1, 2)),
        jac_g=lambda y, z: np.array([[1.0, -1.0]]),
        label="kowalczyk",
        y0=np.array([1.0]),
        z0=np.array([0.0]),
    )


def _teixeira(eps: float = 1e-2) -> SppProblem:
    """Planar relay whose switching function reads the fast filter state:
    y1' = -sign(2z - y1), y2' = -y1 - y2, eps*z' = y1 - z."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")

    return SppProblem(
        slow_dim=2,
        fast_dim=1,
        f1=lambda y, z: np.array([1.0, -y[0] - y[1]]),
        f2=lambda y, z: np.array([-1.0, -y[0] - y[1]]),
        g=lambda y, z: np.array([y[0] - z[0]]),
        eps=float(eps),
        h=lambda y, z: 2.0 * z[0] - y[0],
        h_y=lambda y, z: np.array([-1.0, 0.0]),
        h_z=lambda y, z: np.array([2.0]),
        hess_h=lambda u: np.zeros((3, 3)),
        jac_f1=lambda y, z: np.array([[0.0, 0.0, 0.0], [-1.0, -1.0, 0.0]]),
        jac_f2=lambda y, z: np.array([[0.0, 0.0, 0.0], [-1.0, -1.0, 0.0]]),
        jac_g=lambda y, z: np.array([[1.0, 0.0, -1.0]]),
        label="teixeira",
        y0=np.array([1.0, 0.0]),
        z0=np.array([0.0]),
    )


def _ostermann_modified(eps: float = 1e-3) -> SppProblem:
    """Oscillator with |y1|-type switching and a fast algebraic state:
    y1' = z, y2' = -sign(y1)*y1, eps*z' = y2 - z - eps*y1."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    e = float(eps)

    return SppProblem(
        slow_dim=2,
        fast_dim=1,
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
        label="ostermann_modified",
        y0=np.array([1.0, -1.0]),
        z0=np.array([0.0]),
    )


_REGISTRY = {
    "najafi": _najafi,
    "tent": _tent,
    "linear_test": _linear_test,
    "kowalczyk": _kowalczyk,
    "teixeira": _teixeira,
    "ostermann_modified": _ostermann_modified,
}


def builtin(name: str, **params):
    """Construct a benchmark problem by name.

    Returns a PiecewiseProblem or an SppProblem depending on the problem.
    Raises ValueError for unknown names or invalid parameters.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown problem {name!r} (known: {known})") from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {name!r}: {exc}") from None


def problem_names() -> list:
    return sorted(_REGISTRY)

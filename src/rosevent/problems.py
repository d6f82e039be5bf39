"""Piecewise-smooth and slow/fast switched problem descriptions.

A scalar event function h splits the state space into region 1 = {h < 0},
region 2 = {h > 0}, and the switching surface = {h = 0} (an absolute band
of width `sigma_tol` in practice). Each region owns one branch of the
vector field; branches may carry domain predicates marking where they can
be evaluated at all. Evaluation bookkeeping lives on the problem instance
so integrations can report exact evaluation and violation counts.

A piecewise-affine problem (x' = A_i x + b_i, h = n.x + c) is declared once
as `Affine` data, and `affine_problem` or `affine_spp` derive every field,
Jacobian and surface callable from it; other problems give callables.
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


@dataclass(frozen=True, eq=False)
class Affine:
    """x' = A1 x + b1 in region 1 (h < 0), x' = A2 x + b2 in region 2, and
    h = n.x + c, stored as read-only float copies. ValueError when an entry
    is not finite or a shape does not match a non-empty n. Instances
    compare by identity: arrays have no single truth value for ==."""

    A1: np.ndarray
    b1: np.ndarray
    A2: np.ndarray
    b2: np.ndarray
    n: np.ndarray
    c: float

    def __post_init__(self):
        d = np.size(self.n)
        for name, shape in (("A1", (d, d)), ("b1", (d,)), ("A2", (d, d)), ("b2", (d,)),
                            ("n", (d,)), ("c", ())):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape or d == 0 or not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite with shape {shape}, got {arr}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr if shape else float(arr))

    @property
    def dim(self) -> int:
        return self.n.size


def affine_problem(aff: Affine, label: str = "", x0=None) -> PiecewiseProblem:
    """The PiecewiseProblem of a declaration: every field, Jacobian and
    surface callable comes from `aff`. Jacobians and the gradient of h are
    `aff`'s read-only arrays."""
    A1, b1, A2, b2, n, c = aff.A1, aff.b1, aff.A2, aff.b2, aff.n, aff.c
    zero = np.broadcast_to(0.0, (aff.dim, aff.dim))  # read-only
    return PiecewiseProblem(
        dim=aff.dim, f1=lambda x: A1 @ x + b1, f2=lambda x: A2 @ x + b2,
        h=lambda x: float(n @ x) + c, grad_h=lambda x: n, hess_h=lambda x: zero,
        jac_f1=lambda x: A1, jac_f2=lambda x: A2, label=label, x0=x0,
    )


@dataclass
class SppProblem:
    """Slow/fast system with an eps-scaled fast block and a switched slow
    derivative.

    Slow states y (dimension slow_dim) follow f1/f2 across the surface
    h(y, z) = 0; fast states z follow z' = g(y, z)/eps. Jacobian slots, when
    given, are taken with respect to the stacked state (y, z). `affine` is
    the declaration of an affine_spp problem (its fast rows are g).
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
    affine: Affine | None = None

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

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
    structure intact. An affine declaration flattens once, its fast rows
    divided by eps; other problems get callables that stack per call.
    """
    eps = problem.eps
    label = (problem.label + "/flattened") if problem.label else "flattened"
    aff = problem.affine
    if aff is not None:
        d = np.full(aff.dim, eps)
        d[: problem.slow_dim] = 1.0
        flat = affine_problem(Affine(aff.A1 / d[:, None], aff.b1 / d, aff.A2 / d[:, None],
                                     aff.b2 / d, aff.n, aff.c), label, problem.x0)
        flat.source_spp = problem
        return flat

    def stack(top, bottom, join, scale=1.0):
        # [top(y, z); bottom(y, z)/scale], None when a block is missing
        if top is None or bottom is None:
            return None

        def F(u):
            y, z = problem.split(u)
            return join([np.asarray(top(y, z), dtype=float),
                         np.asarray(bottom(y, z), dtype=float) / scale])

        return F

    return PiecewiseProblem(
        dim=problem.slow_dim + problem.fast_dim,
        f1=stack(problem.f1, problem.g, np.concatenate, eps),
        f2=stack(problem.f2, problem.g, np.concatenate, eps),
        h=lambda u: problem.h(*problem.split(u)),
        grad_h=stack(problem.h_y, problem.h_z, np.concatenate),
        hess_h=problem.hess_h,
        jac_f1=stack(problem.jac_f1, problem.jac_g, np.vstack, eps),
        jac_f2=stack(problem.jac_f2, problem.jac_g, np.vstack, eps),
        label=label,
        x0=problem.x0,
        source_spp=problem,
    )


def affine_spp(aff: Affine, slow_dim: int, eps: float, label: str = "",
               y0=None, z0=None) -> SppProblem:
    """The SppProblem of a declaration on the stacked state (y, z).

    The first slow_dim rows of region i give f_i; the other rows give g,
    which both regions must share (ValueError otherwise). f_i, g, h, h_y,
    h_z and every Jacobian come from `aff`, kept as the `affine` field.
    """
    slow, fast = slice(None, slow_dim), slice(slow_dim, None)
    A1, b1, A2, b2, n, c = aff.A1, aff.b1, aff.A2, aff.b2, aff.n, aff.c
    if not 0 < slow_dim < aff.dim or not (
            np.array_equal(A1[fast], A2[fast]) and np.array_equal(b1[fast], b2[fast])):
        raise ValueError("need 0 < slow_dim < dim and the same fast rows in both regions")

    # slow rows are sliced from the full product, as the flattened field
    # computes them, so the two agree bit for bit
    def rows(A, b, part):
        return lambda y, z: (A @ np.concatenate((y, z)) + b)[part]

    return SppProblem(
        slow_dim=slow_dim, fast_dim=aff.dim - slow_dim, eps=float(eps),
        f1=rows(A1, b1, slow), f2=rows(A2, b2, slow), g=rows(A1, b1, fast),
        h=lambda y, z: float(n @ np.concatenate((y, z))) + c,
        h_y=lambda y, z: n[slow], h_z=lambda y, z: n[fast],
        jac_f1=lambda y, z: A1[slow], jac_f2=lambda y, z: A2[slow],
        jac_g=lambda y, z: A1[fast], label=label, y0=y0, z0=z0, affine=aff,
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
    return affine_problem(Affine(A1=[[0.0]], b1=[1.0], A2=[[0.0]], b2=[-1.0], n=[1.0],
                                 c=-level), "tent", np.array([0.0]))


def _linear_test(lam: float = -1.0) -> PiecewiseProblem:
    """Smooth linear field x' = lam*x with a surface that never fires
    (h = -1 everywhere); used for order and stability checks."""
    return affine_problem(Affine(A1=[[lam]], b1=[0.0], A2=[[lam]], b2=[0.0], n=[0.0],
                                 c=-1.0), "linear_test", np.array([1.0]))


def _kowalczyk(theta: float = -0.9, eps: float = 1e-2) -> SppProblem:
    """Relay feedback with a fast first-order filter.

    Slow x switches as -sign(theta*x + (1-theta)*y); fast y tracks x with
    time constant eps. For theta < 0 the closed loop settles into a stable
    periodic orbit of amplitude O(eps) that the quasi-steady-state model
    (y = x) cannot reproduce.
    """
    aff = Affine(A1=[[0.0, 0.0], [1.0, -1.0]], b1=[1.0, 0.0],
                 A2=[[0.0, 0.0], [1.0, -1.0]], b2=[-1.0, 0.0], n=[theta, 1.0 - theta], c=0.0)
    return affine_spp(aff, 1, eps, "kowalczyk", np.array([1.0]), np.array([0.0]))


def _teixeira(eps: float = 1e-2) -> SppProblem:
    """Planar relay whose switching function reads the fast filter state:
    y1' = -sign(2z - y1), y2' = -y1 - y2, eps*z' = y1 - z."""
    A = [[0.0, 0.0, 0.0], [-1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]
    aff = Affine(A1=A, b1=[1.0, 0.0, 0.0], A2=A, b2=[-1.0, 0.0, 0.0], n=[-1.0, 0.0, 2.0], c=0.0)
    return affine_spp(aff, 2, eps, "teixeira", np.array([1.0, 0.0]), np.array([0.0]))


def _ostermann_modified(eps: float = 1e-3) -> SppProblem:
    """Oscillator with |y1|-type switching and a fast algebraic state:
    y1' = z, y2' = -sign(y1)*y1, eps*z' = y2 - z - eps*y1."""
    aff = Affine(A1=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-eps, 1.0, -1.0]], b1=[0.0, 0.0, 0.0],
                 A2=[[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [-eps, 1.0, -1.0]], b2=[0.0, 0.0, 0.0],
                 n=[1.0, 0.0, 0.0], c=0.0)
    return affine_spp(aff, 2, eps, "ostermann_modified", np.array([1.0, -1.0]), np.array([0.0]))


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
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad parameters for {name!r}: {exc}") from None


def problem_names() -> list:
    return sorted(_REGISTRY)

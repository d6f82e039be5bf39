"""Piecewise-smooth and slow/fast switched problem descriptions.

A scalar event function h splits the state space into region 1 = {h < 0},
region 2 = {h > 0}, and the switching surface = {h = 0} (an absolute band
of width `sigma_tol` in practice). Each region owns one branch of the
vector field; branches may carry domain predicates marking where they can
be evaluated at all. Evaluation bookkeeping lives on the problem instance
so integrations can report exact evaluation and violation counts.

A piecewise-affine problem (x' = A_i x + b_i, h = n.x + c) is declared once
as `Affine` data, and `affine_problem` derives every field, Jacobian and
surface callable from it and keeps it as `PiecewiseProblem.affine`; other
problems give callables. A problem with callable fields can still declare
an affine surface h = n.x + c as `Surface` data (`najafi` does), which
event location and the dense guard read as `PiecewiseProblem.surface`.

A slow/fast system is one PiecewiseProblem on the stacked state u = (y, z)
seen through `SppProblem(stacked, slow_dim, eps)`: the rows slow_dim: of
its fields are the shared fast field g, and `spp_flatten` divides them by
eps to give the problem the integrator runs.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, eq=False)
class Surface:
    """The affine surface h(x) = n.x + c, n a read-only float copy.
    ValueError unless n is a non-empty vector and all entries are finite."""

    n: np.ndarray
    c: float

    def __post_init__(self):
        n = np.array(self.n, dtype=float)
        c = float(self.c)
        if n.ndim != 1 or n.size == 0 or not np.isfinite(n).all() or not math.isfinite(c):
            raise ValueError(f"a surface needs a finite vector n and a finite c, got {n}, {c}")
        n.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    @functools.cached_property
    def callables(self):
        """(h, grad_h, hess_h), made once. h is x[i] + c for a unit normal
        e_i, else float(n.dot(x)) + c (the bits of n @ x, dispatched in half
        the time); the gradient and Hessian are read-only arrays."""
        n, c = self.n, self.c
        nonzero = np.flatnonzero(n)
        if nonzero.size == 1 and n[nonzero[0]] == 1.0:
            i = int(nonzero[0])
            h = lambda x: x[i] + c  # noqa: E731
        else:
            h = lambda x: float(n.dot(x)) + c  # noqa: E731
        zero = np.broadcast_to(0.0, (n.size, n.size))
        return h, (lambda x: n), (lambda x: zero)


@dataclass
class PiecewiseProblem:
    """A vector field with one switching surface.

    f1 drives region 1 (h < 0), f2 drives region 2 (h > 0). Analytic
    derivatives are optional; finite-difference fallbacks are used when a
    slot is None. Domain predicates, when present, must cover at least the
    closure of the owning region (the field must be evaluable up to and on
    the surface).

    Give either h (with optional grad_h, hess_h) or a declared `surface`,
    which sets all three; giving both is a ValueError.
    """

    dim: int
    f1: Callable
    f2: Callable
    h: Callable | None = None
    grad_h: Callable | None = None
    hess_h: Callable | None = None
    jac_f1: Callable | None = None
    jac_f2: Callable | None = None
    domain_f1: Callable | None = None
    domain_f2: Callable | None = None
    label: str = ""
    x0: np.ndarray | None = None
    source_spp: "SppProblem | None" = None
    affine: "Affine | None" = None
    surface: Surface | None = None
    counters: EvalCounters = field(default_factory=EvalCounters)

    def __post_init__(self):
        if self.surface is None:
            if self.h is None:
                raise ValueError("a problem needs an event function h or a declared surface")
            return
        if not (self.h is None and self.grad_h is None and self.hess_h is None):
            raise ValueError("a declared surface sets h, grad_h and hess_h; give one or the other")
        if self.surface.n.size != self.dim:
            raise ValueError(f"the surface normal has {self.surface.n.size} entries, "
                             f"the state {self.dim}")
        self.h, self.grad_h, self.hess_h = self.surface.callables


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
    surface callable comes from `aff`, and its surface is declared
    (`Surface(aff.n, aff.c)`). Jacobians and the gradient of h are
    read-only arrays."""
    A1, b1, A2, b2 = aff.A1, aff.b1, aff.A2, aff.b2
    return PiecewiseProblem(
        dim=aff.dim, f1=lambda x: A1 @ x + b1, f2=lambda x: A2 @ x + b2,
        jac_f1=lambda x: A1, jac_f2=lambda x: A2, label=label, x0=x0, affine=aff,
        surface=Surface(aff.n, aff.c),
    )


@dataclass
class SppProblem:
    """Slow/fast system y' = f_i(y, z), eps z' = g(y, z) on the stacked
    state u = (y, z), y the first slow_dim entries.

    `stacked` holds the unscaled stacked fields F_i(u) = [f_i(u); g(u)]:
    its rows slow_dim: are g, which both regions share. Its h, gradient,
    Hessian, Jacobians, domains and x0 are those of u.
    """

    stacked: PiecewiseProblem
    slow_dim: int
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0 < self.slow_dim < self.stacked.dim:
            raise ValueError(
                f"need 0 < slow_dim < {self.stacked.dim}, got slow_dim = {self.slow_dim}")

    @property
    def label(self) -> str:
        return self.stacked.label

    @property
    def x0(self) -> np.ndarray | None:
        return self.stacked.x0


def spp_flatten(problem: SppProblem) -> PiecewiseProblem:
    """The stacked problem with its fast rows divided by eps: branch fields
    [f_i(u); g(u)/eps], the slow rows bit for bit those of `stacked`.

    A declared problem flattens once, its declaration's fast rows over eps
    (ValueError when one is not finite); otherwise the fields and Jacobians
    are wrapped. The surface (declared, or h and its derivatives) and the
    domains pass through. The result has its own counters and keeps a link
    to its source, so surface hits can be classified with the slow/fast
    structure intact.
    """
    st, eps = problem.stacked, problem.eps
    label = (st.label + "/flattened") if st.label else "flattened"
    rows = np.full(st.dim, eps)
    rows[: problem.slow_dim] = 1.0
    aff = st.affine
    if aff is not None:
        with np.errstate(over="ignore"):
            scaled = aff.A1 / rows[:, None], aff.b1 / rows, aff.A2 / rows[:, None], aff.b2 / rows
        if not all(np.isfinite(a).all() for a in scaled):
            raise ValueError(f"cannot flatten {st.label or 'the problem'} at eps = {eps}: "
                             "a fast row divided by eps is not finite")
        flat = affine_problem(Affine(*scaled, aff.n, aff.c), label, st.x0)
        flat.source_spp = problem
        return flat

    def over_eps(F, d):
        return None if F is None else lambda u: np.asarray(F(u), dtype=float) / d

    if st.surface is not None:
        surface = {"surface": st.surface}
    else:
        surface = {"h": st.h, "grad_h": st.grad_h, "hess_h": st.hess_h}
    return PiecewiseProblem(
        dim=st.dim,
        f1=over_eps(st.f1, rows),
        f2=over_eps(st.f2, rows),
        **surface,
        jac_f1=over_eps(st.jac_f1, rows[:, None]),
        jac_f2=over_eps(st.jac_f2, rows[:, None]),
        domain_f1=st.domain_f1,
        domain_f2=st.domain_f2,
        label=label,
        x0=st.x0,
        source_spp=problem,
    )


def affine_spp(aff: Affine, slow_dim: int, eps: float, label: str = "",
               x0=None) -> SppProblem:
    """The SppProblem whose stacked problem is `affine_problem(aff, ...)`:
    the first slow_dim rows of region i give f_i, the other rows give g,
    which both regions must share (ValueError otherwise)."""
    spp = SppProblem(affine_problem(aff, label, x0), slow_dim, float(eps))
    fast = slice(slow_dim, None)
    if not (np.array_equal(aff.A1[fast], aff.A2[fast])
            and np.array_equal(aff.b1[fast], aff.b2[fast])):
        raise ValueError("both regions must share the fast rows")
    return spp


def reduced_order_model(problem: SppProblem, g0: Callable) -> PiecewiseProblem:
    """Slow dynamics on the manifold z = g0(y).

    g0 must solve g(y, g0(y)) = 0; the residual is checked (inf-norm,
    RESIDUAL_TOL) at every state where a branch field is requested, and
    ResidualTooLarge is raised on failure.
    """
    st, s = problem.stacked, problem.slow_dim

    def on_manifold(y):
        y = np.asarray(y, dtype=float)
        return np.concatenate((y, np.atleast_1d(np.asarray(g0(y), dtype=float))))

    def make_field(F):
        def fr(y):
            Fu = np.asarray(F(on_manifold(y)), dtype=float)
            res = float(np.max(np.abs(Fu[s:])))
            if res > RESIDUAL_TOL:
                raise ResidualTooLarge(
                    f"g(y, g0(y)) has residual {res:.3e} > {RESIDUAL_TOL:.1e} at y={y}"
                )
            return Fu[:s]

        return fr

    return PiecewiseProblem(
        dim=s,
        f1=make_field(st.f1),
        f2=make_field(st.f2),
        h=lambda y: st.h(on_manifold(y)),
        label=(st.label + "/reduced") if st.label else "reduced",
        x0=None if st.x0 is None else np.asarray(st.x0, dtype=float)[:s],
    )


# ---------------------------------------------------------------------------
# Builtin benchmark problems
# ---------------------------------------------------------------------------


_NAJAFI_SURFACE = Surface([0.0, 1.0], -1.0)


def _najafi() -> PiecewiseProblem:
    """Scalar model with a square-root factor that exists only up to the
    switching time.

    State is (x, t) with t carried as an extra coordinate (t' = 1). Before
    the switch x' = x*sqrt(1 - t), defined only for t <= 1; after it x' = 0.
    The surface is declared: h = (0, 1).u - 1 = t - 1.
    """

    def f1(u):
        x, t = u
        return np.array([x * math.sqrt(1.0 - t), 1.0])

    def f2(u):
        return np.array([0.0, 1.0])

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
        surface=_NAJAFI_SURFACE,
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
    return affine_spp(aff, 1, eps, "kowalczyk", np.array([1.0, 0.0]))


def _teixeira(eps: float = 1e-2) -> SppProblem:
    """Planar relay whose switching function reads the fast filter state:
    y1' = -sign(2z - y1), y2' = -y1 - y2, eps*z' = y1 - z."""
    A = [[0.0, 0.0, 0.0], [-1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]
    aff = Affine(A1=A, b1=[1.0, 0.0, 0.0], A2=A, b2=[-1.0, 0.0, 0.0], n=[-1.0, 0.0, 2.0], c=0.0)
    return affine_spp(aff, 2, eps, "teixeira", np.array([1.0, 0.0, 0.0]))


def _ostermann_modified(eps: float = 1e-3) -> SppProblem:
    """Oscillator with |y1|-type switching and a fast algebraic state:
    y1' = z, y2' = -sign(y1)*y1, eps*z' = y2 - z - eps*y1."""
    aff = Affine(A1=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-eps, 1.0, -1.0]], b1=[0.0, 0.0, 0.0],
                 A2=[[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [-eps, 1.0, -1.0]], b2=[0.0, 0.0, 0.0],
                 n=[1.0, 0.0, 0.0], c=0.0)
    return affine_spp(aff, 2, eps, "ostermann_modified", np.array([1.0, -1.0, 0.0]))


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

"""Piecewise-smooth and slow/fast switched problem descriptions.

A scalar event function h splits the state space into region 1 = {h < 0},
region 2 = {h > 0}, and the switching surface = {h = 0} (an absolute band
of width `sigma_tol` in practice). Each region owns one branch of the
vector field; branches may carry domain predicates marking where they can
be evaluated at all. Evaluation bookkeeping lives on the problem instance
so integrations can report exact evaluation and violation counts, all
through eval_field: every field evaluation of a step, of the guards and of
the FD Jacobian is one eval_field call, which the driver (events) and the
guarded step (onesided) bind once as functools.partial(eval_field,
problem, which). eval_field has two forms, as linalg.lu_solve does: a float
array in gives a float array out, and a list of Python floats in gives a
list of floats out, the form in which every step hands a field its state.
field_jacobian takes the same two forms; every step hands it the floats.

A problem may declare the float form of a field or of a Jacobian by giving
it as a FloatField. eval_field and field_jacobian run a float form on the
step's floats as they are, and run no numpy; a float-form Jacobian's rows
are factored as they come. Any other field, Jacobian or domain predicate
gets the float array eval_field or field_jacobian builds from the floats,
with the step's bits. najafi's fields, Jacobians and domain run on `math`
floats.

A piecewise-affine problem (x' = A_i x + b_i, h = n.x + c) is declared once
as `Affine` data, and `affine_problem` derives every field, Jacobian and
surface callable from it and keeps it as `PiecewiseProblem.affine`; other
problems give callables. Its fields are float-row fields (FloatRows, a
FloatField): each value is the left-to-right sum
(a_i0*x0 + a_i1*x1 + ...) + b_i on Python floats, straight-line code
generated once per system size, so the bits do not depend on the
platform's BLAS; its Jacobians are the read-only arrays A_i. A problem
with callable fields can still declare an affine surface h = n.x + c as
`Surface` data (`najafi` does), which event location and the dense guard
read as `PiecewiseProblem.surface`. A declared surface's h has a float form
too: the left-to-right sum (n0*x0 + n1*x1 + ...) + c, generated once per
size, reads a list of floats as it is and an array through tolist(), so
the driver hands it the floats its steps hold and every evaluation of h,
on floats or on an array, gives the same bits, free of the BLAS.

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


def _surface_source(n: int) -> str:
    """Source of the surface maker for size n: make(n0, ..., c) returns
    h(x), which maps n floats (an array's through tolist()) to
    (n0 * x0 + n1 * x1 + ...) + c, the sum left to right, as a row of
    _rows_source."""
    x = [f"x{j}" for j in range(n)]
    return "\n".join([f"def make({', '.join(f'n{j}' for j in range(n))}, c):",
                      "    def h(x):",
                      f"        [{', '.join(x)}] = x.tolist() if type(x) is ndarray else x",
                      f"        return ({' + '.join(f'n{j} * {v}' for j, v in enumerate(x))}) + c",
                      "    return h"]) + "\n"


# the surface maker of each size, generated on its first declared surface
_SURFACE_MAKERS: dict = {}


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
        e_i, else the left-to-right sum (n0*x0 + n1*x1 + ...) + c on Python
        floats (_surface_source). Either takes the state as a list of floats
        as it is, and an array through tolist(), so both forms give the same
        bits, which do not depend on the platform's BLAS. The gradient and
        Hessian are read-only arrays."""
        n, c = self.n, self.c
        nonzero = np.flatnonzero(n)
        if nonzero.size == 1 and n[nonzero[0]] == 1.0:
            i = int(nonzero[0])
            h = lambda x: x[i] + c  # noqa: E731
        else:
            make = (_SURFACE_MAKERS.get(n.size)
                    or linalg.generated(_SURFACE_MAKERS, n.size, _surface_source, "make",
                                        {"ndarray": np.ndarray}))
            h = make(*n.tolist(), c)
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


class FloatField:
    """A field, or a field's Jacobian, declared with its float form.

    `floats` takes the state as a list of Python floats and returns a list:
    the field's value as floats, or the Jacobian as rows of floats. Every
    step hands eval_field and field_jacobian its state as floats, and they
    call `floats` on them directly, so the step runs no numpy on the field;
    the field's domain predicate, if any, gets the same floats. Called with
    a vector, the object returns the float array of what `floats` gives on
    the vector's floats, the same bits, so it serves wherever a field or
    Jacobian callable does.
    """

    __slots__ = ("floats",)

    def __init__(self, floats: Callable):
        self.floats = floats

    def __call__(self, x) -> np.ndarray:
        return np.array(self.floats(np.asarray(x, dtype=float).tolist()))


def _value_floats(v: np.ndarray, n: int) -> list:
    # a field's value as n Python floats; another shape fails as_floats
    return v.tolist() if v.shape == (n,) else linalg.as_floats(v, n)


def _domain_violation(problem: PiecewiseProblem, which: int, x) -> DomainViolation:
    # counted here; the message shows x as the float array it is
    problem.counters.domain_violations[which] += 1
    name = problem.label or "problem"
    return DomainViolation(f"field {which} of {name} is undefined at {np.asarray(x, dtype=float)}")


def eval_field(problem: PiecewiseProblem, which: int, x, checked: bool = False):
    """Evaluate branch field `which` (1 or 2) at x, with bookkeeping.

    A list of floats in gives a list of problem.dim floats out, the form
    the step kernel (rosenbrock) takes; anything else gives a float array.
    A float-form field (FloatField, FloatRows among them) is handed the
    floats as they are, and its domain predicate, if any, gets them too; a
    value that is not a list of problem.dim entries fails linalg.as_floats.
    Any other field gets x as one float array, and in the list form its
    value becomes floats after linalg.as_floats's checks.

    Raises DomainViolation (and counts it) when the branch has a domain
    predicate and x falls outside it. checked=True takes the caller's
    verdict that x lies inside, as the finite-difference stencil of
    field_jacobian has found it, and skips the predicate.
    """
    if which == 1:
        f, dom = problem.f1, problem.domain_f1
    elif which == 2:
        f, dom = problem.f2, problem.domain_f2
    else:
        raise ValueError(f"field selector must be 1 or 2, got {which!r}")
    floats = type(x) is list
    if floats and isinstance(f, FloatField):
        if dom is not None and not checked and not dom(x):
            raise _domain_violation(problem, which, x)
        problem.counters.f_evals[which] += 1
        v = f.floats(x)
        return v if type(v) is list and len(v) == problem.dim else linalg.as_floats(v, problem.dim)
    x = np.asarray(x, dtype=float)
    if dom is not None and not checked and not dom(x):
        raise _domain_violation(problem, which, x)
    problem.counters.f_evals[which] += 1
    v = np.asarray(f(x), dtype=float)
    return _value_floats(v, problem.dim) if floats else v


def field_jacobian(problem: PiecewiseProblem, which: int, x):
    """Jacobian of a branch field: analytic when available, else central
    differences that respect the branch's domain. The stencil checks each
    point it evaluates against the domain once (linalg.fd_jacobian) and
    counts the evaluation through eval_field, which takes that verdict.

    A float-form Jacobian (FloatField) handed a list of floats gives its
    float rows, problem.dim rows of problem.dim Python floats, the form the
    step kernel factors as it is; rows of another shape go through
    linalg.as_matrix's checks. Anything else gives a float array. A
    float-form Jacobian refuses a state by raising, as najafi's does at
    t >= 1, in both forms."""
    jac = problem.jac_f1 if which == 1 else problem.jac_f2
    if type(x) is list and isinstance(jac, FloatField):
        J, n = jac.floats(x), problem.dim
        if type(J) is list and len(J) == n and all([type(r) is list and len(r) == n for r in J]):
            return J
        # a square J of another size then fails lu_solve's length check, as
        # an array J does
        return linalg.as_matrix(J).tolist()
    x = np.asarray(x, dtype=float)
    if jac is not None:
        return np.asarray(jac(x), dtype=float)
    dom = problem.domain_f1 if which == 1 else problem.domain_f2
    # checked passed by position, as a wrapper on eval_field may take *args
    return linalg.fd_jacobian(lambda v: eval_field(problem, which, v, True), x, domain=dom)


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


def _rows_source(n: int) -> str:
    """Source of the float-row maker for size n: make(a0_0, ..., b0, ...)
    returns rows(x), which maps a list of n floats to the n values
    (a_i0 * x0 + a_i1 * x1 + ...) + b_i, each sum left to right, one
    expression per row: a matrix-vector product plus b, unrolled."""
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    x = [f"x{j}" for j in range(n)]
    params = [v for row in a for v in row] + [f"b{i}" for i in range(n)]
    values = [f"({' + '.join(f'{a[i][j]} * {x[j]}' for j in range(n))}) + b{i}"
              for i in range(n)]
    return "\n".join([f"def make({', '.join(params)}):",
                      "    def rows(x):",
                      f"        [{', '.join(x)}] = x",
                      f"        return [{', '.join(values)}]",
                      "    return rows"]) + "\n"


# the float-row maker of each size, generated on its first field
_ROW_MAKERS: dict = {}


class FloatRows(FloatField):
    """The field x -> A x + b of fixed A and b, evaluated on Python floats.

    Its float form `floats` is the rows of _rows_source with A and b bound
    in (the maker of each size is generated once): a list of n floats in,
    a list of n floats out. The sums are plain IEEE operations in a fixed
    order, so the bits do not depend on the platform's BLAS.
    """

    __slots__ = ()

    def __init__(self, A: np.ndarray, b: np.ndarray):
        n = len(b)
        make = _ROW_MAKERS.get(n) or linalg.generated(_ROW_MAKERS, n, _rows_source, "make")
        super().__init__(make(*np.ravel(A).tolist(), *np.ravel(b).tolist()))


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
    (`Surface(aff.n, aff.c)`). The fields are float-row fields (FloatRows);
    Jacobians and the gradient of h are read-only arrays."""
    A1, b1, A2, b2 = aff.A1, aff.b1, aff.A2, aff.b2
    return PiecewiseProblem(
        dim=aff.dim, f1=FloatRows(A1, b1), f2=FloatRows(A2, b2),
        jac_f1=lambda x: A1, jac_f2=lambda x: A2, label=label, x0=x0, affine=aff,
        surface=Surface(aff.n, aff.c),
    )


@dataclass
class SppProblem:
    """Slow/fast system y' = f_i(y, z), eps z' = g(y, z) on the stacked
    state u = (y, z), y the first slow_dim entries.

    `stacked` holds the unscaled stacked fields F_i(u) = [f_i(u); g(u)]:
    its rows slow_dim: are g, which both regions share. Its h, gradient,
    Hessian, Jacobians, domains and x0 are those of u. A declared stacked
    problem (stacked.affine) is checked for that here: ValueError when the
    fast rows of A1 and A2, or of b1 and b2, differ.
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
        aff, fast = self.stacked.affine, slice(self.slow_dim, None)
        if aff is not None and not (np.array_equal(aff.A1[fast], aff.A2[fast])
                                    and np.array_equal(aff.b1[fast], aff.b2[fast])):
            raise ValueError("both regions must share the fast rows")

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
    which both regions must share (SppProblem checks it)."""
    return SppProblem(affine_problem(aff, label, x0), slow_dim, float(eps))


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
    The surface is declared: h = (0, 1).u - 1 = t - 1. The fields and
    Jacobians are float-form (FloatField), written on `math` floats; the
    domain reads u[1], so it takes floats and arrays alike.
    """

    def f1(u):
        x, t = u
        return [x * math.sqrt(1.0 - t), 1.0]

    def f2(u):
        return [0.0, 1.0]

    def jac_f1(u):
        x, t = u
        s = 1.0 - t
        if s <= 0.0:
            # the x-derivative is fine at t = 1 but dt blows up; refuse
            raise DomainViolation("pre-switch Jacobian is singular at t >= 1")
        r = math.sqrt(s)
        return [[r, -x / (2.0 * r)], [0.0, 0.0]]

    def jac_f2(u):
        return [[0.0, 0.0], [0.0, 0.0]]

    return PiecewiseProblem(
        dim=2,
        f1=FloatField(f1),
        f2=FloatField(f2),
        surface=_NAJAFI_SURFACE,
        jac_f1=FloatField(jac_f1),
        jac_f2=FloatField(jac_f2),
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

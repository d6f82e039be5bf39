"""Event-driven fixed-step integration with dense-output event location.

The driver, integrate, advances one branch field with a fixed step. After
each step it looks for a surface hit inside the step and locates it **on
the dense output** X1(theta) of the already-computed step, costing h
evaluations only (no field evaluations, no linear solves). The step is
truncated at the hit, the hit is classified (crossing / sliding /
tangential), and on a crossing the integration restarts from the located
state with the other field and a fresh full step. Location keeps the
located state on the departing side of the surface, so fields that cannot
be evaluated past the surface never are.

On a declared affine surface (problems.Surface) h(X1(theta)) is exactly
a quadratic in theta (RosenbrockStep.slopes): a step is hit when h
changes sign across it or when the quadratic dips past the band and back,
and the hit is its first root (linalg.quadratic_root), checked on the real
h (Shampine, Gladwell & Brankin, ACM TOMS 17, 1991). Any other h is judged
by its signs at the step's ends and searched with ITP (linalg.safe_side_root,
as in the case-1b shortening), so it can miss an even number of crossings.
Location reads the dense output's float form (RosenbrockStep.value_floats):
a declared h is handed each probe's floats, which the repeat test compares
bit for bit, any other h the float array built from them, and the located
state's array is built once, for the record. integrate forms the
quadratic's slopes once per step it tests, with the one function every
reader of the slopes calls (rosenbrock.kernel_slopes, bound once per run
for either method): a two-stage step off the band, for the dip test and
location, and a one-stage step only where its ends cross, for location,
as a one-stage chord is a line in theta (m2 = 0), which never dips. A dot
product whose exact sum is past the float range gives an infinite slope,
not an error, and location then searches with ITP.
A hit of a declared slow/fast problem is classified on its float rows
(filippov.filippov_coeffs), outside the counted field evaluations.

A first step after a crossing whose hit is located within THETA_TOL of its
start turns straight back (numerical chattering, e.g. a one-stage step at
tau/eps >> 1 relaxing the fast state): switching again would repeat the hit
without advancing t, so the run ends with Termination.CHATTERING. That hit
is not recorded, the field does not switch, the events so far are kept.

Every step runs on one path, in integrate's loop, on the step kernel
(rosenbrock.kernel) and the pieces the loop binds once per run. Each field
is problems.eval_field with the problem and the field's number bound in,
handed the step's x0 as a list of Python floats, and each Jacobian is
problems.field_jacobian on those floats. Both give one form, checked
there: a field's value as floats, a Jacobian as n rows of n floats, which
the loop factors, compares and holds as they are. A float-form field or
Jacobian (problems.FloatField) runs on the floats; any other gets the
float array eval_field or field_jacobian builds from them, with the bits
of the step's state. The run carries its state as those floats from its
entry check until it returns: a step that continues the last step (the same
field from that step's x1) starts from the very floats that step holds of
x1. The mesh keeps each accepted state as an array, built once per step
(an undeclared h is handed the same array), and a hit's record.x_star:
rows kept as floats until the return would hold both forms there at once,
nearly doubling a long run's peak memory.

At a fixed step the step matrix I - gamma*tau*J changes only when J or
tau does, and on fields that are linear in each region J is constant. The
run holds the one set of LU factors: the loop keeps those of its last
step's matrix and reuses them while J's rows (compared by value, which
fixes the step matrix's bits) and tau are unchanged; they live in the call
and die with it, and reusing them gives the same step bit for bit as
factoring again. IntegrationStats.lu_factorizations counts the
factorizations that actually ran, those of a step that failed included.
A step takes a fresh J, but one that continues the last step keeps that
step's matrix when it may be held, the very rows object that step holds:
a declared affine problem's (problems.Affine) A_i, evaluated on a visit's
first step, or a kept finite-difference W (below). Such a step costs f(x0)
and one kernel call on the kept factors, refactored only when the step
size changes (a remainder at t_end). A visit evaluates and holds its own
A_i even when its entries equal the last visit's, whose factors it then
solves with. A dense-guarded step of region 1 (onesided._guarded_step)
differs only in its kernel call; its case-1b trials factor their own sizes.

A finite-difference (FD) Jacobian differs in its last bits from state to
state, so on its own it would miss that key on every step. But the
two-stage scheme is the ROS2 of Verwer, Spee, Blom & Hundsdorfer (SIAM J.
Sci. Comput. 20, 1999), which keeps order 2 at the step's end for any
matrix W in place of J: a W-method (Steihaug & Wolfbrandt, Math. Comp. 33,
1979). So a continuing step of a field without an analytic Jacobian
keeps the W of the previous step while W has served fewer than
REUSE_STEPS steps and the previous step's secant fits W to FD-error level
(_secant_source); else it takes a fresh FD J. A kept W has the factor key's
rows, so its step compares tau only and reuses the key's factors. A run
takes a fresh FD J at its start and on every region entry, and keeps W in
either region: a one-stage guard at a hit certifies the family its step
was drawn from, that step's own matrix (a kept W included) and f(x0), and
evaluates no field or Jacobian of its own. An analytic Jacobian of a field
not declared affine is evaluated afresh on every step.
W does not cancel from the dense output: its interior carries the extra
term c*gamma*2*theta*(1 - theta)*tau^2*(W - J)*f(x0), zero at theta = 0
and theta = 1, so event states keep their order but the interpolant's
error constant grows with |W - J|, which the secant check keeps at
FD-error level.
IntegrationStats.jacobian_evaluations counts the Jacobians evaluated.

Every hit that is not located is recorded at theta = 1, the step endpoint:
an endpoint inside the surface band |h| <= problems.SIGMA_TOL that is on
the surface or on the departing side, and every hit in the naive mode
(locate_events=False). An endpoint strictly past the surface is located,
even inside the band. The naive mode runs no guard and no classification:
each hit is a crossing, accepted as-is, and the field switches at the mesh
point. It exists to measure the order reduction this causes.

A run owns its counts (IntegrationStats): integrate makes them
linalg.current_run until the run returns or raises, and each is added
where its work happens, in problems.eval_field, problems.field_jacobian
and linalg.lu_factor. So runs that share a problem, nested (from
_on_step) or in other threads, each count only their own work.
"""

from __future__ import annotations

import enum
import functools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import filippov, linalg, onesided, problems, rosenbrock
from .errors import NoBracket, NotOrthogonal, NumericalError, SingularMatrix

# Bracket width in theta at which event location stops. The ITP search of
# [0, 1] reaches it after at most 41 iterations, one more than bisection.
THETA_TOL = 1e-12

# h evaluations the closed-form location spends at and around the root of
# the surface polynomial before it falls back to the ITP search
SNAP_TRIES = 4

# Most consecutive steps one FD Jacobian serves (integrate). A secant
# sees W only along the step, so a field affine along the path but not across
# it passes every check; this cap bounds how long its W can go stale.
REUSE_STEPS = 16

# A kept W fits the last step's secant when each component of the residual
# f(x0) - f(x_prev) - W.(x0 - x_prev) is within SECANT_RTOL of
# |f(x0)| + |f(x_prev)|: the FD Jacobian's own error on an affine field
# leaves residuals well below it, a curved field's step well above it.
SECANT_RTOL = 1e-6


class Direction(enum.Enum):
    R1_TO_R2 = "R1toR2"
    R2_TO_R1 = "R2toR1"


class Termination(enum.Enum):
    REACHED_T_END = "t_end"
    SLIDING = "sliding"
    GUARD_FAILURE = "guard-failure"
    SOLVER_FAILURE = "solver-failure"
    TANGENTIAL = "tangential"
    MAX_EVENTS = "max-events"
    CHATTERING = "chattering"


@dataclass(frozen=True)
class IntegratorConfig:
    tau: float
    t_end: float
    method: rosenbrock.RosMethod = rosenbrock.ROS2
    h_tol: float = 1e-12
    locate_events: bool = True
    guard_mode: onesided.GuardMode | None = None
    max_events: int | None = None


@dataclass(frozen=True)
class EventRecord:
    """One surface hit: where inside the step, when, and how well resolved.

    converged is always True: location ends by residual or by bracket
    width, never by an iteration cap.
    """

    step_index: int
    theta_star: float
    t_star: float
    x_star: np.ndarray
    residual: float
    direction: Direction
    root_iterations: int
    converged: bool = True


@dataclass
class IntegrationStats:
    """Per-run counts, added where the work happens (module docstring);
    f_evals and domain_violations by field number. lu_factorizations
    counts the linalg.lu_factor calls: one per factor-key miss and one per
    case-1b trial. jacobian_evaluations counts the problems.field_jacobian
    calls, analytic or FD: one per step that takes a fresh J, so a declared
    affine field adds one per region visit; a guard reads its step's J."""

    f_evals: dict = field(default_factory=lambda: {1: 0, 2: 0})
    domain_violations: dict = field(default_factory=lambda: {1: 0, 2: 0})
    lu_factorizations: int = 0
    steps: int = 0
    jacobian_evaluations: int = 0


@dataclass(frozen=True)
class TrajectoryResult:
    mesh: list
    events: list
    stats: IntegrationStats
    termination: Termination
    guard_reports: list = field(default_factory=list)


def detect_sign_change(h0: float, h1: float) -> bool:
    """Strict sign change between two h values; exact zeros do not count
    (the surface-band logic owns those)."""
    return (h0 < 0.0 < h1) or (h1 < 0.0 < h0)


def _dips_across(g0: float, m1: float, m2: float) -> bool:
    """Whether g0 + m1*theta + (m2/2)*theta^2, whose slope m1 + m2*theta
    changes sign inside (0, 1) (the caller tests m1 and m1 + m2), turns at
    a vertex beyond the band on the side away from g0."""
    g_vertex = g0 - 0.5 * m1 * (m1 / m2)  # |m1/m2| = theta_v < 1
    return g_vertex > problems.SIGMA_TOL if g0 < 0.0 else g_vertex < -problems.SIGMA_TOL


def _same_bits(a: list, b: list) -> bool:
    """Whether two lists of floats of one length hold the same bits, as
    their arrays' tobytes() would say. Floats that compare equal have the
    same bits but for the zeros' signs, and a NaN never compares equal, so
    a list with a zero or a NaN (or whose sum is NaN) compares bytes."""
    total = sum(a)
    if total != total or 0.0 in a:
        return array("d", a).tobytes() == array("d", b).tobytes()
    return a == b


def locate_event(step: rosenbrock.RosenbrockStep, h, cfg: IntegratorConfig,
                 step_index: int = 0, t_offset: float = 0.0,
                 h0: float | None = None, h1: float | None = None,
                 surface: problems.Surface | None = None,
                 slopes: tuple | None = None) -> EventRecord:
    """Find the first surface hit inside a step on its dense output.

    With a declared affine surface, g(theta) = h(X1(theta)) is a quadratic
    whose first root in (0, 1) is taken in closed form and checked on the
    real h: it is accepted on the departing side (h0's sign) within
    cfg.h_tol, or on the surface; else up to SNAP_TRIES probes step across
    it and accept the departing end of a bracket narrower than THETA_TOL.
    A probe whose state X1(theta) is bit for bit the previous probe's
    takes that probe's h instead of calling h again. The ends of the step
    may share a sign (an even number of crossings). slopes, when given, is
    step.slopes(surface.n) as the caller has formed it, with the same
    generated function (rosenbrock.kernel_slopes); else it is formed here.
    Otherwise, or when the probes do not settle it, linalg.safe_side_root
    searches the bracket known so far ([0, 1] when h0 and h1 differ in
    sign), from g at its far end, with cfg.h_tol and width THETA_TOL.
    With a surface given, h is handed each state as the floats of
    step.value_floats, as a declared surface's h takes them; else as the
    float array step.value builds from those floats. Either way the located
    state never trespasses, x_star is the array step.value(theta_star), and
    location costs h evaluations only (root_iterations counts them). Raises
    NoBracket when no bracket is found.
    """
    X1 = step.value if surface is None else step.value_floats

    def g(theta):
        return float(h(X1(theta)))

    if h0 is None:
        h0 = g(0.0)
    neg = h0 < 0.0
    lo, g_lo, hi, g_hi, calls = 0.0, h0, None, None, 0
    x_lo = None  # the floats of X1(lo) when a probe set lo
    settled = False
    theta = None
    if surface is not None and h0 != 0.0:
        m1, m2 = slopes or step.slopes(surface.n.tolist())
        theta = linalg.quadratic_root(h0, m1, m2, 1.0)
    seen = None  # the last probe's state
    for k in range(SNAP_TRIES if theta is not None else 0):
        x_theta = X1(theta)
        if seen is None or not _same_bits(x_theta, seen):
            seen = x_theta
            g_theta = float(h(x_theta))
            calls += 1
        # else X1 is flat at this theta resolution: h reads as before
        departing = g_theta < 0.0 if neg else g_theta > 0.0
        if departing or g_theta == 0.0:
            lo, g_lo, x_lo = theta, g_theta, x_theta
        else:  # the far side, or NaN
            hi, g_hi = theta, g_theta
        settled = (g_theta == 0.0 or (departing and abs(g_theta) <= cfg.h_tol)
                   or (hi is not None and hi - lo <= THETA_TOL))
        if settled or (hi is not None and lo > 0.0):
            break
        # step across the root, at least an ulp, twice as far each time
        slope = abs(m1 + theta * m2)
        shift = 2.0 ** (k + 1) * max(math.ulp(theta),
                                     abs(g_theta) / slope if slope else math.inf)
        theta = theta + shift if departing else theta - shift
        if not 0.0 < theta < 1.0:
            break
    if not settled:
        # no closed form, or a bracket the probes did not narrow enough
        if hi is None:
            if h1 is None:
                h1 = g(1.0)
            if not detect_sign_change(h0, h1):
                raise NoBracket(f"no sign change across the step: h0={h0:g}, h1={h1:g}")
            hi, g_hi = 1.0, h1
        lo, g_lo, more = linalg.safe_side_root(g, lo, hi, g_lo, g_hi, cfg.h_tol, THETA_TOL)
        calls += more
        x_lo = None
    return EventRecord(
        step_index=step_index,
        theta_star=lo,
        t_star=t_offset + lo * step.tau,
        x_star=step.value(lo) if x_lo is None else np.array(x_lo),
        residual=abs(g_lo),
        direction=Direction.R1_TO_R2 if neg else Direction.R2_TO_R1,
        root_iterations=calls,
    )


def _validate_config(cfg: IntegratorConfig) -> None:
    if not cfg.tau > 0.0:
        raise ValueError(f"tau must be positive, got {cfg.tau}")
    if not 0.0 < cfg.t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {cfg.t_end}")
    if not 0.0 <= cfg.h_tol < np.inf:
        raise ValueError(f"h_tol must be non-negative and finite, got {cfg.h_tol}")
    if cfg.max_events is not None and cfg.max_events < 1:
        raise ValueError(f"max_events must be at least 1, got {cfg.max_events}")
    method = cfg.method
    if method.stages not in (1, 2):
        raise ValueError(f"method {method.label!r} (stages={method.stages}) is neither ROS1 "
                         f"nor ROS2, the only methods the step kernel runs")
    gm = cfg.guard_mode
    if gm is onesided.GuardMode.ROS2_DENSE and cfg.method.stages != 2:
        raise ValueError("the dense-output guard requires the two-stage method")
    if gm in (onesided.GuardMode.ROS1_GENERAL, onesided.GuardMode.ROS1_ORTHOGONAL) \
            and cfg.method.stages != 1:
        raise ValueError("series guards apply to the one-stage method only")


def _classify_event(problem: problems.PiecewiseProblem,
                    record: EventRecord) -> filippov.Kind:
    spp = problem.source_spp
    if spp is not None:
        coeffs = filippov.filippov_coeffs(spp, record.x_star)
        kind = filippov.classify_spp(coeffs, spp.eps)
        if kind is not filippov.Kind.SLIDING:
            return kind
    # the located state is on the surface by construction; widen the band
    # check to its recorded residual
    sigma_tol = max(problems.SIGMA_TOL, 2.0 * record.residual)
    return filippov.classify_general(problem, record.x_star, sigma_tol=sigma_tol).kind


def _secant_source(n: int) -> list:
    """fits(f1, f0, x1, x0, W) for size n, which integrate binds once per
    run for its kept-W steps: whether W fits the secant from x0 to x1, f1
    and f0 the field there and W n rows of n Python floats, within
    SECANT_RTOL (rtol) in every component. Each residual is
    f1_i - f0_i - (W_i0*d0 + W_i1*d1 + ...), d = x1 - x0, the products
    summed left to right (linalg._sums); a NaN never fits."""
    f1, f0, x1, x0, d = ([f"{c}{i}" for i in range(n)] for c in "abuvd")
    w = [[f"w{i}_{k}" for k in range(n)] for i in range(n)]
    rows = [f"abs({f1[i]} - {f0[i]} - {wd}) <= rtol * (abs({f1[i]}) + abs({f0[i]}))"
            for i, wd in enumerate(linalg._sums(w, d))]
    return linalg.define("fits(f1, f0, x1, x0, W)", [
        f"[{', '.join(f1)}] = f1", f"[{', '.join(f0)}] = f0",
        f"[{', '.join(x1)}] = x1", f"[{', '.join(x0)}] = x0",
        f"[{', '.join('[' + ', '.join(r) + ']' for r in w)}] = W",
        *(f"{d[k]} = {x1[k]} - {x0[k]}" for k in range(n)),
        f"return {' and '.join(rows)}"])


# Called, when set, as _on_step(x, active, step, jacobians) after every step
# integrate takes: the floats of the state the step started from, its
# field, the RosenbrockStep and the Jacobians it evaluated. integrate reads
# it once per run; None in normal use.
_on_step = None


def integrate(problem: problems.PiecewiseProblem, x0, cfg: IntegratorConfig) -> TrajectoryResult:
    """Integrate from t = 0 with event handling per the module docstring.

    The initial state must be finite and lie strictly off the surface band,
    with a finite h, and t_end must be finite. Crossings switch the active
    field and continue; sliding and tangential hits stop the integration, as do
    chattering and solver and guard failures (reported in `termination`, not
    raised); an orthogonal guard whose step matrix is not orthogonal
    (NotOrthogonal) is a guard failure with no report. Any other
    NumericalError or ValueError a step raises propagates to the caller as
    its own type with step context: DomainViolation from a field evaluated
    outside its domain, ResidualTooLarge from a reduced model's field,
    ValueError from a field value or Jacobian that is not finite or of the
    wrong shape, and NonFiniteState, a ValueError, from a step whose end
    state overflowed, so a non-finite state never reaches the mesh, h or
    the next step. A NaN h at a step's end, which has no side, raises
    ValueError with step context. A guarded run (cfg.guard_mode) needs a
    declared surface (onesided); on any other it raises ValueError before h
    or a field is evaluated.
    """
    stats = IntegrationStats()
    token = linalg.current_run.set(stats)
    try:
        return _integrate(problem, x0, cfg, stats)
    finally:
        linalg.current_run.reset(token)


def _integrate(problem, x0, cfg, stats):
    # integrate's run, its counts added to stats as they happen
    _validate_config(cfg)
    if cfg.guard_mode is not None:
        onesided._surface_normal(problem)
    x = np.asarray(x0, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 must have shape ({problem.dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x.tolist()}")
    h_at_x = float(problem.h(x))
    if not np.isfinite(h_at_x):
        raise ValueError(f"h is not finite at the initial state: h(x0) = {h_at_x}")
    if abs(h_at_x) <= problems.SIGMA_TOL:
        raise ValueError("initial state lies on the switching surface")
    active = 1 if h_at_x < 0.0 else 2

    # from here to the return the state is a list of floats
    t, mesh = 0.0, [(0.0, x.copy())]
    x = x.tolist()
    events: list = []
    guard_reports: list = []
    step_index = 0
    guard = cfg.guard_mode
    # the run's pieces, bound once: each field counted through eval_field,
    # a list of floats in and out as the step kernel takes it, its Jacobian,
    # and what every step reads
    fields = (functools.partial(problems.eval_field, problem, 1),
              functools.partial(problems.eval_field, problem, 2))
    jacobian = problems.field_jacobian
    # per field, the uses a fresh J starts at: 1 for a finite-difference J,
    # whose W a continuing step may keep, 0 for an analytic one. A one-stage
    # guard certifies whatever matrix its hit step factored, a kept W too.
    fresh_uses = (int(problem.jac_f1 is None), int(problem.jac_f2 is None))
    h = problem.h
    # a declared surface's h takes the floats a step holds of its x1
    h_floats = problem.surface is not None
    sigma_tol = problems.SIGMA_TOL
    tau, t_end, locate = cfg.tau, cfg.t_end, cfg.locate_events
    # the step kernel, and the secant test of a field without an analytic
    # Jacobian
    affine = problem.affine is not None
    stages, gamma = cfg.method.stages, cfg.method.gamma
    kernel_step = rosenbrock.kernel(stages, problem.dim)
    fits = (linalg.generated(_secant_source, problem.dim, {"rtol": SECANT_RTOL})
            if problem.jac_f1 is None or problem.jac_f2 is None else None)
    # the dense guard's region-1 step splits at its first stage
    pair = (rosenbrock.kernel_pair(2, problem.dim)
            if guard is onesided.GuardMode.ROS2_DENSE else None)
    h_tol = cfg.h_tol
    # the last step and its field, and what a step that continues it
    # reuses: the key (J's rows, tau) and LU factors of the last step matrix
    # factored, that step's f(x0), and the steps its J has served when it is
    # a finite-difference J or a W kept from one (uses; 0 for any other J)
    last = last_active = key_rows = key_tau = factors = fx0 = None
    uses = 0
    observe = _on_step
    # a declared surface's normal and the slopes of the method's steps
    # along it, for location and, for two stages, the even-count test
    normal = None if problem.surface is None else problem.surface.n.tolist()
    if normal is not None:
        slopes_of = rosenbrock.kernel_slopes(stages, len(normal))
    dip_test = normal is not None and stages == 2
    # a remainder this small is round-off in t, not a step
    end_tol = 4.0 * np.spacing(max(1.0, abs(t_end)))

    while True:
        remaining = t_end - t
        if remaining <= end_tol:
            termination = Termination.REACHED_T_END
            break
        size = min(tau, remaining)
        field = fields[active - 1]
        # a step that continues the last step (the same field from its
        # x1) starts from the floats that step holds of x1
        cont = last is not None and last_active == active and last.x1f is x
        try:
            fx = field(x)
            if cont and (uses < REUSE_STEPS and fits(fx, fx0, x, last.x0f, key_rows)
                         if uses else affine):
                # the rows the last step held, which are the key's: a
                # declared affine field's A_i, or a finite-difference W
                # while it has served fewer than REUSE_STEPS steps and
                # fits the last step's secant
                J, jacobians = last.jac, 0
                if uses:
                    uses += 1
            else:
                J, jacobians, uses = jacobian(problem, active, x), 1, fresh_uses[active - 1]
            # the key compares J's rows by value: rows that compare equal
            # give the step matrix's bits (+0.0 and -0.0 both give
            # 0.0 - g*J_ij = 0.0). A key is kept only once lu_factor has
            # taken its rows, so it holds no NaN, and a row with a NaN
            # matches none. It holds a copy: a float-form Jacobian's rows
            # are its own lists.
            if size != key_tau or J != key_rows:
                factors = rosenbrock.factor(J, size, gamma)
                key_rows, key_tau = [r[:] for r in J], size
            if pair is not None and active == 1:
                step = onesided._guarded_step(problem, x, fx, size, J, factors, h_tol, field,
                                              pair)
            else:
                step = kernel_step(field, x, fx, size, J, factors)
            last, last_active, fx0 = step, active, fx
        except (SingularMatrix, NoBracket) as exc:
            # a singular step matrix, or the one-sided step-shortening
            # machinery failed; the work the step did has counted as it ran
            termination = (Termination.SOLVER_FAILURE if isinstance(exc, SingularMatrix)
                           else Termination.GUARD_FAILURE)
            break
        except (NumericalError, ValueError) as exc:
            # any other failure of the step names the step
            raise type(exc)(
                f"{exc} (step {step_index}, t = {t:.12g}, field {active})"
            ) from exc

        stats.steps += 1
        if observe is not None:
            observe(x, active, step, jacobians)
        x1 = step.x1  # the mesh's row
        h_new = float(h(step.x1f if h_floats else x1))
        if h_new != h_new:
            # a NaN has no side: the step may have crossed the surface unseen
            raise ValueError(f"h is NaN at the end of step {step_index}, "
                             f"t = {t + step.tau:.12g}: h(x1) = {h_new}")
        on_band = abs(h_new) <= sigma_tol
        crossed = h_new > 0.0 if active == 1 else h_new < 0.0
        record = None
        # an endpoint past the surface is located even inside the band: a
        # state recorded there would be classified with the field it left
        if (crossed or (not on_band and dip_test)) and locate:
            slopes = None
            if normal is not None:
                # formed once for the dip test and for location
                slopes = m1, m2 = slopes_of(normal, step.k1f, step.k2f)
            dips = crossed
            if not crossed:
                # with both ends on one side, a two-stage step's h(X1(theta))
                # may still cross and return: _dips_across once the slope
                # changes sign in (0, 1). A one-stage chord (m2 = 0) never
                # does, so its uncrossed steps form no slopes.
                d1 = m1 + m2
                dips = (((m1 > 0.0 and d1 < 0.0) or (m1 < 0.0 and d1 > 0.0))
                        and _dips_across(h_at_x, m1, m2))
            if dips:
                try:
                    record = locate_event(step, h, cfg, step_index, t, h0=h_at_x, h1=h_new,
                                          surface=problem.surface, slopes=slopes)
                except NoBracket:
                    if crossed:
                        raise
                    # a dip of the polynomial that h itself does not confirm
                else:
                    crossed = True

        if not (on_band or crossed):
            t += step.tau
            x = step.x1f
            mesh.append((t, x1))
            h_at_x = h_new
            step_index += 1
            continue

        if locate and guard is not None and active == 1:
            if guard is onesided.GuardMode.ROS2_DENSE:
                rep = onesided.guard_ros2_dense(problem, step)
            else:
                # the one-stage guard certifies the family this step was
                # drawn from: its own matrix, a kept W included, and f(x0)
                try:
                    rep = onesided._one_stage_report(guard, problem.surface.n, step.jac,
                                                     lambda: fx0, step.tau, gamma)
                except NotOrthogonal:
                    # a step matrix that is not orthogonal certifies nothing
                    termination = Termination.GUARD_FAILURE
                    break
            guard_reports.append((step_index, rep))
            if not rep.passed:
                termination = Termination.GUARD_FAILURE
                break

        if record is None:
            direction = Direction.R1_TO_R2 if active == 1 else Direction.R2_TO_R1
            record = EventRecord(step_index, 1.0, t + step.tau, x1,
                                 abs(h_new), direction, 0, True)
        elif events and events[-1].t_star == t and record.theta_star <= THETA_TOL:
            # chattering: the first step after a crossing turned back
            termination = Termination.CHATTERING
            break

        events.append(record)
        if record.t_star > mesh[-1][0]:
            mesh.append((record.t_star, record.x_star))
        if cfg.max_events is not None and len(events) >= cfg.max_events:
            termination = Termination.MAX_EVENTS
            break

        if locate:
            kind = _classify_event(problem, record)
        else:
            kind = filippov.Kind.CROSSING
        if kind is filippov.Kind.CROSSING:
            active = 2 if record.direction is Direction.R1_TO_R2 else 1
            x = record.x_star.tolist()
            t = record.t_star
            # x sits on the side it left or on the surface, so its own h has
            # no sign to start the next step from: take the band's edge on
            # the new side
            h_at_x = -sigma_tol if active == 1 else sigma_tol
            step_index += 1
            continue
        if kind in (filippov.Kind.SLIDING, filippov.Kind.SLIDING_ATTRACTIVE,
                    filippov.Kind.SLIDING_REPULSIVE):
            termination = Termination.SLIDING
            break
        termination = Termination.TANGENTIAL
        break

    return TrajectoryResult(
        mesh=mesh, events=events, stats=stats,
        termination=termination, guard_reports=guard_reports,
    )

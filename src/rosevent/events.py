"""Event-driven fixed-step integration with dense-output event location.

The driver advances one branch field with a fixed step (take_step). After
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

A first step after a crossing whose hit is located within THETA_TOL of its
start turns straight back (numerical chattering, e.g. a one-stage step at
tau/eps >> 1 relaxing the fast state): switching again would repeat the hit
without advancing t, so the run ends with Termination.CHATTERING. That hit
is not recorded, the field does not switch, the events so far are kept.

At a fixed step the step matrix I - gamma*tau*J changes only when J or
tau does, and on fields that are linear in each region J is constant. Each
integrate call therefore keeps the LU factors of its last plain step and
reuses them while J's rows (compared by value, which fixes the step
matrix's bits), tau and gamma are unchanged; the kept
factors live in the call and die with it, and reusing them gives the same
step bit for bit as factoring again. IntegrationStats.lu_factorizations
counts the factorizations that actually ran, those of a step that failed
included. On a declared affine problem (problems.Affine) J is the region's
A_i: a plain step evaluates it on entering a region and the visit's later
steps keep it. A visit evaluates and holds its own A_i even when its
entries equal the last visit's, whose factors it then solves with. A plain
step that continues the last one starts from the floats that step holds
of its x1.

A finite-difference (FD) Jacobian differs in its last bits from state to
state, so on its own it would miss that key on every step. But the
two-stage scheme is the ROS2 of Verwer, Spee, Blom & Hundsdorfer (SIAM J.
Sci. Comput. 20, 1999), which keeps order 2 at the step's end for any
matrix W in place of J: a W-method (Steihaug & Wolfbrandt, Math. Comp. 33,
1979). So a plain step of a field without an analytic Jacobian may keep the
W of the previous step (take_step): while the field stays in one region, the
previous step's secant fits W to FD-error level, and W has served fewer
than REUSE_STEPS steps. A kept W has the same rows, so the factor key above
reuses its factors too. A run takes a fresh FD J at its start and on every
region entry. Analytic Jacobians of a field not declared affine, and the
guarded step, always take a fresh J. W does not cancel from the dense
output: its interior carries the extra term
c*gamma*2*theta*(1 - theta)*tau^2*(W - J)*f(x0), zero at theta = 0 and
theta = 1, so event states keep their order but the interpolant's error
constant grows with |W - J|, which the secant check keeps at FD-error level.
IntegrationStats.jacobian_evaluations counts the Jacobians evaluated.

Every hit that is not located is recorded at theta = 1, the step endpoint:
an endpoint inside the surface band |h| <= problems.SIGMA_TOL that is on
the surface or on the departing side, and every hit in the naive mode
(locate_events=False). An endpoint strictly past the surface is located,
even inside the band. The naive mode runs no guard and no classification:
each hit is a crossing, accepted as-is, and the field switches at the mesh
point. It exists to measure the order reduction this causes.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import filippov, linalg, onesided, problems, rosenbrock
from .errors import DomainViolation, NoBracket, NonFiniteState, SingularMatrix

# Bracket width in theta at which event location stops. The ITP search of
# [0, 1] reaches it after at most 41 iterations, one more than bisection.
THETA_TOL = 1e-12

# h evaluations the closed-form location spends at and around the root of
# the surface polynomial before it falls back to the ITP search
SNAP_TRIES = 4

# Most consecutive plain steps one FD Jacobian serves (take_step). A secant
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
    """Per-run counts. lu_factorizations counts the LU factorizations that
    ran: a plain step that reuses the run's kept factors adds none.
    jacobian_evaluations counts the field Jacobians evaluated, analytic or
    FD: one per step that takes a fresh J and one per one-stage guard. A
    plain step that keeps its W adds none, and a declared affine field
    adds one per region visit."""

    f_evals: dict
    domain_violations: dict
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
    """Whether g0 + m1*theta + (m2/2)*theta^2 turns inside (0, 1) at a
    vertex beyond the band on the side away from g0."""
    d1 = m1 + m2
    if not ((m1 > 0.0 and d1 < 0.0) or (m1 < 0.0 and d1 > 0.0)):
        return False
    g_vertex = g0 - 0.5 * m1 * (m1 / m2)  # |m1/m2| = theta_v < 1
    return g_vertex > problems.SIGMA_TOL if g0 < 0.0 else g_vertex < -problems.SIGMA_TOL


def locate_event(step: rosenbrock.RosenbrockStep, h, cfg: IntegratorConfig,
                 step_index: int = 0, t_offset: float = 0.0,
                 h0: float | None = None, h1: float | None = None,
                 surface: problems.Surface | None = None) -> EventRecord:
    """Find the first surface hit inside a step on its dense output.

    With a declared affine surface, g(theta) = h(X1(theta)) is a quadratic
    whose first root in (0, 1) is taken in closed form and checked on the
    real h: it is accepted on the departing side (h0's sign) within
    cfg.h_tol, or on the surface; else up to SNAP_TRIES probes step across
    it and accept the departing end of a bracket narrower than THETA_TOL.
    A probe whose state X1(theta) is bit for bit the previous probe's
    takes that probe's h instead of calling h again. The ends of the step
    may share a sign (an even number of crossings).
    Otherwise, or when the probes do not settle it, linalg.safe_side_root
    searches the bracket known so far ([0, 1] when h0 and h1 differ in
    sign), from g at its far end, with cfg.h_tol and width THETA_TOL.
    Either way the located state never trespasses, and location costs h
    evaluations only (root_iterations counts them). Raises NoBracket when
    no bracket is found.
    """
    X1 = step.value

    def g(theta):
        return float(h(X1(theta)))

    if h0 is None:
        h0 = g(0.0)
    neg = h0 < 0.0
    lo, g_lo, hi, g_hi, calls = 0.0, h0, None, None, 0
    settled = False
    theta = None
    if surface is not None and h0 != 0.0:
        m1, m2 = step.slopes(surface.n.tolist())
        theta = linalg.quadratic_root(h0, m1, m2, 1.0)
    seen = None  # the bytes of the last probe's state
    for k in range(SNAP_TRIES if theta is not None else 0):
        x_theta = X1(theta)
        key = x_theta.tobytes()
        if key != seen:
            seen = key
            g_theta = float(h(x_theta))
            calls += 1
        # else X1 is flat at this theta resolution: h reads as before
        departing = g_theta < 0.0 if neg else g_theta > 0.0
        if departing or g_theta == 0.0:
            lo, g_lo = theta, g_theta
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
    return EventRecord(
        step_index=step_index,
        theta_star=lo,
        t_star=t_offset + lo * step.tau,
        x_star=X1(lo),
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
    gm = cfg.guard_mode
    if gm is onesided.GuardMode.ROS2_DENSE and cfg.method.stages != 2:
        raise ValueError("the dense-output guard requires the two-stage method")
    if gm in (onesided.GuardMode.ROS1_GENERAL, onesided.GuardMode.ROS1_ORTHOGONAL) \
            and cfg.method.stages != 1:
        raise ValueError("series guards apply to the one-stage method only")


def _classify_event(problem: problems.PiecewiseProblem,
                    record: EventRecord) -> filippov.Kind:
    # the located state is on the surface by construction; widen the band
    # check to its recorded residual
    sigma_tol = max(problems.SIGMA_TOL, 2.0 * record.residual)
    spp = problem.source_spp
    if spp is not None:
        coeffs = filippov.filippov_coeffs(spp, record.x_star)
        kind = filippov.classify_spp(coeffs, spp.eps)
        if kind is not filippov.Kind.SLIDING:
            return kind
    return filippov.classify_general(problem, record.x_star, sigma_tol=sigma_tol).kind


class _Kept:
    """What a run's plain steps hand on (take_step), owned by the run and
    updated in place: the key (J's rows, tau, gamma) and LU factors of the
    last step matrix factored, the last plain step and its field, that
    step's f(x0), and the steps its J has served when it is a
    finite-difference J or a W kept from one (uses; 0 for any other J)."""

    __slots__ = ("key", "factors", "active", "step", "fx0", "uses")

    def __init__(self, key: tuple, factors: linalg.LuFactors):
        self.key = key
        self.factors = factors


def _keeps_w(kept: _Kept, x0f: list, fx: list) -> bool:
    """Whether the W of the last plain step, which the step from x0f with
    fx = f(x0f) continues (same field, x0f its x1), may serve this step: W
    came from a finite-difference J and has served fewer than REUSE_STEPS
    steps, and the secant from the last step's x0 fits W within
    SECANT_RTOL in every component (a NaN never fits)."""
    if not 0 < kept.uses < REUSE_STEPS:
        return False
    dx = [a - b for a, b in zip(x0f, kept.step.x0f)]
    # the key's rows are W's, see take_step
    for f1, f0, row in zip(fx, kept.fx0, kept.key[0]):
        r = f1 - f0 - sum(map(operator.mul, row, dx))
        if not abs(r) <= SECANT_RTOL * (abs(f1) + abs(f0)):
            return False
    return True


def _run_fields(problem: problems.PiecewiseProblem) -> tuple:
    # per field, the counted field as the step kernel takes it and whether
    # it and its Jacobian run on floats, so a step hands them x's floats,
    # not x
    return ((problems.field_floats(problem, 1), problems.takes_floats(problem.f1),
             problems.takes_floats(problem.jac_f1)),
            (problems.field_floats(problem, 2), problems.takes_floats(problem.f2),
             problems.takes_floats(problem.jac_f2)))


def take_step(problem: problems.PiecewiseProblem, x, tau: float, active: int,
              cfg: IntegratorConfig, kept=None, fields=None):
    """One step of the active field from x: the guarded two-stage step from
    region 1 under the dense guard, else a plain step of cfg.method. Both
    run on the step kernel (rosenbrock.kernel) and check nothing of x, a
    finite float array of the problem's dimension, as integrate checks it
    once.

    kept is None or what this function returned for the previous step of
    the same run, which this call may update in place. A plain step that
    takes the same field from the last plain step's x1 (the same array)
    continues that step: it starts from the floats the step holds of x1,
    and on a declared affine field (problem.affine) it keeps the step's J,
    the region's A_i, so J is evaluated once per region visit. A plain
    step of a field without an analytic Jacobian evaluates f(x) first, the
    value its first stage needs anyway, and keeps the previous plain step's
    W instead of a fresh finite-difference J when _keeps_w says so (it
    continues that step, W has had fewer than REUSE_STEPS uses and the
    secant residual is at FD-error level; no field call). Every other step
    takes a fresh J: the first step of a run or of a region visit, an
    analytic Jacobian of a field not declared affine, and the guarded step.
    A float-form field or Jacobian (problems.takes_floats) is handed x's
    floats, and such a Jacobian's float rows are factored as they are.
    A plain step whose factor key (the rows of its J or W as Python
    floats, tau, gamma) equals the kept one solves with the kept LU factors
    of I - gamma*tau*J, and a step that keeps its affine J compares tau and
    gamma only; any other plain step factors that matrix and keeps it. Rows
    that compare equal give the step matrix's bits, so both give the same
    step bit for bit. The guarded step factors on its own and hands kept on
    as it was. fields is what a run makes once (_run_fields); None makes it
    here.

    Returns (step, factorizations, jacobians, kept): the LU factorizations
    this call ran (0 when it used the kept factors) and the Jacobians it
    evaluated (0 when it kept J or W). step.jac is the matrix the step used,
    as given (float rows or an array), and step.J reads it as an array.
    step.tau is the size actually taken, below tau only when case 1b
    shortened the step. A step that fails, a SingularMatrix or a case-1b
    NoBracket, carries the factorizations it ran and the Jacobians it
    evaluated on the exception (errors.NumericalError), and integrate counts
    them as it counts a step's.
    """
    field, floats_in, jac_floats = (fields or _run_fields(problem))[active - 1]
    # the last plain step, when this one continues it
    last = (kept.step if kept is not None and kept.active == active and kept.step.x1 is x
            else None)
    x0f = x.tolist() if last is None else last.x1f
    # the state as the field's Jacobian takes it
    x_jac = x0f if jac_floats else x
    if cfg.guard_mode is onesided.GuardMode.ROS2_DENSE and active == 1:
        J = problems.field_jacobian(problem, active, x_jac)
        fx = field(x0f if floats_in else x)
        try:
            step, factorizations = onesided._guarded_step(problem, x, x0f, fx, tau, J,
                                                          cfg.h_tol, field)
        except (SingularMatrix, NoBracket) as exc:
            exc.jacobians += 1
            raise
        return step, factorizations, 1, kept
    fx = field(x0f if floats_in else x)
    gamma = cfg.method.gamma
    affine_visit = last is not None and problem.affine is not None
    # uses: the steps the J of this step has served, 0 but for a kept W
    if affine_visit:
        J, jacobians, uses = last.jac, 0, 0
    elif (problem.jac_f1 if active == 1 else problem.jac_f2) is not None:
        J, jacobians, uses = problems.field_jacobian(problem, active, x_jac), 1, 0
    elif last is not None and _keeps_w(kept, x0f, fx):
        J, jacobians, uses = last.jac, 0, kept.uses + 1
    else:
        J, jacobians, uses = problems.field_jacobian(problem, active, x), 1, 1
    factorizations = 0
    if not (affine_visit and kept.key[1] == tau and kept.key[2] == gamma):
        # the key compares J's rows by value: rows that compare equal give
        # the step matrix's bits (+0.0 and -0.0 both give 0.0 - g*J_ij =
        # 0.0). A key is kept only once lu_factor has taken its rows, so
        # it holds no NaN, and a row with a NaN matches none. It holds a
        # copy: a float-form Jacobian's rows are its own lists.
        rows = J if type(J) is list else J.tolist()
        if kept is None or kept.key != (rows, tau, gamma):
            try:
                factors = rosenbrock.factor(rows, tau, gamma)
            except SingularMatrix as exc:
                exc.jacobians += jacobians
                raise
            kept = _Kept(([row[:] for row in rows], tau, gamma), factors)
            factorizations = 1
    factors = kept.factors
    run = rosenbrock.kernel(cfg.method.stages, len(x0f))
    step = run.finish(field, x, x0f, tau, J, factors, run.stage1(factors, fx, tau))
    kept.active, kept.step, kept.fx0, kept.uses = active, step, fx, uses
    return step, factorizations, jacobians, kept


def integrate(problem: problems.PiecewiseProblem, x0, cfg: IntegratorConfig) -> TrajectoryResult:
    """Integrate from t = 0 with event handling per the module docstring.

    The initial state must be finite and lie strictly off the surface band,
    with a finite h, and t_end must be finite. Crossings switch the active
    field and continue; sliding and tangential hits stop the integration, as do
    chattering and solver and guard failures (reported in `termination`, not
    raised). DomainViolation from a field evaluated outside its domain
    propagates to the caller with step context, and so does
    NonFiniteState, a ValueError, from a step whose end state overflowed:
    a non-finite state never reaches the mesh, h or the next step. A NaN h
    at a step's end, which has no side, raises ValueError with step context.
    """
    _validate_config(cfg)
    x = np.asarray(x0, dtype=float).copy()
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

    f_before, v_before = problem.counters.snapshot()
    lu_count = jac_count = 0
    # factors and W of the last plain step, see take_step; local to this call
    kept = None
    steps_taken = 0
    t = 0.0
    mesh = [(0.0, x.copy())]
    events: list = []
    guard_reports: list = []
    step_index = 0
    guard = cfg.guard_mode
    # the run's pieces, bound once: the counted fields as the step kernel
    # takes them, and what every step reads
    fields = _run_fields(problem)
    h = problem.h
    # a declared surface's h takes the floats a step holds of its x1
    h_floats = problem.surface is not None
    sigma_tol = problems.SIGMA_TOL
    tau, t_end, locate = cfg.tau, cfg.t_end, cfg.locate_events
    # a declared surface's normal, for the even-count test on every step;
    # the one-stage chord is a line in theta and cannot cross twice
    if problem.surface is None or cfg.method.stages == 1:
        normal = None
    else:
        normal = problem.surface.n.tolist()
    # a remainder this small is round-off in t, not a step
    end_tol = 4.0 * np.spacing(max(1.0, abs(t_end)))

    while True:
        remaining = t_end - t
        if remaining <= end_tol:
            termination = Termination.REACHED_T_END
            break
        try:
            step, factorizations, jacobians, kept = take_step(
                problem, x, min(tau, remaining), active, cfg, kept, fields)
        except (SingularMatrix, NoBracket) as exc:
            # a singular step matrix, or the one-sided step-shortening
            # machinery failed; the work the step did still counts
            lu_count += exc.factorizations
            jac_count += exc.jacobians
            termination = (Termination.SOLVER_FAILURE if isinstance(exc, SingularMatrix)
                           else Termination.GUARD_FAILURE)
            break
        except (DomainViolation, NonFiniteState) as exc:
            raise type(exc)(
                f"{exc} (step {step_index}, t = {t:.12g}, field {active})"
            ) from exc

        lu_count += factorizations
        jac_count += jacobians
        steps_taken += 1
        h_new = float(h(step.x1f if h_floats else step.x1))
        if h_new != h_new:
            # a NaN has no side: the step may have crossed the surface unseen
            raise ValueError(f"h is NaN at the end of step {step_index}, "
                             f"t = {t + step.tau:.12g}: h(x1) = {h_new}")
        on_band = abs(h_new) <= sigma_tol
        crossed = h_new > 0.0 if active == 1 else h_new < 0.0
        record = None
        # an endpoint past the surface is located even inside the band: a
        # state recorded there would be classified with the field it left
        if (crossed or (not on_band and normal is not None)) and locate:
            # with both ends on one side, h(X1(theta)) may still cross and return
            if crossed or _dips_across(h_at_x, *step.slopes(normal)):
                try:
                    record = locate_event(step, h, cfg, step_index, t,
                                          h0=h_at_x, h1=h_new, surface=problem.surface)
                except NoBracket:
                    if crossed:
                        raise
                    # a dip of the polynomial that h itself does not confirm
                else:
                    crossed = True

        if not (on_band or crossed):
            t += step.tau
            x = step.x1
            mesh.append((t, x))
            h_at_x = h_new
            step_index += 1
            continue

        if locate and guard is not None and active == 1:
            if guard is onesided.GuardMode.ROS2_DENSE:
                rep = onesided.guard_ros2_dense(problem, step)
            elif guard is onesided.GuardMode.ROS1_GENERAL:
                rep = onesided.guard_ros1_general(problem, x, step.tau, cfg.method.gamma)
            else:
                rep = onesided.guard_ros1_orthogonal(problem, x, step.tau, cfg.method.gamma)
            if guard is not onesided.GuardMode.ROS2_DENSE:
                jac_count += 1  # the one-stage guards evaluate J at x
            guard_reports.append((step_index, rep))
            if not rep.passed:
                termination = Termination.GUARD_FAILURE
                break

        if record is None:
            direction = Direction.R1_TO_R2 if active == 1 else Direction.R2_TO_R1
            record = EventRecord(step_index, 1.0, t + step.tau, step.x1,
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
            x = record.x_star
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

    f_after, v_after = problem.counters.snapshot()
    stats = IntegrationStats(
        f_evals={k: f_after[k] - f_before[k] for k in f_after},
        domain_violations={k: v_after[k] - v_before[k] for k in v_after},
        lu_factorizations=lu_count,
        steps=steps_taken,
        jacobian_evaluations=jac_count,
    )
    return TrajectoryResult(
        mesh=mesh, events=events, stats=stats,
        termination=termination, guard_reports=guard_reports,
    )

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
a quadratic in theta (rosenbrock._surface_slopes): a step is hit when h
changes sign across it or when the quadratic dips past the band and back,
and the hit is the quadratic's first root, checked on the real h
(Shampine, Gladwell & Brankin, ACM TOMS 17, 1991). Any other h is judged
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
reuses them while J (bit for bit), tau and gamma are unchanged; the kept
factors live in the call and die with it. The result is the same, bit for
bit, as factoring on every step. IntegrationStats.lu_factorizations counts
the factorizations that actually ran.

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
from dataclasses import dataclass, field

import numpy as np

from . import filippov, linalg, onesided, problems, rosenbrock
from .errors import DomainViolation, NoBracket, SingularMatrix

# Bracket width in theta at which event location stops. The ITP search of
# [0, 1] reaches it after at most 41 iterations, one more than bisection.
THETA_TOL = 1e-12

# h evaluations the closed-form location spends at and around the root of
# the surface polynomial before it falls back to the ITP search
SNAP_TRIES = 4


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
    ran: a plain step that reuses the run's kept factors adds none."""

    f_evals: dict
    domain_violations: dict
    lu_factorizations: int = 0
    steps: int = 0


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


def _first_root(g0: float, m1: float, m2: float):
    """The first root in (0, 1) of g0 + m1*theta + (m2/2)*theta^2, g0 != 0,
    or None, without cancellation (Higham, Accuracy and Stability of
    Numerical Algorithms, 1.8) and, scaled by a power of two, without
    overflow or underflow."""
    big = max(abs(g0), abs(m1), abs(m2))
    if 0.0 < big < math.inf:
        e = -math.frexp(big)[1]
        g0, m1, m2 = math.ldexp(g0, e), math.ldexp(m1, e), math.ldexp(m2, e)
    a = 0.5 * m2
    if a == 0.0:
        roots = (-g0 / m1,) if m1 != 0.0 else ()
    else:
        disc = m1 * m1 - 4.0 * a * g0
        if not disc >= 0.0:
            return None
        q = -0.5 * (m1 + math.copysign(math.sqrt(disc), m1))
        if q == 0.0:  # g0 underflowed in the scaling: both roots are 0
            return None
        roots = (q / a, g0 / q)
    inside = [r for r in roots if 0.0 < r < 1.0]
    return min(inside) if inside else None


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
    The ends of the step may share a sign (an even number of crossings).
    Otherwise, or when the probes do not settle it, linalg.safe_side_root
    searches the bracket known so far ([0, 1] when h0 and h1 differ in
    sign), from g at its far end, with cfg.h_tol and width THETA_TOL.
    Either way the located state never trespasses, and location costs h
    evaluations only (root_iterations counts them). Raises NoBracket when
    no bracket is found.
    """
    X1 = rosenbrock._DenseOutput(step).value

    def g(theta):
        return float(h(X1(theta)))

    if h0 is None:
        h0 = g(0.0)
    neg = h0 < 0.0
    lo, g_lo, hi, g_hi, calls = 0.0, h0, None, None, 0
    settled = False
    theta = None
    if surface is not None and h0 != 0.0:
        m1, m2 = rosenbrock._surface_slopes(step, surface.n.tolist())
        theta = _first_root(h0, m1, m2)
    for k in range(SNAP_TRIES if theta is not None else 0):
        g_theta = g(theta)
        calls += 1
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


def take_step(problem: problems.PiecewiseProblem, x, tau: float, active: int,
              cfg: IntegratorConfig, kept=None):
    """One step of the active field from x: the guarded two-stage step from
    region 1 under the dense guard, else a plain step of cfg.method.

    kept is None or the (key, factors) pair this function returned for the
    previous step of the same run. A plain step whose key (the bytes and
    shape of J, tau, gamma) equals the kept one solves with the kept LU
    factors of I - gamma*tau*J; any other plain step factors that matrix
    and keeps the new pair. The key compares bits, so both give the same
    step bit for bit. The guarded step factors on its own and leaves the
    pair as it was.

    Returns (step, factorizations, kept); factorizations counts the LU
    factorizations this call ran, 0 when it used the kept factors. step.tau
    is the size actually taken, below tau only when case 1b shortened the
    step.
    """
    J = problems.field_jacobian(problem, active, x)
    if cfg.guard_mode is onesided.GuardMode.ROS2_DENSE and active == 1:
        step, factorizations = onesided.guarded_ros2_step(problem, x, tau, J, cfg.h_tol)
        return step, factorizations, kept
    gamma = cfg.method.gamma
    key = (J.tobytes(), J.shape, tau, gamma)
    if kept is not None and kept[0] == key:
        factorizations = 0
    else:
        kept = key, linalg.lu_factor(rosenbrock.step_matrix(J, tau, gamma))
        factorizations = 1
    stepper = rosenbrock.ros2_step if cfg.method.stages == 2 else rosenbrock.ros1_step
    step = stepper(problems.field_fn(problem, active), x, tau, J,
                   field_id=active, factors=kept[1])
    return step, factorizations, kept


def integrate(problem: problems.PiecewiseProblem, x0, cfg: IntegratorConfig) -> TrajectoryResult:
    """Integrate from t = 0 with event handling per the module docstring.

    The initial state must lie strictly off the surface band, with a finite
    h, and t_end must be finite. Crossings switch the active field and
    continue; sliding and tangential hits stop the integration, as do
    chattering and solver and guard failures (reported in `termination`, not
    raised). DomainViolation from a field evaluated outside its domain
    propagates to the caller with step context.
    """
    _validate_config(cfg)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 must have shape ({problem.dim},), got {x.shape}")
    h_at_x = float(problem.h(x))
    if not np.isfinite(h_at_x):
        raise ValueError(f"h is not finite at the initial state: h(x0) = {h_at_x}")
    if abs(h_at_x) <= problems.SIGMA_TOL:
        raise ValueError("initial state lies on the switching surface")
    active = 1 if h_at_x < 0.0 else 2
    h_sign_neg = h_at_x < 0.0

    f_before, v_before = problem.counters.snapshot()
    lu_count = 0
    # factors of the last plain step, see take_step; local to this call
    kept = None
    steps_taken = 0
    t = 0.0
    mesh = [(0.0, x.copy())]
    events: list = []
    guard_reports: list = []
    step_index = 0
    guard = cfg.guard_mode
    # a declared surface's normal, for the even-count test on every step;
    # the one-stage chord is a line in theta and cannot cross twice
    if problem.surface is None or cfg.method.stages == 1:
        normal = None
    else:
        normal = problem.surface.n.tolist()
    # a remainder this small is round-off in t, not a step
    end_tol = 4.0 * np.spacing(max(1.0, abs(cfg.t_end)))

    while True:
        remaining = cfg.t_end - t
        if remaining <= end_tol:
            termination = Termination.REACHED_T_END
            break
        try:
            step, factorizations, kept = take_step(
                problem, x, min(cfg.tau, remaining), active, cfg, kept)
        except SingularMatrix:
            termination = Termination.SOLVER_FAILURE
            break
        except NoBracket:
            # the one-sided step-shortening machinery failed
            termination = Termination.GUARD_FAILURE
            break
        except DomainViolation as exc:
            raise DomainViolation(
                f"{exc} (step {step_index}, t = {t:.12g}, field {active})"
            ) from exc

        lu_count += factorizations
        steps_taken += 1
        h_new = float(problem.h(step.x1))
        on_band = abs(h_new) <= problems.SIGMA_TOL
        crossed = detect_sign_change(-1.0 if h_sign_neg else 1.0, h_new)
        record = None
        # an endpoint past the surface is located even inside the band: a
        # state recorded there would be classified with the field it left
        if (crossed or (not on_band and normal is not None)) and cfg.locate_events:
            # the stored h at x can sit inside the band with an unreliable
            # sign right after an event; hand the locator a sign-consistent
            # start value
            if h_at_x != 0.0 and (h_at_x < 0.0) == h_sign_neg:
                h0_eff = h_at_x
            else:
                h0_eff = (-1.0 if h_sign_neg else 1.0) * problems.SIGMA_TOL
            # with both ends on one side, h(X1(theta)) may still cross and return
            if crossed or _dips_across(h0_eff, *rosenbrock._surface_slopes(step, normal)):
                try:
                    record = locate_event(step, problem.h, cfg, step_index, t,
                                          h0=h0_eff, h1=h_new, surface=problem.surface)
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
            h_sign_neg = h_new < 0.0
            step_index += 1
            continue

        if cfg.locate_events and guard is not None and active == 1:
            if guard is onesided.GuardMode.ROS2_DENSE:
                rep = onesided.guard_ros2_dense(problem, step)
            elif guard is onesided.GuardMode.ROS1_GENERAL:
                rep = onesided.guard_ros1_general(problem, x, step.tau, cfg.method.gamma)
            else:
                rep = onesided.guard_ros1_orthogonal(problem, x, step.tau, cfg.method.gamma)
            guard_reports.append((step_index, rep))
            if not rep.passed:
                termination = Termination.GUARD_FAILURE
                break

        if record is None:
            direction = Direction.R1_TO_R2 if h_sign_neg else Direction.R2_TO_R1
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

        if cfg.locate_events:
            kind = _classify_event(problem, record)
        else:
            kind = filippov.Kind.CROSSING
        if kind is filippov.Kind.CROSSING:
            active = 2 if record.direction is Direction.R1_TO_R2 else 1
            x = record.x_star
            t = record.t_star
            h_at_x = float(problem.h(x))
            h_sign_neg = active == 1
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
    )
    return TrajectoryResult(
        mesh=mesh, events=events, stats=stats,
        termination=termination, guard_reports=guard_reports,
    )

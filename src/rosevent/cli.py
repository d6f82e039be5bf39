"""Command-line front end: integrate, order-study, classify, guard-check.

Exit codes: 0 on success, 1 when a numerical routine fails (singular
matrix, domain violation, missing bracket, ...), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench, filippov, onesided, problems, rosenbrock
from .errors import NumericalError
from .events import IntegratorConfig, integrate

_GUARD_BY_NAME = {
    "off": None,
    "ros1": onesided.GuardMode.ROS1_GENERAL,
    "ros1-orth": onesided.GuardMode.ROS1_ORTHOGONAL,
    "ros2-dense": onesided.GuardMode.ROS2_DENSE,
}


def _csv_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        ) from None


def _build(args):
    """Instantiate the named builtin with whichever parameters were given."""
    params = {}
    for key in ("eps", "theta", "level", "lam"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return problems.builtin(args.problem, **params)


def _as_piecewise(spec):
    if isinstance(spec, problems.SppProblem):
        return problems.spp_flatten(spec)
    return spec


def _state(args, problem) -> np.ndarray:
    """--state, checked against the problem's dimension and for finite
    entries."""
    if len(args.state) != problem.dim:
        raise ValueError(
            f"--state must have {problem.dim} entries for problem "
            f"{args.problem!r}, got {len(args.state)}"
        )
    if not np.isfinite(args.state).all():
        raise ValueError(f"--state entries must be finite, got {args.state.tolist()}")
    return args.state


def _print_stats(result) -> None:
    stats = result.stats
    print(f"termination: {result.termination.value}")
    print(f"steps: {stats.steps}")
    print(f"events: {len(result.events)}")
    print(f"f evals: f1 {stats.f_evals.get(1, 0)}, f2 {stats.f_evals.get(2, 0)}")
    print(
        "domain violations: "
        f"f1 {stats.domain_violations.get(1, 0)}, "
        f"f2 {stats.domain_violations.get(2, 0)}"
    )
    print(f"lu factorizations: {stats.lu_factorizations}")


def _cmd_list_problems(args) -> int:
    for name in problems.problem_names():
        print(name)
    return 0


def _cmd_integrate(args) -> int:
    spec = _build(args)
    problem = _as_piecewise(spec)
    x0 = args.x0 if args.x0 is not None else problem.x0
    if x0 is None:
        raise ValueError(f"problem {args.problem!r} has no default state; pass --x0")
    cfg = IntegratorConfig(
        tau=args.tau,
        t_end=args.t_end,
        method=rosenbrock.method_by_name(args.method),
        locate_events=args.locate == "on",
        guard_mode=_GUARD_BY_NAME[args.guard],
        max_events=args.max_events,
    )
    result = integrate(problem, x0, cfg)
    _print_stats(result)
    for i, ev in enumerate(result.events):
        print(
            f"event {i}: t = {ev.t_star:.12g}, theta = {ev.theta_star:.12g}, "
            f"{ev.direction.value}, residual = {ev.residual:.3e}"
        )
    for step_index, rep in result.guard_reports:
        print(
            f"guard at step {step_index}: mode = {rep.mode.value}, "
            f"passed = {rep.passed}, certified sigma = {rep.certified_sigma:.6g}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(bench.trajectory_csv(result.mesh))
        print(f"trajectory written to {args.out}")
    if args.events:
        with open(args.events, "w") as fh:
            fh.write(bench.events_csv(result.events, problem.dim))
        print(f"events written to {args.events}")
    return 0


def _cmd_order_study(args) -> int:
    # run_order_study rejects negative halvings before any run; zero is a
    # valid study, but the table ends with an observed order, which needs
    # two rows
    if args.halvings == 0:
        raise ValueError("--halvings must be at least 1 to estimate an order, got 0")
    spec = _build(args)
    rows = bench.run_order_study(
        spec,
        method=rosenbrock.method_by_name(args.method),
        tau0=args.tau0,
        halvings=args.halvings,
        locate=args.locate == "on",
        t_end=args.t_end,
    )
    print(f"{'tau':>12}  {'global error':>14}  {'factor':>8}")
    for row in rows:
        factor = "" if row.reduction_factor is None else f"{row.reduction_factor:8.3f}"
        print(f"{row.tau:12.3e}  {row.global_error:14.6e}  {factor}")
    print(f"mean observed order: {bench.mean_observed_order(rows):.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(bench.order_study_csv(rows))
        print(f"study written to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    spec = _build(args)
    problem = _as_piecewise(spec)
    state = _state(args, problem)
    if isinstance(spec, problems.SppProblem):
        coeffs = filippov.filippov_coeffs(spec, state)
        print(f"A = {coeffs.A:.12g}")
        print(f"B = {coeffs.B:.12g}")
        print(f"Csq = {coeffs.Csq:.12g}")
        print(f"quadratic value at eps = {spec.eps:g}: {coeffs.quadratic(spec.eps):.12g}")
        kind = filippov.classify_spp(coeffs, spec.eps)
        print(f"classification: {kind.value}")
        eps2 = filippov.sliding_sufficient(coeffs)
        if eps2 is None:
            print("sliding guaranteed for large eps: no "
                  "(leading coefficient A is not negative)")
        else:
            print(f"sliding guaranteed for eps > {eps2:.12g}")
        crossing_all = filippov.crossing_sufficient(coeffs)
        print(f"crossing for all eps > 0: {'yes' if crossing_all else 'no'}")
    try:
        pointwise = filippov.classify_general(problem, state)
        p1, p2 = pointwise.normal_products
        print(f"pointwise: {pointwise.kind.value} (n.f1 = {p1:.6g}, n.f2 = {p2:.6g})")
    except ValueError as exc:
        print(f"pointwise classification skipped: {exc}")
    return 0


def _cmd_guard_check(args) -> int:
    spec = _build(args)
    problem = _as_piecewise(spec)
    x0 = _state(args, problem)
    mode = _GUARD_BY_NAME[args.mode]
    if mode is onesided.GuardMode.ROS1_GENERAL:
        rep = onesided.guard_ros1_general(problem, x0, args.tau, rosenbrock.GAMMA_ROS1)
    elif mode is onesided.GuardMode.ROS1_ORTHOGONAL:
        rep = onesided.guard_ros1_orthogonal(problem, x0, args.tau, rosenbrock.GAMMA_ROS1)
    elif mode is onesided.GuardMode.ROS2_DENSE:
        J = problems.field_jacobian(problem, 1, x0)
        step, _ = onesided.guarded_ros2_step(problem, x0, args.tau, J)
        if step.tau < args.tau:
            print(f"internal stage trespassed; step shortened to sigma = {step.tau:.12g}")
        rep = onesided.guard_ros2_dense(problem, step)
    else:
        raise ValueError("guard-check needs a concrete mode, not 'off'")
    print(f"mode: {rep.mode.value}")
    print(f"passed: {rep.passed}")
    if mode is onesided.GuardMode.ROS2_DENSE:
        n_grid = rep.coefficients.get("n_grid")
        print("certificate: exact (affine surface)" if n_grid is None
              else f"certificate: {n_grid:.0f}-point sample (not exhaustive)")
    for key, value in rep.coefficients.items():
        print(f"{key} = {value:.12g}")
    print(f"certified sigma: {rep.certified_sigma:.12g}")
    print(f"contraction bound holds: {rep.neumann_ok}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosevent",
        description="Event-driven Rosenbrock integration of piecewise-smooth systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_params(p):
        p.add_argument("--problem", required=True,
                       help="builtin problem name (see list-problems)")
        p.add_argument("--eps", type=float, help="fast time-scale parameter")
        p.add_argument("--theta", type=float, help="relay mixing parameter")
        p.add_argument("--level", type=float, help="threshold level")
        p.add_argument("--lam", type=float, help="linear field rate")

    p = sub.add_parser("list-problems", help="print the builtin problem names")
    p.set_defaults(func=_cmd_list_problems)

    p = sub.add_parser("integrate", help="integrate with event handling")
    add_problem_params(p)
    p.add_argument("--tau", type=float, required=True, help="fixed step size")
    p.add_argument("--t-end", type=float, required=True, help="integration horizon")
    p.add_argument("--method", choices=("ros1", "ros2"), default="ros2")
    p.add_argument("--guard", choices=tuple(_GUARD_BY_NAME), default="off")
    p.add_argument("--locate", choices=("on", "off"), default="on",
                   help="locate surface hits inside steps (off = naive switching)")
    p.add_argument("--x0", type=_csv_floats, help="initial state, comma-separated")
    p.add_argument("--max-events", type=int, help="stop after this many surface hits")
    p.add_argument("--out", help="write the mesh trajectory CSV here")
    p.add_argument("--events", help="write the event CSV here")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("order-study", help="halved-step convergence study")
    add_problem_params(p)
    p.add_argument("--tau0", type=float, required=True, help="coarsest step size")
    p.add_argument("--halvings", type=int, default=4)
    p.add_argument("--method", choices=("ros1", "ros2"), default="ros2")
    p.add_argument("--locate", choices=("on", "off"), default="on")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--out", help="write the study CSV here")
    p.set_defaults(func=_cmd_order_study)

    p = sub.add_parser("classify", help="classify a surface state")
    add_problem_params(p)
    p.add_argument("--state", type=_csv_floats, required=True,
                   help="surface state, comma-separated")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("guard-check", help="evaluate a one-sided step guard")
    add_problem_params(p)
    p.add_argument("--state", type=_csv_floats, required=True,
                   help="step start state, comma-separated")
    p.add_argument("--tau", type=float, required=True, help="step size to certify")
    p.add_argument("--mode", choices=("ros1", "ros1-orth", "ros2-dense"),
                   required=True)
    p.set_defaults(func=_cmd_guard_check)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    raise SystemExit(cli_main())

"""Reference solutions, convergence studies, CSV output, and the CLI."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import rosevent.bench
import rosevent.problems
from rosevent.bench import (
    OrderStudyRow,
    events_csv,
    mean_observed_order,
    order_study_csv,
    parse_order_study_csv,
    reference_event_state,
    run_order_study,
    trajectory_csv,
)
from rosevent.cli import cli_main
from rosevent.errors import NoEventBeforeHorizon
from rosevent import rosenbrock
from rosevent.events import (
    IntegrationStats,
    IntegratorConfig,
    Termination,
    TrajectoryResult,
    integrate,
)
from rosevent.onesided import GuardMode
from rosevent.problems import PiecewiseProblem, builtin, spp_flatten


# --- reference runs ----------------------------------------------------------

def test_reference_event_state_hits_known_crossing():
    t, x = reference_event_state(builtin("tent"), [0.0], 1e-2)
    assert abs(t - 0.5) <= 1e-10
    npt.assert_allclose(x, [0.5], rtol=0, atol=1e-10)


def test_reference_state_stable_under_extra_refinement():
    problem = spp_flatten(builtin("kowalczyk", eps=1e-2))
    t1, x1 = reference_event_state(problem, problem.x0, 1e-3)
    # twice the refinement: the reference step 5e-4/64 is exactly 1e-3/128
    t2, x2 = reference_event_state(problem, problem.x0, 5e-4)
    assert abs(t1 - t2) <= 1e-9
    assert float(np.linalg.norm(x1 - x2)) <= 1e-8


def test_reference_requires_an_event():
    with pytest.raises(NoEventBeforeHorizon):
        reference_event_state(builtin("linear_test"), [1.0], 0.1)


# --- order studies -----------------------------------------------------------

def test_order_study_rows_and_factors():
    rows = run_order_study(builtin("kowalczyk", eps=1e-2), tau0=1e-3, halvings=2)
    assert len(rows) == 3
    assert rows[0].reduction_factor is None
    for k, row in enumerate(rows):
        assert row.tau == pytest.approx(1e-3 * 0.5**k)
        assert row.eps == 1e-2
        assert row.global_error > 0.0
    for row in rows[1:]:
        # second-order halving: factors near 4
        assert 2.0 < row.reduction_factor < 8.0
    assert 1.0 < mean_observed_order(rows) < 3.0


def test_order_study_requires_initial_state():
    bare = PiecewiseProblem(
        dim=1,
        f1=lambda x: np.array([1.0]),
        f2=lambda x: np.array([-1.0]),
        h=lambda x: x[0] - 0.5,
    )
    with pytest.raises(ValueError, match="initial state"):
        run_order_study(bare, tau0=0.1, halvings=1)


def test_order_study_rejects_negative_halvings(monkeypatch):
    def banned(*a, **k):  # pragma: no cover - should never run
        raise AssertionError("integration ran before the check")

    monkeypatch.setattr(rosevent.bench, "integrate", banned)
    with pytest.raises(ValueError, match="halvings"):
        run_order_study(builtin("kowalczyk", eps=1e-2), tau0=1e-3, halvings=-1)


def no_integration(*a, **k):  # pragma: no cover - must not run
    raise AssertionError("integration ran before the check")


@pytest.mark.parametrize("tau0", [-0.07, 0.0, math.nan, math.inf])
def test_order_study_checks_tau0_before_any_run(monkeypatch, tau0):
    monkeypatch.setattr(rosevent.bench, "integrate", no_integration)
    with pytest.raises(ValueError, match=f"tau0 must be positive and finite, got {tau0}"):
        run_order_study(builtin("tent"), tau0=tau0, halvings=1)


def test_order_study_with_zero_halvings_is_one_row():
    rows = run_order_study(builtin("tent"), tau0=0.07, halvings=0)
    assert len(rows) == 1
    assert rows[0].tau == 0.07
    assert rows[0].reduction_factor is None


def test_order_study_requires_events():
    with pytest.raises(NoEventBeforeHorizon,
                       match="^no surface hit before t = 1 in the reference run$"):
        run_order_study(builtin("linear_test"), tau0=0.1, halvings=1)


def guard_failure(problem, x0, cfg):
    return TrajectoryResult(mesh=[], events=[], termination=Termination.GUARD_FAILURE,
                            stats=IntegrationStats({1: 0, 2: 0}, {1: 0, 2: 0}))


def test_a_run_without_an_event_is_named_by_its_termination(monkeypatch):
    monkeypatch.setattr(rosevent.bench, "integrate", guard_failure)
    with pytest.raises(NoEventBeforeHorizon,
                       match="^the reference run ended by guard-failure before a surface hit$"):
        reference_event_state(builtin("tent"), [0.0], 0.1)

    # the reference run succeeds, the first study run stops early
    calls = []

    def reference_only(problem, x0, cfg):
        calls.append(cfg.tau)
        return (integrate if len(calls) == 1 else guard_failure)(problem, x0, cfg)

    monkeypatch.setattr(rosevent.bench, "integrate", reference_only)
    with pytest.raises(NoEventBeforeHorizon,
                       match="^the run at tau = 0.1 ended by guard-failure before a surface hit$"):
        run_order_study(builtin("tent"), tau0=0.1, halvings=1)


@pytest.mark.parametrize("name, method, guarded", [
    ("najafi", rosenbrock.ROS2, [True] * 5),
    ("najafi", rosenbrock.ROS1, [True] + [False] * 4),  # the reference is two-stage
    ("kowalczyk", rosenbrock.ROS2, [False] * 5),        # no domain
])
def test_order_study_guards_two_stage_runs_of_a_domain_problem(monkeypatch, name, method, guarded):
    modes = []

    def spy(problem, x0, cfg):
        modes.append(cfg.guard_mode)
        return integrate(problem, x0, cfg)

    monkeypatch.setattr(rosevent.bench, "integrate", spy)
    tau0 = 0.1 if name == "najafi" else 1e-3
    rows = run_order_study(builtin(name), method, tau0=tau0, halvings=3)
    assert modes == [GuardMode.ROS2_DENSE if g else None for g in guarded]
    if name == "najafi" and method is rosenbrock.ROS2:
        # unguarded, the reference steps past t = 1 and fails with a
        # DomainViolation; guarded, the order is below 2 (sqrt(1 - t))
        assert [round(r.reduction_factor, 3) for r in rows[1:]] == [2.907, 2.878, 2.864]


def test_a_derivative_free_square_root_order_study_keeps_the_analytic_factors():
    # najafi without Jacobians: its guarded region-1 steps take a fresh
    # finite-difference J each, one-sided where the stencil would leave
    # t <= 1, and the constant region-2 field keeps its W. The factors are
    # those of the analytic study (2.907, 2.878, 2.864) to within 0.05.
    najafi = builtin("najafi")
    bare = PiecewiseProblem(dim=2, f1=najafi.f1, f2=najafi.f2, surface=najafi.surface,
                            domain_f1=najafi.domain_f1, label="najafi/fd", x0=najafi.x0)
    rows = run_order_study(bare, rosenbrock.ROS2, tau0=0.1, halvings=3)
    factors = [r.reduction_factor for r in rows[1:]]
    assert len(factors) == 3
    for got, want in zip(factors, [2.907, 2.878, 2.864]):
        assert abs(got - want) <= 0.05, factors


def test_cli_order_study_on_the_square_root_model(capsys):
    code = cli_main(["order-study", "--problem", "najafi", "--tau0", "0.1", "--halvings", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean observed order: 1.528\n" in out


def test_mean_observed_order_needs_factors():
    with pytest.raises(ValueError, match="two rows"):
        mean_observed_order([OrderStudyRow(0.1, None, 1.0, None)])


# --- CSV encodings -----------------------------------------------------------

def test_order_study_csv_round_trip():
    rows = [
        OrderStudyRow(tau=1e-3, eps=1e-2, global_error=3.2e-5, reduction_factor=None),
        OrderStudyRow(tau=5e-4, eps=1e-2, global_error=8.1e-6, reduction_factor=3.95),
        OrderStudyRow(tau=2.5e-4, eps=None, global_error=2.0e-6, reduction_factor=4.05),
    ]
    text = order_study_csv(rows)
    assert text.splitlines()[0] == "tau,epsilon,global_error,reduction_factor"
    assert text == order_study_csv(rows)  # deterministic bytes
    back = parse_order_study_csv(text)
    assert back == rows  # repr round-trip keeps floats exact


def test_order_study_csv_rejects_foreign_header():
    with pytest.raises(ValueError, match="header"):
        parse_order_study_csv("a,b,c\n1,2,3\n")


def test_events_csv_layout():
    problem = builtin("tent")
    result = integrate(problem, [0.0], IntegratorConfig(tau=0.03, t_end=1.0))
    text = events_csv(result.events, problem.dim)
    lines = text.splitlines()
    assert lines[0] == "index,t,theta,direction,residual,x0"
    assert len(lines) == 1 + len(result.events)
    cells = lines[1].split(",")
    assert cells[3] == "R1toR2"
    assert float(cells[1]) == pytest.approx(0.5, abs=1e-9)


def test_trajectory_csv_layout():
    mesh = [(0.0, np.array([1.0, 2.0])), (0.5, np.array([0.5, 1.0]))]
    text = trajectory_csv(mesh)
    assert text.splitlines()[0] == "t,x0,x1"
    assert len(text.splitlines()) == 3
    with pytest.raises(ValueError, match="empty"):
        trajectory_csv([])


# --- command-line interface ----------------------------------------------------

def test_cli_list_problems(capsys):
    assert cli_main(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert "tent" in out and "kowalczyk" in out and "najafi" in out


def test_cli_integrate_reports_termination(capsys):
    code = cli_main(["integrate", "--problem", "tent",
                     "--tau", "0.03", "--t-end", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination: sliding" in out
    assert "event 0: t = 0.5" in out
    # one J for the 17 steps of one visit of a declared affine region, one
    # step matrix for all
    assert "steps: 17\n" in out
    assert "lu factorizations: 1\njacobian evaluations: 1\n" in out


def test_cli_integrate_takes_a_stiff_step_matrix(capsys):
    # at tau/eps = 1e14 the step matrix's rows differ in scale by 1e13; its
    # pivots are judged per row, so this is no solver failure
    code = cli_main(["integrate", "--problem", "kowalczyk", "--eps", "1e-16",
                     "--tau", "0.01", "--t-end", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination: t_end" in out
    # located on the declared surface's polynomial (residual ~2e-16); the
    # bisection before it stopped at ...250755 with residual 2.7e-12
    assert "event 0: t = 0.000739845250757," in out


def test_cli_integrate_counts_the_work_of_a_singular_step(capsys):
    # I - tau*J = 1 - 0.5*2 = 0: the run stops at its first step, whose J
    # was evaluated and whose factorization ran and raised
    code = cli_main(["integrate", "--problem", "linear_test", "--lam", "2", "--method", "ros1",
                     "--tau", "0.5", "--t-end", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination: solver-failure\nsteps: 0\n" in out
    assert "lu factorizations: 1\njacobian evaluations: 1\n" in out


def test_cli_integrate_reports_a_refused_orthogonal_guard_as_a_guard_failure(capsys):
    # the guard's NotOrthogonal ends the run, not the command
    code = cli_main(["integrate", "--problem", "kowalczyk", "--method", "ros1",
                     "--guard", "ros1-orth", "--tau", "1e-3", "--t-end", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination: guard-failure\nsteps: 7\nevents: 0\n" in out
    assert "lu factorizations: 1\njacobian evaluations: 2\n" in out


def test_cli_integrate_writes_files(tmp_path, capsys):
    mesh_file = tmp_path / "mesh.csv"
    events_file = tmp_path / "events.csv"
    code = cli_main(["integrate", "--problem", "kowalczyk", "--eps", "1e-2",
                     "--tau", "1e-3", "--t-end", "0.1", "--max-events", "1",
                     "--out", str(mesh_file), "--events", str(events_file)])
    assert code == 0
    assert mesh_file.read_text().startswith("t,x0,x1")
    event_lines = events_file.read_text().splitlines()
    assert event_lines[0] == "index,t,theta,direction,residual,x0,x1"
    assert len(event_lines) == 2


def test_cli_order_study_writes_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = cli_main(["order-study", "--problem", "kowalczyk", "--method", "ros2",
                     "--eps", "1e-2", "--tau0", "1e-3", "--halvings", "1",
                     "--out", str(out)])
    assert code == 0
    assert "mean observed order:" in capsys.readouterr().out
    rows = parse_order_study_csv(out.read_text())
    assert len(rows) == 2
    assert rows[0].eps == 1e-2


def test_cli_classify_slow_fast(capsys):
    code = cli_main(["classify", "--problem", "teixeira", "--eps", "1e-2",
                     "--state", "0.005,0,0.0025"])
    assert code == 0
    out = capsys.readouterr().out
    assert "classification: sliding" in out
    # q(eps) = -eps^2 + 2.5e-5 here, negative for eps > 0.005
    assert "sliding guaranteed for eps > 0.005\n" in out
    assert "pointwise: sliding-repulsive" in out


def test_cli_classify_without_a_sliding_threshold(capsys):
    # ostermann_modified on y1 = 0: A = z^2 >= 0, no large-eps guarantee
    assert cli_main(["classify", "--problem", "ostermann_modified",
                     "--state", "0,0.5,0.2"]) == 0
    out = capsys.readouterr().out
    assert "sliding guaranteed for large eps: no (leading coefficient A is not negative)" in out


def test_cli_classify_claims_no_threshold_from_an_overflowed_coefficient(capsys):
    # far off the surface Csq = (h_z.g)^2 overflows: q has no finite root,
    # so no threshold is claimed
    assert cli_main(["classify", "--problem", "kowalczyk", "--state", "1e200,0.5"]) == 0
    out = capsys.readouterr().out
    assert "Csq = inf\n" in out
    assert ("sliding guaranteed for large eps: no (a coefficient is not finite, "
            "or the threshold is out of range)\n") in out


def test_cli_classify_reports_off_surface_pointwise(capsys):
    code = cli_main(["classify", "--problem", "tent", "--state", "0.3"])
    assert code == 0
    assert "pointwise classification skipped" in capsys.readouterr().out


# `classify` output of the slow/fast builtins, as printed when each still
# had its own (y, z) slots; reading them off the stacked problem must not
# change a character (note "B = -0")
CLASSIFY_PINS = [
    (["kowalczyk", "--state", "1.9,0.9"],
     "A = -0.81\nB = 0\nCsq = 3.61\nquadratic value at eps = 0.01: 3.609919\n"
     "classification: crossing\nsliding guaranteed for eps > 2.11111111111\n"
     "crossing for all eps > 0: no\npointwise: crossing (n.f1 = 189.1, n.f2 = 190.9)\n"),
    (["kowalczyk", "--state=0.0019,0.0009"],
     "A = -0.81\nB = 0\nCsq = 3.61e-06\nquadratic value at eps = 0.01: -7.739e-05\n"
     "classification: sliding\nsliding guaranteed for eps > 0.00211111111111\n"
     "crossing for all eps > 0: no\npointwise: sliding-repulsive (n.f1 = -0.71, n.f2 = 1.09)\n"),
    (["teixeira", "--state", "1,0.5,0.5"],
     "A = -1\nB = 0\nCsq = 1\nquadratic value at eps = 0.01: 0.9999\n"
     "classification: crossing\nsliding guaranteed for eps > 1\n"
     "crossing for all eps > 0: no\npointwise: crossing (n.f1 = 99, n.f2 = 101)\n"),
    (["teixeira", "--eps", "1e-3", "--state=-0.4,2,-0.2"],
     "A = -1\nB = 0\nCsq = 0.16\nquadratic value at eps = 0.001: 0.159999\n"
     "classification: crossing\nsliding guaranteed for eps > 0.4\n"
     "crossing for all eps > 0: no\npointwise: crossing (n.f1 = -401, n.f2 = -399)\n"),
    (["ostermann_modified", "--eps", "1e-3", "--state", "0,-1,2"],
     "A = 4\nB = 0\nCsq = 0\nquadratic value at eps = 0.001: 4e-06\n"
     "classification: crossing\n"
     "sliding guaranteed for large eps: no (leading coefficient A is not negative)\n"
     "crossing for all eps > 0: no\npointwise: crossing (n.f1 = 2, n.f2 = 2)\n"),
    (["ostermann_modified", "--state", "0,0.5,-0.25"],
     "A = 0.0625\nB = -0\nCsq = 0\nquadratic value at eps = 0.001: 6.25e-08\n"
     "classification: crossing\n"
     "sliding guaranteed for large eps: no (leading coefficient A is not negative)\n"
     "crossing for all eps > 0: no\npointwise: crossing (n.f1 = -0.25, n.f2 = -0.25)\n"),
]


@pytest.mark.parametrize("args, expected", CLASSIFY_PINS)
def test_cli_classify_output_is_pinned(capsys, args, expected):
    assert cli_main(["classify", "--problem", *args]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_cli_names_eps_when_it_is_too_small_to_flatten(capsys):
    # 1/eps overflows: a usage error naming eps, and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["integrate", "--problem", "kowalczyk", "--eps", "1e-320",
                         "--tau", "0.01", "--t-end", "1"])
    assert code == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot flatten kowalczyk at eps = 1e-320: "
                            "a fast row divided by eps is not finite\n")


def test_cli_guard_check(capsys):
    code = cli_main(["guard-check", "--problem", "tent", "--state", "0.3",
                     "--tau", "0.25", "--mode", "ros1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "passed: True" in out
    assert "certified sigma: 0.25" in out


def test_cli_guard_check_dense_shortens_a_trespassing_step(capsys):
    # the README walkthrough: the internal stage of the full step passes
    # t = 1, so the step is shortened before the second field evaluation;
    # h of the internal stage is linear in sigma, so the search lands it on
    # t = 1 exactly, where h = 0 is allowed
    code = cli_main(["guard-check", "--problem", "najafi", "--state", "1,0.9",
                     "--tau", "0.125", "--mode", "ros2-dense"])
    assert code == 0
    out = capsys.readouterr().out
    assert "internal stage trespassed; step shortened to sigma = 0.1\n" in out
    assert "passed: True" in out


def test_cli_guard_check_dense_keeps_a_safe_step(capsys):
    code = cli_main(["guard-check", "--problem", "najafi", "--state", "1,0.5",
                     "--tau", "0.03125", "--mode", "ros2-dense"])
    assert code == 0
    out = capsys.readouterr().out
    assert "shortened" not in out
    assert "certified sigma: 0.03125\n" in out


def test_cli_guard_check_dense_names_an_exact_certificate(capsys):
    # najafi declares its surface t - 1 = 0, so d(theta) is a line
    code = cli_main(["guard-check", "--problem", "najafi", "--state", "1,0.9",
                     "--tau", "0.125", "--mode", "ros2-dense"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "certificate: exact (affine surface)" in lines


@pytest.mark.parametrize("mode", ["ros1", "ros1-orth", "ros2-dense"])
def test_cli_guard_check_refuses_an_undeclared_surface(capsys, monkeypatch, mode):
    # the same model with h given as a callable: no guard certifies on it
    def undeclared_najafi():
        declared = rosevent.problems._najafi()
        return PiecewiseProblem(
            dim=2, f1=declared.f1, f2=declared.f2, h=lambda u: u[1] - 1.0,
            grad_h=lambda u: np.array([0.0, 1.0]), jac_f1=declared.jac_f1,
            jac_f2=declared.jac_f2, domain_f1=declared.domain_f1, label="najafi")

    monkeypatch.setitem(rosevent.problems._REGISTRY, "najafi", undeclared_najafi)
    code = cli_main(["guard-check", "--problem", "najafi", "--state", "1,0.9",
                     "--tau", "0.125", "--mode", mode])
    assert code == 2
    out, err = capsys.readouterr()
    assert err == ("error: najafi declares no surface: a guard certifies only on a declared "
                   "affine surface (problems.Surface)\n")
    assert "passed:" not in out


def test_cli_guard_check_series_certifies_a_najafi_step(capsys):
    # the README walkthrough's one-stage certificate: the series guard reads
    # najafi's float-form Jacobian through field_jacobian's rows, as an array
    code = cli_main(["guard-check", "--problem", "najafi", "--state", "1,0.9",
                     "--tau", "0.125", "--mode", "ros1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "passed: True" in lines
    assert "certified sigma: 0.125" in lines


def test_cli_integrate_counts_a_guarded_najafi_run(capsys):
    # the README walkthrough's guarded run: 8 guarded steps up to t = 1,
    # each with its own J and factorization, then 8 plain region-2 steps,
    # each with a fresh J = 0 as float rows but one factorization for all
    code = cli_main(["integrate", "--problem", "najafi", "--guard", "ros2-dense",
                     "--tau", "0.125", "--t-end", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    for want in ("termination: t_end", "steps: 16", "f evals: f1 17, f2 17",
                 "domain violations: f1 0, f2 0", "lu factorizations: 9",
                 "jacobian evaluations: 16"):
        assert want in lines


def test_cli_guard_check_series_modes_name_no_dense_certificate(capsys):
    assert cli_main(["guard-check", "--problem", "tent", "--state", "0.3",
                     "--tau", "0.25", "--mode", "ros1"]) == 0
    assert "certificate:" not in capsys.readouterr().out


@pytest.mark.parametrize("problem, state, tau, mode, printed", [
    ("tent", "0.3", "0.25", "ros1", True),
    ("tent", "0.3", "0.25", "ros1-orth", False),
    ("najafi", "1,0.9", "0.125", "ros2-dense", False),
])
def test_cli_guard_check_prints_the_contraction_bound_only_where_checked(
        capsys, problem, state, tau, mode, printed):
    # only the general one-stage guard checks the Neumann series; the other
    # modes used to print "contraction bound holds: True" unchecked
    assert cli_main(["guard-check", "--problem", problem, "--state", state,
                     "--tau", tau, "--mode", mode]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"mode: {mode}" in lines
    assert ("contraction bound holds: True" in lines) is printed
    assert any(line.startswith("contraction bound") for line in lines) is printed


def test_cli_usage_errors_exit_2(capsys):
    assert cli_main(["no-such-command"]) == 2
    assert cli_main(["integrate", "--problem", "tent"]) == 2  # missing --tau
    assert cli_main(["integrate", "--problem", "unknown",
                     "--tau", "0.1", "--t-end", "1.0"]) == 2
    # parameter not accepted by this builtin
    assert cli_main(["integrate", "--problem", "tent", "--eps", "1e-3",
                     "--tau", "0.1", "--t-end", "1.0"]) == 2
    capsys.readouterr()


def test_cli_rejects_out_of_range_counts(capsys):
    for max_events in ("0", "-1"):
        assert cli_main(["integrate", "--problem", "tent", "--tau", "0.03",
                         "--t-end", "1.0", "--max-events", max_events]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_events must be at least 1" in captured.err
    assert cli_main(["order-study", "--problem", "tent", "--tau0", "0.07",
                     "--halvings", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "halvings must be non-negative" in captured.err


def test_cli_order_study_rejects_what_cannot_give_an_order(capsys, monkeypatch):
    monkeypatch.setattr(rosevent.bench, "integrate", no_integration)
    assert cli_main(["order-study", "--problem", "tent", "--tau0", "0.07",
                     "--halvings", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --halvings must be at least 1 to estimate an order, got 0\n"
    assert cli_main(["order-study", "--problem", "tent", "--tau0", "-0.07",
                     "--halvings", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tau0 must be positive and finite, got -0.07\n"


@pytest.mark.parametrize("mode, tau", [("ros1", "-0.25"), ("ros1", "inf"),
                                       ("ros1-orth", "0"), ("ros2-dense", "-0.125")])
def test_cli_guard_check_rejects_a_step_that_is_not_positive(capsys, mode, tau):
    code = cli_main(["guard-check", "--problem", "tent", "--state", "0.3",
                     "--tau", tau, "--mode", mode])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tau must be positive and finite, got {float(tau)}\n"


def test_cli_rejects_a_state_of_the_wrong_dimension(capsys):
    assert cli_main(["classify", "--problem", "kowalczyk", "--state", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --state must have 2 entries for problem 'kowalczyk', got 1\n"
    assert cli_main(["guard-check", "--problem", "najafi", "--state", "1,0.9,0",
                     "--tau", "0.125", "--mode", "ros2-dense"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --state must have 2 entries for problem 'najafi', got 3\n"


def test_cli_integrate_reports_chattering(capsys):
    # the README walkthrough command
    code = cli_main(["integrate", "--problem", "kowalczyk", "--method", "ros1",
                     "--tau", "0.05", "--t-end", "1.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination: chattering\n" in out
    assert "events: 2\n" in out


@pytest.mark.parametrize("argv, message", [
    (["integrate", "--problem", "tent", "--tau", "0.1", "--t-end", "inf"],
     "error: t_end must be positive and finite, got inf\n"),
    (["order-study", "--problem", "tent", "--tau0", "0.07", "--halvings", "1",
      "--t-end", "inf"],
     "error: t_end must be positive and finite, got inf\n"),
    (["integrate", "--problem", "kowalczyk", "--theta", "nan", "--tau", "0.1",
      "--t-end", "1"],
     "error: bad parameters for 'kowalczyk': n must be finite with shape (2,), got [nan nan]\n"),
    (["integrate", "--problem", "tent", "--level", "nan", "--tau", "0.1", "--t-end", "1"],
     "error: bad parameters for 'tent': c must be finite with shape (), got nan\n"),
    (["classify", "--problem", "kowalczyk", "--state", "nan,0"],
     "error: --state entries must be finite, got [nan, 0.0]\n"),
    (["guard-check", "--problem", "tent", "--state", "nan", "--tau", "0.1", "--mode", "ros1"],
     "error: --state entries must be finite, got [nan]\n"),
    (["guard-check", "--problem", "najafi", "--state", "1,inf", "--tau", "0.125",
      "--mode", "ros2-dense"],
     "error: --state entries must be finite, got [1.0, inf]\n"),
    # rejected at integrate's entry, not by the first step's Jacobian
    (["integrate", "--problem", "najafi", "--x0", "inf,0", "--tau", "0.1", "--t-end", "1"],
     "error: x0 must be finite, got [inf, 0.0]\n"),
])
def test_cli_rejects_values_that_are_not_finite(capsys, argv, message):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_cli_numerical_failures_exit_1(capsys):
    code = cli_main(["integrate", "--problem", "najafi", "--x0", "1,0.3",
                     "--tau", "0.125", "--t-end", "2.0"])
    assert code == 1
    assert "DomainViolation" in capsys.readouterr().err

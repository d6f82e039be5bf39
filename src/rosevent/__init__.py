"""Event-driven Rosenbrock integration for ODEs with a switching surface.

One- and two-stage linearly implicit steps with a second-order continuous
extension, dense-output event location that never evaluates a field past
the surface, one-sided step guards for fields with a singularity beyond it,
and a crossing/sliding classifier for slow/fast switched systems.

The package exports the entry points the README lists; everything else
lives in its module (rosevent.errors, rosevent.linalg, ...).
"""

from . import bench, errors, events, filippov, linalg, onesided, problems, rosenbrock
from .bench import (
    mean_observed_order,
    order_study_csv,
    parse_order_study_csv,
    reference_event_state,
    run_order_study,
)
from .events import (
    EventRecord,
    IntegratorConfig,
    Termination,
    TrajectoryResult,
    integrate,
    locate_event,
    take_step,
)
from .filippov import (
    classify_general,
    classify_spp,
    crossing_sufficient,
    filippov_coeffs,
    sliding_sufficient,
)
from .onesided import (
    guard_ros1_general,
    guard_ros1_orthogonal,
    guard_ros2_dense,
    guarded_ros2_step,
)
from .problems import (
    Affine,
    PiecewiseProblem,
    SppProblem,
    Surface,
    affine_problem,
    affine_spp,
    builtin,
    reduced_order_model,
    spp_flatten,
)
from .rosenbrock import (
    dense_derivative,
    dense_eval,
    restep,
    ros1_step,
    ros2_step,
)

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "EventRecord",
    "IntegratorConfig",
    "PiecewiseProblem",
    "SppProblem",
    "Surface",
    "Termination",
    "TrajectoryResult",
    "affine_problem",
    "affine_spp",
    "builtin",
    "classify_general",
    "classify_spp",
    "crossing_sufficient",
    "dense_derivative",
    "dense_eval",
    "filippov_coeffs",
    "guard_ros1_general",
    "guard_ros1_orthogonal",
    "guard_ros2_dense",
    "guarded_ros2_step",
    "integrate",
    "locate_event",
    "mean_observed_order",
    "order_study_csv",
    "parse_order_study_csv",
    "reduced_order_model",
    "reference_event_state",
    "restep",
    "ros1_step",
    "ros2_step",
    "run_order_study",
    "sliding_sufficient",
    "spp_flatten",
    "take_step",
]

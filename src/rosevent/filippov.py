"""Crossing/sliding classification at switching-surface hits.

At a state on the surface, the signs of the normal components of the two
branch fields decide between crossing and sliding. For slow/fast systems
the normal components of the stacked fields are eps^(-1)-singular, so the
decision is made on the polynomial

    q(eps) = A*eps^2 + B*eps + Csq
    A   = (h_y.f1) * (h_y.f2)
    B   = (h_y.f1) * (h_z.g) + (h_y.f2) * (h_z.g)
    Csq = (h_z.g)^2

which equals eps^2 times the product of the stacked normal components:
q < 0 means sliding, q > 0 crossing. Closed-form sufficient conditions in
eps come from the sign pattern of (A, B, discriminant).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import problems

# Absolute tolerance below which normal components / quadratic values are
# treated as degenerate (tangential).
TANGENT_TOL = 1e-10


class Kind(enum.Enum):
    CROSSING = "crossing"
    SLIDING = "sliding"
    SLIDING_ATTRACTIVE = "sliding-attractive"
    SLIDING_REPULSIVE = "sliding-repulsive"
    TANGENTIAL = "tangential"


@dataclass(frozen=True)
class SurfaceClassification:
    kind: Kind
    normal_products: tuple
    quadratic_value: float | None = None


@dataclass(frozen=True)
class FilippovCoeffs:
    A: float
    B: float
    Csq: float

    def quadratic(self, eps: float) -> float:
        return self.A * eps * eps + self.B * eps + self.Csq


def classify_general(problem: problems.PiecewiseProblem, x,
                     sigma_tol: float = problems.SIGMA_TOL) -> SurfaceClassification:
    """Classify a surface state by the normal components of both fields.

    Sliding is attractive when field 1 pushes h up while field 2 pushes it
    down (both point at the surface); repulsive when both point away.
    States with either normal component within TANGENT_TOL of zero are
    tangential.
    """
    x = np.asarray(x, dtype=float)
    hx = float(problem.h(x))
    if abs(hx) > sigma_tol:
        raise ValueError(f"state is not on the surface: h(x) = {hx:.3e}")
    n = problems.h_gradient(problem, x)
    p1 = float(n @ problems.eval_field(problem, 1, x))
    p2 = float(n @ problems.eval_field(problem, 2, x))
    if min(abs(p1), abs(p2)) <= TANGENT_TOL:
        kind = Kind.TANGENTIAL
    elif p1 * p2 > 0.0:
        kind = Kind.CROSSING
    elif p1 > 0.0 > p2:
        kind = Kind.SLIDING_ATTRACTIVE
    else:
        kind = Kind.SLIDING_REPULSIVE
    return SurfaceClassification(kind=kind, normal_products=(p1, p2))


def filippov_coeffs(problem: problems.SppProblem, u) -> FilippovCoeffs:
    """Quadratic coefficients at a stacked surface state (y, z)."""
    y, z = problem.split(u)
    hy, hz = problems.spp_h_gradients(problem, u)
    p1 = float(hy @ np.asarray(problem.f1(y, z), dtype=float))
    p2 = float(hy @ np.asarray(problem.f2(y, z), dtype=float))
    q = float(hz @ np.asarray(problem.g(y, z), dtype=float))
    return FilippovCoeffs(A=p1 * p2, B=p1 * q + p2 * q, Csq=q * q)


def classify_spp(coeffs: FilippovCoeffs, eps: float) -> Kind:
    """Sign of the quadratic at the given eps; attractive/repulsive
    discrimination is left to classify_general on the stacked problem."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    q = coeffs.quadratic(eps)
    if q < -TANGENT_TOL:
        return Kind.SLIDING
    if q > TANGENT_TOL:
        return Kind.CROSSING
    return Kind.TANGENTIAL


def sliding_sufficient(coeffs: FilippovCoeffs):
    """Threshold eps_2 above which the quadratic is negative (sliding), or
    None when A >= 0 gives no such guarantee.

    For A < 0 the positive root of the quadratic is
    (-B - sqrt(B^2 + 4|A|*Csq)) / (2A); q < 0 for all eps > eps_2.
    """
    if coeffs.A >= 0.0:
        return None
    disc = coeffs.B * coeffs.B + 4.0 * abs(coeffs.A) * coeffs.Csq
    return float((-coeffs.B - math.sqrt(disc)) / (2.0 * coeffs.A))


def crossing_sufficient(coeffs: FilippovCoeffs) -> bool:
    """True when the sign pattern forces q(eps) > 0 for every eps > 0."""
    disc = coeffs.B * coeffs.B - 4.0 * coeffs.A * coeffs.Csq
    if coeffs.A > 0.0 and disc < 0.0:
        return True
    return coeffs.A > 0.0 and coeffs.B > 0.0 and disc >= 0.0

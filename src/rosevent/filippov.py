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
eps come from the sign pattern of (A, B, discriminant). f_i, g, h_y and
h_z are the stacked problem's F_i and grad h split at slow_dim.

On a declared stacked problem (problems.Affine) the products h_y.f1, h_y.f2
and h_z.g are sums from +0.0, left to right, of the declared normal times
the float rows' values at the state's floats: no array is built, and the
bits do not depend on the BLAS (a one-term product's are numpy's). That g
is shared is a property of the declaration, which problems.SppProblem
checks once; an undeclared problem's F1 and F2 are compared at each state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, problems

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
    n, xf = problems.h_gradient(problem, x), x.tolist()
    p1 = float(n @ problems.eval_field(problem, 1, xf))
    p2 = float(n @ problems.eval_field(problem, 2, xf))
    if min(abs(p1), abs(p2)) <= TANGENT_TOL:
        kind = Kind.TANGENTIAL
    elif p1 * p2 > 0.0:
        kind = Kind.CROSSING
    elif p1 > 0.0 > p2:
        kind = Kind.SLIDING_ATTRACTIVE
    else:
        kind = Kind.SLIDING_REPULSIVE
    return SurfaceClassification(kind=kind, normal_products=(p1, p2))


def _sum_products(a: list, b: list) -> float:
    # 0.0 + a_0*b_0 + a_1*b_1 + ... on Python floats, summed left to right
    # from +0.0 as numpy's dot sums, so a one-term product's zero is +0.0
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def filippov_coeffs(problem: problems.SppProblem, u) -> FilippovCoeffs:
    """Quadratic coefficients at a stacked surface state u = (y, z).

    On a declared stacked problem (stacked.affine, whose fields are its
    float rows) F1 and F2 are its rows' float forms on u's floats, and p1 =
    h_y.f1, p2 = h_y.f2 and q = h_z.g are left-to-right sums with the
    declared normal, so their bits do not depend on the BLAS; SppProblem
    has checked that the fast rows are shared. Otherwise F1, F2 and the
    gradient of h are arrays, and ValueError when F1 and F2 differ in a
    fast row (g must be shared)."""
    st, s = problem.stacked, problem.slow_dim
    # raw callables, analytic gradient when given: classifying a hit is not
    # field work, so it adds nothing to the run's counts or counted layers
    aff = st.affine
    if aff is not None:
        uf = np.asarray(u, dtype=float).tolist()
        n, F1, F2 = aff.n.tolist(), st.f1.floats(uf), st.f2.floats(uf)
        p1 = _sum_products(n[:s], F1[:s])
        p2 = _sum_products(n[:s], F2[:s])
        q = _sum_products(n[s:], F1[s:])
    else:
        u = np.asarray(u, dtype=float)
        F1 = np.asarray(st.f1(u), dtype=float)
        F2 = np.asarray(st.f2(u), dtype=float)
        if not np.array_equal(F1[s:], F2[s:], equal_nan=True):
            raise ValueError(f"the fast rows of F1 and F2 differ at u = {u}: "
                             f"{F1[s:]} != {F2[s:]}")
        grad = (np.asarray(st.grad_h(u), dtype=float) if st.grad_h is not None
                else linalg.fd_gradient(st.h, u))
        p1 = float(grad[:s] @ F1[:s])
        p2 = float(grad[:s] @ F2[:s])
        q = float(grad[s:] @ F1[s:])
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
    """Threshold eps_2 >= 0 above which the quadratic is negative (sliding):
    for A < 0 <= Csq, q's one root in (0, inf) (linalg.quadratic_root), or 0
    when it has none. None, no guarantee, when A is not negative, Csq (a
    square) is negative, a coefficient or 2A is not finite, or eps_2 is out
    of range.
    """
    c = (coeffs.Csq, coeffs.B, 2.0 * coeffs.A)
    if not (coeffs.A < 0.0 <= coeffs.Csq and all(map(math.isfinite, c))):
        return None
    root = linalg.quadratic_root(*c, math.inf)
    if root is not None:
        return root
    # q = eps*(A*eps + B) with B <= 0 has no positive root; any other q has
    # one, and none means it fell out of range, which guarantees nothing
    return 0.0 if coeffs.Csq == 0.0 and coeffs.B <= 0.0 else None


def crossing_sufficient(coeffs: FilippovCoeffs) -> bool:
    """True when the sign pattern forces q(eps) > 0 for every eps > 0."""
    disc = coeffs.B * coeffs.B - 4.0 * coeffs.A * coeffs.Csq
    if coeffs.A > 0.0 and disc < 0.0:
        return True
    return coeffs.A > 0.0 and coeffs.B > 0.0 and disc >= 0.0

"""Small dense linear algebra and finite-difference kernels.

Everything here is sized for the systems this package integrates: a handful
of states, not thousands. At that size a numpy call costs its dispatch, not
its arithmetic, so the input checks, the partial-pivoting LU and the solves
run on Python floats; lu_solve takes a list of floats as it is, which is
how the step kernels in rosenbrock pass their right-hand sides. Also here:
the safe-side ITP root search of event location and the case-1b shortening,
finite-difference stencils (the Jacobian one switches to one-sided
differences at a domain edge) and a cheap spectral-radius bound. All
operations are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainViolation, SingularMatrix

# A pivot at or below SINGULARITY_RTOL times its row's scale (see lu_factor)
# means the matrix is treated as singular at working precision.
SINGULARITY_RTOL = 1e-13

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))
# Second differences need a larger step than first differences or the
# stencil falls below the round-off floor.
_QUARTIC_EPS = float(_EPS ** 0.25)


def as_vector(x) -> np.ndarray:
    """Validate and return a 1-d float array with finite entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(m) -> np.ndarray:
    """Validate and return a square 2-d float array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class LuFactors:
    """Packed LU factors of a row-permuted matrix, as Python floats.

    `combined` is a list of rows holding the unit lower triangle strictly
    below the diagonal and U on and above it. `pivots` is a permutation of
    0..n-1: row i of the factored matrix came from row pivots[i] of the
    input. Neither is modified after lu_factor returns.
    """

    combined: list
    pivots: list

    @property
    def n(self) -> int:
        return len(self.combined)


def lu_factor(m) -> LuFactors:
    """Factor M (with partial row pivoting) so that M[pivots] = L @ U.

    The pivot of each column is the first entry of largest magnitude on or
    below the diagonal. Raises SingularMatrix when that pivot does not
    exceed SINGULARITY_RTOL times its row's scale: the largest |entry| the
    row has held during the elimination (fill-in that cancels leaves noise
    of its size), capped at max|M|, so a stiff row spares the others.
    """
    a = as_matrix(m).tolist()
    n = len(a)
    perm = list(range(n))
    scales = [max(map(abs, row)) for row in a]  # by row of M, like perm's values
    cap_tol = SINGULARITY_RTOL * max(scales, default=0.0)
    for col in range(n):
        p = col
        big = abs(a[col][col])
        for r in range(col + 1, n):
            if abs(a[r][col]) > big:
                p, big = r, abs(a[r][col])
        tol = SINGULARITY_RTOL * scales[perm[p]]
        if big <= cap_tol and big <= tol:
            raise SingularMatrix(
                f"pivot {a[p][col]:.3e} in column {col} below tolerance {min(tol, cap_tol):.3e}"
            )
        if p != col:
            a[col], a[p] = a[p], a[col]
            perm[col], perm[p] = perm[p], perm[col]
        upper = a[col]
        for r, row in enumerate(a[col + 1:], col + 1):
            mult = row[col] = row[col] / upper[col]
            scale = scales[perm[r]]
            for j in range(col + 1, n):
                row[j] = v = row[j] - mult * upper[j]
                if abs(v) > scale:
                    scale = abs(v)
            scales[perm[r]] = scale
    return LuFactors(combined=a, pivots=perm)


def lu_solve(factors: LuFactors, b) -> np.ndarray:
    """Solve M x = b given factors from lu_factor(M).

    b must be a finite vector of M's size. A list is taken as Python
    floats, as the step kernels in rosenbrock build their right-hand sides;
    anything else goes through as_vector.

    A substitution that ends with a non-finite entry (a product u_ij*x_j
    can round to inf while x is finite) is redone with b scaled by 2**-k
    and the result scaled back by 2**k, as LAPACK's robust triangular solve
    xLATRS does (Anderson, LAPACK Working Note 36, 1991). k is n plus the
    exponent of n*max|entry|: |l_ij| <= 1 grows b by at most 2**(n-1), and
    every product and sum then stays in range, so only an entry that
    overflows itself comes back infinite. A solve that does not overflow
    never takes this path and keeps its bits.
    """
    if type(b) is not list:
        vals = as_vector(b).tolist()
    elif all(map(math.isfinite, b)):
        vals = b
    else:
        raise ValueError("vector entries must be finite")
    a = factors.combined
    n = len(a)
    if len(vals) != n:
        raise ValueError(f"matrix is {n}x{n} but b has length {len(vals)}")
    x = [vals[p] for p in factors.pivots]
    k = 0
    while True:  # twice at most: again, scaled, after an overflow
        for i in range(1, n):  # forward substitution, unit diagonal
            dot = 0.0
            for j in range(i):
                dot += a[i][j] * x[j]
            x[i] -= dot
        for i in range(n - 1, -1, -1):  # back substitution
            dot = 0.0
            for j in range(i + 1, n):
                dot += a[i][j] * x[j]
            x[i] = (x[i] - dot) / a[i][i]
        # a non-finite entry reaches x[0], which sums a product with each
        if k or n == 0 or math.isfinite(x[0]):
            break
        k = math.frexp(n * max(1.0, max(max(map(abs, row)) for row in a)))[1] + n
        x = [math.ldexp(vals[p], -k) for p in factors.pivots]
    if k:
        # two factors, each a finite power of two, where 2.0**k may not be
        up, up2 = 2.0 ** (k // 2), 2.0 ** (k - k // 2)
        x = [v * up * up2 for v in x]
    return np.array(x)


def safe_side_root(g: Callable, lo: float, hi: float, g_lo: float, g_hi: float,
                   tol: float, width: float):
    """Search for a zero of g in (lo, hi) from the side of lo, where
    g_lo = g(lo) != 0 and g_hi = g(hi) is on the far side (not lo's sign).

    Each trial is an ITP point (Oliveira & Takahashi, ACM TOMS 47, 2021):
    the regula-falsi point of the bracket, truncated towards the midpoint
    by 0.2*(hi - lo)**2 over the initial width and projected into a
    shrinking radius about the midpoint. A regula-falsi point outside
    (lo, hi), as from a NaN or infinite g at the far end, takes the
    midpoint for that trial.

    Returns (x, g(x), calls) at the first trial with g(x) == 0, or with
    |g(x)| <= tol and lo's sign; else lo moves to x when g(x) has lo's sign
    and hi moves when not (a NaN counts as the far side), and once
    hi - lo <= width it returns (lo, g_lo, calls). No iteration cap: a
    width > 0 and >= 4*eps*max(|lo|, |hi|) keeps every trial strictly
    inside, and the projection ends the search within one call more than
    bisection needs to reach width less 4*eps*max(|lo|, |hi|) (a margin
    for rounding; at least width/2): 41 calls for [0, 1] at width 1e-12,
    never more than ceil(log2((hi - lo)/width)) + 2. Raises ValueError on a
    bracket that breaks these conditions.
    """
    big = max(abs(lo), abs(hi))
    neg_at_lo = g_lo < 0.0
    if not (lo < hi and abs(g_lo) > 0.0 and not (g_hi < 0.0 if neg_at_lo else g_hi > 0.0)
            and width > 0.0 and width >= 4.0 * _EPS * big):
        raise ValueError(f"bad bracket [{lo!r}, {hi!r}]: g_lo={g_lo!r}, g_hi={g_hi!r}, "
                         f"width={width!r}")
    kappa1 = 0.2 / (hi - lo)
    aim = max(width - 4.0 * _EPS * big, 0.5 * width)
    # bisection's call count to the aimed width, plus n0 = 1
    n_max = math.ceil(math.log2((hi - lo) / aim)) + 1
    calls = 0
    while True:
        span = hi - lo
        mid = x = 0.5 * (lo + hi)
        x_f = lo + span * (g_lo / (g_lo - g_hi))
        if lo < x_f < hi:
            to_mid = mid - x_f
            delta = kappa1 * span * span
            x_t = x_f + math.copysign(delta, to_mid) if delta <= abs(to_mid) else mid
            radius = max(0.0, aim * 2.0 ** (n_max - calls - 1) - 0.5 * span)
            x = x_t if abs(x_t - mid) <= radius else mid - math.copysign(radius, to_mid)
        g_x = g(x)
        calls += 1
        same_side = g_x < 0.0 if neg_at_lo else g_x > 0.0
        if g_x == 0.0 or (same_side and abs(g_x) <= tol):
            return x, g_x, calls
        if same_side:
            lo, g_lo = x, g_x
        else:
            hi, g_hi = x, g_x
        if hi - lo <= width:
            return lo, g_lo, calls


def _probe_points(x: np.ndarray, j: int, step: float):
    """Forward/backward perturbations of coordinate j with exactly
    representable offsets (the classic (x+h)-x trick)."""
    xp = x.copy()
    xm = x.copy()
    xp[j] = x[j] + step
    xm[j] = x[j] - step
    return xp, xm


def fd_jacobian(f: Callable, x, domain: Callable | None = None) -> np.ndarray:
    """Finite-difference Jacobian of a vector field.

    Central differences with step sqrt(eps)*max(1, |x_j|) per coordinate.
    When `domain` is given and a perturbed point leaves it, the stencil
    switches to the one-sided difference that stays inside; if both sides
    are outside, DomainViolation is raised.
    """
    x = as_vector(x)
    steps = _SQRT_EPS * np.maximum(1.0, np.abs(x))
    fx = None
    cols = []
    for j in range(x.shape[0]):
        xp, xm = _probe_points(x, j, steps[j])
        ok_p = domain is None or bool(domain(xp))
        ok_m = domain is None or bool(domain(xm))
        if ok_p and ok_m:
            cols.append(
                (np.asarray(f(xp), float) - np.asarray(f(xm), float))
                / (xp[j] - xm[j])
            )
        elif ok_p or ok_m:
            if fx is None:
                fx = np.asarray(f(x), float)
            if ok_p:
                cols.append((np.asarray(f(xp), float) - fx) / (xp[j] - x[j]))
            else:
                cols.append((fx - np.asarray(f(xm), float)) / (x[j] - xm[j]))
        else:
            raise DomainViolation(
                f"both perturbations of coordinate {j} leave the domain"
            )
    return np.column_stack(cols)


def fd_gradient(h: Callable, x) -> np.ndarray:
    """Finite-difference gradient of a scalar function: fd_jacobian of h
    as a one-output field, with the same central stencil."""
    return fd_jacobian(lambda v: [h(v)], x)[0]


def fd_hessian(h: Callable, x) -> np.ndarray:
    """Finite-difference Hessian of a scalar function, exactly symmetric.

    Direct second differences with step eps**0.25 * max(1, |x_j|).
    """
    x = as_vector(x)
    n = x.shape[0]
    steps = _QUARTIC_EPS * np.maximum(1.0, np.abs(x))
    hess = np.empty((n, n))
    h0 = float(h(x))
    for j in range(n):
        xp, xm = _probe_points(x, j, steps[j])
        dj = xp[j] - x[j]
        hess[j, j] = (float(h(xp)) - 2.0 * h0 + float(h(xm))) / (dj * dj)
        for l in range(j + 1, n):
            dl = steps[l]
            xpp, xpm = _probe_points(xp, l, dl)
            xmp, xmm = _probe_points(xm, l, dl)
            val = (
                float(h(xpp)) - float(h(xpm)) - float(h(xmp)) + float(h(xmm))
            ) / ((xp[j] - xm[j]) * (xpp[l] - xpm[l]))
            hess[j, l] = val
            hess[l, j] = val
    return 0.5 * (hess + hess.T)


def spectral_radius_bound(m) -> float:
    """Upper bound on the spectral radius: min(||M||_1, ||M||_inf).

    Every induced norm bounds the spectral radius from above; these two
    are the largest absolute column sum and the largest absolute row sum.
    """
    a = np.abs(as_matrix(m))
    if a.size == 0:
        return 0.0
    return float(min(a.sum(axis=0).max(), a.sum(axis=1).max()))

"""Small dense linear algebra and finite-difference kernels.

Everything here is sized for the systems this package integrates: a handful
of states, not thousands. At that size a numpy call costs its dispatch, not
its arithmetic, so the input checks, the partial-pivoting LU, the solves
and the finite-difference stencils run on Python floats. lu_factor takes a
list of float rows, which is how the step kernel in rosenbrock passes its
step matrices, and lu_solve a list of floats, returning a list of floats.
Both factor and substitute with straight-line code generated once per
system size. Every straight-line kernel of the package is made here, by
generated, from an emitter that writes its lines: the LU pair below, the
float rows and surface sums of problems (_sums is the one sum of
products they and the secant test of events write), and the step kernel
of rosenbrock, which writes the same substitution lines
(_substitution_lines) into its own code and calls lu_solve only for a
right-hand side whose solution is not finite, so a step's stages never
become arrays and cost no solve call. Also here: the package's two root
finders (the safe-side ITP search and the closed-form quadratic root),
the finite-difference Jacobian and gradient (the Jacobian switches to
one-sided differences at a domain edge), which hand every callable each
stencil point as a list of floats and give rows of floats back (problems
decides which user callables get an array), and a cheap spectral-radius
bound. All operations are deterministic. The state is the one cache of
generated code, one pure function per emitter and key, and current_run,
the counts of the run in progress, to which lu_factor adds each
factorization.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable

import numpy as np

from .errors import DomainViolation, SingularMatrix

# A pivot at or below SINGULARITY_RTOL times its row's scale (see lu_factor)
# means the matrix is treated as singular at working precision.
SINGULARITY_RTOL = 1e-13

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))

# The events.IntegrationStats of the run in progress (events.integrate sets
# it for the run), None outside one; a context variable, so a nested run or
# one in another thread counts on its own stats.
current_run: contextvars.ContextVar = contextvars.ContextVar("current_run", default=None)


def as_vector(x) -> np.ndarray:
    """Validate and return a 1-d float array with finite entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError("vector entries must be finite")
    return v


def as_floats(value, n: int) -> list:
    """A vector of n entries, such as a field value, as Python floats.

    Checks the shape with as_vector's message and the length with
    lu_solve's; finiteness is checked where the value enters a solve.
    """
    v = np.asarray(value, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if v.shape[0] != n:
        raise ValueError(f"matrix is {n}x{n} but b has length {v.shape[0]}")
    return v.tolist()


def as_matrix(m) -> np.ndarray:
    """Validate and return a square 2-d float array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise ValueError("matrix entries must be finite")
    return a


class LuFactors:
    """Packed LU factors of a row-permuted matrix, as Python floats.

    `combined` is a list of rows holding the unit lower triangle strictly
    below the diagonal and U on and above it. `pivots` is a permutation of
    0..n-1: row i of the factored matrix came from row pivots[i] of the
    input. Treated as immutable: neither is modified after lu_factor
    returns.
    """

    __slots__ = ("combined", "pivots")

    def __init__(self, combined: list, pivots: list):
        self.combined = combined
        self.pivots = pivots

    @property
    def n(self) -> int:
        return len(self.combined)


def lu_factor(m) -> LuFactors:
    """Factor M (with partial row pivoting) so that M[pivots] = L @ U.

    M is an array or a list of n rows, each a list of n floats, as the
    step kernels in rosenbrock build it. The entries of list rows are read
    as floats, so the caller's lists are left as they were, and checked for
    finiteness; anything else, a ragged or non-square list included, goes
    through as_matrix, so both forms fail with the same messages.

    The pivot of each column is the first entry of largest magnitude on or
    below the diagonal. Raises SingularMatrix when that pivot does not
    exceed SINGULARITY_RTOL times its row's scale: the largest |entry| the
    row has held during the elimination (fill-in that cancels leaves noise
    of its size), capped at max|M|, so a stiff row spares the others.

    The factorization is straight-line code for M's size, generated on the
    first factorization of that size and kept for every later one
    (_factorization_source): no loop and no indexing, the same operations
    in the same order as the nested loops it unrolls, so the same bits and
    the same errors. Each call counts in the run's lu_factorizations
    (current_run), one that ends singular included.
    """
    n = len(m) if type(m) is list else 0
    if not (n and all(type(row) is list and len(row) == n for row in m)):
        m = as_matrix(m).tolist()
        n = len(m)
    stats = current_run.get()
    if stats is not None:
        stats.lu_factorizations += 1
    return generated(_factorization_source, n, _FACTOR_SCOPE)(m, SINGULARITY_RTOL)


def _singular(pivot: float, col: int, tol: float, cap_tol: float) -> SingularMatrix:
    return SingularMatrix(
        f"pivot {pivot:.3e} in column {col} below tolerance {min(tol, cap_tol):.3e}")


def _factorization_source(n: int) -> list:
    """Lines of lu_factor's work for size n, factorize(rows, rtol) ->
    LuFactors for n rows of n entries: the loops of a partial-pivoting LU,
    unrolled.

    The entries are read as floats and checked finite first. Each row is
    then a set of locals, its entries, its scale (the largest |entry| it
    has held) and its row index in M, and a row swap exchanges them all in
    one assignment. A column's pivot is the first of the largest |entries|
    on or below the diagonal (strict >), judged against rtol times the
    pivot row's scale and the cap rtol*max|M| before it divides anything.
    """
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    entries = [v for r in a for v in r]
    matrix = f"[{', '.join('[' + ', '.join(r) + ']' for r in a)}]"
    row = [", ".join([*a[i], f"s{i}", f"p{i}"]) for i in range(n)]

    def biggest(values):  # max(values, default=0.0), spelt out
        if len(values) < 2:
            return values[0] if values else "0.0"
        return f"max({', '.join(values)})"

    lines = [f"{matrix} = rows"]
    if entries:
        lines += [f"{', '.join(entries)} = {', '.join(f'float({v})' for v in entries)}",
                  # 0*v is a zero for every finite v and NaN for inf or NaN
                  f"if not {' + '.join(f'0.0 * {v}' for v in entries)} == 0.0:",
                  "    raise ValueError('matrix entries must be finite')"]
    lines += [f"s{i} = {biggest([f'abs({v})' for v in a[i]])}" for i in range(n)]
    lines += [f"p{i} = {i}" for i in range(n)]
    lines.append(f"cap_tol = rtol * {biggest([f's{i}' for i in range(n)])}")
    for col in range(n):
        lines.append(f"big = abs({a[col][col]})")
        below = range(col + 1, n)
        if len(below) == 1:
            (r,) = below
            lines += [f"if abs({a[r][col]}) > big:",
                      f"    big = abs({a[r][col]})",
                      f"    {row[col]}, {row[r]} = {row[r]}, {row[col]}"]
        elif below:
            lines.append(f"piv = {col}")
            lines += [f"if abs({a[r][col]}) > big: big, piv = abs({a[r][col]}), {r}"
                      for r in below]
            for k, r in enumerate(below):
                lines += [f"{'if' if k == 0 else 'elif'} piv == {r}:",
                          f"    {row[col]}, {row[r]} = {row[r]}, {row[col]}"]
        lines += [f"if big <= cap_tol and big <= rtol * s{col}:",
                  f"    raise _singular({a[col][col]}, {col}, rtol * s{col}, cap_tol)"]
        for r in below:
            lines.append(f"{a[r][col]} = {a[r][col]} / {a[col][col]}")
            for j in below:
                lines += [f"{a[r][j]} = {a[r][j]} - {a[r][col]} * {a[col][j]}",
                          f"if abs({a[r][j]}) > s{r}: s{r} = abs({a[r][j]})"]
    lines.append(f"return LuFactors({matrix}, [{', '.join(f'p{i}' for i in range(n))}])")
    return define("factorize(rows, rtol)", lines)


# every generated function of the process, by (emitter, key), each made on
# its first use
_GENERATED: dict = {}

# the names the factorization's code sees
_FACTOR_SCOPE = {"LuFactors": LuFactors, "_singular": _singular}


def define(head: str, body: list) -> list:
    """The lines of `def head:` around the lines of body, indented: how an
    emitter wraps its body, nested functions included."""
    return [f"def {head}:", *(f"    {line}" for line in body)]


def generated(emit: Callable, key, scope: dict | None = None):
    """The function emit(key)'s lines define, or the tuple of the functions
    when they define several, compiled on the first call for (emit, key) and
    kept for the process: how the package makes its straight-line kernels,
    one per system size (or per key, such as a kernel unit, stage count and
    size). emit returns the lines of top-level defs (define), which see the
    names of scope."""
    made = _GENERATED.get((emit, key))
    if made is None:
        lines = emit(key)
        namespace = dict(scope or {})
        exec(compile("\n".join(lines) + "\n", f"<{emit.__name__} {key}>", "exec"), namespace)
        names = [line[4:line.index("(")] for line in lines if line[:4] == "def "]
        made = _GENERATED[emit, key] = (namespace[names[0]] if len(names) == 1
                                        else tuple(namespace[name] for name in names))
    return made


def _factor_lines(n: int, rows: str, pivots: str) -> list:
    """Lines that unpack packed factors of size n, the expression rows (as
    lu_factor's combined) and pivots, into the locals that
    _substitution_lines reads: m{i}_{j} for each entry and p{i} for each
    pivot."""
    m = [[f"m{i}_{j}" for j in range(n)] for i in range(n)]
    return [f"[{', '.join('[' + ', '.join(row) + ']' for row in m)}] = {rows}",
            f"[{', '.join(f'p{i}' for i in range(n))}] = {pivots}"]


def _substitution_lines(n: int, b: str, x: list) -> list:
    """Lines of the forward and back substitution for size n that solve
    L U x = b[pivots] into the locals named x, from the list named b and
    the factor locals of _factor_lines: one assignment per entry of x and
    sweep, the loops of a generic solve, unrolled. lu_solve's substitute
    and the step kernel (rosenbrock) both run these lines, so one piece of
    code fixes the order of the operations.

    Each dot product starts at 0.0 and adds its products left to right,
    so the bits, signed zeros included, are the loops'. Where the loops
    subtract the empty dot 0.0, the first forward entry and the last back
    substitution's numerator, the line leaves the subtraction out: x - 0.0
    is x bit for bit, -0.0 and NaN included.
    """
    m = [[f"m{i}_{j}" for j in range(n)] for i in range(n)]

    def less_dot(v, i, cols):
        # (v - (0.0 + m_ij*x_j + ...)), or v itself where the dot is empty
        return f"({v} - (0.0{''.join(f' + {m[i][j]} * {x[j]}' for j in cols)}))" if cols else v

    # forward substitution, unit diagonal, each entry loaded in its line
    lines = [f"{x[i]} = {less_dot(f'{b}[p{i}]', i, range(i))}" for i in range(n)]
    # back substitution
    lines += [f"{x[i]} = {less_dot(x[i], i, range(i + 1, n))} / {m[i][i]}"
              for i in range(n - 1, -1, -1)]
    return lines


def _substitution_source(n: int) -> list:
    """substitute(rows, pivots, b) -> x for size n, x solving
    L U x = b[pivots] for the packed factor rows of lu_factor: the factors
    unpacked (_factor_lines) and then _substitution_lines."""
    x = [f"x{i}" for i in range(n)]
    return define("substitute(rows, pivots, b)", [
        *_factor_lines(n, "rows", "pivots"), *_substitution_lines(n, "b", x),
        f"return [{', '.join(x)}]"])


def _sums(a: list, x: list) -> list:
    """The sums (a_i0 * x0 + a_i1 * x1 + ...) of each row of the names a on
    the names x, left to right: a matrix-vector product, unrolled. The
    float rows and a declared surface's h (problems) and the secant test
    (events) write these sums, so one piece of code fixes their order."""
    return [f"({' + '.join(f'{v} * {u}' for v, u in zip(row, x))})" for row in a]


def lu_solve(factors: LuFactors, b) -> list | np.ndarray:
    """Solve M x = b given factors from lu_factor(M).

    b must be a finite vector of M's size. A list is taken as Python
    floats, as the step kernel in rosenbrock builds its right-hand sides,
    and x comes back as a list of Python floats; anything else goes
    through as_vector, and x comes back as a float64 array of the same
    bits.

    The forward and back substitution is straight-line code for M's size,
    generated on the first solve of that size and kept for every later one
    (_substitution_source): no loop, no indexing, the same operations in
    the same order as the nested loops it unrolls, so the same bits. The
    step kernel in rosenbrock runs the same lines inline
    (_substitution_lines) and hands this function only a right-hand side
    whose substituted first entry is not finite, or one of another length
    than its factors, so what follows decides the kernel's bits and errors
    there too.

    A list of M's size is substituted before anything is checked: a
    non-finite entry of b makes every later entry of the forward sweep,
    and then every entry of the back sweep, non-finite, so a finite x[0]
    certifies b. Only when x[0] is not finite is b checked ("vector
    entries must be finite"), before the scaled solve below. A list of
    another length is checked for finiteness and then fails the length
    check, as an array does.

    A substitution that ends with a non-finite entry (a product u_ij*x_j
    can round to inf while x is finite) is redone with b scaled by 2**-k
    and the result scaled back by 2**k, as LAPACK's robust triangular solve
    xLATRS does (Anderson, LAPACK Working Note 36, 1991). k is n plus the
    exponent of n*max|entry|: |l_ij| <= 1 grows b by at most 2**(n-1), and
    every product and sum then stays in range, so only an entry that
    overflows itself comes back infinite. A solve that does not overflow
    never takes this path and keeps its bits.
    """
    floats = type(b) is list
    vals = b if floats else as_vector(b).tolist()
    a = factors.combined
    n = len(a)
    substitute = generated(_substitution_source, n)
    x = substitute(a, factors.pivots, vals) if len(vals) == n else None
    # a non-finite entry of b or x reaches x[0], which sums a product with
    # each, so one test on the result stands for the checks of b
    if x is None or (n and not math.isfinite(x[0])):
        if not all(map(math.isfinite, vals)):
            raise ValueError("vector entries must be finite")
        if x is None:
            raise ValueError(f"matrix is {n}x{n} but b has length {len(vals)}")
        k = math.frexp(n * max(1.0, max(max(map(abs, row)) for row in a)))[1] + n
        x = substitute(a, factors.pivots, [math.ldexp(v, -k) for v in vals])
        # two factors, each a finite power of two, where 2.0**k may not be
        up, up2 = 2.0 ** (k // 2), 2.0 ** (k - k // 2)
        x = [v * up * up2 for v in x]
    return x if floats else np.array(x)


def safe_side_root(g: Callable, lo: float, hi: float, g_lo: float, g_hi: float,
                   tol: float, width: float):
    """Search for a zero of g in (lo, hi) from the side of lo, where
    g_lo = g(lo) != 0 and g_hi = g(hi) is on the far side (not lo's sign).

    Each trial is an ITP point (Oliveira & Takahashi, ACM TOMS 47, 2021):
    the regula-falsi point of the bracket, truncated towards the midpoint
    by 0.2*(hi - lo)**2 over the initial width, but by at least 4 ulps of
    the regula-falsi point, and projected into a shrinking radius about the
    midpoint. The floor matters once the bracket is ~1e-12 wide, where the
    squared width is far below an ulp: without it regula falsi creeps in
    from one end an ulp per call, each call reading the same h where the
    state does not move at that scale. A regula-falsi point outside
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
            # at least a few ulps: below that the truncation rounds away and
            # regula falsi creeps in from one end an ulp per call
            delta = max(kappa1 * span * span, 4.0 * math.ulp(x_f))
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


def quadratic_root(g0: float, d1: float, d2: float, hi: float):
    """The first root in (0, hi) of g0 + d1*x + (d2/2)*x^2 (hi may be inf),
    or None: the package's one closed-form quadratic solver. A coefficient
    that is not finite has no root.

    The roots are Higham's cancellation-free pair q/a and g0/q, with
    q = -(d1 + sign(d1)*sqrt(d1^2 - 4*a*g0))/2 and a = d2/2 (Accuracy and
    Stability of Numerical Algorithms, 1.8), on a problem scaled by powers
    of two, which is exact: x = 2**k * y with k balancing g0 against the
    x^2 term, so the roots in y lie near 1, and the coefficients in y
    brought to at most 1, so no square overflows and none that matters
    underflows. Where d1*x dwarfs the other terms, d1^2 exceeding 4*|a*g0|
    by 2**60 or more, the discriminant would round to d1^2, and the roots
    are the single divisions -g0/d1 and -d1/a of the coefficients as given;
    so are a line's root and the nonzero root when g0 = 0. Where nothing
    underflows or overflows the scaling changes no bit. A root past the
    largest float rounds to inf, and so lies past every hi; a positive root
    below 2**-1074 rounds to 0.0, which is then the first root (0 < hi).
    """
    if not (math.isfinite(g0) and math.isfinite(d1) and math.isfinite(d2)):
        return None
    e0, e1, e2 = math.frexp(g0)[1], math.frexp(d1)[1], math.frexp(d2)[1]
    if g0 == 0.0 or d2 == 0.0 or (d1 != 0.0 and 2 * e1 > e0 + e2 + 64):
        # a term is absent, or negligible beside d1*x
        roots = []
        if d1 != 0.0 and g0 != 0.0:
            roots.append(-g0 / d1)
        if d1 != 0.0 and d2 != 0.0:
            roots.append(-2.0 * (d1 / d2))
    else:
        k = (e0 - e2) // 2
        e = -max(e0, e2 + 2 * k, e1 + k if d1 != 0.0 else e0)
        g0, d1, d2 = math.ldexp(g0, e), math.ldexp(d1, e + k), math.ldexp(d2, e + 2 * k)
        a = 0.5 * d2
        disc = d1 * d1 - 4.0 * a * g0
        if not disc >= 0.0:
            return None
        q = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
        roots = [_times_two_to(q / a, k), _times_two_to(g0 / q, k)]
    # a positive root that underflowed is +0.0, and still comes first
    inside = [r for r in roots if 0.0 < r < hi or (r == 0.0 and math.copysign(1.0, r) > 0.0)]
    return min(inside) if inside else None


def _times_two_to(y: float, k: int) -> float:
    # y * 2**k: exact, rounded once below the normal range, and inf past the
    # largest float, where math.ldexp raises
    return math.ldexp(y, k) if math.frexp(y)[1] + k <= 1024 else math.copysign(math.inf, y)


def fd_jacobian(f: Callable, x, domain: Callable | None = None) -> list:
    """Finite-difference Jacobian of a vector field, as rows of Python
    floats, one row per output.

    Central differences with step sqrt(eps)*max(1, |x_j|) per coordinate.
    When `domain` is given and a perturbed point leaves it, the stencil
    switches to the one-sided difference that stays inside; if both sides
    are outside, DomainViolation is raised. f is called only at points
    found inside: domain is called once per perturbed point, and once for
    x itself before a one-sided difference first needs f(x) (a DomainViolation
    when x is outside).

    x is read once as Python floats, so a caller's list or array is never
    written, and must be finite ("vector entries must be finite"). f and
    domain are handed each stencil point as a fresh list of floats, and f
    gives the field's value as a sequence of floats; no numpy runs here.
    The steps and differences are the same IEEE operations in the same
    order as the array formula, so the same bits.
    """
    xs = list(map(float, x))
    if not all(map(math.isfinite, xs)):
        raise ValueError("vector entries must be finite")
    fx = None
    cols = []
    for j, xj in enumerate(xs):
        step = _SQRT_EPS * max(1.0, abs(xj))
        xp, xm = xs[:], xs[:]
        xp[j] = hi = xj + step
        xm[j] = lo = xj - step
        ok_p = domain is None or bool(domain(xp))
        ok_m = domain is None or bool(domain(xm))
        if ok_p and ok_m:
            up, down, width = f(xp), f(xm), hi - lo
        elif ok_p or ok_m:
            if fx is None:
                if not domain(xs[:]):
                    raise DomainViolation("the stencil's center lies outside the domain")
                fx = f(xs[:])
            if ok_p:
                up, down, width = f(xp), fx, hi - xj
            else:
                up, down, width = fx, f(xm), xj - lo
        else:
            raise DomainViolation(
                f"both perturbations of coordinate {j} leave the domain"
            )
        cols.append([(u - d) / width for u, d in zip(up, down, strict=True)])
    return [list(row) for row in zip(*cols)]


def fd_gradient(h: Callable, x) -> list:
    """Finite-difference gradient of a scalar function, as a list of Python
    floats: fd_jacobian of h as a one-output field, with the same central
    stencil, h handed each point as a fresh list of floats."""
    return fd_jacobian(lambda v: [float(h(v))], x)[0]


def spectral_radius_bound(m) -> float:
    """Upper bound on the spectral radius: min(||M||_1, ||M||_inf).

    Every induced norm bounds the spectral radius from above; these two
    are the largest absolute column sum and the largest absolute row sum.
    """
    a = np.abs(as_matrix(m))
    if a.size == 0:
        return 0.0
    return float(min(a.sum(axis=0).max(), a.sum(axis=1).max()))

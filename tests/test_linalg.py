"""Dense LU, finite-difference derivative kernels, spectral-radius bound."""

import collections
import math
import sys
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rosevent import linalg
from rosevent.errors import DomainViolation, SingularMatrix
from rosevent.linalg import (
    SINGULARITY_RTOL,
    fd_gradient,
    fd_jacobian,
    lu_factor,
    lu_solve,
    safe_side_root,
    spectral_radius_bound,
)


# --- LU ------------------------------------------------------------------

EPS = float(np.finfo(float).eps)


def reference_lu_factor(m):
    """Partial-pivot LU as numpy array operations: (combined, pivots)."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    perm = np.arange(n)
    # each pivot is judged against the largest entry its row has held at
    # any stage of the elimination, capped at max|M|
    scales = np.max(np.abs(a), axis=1)
    cap = float(np.max(scales))
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[p, col]) <= SINGULARITY_RTOL * min(scales[p], cap):
            raise SingularMatrix(f"pivot {a[p, col]:.3e} in column {col}")
        if p != col:
            a[[col, p]] = a[[p, col]]
            perm[[col, p]] = perm[[p, col]]
            scales[[col, p]] = scales[[p, col]]
        rows = slice(col + 1, n)
        a[rows, col] /= a[col, col]
        a[rows, col + 1:] -= np.outer(a[rows, col], a[col, col + 1:])
        if col + 1 < n:
            scales[rows] = np.maximum(scales[rows], np.max(np.abs(a[rows, col + 1:]), axis=1))
    return a, perm


def reference_lu_solve(combined, pivots, b):
    a = combined
    n = a.shape[0]

    def substitute(rhs):
        x = np.asarray(rhs, dtype=float)[pivots]
        # a row of subnormal entries factors, and its solution can overflow
        # (inf, then inf - inf), as lu_solve's does
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, n):  # forward substitution, unit diagonal
                x[i] -= a[i, :i] @ x[:i]
            for i in range(n - 1, -1, -1):  # back substitution
                x[i] = (x[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
        return x

    x = substitute(b)
    if np.all(np.isfinite(x)):
        return x
    # an overflow: again with b scaled by 2**-k, then scaled back
    k = math.frexp(n * max(1.0, float(np.max(np.abs(a)))))[1] + n
    with np.errstate(over="ignore"):
        return substitute(np.ldexp(np.asarray(b, dtype=float), -k)) * 2.0 ** (k // 2) \
            * 2.0 ** (k - k // 2)


def same_floats(x, expected) -> bool:
    """x is a list of Python floats with the bits of the float array
    expected: signed zeros, subnormals, inf and NaN positions included."""
    return (type(x) is list and all(type(v) is float for v in x)
            and np.array(x, dtype=float).tobytes() == np.asarray(expected).tobytes())


# small integers make singular and tied-pivot matrices common
_lu_entries = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_lu_matches_the_array_reference(n, data):
    a = data.draw(hnp.arrays(np.float64, (n, n), elements=_lu_entries))
    b = data.draw(hnp.arrays(np.float64, (n,), elements=_lu_entries))
    try:
        ref_combined, ref_pivots = reference_lu_factor(a)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            lu_factor(a)
        return
    factors = lu_factor(a)
    assert list(factors.pivots) == ref_pivots.tolist()
    # the elimination does the same elementwise operations as the reference
    npt.assert_array_equal(np.array(factors.combined), ref_combined)
    x = lu_solve(factors, b)
    # a list of floats, as the step kernel passes, solves to Python floats
    # of the same bits
    assert same_floats(lu_solve(factors, b.tolist()), x)
    x_ref = reference_lu_solve(ref_combined, ref_pivots, b)
    if n <= 2:
        # substitution sums of at most one product: same arithmetic
        npt.assert_array_equal(x, x_ref)
    else:
        # the reference sums its dot products in BLAS order, possibly fused
        cond = float(np.linalg.cond(a, p=np.inf))
        scale = float(np.max(np.abs(x_ref)))
        tol = 16.0 * n * EPS * cond * scale if scale else 0.0
        # an overflowing solution or an infinite condition number bounds no
        # finite entry, but the inf and NaN positions must still match
        with np.errstate(invalid="ignore"):
            npt.assert_allclose(x, x_ref, rtol=0,
                                atol=tol if math.isfinite(tol) else math.inf)


def test_lu_solve_2x2_cramer():
    # Cramer on [[2,1],[1,3]] x = [3,4]: det = 5, x = (5/5, 5/5) = (1, 1)
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = lu_solve(lu_factor(a), np.array([3.0, 4.0]))
    npt.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-14)


def test_lu_solve_identity_roundtrip():
    x = lu_solve(lu_factor(np.eye(3)), np.array([4.0, -2.0, 0.5]))
    npt.assert_array_equal(x, [4.0, -2.0, 0.5])


def test_lu_requires_pivoting():
    # zero top-left pivot is only solvable with row exchange
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = lu_solve(lu_factor(a), np.array([2.0, 3.0]))
    npt.assert_allclose(x, [3.0, 2.0], rtol=0, atol=0)


def test_lu_factor_rejects_singular():
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrix):
        lu_factor(np.zeros((3, 3)))


def test_lu_factor_judges_each_pivot_by_its_own_row():
    # I - gamma*tau*J of a stiff relay: the second pivot, 1.0, is far below
    # 1e-13 * max|M| = 2.93 but not below its own row's scale
    a = np.array([[1.0, 0.0], [-2.93e13, 2.93e13]])
    b = np.array([1.0, -3.0])
    x = lu_solve(lu_factor(a), b)
    npt.assert_allclose(a @ x, b, rtol=0, atol=4 * EPS * 2.93e13 * np.max(np.abs(x)))
    # a zero row and two equal rows are still singular beside a stiff row
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[3e13, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, 0.0, 0.0], [-3e13, 3e13, 1.0], [-3e13, 3e13, 1.0]]))
    # columns 2 and 3 are equal. Elimination fills row 1 with -2^40 entries,
    # and fl(1/49)*49 = 1 - 2^-53 leaves a last pivot of -2^-13 in their
    # cancellation; row 1 began at scale 1 but is judged by the 2^40 it held
    big = 2.0 ** 40
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, big, big], [1.0, 0.0, 0.0], [0.0, 49 * big, 49 * big]]))


def test_lu_factor_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        lu_factor(np.array([[1.0, 0.0], [-np.inf, 1.0]]))
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_factor(np.ones(2))
    factors = lu_factor(np.eye(2))
    with pytest.raises(ValueError):
        lu_solve(factors, np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        lu_solve(factors, np.ones((2, 1)))
    with pytest.raises(ValueError, match="vector entries must be finite"):
        lu_solve(factors, [1.0, math.nan])


_entries = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_TINY_ENTRY = 5e-324


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_lu_factor_takes_list_rows_as_the_array_bit_for_bit(data):
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    kept = [row[:] for row in rows]
    try:
        from_array = lu_factor(np.array(rows))
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            lu_factor(rows)
        assert rows == kept
        return
    from_rows = lu_factor(rows)
    assert from_rows.pivots == from_array.pivots
    assert np.array(from_rows.combined).tobytes() == np.array(from_array.combined).tobytes()
    # the caller's rows are copied, not factored in place
    assert [np.array(r).tobytes() for r in rows] == [np.array(r).tobytes() for r in kept]
    assert all(type(v) is float for row in from_rows.combined for v in row)


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0], [3.0]],                 # ragged
    [[1.0], [2.0, 3.0]],                 # ragged
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],  # not square
    [[1.0], [2.0]],                      # not square
    [[]],
    [],
    [1.0, 2.0],                          # not a list of rows
    [[1.0, math.nan], [0.0, 1.0]],
    [[1.0, 0.0], [-math.inf, 1.0]],
    [[math.inf]],
])
def test_lu_factor_rejects_bad_list_rows_as_the_array_path_does(rows):
    try:
        array = np.array(rows, dtype=float)
    except ValueError as exc:  # numpy's own message for ragged rows
        expected = str(exc)
    else:
        with pytest.raises(ValueError) as from_array:
            lu_factor(array)
        expected = str(from_array.value)
    kept = repr(rows)
    with pytest.raises(ValueError) as from_rows:
        lu_factor(rows)
    assert str(from_rows.value) == expected
    assert repr(rows) == kept


def loop_lu_factor(m):
    """lu_factor as the nested loops it ran before its factorization was
    generated as straight-line code: the oracle of the generated code,
    operation for operation."""
    n = len(m) if type(m) is list else 0
    if n and all(type(row) is list and len(row) == n for row in m):
        a = [list(map(float, row)) for row in m]
        if not all(all(map(math.isfinite, row)) for row in a):
            raise ValueError("matrix entries must be finite")
    else:
        a = linalg.as_matrix(m).tolist()
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
    return linalg.LuFactors(combined=a, pivots=perm)


def factor_outcome(factor, m):
    """The bytes of combined and the pivots, or the error and its message."""
    try:
        factors = factor(m)
    except (SingularMatrix, ValueError) as exc:
        return type(exc), str(exc)
    assert all(type(v) is float for row in factors.combined for v in row)
    return np.array(factors.combined, dtype=float).tobytes(), factors.pivots


# small integers make tied pivots and singular matrices common; the specials
# are signed zeros, subnormals and a pivot at the singularity tolerance
_factor_entries = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, _TINY_ENTRY, -_TINY_ENTRY, 1e-310, 2.2250738585072014e-308,
                     SINGULARITY_RTOL, 1e300]))


@settings(max_examples=500, deadline=None)
@given(n=st.integers(min_value=1, max_value=5), data=st.data())
def test_lu_factor_is_the_loops_bit_for_bit(n, data):
    rows = [data.draw(st.lists(_factor_entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        # a row repeated, negated or halved: tied pivots and matrices
        # singular at every precision
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        c = data.draw(st.sampled_from([1.0, -1.0, 0.5, -0.5]))
        rows[i] = [c * v for v in rows[j]]
    expected = factor_outcome(loop_lu_factor, rows)
    # the same bits, signed zeros and subnormals included, the same pivots,
    # and a singular matrix raises with the same message
    assert factor_outcome(lu_factor, rows) == expected
    assert factor_outcome(lu_factor, np.array(rows)) == expected


def test_lu_factor_takes_the_first_of_tied_pivots():
    # column 0 ties |2| with |-2| in rows 1 and 2: row 1 is the pivot, and
    # column 1 then ties |1| with |-1|
    for rows in ([[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [-2.0, 1.0, 1.0]],
                 [[1.0, 2.0], [-1.0, 5.0]], [[-3.0, 0.0, 0.0], [3.0, 1.0, 0.0], [3.0, -1.0, 1.0]]):
        expected = factor_outcome(loop_lu_factor, rows)
        assert factor_outcome(lu_factor, rows) == expected
    assert lu_factor([[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [-2.0, 1.0, 1.0]]).pivots[0] == 1
    assert lu_factor([[1.0, 2.0], [-1.0, 5.0]]).pivots == [0, 1]


def test_lu_factor_reads_int_rows_as_floats_and_leaves_them_as_they_were():
    rows = [[2, 1], [4, 3]]
    factors = lu_factor(rows)
    assert factors.pivots == [1, 0]
    assert factors.combined == [[4.0, 3.0], [0.5, -0.5]]
    assert all(type(v) is float for row in factors.combined for v in row)
    assert rows == [[2, 1], [4, 3]]
    assert all(type(v) is int for row in rows for v in row)
    assert all(row is not kept for row in factors.combined for kept in rows)


def test_lu_factor_generates_each_factorization_once(monkeypatch):
    generated = []
    source = linalg._factorization_source

    def counting_source(n):
        generated.append(n)
        return source(n)

    monkeypatch.setattr(linalg, "_factorization_source", counting_source)
    monkeypatch.setattr(linalg, "_GENERATED", {})
    for _ in range(3):
        for n in (1, 2, 3):
            for m in (2.0 * np.eye(n), (2.0 * np.eye(n)).tolist()):
                assert lu_factor(m).combined == (2.0 * np.eye(n)).tolist()
    # the singular exit runs the same code
    with pytest.raises(SingularMatrix, match="^pivot 0.000e\\+00 in column 1 "):
        lu_factor([[1.0, 2.0], [2.0, 4.0]])
    assert generated == [1, 2, 3]
    assert linalg._GENERATED[counting_source, 2] is linalg._GENERATED[counting_source, 2]


def test_lu_solve_length_mismatch():
    factors = lu_factor(np.eye(2))
    with pytest.raises(ValueError):
        lu_solve(factors, np.ones(3))
    with pytest.raises(ValueError, match="matrix is 2x2 but b has length 3"):
        lu_solve(factors, [1.0, 1.0, 1.0])


# --- safe-side root search ------------------------------------------------------

_inside = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(min_value=-4.0, max_value=4.0),
    span=st.floats(min_value=1e-3, max_value=8.0),
    unit_roots=st.lists(_inside, min_size=3, max_size=3),
    three_inside=st.booleans(),
    offset=st.floats(min_value=0.0, max_value=4.0),
    scale=st.sampled_from([-3.0, -1e-6, 1e-6, 3.0]),
    tol=st.one_of(st.just(0.0), st.floats(min_value=1e-15, max_value=1.0)),
    halvings=st.integers(min_value=1, max_value=60),
)
def test_safe_side_root_ends_on_lo_side_of_a_cubic(lo, span, unit_roots, three_inside,
                                                   offset, scale, tol, halvings):
    hi = lo + span
    r0, r1, r2 = (lo + u * span for u in unit_roots)

    # three roots inside the bracket, or one and a quadratic factor that
    # keeps its sign: either way g(lo) and g(hi) differ in sign
    def cubic(x):
        if three_inside:
            return scale * (x - r0) * (x - r1) * (x - r2)
        return scale * (x - r0) * ((x - 2.0 * r1 + lo) ** 2 + offset)

    g_lo, g_hi = cubic(lo), cubic(hi)
    # only rounding (a root rounded onto lo) can undo the sign change
    assume(g_lo * g_hi < 0.0)
    width = max(span * 2.0 ** -halvings, 4.0 * EPS * max(abs(lo), abs(hi)))
    called = []

    def g(x):
        called.append(x)
        return cubic(x)

    point, g_point, calls = safe_side_root(g, lo, hi, g_lo, g_hi, tol, width)
    assert calls == len(called)
    assert all(lo < x < hi for x in called)
    assert calls <= math.ceil(math.log2((hi - lo) / width)) + 2
    # the point and its reported value belong together, on lo's side
    assert g_point == cubic(point)
    assert g_point == 0.0 or (g_point < 0.0) == (g_lo < 0.0)
    if abs(g_point) > tol:
        # a width exit: the nearest far-side call bounds the last bracket
        far = [x for x in called if x > point and not (cubic(x) < 0.0) == (g_lo < 0.0)]
        assert min(far, default=hi) - point <= width


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_safe_side_root_takes_nan_for_the_far_side(side):
    # g undefined past its zero at 0.3, as a field past a model singularity
    def g(x):
        return side * (x - 0.3) if x < 0.3 else math.nan

    point, g_point, calls = safe_side_root(g, 0.0, 1.0, -0.3 * side, math.nan, 1e-9, 1e-12)
    assert 0.3 - 1e-9 <= point < 0.3
    assert g_point == g(point)
    assert calls <= 41


@pytest.mark.parametrize("g_hi", [math.nan, math.inf])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_safe_side_root_takes_the_midpoint_without_a_finite_far_value(side, g_hi):
    # no regula-falsi point comes from a non-finite g(hi): the first trial
    # is the midpoint, and the search still ends on lo's side
    called = []

    def g(x):
        called.append(x)
        return side * (x - 0.3)

    point, g_point, calls = safe_side_root(g, 0.0, 1.0, -0.3 * side, side * g_hi, 0.0, 1e-12)
    assert called[0] == 0.5
    assert calls == len(called) <= 41
    assert all(0.0 < x < 1.0 for x in called)
    assert g_point == g(point)
    assert g_point == 0.0 or (g_point < 0.0) == (side > 0.0)
    assert 0.0 <= 0.3 - point <= 1e-12


def test_safe_side_root_does_not_creep_an_ulp_per_call():
    # a line read through a state that moves in steps of ~1 ulp, as h along
    # a relay step's dense output does near the hit. The truncation
    # 0.2*span**2 fell far below an ulp once the bracket was ~1e-12 wide,
    # and regula falsi crept in from the far side an ulp per call, two calls
    # reading the same value: 11 calls where the exact line takes 9
    root, quantum = 0.6014742248464242, 1e-16

    def line(x):
        return 0.4 * (x - root)

    def quantized(x):
        return quantum * (math.floor(line(x) / quantum) + 0.5)

    _, _, exact_calls = safe_side_root(line, 0.0, 1.0, line(0.0), line(1.0), 0.0, 1e-12)
    called = []

    def g(x):
        called.append(x)
        return quantized(x)

    point, g_point, calls = safe_side_root(g, 0.0, 1.0, quantized(0.0), quantized(1.0),
                                           0.0, 1e-12)
    assert calls == len(called) <= exact_calls == 9
    assert len({quantized(x) for x in called}) == calls
    assert g_point < 0.0 and 0.0 < root - point <= 1e-12


def test_safe_side_root_rejects_a_bracket_it_cannot_narrow():
    g = lambda x: x - 0.5  # noqa: E731
    for lo, hi, g_lo, width in [(1.0, 0.0, -0.5, 1e-12), (0.0, 1.0, 0.0, 1e-12),
                                (0.0, 1.0, math.nan, 1e-12), (0.0, 1.0, -0.5, EPS)]:
        with pytest.raises(ValueError, match="bad bracket"):
            safe_side_root(g, lo, hi, g_lo, g(hi), 0.0, width)
    # g(hi) on lo's side is no bracket either
    with pytest.raises(ValueError, match="bad bracket"):
        safe_side_root(g, 0.0, 1.0, -0.5, -0.5, 0.0, 1e-12)


# --- closed-form quadratic root -----------------------------------------------

def exact_quadratic(g0, d1, d2, x):
    """g0 + d1*x + (d2/2)*x^2 at the rational x, exactly."""
    return Fraction(g0) + Fraction(d1) * x + Fraction(d2) / 2 * x * x


_WIDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=1000, deadline=None)
@given(g0=_WIDE, d1=st.one_of(st.just(0.0), _WIDE, _WIDE.map(lambda v: -v)),
       d2=st.one_of(st.just(0.0), _WIDE), flip=st.booleans(),
       hi=st.one_of(st.just(math.inf), _WIDE))
def test_quadratic_root_is_exact_over_the_float_range(g0, d1, d2, flip, hi):
    # g0 and the x^2 term of opposite signs, as in the one-stage guards'
    # series and the sliding threshold: one positive root, which is simple,
    # whatever the coefficients' magnitudes; a line when d2 = 0
    if flip:
        g0, d1, d2 = -g0, -d1, -d2
    d2 = -d2
    root = linalg.quadratic_root(g0, d1, d2, hi)

    def on_g0_side(x):
        return exact_quadratic(g0, d1, d2, x) * Fraction(g0) > 0

    slack, tiny = 4 * Fraction(EPS), Fraction(2) ** -1073
    if root is None:
        # no root below hi, or none inside the float range
        assert on_g0_side(Fraction(min(hi, sys.float_info.max)) * (1 - slack))
    else:
        # the root to a few ulps (a few subnormal quanta below the normal
        # range): g0's side just before it, the other side just after
        assert 0.0 <= root < hi
        below = Fraction(root) * (1 - slack) - tiny
        assert below <= 0 or on_g0_side(below)
        assert not on_g0_side(Fraction(root) * (1 + slack) + tiny)


@pytest.mark.parametrize("g0, d1, d2, root", [
    # d1^2 underflows beside 4*a*g0 after the coefficients are scaled
    (6.24367235517765e-39, -5.945360508154198e-79, -2 * 2.1512319015551195e+280,
     5.387365460575476e-160),
    # g0 = 0: the root -2*d1/d2 itself, not half of it
    (0.0, 9.874178259077872e+60, 2 * -1.0429381142240544e+286, 9.467655006955285e-226),
    # a root that underflows comes first, as 0.0
    (1e-300, -1e300, -1.0, 0.0),
])
def test_quadratic_root_of_coefficients_far_apart(g0, d1, d2, root):
    got = linalg.quadratic_root(g0, d1, d2, math.inf)
    assert got == pytest.approx(root, rel=4 * EPS, abs=0.0)


def exact_solve(a, b):
    """Solution of a x = b in exact rational arithmetic, None if a is
    singular. numpy.linalg.solve is no oracle on subnormal entries: it
    raises or returns NaN on systems that have a finite solution."""
    n = len(b)
    m = [[Fraction(v) for v in row] + [Fraction(bv)]
         for row, bv in zip(a.tolist(), b.tolist())]
    for col in range(n):
        p = next((r for r in range(col, n) if m[r][col] != 0), None)
        if p is None:
            return None
        m[col], m[p] = m[p], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                k = m[r][col] / m[col][col]
                m[r] = [u - k * w for u, w in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_lu_solve_residual_property(n, data):
    a = data.draw(hnp.arrays(
        np.float64, (n, n),
        elements=st.floats(min_value=-10.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
    ))
    b = data.draw(hnp.arrays(
        np.float64, (n,),
        elements=st.floats(min_value=-10.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
    ))
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError:
        return
    if not np.isfinite(cond) or cond > 1e8:
        return
    x_exact = exact_solve(a, b)
    if x_exact is None:
        return
    x = lu_solve(lu_factor(a), b)
    if max(abs(v) for v in x_exact) > sys.float_info.max:
        # the solution overflows float64 (a = [[2.2e-311]], b = [1]): no
        # finite x meets the residual check, so lu_solve must not return one
        assert not np.all(np.isfinite(x))
        return
    npt.assert_allclose(a @ x, b, rtol=0,
                        atol=1e-8 * max(1.0, float(np.linalg.norm(b))))


def test_lu_solve_overflowing_solution_is_not_finite():
    # x = 1 / 2.2e-311 exceeds float64; a finite answer would be wrong
    for a, b in (
        ([[2.2e-311]], [1.0]),
        ([[5e-324]], [1.0]),
        ([[1e-310, 3e-311], [2e-311, 2e-310]], [1.0, -3.0]),
    ):
        x = lu_solve(lu_factor(np.array(a)), np.array(b))
        assert not np.all(np.isfinite(x))



@pytest.mark.parametrize("ulps_below", [0, 1, 2])
def test_lu_solve_keeps_a_finite_solution_whose_products_overflow(ulps_below):
    # u33 = 2**-1023 makes x3 = 2**1023 and 2*x3 rounds to inf inside the
    # back substitution of x1, though x1 = -x3 is a float; without the
    # scaled redo x1 came back -inf (the inf positions then differed from
    # the array reference's fused dot product)
    u33 = math.ldexp(1.0, -1023)
    for _ in range(ulps_below):
        u33 = math.nextafter(u33, 0.0)
    a = np.array([[0.0, 0.0, u33], [1.0, -1.0, 2.0], [0.0, 1.0, -1.0]])
    b = np.array([1.0, 0.0, 0.0])
    x = lu_solve(lu_factor(a), b)
    # (-x3, x3, x3) with x3 = 1/u33 rounded
    assert x.tolist() == [float(v) for v in exact_solve(a, b)]
    # the same system with a float list, as the step kernel passes it
    assert same_floats(lu_solve(lu_factor(a), b.tolist()), x)


def loop_lu_solve(factors, b):
    """lu_solve as nested substitution loops over the factor rows, with the
    same scaled redo after an overflow: the code the generated straight-line
    substitution unrolls, operation for operation."""
    a = factors.combined
    n = len(a)
    vals = [float(v) for v in b]
    x = [vals[p] for p in factors.pivots]
    k = 0
    while True:
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
        if k or n == 0 or math.isfinite(x[0]):
            break
        k = math.frexp(n * max(1.0, max(max(map(abs, row)) for row in a)))[1] + n
        x = [math.ldexp(vals[p], -k) for p in factors.pivots]
    if k:
        up, up2 = 2.0 ** (k // 2), 2.0 ** (k - k // 2)
        x = [v * up * up2 for v in x]
    return np.array(x)


_TINY = 5e-324
_ordinary = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                      allow_infinity=False)
# signed zeros and subnormals beside ordinary values; a right-hand side
# near 1e308 or a subnormal pivot often sends a substitution to inf and so
# through the scaled redo
_solve_specials = st.sampled_from([0.0, -0.0, _TINY, -_TINY, 1e-310, -2.2e-308])
_matrix_entries = st.one_of(_ordinary, _solve_specials)
_rhs_entries = st.one_of(_ordinary, _solve_specials, st.sampled_from([1e308, -1.5e308]),
                         st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _linear_systems(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    a = draw(hnp.arrays(np.float64, (n, n), elements=_matrix_entries, fill=st.nothing()))
    b = draw(hnp.arrays(np.float64, (n,), elements=_rhs_entries, fill=st.nothing()))
    return a.tolist(), b.tolist()


@settings(max_examples=400, deadline=None)
@given(system=_linear_systems())
# u33 = 2**-1023: 2*x3 overflows in x1's back substitution, so the scaled redo
@example(system=([[0.0, 0.0, 2.0 ** -1023], [1.0, -1.0, 2.0], [0.0, 1.0, -1.0]],
                 [1.0, 0.0, 0.0]))
# a solution of signed zeros: -0.0 over a positive pivot, and 0.0 + (-0.0)
@example(system=([[2.0, 1.0], [1.0, 3.0]], [-0.0, -0.0]))
@example(system=([[1.0, -0.0], [-0.0, -1.0]], [-0.0, 0.0]))
# subnormal pivots and right-hand side
@example(system=([[_TINY, 0.0], [0.0, 3 * _TINY]], [_TINY, -_TINY]))
def test_lu_solve_matches_the_loop_substitution_bit_for_bit(system):
    a, b = system
    try:
        factors = lu_factor(np.array(a, dtype=float).reshape(len(b), len(b)))
    except SingularMatrix:
        return
    expected = loop_lu_solve(factors, b)
    x = lu_solve(factors, np.array(b))
    assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (len(b),)
    # same bits: signed zeros, subnormals, inf and NaN positions included
    assert x.tobytes() == expected.tobytes()
    # a float list, as the step kernel passes, gives Python floats of those bits
    assert same_floats(lu_solve(factors, b), expected)


def check_first_lu_solve(factors, b):
    """lu_solve of a float list in the order that checks b before it
    substitutes: finiteness, then length, then the loop substitution with
    its scaled redo."""
    if not all(map(math.isfinite, b)):
        raise ValueError("vector entries must be finite")
    n = factors.n
    if len(b) != n:
        raise ValueError(f"matrix is {n}x{n} but b has length {len(b)}")
    return loop_lu_solve(factors, b).tolist()


def solve_outcome(solve, factors, b):
    # the result's bits, or the ValueError's message; b must stay as it was
    given = list(b)
    try:
        x = solve(factors, given)
    except ValueError as exc:
        outcome = str(exc)
    else:
        assert type(x) is list and all(type(v) is float for v in x)
        outcome = np.array(x, dtype=float).tobytes()
    assert np.array(given).tobytes() == np.array(b).tobytes()
    return outcome


@st.composite
def _list_solves(draw):
    """A factorable n x n system, n = 1..4, whose right-hand side may carry
    inf or NaN at any position and may be an entry short or long."""
    n = draw(st.integers(min_value=1, max_value=4))
    a = draw(hnp.arrays(np.float64, (n, n), elements=_matrix_entries, fill=st.nothing()))
    b = draw(hnp.arrays(np.float64, (n,), elements=_rhs_entries, fill=st.nothing())).tolist()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        b[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    length = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    return a.tolist(), (b + [1.0])[:length]


@settings(max_examples=300, deadline=None)
@given(system=_list_solves())
# 2*x3 overflows in x1's back substitution: the scaled redo
@example(system=([[0.0, 0.0, 2.0 ** -1023], [1.0, -1.0, 2.0], [0.0, 1.0, -1.0]],
                 [1.0, 0.0, 0.0]))
# a solution that overflows float64 itself keeps its inf
@example(system=([[2.2e-311]], [1.0]))
# a non-finite entry at the last position, and beside a wrong length
@example(system=([[2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]], [1.0, 2.0, 3.0, math.nan]))
@example(system=([[2.0, 1.0], [1.0, 3.0]], [-math.inf, 1.0, 2.0]))
@example(system=([[2.0, 1.0], [1.0, 3.0]], [1.0]))
def test_lu_solve_of_a_list_checks_its_result_as_the_check_first_order_did(system):
    # lu_solve substitutes a list of the right length first and checks b
    # only when x[0] is not finite: the same bits, exceptions and messages
    a, b = system
    try:
        factors = lu_factor(a)
    except SingularMatrix:
        assume(False)
    assert solve_outcome(lu_solve, factors, b) == solve_outcome(check_first_lu_solve, factors, b)


def test_lu_solve_generates_each_substitution_once(monkeypatch):
    generated = []
    source = linalg._substitution_source

    def counting_source(n):
        generated.append(n)
        return source(n)

    monkeypatch.setattr(linalg, "_substitution_source", counting_source)
    monkeypatch.setattr(linalg, "_GENERATED", {})
    for _ in range(3):
        for n in (1, 2, 3):
            x = lu_solve(lu_factor(2.0 * np.eye(n)), [1.0] * n)
            assert same_floats(x, np.full(n, 0.5))
    # the overflowing redo runs the same code on the scaled right-hand side
    u33 = math.ldexp(1.0, -1023)
    lu_solve(lu_factor([[0.0, 0.0, u33], [1.0, -1.0, 2.0], [0.0, 1.0, -1.0]]),
             [1.0, 0.0, 0.0])
    assert generated == [1, 2, 3]
    assert (linalg.generated(counting_source, 2)
            is linalg.generated(counting_source, 2) is linalg._GENERATED[counting_source, 2])


def test_lu_solve_subnormal_systems_numpy_gets_wrong():
    # numpy.linalg.solve raises on the first and returns NaN on the second;
    # both have the exact solution 0
    tiny = 5.35742861e-310
    for a in ([[tiny, tiny], [tiny, 0.0]], [[0.0, tiny], [tiny, tiny]]):
        x = lu_solve(lu_factor(np.array(a)), np.zeros(2))
        npt.assert_array_equal(x, [0.0, 0.0])

# --- finite differences ---------------------------------------------------

def is_float_rows(rows, m, n):
    # m lists of n Python floats, the form the stencils give
    return (type(rows) is list and len(rows) == m
            and all(type(r) is list and len(r) == n and all(type(v) is float for v in r)
                    for r in rows))


def test_fd_jacobian_polynomial_and_trig():
    # f = (x0^2, x0*x1, sin x1); J = [[2x0, 0], [x1, x0], [0, cos x1]]
    def f(x):
        assert type(x) is list
        return [x[0] ** 2, x[0] * x[1], math.sin(x[1])]

    expected = np.array([
        [3.0, 0.0],
        [0.7, 1.5],
        [0.0, math.cos(0.7)],
    ])
    for x in ([1.5, 0.7], np.array([1.5, 0.7])):
        J = fd_jacobian(f, x)
        assert is_float_rows(J, 3, 2)
        npt.assert_allclose(J, expected, rtol=0, atol=1e-7)


def test_fd_jacobian_one_sided_at_domain_edge():
    # domain x <= 1 blocks the forward probe at x = 1; d(x^3)/dx = 3 there
    def f(x):
        assert type(x) is list and x[0] <= 1.0
        return [x[0] ** 3]

    J = fd_jacobian(f, [1.0], domain=lambda x: type(x) is list and x[0] <= 1.0)
    assert is_float_rows(J, 1, 1)
    npt.assert_allclose(J, [[3.0]], rtol=0, atol=1e-6)


def test_fd_jacobian_raises_when_boxed_in():
    with pytest.raises(DomainViolation):
        fd_jacobian(lambda x: x, np.array([0.0]), domain=lambda x: False)


def test_fd_jacobian_reads_x_once_and_leaves_it_as_it_was():
    # x is read once as floats: the caller's array or list is never written,
    # not even by a field that writes the point it is handed
    def f(v):
        value = [v[0] * v[1], v[1]]
        v[:] = [math.nan] * len(v)
        return value

    for x in (np.array([0.5, -2.0]), [0.5, -2.0]):
        before = np.array(x).tobytes()
        J = fd_jacobian(f, x)
        assert np.array(x).tobytes() == before
        npt.assert_allclose(J, [[-2.0, 0.5], [0.0, 1.0]], rtol=0, atol=1e-7)
    for x in ([math.inf, 0.0], np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            fd_jacobian(f, x)
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            fd_gradient(lambda v: v[0], x)


def test_fd_gradient_quadratic():
    # h = x0^2 + 3 x0 x1; grad = (2x0 + 3x1, 3x0)
    def h(x):
        assert type(x) is list
        return x[0] ** 2 + 3.0 * x[0] * x[1]

    grad = fd_gradient(h, np.array([2.0, -1.0]))
    assert is_float_rows([grad], 1, 2)
    npt.assert_allclose(grad, [1.0, 6.0], rtol=0, atol=1e-6)


def reference_fd_gradient(h, x, domain=None):
    """The stand-alone gradient stencil fd_gradient used to carry: central
    differences, one-sided where one probe leaves the domain."""
    x = np.asarray(x, dtype=float)
    steps = np.sqrt(EPS) * np.maximum(1.0, np.abs(x))
    h0 = None
    grad = np.empty_like(x)
    for j in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[j] = x[j] + steps[j]
        xm[j] = x[j] - steps[j]
        ok_p = domain is None or bool(domain(xp))
        ok_m = domain is None or bool(domain(xm))
        if ok_p and ok_m:
            grad[j] = (float(h(xp)) - float(h(xm))) / (xp[j] - xm[j])
        elif ok_p or ok_m:
            if h0 is None:
                h0 = float(h(x))
            if ok_p:
                grad[j] = (float(h(xp)) - h0) / (xp[j] - x[j])
            else:
                grad[j] = (h0 - float(h(xm))) / (x[j] - xm[j])
        else:
            raise DomainViolation(
                f"both perturbations of coordinate {j} leave the domain"
            )
    return grad


_fd_floats = st.floats(min_value=-10.0, max_value=10.0,
                       allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_fd_gradient_matches_the_reference(n, data):
    x = data.draw(hnp.arrays(np.float64, (n,), elements=_fd_floats))
    c = data.draw(hnp.arrays(np.float64, (n,), elements=_fd_floats))
    q = data.draw(hnp.arrays(np.float64, (n, n), elements=_fd_floats))

    def h(v):
        # a list from the stencils, an array from the reference: the same bits
        v = np.asarray(v)
        return float(c @ v + v @ q @ v + math.sin(v[0]))

    # per coordinate: no wall, a wall at x_j above (forward probe leaves),
    # below (backward probe leaves), or on both sides (boxed in)
    walls = data.draw(st.lists(st.sampled_from(("none", "above", "below", "both")),
                               min_size=n, max_size=n))
    lower = np.array([x[j] if w in ("below", "both") else -np.inf
                      for j, w in enumerate(walls)])
    upper = np.array([x[j] if w in ("above", "both") else np.inf
                      for j, w in enumerate(walls)])

    def domain(v):
        v = np.asarray(v)
        return bool(np.all(v >= lower) and np.all(v <= upper))

    # fd_gradient is fd_jacobian of h as a one-output field; under walls
    # that one-output Jacobian must keep the reference's one-sided stencils
    def gradient(dom):
        if dom is None:
            return fd_gradient(h, x)
        return fd_jacobian(lambda v: [h(v)], x, dom)[0]

    for dom in (None, domain):
        try:
            expected = reference_fd_gradient(h, x, dom)
        except DomainViolation:
            with pytest.raises(DomainViolation):
                gradient(dom)
            continue
        got = gradient(dom)
        assert is_float_rows([got], 1, n)
        assert np.array(got).tobytes() == expected.tobytes()


def reference_fd_jacobian(f, x, domain=None):
    """fd_jacobian as array formulas, one numpy column per coordinate:
    central differences, one-sided where one probe leaves the domain."""
    x = np.asarray(x, dtype=float)
    steps = np.sqrt(EPS) * np.maximum(1.0, np.abs(x))
    fx = None
    cols = []
    for j in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[j] = x[j] + steps[j]
        xm[j] = x[j] - steps[j]
        ok_p = domain is None or bool(domain(xp))
        ok_m = domain is None or bool(domain(xm))
        if ok_p and ok_m:
            cols.append((np.asarray(f(xp), float) - np.asarray(f(xm), float))
                        / (xp[j] - xm[j]))
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


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), m=st.integers(min_value=1, max_value=3),
       data=st.data())
def test_fd_jacobian_matches_the_array_reference(n, m, data):
    x = data.draw(hnp.arrays(np.float64, (n,), elements=_fd_floats))
    c = data.draw(hnp.arrays(np.float64, (m,), elements=_fd_floats))
    q = data.draw(hnp.arrays(np.float64, (m, n), elements=_fd_floats))
    seen = []

    def f(v):
        # a list from the stencil, an array from the reference: the same bits
        seen.append(v)
        v = np.asarray(v)
        return (c + q @ v + np.sin(v[0] * v[-1])).tolist()

    # per coordinate: no wall, a wall at x_j above (forward probe leaves),
    # below (backward probe leaves), or on both sides (boxed in)
    walls = data.draw(st.lists(st.sampled_from(("none", "above", "below", "both")),
                               min_size=n, max_size=n))
    lower = np.array([x[j] if w in ("below", "both") else -np.inf
                      for j, w in enumerate(walls)])
    upper = np.array([x[j] if w in ("above", "both") else np.inf
                      for j, w in enumerate(walls)])

    def domain(v):
        seen.append(v)
        v = np.asarray(v)
        return bool(np.all(v >= lower) and np.all(v <= upper))

    x_bits = x.tobytes()
    for dom in (None, domain):
        try:
            expected = reference_fd_jacobian(f, x, dom)
        except DomainViolation as exc:
            with pytest.raises(DomainViolation, match=str(exc)):
                fd_jacobian(f, x, dom)
            continue
        seen.clear()
        got = fd_jacobian(f, x, dom)
        # f and domain see lists of Python floats, and the result is rows of
        # Python floats: that form is part of the contract. A point is a
        # fresh list, shared by at most its domain check and its evaluation
        assert all(is_float_rows([v], 1, n) for v in seen)
        assert max(collections.Counter(map(id, seen)).values(), default=0) <= 2
        assert is_float_rows(got, m, n)
        assert np.array(got).tobytes() == expected.tobytes()
    assert x.tobytes() == x_bits


# --- spectral radius bound -------------------------------------------------

def test_spectral_bound_diagonal_exact():
    m = np.diag([3.0, -5.0])
    npt.assert_allclose(spectral_radius_bound(m), 5.0, rtol=1e-12, atol=0)


def test_spectral_bound_rotation():
    # eigenvalues +-i, rho = 1; Gershgorin row sums are exactly 1
    q = np.array([[0.0, -1.0], [1.0, 0.0]])
    npt.assert_allclose(spectral_radius_bound(q), 1.0, rtol=1e-12, atol=0)


def test_spectral_bound_nilpotent():
    # rho = 0; both norms are 1
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = spectral_radius_bound(m)
    assert 0.0 <= b <= 1.0


def test_spectral_bound_is_not_a_power_estimate():
    # a power iteration from the all-ones start sees 0 for the first matrix
    # (rho = 4) and under-reads the rotation-scaling (rho = 0.9*sqrt(2))
    npt.assert_allclose(
        spectral_radius_bound(np.array([[2.0, -2.0], [-2.0, 2.0]])), 4.0, rtol=1e-15
    )
    m = 0.9 * np.array([[1.0, -1.0], [1.0, 1.0]])
    b = spectral_radius_bound(m)
    assert b >= 0.9 * math.sqrt(2.0)
    npt.assert_allclose(b, 1.8, rtol=1e-15)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_spectral_bound_dominates_the_eigenvalues(n, data):
    m = data.draw(hnp.arrays(np.float64, (n, n), elements=_lu_entries))
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    assert rho <= spectral_radius_bound(m) * (1.0 + 1e-9)


def test_spectral_bound_dominates_on_known_spectra():
    # diagonal, nilpotent and triangular matrices, whose spectra are known
    rng = np.random.default_rng(7)
    cases = [
        np.zeros((2, 2)),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[2.0, 5.0], [0.0, 0.5]]),
    ]
    for _ in range(10):
        cases.append(np.diag(rng.uniform(-3.0, 3.0, size=4)))
    for m in cases:
        rho = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert spectral_radius_bound(m) >= rho - 1e-9


def test_spectral_bound_spec_diagonal_window():
    b = spectral_radius_bound(np.diag([0.5, -0.25]))
    assert 0.5 <= b <= 0.525

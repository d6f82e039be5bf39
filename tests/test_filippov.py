"""Crossing/sliding classification, plain and slow/fast."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rosevent.filippov import (
    FilippovCoeffs,
    Kind,
    classify_general,
    classify_spp,
    crossing_sufficient,
    filippov_coeffs,
    sliding_sufficient,
)
from rosevent.problems import (
    PiecewiseProblem,
    SppProblem,
    builtin,
    spp_flatten,
)

SLIDING_KINDS = (Kind.SLIDING, Kind.SLIDING_ATTRACTIVE, Kind.SLIDING_REPULSIVE)


def level_problem(f1_val, f2_val, level=0.5):
    return PiecewiseProblem(
        dim=1,
        f1=lambda x: np.array([f1_val]),
        f2=lambda x: np.array([f2_val]),
        h=lambda x: x[0] - level,
        grad_h=lambda x: np.array([1.0]),
    )


# --- classification from normal components ---------------------------------

def test_classify_general_attractive_when_fields_oppose_inward():
    out = classify_general(builtin("tent"), [0.5])
    assert out.kind is Kind.SLIDING_ATTRACTIVE
    assert out.normal_products == pytest.approx((1.0, -1.0), abs=1e-9)


def test_classify_general_other_sign_patterns():
    assert classify_general(level_problem(-1.0, 1.0), [0.5]).kind \
        is Kind.SLIDING_REPULSIVE
    assert classify_general(level_problem(1.0, 1.0), [0.5]).kind \
        is Kind.CROSSING
    assert classify_general(level_problem(-2.0, -1.0), [0.5]).kind \
        is Kind.CROSSING
    assert classify_general(level_problem(0.0, 1.0), [0.5]).kind \
        is Kind.TANGENTIAL


def test_classify_general_requires_surface_state():
    with pytest.raises(ValueError, match="not on the surface"):
        classify_general(builtin("tent"), [0.3])


# --- slow/fast quadratic coefficients ---------------------------------------

def test_coeffs_relay_with_fast_output():
    # surface h = 2z - y1: normal slow components are -1 and +1, and the
    # fast term contributes y1 on the surface
    problem = builtin("teixeira", eps=1e-2)
    coeffs = filippov_coeffs(problem, [0.8, -0.3, 0.4])
    assert coeffs.A == pytest.approx(-1.0, abs=1e-6)
    assert coeffs.B == pytest.approx(0.0, abs=1e-6)
    assert coeffs.Csq == pytest.approx(0.64, abs=1e-6)


def test_coeffs_fast_feedthrough_only():
    # surface h = y1 with g orthogonal to it: A = z^2, B = Csq = 0
    problem = builtin("ostermann_modified", eps=1e-3)
    coeffs = filippov_coeffs(problem, [0.0, 0.4, -1.3])
    assert coeffs.A == pytest.approx(1.69, abs=1e-9)
    assert coeffs.B == pytest.approx(0.0, abs=1e-9)
    assert coeffs.Csq == pytest.approx(0.0, abs=1e-9)


def test_coeffs_relay_feedback_combination():
    problem = builtin("kowalczyk", eps=1e-2)
    y = 0.5
    z = 0.9 * y / 1.9
    coeffs = filippov_coeffs(problem, [y, z])
    assert coeffs.A == pytest.approx(-0.81, abs=1e-9)
    assert coeffs.B == pytest.approx(0.0, abs=1e-9)
    assert coeffs.Csq == pytest.approx(y * y, abs=1e-9)


def test_quadratic_evaluation():
    coeffs = FilippovCoeffs(A=-1.0, B=0.5, Csq=2.0)
    assert coeffs.quadratic(0.1) == pytest.approx(-0.01 + 0.05 + 2.0)


# --- classification in eps ---------------------------------------------------

def test_classify_spp_sliding_versus_crossing():
    problem = builtin("teixeira", eps=1e-2)
    # inside the sliding window |y1| < eps the quadratic is negative
    inside = filippov_coeffs(problem, [0.005, 0.0, 0.0025])
    assert classify_spp(inside, 1e-2) is Kind.SLIDING
    # far outside the window the slow drift dominates: crossing
    outside = filippov_coeffs(problem, [0.05, 0.0, 0.025])
    assert classify_spp(outside, 1e-2) is Kind.CROSSING
    # the window edge is degenerate
    edge = FilippovCoeffs(A=-1.0, B=0.0, Csq=1e-4)
    assert classify_spp(edge, 1e-2) is Kind.TANGENTIAL


def test_classify_spp_validates_eps():
    with pytest.raises(ValueError, match="eps"):
        classify_spp(FilippovCoeffs(1.0, 0.0, 0.0), 0.0)


def test_relay_sliding_is_repulsive_on_stacked_problem():
    spp = builtin("teixeira", eps=1e-2)
    flat = spp_flatten(spp)
    u = np.array([0.005, 0.0, 0.0025])
    out = classify_general(flat, u)
    assert out.kind is Kind.SLIDING_REPULSIVE
    p1, p2 = out.normal_products
    assert p1 < 0.0 < p2


# --- closed-form sufficient conditions ---------------------------------------

def test_sliding_threshold():
    assert sliding_sufficient(FilippovCoeffs(-1.0, 0.0, 1.0)) == pytest.approx(1.0)
    assert sliding_sufficient(FilippovCoeffs(-1.0, 0.0, 0.0)) == pytest.approx(0.0)
    assert sliding_sufficient(FilippovCoeffs(1.0, -1.0, 1.0)) is None
    assert sliding_sufficient(FilippovCoeffs(0.0, -1.0, 1.0)) is None
    # just above the threshold the quadratic is negative
    coeffs = FilippovCoeffs(-1.0, 0.3, 0.8)
    eps2 = sliding_sufficient(coeffs)
    assert coeffs.quadratic(1.01 * eps2) < 0.0
    assert coeffs.quadratic(0.99 * eps2) > 0.0


def exact_quadratic(coeffs, eps):
    e = Fraction(eps)
    return Fraction(coeffs.A) * e * e + Fraction(coeffs.B) * e + Fraction(coeffs.Csq)


def check_sliding_threshold(coeffs):
    # q >= 0 just below eps_2 and q < 0 just above it, exactly; eps_2 >= 0
    eps2 = sliding_sufficient(coeffs)
    assert eps2 >= 0.0
    margin = 1 + 16 * Fraction(np.finfo(float).eps)
    above = Fraction(eps2) * margin if eps2 > 0.0 else Fraction(5e-324)
    assert exact_quadratic(coeffs, above) < 0
    if eps2 > 0.0:
        assert exact_quadratic(coeffs, Fraction(eps2) / margin) >= 0
    return eps2


MAGNITUDES = st.floats(-12.0, 8.0).map(lambda e: 10.0 ** e)


@settings(max_examples=500, deadline=None)
@given(a=MAGNITUDES, b=st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda v: -v)),
       csq=st.one_of(st.just(0.0), MAGNITUDES))
def test_the_sliding_threshold_is_the_last_sign_change_of_q(a, b, csq):
    check_sliding_threshold(FilippovCoeffs(-a, b, csq))


def test_the_sliding_threshold_has_no_cancellation():
    # B^2 dwarfs 4*|A|*Csq, so the textbook formula cancels to -0.0; but
    # q(1e-13) = +9e-4, a crossing
    coeffs = FilippovCoeffs(-1.0, -1e9, 1e-3)
    assert coeffs.quadratic(1e-13) > 0.0
    assert check_sliding_threshold(coeffs) == pytest.approx(1e-12, rel=1e-6)


def test_the_sliding_threshold_of_a_fast_state_at_rest_is_zero():
    # teixeira at the origin: Csq = 0 and B = 0, so q = A*eps^2 < 0 for eps > 0
    coeffs = filippov_coeffs(builtin("teixeira", eps=1e-2), [0.0, 0.0, 0.0])
    assert coeffs.Csq == 0.0
    assert check_sliding_threshold(coeffs) == 0.0


def test_no_sliding_threshold_from_coefficients_that_give_none():
    # a negative Csq is no square; an infinite or NaN coefficient, or an A
    # whose double overflows, has no root from the solver; a root past the
    # largest float is out of its range
    for coeffs in (FilippovCoeffs(-1.0, 3.0, -2.0), FilippovCoeffs(-1.0, np.inf, 1.0),
                   FilippovCoeffs(-1.0, np.nan, 1.0), FilippovCoeffs(np.nan, 1.0, 1.0),
                   FilippovCoeffs(-1e308, 0.0, 1.0), FilippovCoeffs(-1e-300, 1e10, 1.0),
                   FilippovCoeffs(-1e-300, 1e10, 0.0)):
        assert sliding_sufficient(coeffs) is None


@pytest.mark.parametrize("coeffs, eps2", [
    # B^2 underflowed once the solver scaled all three coefficients by one
    # power of two, and it returned half the root -B/A, 4.73e-226
    (FilippovCoeffs(-1.0429381142240544e+286, 9.874178259077872e+60, 0.0),
     9.874178259077872e+60 / 1.0429381142240544e+286),
    # Csq 2**-1074 of A vanished in that scaling, and the threshold with it
    (FilippovCoeffs(-1e10, 0.0, 1e-320), 9.999944335758489e-166),
])
def test_the_sliding_threshold_of_coefficients_far_apart(coeffs, eps2):
    assert check_sliding_threshold(coeffs) == pytest.approx(eps2, rel=4e-16, abs=0.0)


WIDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=500, deadline=None)
@given(a=WIDE, b=st.one_of(st.just(0.0), WIDE, WIDE.map(lambda v: -v)),
       csq=st.one_of(st.just(0.0), WIDE))
def test_the_sliding_threshold_over_the_float_range(a, b, csq):
    coeffs = FilippovCoeffs(-a, b, csq)
    assume(math.isfinite(2.0 * coeffs.A))
    eps2 = sliding_sufficient(coeffs)
    if eps2 is None:
        # only a threshold past the largest float is out of range
        assert exact_quadratic(coeffs, Fraction(np.finfo(float).max)) >= 0
    elif eps2 >= 2.0 ** -1022:
        check_sliding_threshold(coeffs)
    else:
        # a threshold below the normal range, to a few subnormal quanta
        assert exact_quadratic(coeffs, Fraction(eps2) + Fraction(2) ** -1072) < 0


def test_crossing_sufficient_sign_patterns():
    always = FilippovCoeffs(1.0, -3.0, 3.0)  # negative discriminant
    assert crossing_sufficient(always)
    ray = FilippovCoeffs(1.0, 1.0, 0.0)  # roots at 0 and below
    assert crossing_sufficient(ray)
    for coeffs in (always, ray):
        for eps in (1e-6, 1e-3, 1e-1, 1.0, 10.0):
            assert coeffs.quadratic(eps) > 0.0
    # one-way condition: a double root at eps = 0 still crosses for every
    # positive eps but the sign pattern (B = 0) is not accepted
    boundary = FilippovCoeffs(1.69, 0.0, 0.0)
    assert not crossing_sufficient(boundary)
    assert all(boundary.quadratic(e) > 0.0 for e in (1e-6, 1e-2, 1.0))
    assert not crossing_sufficient(FilippovCoeffs(-1.0, 0.0, 1.0))


# --- structural properties ----------------------------------------------------

def fast_only_surface(eps):
    """Surface depending on the fast variable alone: h = z - 0.3."""
    # stacked state u = (y, z): F_i = [f_i; g], g = y - z shared
    return SppProblem(PiecewiseProblem(
        dim=2,
        f1=lambda u: np.array([1.0, u[0] - u[1]]),
        f2=lambda u: np.array([-2.0, u[0] - u[1]]),
        h=lambda u: u[1] - 0.3,
        grad_h=lambda u: np.array([0.0, 1.0]),
        x0=np.array([1.0, 0.0]),
    ), slow_dim=1, eps=eps)


def test_fast_only_surface_always_crosses():
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        problem = fast_only_surface(eps)
        coeffs = filippov_coeffs(problem, [1.0, 0.3])
        assert coeffs.A == 0.0 and coeffs.B == 0.0
        assert coeffs.Csq == pytest.approx(0.49)
        assert classify_spp(coeffs, eps) is Kind.CROSSING


def test_spp_and_stacked_classifications_agree():
    rng = np.random.default_rng(42)
    checked = 0
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        spp = builtin("kowalczyk", eps=eps)
        flat = spp_flatten(spp)
        for _ in range(25):
            y = float(rng.uniform(-2.0, 2.0))
            if abs(abs(y) - 0.9 * eps) < 1e-6:
                continue  # too close to the tangential boundary
            u = np.array([y, 0.9 * y / 1.9])
            coeffs = filippov_coeffs(spp, u)
            fast = classify_spp(coeffs, eps)
            full = classify_general(flat, u)
            if fast is Kind.CROSSING:
                assert full.kind is Kind.CROSSING
            elif fast in SLIDING_KINDS:
                assert full.kind in SLIDING_KINDS
            # q(eps) is eps^2 times the product of stacked normal components
            p1, p2 = full.normal_products
            assert coeffs.quadratic(eps) == pytest.approx(
                eps * eps * p1 * p2, rel=1e-7, abs=1e-12)
            checked += 1
    assert checked >= 90

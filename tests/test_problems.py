"""Problem containers, counters, slow/fast flattening, builtin registry."""

import numpy as np
import numpy.testing as npt
import pytest

from rosevent.errors import DomainViolation, ResidualTooLarge
from rosevent.problems import (
    builtin,
    eval_field,
    field_jacobian,
    h_gradient,
    h_hessian,
    problem_names,
    reduced_order_model,
    spp_flatten,
)


def test_eval_field_counts_and_validates():
    p = builtin("tent")
    npt.assert_array_equal(eval_field(p, 1, np.array([0.0])), [1.0])
    npt.assert_array_equal(eval_field(p, 2, np.array([0.0])), [-1.0])
    assert p.counters.f_evals == {1: 1, 2: 1}
    with pytest.raises(ValueError):
        eval_field(p, 3, np.array([0.0]))


def test_najafi_domain_violation_counted():
    p = builtin("najafi")
    ok = eval_field(p, 1, np.array([1.0, 0.96]))
    npt.assert_allclose(ok, [0.2, 1.0], rtol=0, atol=1e-15)
    with pytest.raises(DomainViolation):
        eval_field(p, 1, np.array([1.0, 1.5]))
    assert p.counters.domain_violations == {1: 1, 2: 0}
    assert p.counters.f_evals == {1: 1, 2: 0}
    # the post-switch field has no domain restriction
    npt.assert_array_equal(eval_field(p, 2, np.array([1.0, 1.5])), [0.0, 1.0])


def test_najafi_jacobian_refuses_past_switch():
    p = builtin("najafi")
    J = field_jacobian(p, 1, np.array([2.0, 0.75]))
    npt.assert_allclose(J, [[0.5, -2.0], [0.0, 0.0]], rtol=0, atol=1e-15)
    with pytest.raises(DomainViolation):
        field_jacobian(p, 1, np.array([2.0, 1.0]))


def test_h_gradient_hessian_analytic_or_fd():
    p = builtin("tent")
    npt.assert_array_equal(h_gradient(p, np.array([0.3])), [1.0])
    npt.assert_array_equal(h_hessian(p, np.array([0.3])), [[0.0]])


def test_spp_flatten_kowalczyk_fields():
    spp = builtin("kowalczyk", eps=2.0**-7)
    flat = spp_flatten(spp)
    assert flat.dim == 2
    assert flat.source_spp is spp
    u = np.array([0.5, -0.25])
    # slow block +-1, fast block (y - z)/eps = 0.75 * 128 exactly
    npt.assert_array_equal(eval_field(flat, 1, u), [1.0, 96.0])
    npt.assert_array_equal(eval_field(flat, 2, u), [-1.0, 96.0])
    npt.assert_array_equal(h_gradient(flat, u), [-0.9, 1.9])
    npt.assert_allclose(flat.h(u), -0.9 * 0.5 + 1.9 * -0.25, rtol=0, atol=0)
    npt.assert_array_equal(flat.x0, [1.0, 0.0])


def test_spp_flatten_slow_block_bit_equal():
    spp = builtin("teixeira", eps=1e-3)
    flat = spp_flatten(spp)
    u = np.array([0.37, -1.12, 0.185])
    y, z = spp.split(u)
    npt.assert_array_equal(eval_field(flat, 1, u)[:2], spp.f1(y, z))
    npt.assert_array_equal(eval_field(flat, 2, u)[:2], spp.f2(y, z))


def test_spp_flatten_jacobian_stacks_fast_rows():
    spp = builtin("kowalczyk", eps=1e-2)
    flat = spp_flatten(spp)
    J = field_jacobian(flat, 1, np.array([0.4, -0.2]))
    npt.assert_array_equal(J, [[0.0, 0.0], [100.0, -100.0]])


def test_spp_eps_must_be_positive():
    with pytest.raises(ValueError):
        builtin("kowalczyk", eps=0.0)
    with pytest.raises(ValueError):
        builtin("teixeira", eps=-1.0)


def test_reduced_model_on_consistent_manifold():
    spp = builtin("kowalczyk", eps=1e-2)
    red = reduced_order_model(spp, lambda y: y)  # g(y, y) = 0 identically
    assert red.dim == 1
    npt.assert_array_equal(eval_field(red, 1, np.array([0.7])), [1.0])
    # h on the manifold collapses to x itself: -0.9 x + 1.9 x = x
    npt.assert_allclose(red.h(np.array([0.7])), 0.7, rtol=1e-15, atol=0)


def test_reduced_model_rejects_bad_manifold():
    spp = builtin("kowalczyk", eps=1e-2)
    red = reduced_order_model(spp, lambda y: np.zeros(1))  # g(1, 0) = 1
    with pytest.raises(ResidualTooLarge):
        eval_field(red, 1, np.array([1.0]))


def test_builtin_registry():
    names = problem_names()
    assert names == sorted(names)
    for name in ("najafi", "tent", "linear_test", "kowalczyk",
                 "teixeira", "ostermann_modified"):
        assert name in names
    with pytest.raises(ValueError):
        builtin("nosuch")
    with pytest.raises(ValueError):
        builtin("tent", eps=1.0)  # tent takes no eps


def test_builtin_parameters_forwarded():
    p = builtin("tent", level=0.25)
    assert p.h(np.array([0.25])) == 0.0
    spp = builtin("kowalczyk", theta=-0.5, eps=1e-3)
    assert spp.eps == 1e-3
    npt.assert_array_equal(spp.h_y(np.array([1.0]), np.array([0.0])), [-0.5])

"""Blow-up upper bound from the weighted-mean functional."""

import math

import numpy as np
import pytest

from evocontrol import heat, kaplan
from evocontrol import quadrature as qd
from evocontrol.errors import NotApplicableError, OutOfDomainError


def test_closed_form_values():
    # p = 3, q0 = 2: -(1/2) log(1 - 1/4), by direct evaluation
    assert abs(kaplan.kaplan_time(2.0, 3) - 0.14384103622589045) <= 1e-15
    with pytest.raises(NotApplicableError):
        kaplan.kaplan_time(1.0, 2)
    with pytest.raises(NotApplicableError):
        kaplan.kaplan_time(0.5, 2)


def test_quadrature_agrees_with_closed_form():
    for q0 in (1.1, 1.2535, 2.0, 5.0, 50.0):
        for p in (2, 3, 4):
            closed = kaplan.kaplan_time(q0, p)
            by_quad = kaplan.kaplan_time_by_quadrature(q0, p)
            assert abs(closed - by_quad) <= 1e-8


def test_quadrature_near_critical_stress():
    q0 = 1.0 + 1e-9
    closed = kaplan.kaplan_time(q0, 2)
    by_quad = kaplan.kaplan_time_by_quadrature(q0, 2)
    assert closed > 10.0
    assert abs(closed - by_quad) <= 1e-6 * closed


def test_functional_of_the_first_mode():
    # Q(A s_1) = A / C_K with Q(f) = (1/2) int_0^pi sin(x) f(x) dx; the
    # weight only sees the first mode
    x, w = qd.nodes(8)

    def q(k):
        return 0.5 * float(np.dot(w, np.sin(x) * qd.sine_values(k, x)))

    assert abs(q(1) - 1.0 / heat.C_K) <= 1e-12
    assert all(abs(q(k)) <= 1e-12 for k in (2, 3, 5))


def test_every_route_rejects_a_power_that_is_not_an_integer_above_one():
    for p in (1, 2.5):
        routes = (
            lambda: kaplan.kaplan_time(2.0, p),
            lambda: kaplan.kaplan_time_by_quadrature(2.0, p),
            lambda: kaplan.comparison_blowup_time(2.0, p),
            lambda: kaplan.comparison_solution(2.0, p, 0.1),
        )
        for route in routes:
            with pytest.raises(ValueError):
                route()


def test_comparison_solution_properties():
    # fixed point at 1, decay below it
    for t in (0.1, 1.0, 3.0):
        assert abs(kaplan.comparison_solution(1.0, 2, t) - 1.0) <= 1e-9
    vals = [kaplan.comparison_solution(0.5, 2, t) for t in (0.0, 0.5, 1.5, 3.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # past the blow-up time the value does not exist
    with pytest.raises(OutOfDomainError):
        kaplan.comparison_solution(2.0, 2, 1.0)


def test_comparison_solution_matches_closed_form():
    # S(t) = (1 - (1 - q0^(1-p)) e^((p-1)t))^(-1/(p-1)), above and below
    # the fixed point S = 1
    for q0, p, t in ((2.0, 2, 0.5), (0.5, 2, 1.5), (1.5, 3, 0.2),
                     (0.8, 3, 2.0), (2.0, 4, 0.02)):
        exact = (1.0 - (1.0 - q0 ** (1 - p)) * math.exp((p - 1) * t)) ** (
            -1.0 / (p - 1))
        assert abs(kaplan.comparison_solution(q0, p, t) - exact) <= 1e-9 * exact


def test_comparison_solution_far_below_the_fixed_point():
    # q0 = 1/2, p = 2: S = 1/(1 + e^t). sigma = 1/S grows like e^t; the
    # global error of the default tolerances grows like 9e-12 t, so
    # 6.5e-9 relative at t = 700
    exact = 1.0 / (1.0 + math.exp(700.0))
    assert abs(kaplan.comparison_solution(0.5, 2, 700.0) - exact) <= (
        1e-8 * exact)
    # past t = 706 sigma overflows: the run is a domain exit, not an
    # escape of S
    with pytest.raises(OutOfDomainError, match="domain_exit at t=706"):
        kaplan.comparison_solution(0.5, 2, 709.0)
    with pytest.raises(OutOfDomainError, match="escapes"):
        kaplan.comparison_solution(2.0, 2, 1.0)


def test_comparison_solution_needs_a_positive_datum():
    # sigma(0) = q0^(1-p) is undefined at q0 = 0 and negative q0 has no
    # comparison problem
    for q0 in (0.0, -0.5):
        with pytest.raises(ValueError):
            kaplan.comparison_solution(q0, 2, 0.1)


def test_comparison_blowup_matches_closed_form():
    q0 = 2.0 / heat.C_K
    closed = kaplan.kaplan_time(q0, 2)
    by_ode = kaplan.comparison_blowup_time(q0, 2)
    assert abs(closed - by_ode) <= 1e-9


def test_iteration_converges_from_below():
    q0 = 2.0 / heat.C_K
    t = 0.5
    target = kaplan.comparison_solution(q0, 2, t)
    prev = None
    for n in (0, 2, 4, 8):
        val = kaplan.sn_iteration(q0, 2, n, t)
        if prev is not None:
            assert val >= prev - 1e-12
        prev = val
    assert abs(prev - target) <= 1e-3
    # base case is the pure decay term
    assert abs(kaplan.sn_iteration(q0, 2, 0, t) - q0 * math.exp(-t)) <= 1e-12

"""Property-based checks of the prox and envelope oracles.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitflow import (BoxIndicator, L1, generalized_gradient, prox_g,
                       solve_reference)
from splitflow.envelopes import _fb_kernel

from conftest import make_logistic_l1, make_quadratic_box, make_quadratic_l1
from oracles import fb_envelope_prox_form

N = 6
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vectors = arrays(np.float64, N, elements=finite)
seeds = st.integers(0, 2**16)
# mu as a fraction of 1/L, inside the open interval (0, 1/L)
mu_fractions = st.floats(0.01, 0.99)


def problem_for(kind, seed):
    if kind == "quadratic_l1":
        return make_quadratic_l1(n=N, seed=seed)
    if kind == "quadratic_box":
        return make_quadratic_box(n=N, seed=seed)
    return make_logistic_l1(s=10, n=N, seed=seed)


problem_kinds = st.sampled_from(["quadratic_l1", "quadratic_box",
                                 "logistic_l1"])


@PROPERTY
@given(problem_kinds, seeds, vectors, mu_fractions)
def test_kernel_value_matches_prox_form(kind, seed, x, frac):
    p = problem_for(kind, seed)
    mu = frac / p.f.L
    value = _fb_kernel(p, x, mu)[4]
    expected = fb_envelope_prox_form(p, x, mu)
    assert abs(value - expected) <= 1e-10 * (1.0 + abs(value))


@PROPERTY
@given(problem_kinds, seeds, vectors, mu_fractions)
def test_envelope_below_objective_on_domain(kind, seed, x, frac):
    p = problem_for(kind, seed)
    mu = frac / p.f.L
    if kind == "quadratic_box":
        x = np.clip(x, -1.0, 1.0)       # dom g is the box
    value = _fb_kernel(p, x, mu)[4]
    F = p.objective(x)
    assert value <= F + 1e-10 * (1.0 + abs(F))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(problem_kinds, seeds, mu_fractions)
def test_gradient_map_vanishes_at_reference(kind, seed, frac):
    p = problem_for(kind, seed)
    mu = frac / p.f.L
    tol = 1e-10
    ref = solve_reference(p, mu, tol=tol)
    assert np.linalg.norm(generalized_gradient(p, ref.x, mu)) <= tol


@PROPERTY
@given(st.sampled_from(["l1", "box"]), vectors, vectors,
       st.floats(0.01, 5.0), st.floats(0.01, 5.0))
def test_prox_firmly_nonexpansive(gname, a, b, mu, scale):
    g = L1(scale) if gname == "l1" else BoxIndicator(-scale * np.ones(N),
                                                     scale * np.ones(N))
    d = prox_g(g, a, mu) - prox_g(g, b, mu)
    assert d @ d <= d @ (a - b) + 1e-12 * (1.0 + np.abs(a - b).max() ** 2)

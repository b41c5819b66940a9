import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from splitflow import (BoxIndicator, CompositeProblem, L1, LogisticRidge,
                       Quadratic, SmoothFunction, fb_envelope)
from oracles import random_spd_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_quadratic_l1(n=20, m=1.0, L=10.0, lam=0.5, seed=0):
    """Strongly convex quadratic plus l1 with a planted [m, L] spectrum."""
    gen = np.random.default_rng(seed)
    Q = random_spd_matrix(n, m, L, gen)
    q = gen.standard_normal(n)
    return CompositeProblem(Quadratic(Q, q, m=m, L=L), L1(lam))


def smooth_problem(n=4, seed=0, m=0.5, L=3.0):
    """Quadratic with a planted [m, L] spectrum and g = 0, the unbounded
    box, whose prox is the identity."""
    gen = np.random.default_rng(seed)
    Q = random_spd_matrix(n, m, L, gen)
    return CompositeProblem(Quadratic(Q, gen.standard_normal(n), m=m, L=L),
                            BoxIndicator(-np.inf, np.inf))


def moreau_envelope(g, v, mu):
    """(value, gradient) of g's Moreau envelope at v: the FB envelope of
    f = 0 plus g, whose gradient is (v - prox_{mu g}(v)) / mu."""
    n = v.shape[-1]
    zero = Quadratic(np.zeros((n, n)), np.zeros(n))
    ev = fb_envelope(CompositeProblem(zero, g), v, mu)
    return ev.value, ev.gradient


class SquaredNorm(SmoothFunction):
    """A user-defined f = ||x||^2, with neither prox nor Hessian oracles."""

    m = L = 2.0

    def __init__(self, dim):
        self.dim = dim

    def value(self, x):
        return np.sum(x * x, axis=-1)

    def gradient(self, x):
        return 2.0 * x


def make_quadratic_box(n=12, m=1.0, L=10.0, seed=0):
    gen = np.random.default_rng(seed)
    Q = random_spd_matrix(n, m, L, gen)
    q = 3.0 * gen.standard_normal(n)
    return CompositeProblem(Quadratic(Q, q, m=m, L=L),
                            BoxIndicator(-np.ones(n), np.ones(n)))


def make_logistic_l1(s=30, n=15, ridge=0.5, lam=0.3, seed=0):
    gen = np.random.default_rng(seed)
    A = gen.standard_normal((s, n))
    y = (gen.uniform(size=s) < 0.5).astype(float)
    return CompositeProblem(LogisticRidge(A, y, ridge), L1(lam))


def make_worst_case_quadratic(n=200, L=1.0):
    """Nesterov's worst-case quadratic (Introductory Lectures on Convex
    Optimization, 2004, Sec. 2.1.2): f = (L/8) x'Ax - (L/4) x_1 with
    A = tridiag(-1, 2, -1) and m = 0, plus g the box [-10, 10]^n, which
    stays inactive (x*_i = 1 - i/(n+1)). Returns the problem and x*."""
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    q = np.zeros(n)
    q[0] = -L / 4.0
    p = CompositeProblem(Quadratic(L / 4.0 * A, q, m=0.0, L=L),
                         BoxIndicator(np.full(n, -10.0), np.full(n, 10.0)))
    return p, 1.0 - np.arange(1, n + 1) / (n + 1.0)

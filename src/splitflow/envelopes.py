"""Forward-backward and Douglas-Rachford envelopes.

Both envelopes are smooth surrogates of the composite objective F = f + g
that share its minimizers for penalties mu in (0, 1/L). The generalized
gradient map G_mu plays the role of the gradient in the associated
splitting dynamics and vanishes exactly at minimizers of F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterDomainError

__all__ = [
    "EnvelopeConstants",
    "EnvelopeEval",
    "forward_prox_point",
    "generalized_gradient",
    "fb_envelope",
    "fb_envelope_value",
    "dr_envelope",
    "envelope_constants",
]

FB = "fb"
DR = "dr"


def check_mu_domain(mu, L):
    """Validate mu in (0, 1/L); the interval is open at both ends."""
    mu = float(mu)
    upper = np.inf if L == 0 else 1.0 / L
    if not (0.0 < mu < upper):
        raise ParameterDomainError(
            f"penalty mu={mu} outside the admissible interval (0, {upper})")
    return mu


@dataclass(frozen=True)
class EnvelopeConstants:
    """Smoothness / strong convexity constants of an envelope function."""

    L_tilde: float
    m_tilde: float


@dataclass(frozen=True)
class EnvelopeEval:
    """One envelope evaluation: value, gradient, gradient map, prox point."""

    value: float
    gradient: np.ndarray
    gen_grad: np.ndarray
    prox_point: np.ndarray


def forward_prox_point(problem, x, mu):
    """p_mu(x) = prox_{mu g}(x - mu grad f(x))."""
    mu = check_mu_domain(mu, problem.f.L)
    return problem.g.prox(x - mu * problem.f.gradient(x), mu)


def generalized_gradient(problem, x, mu):
    """Generalized gradient map G_mu(x) = (x - p_mu(x)) / mu."""
    return (x - forward_prox_point(problem, x, mu)) / mu


def _fb_kernel(problem, x, mu):
    """Shared FB computation at x: (grad f, prox point p, g(p), value).

    x is a point (n,) or a stack (S, n); the values then have shape (S,).
    The value is the FB envelope in its Moreau-envelope form
    f(x) + g(p) + ||p - (x - mu grad f(x))||^2 / (2 mu)
    - (mu/2) ||grad f(x)||^2. mu is not validated here. The gradient map
    G_mu = (x - p)/mu is left to the callers that use it.
    """
    f, g = problem.f, problem.g
    gf = f.gradient(x)
    forward = x - mu * gf
    p = g.prox(forward, mu)
    gp = g.value(p)
    diff = p - forward
    value = (f.value(x) + gp + np.vecdot(diff, diff) / (2.0 * mu)
             - 0.5 * mu * np.vecdot(gf, gf))
    return gf, p, gp, value


def fb_envelope_value(problem, x, mu):
    """FB envelope value only (no Hessian action required)."""
    mu = check_mu_domain(mu, problem.f.L)
    return _fb_kernel(problem, x, mu)[3]


def fb_envelope(problem, x, mu):
    """FB envelope evaluation at x.

    value    = f(x) + M_{mu g}(x - mu grad f(x)) - (mu/2) ||grad f(x)||^2
    gradient = (I - mu hess f(x)) G_mu(x)
    """
    mu = check_mu_domain(mu, problem.f.L)
    _, p, _, value = _fb_kernel(problem, x, mu)
    G = (x - p) / mu
    gradient = G - mu * problem.f.hess_vec(x, G)
    return EnvelopeEval(value=value, gradient=gradient, gen_grad=G,
                        prox_point=p)


def dr_envelope(problem, z, mu):
    """DR envelope evaluation at z.

    value    = FB envelope at prox_{mu f}(z)
    gradient = (2 jac prox_{mu f}(z) - I) G_mu(prox_{mu f}(z))
    for a quadratic f (the paper's DR case), whose jac prox is (I + mu Q)^-1;
    any other f has no prox and raises UnsupportedOperationError
    """
    mu = check_mu_domain(mu, problem.f.L)
    f = problem.f
    x_hat = f.prox(z, mu)
    _, p, _, value = _fb_kernel(problem, x_hat, mu)
    G = (x_hat - p) / mu
    gradient = 2.0 * f.solve_shifted(mu, G) - G
    return EnvelopeEval(value=value, gradient=gradient, gen_grad=G,
                        prox_point=x_hat)


def envelope_constants(m, L, mu, kind):
    """Smoothness / strong convexity constants of the FB or DR envelope.

    FB: L~ = 2(1 - mu m)/mu,             m~ = min{(1-mu m)m, (1-mu L)L}
    DR: L~ = (1 - mu m)/(mu (1+mu m)^2), m~ = min over the same pair scaled
        by (1+mu m)^-2 and (1+mu L)^-2 respectively.
    """
    m, L = float(m), float(L)
    if not (0 <= m <= L) or L <= 0:
        raise ParameterDomainError(f"need 0 <= m <= L with L > 0, got m={m}, L={L}")
    mu = check_mu_domain(mu, L)
    if kind == FB:
        L_t = 2.0 * (1.0 - mu * m) / mu
        m_t = min((1.0 - mu * m) * m, (1.0 - mu * L) * L)
    elif kind == DR:
        L_t = (1.0 - mu * m) / (mu * (1.0 + mu * m) ** 2)
        m_t = min((1.0 - mu * m) * m / (1.0 + mu * m) ** 2,
                  (1.0 - mu * L) * L / (1.0 + mu * L) ** 2)
    else:
        raise ValueError(f"unknown envelope kind {kind!r}")
    return EnvelopeConstants(L_tilde=L_t, m_tilde=m_t)

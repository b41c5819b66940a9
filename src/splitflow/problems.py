"""Composite optimization problems F = f + g.

The smooth part f exposes value/gradient/Hessian-action oracles together
with a strong convexity constant ``m`` and a gradient Lipschitz constant
``L``; the nonsmooth part g is accessed through its proximal operator.
All oracles are pure functions of immutable problem data and are safe to
call concurrently (internal factorization caches are idempotent).

The ``value``, ``gradient`` and ``prox`` oracles take a point ``(n,)`` or a
stack of points ``(S, n)`` and return one result per point; black-box
callables and the inner Newton prox are applied row by row.
"""

from __future__ import annotations

import json

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dpotrs

from .exceptions import ParameterDomainError, UnsupportedOperationError

__all__ = [
    "SmoothFunction",
    "Quadratic",
    "LogisticRidge",
    "GenericOracle",
    "NonsmoothFunction",
    "L1",
    "BoxIndicator",
    "GenericProx",
    "identity_prox",
    "CompositeProblem",
    "prox_g",
    "prox_f",
    "grad_f",
    "moreau",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
]

_SYM_TOL = 1e-10


def _check_vector(v, name="v"):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _dot(a, b):
    """Last-axis inner product; on two vectors the BLAS dot of ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]


def _by_rows(fn, x, *args):
    """Float results of a single-point callable on each row of x."""
    return np.asarray(np.apply_along_axis(fn, -1, x, *args), dtype=float)[()]


def _softplus(t):
    """log(1 + e^t) in SIMD ufuncs; within 2 ulp of the scalar-loop
    ``np.logaddexp(0, t)`` on [-745, 745], equal at +-inf and nan."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _check_mu(mu):
    mu = float(mu)
    if not np.isfinite(mu) or mu <= 0:
        raise ParameterDomainError(f"penalty mu must be positive, got {mu}")
    return mu


# ---------------------------------------------------------------------------
# smooth part
# ---------------------------------------------------------------------------

class SmoothFunction:
    """Smooth part of a composite objective.

    Subclasses provide value / gradient / Hessian-vector oracles and the
    constants ``m`` (strong convexity, >= 0) and ``L`` (gradient Lipschitz).
    The prox is available through the opt-in inner Newton solver
    (``newton_prox=True``) unless a subclass has a closed form.
    """

    kind = "generic"
    m = 0.0
    L = 0.0
    dim = None
    newton_prox = False

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def hess_vec(self, x, v):
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no Hessian-vector oracle")

    def hessian(self, x):
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no dense Hessian oracle")

    def supports_prox(self):
        return self.newton_prox

    def prox(self, v, mu):
        if not self.newton_prox:
            raise UnsupportedOperationError(
                f"prox of the smooth part is not available for "
                f"{type(self).__name__}; enable the inner Newton solver "
                "(newton_prox=True) or use a quadratic f")
        return _by_rows(lambda r: _newton_prox(self, r, mu), v)


class Quadratic(SmoothFunction):
    """f(x) = (1/2) x'Qx + q'x with symmetric positive semidefinite Q.

    ``m`` and ``L`` default to the extreme eigenvalues of Q. An override
    (exact planted values, or a looser m or L) must bound the spectrum:
    0 <= m <= lambda_min and L >= lambda_max, up to 1e-8 max(1, max|Q_ij|),
    else ``ValueError``.
    """

    kind = "quadratic"

    def __init__(self, Q, q, m=None, L=None):
        Q = np.asarray(Q, dtype=float)
        q = _check_vector(q, "q")
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if Q.shape[0] != q.shape[0]:
            raise ValueError("Q and q dimensions disagree")
        if not np.all(np.isfinite(Q)):
            raise ValueError("Q contains non-finite entries")
        scale = max(1.0, float(np.abs(Q).max()))
        if np.abs(Q - Q.T).max() > _SYM_TOL * scale:
            raise ValueError("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        eigs = np.linalg.eigvalsh(Q) if Q.shape[0] else np.zeros(1)
        if eigs[0] < -1e-8 * scale:
            raise ValueError("Q must be positive semidefinite")
        self.Q = Q
        self.q = q
        self.dim = q.shape[0]
        self.m = float(max(eigs[0], 0.0)) if m is None else float(m)
        self.L = float(max(eigs[-1], 0.0)) if L is None else float(L)
        if not (0.0 <= self.m <= eigs[0] + 1e-8 * scale
                and self.L >= eigs[-1] - 1e-8 * scale):
            raise ValueError(f"m={self.m} and L={self.L} must bound the "
                             f"spectrum [{eigs[0]}, {eigs[-1]}] of Q")
        self._prox_factors = {}

    # on a point, (Q @ x.T).T is the same BLAS call as Q @ x (same rounding)
    def value(self, x):
        return 0.5 * _dot(x, (self.Q @ x.T).T) + _dot(self.q, x)

    def gradient(self, x):
        return (self.Q @ x.T).T + self.q

    def hess_vec(self, x, v):
        return self.Q @ v

    def hessian(self, x):
        return self.Q

    def supports_prox(self):
        return True

    def _shifted_factor(self, mu):
        # Cholesky of (I + mu Q), cached per penalty value
        key = float(mu)
        fac = self._prox_factors.get(key)
        if fac is None:
            fac = sla.cho_factor(np.eye(self.dim) + mu * self.Q)
            self._prox_factors[key] = fac
        return fac

    def solve_shifted(self, mu, rhs):
        """Solve (I + mu Q) z = rhs, for one right-hand side or a stack."""
        # the LAPACK call of sla.cho_solve, without its per-call checks
        c, lower = self._shifted_factor(mu)
        z, info = dpotrs(c, rhs.T, lower=lower)
        if info != 0:
            raise np.linalg.LinAlgError(f"potrs failed with info={info}")
        return z.T

    def prox(self, v, mu):
        return self.solve_shifted(mu, v - mu * self.q)


def _newton_prox(f, v, mu):
    """Damped Newton solve of grad f(z) + (z - v)/mu = 0, to a residual of
    1e-10 (1 + ||v||) within 100 iterations."""
    z = np.array(v, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("inner Newton prox: non-finite input")
    target = 1e-10 * (1.0 + np.linalg.norm(v))
    for _ in range(100):
        r = mu * f.gradient(z) + z - v
        rnorm = np.linalg.norm(r)
        if rnorm <= target:
            return z
        try:
            H = f.hessian(z)
            delta = np.linalg.solve(mu * H + np.eye(z.shape[0]), -r)
        except UnsupportedOperationError:
            # the only user of scipy.sparse.linalg, imported here to keep it
            # out of every process's start-up
            from scipy.sparse.linalg import LinearOperator, cg
            op = LinearOperator(
                (z.shape[0], z.shape[0]),
                matvec=lambda u: mu * f.hess_vec(z, u) + u)
            delta, _ = cg(op, -r, rtol=1e-12, atol=0.0)
        step = 1.0
        while step > 1e-12:
            zn = z + step * delta
            rn = np.linalg.norm(mu * f.gradient(zn) + zn - v)
            if rn <= (1.0 - 0.25 * step) * rnorm:
                break
            step *= 0.5
        z = z + step * delta
    r = mu * f.gradient(z) + z - v
    if np.linalg.norm(r) <= target:
        return z
    raise RuntimeError("inner Newton prox solve did not converge")


class LogisticRidge(SmoothFunction):
    """Ridge-regularized logistic loss.

    f(x) = sum_i [log(1 + exp(a_i'x)) - y_i a_i'x] + (ridge/2) ||x||^2
    with rows a_i of the data matrix A and labels y_i in {0, 1}.
    Constants: m = ridge, L = ridge + lambda_max(A'A)/4.
    """

    kind = "logistic_ridge"

    def __init__(self, A, y, ridge, newton_prox=False):
        A = np.asarray(A, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if A.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if A.shape[0] != y.shape[0]:
            raise ValueError("A and y dimensions disagree")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must lie in {0, 1}")
        ridge = float(ridge)
        if ridge < 0:
            raise ValueError("ridge must be nonnegative")
        self.A = A
        self.y = y
        self.ridge = ridge
        self.dim = A.shape[1]
        smax = sla.svdvals(A)[0] if min(A.shape) else 0.0
        self.m = ridge
        self.L = ridge + 0.25 * float(smax) ** 2
        self.newton_prox = bool(newton_prox)
        from scipy.special import expit     # kept out of `import splitflow`
        self._expit = expit

    def value(self, x):
        t = (self.A @ x.T).T
        return (np.sum(_softplus(t) - self.y * t, axis=-1)
                + 0.5 * self.ridge * _dot(x, x))

    def gradient(self, x):
        s = self._expit((self.A @ x.T).T)
        return (self.A.T @ (s - self.y).T).T + self.ridge * x

    def hess_vec(self, x, v):
        s = self._expit(self.A @ x)
        w = s * (1.0 - s)
        return self.A.T @ (w * (self.A @ v)) + self.ridge * v

    def hessian(self, x):
        s = self._expit(self.A @ x)
        w = s * (1.0 - s)
        return self.A.T @ (w[:, None] * self.A) + self.ridge * np.eye(self.dim)


class GenericOracle(SmoothFunction):
    """Black-box smooth function given by callables.

    ``hess_vec_fn`` is optional but required by envelope gradients; the
    inner Newton prox solve is opt-in via ``newton_prox=True``.
    """

    kind = "generic"

    def __init__(self, value_fn, grad_fn, dim, m, L, hess_vec_fn=None,
                 newton_prox=False):
        self.value_fn = value_fn
        self.grad_fn = grad_fn
        self.hess_vec_fn = hess_vec_fn
        self.dim = int(dim)
        self.m = float(m)
        self.L = float(L)
        if not 0 <= self.m <= self.L:
            raise ValueError("constants must satisfy 0 <= m <= L")
        self.newton_prox = bool(newton_prox)

    def value(self, x):
        return _by_rows(self.value_fn, x)

    def gradient(self, x):
        return _by_rows(self.grad_fn, x)

    def hess_vec(self, x, v):
        if self.hess_vec_fn is None:
            raise UnsupportedOperationError(
                "GenericOracle was built without a Hessian-vector oracle")
        return np.asarray(self.hess_vec_fn(x, v), dtype=float)


# ---------------------------------------------------------------------------
# nonsmooth part
# ---------------------------------------------------------------------------

class NonsmoothFunction:
    """Nonsmooth part of a composite objective, accessed via its prox."""

    kind = "generic_prox"
    dim = None

    def value(self, x):
        raise NotImplementedError

    def prox(self, v, mu):
        raise NotImplementedError


class L1(NonsmoothFunction):
    """g(x) = weight * ||x||_1; prox is componentwise soft thresholding."""

    kind = "l1"

    def __init__(self, weight):
        weight = float(weight)
        if weight <= 0:
            raise ValueError("l1 weight must be positive")
        self.weight = weight

    def value(self, x):
        return self.weight * np.sum(np.abs(x), axis=-1)

    def prox(self, v, mu):
        """sign(v) max(|v| - t, 0), t = mu weight, as v - clip(v, -t, t)."""
        t = mu * self.weight
        return v - np.minimum(np.maximum(v, -t), t)


class BoxIndicator(NonsmoothFunction):
    """Indicator of the box {x : lower <= x <= upper}; prox is clamping."""

    kind = "box"

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValueError("bound shapes disagree")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        self.lower = lower
        self.upper = upper
        self.dim = lower.shape[0] if lower.shape[0] > 1 else None

    def value(self, x):
        slack = 1e-12 * (1.0 + np.abs(self.lower) + np.abs(self.upper))
        inside = np.all((x >= self.lower - slack) & (x <= self.upper + slack),
                        axis=-1)
        return np.where(inside, 0.0, np.inf)[()]

    def prox(self, v, mu):
        """``np.clip(v, lower, upper)`` without its Python wrapper."""
        return np.minimum(np.maximum(v, self.lower), self.upper)


class GenericProx(NonsmoothFunction):
    """Black-box nonsmooth function given by value and prox callables."""

    kind = "generic_prox"

    def __init__(self, value_fn, prox_fn, dim=None):
        self.value_fn = value_fn
        self.prox_fn = prox_fn
        self.dim = dim

    def value(self, x):
        return _by_rows(self.value_fn, x)

    def prox(self, v, mu):
        return _by_rows(self.prox_fn, v, mu)


def identity_prox(dim=None):
    """g = 0 (prox is the identity); handy for reducing to the smooth case."""
    return GenericProx(lambda x: 0.0, lambda v, mu: v, dim=dim)


# ---------------------------------------------------------------------------
# composite problem and module-level oracles
# ---------------------------------------------------------------------------

class CompositeProblem:
    """Composite objective F = f + g on R^n."""

    def __init__(self, f, g):
        if f.dim is None:
            raise ValueError("smooth part must have a known dimension")
        if g.dim is not None and g.dim != f.dim:
            raise ValueError(
                f"dimension mismatch: f is {f.dim}-dimensional, g is {g.dim}")
        self.f = f
        self.g = g
        self.dim = f.dim

    def objective(self, x):
        """F(x) = f(x) + g(x)."""
        return self.f.value(x) + self.g.value(x)

    def __repr__(self):
        return (f"CompositeProblem(f={self.f.kind}, g={self.g.kind}, "
                f"n={self.dim}, m={self.f.m:.6g}, L={self.f.L:.6g})")


def prox_g(g, v, mu):
    """prox of the nonsmooth part: argmin_z g(z) + ||z - v||^2 / (2 mu)."""
    mu = _check_mu(mu)
    v = _check_vector(v)
    return g.prox(v, mu)


def prox_f(f, v, mu):
    """prox of the smooth part (closed form for quadratics, Newton opt-in)."""
    mu = _check_mu(mu)
    v = _check_vector(v)
    return f.prox(v, mu)


def grad_f(f, x):
    """Gradient of the smooth part at x."""
    x = _check_vector(x, "x")
    if f.dim is not None and x.shape[0] != f.dim:
        raise ValueError(f"x has dimension {x.shape[0]}, expected {f.dim}")
    return f.gradient(x)


def moreau(g, v, mu):
    """Moreau envelope of g at v: returns (value, gradient).

    value = g(p) + ||p - v||^2 / (2 mu) with p the prox point, and the
    envelope gradient is (v - p)/mu, which lies in the subdifferential of
    g at p.
    """
    mu = _check_mu(mu)
    v = _check_vector(v)
    p = g.prox(v, mu)
    value = g.value(p) + float((p - v) @ (p - v)) / (2.0 * mu)
    gradient = (v - p) / mu
    return value, gradient


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def problem_to_dict(problem):
    """JSON-ready dict for a composite problem (dense arrays, row-major)."""
    f, g = problem.f, problem.g
    if f.kind == "quadratic":
        fd = {"kind": "quadratic", "Q": f.Q.tolist(), "q": f.q.tolist(),
              "m": f.m, "L": f.L}
    elif f.kind == "logistic_ridge":
        fd = {"kind": "logistic_ridge", "A": f.A.tolist(),
              "y": f.y.tolist(), "ridge": f.ridge}
    else:
        raise UnsupportedOperationError(
            f"smooth part of kind {f.kind!r} is not serializable")
    if g.kind == "l1":
        gd = {"kind": "l1", "weight": g.weight}
    elif g.kind == "box":
        gd = {"kind": "box", "lower": g.lower.tolist(),
              "upper": g.upper.tolist()}
    else:
        raise UnsupportedOperationError(
            f"nonsmooth part of kind {g.kind!r} is not serializable")
    return {"f": fd, "g": gd}


def problem_from_dict(d):
    fd, gd = d["f"], d["g"]
    if fd["kind"] == "quadratic":
        f = Quadratic(np.asarray(fd["Q"], dtype=float),
                      np.asarray(fd["q"], dtype=float), fd.get("m"), fd.get("L"))
    elif fd["kind"] == "logistic_ridge":
        f = LogisticRidge(np.asarray(fd["A"], dtype=float),
                          np.asarray(fd["y"], dtype=float), fd["ridge"])
    else:
        raise ValueError(f"unknown smooth kind {fd['kind']!r}")
    if gd["kind"] == "l1":
        g = L1(gd["weight"])
    elif gd["kind"] == "box":
        g = BoxIndicator(np.asarray(gd["lower"], dtype=float),
                         np.asarray(gd["upper"], dtype=float))
    else:
        raise ValueError(f"unknown nonsmooth kind {gd['kind']!r}")
    return CompositeProblem(f, g)


def save_problem(problem, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh)


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))

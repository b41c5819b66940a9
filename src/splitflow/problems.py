"""Composite optimization problems F = f + g.

The smooth part f exposes value/gradient/Hessian-action oracles together
with a strong convexity constant ``m`` and a gradient Lipschitz constant
``L``; the nonsmooth part g is accessed through its proximal operator.
All oracles are pure functions of immutable problem data and are safe to
call concurrently. The only state is per-penalty caches, keyed by
``float(mu)``: ``Quadratic`` keeps the Cholesky factor of I + mu Q with
mu q, and ``L1`` its prox bounds -mu weight and mu weight as float64 0-d
arrays. A cache entry is a function of mu alone, so filling one is
idempotent; a pickled ``Quadratic`` leaves its factors behind.

Every oracle takes a point ``(n,)`` or a stack of points ``(S, n)`` and
returns one result per point. A custom f or g subclasses
``SmoothFunction`` or ``NonsmoothFunction`` and keeps that convention. The
prox of f has a closed form only for a quadratic f, the case the paper's
Douglas-Rachford theorems cover.

The matrix products of the oracles go through ``_apply``: ``M.dot(x)`` on
a point, ``(M @ x.T).T`` on a stack. On a point both forms are the same BLAS
gemv, and ``.dot`` skips the matmul ufunc's dispatch, about half of a
small product's cost; the integrator calls the oracles at one point at a
time. A stack keeps ``@``: on some strided row blocks ``.dot`` and ``@``
round differently, and the trajectories' observables are computed on such
blocks.
"""

from __future__ import annotations

import json

import numpy as np

from .exceptions import ParameterDomainError, UnsupportedOperationError

__all__ = [
    "SmoothFunction",
    "Quadratic",
    "LogisticRidge",
    "NonsmoothFunction",
    "L1",
    "BoxIndicator",
    "CompositeProblem",
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


def _apply(M, x):
    """M applied to each point of x: ``M.dot(x)`` on a point (n,), the gemv
    of ``M @ x`` without the matmul ufunc's dispatch; ``(M @ x.T).T`` on a
    stack (S, n). A stack must not take ``.dot``: on the strided 209-row last
    block of a (2001, 2n) trajectory, ``.dot`` and ``@`` round differently at
    n = 12, 16 and 30, which would move the last bits of the observables."""
    return M.dot(x) if x.ndim == 1 else (M @ x.T).T


def _softplus(t):
    """log(1 + e^t) in SIMD ufuncs; within 2 ulp of the scalar-loop
    ``np.logaddexp(0, t)`` on [-745, 745], equal at +-inf and nan."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


_dpotrs = None      # scipy's LAPACK dpotrs, bound by the first factor built


def _expit(t):
    """scipy's logistic sigmoid, imported on the first call (``import
    scipy.special`` takes about 0.2 s), which rebinds this name to it."""
    global _expit
    from scipy.special import expit
    _expit = expit
    return expit(t)


def _finite_scalar(name, value, positive=False):
    """float(value); ParameterDomainError unless finite (and > 0 if asked)."""
    value = float(value)
    if not np.isfinite(value) or (positive and value <= 0):
        raise ParameterDomainError(
            f"{name} must be finite{' and positive' * positive}, got {value}")
    return value


# ---------------------------------------------------------------------------
# smooth part
# ---------------------------------------------------------------------------

class SmoothFunction:
    """Smooth part of a composite objective.

    Subclasses provide batch-first value / gradient / Hessian-vector
    oracles, a dense ``hessian`` at one point if they can (the reference
    solver's polish needs it), ``dim``, and the constants ``m`` (strong
    convexity, >= 0) and ``L`` (gradient Lipschitz). Only ``Quadratic`` has
    a prox; the others raise UnsupportedOperationError.
    """

    kind = "generic"
    m = 0.0
    L = 0.0
    dim = None

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

    def prox(self, v, mu):
        raise UnsupportedOperationError(
            f"prox of the smooth part is not available for "
            f"{type(self).__name__}: only a quadratic f has one")


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

    def value(self, x):
        return 0.5 * np.vecdot(x, _apply(self.Q, x)) + np.vecdot(self.q, x)

    def gradient(self, x):
        return _apply(self.Q, x) + self.q

    def hess_vec(self, x, v):
        return _apply(self.Q, v)

    def hessian(self, x):
        return self.Q

    def __getstate__(self):
        # a copy factors again, and so binds dpotrs in its own process
        return dict(self.__dict__, _prox_factors={})

    def _shifted_factor(self, mu):
        """(Cholesky factor (c, lower) of I + mu Q, mu q), cached per mu; a
        miss imports scipy.linalg (0.2 s the first time) and binds dpotrs."""
        global _dpotrs
        key = float(mu)
        entry = self._prox_factors.get(key)
        if entry is None:
            from scipy.linalg import cho_factor, lapack
            _dpotrs = lapack.dpotrs
            entry = (cho_factor(np.eye(self.dim) + mu * self.Q), mu * self.q)
            self._prox_factors[key] = entry
        return entry

    @staticmethod
    def _solve(fac, rhs):
        # the LAPACK call of scipy's cho_solve, without its per-call checks
        c, lower = fac
        z, info = _dpotrs(c, rhs.T, lower=lower)
        if info != 0:
            raise np.linalg.LinAlgError(f"potrs failed with info={info}")
        return z.T

    def solve_shifted(self, mu, rhs):
        """Solve (I + mu Q) z = rhs, for one right-hand side or a stack."""
        return self._solve(self._shifted_factor(mu)[0], rhs)

    def prox(self, v, mu):
        fac, mu_q = self._shifted_factor(mu)
        return self._solve(fac, v - mu_q)


class LogisticRidge(SmoothFunction):
    """Ridge-regularized logistic loss.

    f(x) = sum_i [log(1 + exp(a_i'x)) - y_i a_i'x] + (ridge/2) ||x||^2
    with rows a_i of the data matrix A and labels y_i in {0, 1}.
    Constants: m = ridge, L = ridge + lambda_max(A'A)/4.
    """

    kind = "logistic_ridge"

    def __init__(self, A, y, ridge):
        A = np.asarray(A, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if A.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if A.shape[0] != y.shape[0]:
            raise ValueError("A and y dimensions disagree")
        if not np.all(np.isfinite(A)):
            raise ValueError("A contains non-finite entries")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must lie in {0, 1}")
        ridge = float(ridge)
        if not 0 <= ridge < np.inf:
            raise ValueError(
                f"ridge must be nonnegative and finite, got {ridge}")
        self.A = A
        self.y = y
        self.ridge = ridge
        self._ridge = np.array(ridge)   # a 0-d operand: no per-call conversion
        self.dim = A.shape[1]
        # numpy's gesdd, the LAPACK routine scipy's svdvals calls
        smax = np.linalg.svd(A, compute_uv=False)[0] if min(A.shape) else 0.0
        self.m = ridge
        self.L = ridge + 0.25 * float(smax) ** 2

    def value(self, x):
        t = _apply(self.A, x)
        return (np.sum(_softplus(t) - self.y * t, axis=-1)
                + 0.5 * self.ridge * np.vecdot(x, x))

    def gradient(self, x):
        s = _expit(_apply(self.A, x))
        return _apply(self.A.T, s - self.y) + self._ridge * x

    def hess_vec(self, x, v):
        s = _expit(_apply(self.A, x))
        w = s * (1.0 - s)
        return _apply(self.A.T, w * _apply(self.A, v)) + self.ridge * v

    def hessian(self, x):
        s = _expit(self.A @ x)
        w = s * (1.0 - s)
        return self.A.T @ (w[:, None] * self.A) + self.ridge * np.eye(self.dim)


# ---------------------------------------------------------------------------
# nonsmooth part
# ---------------------------------------------------------------------------

class NonsmoothFunction:
    """Nonsmooth part of a composite objective, accessed via its prox.

    Subclasses provide batch-first ``value`` and ``prox``, and may add a
    ``free_set`` hook (see ``L1``), which the reference solver's polish uses.
    """

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
        if not 0 < weight < np.inf:
            raise ValueError(
                f"l1 weight must be positive and finite, got {weight}")
        self.weight = weight
        self._bounds = {}

    def value(self, x):
        return self.weight * np.sum(np.abs(x), axis=-1)

    def prox(self, v, mu):
        """sign(v) max(|v| - t, 0), t = mu weight, as v - clip(v, -t, t).

        The bounds -t and t are float64 0-d arrays, cached per penalty value,
        so the result is float64: a float32 v is not kept as float32 (no
        caller passes one).
        """
        bounds = self._bounds.get(key := float(mu))
        if bounds is None:
            t = key * self.weight
            bounds = self._bounds[key] = (np.array(-t), np.array(t))
        return v - np.minimum(np.maximum(v, bounds[0]), bounds[1])

    def free_set(self, x):
        """Polish hook: mask x != 0, a copy of x, g's gradient on the mask."""
        free = x != 0
        return free, np.where(free, x, 0.0), self.weight * np.sign(x[free])


class BoxIndicator(NonsmoothFunction):
    """Indicator of the box {x : lower <= x <= upper}; prox is clamping."""

    kind = "box"

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValueError("bound shapes disagree")
        if not np.all(lower <= upper):
            raise ValueError("bounds must satisfy lower <= upper, without nan")
        self.lower = lower
        self.upper = upper
        self.dim = lower.shape[0] if lower.shape[0] > 1 else None
        # value()'s slack and free_set()'s tolerance scale with finite bounds
        scale = (1.0 + np.abs(np.where(np.isinf(lower), 0.0, lower))
                 + np.abs(np.where(np.isinf(upper), 0.0, upper)))
        self._lower_slack = lower - 1e-12 * scale
        self._upper_slack = upper + 1e-12 * scale
        self._free_tol = 1e-9 * scale

    def value(self, x):
        inside = np.all((x >= self._lower_slack) & (x <= self._upper_slack),
                        axis=-1)
        return np.where(inside, 0.0, np.inf)[()]

    def prox(self, v, mu):
        """``np.clip(v, lower, upper)`` without its Python wrapper."""
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def free_set(self, x):
        """Polish hook: mask off the bounds, x held at them, g's gradient 0."""
        at_lo = x <= self.lower + self._free_tol
        at_hi = x >= self.upper - self._free_tol
        held = np.where(at_hi, self.upper, np.where(at_lo, self.lower, x))
        return ~(at_lo | at_hi), held, 0.0


# ---------------------------------------------------------------------------
# composite problem
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
        f = Quadratic(fd["Q"], fd["q"], fd.get("m"), fd.get("L"))
    elif fd["kind"] == "logistic_ridge":
        f = LogisticRidge(fd["A"], fd["y"], fd["ridge"])
    else:
        raise ValueError(f"unknown smooth kind {fd['kind']!r}")
    if gd["kind"] == "l1":
        g = L1(gd["weight"])
    elif gd["kind"] == "box":
        g = BoxIndicator(gd["lower"], gd["upper"])
    else:
        raise ValueError(f"unknown nonsmooth kind {gd['kind']!r}")
    return CompositeProblem(f, g)


def save_problem(problem, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh)


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))

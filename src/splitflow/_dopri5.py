"""Adaptive Dormand-Prince 5(4) steps with dense output.

The tableau, FSAL stage, quartic dense output and step-size controller are
those of ``scipy.integrate.RK45`` (Dormand & Prince, J. Comput. Appl. Math.
6, 1980; Shampine, Math. Comp. 46, 1986; Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.6), written as the same floating-point operations in the
same order, so that every step, state and dense-output sample is bit for
bit scipy's. Importing scipy's solver would pull in ``scipy.optimize`` and
put three wrapper calls around each field evaluation.

Where the code differs from scipy's, it feeds the same values to the same
operations:

- the RMS norm takes ``math.sqrt(x.dot(x))``, which is what
  ``np.linalg.norm`` computes on a vector;
- the smallest step is ``10 * math.ulp(t)``, the distance from t (>= 0) to
  the next float up, which scipy takes with ``np.nextafter``;
- the stage rows of A and the nodes C are taken out of the tableau once,
  each stepper's views of its stages K are built once, and the error
  scale reuses the accepted state's ``|y|``;
- stage states, ``y_new``, the error scale and the scaled error are built
  in place (``d = K_s.dot(a); d *= h; d += y``), swapping only operands of
  ``+`` and ``*``, and the attempt's RMS norm divides by a stored sqrt(n);
- the dense-output powers of x are multiplied out one by one: the
  sequential product that scipy's ``cumprod`` over ``np.tile`` computes.

The field's evaluations are counted per attempted step, not per call.
"""

from __future__ import annotations

import math

import numpy as np

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
# dense output with Shampine's optimal c_6
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

# (s, A[s, :s], C[s]) of the stages after the first
_STAGES = tuple((s, A[s, :s], float(C[s])) for s in range(1, 6))

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
EXPONENT = -1 / 5           # -1/(error estimator order + 1)


def _rms(x):
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _finite(dy):
    if not np.isfinite(dy).all():
        raise FloatingPointError("vector field evaluated to non-finite values")
    return dy


class Dopri5:
    """Integrate y' = fun(t, y) from t = 0 towards ``t_end`` with relative
    and absolute tolerance ``tol``.

    The constructor evaluates the field at y0 and once more to select the
    first step. After each :meth:`step`, ``t``, ``y`` and ``f = fun(t, y)``
    describe the end of the accepted step, ``h`` is its size and
    :meth:`dense` interpolates within it. ``n_steps``, ``n_rejected`` and
    ``h_min``/``h_max`` (inf and 0 before the first step) count accepted
    and rejected steps and the range of accepted sizes. ``nfev`` counts the
    field's evaluations, a raising one included: 2 + 6 per attempted step
    while nothing raises. A field value that is not finite raises
    ``FloatingPointError``; each attempted step checks its stages once,
    before its error is judged, or when an evaluation raises. When the
    constructor raises it, the exception carries ``nfev``, since the
    caller has no stepper to ask.
    """

    def __init__(self, fun, y0, t_end, tol):
        self.fun, self.t_end, self.tol = fun, t_end, tol
        self.t, self.y, self._abs_y = 0.0, y0, np.abs(y0)
        K = self.K = np.empty((7, y0.size))
        self._stages = tuple((s, K[:s].T, a, c) for s, a, c in _STAGES)
        self._K_B, self._K_E = K[:-1].T, K.T
        self._sqrt_n = y0.size ** 0.5
        self.n_steps = self.n_rejected = 0
        self.h_min, self.h_max = np.inf, 0.0
        self.nfev = 1
        try:
            self.f = _finite(fun(0.0, y0))
            self.nfev = 2
            self.h_abs = self._initial_step()
        except FloatingPointError as exc:
            exc.nfev = self.nfev
            raise

    def _initial_step(self):
        y0, f0, tol, interval = self.y, self.f, self.tol, abs(self.t_end)
        scale = tol + self._abs_y * tol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = _finite(self.fun(h0, y0 + h0 * f0))
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval)

    def _attempt(self, h):
        """Fill the stages K of a step of size h; return the new state."""
        t, y, K, fun = self.t, self.y, self.K, self.fun
        K[0] = self.f
        try:
            for s, K_s, a, c in self._stages:
                d = K_s.dot(a)
                d *= h
                d += y
                K[s] = fun(t + c * h, d)
            s = 6
            y_new = self._K_B.dot(B)
            y_new *= h
            y_new += y
            f_new = fun(t + h, y_new)
        except Exception:
            self.nfev += s
            # an oracle may raise on a state built from a non-finite stage
            # (the Newton prox does): report the stage instead
            _finite(K[:s])
            raise
        self.nfev += 6
        K[-1] = f_new
        _finite(K)
        return y_new, f_new

    def step(self):
        """Take one accepted step, clipped to end at ``t_end``; return False
        when the step size falls below 10 ulp of t."""
        t, y, abs_y, tol = self.t, self.y, self._abs_y, self.tol
        min_step = 10 * math.ulp(t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = min(t + h_abs, self.t_end)
            h = h_abs = t_new - t
            y_new, f_new = self._attempt(h)
            abs_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_new)
            scale *= tol
            scale += tol
            err = self._K_E.dot(E)
            err *= h
            err /= scale
            error_norm = math.sqrt(err.dot(err)) / self._sqrt_n
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** EXPONENT)
            rejected = True
            self.n_rejected += 1
        factor = (MAX_FACTOR if error_norm == 0
                  else min(MAX_FACTOR, SAFETY * error_norm ** EXPONENT))
        self.h_abs = h_abs * (min(1, factor) if rejected else factor)
        self.t_old, self.y_old, self.h = t, y, h
        self.t, self.y, self.f, self._abs_y = t_new, y_new, f_new, abs_new
        self.n_steps += 1
        self.h_min, self.h_max = min(self.h_min, h), max(self.h_max, h)
        return True

    def dense(self, ts):
        """States (len(ts), n) at times ts within the last step."""
        Q = self._K_E.dot(P)
        x = (ts - self.t_old) / self.h
        p = np.empty((4, x.size))
        p[0] = x
        np.multiply(p[0], x, out=p[1])
        np.multiply(p[1], x, out=p[2])
        np.multiply(p[2], x, out=p[3])
        y = self.h * np.dot(Q, p)
        y += self.y_old[:, None]
        return y.T

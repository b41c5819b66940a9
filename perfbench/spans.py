"""In-memory span recorder that wraps splitflow's public functions.

Spans (name, start, end, parent) are appended to flat arrays while tracing
is installed and aggregated per name afterwards. Nothing inside ``src/``
knows about tracing: the wrappers are installed from here, at every place a
function is bound (its defining module, every ``splitflow`` module that
imported it by name, and the package namespace), and removed again by
``uninstall``.

Self time of a span is its duration minus the time its direct children
cover; spans in one thread nest, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped as spans named "<layer>.<function>".
_FUNCTIONS = {
    "envelopes": ("generalized_gradient", "forward_prox_point",
                  "fb_envelope_value"),
    "dynamics": ("vector_field", "integrate", "run_discrete",
                 "export_trajectory_csv", "_field_norm"),
    "analysis": ("solve_reference", "certify_sublinear",
                 "certify_exponential", "lyapunov_series", "lyapunov_value",
                 "check_lyapunov_decay"),
    "harness": ("run_benchmark", "generate_problem"),
}

# Span names for the few functions whose layer name differs from their own.
_RENAME = {
    "dynamics.export_trajectory_csv": "dynamics.export",
    "dynamics._field_norm": "dynamics.early_stop",
}


class SpanRecorder:
    """Flat span store plus counters filled by per-function hooks."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = [-1]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name, fn, on_return=None):
        """Wrap ``fn`` so that every call records one span named ``name``."""
        nid = self._name_id(name)
        clock = time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, out)
            return out

        return wrapper

    def clear(self):
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counters = {}

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap splitflow's oracles and public functions until
        :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracing is already installed")
        from scipy.integrate._ivp import rk

        from splitflow import problems

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "splitflow" or k.startswith("splitflow.")]

        for layer, fnames in _FUNCTIONS.items():
            home = sys.modules[f"splitflow.{layer}"]
            for fname in fnames:
                original = getattr(home, fname)
                name = _RENAME.get(f"{layer}.{fname}", f"{layer}.{fname}")
                wrapped = self.span(name, original, _HOOKS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

        # Oracles are methods: wrapping the class attribute covers every
        # instance. One span name per role, whatever the concrete class.
        for cls in _subclasses(problems.SmoothFunction):
            self._wrap_methods(cls, {"gradient": "problems.f_gradient",
                                     "prox": "problems.f_prox",
                                     "value": "problems.value"})
        for cls in _subclasses(problems.NonsmoothFunction):
            self._wrap_methods(cls, {"prox": "problems.g_prox",
                                     "value": "problems.value"})

        # Attempted DOPRI5 steps, rejected ones included: scipy's RK45 calls
        # its module-level ``rk_step`` once per attempt.
        rk_step = rk.rk_step

        def counted_rk_step(*args, **kwargs):
            self.count("dynamics.steps_attempted")
            return rk_step(*args, **kwargs)

        self._patch(rk, "rk_step", counted_rk_step)

    def _wrap_methods(self, cls, roles):
        for meth, name in roles.items():
            if meth in vars(cls):
                self._patch(cls, meth, self.span(name, vars(cls)[meth],
                                                 _HOOKS.get(name)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total seconds and self seconds."""
        if len(self._stack) != 1:
            raise RuntimeError("aggregate() called inside an open span")
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        out = {n: {"calls": int(calls[i]), "s": float(total[i]),
                   "self_s": float(selfs[i])}
               for i, n in enumerate(self.names)}
        # RHS evaluations made by the early-stop check rather than the stepper
        vf = self._ids.get("dynamics.vector_field")
        es = self._ids.get("dynamics.early_stop")
        if vf is not None and es is not None:
            from_es = (name == vf) & has_parent
            from_es[from_es] = name[parent[from_es]] == es
            out["dynamics.vector_field"]["early_stop_calls"] = int(from_es.sum())
        return out

    def write(self, path):
        """Write the recorded spans as tab-separated text."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# -- hooks: counters read from arguments and return values -------------------

def _on_integrate(rec, args, traj):
    rec.count("dynamics.steps_accepted", int(traj.meta["n_steps"]))
    rec.count("dynamics.samples", int(traj.times.shape[0]))


def _on_export(rec, args, _):
    rec.count("dynamics.export.bytes", os.path.getsize(args[1]))


def _on_reference(rec, args, sol):
    rec.count("analysis.solve_reference.iters", int(sol.iterations))


def _on_gradient(rec, args, _):
    # Computed from the operand's shape, not measured: flops of the dense
    # products and bytes of the matrix streamed once per product (float64).
    f = args[0]
    if f.kind == "logistic_ridge":
        s, n = f.A.shape
        rec.count("problems.f_gradient.flops", 4 * s * n)
        rec.count("problems.f_gradient.bytes", 16 * s * n)
    elif f.kind == "quadratic":
        n = f.Q.shape[0]
        rec.count("problems.f_gradient.flops", 2 * n * n)
        rec.count("problems.f_gradient.bytes", 8 * n * n)


_HOOKS = {
    "dynamics.integrate": _on_integrate,
    "dynamics.export": _on_export,
    "analysis.solve_reference": _on_reference,
    "problems.f_gradient": _on_gradient,
}

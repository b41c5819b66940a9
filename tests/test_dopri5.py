"""The in-house Dormand-Prince stepper against scipy's RK45, bit for bit.

scipy's solver is the reference: every accepted step must give the same
time, state, FSAL derivative, step size and next proposed step size, and
the dense output at the sample grid the same states.
"""

import numpy as np
import pytest
from scipy.integrate import RK45

from splitflow import (ConvexSchedule, DynamicsSpec, IntegrationFailure,
                       gen_lasso, integrate, schedule_strongly_convex,
                       vector_field)
from splitflow._dopri5 import Dopri5

from conftest import make_quadratic_box, make_quadratic_l1, smooth_problem
from oracles import linear_flow_solution


def side_by_side(fun, y0, t_end, tol, grid):
    """Step Dopri5 and RK45 together; return the stepper and the states at
    ``grid`` (y0 first), each step's grid points in one dense call."""
    ref = RK45(fun, 0.0, y0, t_bound=t_end, rtol=tol, atol=tol)
    own = Dopri5(fun, y0, t_end, tol)
    own.start()
    assert own.h_abs == ref.h_abs
    samples, idx, sizes = [y0[None, :]], 0, []
    while ref.status == "running":
        ref.step()
        if not own.step():
            break
        assert ref.status != "failed"
        assert own.t == ref.t and own.h == ref.step_size
        assert own.h_abs == ref.h_abs
        assert np.array_equal(own.y, ref.y) and np.array_equal(own.f, ref.f)
        sizes.append(own.h)
        end = int(np.searchsorted(grid, own.t + 1e-12, side="right"))
        if end > idx:
            ys = own.dense(grid[idx:end])
            assert np.array_equal(ys, ref.dense_output()(grid[idx:end]).T)
            samples.append(ys)
            idx = end
    assert (ref.status == "failed") == (own.t < t_end)
    assert own.t == ref.t
    assert own.n_steps == len(sizes)
    assert ref.nfev == 2 + 6 * (own.n_steps + own.n_rejected)
    if sizes:
        assert (own.h_min, own.h_max) == (min(sizes), max(sizes))
    return own, np.concatenate(samples)


@pytest.mark.parametrize("case", ["linear_flow", "acc_fb_lasso",
                                  "acc_dr_box_qp", "rejects", "ragged_end"])
def test_matches_scipy_rk45(case):
    tol, t_end, sample_dt = 1e-9, 10.0, 0.05
    if case in ("linear_flow", "ragged_end"):
        p = smooth_problem(n=5, seed=3)
        spec = DynamicsSpec("fb_flow", p, 0.1, ConvexSchedule(alpha=0.7))
        psi0 = np.array([1.0, -2.0, 0.5, 0.0, 2.0])
        if case == "ragged_end":       # the last step and sample are clipped
            t_end, sample_dt = 1.05, 0.1
    elif case == "acc_fb_lasso":
        p = gen_lasso(10, 30, seed=0)
        spec = DynamicsSpec("acc_fb", p, 0.5 / p.f.L,
                            ConvexSchedule(alpha=1.0 / p.f.L))
        psi0 = np.zeros(spec.state_dim)
    elif case == "acc_dr_box_qp":
        p = make_quadratic_box(n=12)
        spec = DynamicsSpec("acc_dr", p, 0.5 / p.f.L,
                            schedule_strongly_convex(1.0 / p.f.L, p.f.m))
        psi0 = np.zeros(spec.state_dim)
    else:
        p = make_quadratic_l1(n=6, seed=2)
        spec = DynamicsSpec("acc_fb", p, 0.05, ConvexSchedule(alpha=1.0))
        psi0 = np.full(spec.state_dim, 3.0)
        tol = 1e-6
    traj = integrate(spec, psi0=psi0, t_end=t_end, tol=tol,
                     sample_dt=sample_dt)
    own, samples = side_by_side(
        lambda t, y, out=None: vector_field(spec, t, y, out), psi0, t_end,
        tol, traj.times[1:])
    assert traj.times[-1] == t_end == own.t
    assert np.array_equal(np.hstack([traj.position, traj.velocity]), samples)
    assert traj.meta["rhs_calls"] == 2 + 6 * (traj.meta["n_steps"]
                                              + traj.meta["n_rejected"])
    assert (traj.meta["n_steps"], traj.meta["n_rejected"]) == (
        own.n_steps, own.n_rejected)
    if case == "rejects":
        assert own.n_rejected > 0
    if case in ("linear_flow", "ragged_end"):
        exact = linear_flow_solution(p.f.Q, p.f.q, 0.7, psi0, traj.times)
        assert np.max(np.abs(traj.position - exact)) <= 10.0 * tol


def test_blow_up_fails_where_scipy_does(monkeypatch):
    # y' = y^2 from y(0) = 1 blows up at t = 1: the step size underflows
    # at the step where scipy's solver reports failure
    monkeypatch.setattr("splitflow.dynamics.vector_field",
                        lambda spec, t, psi, out=None: np.multiply(
                            psi, psi, out=out))
    spec = DynamicsSpec("fb_flow", smooth_problem(n=1), 0.1,
                        ConvexSchedule(alpha=1.0))
    y0 = np.ones(1)
    with pytest.raises(IntegrationFailure,
                       match="adaptive step-size underflow") as exc:
        integrate(spec, psi0=y0, t_end=2.0, sample_dt=0.01)
    own, samples = side_by_side(
        lambda t, y, out=None: np.multiply(y, y, out=out), y0, 2.0, 1e-9,
        np.arange(1, 201) * 0.01)
    assert 0.99 < own.t < 1.0
    partial = exc.value.partial
    assert partial.meta["n_steps"] == own.n_steps
    assert partial.meta["rhs_calls"] == 2 + 6 * (own.n_steps
                                                 + own.n_rejected)
    assert np.array_equal(np.hstack([partial.position, partial.velocity]),
                          samples)

import json
import pickle

import numpy as np
import pytest
from scipy import linalg as sla

from splitflow import (BoxIndicator, CompositeProblem, ConvexSchedule,
                       DynamicsSpec, L1, LogisticRidge, Quadratic,
                       UnsupportedOperationError, gen_boxqp, integrate,
                       problem_from_dict, problem_to_dict)

from splitflow.problems import _softplus

from conftest import make_logistic_l1, make_quadratic_l1, moreau_envelope
from oracles import (finite_diff_grad, matmul_oracles, python_float_f_prox,
                     python_float_g_prox, python_float_gradient,
                     scalar_prox_box, scalar_prox_l1)

# mu as a caller may pass it: a Python float, a numpy scalar, a 0-d array
MU_FORMS = pytest.mark.parametrize("as_mu", [float, np.float64, np.array])


def assert_same_bits(out, ref):
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


class TestProxG:
    def test_l1_soft_threshold(self):
        g = L1(1.0)
        out = g.prox(np.array([2.0, -0.5, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-14)

    def test_l1_matches_scalar_bruteforce(self, rng):
        g = L1(0.7)
        for _ in range(20):
            v = 3.0 * rng.standard_normal(5)
            mu = float(rng.uniform(0.05, 2.0))
            out = g.prox(v, mu)
            expected = [scalar_prox_l1(vi, mu, 0.7) for vi in v]
            # golden-section argmin accuracy is sqrt(eps)-limited
            np.testing.assert_allclose(out, expected, atol=2e-7)

    def test_box_projection(self):
        g = BoxIndicator(0.0, 1.0)
        assert g.prox(np.array([5.0]), 1.0) == pytest.approx(1.0)

    def test_box_matches_scalar_bruteforce(self, rng):
        g = BoxIndicator(-np.ones(4), np.ones(4))
        v = 2.5 * rng.standard_normal(4)
        out = g.prox(v, 0.3)
        expected = [scalar_prox_box(vi, 0.3, -1.0, 1.0) for vi in v]
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_l1_zero_fixed_point(self):
        assert np.all(L1(1.0).prox(np.zeros(3), 1.0) == 0.0)

    @pytest.mark.parametrize("gname", ["l1", "box", "unbounded_box"])
    def test_firmly_nonexpansive(self, gname, rng):
        if gname == "l1":
            g = L1(0.8)
        elif gname == "box":
            g = BoxIndicator(-np.ones(6), np.ones(6))
        else:
            g = BoxIndicator(-np.inf, np.inf)
        for _ in range(50):
            a = 3.0 * rng.standard_normal(6)
            b = 3.0 * rng.standard_normal(6)
            pa, pb = g.prox(a, 0.5), g.prox(b, 0.5)
            d = pa - pb
            assert d @ d <= d @ (a - b) + 1e-12
            assert np.linalg.norm(d) <= np.linalg.norm(a - b) + 1e-12


def _edge_values(*scales):
    """+-0, +-inf, nan, subnormals and, for each scale, +-scale and its two
    neighbours in floating point."""
    tiny = np.finfo(float).smallest_subnormal
    out = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e3 * tiny,
           -1e3 * tiny, 1e308, -1e308]
    for c in scales:
        for a in (c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf)):
            out += [a, -a]
    return np.array(out)


class TestProxClosedForms:
    """The l1 and box prox against their textbook expressions under ==,
    with nan in the same places; only the sign of a zero may differ."""

    @pytest.mark.parametrize("weight, mu", [
        (0.7, 0.5), (1.0, 1.0), (2.5, 1e-300), (1e-300, 1e-20), (0.3, 0.0)])
    def test_l1_is_soft_thresholding(self, weight, mu, rng):
        t = mu * weight
        v = np.concatenate([_edge_values(t, 0.5 * t, 2.0 * t),
                            t * rng.standard_normal(200),
                            rng.standard_normal(200)])
        stack = rng.permuted(np.resize(v, (7, v.size)), axis=1)
        for x in (v, stack, v[5]):
            out = L1(weight).prox(x, mu)
            ref = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
            assert np.shape(out) == np.shape(x)
            assert np.array_equal(out, ref, equal_nan=True)

    @pytest.mark.parametrize("lower, upper", [
        (-1.0, 1.0), (0.0, 0.0), (-0.0, 2.5), (-np.inf, 1e-310),
        ([-1.0, -np.inf, 0.0, -3e-320], [1.0, 2.0, np.inf, 0.0])])
    def test_box_is_clip(self, lower, upper, rng):
        g = BoxIndicator(lower, upper)
        n = g.lower.size
        bounds = [b for b in np.concatenate([g.lower, g.upper])
                  if np.isfinite(b) and b != 0.0]
        v = np.concatenate([_edge_values(*bounds),
                            3.0 * rng.standard_normal(200)])
        v = v[:v.size - v.size % n].reshape(-1, n)
        for x in (v, v[0], v[:1]):
            out = g.prox(x, 0.5)
            assert np.shape(out) == np.shape(x)
            assert np.array_equal(out, np.clip(x, g.lower, g.upper),
                                  equal_nan=True)


class TestUnboundedBox:
    """g = 0 is the box [-inf, inf]: prox the identity, bit for bit."""

    def test_prox_value_and_free_set(self, rng):
        g = BoxIndicator(-np.inf, np.inf)
        v = np.concatenate([_edge_values(1.0), rng.standard_normal(200)])
        finite = v[np.isfinite(v)]
        for x in (v, v.reshape(-1, 7), v[:1]):
            out = g.prox(x, 0.5)
            assert np.shape(out) == np.shape(x)
            assert out.tobytes() == np.asarray(x).tobytes()
        for x in (finite, finite[:210].reshape(-1, 7)):
            assert np.array_equal(g.value(x), np.zeros(x.shape[:-1]))
        free, held, dg = g.free_set(finite)
        assert free.all() and held.tobytes() == finite.tobytes()
        assert dg == 0.0


class TestProxF:
    def test_linear_shift(self):
        f = Quadratic(np.zeros((3, 3)), np.array([1.0, -2.0, 0.5]))
        v = np.array([0.3, 0.4, 0.5])
        np.testing.assert_allclose(f.prox(v, 2.0), v - 2.0 * f.q, atol=1e-14)

    def test_identity_quadratic(self):
        f = Quadratic(np.eye(2), np.zeros(2))
        v = np.array([4.0, -6.0])
        np.testing.assert_allclose(f.prox(v, 1.0), v / 2.0, atol=1e-14)

    def test_diagonal_against_direct_solve(self):
        f = Quadratic(np.diag([1.0, 10.0]), np.array([1.0, 0.0]))
        v = np.array([1.0, 1.0])
        expected = np.linalg.solve(np.eye(2) + 0.1 * f.Q, v - 0.1 * f.q)
        np.testing.assert_allclose(f.prox(v, 0.1), expected, atol=1e-14)

    def test_optimality_residual(self, rng):
        n = 8
        from oracles import random_spd_matrix
        f = Quadratic(random_spd_matrix(n, 0.5, 4.0, rng),
                      rng.standard_normal(n))
        for _ in range(10):
            v = rng.standard_normal(n)
            mu = float(rng.uniform(0.05, 1.0))
            z = f.prox(v, mu)
            resid = f.gradient(z) + (z - v) / mu
            assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(v))

    def test_solve_matches_cho_solve(self, rng):
        # the direct LAPACK solve gives cho_solve's numbers bit for bit
        n = 9
        from oracles import random_spd_matrix
        f = Quadratic(random_spd_matrix(n, 0.5, 4.0, rng),
                      rng.standard_normal(n))
        mu = 0.3
        fac = f._shifted_factor(mu)[0]
        for v in (rng.standard_normal(n), rng.standard_normal((7, n))):
            assert np.array_equal(f.solve_shifted(mu, v),
                                  sla.cho_solve(fac, v.T).T)
            assert np.array_equal(f.prox(v, mu),
                                  sla.cho_solve(fac, (v - mu * f.q).T).T)

    def test_logistic_has_no_prox(self):
        problem = make_logistic_l1()
        with pytest.raises(UnsupportedOperationError):
            problem.f.prox(np.zeros(problem.dim), 0.1)


class TestPythonFloatBits:
    """The oracles bind their constants as float64 0-d arrays (mu q, the l1
    bounds, the ridge weight): each ufunc takes the same values as with the
    Python floats of the ``python_float_*`` oracles, so gives the same bits,
    on a point and on a stack."""

    @staticmethod
    def points(rng, n):
        # magnitudes from 1e-3 to 1, so that the l1 prox zeroes some entries
        scale = 10.0 ** rng.uniform(-3.0, 0.0, n)
        return (rng.standard_normal(n) * scale,
                rng.standard_normal((5, n)) * scale)

    @MU_FORMS
    def test_l1_prox(self, as_mu, rng):
        g = L1(0.7)
        for mu in (0.3, 1e-3, 0.0):
            for v in self.points(rng, 9):
                assert_same_bits(g.prox(v, as_mu(mu)),
                                 python_float_g_prox(g, v, mu))

    @MU_FORMS
    def test_quadratic_prox(self, as_mu, rng):
        f = make_quadratic_l1(n=9, seed=3).f
        for mu in (0.05, 0.09):
            for v in self.points(rng, 9):
                assert_same_bits(f.prox(v, as_mu(mu)),
                                 python_float_f_prox(f, v, mu))

    def test_logistic_gradient(self, rng):
        f = make_logistic_l1(n=9, seed=3).f
        for x in self.points(rng, 9):
            assert_same_bits(f.gradient(x), python_float_gradient(f, x))

    @MU_FORMS
    def test_unpickled_l1_with_filled_cache(self, as_mu, rng):
        g = L1(0.7)
        g.prox(np.zeros(9), 0.3)
        restored = pickle.loads(pickle.dumps(g))
        assert list(restored._bounds) == [0.3]
        for v in self.points(rng, 9):
            assert_same_bits(restored.prox(v, as_mu(0.3)),
                             python_float_g_prox(g, v, 0.3))


class TestPointProducts:
    """A point takes ``M.dot(x)``, a stack ``(M @ x.T).T``: every product of
    the value, gradient and Hessian-action oracles must keep the bits of
    ``(M @ x.T).T`` at the dimensions of the benchmark's Lyapunov problems.
    On the strided 209-row last block of a (2001, 2n) trajectory ``.dot``
    rounds differently, so that layout pins that stacks keep ``@``."""

    @staticmethod
    def inputs(layout, n, rng):
        if layout == "point":
            return rng.standard_normal(n), rng.standard_normal(n)
        if layout == "stage_view":      # position and velocity of a state
            psi = rng.standard_normal(2 * n)
            return psi[:n], psi[n:]
        if layout == "strided_point":
            both = rng.standard_normal((n, 2))
            return both[:, 0], both[:, 1]
        if layout == "stack":
            return rng.standard_normal((2, 256, n))
        states = rng.standard_normal((2001, 2 * n))     # "last_block"
        return states[1792:, :n], states[1792:, n:]

    @pytest.mark.parametrize("layout", ["point", "stage_view",
                                        "strided_point", "stack",
                                        "last_block"])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic_ridge"])
    @pytest.mark.parametrize("n", [12, 16, 30])
    def test_matches_matmul(self, n, kind, layout, rng):
        f = (make_quadratic_l1(n=n, seed=n).f if kind == "quadratic"
             else make_logistic_l1(s=20, n=n, seed=n).f)
        x, v = self.inputs(layout, n, rng)
        for name, want in matmul_oracles(f).items():
            got = f.hess_vec(x, v) if name == "hess_vec" else getattr(
                f, name)(x)
            assert_same_bits(np.asarray(got), np.asarray(want(x, v)))


class TestSoftplus:
    def test_matches_logaddexp(self):
        # the logistic value's softplus against numpy's scalar-loop
        # log(e^0 + e^t): within 2 ulp, equal at +-inf, nan on nan
        t = np.array([0.0, 1e-300, 1.0, 36.0, 710.0, 1e308, np.inf])
        t = np.concatenate([t, -t, [np.nan]])
        with np.errstate(invalid="ignore"):     # logaddexp warns on nan
            want = np.logaddexp(0.0, t)
        got = _softplus(t)
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite])
                      <= 4.5e-16 * np.abs(want[finite]))
        assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
        assert np.isnan(got[-1]) and not np.isnan(got[:-1]).any()


class TestMoreau:
    def test_at_origin(self):
        value, grad = moreau_envelope(L1(1.0), np.zeros(1), 0.5)
        assert value == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(grad, [0.0], atol=1e-14)

    def test_worked_value(self):
        value, grad = moreau_envelope(L1(1.0), np.array([2.0]), 0.5)
        assert value == pytest.approx(1.75, abs=1e-12)
        np.testing.assert_allclose(grad, [1.0], atol=1e-12)

    def test_gradient_in_subdifferential_l1(self, rng):
        g = L1(0.9)
        for _ in range(30):
            v = 2.0 * rng.standard_normal(4)
            mu = float(rng.uniform(0.1, 1.5))
            _, grad = moreau_envelope(g, v, mu)
            p = g.prox(v, mu)
            on = np.abs(p) > 0
            np.testing.assert_allclose(grad[on], 0.9 * np.sign(p[on]),
                                       atol=1e-10)
            assert np.all(np.abs(grad[~on]) <= 0.9 + 1e-10)

    def test_gradient_matches_finite_difference(self, rng):
        g = L1(0.6)
        worst = 0.0
        for _ in range(100):
            v = 2.0 * rng.standard_normal(5)
            mu = float(rng.uniform(0.2, 1.5))
            _, grad = moreau_envelope(g, v, mu)
            fd = finite_diff_grad(lambda z: moreau_envelope(g, z, mu)[0], v)
            worst = max(worst,
                        np.linalg.norm(fd - grad) / (1 + np.linalg.norm(grad)))
        assert worst <= 1e-5


class TestGradF:
    def test_identity_quadratic(self):
        f = Quadratic(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(f.gradient(np.array([1.0, 2.0])),
                                   [1.0, 2.0], atol=1e-15)

    def test_logistic_at_zero(self):
        problem = make_logistic_l1()
        f = problem.f
        expected = f.A.T @ (0.5 - f.y)
        np.testing.assert_allclose(f.gradient(np.zeros(f.dim)), expected,
                                   atol=1e-12)

    @pytest.mark.parametrize("make", [make_quadratic_l1, make_logistic_l1])
    def test_matches_finite_difference(self, make, rng):
        f = make().f
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(f.dim)
            g = f.gradient(x)
            fd = finite_diff_grad(f.value, x)
            worst = max(worst,
                        np.linalg.norm(fd - g) / (1 + np.linalg.norm(g)))
        assert worst <= 1e-6

    def test_dimension_mismatch(self):
        f = Quadratic(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            f.gradient(np.zeros(2))

    @pytest.mark.parametrize("make", [make_quadratic_l1, make_logistic_l1])
    def test_gradient_lipschitz_sampled(self, make, rng):
        f = make().f
        for _ in range(50):
            a = 2.0 * rng.standard_normal(f.dim)
            b = 2.0 * rng.standard_normal(f.dim)
            lhs = np.linalg.norm(f.gradient(a) - f.gradient(b))
            assert lhs <= f.L * np.linalg.norm(a - b) * (1 + 1e-12)

    @pytest.mark.parametrize("make", [make_quadratic_l1, make_logistic_l1])
    def test_strong_convexity_sampled(self, make, rng):
        f = make().f
        for _ in range(50):
            a = 2.0 * rng.standard_normal(f.dim)
            b = 2.0 * rng.standard_normal(f.dim)
            lhs = f.value(a)
            rhs = (f.value(b) + f.gradient(b) @ (a - b)
                   + 0.5 * f.m * float((a - b) @ (a - b)))
            assert lhs >= rhs - 1e-9 * (1 + abs(lhs))


class TestConstants:
    def test_quadratic_constants_match_spectrum(self, rng):
        from oracles import random_spd_matrix
        Q = random_spd_matrix(9, 0.7, 5.3, rng)
        f = Quadratic(Q, np.zeros(9))
        eigs = np.linalg.eigvalsh(Q)
        assert f.m == pytest.approx(eigs[0], rel=1e-10)
        assert f.L == pytest.approx(eigs[-1], rel=1e-10)

    def test_logistic_constants(self):
        gen = np.random.default_rng(5)
        A = gen.standard_normal((14, 7))
        y = (gen.uniform(size=14) < 0.5).astype(float)
        f = LogisticRidge(A, y, 0.25)
        assert f.m == 0.25
        expected_L = 0.25 + np.linalg.eigvalsh(A.T @ A)[-1] / 4.0
        assert f.L == pytest.approx(expected_L, rel=1e-10)

    def test_m_le_L(self):
        p = make_quadratic_l1()
        assert 0 <= p.f.m <= p.f.L

    @pytest.mark.parametrize("m, L", [
        (-1e-3, None), (0.7 + 1e-4, None), (float("nan"), None),
        (None, 5.3 - 1e-4), (None, 1.0), (None, float("nan"))])
    def test_quadratic_refuses_invalid_overrides(self, m, L, rng):
        from oracles import random_spd_matrix
        Q = random_spd_matrix(9, 0.7, 5.3, rng)
        with pytest.raises(ValueError):
            Quadratic(Q, np.zeros(9), m=m, L=L)

    @pytest.mark.parametrize("m, L", [
        (0.7, 5.3), (0.0, 5.3), (0.5, 8.0), (0.7 + 1e-9, 5.3 - 1e-9)])
    def test_quadratic_accepts_valid_or_looser_overrides(self, m, L, rng):
        from oracles import random_spd_matrix
        Q = random_spd_matrix(9, 0.7, 5.3, rng)
        f = Quadratic(Q, np.zeros(9), m=m, L=L)
        assert (f.m, f.L) == (m, L)

    def test_generators_and_fixtures_pass_override_checks(self):
        from splitflow import gen_boxqp, gen_lasso
        from conftest import make_quadratic_box, smooth_problem
        assert gen_lasso(20, 100, seed=0).f.m == 0.0
        box = gen_boxqp(100, 1e3, seed=0).f
        assert (box.m, box.L) == (1.0, 1e3)
        for p in (make_quadratic_l1(), make_quadratic_box(),
                  smooth_problem()):
            assert 0 < p.f.m < p.f.L


class TestCompositeProblem:
    def test_dimension_mismatch_rejected(self):
        f = Quadratic(np.eye(3), np.zeros(3))
        g = BoxIndicator(-np.ones(4), np.ones(4))
        with pytest.raises(ValueError):
            CompositeProblem(f, g)

    def test_objective(self):
        p = CompositeProblem(Quadratic(np.eye(2), np.zeros(2)), L1(2.0))
        x = np.array([1.0, -1.0])
        assert p.objective(x) == pytest.approx(1.0 + 4.0)

    def test_box_indicator_outside(self):
        g = BoxIndicator(-np.ones(2), np.ones(2))
        assert g.value(np.array([2.0, 0.0])) == np.inf
        assert g.value(np.array([0.5, -1.0])) == 0.0

    def test_half_infinite_box_value_matches_prox(self):
        # an infinite bound adds nothing to the slack of the finite ones
        g = BoxIndicator([-np.inf, -1.0], [1.0, 1.0])
        x = np.array([5.0, 0.0])
        assert g.value(x) == np.inf
        assert g.value(g.prox(x, 1.0)) == 0.0
        assert g.value(np.array([-1e300, 1.0])) == 0.0
        g = BoxIndicator([-np.inf, 0.0], [np.inf, np.inf])
        assert g.value(np.array([-1e300, 1e300])) == 0.0

    def test_half_infinite_box_free_set(self):
        # the polish hook's tolerance, too, scales with the finite bounds
        # only: an infinite bound holds no coordinate and adds no nan
        g = BoxIndicator([-np.inf, -1.0, 0.0], [1.0, np.inf, np.inf])
        free, held, dg = g.free_set(np.array([1.0, 0.5, 1e-12]))
        assert free.tolist() == [False, True, False]
        assert held.tolist() == [1.0, 0.5, 0.0] and dg == 0.0

    def test_finite_box_keeps_its_slack(self):
        # x <= upper + 1e-12 (1 + |lower| + |upper|) counts as inside
        lower, upper = np.array([-1.0, -3.0]), np.array([2.0, 0.5])
        g = BoxIndicator(lower, upper)
        edge = upper + 1e-12 * (1.0 + np.abs(lower) + np.abs(upper))
        assert g.value(edge) == 0.0
        assert g.value(np.nextafter(edge, np.inf)) == np.inf
        edge = lower - 1e-12 * (1.0 + np.abs(lower) + np.abs(upper))
        assert g.value(edge) == 0.0
        assert g.value(np.nextafter(edge, -np.inf)) == np.inf


class TestConstructorDomains:
    @pytest.mark.parametrize("weight", [np.nan, np.inf, 0.0, -1.0])
    def test_l1_refuses_weight(self, weight):
        with pytest.raises(ValueError, match="l1 weight must be positive"):
            L1(weight)

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan]),
        ([2.0], [1.0])])
    def test_box_refuses_nan_or_crossed_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="lower <= upper"):
            BoxIndicator(lower, upper)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -0.5])
    def test_logistic_refuses_ridge(self, ridge):
        with pytest.raises(ValueError, match="ridge must be nonnegative"):
            LogisticRidge(np.ones((3, 2)), [0.0, 1.0, 1.0], ridge)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_logistic_refuses_non_finite_data(self, bad):
        A = np.ones((3, 2))
        A[1, 0] = bad
        with pytest.raises(ValueError, match="A contains non-finite"):
            LogisticRidge(A, [0.0, 1.0, 1.0], 0.1)


class TestSerialization:
    def test_quadratic_l1_roundtrip(self):
        p = make_quadratic_l1(n=6)
        d = problem_to_dict(p)
        p2 = problem_from_dict(d)
        np.testing.assert_array_equal(p.f.Q, p2.f.Q)
        np.testing.assert_array_equal(p.f.q, p2.f.q)
        assert p.g.weight == p2.g.weight

    def test_roundtrip_is_deterministic(self):
        p = make_quadratic_l1(n=5)
        s1 = json.dumps(problem_to_dict(p), sort_keys=True)
        s2 = json.dumps(problem_to_dict(problem_from_dict(json.loads(s1))),
                        sort_keys=True)
        assert s1 == s2

    def test_logistic_box_roundtrip(self):
        gen = np.random.default_rng(8)
        A = gen.standard_normal((6, 4))
        y = (gen.uniform(size=6) < 0.5).astype(float)
        p = CompositeProblem(LogisticRidge(A, y, 0.2),
                             BoxIndicator(-np.ones(4), np.ones(4)))
        p2 = problem_from_dict(problem_to_dict(p))
        np.testing.assert_array_equal(p.f.A, p2.f.A)
        np.testing.assert_array_equal(p2.g.lower, -np.ones(4))

    def test_quadratic_constants_roundtrip(self):
        # planted m/L overrides survive a round-trip, so a run on the
        # reloaded problem is the same run
        p = gen_boxqp(100, 1e3, seed=0)
        p2 = problem_from_dict(json.loads(json.dumps(problem_to_dict(p))))
        assert p2.f.m == 1.0 and p2.f.L == 1000.0
        mu = 1.0 / (2.0 * p.f.L)
        runs = [integrate(DynamicsSpec("acc_fb", q, mu,
                                       ConvexSchedule(alpha=1.0 / q.f.L)),
                          t_end=5.0)
                for q in (p, p2)]
        a, b = (np.hstack([r.position, r.velocity]) for r in runs)
        assert np.array_equal(a, b)

    def test_quadratic_without_constants_loads(self):
        # files written before m/L were serialized take them from Q
        d = problem_to_dict(make_quadratic_l1(n=5))
        del d["f"]["m"], d["f"]["L"]
        p = problem_from_dict(d)
        w = np.linalg.eigvalsh(p.f.Q)
        assert p.f.m == max(w[0], 0.0) and p.f.L == w[-1]

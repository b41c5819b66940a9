"""Property-based checks of the prox and envelope oracles, of the
stack convention (every oracle, the FB kernel, the vector fields and the
Lyapunov function give on an (S, n) stack what they give row by row), and
of the CSV writer (the bytes of ``'%.17e'``, value by value).

Examples are derandomized, so every run draws the same cases.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitflow import (BoxIndicator, CompositeProblem, ConvexSchedule,
                       DynamicsSpec, L1, dr_envelope, fb_envelope,
                       generalized_gradient, lyapunov_value,
                       make_lyapunov_spec, solve_reference, vector_field)
from splitflow._csvfmt import write_csv
from splitflow.analysis import GENERAL_STRONG, QUAD_CONVEX, QUAD_STRONG
from splitflow.envelopes import _fb_kernel

from conftest import make_logistic_l1, make_quadratic_box, make_quadratic_l1
from oracles import fb_envelope_prox_form, percent_e_csv

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
    value = _fb_kernel(p, x, mu)[3]
    expected = fb_envelope_prox_form(p, x, mu)
    assert abs(value - expected) <= 1e-10 * (1.0 + abs(value))


@PROPERTY
@given(problem_kinds, seeds, vectors, mu_fractions)
def test_envelope_below_objective_on_domain(kind, seed, x, frac):
    p = problem_for(kind, seed)
    mu = frac / p.f.L
    if kind == "quadratic_box":
        x = np.clip(x, -1.0, 1.0)       # dom g is the box
    value = _fb_kernel(p, x, mu)[3]
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
    d = g.prox(a, mu) - g.prox(b, mu)
    assert d @ d <= d @ (a - b) + 1e-12 * (1.0 + np.abs(a - b).max() ** 2)


# ---------------------------------------------------------------------------
# a stack of points gives the row-by-row results
# ---------------------------------------------------------------------------

S = 5
STACK = settings(derandomize=True, max_examples=10, deadline=None)
stacks = arrays(np.float64, (S, N), elements=finite)
times = arrays(np.float64, S, elements=st.floats(0.0, 50.0))
one_time = st.floats(0.0, 50.0)


def assert_rows_match(stacked, rows):
    stacked, rows = np.asarray(stacked), np.asarray(rows)
    assert stacked.shape == rows.shape
    with np.errstate(invalid="ignore"):         # inf - inf for the box
        close = np.abs(stacked - rows) <= 1e-12 * (1.0 + np.abs(rows))
    assert np.all(close | (stacked == rows))


def oracles(seed, mu):
    """Every value / gradient / prox oracle, as a function of x alone."""
    quad = make_quadratic_l1(n=N, seed=seed).f
    logi = make_logistic_l1(s=10, n=N, seed=seed).f
    l1, box = L1(0.7), BoxIndicator(-np.ones(N), np.ones(N))
    smooth = {"quadratic": quad, "logistic": logi}
    parts = dict(smooth, l1=l1, box=box)
    out = {"objective": CompositeProblem(logi, l1).objective}
    for name, part in parts.items():
        out[name + ".value"] = part.value
        if name in smooth:
            out[name + ".gradient"] = part.gradient
        if name != "logistic":      # f's prox: quadratic only
            out[name + ".prox"] = lambda x, part=part: part.prox(x, mu)
    return out


ORACLES = sorted(oracles(0, 0.1))


@pytest.mark.parametrize("name", ORACLES)
@STACK
@given(seeds, stacks, st.floats(0.01, 2.0))
def test_oracle_stack_equals_rows(name, seed, x, mu):
    # rows outside and inside the box
    x = np.vstack([x, np.clip(x, -1.0, 1.0)])
    fn = oracles(seed, mu)[name]
    assert_rows_match(fn(x), [fn(row) for row in x])


@STACK
@given(problem_kinds, seeds, stacks, mu_fractions)
def test_kernel_stack_equals_rows(kind, seed, x, frac):
    p = problem_for(kind, seed)
    mu = frac / p.f.L
    stacked = _fb_kernel(p, x, mu)
    rows = [_fb_kernel(p, row, mu) for row in x]
    for j, part in enumerate(stacked):
        assert_rows_match(part, [r[j] for r in rows])


@pytest.mark.parametrize("rows", [S, N])    # S = n once hid a transpose
@pytest.mark.parametrize("envelope, kind", [
    (fb_envelope, "quadratic_l1"), (fb_envelope, "logistic_l1"),
    (dr_envelope, "quadratic_box")])
@STACK
@given(seeds, arrays(np.float64, (N, N), elements=finite), mu_fractions)
def test_envelope_gradient_stack_equals_rows(rows, envelope, kind, seed, x,
                                            frac):
    p = problem_for(kind, seed)
    mu = frac / p.f.L
    x = x[:rows]
    assert_rows_match(envelope(p, x, mu).gradient,
                      [envelope(p, row, mu).gradient for row in x])


@pytest.mark.parametrize("kind", ["fb_flow", "dr_flow", "acc_fb", "acc_dr"])
@STACK
@given(seeds, one_time, stacks, stacks, mu_fractions)
def test_vector_field_stack_equals_rows(kind, seed, t, pos, vel, frac):
    # a stack shares one time t; on the stack and on each row, the field
    # written into a buffer is the buffer, holding the bytes of the
    # allocating call
    p = make_quadratic_l1(n=N, seed=seed)
    spec = DynamicsSpec(kind, p, frac / p.f.L, ConvexSchedule(alpha=0.5))
    psi = pos if kind in ("fb_flow", "dr_flow") else np.hstack([pos, vel])
    stacked = vector_field(spec, t, psi)
    rows = [vector_field(spec, t, row) for row in psi]
    assert_rows_match(stacked, rows)
    for state, value in zip([psi, *psi], [stacked, *rows]):
        buf = np.full_like(state, np.nan)
        assert vector_field(spec, t, state, out=buf) is buf
        assert buf.tobytes() == value.tobytes()


@pytest.mark.parametrize("case", [QUAD_CONVEX, QUAD_STRONG, GENERAL_STRONG])
@STACK
@given(seeds, times, stacks, stacks, mu_fractions)
def test_lyapunov_stack_equals_rows(case, seed, t, pos, vel, frac):
    if case == GENERAL_STRONG:
        p = make_logistic_l1(s=10, n=N, seed=seed)
        kw = dict(theta=0.3, beta=0.4)
    elif case == QUAD_CONVEX:
        p = make_quadratic_l1(n=N, seed=seed)
        kw = dict(theta=lambda s: 2.0 / (s + 3.0))
    else:
        p = make_quadratic_l1(n=N, seed=seed)
        kw = dict(theta=0.3, envelope_kind="dr")
    # the identity holds for any reference point
    spec = make_lyapunov_spec(p, frac / p.f.L, alpha=0.1, case=case,
                              x_star=np.linspace(-1.0, 1.0, N), f_star=0.5,
                              **kw)
    psi = np.hstack([pos, vel])
    assert_rows_match(lyapunov_value(spec, t, psi),
                      [lyapunov_value(spec, ti, row)
                       for ti, row in zip(t, psi)])


# ---------------------------------------------------------------------------
# the CSV writer gives the bytes of '%.17e', value by value
# ---------------------------------------------------------------------------

@functools.cache
def with_digit_group(lead, group, j, e):
    """A double whose ``'%.17e'`` is ``lead``, four 4-digit groups with
    ``group`` at position ``j``, then ``e``: group k holds (k + 1) times
    the first filler whose text round-trips."""
    for filler in range(10000):
        groups = [f"{filler * (k + 1) % 10000:04d}" for k in range(4)]
        groups[j] = group
        text = f"{lead}{''.join(groups)}e{e:+03d}"
        if "%.17e" % float(text) == text:
            return float(text)
    raise ValueError(f"no double prints as {lead}...e{e:+03d}")


def edge_values():
    """Zeros, extremes, non-finite values, powers of ten with both
    neighbours, powers of two, 1e17 and 1e18 with both neighbours, exact
    rounding ties, and 18-digit numbers with leading digits 10 or 99 and
    one four-digit group 0000 or 9999, with both neighbours, at exponents
    inside and outside the fast range; each with both signs."""
    tiny = np.finfo(np.float64)
    values = [0.0, 5e-324, tiny.smallest_normal, tiny.max, np.nan, np.inf]
    for k in range(-300, 301):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    values += [2.0 ** k for k in range(-1074, 1024)]
    for p in (1e17, 1e18):
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    # exact ties of the 18th digit: m / 8 for odd m ~ 8e15 ends in 125,
    # 375, 625 or 875 at the 19th significant digit
    values += list((8e15 + np.arange(1.0, 40.0, 2.0)) / 8.0)
    # the formatter writes d0 d1 by one lookup, then d2..d17 as four groups
    for lead in ("1.0", "9.9"):
        for group in ("0000", "9999"):
            for j in range(4):
                for e in (-300, -100, -17, -1, 0, 1, 22, 99, 100, 279):
                    p = with_digit_group(lead, group, j, e)
                    values += [np.nextafter(p, 0.0), p,
                               np.nextafter(p, np.inf)]
    values = np.array(values)
    return np.concatenate([values, -values])


def written(path, block):
    write_csv(path, ["a"], [block])
    text = path.read_bytes()
    assert text.startswith(b"a\r\n")
    return text[len(b"a\r\n"):]


@pytest.mark.parametrize("rows", [1, 2, 33])
# CRLF is the writer's only line ending, kept as a parameter for the ids
@pytest.mark.parametrize("newline", ["\r\n"], ids=["crlf"])
@pytest.mark.parametrize("log10_shift", [0.0, -1.0, 1.0])
def test_csv_edge_values_match_percent_e(rows, newline, log10_shift,
                                         tmp_path, monkeypatch):
    # a shifted log10 puts every decimal exponent one too small or too
    # large, as an inaccurate log10 could near a power of ten; such values
    # must reach the exact fallback
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + log10_shift)
    values = edge_values()
    block = np.resize(values, (rows, -(-values.size // rows)))
    assert (written(tmp_path / "edge.csv", block)
            == percent_e_csv(block, newline))


@pytest.mark.parametrize("log10_shift", [0.0, -1.0, 1.0])
def test_csv_edge_values_in_first_and_last_column(log10_shift, tmp_path,
                                                   monkeypatch):
    # a field's first word (sign, d0, ".", d1) and last word (exponent
    # units and separator) at both ends of a row: each of the first and
    # last columns holds every edge value, both signs included
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + log10_shift)
    values = edge_values()
    block = np.column_stack([values, np.roll(values, values.size // 2),
                             values[::-1]])
    assert (written(tmp_path / "edge.csv", block)
            == percent_e_csv(block, "\r\n"))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "rows.csv"


EDGE_BITS = edge_values().view(np.uint64).tolist()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, 2, 33]), cols=st.integers(1, 5),
       data=st.data())
def test_csv_bit_patterns_match_percent_e(csv_path, rows, cols, data):
    # any 64-bit pattern, NaN payloads and subnormals included, mixed with
    # the edge values
    bits = data.draw(arrays(np.uint64, (rows, cols), elements=st.one_of(
        st.integers(0, 2**64 - 1), st.sampled_from(EDGE_BITS))))
    block = bits.view(np.float64)
    assert (written(csv_path, block)
            == percent_e_csv(block, "\r\n"))

"""Closed-form simplex beta integral vs the quadrature oracle, plus the
normalization constants and the quadrature toolkit itself."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elliptic_selberg import selberg
from elliptic_selberg.errors import (
    GammaPole,
    OutOfSupportedRange,
    QuadratureBudgetExceeded,
)
from elliptic_selberg.quadrature import (
    QuadratureSpec,
    endpoint_loop_fp,
    gauss_jacobi,
    graded_breakpoints,
    graded_nodes,
    levels_for_exponent,
    panel_nodes,
)
from elliptic_selberg.selberg import (
    BlockConstant,
    SelbergParams,
    block_constant,
    selberg_oracle,
    selberg_value,
)


def closed(p, a, b, g):
    return selberg_value(SelbergParams(p, a, b, g))


def oracle(p, a, b, g, **kw):
    return selberg_oracle(SelbergParams(p, a, b, g), **kw)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_p1_is_euler_beta_and_gamma_free():
    # single-factor case: Gamma(a)Gamma(b)/Gamma(a+b), independent of gamma
    assert abs(closed(1, 0.5, 0.5, 0.3) - math.pi) < 1e-14
    assert abs(closed(1, 0.5, 0.5, 1.7) - math.pi) < 1e-14
    assert abs(closed(1, 2, 3, 0.0) - 1 / 12) < 1e-15


def test_p2_unit_parameters():
    # integral of (t1-t2)^2 over the ordered square is 1/12, by expansion:
    # int_0^1 int_0^t1 (t1^2 - 2 t1 t2 + t2^2) dt2 dt1 = 1/4 - 1/4 + 1/12
    assert abs(closed(2, 1, 1, 1) - 1 / 12) < 1e-14


def test_p0_empty_product_convention():
    assert closed(0, 9.9, -3.3, 2.2) == 1.0 + 0.0j


@given(
    a=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.5,
                         allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.5,
                         allow_nan=False, allow_infinity=False),
    g=st.floats(0.05, 1.5),
    p=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_alpha_beta_symmetry(a, b, g, p):
    a, b = a + 3, b + 3  # keep well away from gamma poles
    assert abs(closed(p, a, b, g) - closed(p, b, a, g)) <= 1e-11 * abs(
        closed(p, a, b, g))


def test_numerator_pole_raises_with_location():
    with pytest.raises(GammaPole) as err:
        closed(1, 0.0, 1.0, 0.5)
    assert "alpha" in str(err.value) and "j=0" in str(err.value)
    with pytest.raises(GammaPole):
        closed(2, 1.0, -0.5, 0.5)  # beta + j*gamma = -0.5+0.5 = 0 at j=1
    with pytest.raises(GammaPole):
        closed(1, 1.0, 1.0, -1.0)  # 1+gamma = 0


def test_denominator_pole_gives_zero():
    # Gamma(alpha+beta) = Gamma(0) downstairs: reciprocal vanishes
    assert closed(1, 0.5, -0.5, 0.0) == 0.0
    # block-style dead range: alpha+beta lands exactly on 0
    assert closed(1, 0.4, -0.4, 0.2) == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        SelbergParams(-1, 1, 1, 1)


@given(z=st.complex_numbers(max_magnitude=50.0, allow_nan=False,
                            allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_log_gamma_matches_mpmath(z):
    # Gamma(z) to the last bits the magnitude of log Gamma leaves: a double
    # log Gamma of modulus M carries an absolute rounding error near eps M
    # (1.4e-14 at M = 128), so the bound is 1e-14 plus 3 eps M
    mpmath = pytest.importorskip("mpmath")
    k = round(z.real)
    assume(k > 0 or abs(z - k) > 1e-3)  # off the poles
    with mpmath.workdps(40):
        ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        err = abs(mpmath.exp(mpmath.mpc(selberg._log_gamma(z)) - ref) - 1)
        bound = 1e-14 + 3 * np.finfo(float).eps * abs(ref)
    assert err <= bound, (z, float(err))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_polynomial_case():
    # integrand t (1-t)^2 is a polynomial; Gauss handles it exactly
    assert abs(oracle(1, 2, 3, 0.7) - 1 / 12) < 1e-14


# The oracle continues an endpoint by a circle from its exponent
# ("by-exponent"); "contour" moves the switch so that every endpoint with a
# non-positive exponent runs the circle, which must give the continued value
# on its own.
ENDPOINT_RULES = [
    pytest.param(None, id="by-exponent"),
    pytest.param(0.0, id="contour"),
]


@pytest.fixture(params=ENDPOINT_RULES)
def endpoint_rule(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(selberg, "_CIRCLE_AT_OR_BELOW", request.param)


def test_oracle_negative_exponent_path_reproduces_pi(endpoint_rule):
    # both endpoint exponents are -1/2, so this runs the continuation path
    val = oracle(1, 0.5, 0.5, 0.0)
    assert abs(val - math.pi) <= 1e-8


def test_oracle_continued_value_at_negative_beta_is_zero(endpoint_rule):
    # closed form has Gamma(0) downstairs: the continued integral vanishes;
    # exponent -1/2 at t = 0, -3/2 at t = 1
    assert abs(oracle(1, 0.5, -0.5, 0.0)) <= 1e-9
    assert closed(1, 0.5, -0.5, 0.0) == 0.0


def test_oracle_block_style_beta_continuation(endpoint_rule):
    # the (p=1, kappa=4, n=2) parameter set: alpha=3/4, beta=-1/2, gamma=1/4
    ref = closed(1, 0.75, -0.5, 0.25)
    val = oracle(1, 0.75, -0.5, 0.25)
    assert abs(val - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("beta", [-0.6, -0.8, -0.9, -0.95])
def test_oracle_keeps_digits_near_exponent_minus_two(beta):
    # endpoint exponent beta - 1 in (-2, -1.5], continued by the circle,
    # which keeps full precision here
    ref = closed(1, 1.3, beta, 0.4)
    assert abs(oracle(1, 1.3, beta, 0.4) - ref) <= 1e-12 * abs(ref)


def test_oracle_exponent_zero_is_graded():
    # alpha = 1 puts exponent 0 at t = 0, where the circle divisor
    # e^(2 pi i a) - 1 vanishes, so that end is graded, not circled
    assert oracle(1, 1, 1, 0.4) == 1.0
    ref = closed(1, 1, -0.5, 0.4)
    assert abs(oracle(1, 1, -0.5, 0.4) - ref) <= 1e-12 * abs(ref)


def test_oracle_p2_unit_case_independent_mesh():
    quad = QuadratureSpec(gauss_order=12, graded_mesh_levels=9)
    assert abs(oracle(2, 1, 1, 1, quad=quad) - 1 / 12) < 1e-12


def test_oracle_matches_closed_form_on_random_draws():
    rng = np.random.default_rng(20240817)
    for _ in range(8):
        p = int(rng.integers(1, 3))
        a = rng.uniform(0.2, 3) + 1j * rng.uniform(-0.3, 0.3)
        b = rng.uniform(0.2, 3) + 1j * rng.uniform(-0.3, 0.3)
        g = rng.uniform(0.01, 1.5)
        ref = closed(p, a, b, g)
        val = oracle(p, a, b, g)
        assert abs(val - ref) <= 1e-8 * abs(ref), (p, a, b, g)


def test_oracle_range_guards():
    with pytest.raises(OutOfSupportedRange):
        oracle(3, 1, 1, 1)
    with pytest.raises(OutOfSupportedRange):
        oracle(1, 1, 1, -0.5)
    with pytest.raises(OutOfSupportedRange):
        oracle(2, -0.5, 1, 0.5)
    # integer endpoint exponents beta - 1 = -2 and -1 have no circle rule
    for beta in (-1, 0):
        with pytest.raises(OutOfSupportedRange, match="too close to an integer"):
            oracle(1, 1.3, beta, 0.4)


def test_oracle_p2_range_guards():
    # both real parts <= 0: no end of the symmetric pair can be graded
    with pytest.raises(OutOfSupportedRange, match="Re alpha or Re beta > 0"):
        oracle(2, -0.3, -0.5, 0.25)
    # a graded end with exponent -0.904 needs more than the deepest mesh,
    # whose innermost panel would still hold about 2^-21 of the integral
    with pytest.raises(OutOfSupportedRange, match=r"-0\.904"):
        oracle(2, 0.05, 0.096, 0.25)
    # integer corner exponent 2a + 2g - 1 = -2 at B_2(2/3, -2/3, 1/6)
    with pytest.raises(OutOfSupportedRange, match="too close to an integer"):
        oracle(2, 2 / 3, -2 / 3, 1 / 6)


@pytest.mark.parametrize("a,b,g", [
    (0.05, 1, 0.25),
    (0.0223 + 0.0645j, 2.9717 - 0.1183j, 0.1827 + 0.0764j),
    (0.5, -0.5, 0.25),
])
def test_oracle_p2_near_and_below_zero_exponent(a, b, g):
    # alpha - 1 near -1 at the 0 end, and a negative beta moved there by
    # the alpha <-> beta symmetry: both ends are continued by circles
    ref = closed(2, a, b, g)
    assert abs(oracle(2, a, b, g) - ref) <= 1e-12 * abs(ref)


def _gap(zs, integers):
    """Distance from the nearest of zs to the nearest of integers."""
    return min(abs(z - k) for z in zs for k in integers)


_RE = st.floats(-2.0, 3.0, exclude_min=True, exclude_max=True)
_IM = st.floats(-0.3, 0.3)


@given(p=st.integers(1, 2), re_a=_RE, re_b=_RE, im_a=_IM, im_b=_IM,
       re_g=st.floats(0.0, 1.0), im_g=st.floats(-0.2, 0.2))
@settings(max_examples=80, deadline=None)
def test_oracle_matches_closed_form_sweep(p, re_a, re_b, im_a, im_b, re_g,
                                          im_g):
    # real parts in (-2, 3), and at p = 2 the larger of them at least 0.3
    assume(p == 1 or max(re_a, re_b) >= 0.3)
    a, b, g = complex(re_a, im_a), complex(re_b, im_b), complex(re_g, im_g)
    nonpositive = range(-6, 1)
    # gamma poles, which are also the integer exponents a - 1, b - 1 and
    # 2a + 2g - 1 = -1, -3 of the circled ends
    assume(_gap([a, b] + [a + g, b + g] * (p - 1), nonpositive) > 1e-3)
    # zeros of the closed form, and the integer corner exponents
    # 2a + 2g - 1 = -2, -4 where the closed form is finite and the circle
    # formula divides a vanishing integral by a vanishing winding: the
    # absolute error stays near 1e-13, so the relative error grows as one
    # over the distance (4e-10 at 0.007 from a zero, 3e-11 at 0.05 from
    # both); from 0.1 on, the worst of 7,400 draws was 6.1e-12
    zeros = [a + b] if p == 1 else [a + b + g, a + b + 2 * g]
    assume(_gap(zeros, nonpositive) >= 0.1)
    if p == 2:
        assume(_gap([2 * a + 2 * g - 1, 2 * b + 2 * g - 1], (-2, -4)) >= 0.1)
    ref = closed(p, a, b, g)
    assert abs(oracle(p, a, b, g) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("p,a,b,g", [
    (1, 1.3, -1.5, 0.4),
    (1, 1.3, -1.2 + 0.1j, 0.4),
    (1, 1.3, -2.5, 0.4),
    (1, -2.5, 1, 0.5),
    (1, 1.3, -3.5, 0.4),
])
def test_oracle_circle_below_exponent_minus_two(p, a, b, g):
    # endpoint exponents at or below -2: the endpoint circle continues any
    # non-integer exponent, and on its radius 1/4 t^a stays moderate, which
    # keeps rounding small; t^(-4.5) still reaches 512 there
    tol = 5e-12 if b == -3.5 else 1e-13
    ref = closed(p, a, b, g)
    assert abs(oracle(p, a, b, g) - ref) <= tol * abs(ref)


@pytest.mark.parametrize("a,b,g", [(1.3, -2.5, 0.4), (0.3, -0.7, 0.2)])
def test_oracle_grades_only_toward_reached_endpoints(a, b, g):
    # a circled end is left at radius 1/4, where the integrand is smooth, so
    # only an end the rule reaches is graded for its power; grading toward
    # the circle for an exponent <= -1 charged 4,032 and 5,648 nodes for
    # these two
    val = oracle(1, a, b, g, quad=QuadratureSpec(max_evals=1000))
    ref = closed(1, a, b, g)
    assert abs(val - ref) <= 1e-13 * abs(ref)


def test_oracle_budget_guard():
    with pytest.raises(QuadratureBudgetExceeded):
        oracle(1, 0.5, 0.5, 0.0, quad=QuadratureSpec(max_evals=100))


# ---------------------------------------------------------------------------
# block constants
# ---------------------------------------------------------------------------


def test_block_constant_p1_kappa4():
    # closed form reduces to 4*pi*Gamma(3/4)/Gamma(1/4), real positive:
    # prefactor (2pi) e^{-i pi/4} i, B_1(3/4,-1/2,1/4) = G(3/4)G(-1/2)/G(1/4),
    # root factor (1 - e^{3 pi i/2}) = 1+i; phases cancel, G(-1/2) = -2 sqrt(pi)
    c = block_constant(1, 4, 2)
    ref = 4 * math.pi * math.gamma(0.75) / math.gamma(0.25)
    assert abs(c.value - ref) < 1e-12
    assert abs(c.value.imag) < 1e-13


def test_block_constant_p0_is_i():
    assert abs(block_constant(0, 2, 1).value - 1j) < 1e-15


def test_block_constant_kappa5_values_finite_nonzero():
    for n in (2, 3):
        c = block_constant(1, 5, n)
        assert abs(c.value) > 0.1
    # conjugate-index pair mirrors across the real axis
    c2, c3 = block_constant(1, 5, 2).value, block_constant(1, 5, 3).value
    assert abs(c2 - c3.conjugate()) < 1e-12


def test_block_constant_validation():
    with pytest.raises(ValueError):
        block_constant(1, 3, 1)  # kappa < 2p+2
    with pytest.raises(ValueError):
        block_constant(1, 4, 5)  # n out of range
    with pytest.raises(ValueError):
        BlockConstant(p=2, kappa=4, n=1, value=0j)


def test_block_constant_vanishes_in_dead_range():
    # n = p: denominator gamma pole makes the beta factor 0
    assert block_constant(1, 5, 1).value == 0j


# ---------------------------------------------------------------------------
# quadrature toolkit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("z", [-0.5 + 300j, 0.3 - 400j, -7.2 + 10.5j,
                               -7.2 - 9.5j, 3 + 300j, -40.7 + 12j])
def test_log_gamma_far_off_the_real_axis(z):
    # past |Im z| = 10 the reflection takes log sin(pi z) from its leading
    # exponential, where cmath.sin overflows (beyond |Im z| of about 225)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        err = abs(mpmath.exp(mpmath.mpc(selberg._log_gamma(z)) - ref) - 1)
        assert err <= 1e-14 + 3 * np.finfo(float).eps * abs(ref), float(err)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(gauss_order=4)
    fine = QuadratureSpec().refined()
    assert fine.gauss_order > QuadratureSpec().gauss_order
    # memoised per spec: equal specs share one refined spec
    assert QuadratureSpec().refined() is fine
    assert QuadratureSpec(max_evals=5).refined() == replace(fine, max_evals=5)


def golub_welsch_mp(n, alpha, beta, guesses, dps=30):
    """The Gauss-Jacobi rule of the Jacobi matrix in dps-digit arithmetic:
    its eigenvalues as roots of the characteristic polynomial, by Newton
    from the guesses, and the weights mu0 v0^2 = mu0 / sum_k v_k^2 of the
    eigenvectors v, v_0 = 1, from the matrix rows.  Newton converges
    quadratically from a guess within 1e-15, so two steps suffice; the
    second must be below 1e-25."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        diag, off = [], [mpmath.mpf(0)]
        for k in range(n):
            s = 2 * k + a + b
            diag.append((b - a) / (a + b + 2) if k == 0
                        else (b * b - a * a) / (s * (s + 2)))
            if k:
                off.append(mpmath.sqrt(4 * k * (k + a) * (k + b) * (k + a + b)
                                       / (s * s * (s + 1) * (s - 1))))
        off2 = [o * o for o in off]
        nodes = []
        for x in guesses:
            x = mpmath.mpf(float(x))
            for _ in range(2):
                p0, p, d0, d = 1, x - diag[0], 0, 1
                for k in range(1, n):
                    t = x - diag[k]
                    p0, p, d0, d = (p, t * p - off2[k] * p0,
                                    d, p + t * d - off2[k] * d0)
                step = p / d
                x -= step
            assert abs(step) < 1e-25
            nodes.append(x)
        mu0 = 2 ** (a + b + 1) * mpmath.beta(a + 1, b + 1)
        weights = []
        for x in nodes:
            v0, v, total = 0, 1, 1
            for k in range(n - 1):
                v0, v = v, ((x - diag[k]) * v - off[k] * v0) / off[k + 1]
                total += v * v
            weights.append(mu0 / total)
        return nodes, weights


@pytest.mark.parametrize("n", [32, 44])
def test_gauss_jacobi_matches_an_mpmath_rule(n):
    # the p = 2 corner tails' rules: alpha = 2/kappa, beta = 0
    mpmath = pytest.importorskip("mpmath")
    for kappa in range(6, 21):
        x, w = gauss_jacobi(n, 2.0 / kappa, 0.0)
        nodes, weights = golub_welsch_mp(n, 2.0 / kappa, 0.0, x)
        assert all(b - a > 1e-3 for a, b in zip(nodes, nodes[1:]))
        for xi, wi, node, weight in zip(x, w, nodes, weights):
            assert abs(mpmath.mpf(float(xi)) - node) <= 2e-16
            assert abs(mpmath.mpf(float(wi)) / weight - 1) <= 1e-13
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("n,alpha,beta", [
    (1, 0.2, 0.1), (7, 0.5, -0.3), (20, -0.5, 0.5), (12, -0.5, -0.5),
    (9, -0.3, -0.7), (16, 0.0, 0.0), (32, 1 / 3, 0.0),
    (44, 2 / 9, 0.0), (44, 0.1, 0.0)])
def test_gauss_jacobi_integrates_powers_exactly(n, alpha, beta):
    # int (1-x)^alpha (1+x)^(beta+k) dx = 2^(alpha+beta+k+1)
    # B(alpha+1, beta+k+1), exact for k <= 2n - 1
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_jacobi(n, alpha, beta)
    for k in range(2 * n):
        want = 2 ** mpmath.mpf(alpha + beta + k + 1) * mpmath.beta(
            alpha + 1, beta + k + 1)
        assert abs(np.sum(w * (1.0 + x) ** k) / want - 1) <= 2e-13, k


def test_graded_breakpoints_shape():
    bps = graded_breakpoints(0.0, 1.0, 6, "left")
    assert bps[0] == 0.0 and bps[-1] == 1.0
    assert np.all(np.diff(bps) > 0)
    ratios = np.diff(bps)[1:] / np.diff(bps)[:-1]
    assert np.allclose(ratios[1:], 2.0)  # dyadic growth away from the end
    rps = graded_breakpoints(0.0, 1.0, 6, "right")
    assert np.allclose(rps, 1.0 - bps[::-1])


def test_panel_rule_is_exact_on_polynomials():
    x, w = panel_nodes(0.25, 0.75, 8)
    val = np.sum(w * x ** 7)
    assert abs(val - (0.75 ** 8 - 0.25 ** 8) / 8) < 1e-15


def test_graded_mesh_integrates_endpoint_power():
    # int_0^1 t^(-0.8) dt = 5, integrable but sharp; mesh depth must adapt
    lev = levels_for_exponent(-0.8)
    ts, ws = graded_nodes(0.0, 1.0, lev, 16, "left")
    assert abs(np.sum(ws * ts ** -0.8) - 5.0) < 1e-9


def test_levels_for_exponent_scaling():
    assert levels_for_exponent(-0.9) > levels_for_exponent(-0.5) > 0
    assert levels_for_exponent(3.0) >= 12  # floor


def test_endpoint_loop_matches_series_for_exponential_cofactor():
    # FP int_0^r t^a e^t dt = sum_k r^(a+k+1) / (k! (a+k+1))
    a, r = -1.5, 0.3
    ref = sum(r ** (a + k + 1) / (math.factorial(k) * (a + k + 1))
              for k in range(40))
    val = endpoint_loop_fp(np.exp, a, r, 64)
    assert abs(val - ref) < 1e-12 * abs(ref)
    # and in the classically convergent regime it is the plain integral
    a = 0.5
    ref = sum(r ** (a + k + 1) / (math.factorial(k) * (a + k + 1))
              for k in range(40))
    assert abs(endpoint_loop_fp(np.exp, a, r, 64) - ref) < 1e-12


def test_endpoint_loop_rejects_integer_exponent():
    with pytest.raises(OutOfSupportedRange):
        endpoint_loop_fp(np.exp, -2.0, 0.3, 64)

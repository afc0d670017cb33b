"""Special-function engine checks against independent oracles and exact laws.

Oracles: mpmath's jtheta (arbitrary precision, independent implementation) for
theta1 and its tau-derivative, plus internal consistency laws (heat equations,
quasi-periodicity, modular behaviour) that the implementation does not use
directly.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_selberg import specfun
from elliptic_selberg.errors import (
    BranchAmbiguity,
    NonConvergence,
    OutOfSupportedRange,
    PoleProximity,
)
from elliptic_selberg.specfun import (
    EllipticArgument,
    ModularPoint,
    SeriesTruncation,
    branched_pow,
    continue_log,
    dedekind_eta,
    dedekind_eta_logderiv,
    lattice_distance,
    phi,
    phi_logderiv,
    sigma_and_E,
    theta1,
    theta_level,
)

mpmath = pytest.importorskip("mpmath")

TAUS = [0.9j, 0.6j, 0.3 + 1.0j]
LAMS = [0.13, 0.41, 0.83, 0.27 + 0.15j, -0.55 + 0.4j]


def mp_theta1(lam, tau, dps=30):
    with mpmath.workdps(dps):
        val = mpmath.jtheta(1, mpmath.pi * mpmath.mpmathify(lam),
                            mpmath.exp(1j * mpmath.pi * mpmath.mpmathify(tau)))
        return complex(val)


# ---------------------------------------------------------------------------
# theta1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("lam", LAMS)
def test_theta1_against_mpmath(tau, lam):
    pt = ModularPoint(tau)
    ours = theta1(lam, pt)
    ref = mp_theta1(lam, tau)
    assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("tau", TAUS)
def test_theta1_lambda_derivative_vs_mpmath_difference(tau):
    # central difference of the oracle at high precision
    pt = ModularPoint(tau)
    lam, h = 0.37, 1e-5
    fd = (mp_theta1(lam + h, tau, dps=40) - mp_theta1(lam - h, tau, dps=40)) / (2 * h)
    assert abs(theta1(lam, pt, d_lambda=1) - fd) <= 1e-8


@pytest.mark.parametrize("tau", TAUS)
def test_theta1_tau_derivative_vs_mpmath_difference(tau):
    pt = ModularPoint(tau)
    lam, h = 0.37, 1e-6
    fd = (mp_theta1(lam, tau + h, dps=40) - mp_theta1(lam, tau - h, dps=40)) / (2 * h)
    assert abs(theta1(lam, pt, d_tau=1) - fd) <= 1e-6


@pytest.mark.parametrize("tau", TAUS)
def test_theta1_heat_equation(tau):
    # 4*pi*i * d_tau theta1 = d_lambda^2 theta1, termwise exact
    pt = ModularPoint(tau)
    for lam in (0.13, 0.69, 0.27 + 0.15j):
        lhs = 4j * math.pi * theta1(lam, pt, d_tau=1)
        rhs = theta1(lam, pt, d_lambda=2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("tau", TAUS)
def test_theta1_derivative_at_zero_is_eta_cubed(tau):
    pt = ModularPoint(tau)
    lhs = theta1(0.0, pt, d_lambda=1)
    rhs = 2 * math.pi * dedekind_eta(pt) ** 3
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_theta1_oddness_and_periodicity():
    pt = ModularPoint(0.9j)
    for lam in (0.21, 0.47 + 0.2j):
        assert abs(theta1(-lam, pt) + theta1(lam, pt)) < 1e-14
        assert abs(theta1(lam + 1, pt) + theta1(lam, pt)) < 1e-13
        # quasi-periodicity in tau direction
        shift = -cmath.exp(-1j * cmath.pi * (2 * lam + pt.tau)) * theta1(lam, pt)
        assert abs(theta1(lam + pt.tau, pt) - shift) < 1e-12 * max(1, abs(shift))


def test_theta1_derivative_order_guard():
    pt = ModularPoint(0.9j)
    with pytest.raises(ValueError):
        theta1(0.3, pt, d_lambda=2, d_tau=1)
    with pytest.raises(ValueError):
        theta1(0.3, pt, d_lambda=-1)


def test_nonconvergence_when_budget_too_small():
    trunc = SeriesTruncation(tail_tolerance=1e-15, max_terms=8)
    with pytest.raises(NonConvergence):
        theta1(0.3, ModularPoint(0.005j), trunc=trunc)


# ---------------------------------------------------------------------------
# level-kappa theta family
# ---------------------------------------------------------------------------

LEVEL_CASES = [(2, 1), (4, 0), (4, 3), (5, 2), (6, 1), (6, 5)]


@pytest.mark.parametrize("kappa,n", LEVEL_CASES)
@pytest.mark.parametrize("tau", [0.9j, 0.3 + 1.0j])
def test_theta_level_translations(kappa, n, tau):
    pt = ModularPoint(tau)
    lam = 0.29
    base = theta_level(kappa, n, lam, pt)
    assert abs(theta_level(kappa, n, lam + 1, pt) - (-1) ** n * base) < 1e-12 * abs(base)
    lhs = theta_level(kappa, n, lam + tau, pt)
    rhs = cmath.exp(-1j * cmath.pi * kappa * (lam + tau / 2)) * theta_level(
        kappa, n + kappa, lam, pt)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("kappa,n", LEVEL_CASES)
def test_theta_level_index_reflection_and_period(kappa, n):
    pt = ModularPoint(0.8j)
    lam = 0.33
    assert abs(theta_level(kappa, n, -lam, pt)
               - theta_level(kappa, -n, lam, pt)) < 1e-14
    assert abs(theta_level(kappa, n + 2 * kappa, lam, pt)
               - theta_level(kappa, n, lam, pt)) == 0.0


@pytest.mark.parametrize("kappa,n", LEVEL_CASES)
def test_theta_level_heat_equation(kappa, n):
    # 2*pi*i*kappa * d_tau theta = d_lambda^2 theta
    pt = ModularPoint(0.7j)
    lam = 0.41
    lhs = 2j * math.pi * kappa * theta_level(kappa, n, lam, pt, d_tau=1)
    rhs = theta_level(kappa, n, lam, pt, d_lambda=2)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("kappa,n", [(2, 1), (4, 0), (4, 3), (5, 2), (6, 1)])
@pytest.mark.parametrize("tau", [1j, 0.8j])
def test_theta_level_modular_inversion(kappa, n, tau):
    # theta_{k,n}(lam/tau, -1/tau) expands over the dual family at (lam, tau)
    pt = ModularPoint(tau)
    lam = 0.31
    lhs = theta_level(kappa, n, lam / tau, ModularPoint(-1 / tau))
    pref = cmath.sqrt(-1j * tau / (2 * kappa)) * cmath.exp(
        1j * cmath.pi * kappa * lam ** 2 / (2 * tau))
    rhs = pref * sum(
        cmath.exp(-1j * cmath.pi * m * n / kappa) * theta_level(kappa, m, lam, pt)
        for m in range(2 * kappa))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_theta_level_symmetrized_and_derivative_sign():
    pt = ModularPoint(0.9j)
    kappa, n, lam = 4, 1, 0.37
    sym = theta_level(kappa, n, lam, pt, symmetrized=True)
    expected = theta_level(kappa, n, lam, pt) + theta_level(kappa, n, -lam, pt)
    assert abs(sym - expected) < 1e-14
    dsym = theta_level(kappa, n, lam, pt, d_lambda=1, symmetrized=True)
    expected = (theta_level(kappa, n, lam, pt, d_lambda=1)
                - theta_level(kappa, n, -lam, pt, d_lambda=1))
    assert abs(dsym - expected) < 1e-14


def test_theta_level_tau_derivative_vs_finite_difference():
    kappa, n, lam, tau, h = 5, 2, 0.23, 0.85j, 1e-6
    d = theta_level(kappa, n, lam, ModularPoint(tau), d_tau=1)
    fd = (theta_level(kappa, n, lam, ModularPoint(tau + h))
          - theta_level(kappa, n, lam, ModularPoint(tau - h))) / (2 * h)
    assert abs(d - fd) <= 1e-7


# ---------------------------------------------------------------------------
# array kernels against mpmath and brute-force lattice sums
# ---------------------------------------------------------------------------


def mp_theta1_terms(lam, tau, d_lambda, d_tau, terms=80):
    """theta1 from its sine series in mpmath, and the rounding scale of that
    sum: each |term| with |sin z| replaced by its size exp(|Im z|)."""
    with mpmath.workdps(30):
        lam, tau = mpmath.mpmathify(lam), mpmath.mpmathify(tau)
        total, scale = mpmath.mpc(0), mpmath.mpf(0)
        for j in range(terms):
            half = j + mpmath.mpf(1) / 2
            coef = (2 * (-1) ** j * mpmath.exp(1j * mpmath.pi * tau * half ** 2)
                    * ((2 * j + 1) * mpmath.pi) ** d_lambda
                    * (1j * mpmath.pi * half ** 2) ** d_tau)
            arg = (2 * j + 1) * mpmath.pi * lam
            total += coef * mpmath.sin(arg + d_lambda * mpmath.pi / 2)
            scale += abs(coef) * mpmath.exp(abs(arg.imag))
        return complex(total), float(scale)


def mp_theta1_jtheta(lam, tau, d_lambda, d_tau):
    """theta1 derivatives from mpmath.jtheta; d/dtau = (1/(4 pi i)) d^2/dlam^2."""
    with mpmath.workdps(30):
        z = mpmath.pi * mpmath.mpmathify(lam)
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpmathify(tau))
        order = d_lambda + 2 * d_tau
        val = mpmath.pi ** order * mpmath.jtheta(1, z, q, order)
        return complex(val / (4j * mpmath.pi) ** d_tau)


def mp_theta_level_terms(kappa, n, lam, tau, d_lambda, d_tau, shells=40):
    """Brute-force lattice sum of theta_level and the sum of |terms|, in mpmath."""
    with mpmath.workdps(30):
        lam, tau = mpmath.mpmathify(lam), mpmath.mpmathify(tau)
        c = mpmath.mpf(n % (2 * kappa)) / (2 * kappa)
        total, scale = mpmath.mpc(0), mpmath.mpf(0)
        for j in range(-shells, shells + 1):
            m = j + c
            term = (mpmath.exp(2j * mpmath.pi * kappa * m * m * tau
                               + 2j * mpmath.pi * kappa * m * lam)
                    * (2j * mpmath.pi * kappa * m) ** d_lambda
                    * (2j * mpmath.pi * kappa * m * m) ** d_tau)
            total += term
            scale += abs(term)
        return complex(total), float(scale)


def kernel_points(tau_im, fracs):
    """Real points in [-1, 1] and purely imaginary ones with |Im lam| <= Im tau,
    the segment the S move evaluates on."""
    return np.array([2 * f - 1 for f in fracs]
                    + [1j * tau_im * (2 * f - 1) for f in fracs], dtype=complex)


KERNEL_TAUS = dict(tau_im=st.floats(0.05, 2.0), tau_re=st.sampled_from([0.0, 1.0]),
                   fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))


@given(d_lambda=st.integers(0, 2), d_tau=st.integers(0, 1), **KERNEL_TAUS)
@settings(max_examples=40, deadline=None)
def test_theta1_array_kernel_against_mpmath(tau_im, tau_re, fracs, d_lambda, d_tau):
    tau = complex(tau_re, tau_im)
    lams = kernel_points(tau_im, fracs)
    ours = specfun._theta1_array(lams, tau, d_lambda, d_tau)
    assert ours.shape == lams.shape
    for lam, got in zip(lams, ours):
        series, scale = mp_theta1_terms(lam, tau, d_lambda, d_tau)
        assert abs(series - mp_theta1_jtheta(lam, tau, d_lambda, d_tau)) <= 1e-20 * max(1, scale)
        assert abs(got - series) <= 1e-13 * scale


@given(kappa=st.integers(1, 8), n=st.integers(-20, 20), d_lambda=st.integers(0, 2),
       d_tau=st.integers(0, 1), **KERNEL_TAUS)
@settings(max_examples=40, deadline=None)
def test_theta_level_array_kernel_against_lattice_sum(kappa, n, tau_im, tau_re, fracs,
                                                      d_lambda, d_tau):
    tau = complex(tau_re, tau_im)
    lams = kernel_points(tau_im, fracs)
    ours = specfun._theta_level_array(kappa, n, lams, tau, d_lambda, d_tau)
    assert ours.shape == lams.shape
    for lam, got in zip(lams, ours):
        want, scale = mp_theta_level_terms(kappa, n, lam, tau, d_lambda, d_tau)
        assert abs(got - want) <= 1e-13 * max(scale, 1e-300)


def test_kernels_raise_when_the_term_count_exceeds_max_terms():
    trunc = SeriesTruncation(max_terms=600)
    # tiny Im tau: the Gaussian decay needs over a thousand terms
    with pytest.raises(NonConvergence):
        specfun._theta1_array(np.array([0.3]), 1e-5j, trunc=trunc)
    with pytest.raises(NonConvergence):
        specfun._theta_level_array(2, 1, np.array([0.3]), 1e-6j, trunc=trunc)
    # a large |Im lam| anywhere in the array moves the peak term past
    # max_terms (to j ~ |Im lam| / Im tau, and half that for level 2)
    short = SeriesTruncation(max_terms=8)
    lams = np.array([0.3, 0.3 + 6j])
    with pytest.raises(NonConvergence):
        specfun._theta1_array(lams, 0.5j, trunc=short)
    with pytest.raises(NonConvergence):
        specfun._theta_level_array(2, 1, lams, 0.5j, trunc=short)
    # the same count suffices on the real line
    assert np.isfinite(specfun._theta1_array(lams[:1], 0.5j, trunc=short)).all()
    assert np.isfinite(specfun._theta_level_array(2, 1, lams[:1], 0.5j, trunc=short)).all()


def test_kernels_refuse_terms_beyond_the_double_range():
    # the count stays within max_terms here, but the peak term overflows
    with pytest.raises(OutOfSupportedRange):
        specfun._theta1_array(np.array([0.3, 0.3 + 20j]), 0.05j)
    with pytest.raises(OutOfSupportedRange):
        specfun._theta_level_array(2, 1, np.array([0.3, 0.3 + 40j]), 0.05j)


# ---------------------------------------------------------------------------
# eta and the phi triple
# ---------------------------------------------------------------------------


def test_eta_against_mpmath():
    for tau in TAUS:
        with mpmath.workdps(30):
            ref = complex(mpmath.qp(mpmath.exp(2j * mpmath.pi * tau))
                          * mpmath.exp(2j * mpmath.pi * tau / 24))
        ours = dedekind_eta(ModularPoint(tau))
        assert abs(ours - ref) <= 1e-13 * abs(ref)


def test_eta_logderiv_vs_finite_difference():
    tau, h = 0.75j, 1e-6
    d = dedekind_eta_logderiv(ModularPoint(tau))
    fd = (cmath.log(dedekind_eta(ModularPoint(tau + h)))
          - cmath.log(dedekind_eta(ModularPoint(tau - h)))) / (2 * h)
    assert abs(d - fd) <= 1e-7


def test_phi_product_is_sqrt2():
    for tau in (1j, 0.9j, 0.3 + 1.0j):
        pt = ModularPoint(tau)
        prod = phi(1, pt) * phi(2, pt) * phi(3, pt)
        assert abs(prod - math.sqrt(2)) <= 1e-13


@pytest.mark.parametrize("tau", [1j, 0.8j])
def test_phi_modular_inversion_rules(tau):
    inv = ModularPoint(-1 / tau)
    pt = ModularPoint(tau)
    assert abs(phi(1, inv) - phi(1, pt)) < 1e-13
    assert abs(phi(2, inv) - phi(3, pt)) < 1e-13
    assert abs(phi(3, inv) - phi(2, pt)) < 1e-13


@pytest.mark.parametrize("tau", [0.9j, 0.6j])
def test_phi_translation_rules(tau):
    pt = ModularPoint(tau)
    sh = ModularPoint(tau + 1)
    w = cmath.exp(-1j * cmath.pi / 24)
    assert abs(phi(1, sh) - w * phi(2, pt)) < 1e-13
    assert abs(phi(2, sh) - w * phi(1, pt)) < 1e-13
    assert abs(phi(3, sh) - cmath.exp(1j * cmath.pi / 12) * phi(3, pt)) < 1e-13


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_phi_logderiv_vs_finite_difference(kind):
    tau, h = 0.85j, 1e-6
    d = phi_logderiv(kind, ModularPoint(tau))
    fd = (cmath.log(phi(kind, ModularPoint(tau + h)))
          - cmath.log(phi(kind, ModularPoint(tau - h)))) / (2 * h)
    assert abs(d - fd) <= 1e-7


def test_phi_kind_guard():
    with pytest.raises(ValueError):
        phi(4, ModularPoint(1j))


# ---------------------------------------------------------------------------
# sigma / E kernel
# ---------------------------------------------------------------------------


def test_sigma_small_t_limit():
    # t*sigma_lam(t) -> 1 and E(t)/t -> 1 as t -> 0
    pt = ModularPoint(0.9j)
    lam = 0.31
    for t in (1e-4, 1e-5):
        se = sigma_and_E(lam, t, pt)
        assert abs(t * se.sigma - 1) < 5e-4
        assert abs(se.E / t - 1) < 5e-4


def test_sigma_shift_symmetries():
    pt = ModularPoint(0.9j)
    lam, t = 0.31, 0.27
    a = sigma_and_E(lam, t, pt)
    b = sigma_and_E(lam, t + 1, pt)
    assert abs(a.sigma - b.sigma) < 1e-12 * abs(a.sigma)
    # E(1-t) = E(t) and sigma_lam(1-s) = sigma_lam(-s)
    c = sigma_and_E(lam, 1 - t, pt)
    d = sigma_and_E(lam, -t, pt)
    assert abs(c.E - a.E) < 1e-13
    assert abs(c.sigma - d.sigma) < 1e-12 * abs(c.sigma)


def test_E_is_positive_on_unit_interval_for_imaginary_tau():
    pt = ModularPoint(0.7j)
    for t in np.linspace(0.05, 0.95, 19):
        se = sigma_and_E(0.4, float(t), pt)
        assert abs(se.E.imag) < 1e-14
        assert se.E.real > 0


def test_rho_is_logarithmic_derivative():
    pt = ModularPoint(0.8j)
    lam, h = 0.37, 1e-6
    se = sigma_and_E(lam, 0.2, pt)
    fd = (cmath.log(theta1(lam + h, pt)) - cmath.log(theta1(lam - h, pt))) / (2 * h)
    assert abs(se.rho - fd) < 1e-7
    fd2 = (theta1(lam + h, pt, d_lambda=1) / theta1(lam + h, pt)
           - theta1(lam - h, pt, d_lambda=1) / theta1(lam - h, pt)) / (2 * h)
    assert abs(se.rho_prime - fd2) < 1e-6


def test_sigma_pole_proximity_guard():
    pt = ModularPoint(0.9j)
    with pytest.raises(PoleProximity):
        sigma_and_E(0.5, 1e-9, pt)
    with pytest.raises(PoleProximity):
        sigma_and_E(1e-9, 0.2, pt)


# ---------------------------------------------------------------------------
# lattice distance, arguments, branch tracking
# ---------------------------------------------------------------------------


def test_lattice_distance_examples():
    tau = 0.9j
    assert lattice_distance(0.0, tau) == 0.0
    assert abs(lattice_distance(0.5, tau) - 0.5) < 1e-15
    assert abs(lattice_distance(1.0 + 0.9j, tau)) < 1e-12
    assert abs(lattice_distance(0.3, tau) - 0.3) < 1e-15


@given(a=st.integers(-3, 3), b=st.integers(-3, 3),
       eps=st.floats(-0.04, 0.04), tau_im=st.floats(0.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_lattice_distance_translation_invariance(a, b, eps, tau_im):
    tau = 1j * tau_im
    lam = 0.23 + eps
    d0 = lattice_distance(lam, tau)
    d1 = lattice_distance(lam + a + b * tau, tau)
    assert abs(d0 - d1) < 1e-9


@given(tau_re=st.floats(-3, 3), tau_im=st.floats(0.05, 0.5),
       lam_re=st.floats(-2, 2), lam_im=st.floats(-1, 1))
@settings(max_examples=200, deadline=None)
def test_lattice_distance_matches_brute_force_on_skewed_lattices(tau_re, tau_im,
                                                                 lam_re, lam_im):
    tau, lam = complex(tau_re, tau_im), complex(lam_re, lam_im)
    m, n = np.meshgrid(np.arange(-60, 61), np.arange(-30, 31))
    brute = float(np.min(np.abs(lam - (m + n * tau))))
    assert abs(lattice_distance(lam, tau) - brute) <= 1e-12 * max(1.0, brute)


def test_elliptic_argument_guard():
    pt = ModularPoint(0.9j)
    arg = EllipticArgument.from_lambda(1.0 + 1e-9, pt)
    with pytest.raises(PoleProximity):
        arg.require_off_lattice(1e-6, "test point")
    ok = EllipticArgument.from_lambda(0.3, pt)
    ok.require_off_lattice(1e-6, "test point")


def test_continue_log_tracks_winding():
    # one full counterclockwise loop of the unit circle: log gains 2*pi*i
    th = np.linspace(0.0, 2 * np.pi, 200)
    vals = np.exp(1j * th)
    logs = continue_log(vals)
    assert abs(logs[0]) < 1e-12
    assert abs(logs[-1] - 2j * np.pi) < 1e-10


def test_continue_log_rejects_jumps_and_zero():
    with pytest.raises(BranchAmbiguity):
        continue_log(np.array([1.0 + 0j, -1.0 + 0j]))
    with pytest.raises(BranchAmbiguity):
        continue_log(np.array([1.0 + 0j, 0.0 + 0j]))


def _continue_log_loop(values):
    """The step-by-step continuation continue_log replaced, as a reference."""
    vals = np.asarray(values, dtype=complex)
    if np.any(vals == 0):
        raise BranchAmbiguity("branch tracking hit an exact zero")
    logs = np.empty(len(vals), dtype=complex)
    logs[0] = cmath.log(vals[0])
    for k in range(1, len(vals)):
        step = cmath.phase(complex(vals[k] / vals[k - 1]))
        if abs(step) >= math.pi * (1.0 - 1e-12):
            raise BranchAmbiguity(
                f"consecutive path values subtend {abs(step):.6f} rad at index {k}; "
                "refine the path"
            )
        logs[k] = logs[k - 1] + math.log(abs(vals[k] / vals[k - 1])) + 1j * step
    return logs


def _wrapping_path(seed, length, turn, spread):
    """A path whose argument turns by up to +-turn (< pi) per step, so it
    winds around the origin many times; moduli spread over e^(+-spread)."""
    rng = np.random.default_rng(seed)
    args = rng.uniform(-math.pi, math.pi) + np.cumsum(rng.uniform(-turn, turn, length))
    return np.exp(spread * rng.standard_normal(length) + 1j * args)


@given(st.integers(0, 2**32 - 1), st.integers(2, 2000), st.floats(0.05, 3.0),
       st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_continue_log_matches_the_stepwise_loop(seed, length, turn, spread):
    vals = _wrapping_path(seed, length, turn, spread)
    want = _continue_log_loop(vals)
    got = continue_log(vals)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@given(st.integers(0, 2**32 - 1), st.integers(2, 2000), st.data())
@settings(max_examples=40, deadline=None)
def test_continue_log_names_the_first_half_turn(seed, length, data):
    vals = _wrapping_path(seed, length, 2.5, 1.0)
    bad = sorted(data.draw(st.sets(st.integers(1, length - 1), min_size=1,
                                   max_size=3)))
    for k in bad:
        vals[k] = -vals[k - 1] * data.draw(st.floats(0.1, 10.0))
    with pytest.raises(BranchAmbiguity) as want:
        _continue_log_loop(vals)
    with pytest.raises(BranchAmbiguity) as got:
        continue_log(vals)
    assert f"at index {bad[0]};" in str(want.value)
    assert f"at index {bad[0]};" in str(got.value)
    vals[data.draw(st.integers(0, length - 1))] = 0.0
    with pytest.raises(BranchAmbiguity, match="exact zero"):
        continue_log(vals)


def test_branched_pow_continuity_and_monodromy():
    th = np.linspace(0.0, 2 * np.pi, 400)
    vals = np.exp(1j * th)
    bp = branched_pow(vals, -0.5)
    # continuous branch: end value is e^{-pi i}, not the principal 1
    assert abs(bp.values[-1] - cmath.exp(-1j * cmath.pi)) < 1e-9
    steps = np.abs(np.diff(bp.values))
    assert steps.max() < 0.1


@given(st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_branched_pow_matches_principal_on_positive_reals(expo):
    vals = np.linspace(0.5, 2.0, 7).astype(complex)
    bp = branched_pow(vals, expo)
    assert np.allclose(bp.values, vals.real ** expo, rtol=1e-12)


def test_modular_point_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        ModularPoint(-0.5j)
    with pytest.raises(ValueError):
        ModularPoint(0.7)

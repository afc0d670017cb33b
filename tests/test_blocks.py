"""Regularized simplex integrals: closed-form cross-checks at small fold
counts, lattice-shift covariance, dead indices, and the guard rails."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_selberg import blocks, specfun
from elliptic_selberg.blocks import (
    BlockIndex,
    j_integral,
    leading_term_constant,
    u_block,
)
from elliptic_selberg.errors import (
    OutOfSupportedRange,
    PoleProximity,
    QuadratureBudgetExceeded,
    UnsupportedP,
)
from elliptic_selberg.quadrature import QuadratureSpec, loop_winding
from elliptic_selberg.selberg import block_constant
from elliptic_selberg.specfun import (
    ModularPoint,
    dedekind_eta,
    phi,
    theta1,
    theta_level,
)

PT = ModularPoint(0.9j)
LAM = 0.3


# ---------------------------------------------------------------------------
# index bookkeeping
# ---------------------------------------------------------------------------


def test_index_validation():
    with pytest.raises(ValueError):
        BlockIndex(-1, 4, 2)
    with pytest.raises(ValueError):
        BlockIndex(2, 5, 2)  # kappa below 2p + 2
    assert BlockIndex(1, 5, -2).reduced_n == 8
    assert BlockIndex(1, 5, 12).reduced_n == 2


def test_p0_is_a_plain_theta_and_u_is_its_odd_part():
    idx = BlockIndex(0, 3, 1)
    got = j_integral(idx, LAM, PT)
    assert got.value == theta_level(3, 1, LAM, PT)
    assert got.error_estimate == 0.0
    u = u_block(idx, LAM, PT).value
    want = theta_level(3, 1, LAM, PT) - theta_level(3, 1, -LAM, PT)
    assert abs(u - want) < 1e-15


# ---------------------------------------------------------------------------
# single integral against the closed form
# ---------------------------------------------------------------------------


def test_single_fold_block_matches_closed_form_contour():
    # the endpoint circle (contour) is the only p = 1 continuation
    u = u_block(BlockIndex(1, 4, 2), LAM, PT)
    want = block_constant(1, 4, 2).value * theta1(LAM, PT) ** 2
    assert abs(u.value - want) / abs(want) < 1e-12
    assert u.error_estimate < 1e-10


@pytest.mark.parametrize("tau", [0.04j, 1 + 0.04j])
def test_single_fold_circle_excludes_other_theta_zeros(tau):
    # the shortest period |tau| = 0.04 is below the endpoint window 0.1: an
    # endpoint circle of radius 0.05 would enclose the zero of theta1 at
    # t = tau and give a wrong value with a small error estimate
    pt = ModularPoint(tau)
    u = u_block(BlockIndex(1, 4, 2), LAM, pt)
    want = block_constant(1, 4, 2).value * theta1(LAM, pt) ** 2
    assert abs(u.value - want) <= 1e-8 * abs(want)
    assert u.error_estimate <= 1e-6 * abs(want)


def test_single_fold_regression_value():
    # frozen from a converged run; guards against silent quadrature drift
    u = u_block(BlockIndex(1, 5, 2), LAM, PT)
    want = 3.8476411489689966 - 1.2501743933430465j
    assert abs(u.value - want) < 1e-9 * abs(want)


# Values and per-sign budgets recorded from the endpoint-circle p = 1
# quadrature that computed J(lam) and J(-lam) in separate passes: the coarse
# default spec, then its refined() spec, at lam and then at -lam.  tau = 1 + i
# is the T-transform input; at tau = 0.3 + 0.4i the argument of E varies
# along the middle path; lambda = -0.3i at tau = i is an S-transform input.
# The tau values alternate, so tables cached under a key that missed tau
# would be reused at the wrong tau.
P1_PINNED = [
    (0.9j, 4, 2, 0.3,
     (1.3487341095779506 - 1.7411719926494376j, 2305),
     (1.3487341095779506 - 1.7411719926494382j, 4657),
     (1.3487341095779528 + 1.7411719926494367j, 2305),
     (1.3487341095779533 + 1.7411719926494367j, 4657)),
    (1 + 1j, 4, 2, 0.3,
     (1.4848487640996109 + 1.1541171645608874j, 2305),
     (1.4848487640996162 + 1.1541171645608874j, 4657),
     (-1.4848487640996102 + 1.1541171645608892j, 2305),
     (-1.4848487640996157 + 1.1541171645608892j, 4657)),
    (0.9j, 5, 3, 0.3,
     (0.5658831286847448 + 0.13419349606937386j, 2305),
     (0.5658831286847448 + 0.1341934960693735j, 4657),
     (0.5366860258791692 + 0.22405293870730603j, 2305),
     (0.5366860258791695 + 0.22405293870730592j, 4657)),
    (0.3 + 0.4j, 4, 2, 0.3,
     (4.713975379558706 - 1.8442021159791389j, 2305),
     (4.7139753795587005 - 1.8442021159791304j, 4657),
     (0.8208693778069087 + 4.274173472183749j, 2305),
     (0.8208693778069143 + 4.274173472183742j, 4657)),
    (1j, 5, 2, -0.3j,
     (-5.398546673663372 + 1.7540941453058636j, 2305),
     (-5.398546673663393 + 1.7540941453058778j, 4657),
     (-0.6585255313691478 + 0.21396791561407658j, 2305),
     (-0.6585255313691478 + 0.2139679156140767j, 4657)),
]


def test_one_fold_values_are_pinned():
    # one p = 1 pass gives the pair (J(lam), J(-lam)) and charges both signs
    quad = QuadratureSpec()
    for tau, kappa, n, lam, c_plus, f_plus, c_minus, f_minus in P1_PINNED:
        for spec, pinned in ((quad, (c_plus, c_minus)),
                             (quad.refined(), (f_plus, f_minus))):
            got, budget = blocks._one_value(BlockIndex(1, kappa, n),
                                            complex(lam), ModularPoint(tau), spec)
            for value, (want, _) in zip(got, pinned):
                assert abs(value - want) <= 1e-13 * abs(want), (tau, kappa, n)
            assert budget.used == sum(charge for _, charge in pinned)


# The theta kernels and the position of the argument whose size counts as
# their points: the two array kernels and the scalar functions
KERNEL_ARGS = {"_theta1_array": 0, "_theta_level_array": 2, "theta1": 0,
               "theta_level": 2}


def _count_kernels(monkeypatch) -> tuple:
    """Count the calls and points that reach the theta kernels from now on."""
    calls, points = dict.fromkeys(KERNEL_ARGS, 0), dict.fromkeys(KERNEL_ARGS, 0)
    for name, arg in KERNEL_ARGS.items():
        kernel = getattr(specfun, name)

        def counting(*args, _name=name, _arg=arg, _kernel=kernel, **kwargs):
            calls[_name] += 1
            points[_name] += np.size(args[_arg])
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(specfun, name, counting)
    return calls, points


# Only the divisor theta1(+-lam) of a pass reaches a theta kernel once its
# tables are cached: two points in one array-kernel call
WARM_PASS = ({"_theta1_array": 1, "_theta_level_array": 0, "theta1": 0,
              "theta_level": 0},
             {"_theta1_array": 2, "_theta_level_array": 0, "theta1": 0,
              "theta_level": 0})


def test_one_fold_work_is_tabulated(monkeypatch):
    # a warm p = 1 pass contracts its cached moment table with phases in
    # lambda and takes the divisor theta1(+-lam) from the array kernel; a
    # different budget cap reuses the tables
    idx, lam, spec = BlockIndex(1, 4, 2), complex(LAM), QuadratureSpec()
    blocks._one_value(idx, lam, PT, spec)
    builds = blocks._p1_moments.cache_info().misses
    calls, points = _count_kernels(monkeypatch)
    blocks._one_value(idx, lam, PT, QuadratureSpec(max_evals=100_000_000))
    assert (calls, points) == WARM_PASS
    assert blocks._p1_moments.cache_info().misses == builds


def test_one_fold_u_block_is_two_passes(monkeypatch):
    # a warm p = 1 u_block is a coarse and a refined pass, each giving both
    # J(lam) and J(-lam); the two passes share one divisor call
    idx = BlockIndex(1, 5, 2)
    u_block(idx, LAM, PT)
    calls, points = _count_kernels(monkeypatch)
    u_block(idx, 0.41, PT)
    assert calls["_theta1_array"] == 1 and points["_theta1_array"] == 2
    assert calls["_theta_level_array"] == calls["theta1"] == 0


@pytest.mark.parametrize("p,kappa,n", [(1, 5, 2), (2, 8, 4)])
def test_a_warm_u_block_counts_no_series_terms(monkeypatch, p, kappa, n):
    # every real lambda needs the term counts of the last one, and the
    # memoised coefficient helpers already hold them
    u_block(BlockIndex(p, kappa, n), LAM, PT)
    counts = []
    term_count = specfun._term_count
    monkeypatch.setattr(specfun, "_term_count",
                        lambda *args: counts.append(args) or term_count(*args))
    u_block(BlockIndex(p, kappa, n), 0.41, PT)
    assert counts == []


@pytest.mark.parametrize("p,kappa,n,tau,lam,phase_sets", [
    (1, 5, 2, 0.9j, 0.41, 1),
    (1, 6, 3, 0.9j, 0.3 + 0.2j, 1),
    (1, 4, 1, 0.3 + 1.1j, 0.27 - 0.25j, 1),
    # the refined circle reaches a little further off the real axis, and at
    # this Im lam its theta1 series needs one more term than the coarse one
    (1, 5, 2, 0.9j, 0.3 + 0.039818j, 2),
    (2, 8, 4, 0.9j, 0.41, 1),
])
def test_u_block_shares_its_lambda_side_bit_for_bit(monkeypatch, p, kappa, n,
                                                    tau, lam, phase_sets):
    # one divisor call, and one set of phases per distinct term counts,
    # serve the coarse and the refined pass of a u_block, which give exactly
    # the values, estimate and budget of the two passes made one at a time
    idx, pt, quad = BlockIndex(p, kappa, n), ModularPoint(tau), QuadratureSpec()
    u_block(idx, lam, pt)
    calls, phases = [], blocks._phases
    monkeypatch.setattr(blocks, "_phases",
                        lambda *args: calls.append(args) or phases(*args))
    got = u_block(idx, lam, pt)
    # a set is (J(lam), J(-lam)) at p = 1 and the four half-shape rows at p = 2
    assert len(calls) == phase_sets * 2 * p
    (c_plus, c_minus), coarse = blocks._one_value(idx, complex(lam), pt, quad)
    (plus, minus), fine = blocks._one_value(idx, complex(lam), pt,
                                            quad.refined())
    assert got.value == plus + (-1) ** (p + 1) * minus
    assert got.error_estimate == abs(plus - c_plus) + abs(minus - c_minus)
    assert got.budget_used == coarse.used + fine.used


@pytest.mark.parametrize("p,kappa,n", [(1, 5, 2), (2, 8, 4)])
def test_a_lambda_grid_builds_each_moment_table_once(p, kappa, n):
    # every real lambda has the same term counts, so the six points of the
    # default grid share one moment table per spec (coarse and refined)
    moments = blocks._p1_moments if p == 1 else blocks._p2_moments
    moments.cache_clear()
    for lam in (0.13, 0.27, 0.41, 0.55, 0.69, 0.83):
        u_block(BlockIndex(p, kappa, n), lam, PT)
    assert moments.cache_info().misses == 2
    assert moments.cache_info().hits == 10


# ---------------------------------------------------------------------------
# the moment pass against a brute-force sum on the same tables
# ---------------------------------------------------------------------------


def theta1_scale(z, tau):
    """Sum over the sine series' terms of their bound |coef_j| cosh((2j+1)
    pi Im z), at as many terms as the kernels take for z."""
    z = np.asarray(z, dtype=complex)
    coefs = np.abs(specfun._theta1_coefs(tau, float(np.max(np.abs(z.imag)))))
    orders = 2 * np.arange(coefs.size) + 1
    return np.cosh(math.pi * np.multiply.outer(np.abs(z.imag), orders)) @ coefs


def level_scale(kappa, n, z, tau):
    """Sum over the lattice sum's terms m = n/(2 kappa) + j, |j| <= 12, of
    |exp(2 pi i kappa (m^2 tau + m z))|."""
    m = (n % (2 * kappa)) / (2 * kappa) + np.arange(-12, 13)
    expo = 2j * math.pi * kappa * (m * m * tau + np.multiply.outer(z, m))
    return np.sum(np.abs(np.exp(expo)), axis=-1)


def one_fold_brute(kappa, n, mu, tau, spec):
    """J(mu) summed node by node on the p = 1 tables with the array kernels
    at the sections' own arguments, and the sum of |terms|."""
    circle, middle, _ = blocks._p1_tables(tau, spec.gauss_order,
                                          spec.graded_mesh_levels,
                                          spec.loop_nodes)
    b, g = -2.0 / kappa, 2.0 / kappa
    div = abs(theta1(mu, ModularPoint(tau)))
    value, scale = 0j, 0.0
    for rule, flip, offset in ((circle, 1, 0), (circle, -1, 1), (middle, 1, 0)):
        w = flip * rule.weights * np.exp(b * rule.logs)
        w[:rule.n_loop] /= loop_winding(b - 1.0)
        th_arg, lev_arg = mu - flip * rule.nodes, mu + g * (offset + flip * rule.nodes)
        value += np.sum(w * specfun._theta1_array(th_arg, tau)
                        * specfun._theta_level_array(kappa, n, lev_arg, tau))
        scale += np.sum(np.abs(w) * theta1_scale(th_arg, tau)
                        * level_scale(kappa, n, lev_arg, tau))
    return value / theta1(mu, ModularPoint(tau)), scale / div


@given(kappa=st.integers(4, 12), n=st.integers(0, 23),
       tau_re=st.floats(-0.5, 0.5), tau_im=st.floats(0.5, 1.5),
       lam_re=st.floats(0.05, 0.95), lam_frac=st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_one_fold_moment_pass_matches_brute_force(kappa, n, tau_re, tau_im,
                                                  lam_re, lam_frac):
    # real and complex lambda, |Im lam| <= 0.3 Im tau, over random (kappa, n)
    tau, spec = complex(tau_re, tau_im), QuadratureSpec(max_evals=0)
    lam = complex(lam_re, 0.3 * tau_im * lam_frac)
    (got,) = blocks._j_p1(BlockIndex(1, kappa, n), lam, ModularPoint(tau), [(
        spec.gauss_order, spec.graded_mesh_levels, spec.loop_nodes)],
        [blocks.EvalBudget(10 ** 9)])
    for value, mu in zip(got, (lam, -lam)):
        want, scale = one_fold_brute(kappa, n, mu, tau, spec)
        assert abs(value - want) <= 1e-13 * scale, (value, want, scale)


# a small rule shape: the brute-force sum evaluates every (x, xi) point
SMALL = (8, 3, 16)


def two_fold_brute(idx, lam, tau):
    """The rows of blocks._p2_rows summed point by point on the p = 2
    section weights with the array kernels, theta1 at -sigma s lam + y and
    at -sigma flip s lam + x, and each column's sum of |terms|."""
    kappa, n = idx.kappa, idx.reduced_n
    b, g = -4.0 / kappa, 2.0 / kappa
    wind = loop_winding(b - 1.0)
    div = theta1(lam, ModularPoint(tau)) ** 2
    rows, scales = np.zeros((4, 3), complex), np.zeros((4, 3))
    prime0, sections = blocks._p2_tables(tau, *SMALL, kappa)
    for i, sec in enumerate(sections):
        n_loop = sec.inner_rule.n_loop
        # the inner weights (and their logs) on every (x, xi) point, from
        # the chunks the moment pass contracts
        chunks = list(blocks._inner_chunks(sec, tau, kappa, prime0))
        tensor = np.concatenate([weights for _, _, weights, _ in chunks])
        tensor_logs = (None if sec.outer_logs is None else
                          np.concatenate([logs for _, _, _, logs in chunks]))
        y, _, pos = blocks._geometry(sec.kind, sec.x[:, None], sec.inner_rule.nodes)
        for row, (sigma, s) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
            th_y = specfun._theta1_array(-sigma * s * lam + y, tau)
            lev_arg = sigma * lam + s * g * (pos + y)
            lev = specfun._theta_level_array(kappa, n, lev_arg, tau)
            if s < 0:
                lev = lev * cmath.exp(4j * math.pi * n / kappa)
            inner = tensor * th_y * lev
            inner_abs = (np.abs(tensor) * theta1_scale(y, tau)
                         * level_scale(kappa, n, lev_arg, tau))
            xi_b = inner[:, :n_loop].sum(axis=1) / wind + inner[:, n_loop:].sum(axis=1)
            xi_abs = inner_abs.sum(axis=1) / min(1.0, abs(wind))
            x_arg = -sigma * sec.flip * s * lam + sec.x
            outer = sec.outer * specfun._theta1_array(x_arg, tau)
            outer_abs = np.abs(sec.outer) * theta1_scale(x_arg, tau)
            col = 2 if i > 1 else 0
            rows[row, col] += np.sum(outer * xi_b) / div
            scales[row, col] += np.sum(outer_abs * xi_abs) / abs(div)
            if tensor_logs is not None:
                logs = inner * tensor_logs
                slope = (logs[:, :n_loop].sum(axis=1) / wind
                         + logs[:, n_loop:].sum(axis=1)
                         - inner[:, :n_loop].sum(axis=1) * 2j * math.pi
                         * (wind + 1.0) / wind ** 2)
                rows[row, 1] += np.sum(outer * (sec.outer_logs * xi_b + slope)) / div
                logs_abs = (inner_abs * (np.abs(tensor_logs) + 2 * math.pi
                                         * abs(wind + 1.0) / abs(wind) ** 2))
                scales[row, 1] += np.sum(outer_abs * (
                    np.abs(sec.outer_logs) * xi_abs
                    + logs_abs.sum(axis=1) / min(1.0, abs(wind)))) / abs(div)
    return rows, scales


@given(kappa=st.integers(6, 12), n=st.integers(0, 23),
       tau_im=st.floats(0.5, 1.5), lam=st.floats(0.05, 0.95))
@settings(max_examples=12, deadline=None)
def test_two_fold_moment_pass_matches_brute_force(kappa, n, tau_im, lam):
    # real lambda over random (kappa, n), every row and column of the pass
    idx, tau = BlockIndex(2, kappa, n), complex(0.0, tau_im)
    (got,) = blocks._p2_rows(idx, complex(lam), tau, [SMALL])
    want, scales = two_fold_brute(idx, lam, tau)
    assert np.all(np.abs(got - want) <= 1e-13 * scales), (got - want) / scales


def test_dead_indices_vanish():
    scale = abs(u_block(BlockIndex(1, 5, 2), LAM, PT).value)
    for kappa, n in [(4, 1), (5, 1)]:
        dead = u_block(BlockIndex(1, kappa, n), LAM, PT).value
        assert abs(dead) < 1e-8 * scale


@pytest.mark.parametrize("n", [1, 2])
def test_two_fold_dead_indices_vanish_at_the_integer_corner(n):
    # block_constant(2, 6, n) is 0 for n = 1, 2, so J(LAM) = J(-LAM) there;
    # the kappa = 6 limit's b-derivative needs the winding term of its
    # corner loops to keep that (without it u reaches a quarter to a half of
    # J), a term that vanishes at n = 3
    value, _ = blocks._one_value(BlockIndex(2, 6, n), LAM, PT, QuadratureSpec())
    u = u_block(BlockIndex(2, 6, n), LAM, PT).value
    assert abs(u) <= 1e-12 * abs(value[0])


def test_negated_index_reflection():
    # u_{k,n} = -e^{2 pi i p n / k} u_{k,-n}
    plus = u_block(BlockIndex(1, 5, 2), LAM, PT).value
    minus = u_block(BlockIndex(1, 5, -2), LAM, PT).value
    assert abs(plus + cmath.exp(4j * math.pi / 5) * minus) < 1e-9 * abs(plus)


# ---------------------------------------------------------------------------
# lattice-shift covariance and parity
# ---------------------------------------------------------------------------


def test_shift_by_one_gives_parity_of_index():
    base = u_block(BlockIndex(1, 5, 2), LAM, PT).value
    shifted = u_block(BlockIndex(1, 5, 2), LAM + 1.0, PT).value
    assert abs(shifted - base) < 1e-9 * abs(base)
    odd = u_block(BlockIndex(1, 5, 3), LAM, PT).value
    odd_shifted = u_block(BlockIndex(1, 5, 3), LAM + 1.0, PT).value
    assert abs(odd_shifted + odd) < 1e-9 * abs(odd)


def test_shift_by_tau_swaps_index():
    # e^{pi i k (lam + tau/2)} u_{k,n}(lam + tau) = -e^{2 pi i p n/k} u_{k,k-n}(lam)
    kappa, n = 5, 2
    lhs = cmath.exp(1j * math.pi * kappa * (LAM + PT.tau / 2)) * u_block(
        BlockIndex(1, kappa, n), LAM + PT.tau, PT).value
    rhs = -cmath.exp(2j * math.pi * n / kappa) * u_block(
        BlockIndex(1, kappa, kappa - n), LAM, PT).value
    assert abs(lhs - rhs) < 1e-9 * abs(rhs)


def test_parity_in_lambda():
    even = u_block(BlockIndex(1, 5, 2), LAM, PT).value
    assert abs(u_block(BlockIndex(1, 5, 2), -LAM, PT).value - even) == 0.0


def test_vanishing_order_at_origin():
    # |u| ~ lam^{p+1} near the lattice; check the log-log slope
    small, smaller = 0.1, 0.01
    v1 = abs(u_block(BlockIndex(1, 4, 2), small, PT).value)
    v2 = abs(u_block(BlockIndex(1, 4, 2), smaller, PT).value)
    slope = math.log(v1 / v2) / math.log(small / smaller)
    assert slope > 1.8


def test_block_argument_rejects_lattice_points():
    with pytest.raises(PoleProximity):
        u_block(BlockIndex(1, 4, 2), 1e-9, PT)


# ---------------------------------------------------------------------------
# the admissible indices really span independent functions
# ---------------------------------------------------------------------------


def test_admissible_family_is_independent():
    kappa, p = 6, 1
    grid = np.linspace(0.07, 0.93, 12)
    cols = []
    for n in (2, 3, 4):
        cols.append([u_block(BlockIndex(p, kappa, n), x, PT).value
                     for x in grid])
    mat = np.array(cols).T
    svals = np.linalg.svd(mat, compute_uv=False)
    assert svals[-1] > 1e-4 * svals[0]


# ---------------------------------------------------------------------------
# two-fold integrals
# ---------------------------------------------------------------------------


def test_two_fold_block_matches_closed_form():
    p, kappa, n = 2, 8, 4
    u = u_block(BlockIndex(p, kappa, n), LAM, PT)
    c = block_constant(p, kappa, n).value
    rhs = (2.0 ** (-2 * (p + 1) / kappa) * c
           * (phi(3, PT) / dedekind_eta(PT)) ** (4 * (p + 1) / kappa)
           * theta1(LAM, PT) ** (p + 1)
           * (theta_level(2, 1, LAM, PT) + theta_level(2, 1, -LAM, PT)))
    assert abs(u.value - rhs) / abs(rhs) < 1e-6


# The default spec is the coarse pass, its refined() spec the fine one; keys
# are (kappa, n, lambda).  (8, 4, LAM): recorded from the per-node quadrature
# this package used before the p = 2 integrand was tabulated in tensors.
# (7, 2, LAM): recorded from the eight-sample fit version, whose non-integer
# corner path the kappa = 6 limit leaves alone.  (6, 3, LAM): the kappa = 6
# limit, 1.0e-7 from the eight-sample polynomial fit it replaced; its u at LAM
# is 4.7e-15 from the closed form c theta1^3 of identity 1, the fit's was
# 8.8e-8.  The -LAM rows: recorded from the quadrature that tabulated J(-LAM)
# on its own, with theta1 evaluated at -LAM - s y rather than through the
# oddness of theta1.
P2_PINNED = {
    (8, 4, LAM): (-2.002246852089143 - 0.8840385559530388j,
                  -2.002246852089142 - 0.8840385559530386j),
    (7, 2, LAM): (10.446103065461275 + 13.098998927225207j,
                  10.446103065461259 + 13.098998927225203j),
    (6, 3, LAM): (-3.5479748066813133 + 2.274498308950914j,
                  -3.547974806681312 + 2.2744983089509136j),
    (8, 4, -LAM): (0.8840385559530408 + 2.002246852089142j,
                   0.88403855595304 + 2.0022468520891405j),
    (7, 2, -LAM): (10.446103065461264 + 13.098998927225221j,
                   10.446103065461262 + 13.098998927225201j),
    (6, 3, -LAM): (-0.1957859130755637 + 4.20988546904866j,
                   -0.19578591307556303 + 4.2098854690486585j),
}
P2_INDICES = sorted({(kappa, n) for kappa, n, _ in P2_PINNED})


@pytest.mark.parametrize("kappa,n", P2_INDICES)
def test_two_fold_values_are_pinned(kappa, n):
    # one p = 2 pass gives the pair (J(LAM), J(-LAM))
    quad = QuadratureSpec()
    pinned = zip(P2_PINNED[(kappa, n, LAM)], P2_PINNED[(kappa, n, -LAM)])
    for spec, wants in zip((quad, quad.refined()), pinned):
        got, _ = blocks._one_value(BlockIndex(2, kappa, n), LAM, PT, spec)
        for value, want in zip(got, wants):
            assert abs(value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("kappa,n", P2_INDICES)
def test_two_fold_u_block_is_the_pinned_difference(kappa, n):
    # u = J(LAM) - J(-LAM), with the coarse-vs-refined estimate of both
    # halves; a sign slip in the -LAM rows taken from theta1 at +LAM moves u
    # by the size of J
    (c_plus, f_plus), (c_minus, f_minus) = (P2_PINNED[(kappa, n, lam)]
                                            for lam in (LAM, -LAM))
    u = u_block(BlockIndex(2, kappa, n), LAM, PT)
    # relative to the larger J: (7, 2) is a dead index, where u vanishes
    scale = max(abs(f_plus), abs(f_minus))
    assert abs(u.value - (f_plus - f_minus)) <= 1e-12 * scale
    # the estimate is a difference of nearly equal values, so it is pinned
    # at twice its rounding floor: 1-ulp complex noise on both pair kernels'
    # outputs moved it by up to 2.0e-15 of J over 40 seeds at (6, 3), 1.2e-15
    # at (7, 2) and 7.2e-16 at (8, 4)
    estimate = abs(f_plus - c_plus) + abs(f_minus - c_minus)
    assert abs(u.error_estimate - estimate) <= 4e-15 * scale


# Coarse-pass (J(LAM), J(-LAM)) at tau = 0.6i, recorded from the quadrature
# that tabulated every pass in full, before the lambda-independent tables
# were cached; the 0.9i values are the coarse P2_PINNED rows.
P2_AT_06 = {
    (8, 4): (-5.247358077668636 - 2.199663297081306j,
             2.1996632970813095 + 5.2473580776686335j),
}
# tau and kappa alternate, so tables cached under a key that missed either
# would be reused at the wrong one
P2_ALTERNATING = [(0.9j, 8, 4), (0.6j, 8, 4), (0.9j, 8, 4), (0.9j, 7, 2),
                  (0.9j, 8, 4)]


def test_two_fold_tables_follow_tau_and_kappa():
    quad = QuadratureSpec()
    for tau, kappa, n in P2_ALTERNATING:
        wants = (P2_AT_06[(kappa, n)] if tau == 0.6j else
                 (P2_PINNED[(kappa, n, LAM)][0], P2_PINNED[(kappa, n, -LAM)][0]))
        got, budget = blocks._one_value(BlockIndex(2, kappa, n), LAM,
                                        ModularPoint(tau), quad)
        for value, want in zip(got, wants):
            assert abs(value - want) <= 1e-12 * abs(want), (tau, kappa, n)
        assert budget.used == 1_538_880


def test_two_fold_tables_are_reused(monkeypatch):
    # a second lambda at the same (tau, rule shape, kappa, n), under another
    # budget cap, builds no table and hands the array kernel only the
    # divisor theta1(+-lam) of each pass
    idx = BlockIndex(2, 8, 4)
    u_block(idx, LAM, PT)
    builds = blocks._p2_moments.cache_info().misses
    calls, points = _count_kernels(monkeypatch)
    blocks._one_value(idx, 0.41, PT, QuadratureSpec(max_evals=100_000_000))
    assert (calls, points) == WARM_PASS
    u_block(idx, 0.41, PT, QuadratureSpec(max_evals=100_000_000))
    assert blocks._p2_moments.cache_info().misses == builds


@pytest.mark.parametrize("tau", [0.9j, 0.6j])
@pytest.mark.parametrize("n", [1, 3])
def test_kappa_six_corner_numerators_cancel(tau, n):
    # at kappa = 6 the corner exponent 2b + g - 1 is -2 and loop_winding
    # vanishes there; the value is a finite limit only because the two half
    # shapes' corner numerators cancel at the base exponent, at +lam (rows 0
    # and 1) and at -lam (rows 2 and 3)
    quad = QuadratureSpec()
    corners = blocks._p2_rows(BlockIndex(2, 6, n), 0.3 + 0j, tau, [(
        quad.gauss_order, quad.graded_mesh_levels, quad.loop_nodes)])[0][:, 0]
    for n_plus, n_minus in (corners[0:2], corners[2:4]):
        assert abs(n_plus) > 1.0
        assert abs(n_plus + n_minus) <= 1e-12 * abs(n_plus)


def test_pair_branch_gives_the_leading_term():
    # the kappa = 6 block over theta1^3 tends to leading_term_constant(2) as
    # q -> 0; the pair branch exp(-i pi g) sets its phase, so the opposite
    # branch misses by O(1)
    pt = ModularPoint(2j)
    ratio = u_block(BlockIndex(2, 6, 3), LAM, pt).value / theta1(LAM, pt) ** 3
    want = leading_term_constant(2)
    assert abs(ratio - want) <= 1e-12 * abs(want)


def test_two_fold_theta_calls_are_batched(monkeypatch):
    # the p = 2 quadrature evaluates theta1 on whole node tensors when it
    # builds the tables, and the moment tables take no theta call at all; a
    # per-node loop would make tens of thousands of kernel calls
    blocks._p2_moments.cache_clear()
    calls, _ = _count_kernels(monkeypatch)
    j_integral(BlockIndex(2, 8, 4), LAM, PT)
    assert 0 < calls["_theta1_array"] < 1000
    assert calls["_theta_level_array"] == calls["theta_level"] == 0


def test_two_fold_u_block_shares_one_tabulation(monkeypatch):
    # the four integrands of a p = 2 u_block (+-lam, both half shapes) share
    # one tabulation per spec: theta1 at y and the diagonal per (x, xi)
    # point and at x per outer node, 1,900,680 array points over the coarse
    # and refined tensors, and theta1'(0) once per tensor build; the level
    # theta nowhere.  The two passes add one divisor call of two points.
    # Tabulating each integrand on its own handed 11,410,088 points to theta1
    blocks._p2_moments.cache_clear()
    calls, points = _count_kernels(monkeypatch)
    u_block(BlockIndex(2, 8, 4), LAM, PT)
    assert points["_theta1_array"] == 1_900_680 + 2 + 2
    assert points["_theta_level_array"] == 0
    assert calls["theta1"] == 2 and points["theta1"] == 2
    assert blocks._p2_moments.cache_info().misses == 2


def test_a_cold_two_fold_u_block_keeps_no_section_tensor():
    # the inner weights per (x, xi) point are built chunk by chunk inside
    # the moment loop and dropped; the whole tensors they replace held
    # 11.5 MB at the refined spec alone, 17.7 MB of peak heap in all
    for cached in (blocks._p2_moments, blocks._p2_reach, blocks._inner_rule,
                   blocks._outer_rules):
        cached.cache_clear()
    tracemalloc.start()
    try:
        u_block(BlockIndex(2, 8, 4), LAM, PT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks._p2_moments.cache_info().misses == 2
    assert peak < 8e6, peak


def test_two_fold_guard_rails():
    with pytest.raises(OutOfSupportedRange):
        u_block(BlockIndex(2, 8, 4), 0.3 + 0.2j, PT)
    with pytest.raises(OutOfSupportedRange):
        u_block(BlockIndex(2, 8, 4), 0.3, ModularPoint(0.4 + 0.9j))


# ---------------------------------------------------------------------------
# asymptotic normalization constants
# ---------------------------------------------------------------------------


def test_leading_term_constant_reproduces_block_constants():
    for p in (1, 2):
        kappa = 2 * p + 2
        got = leading_term_constant(p)
        want = block_constant(p, kappa, p + 1).value
        assert abs(got - want) < 1e-12 * abs(want)


def test_leading_term_constant_validation():
    with pytest.raises(ValueError):
        leading_term_constant(0)


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------


def test_budget_is_enforced():
    quad = QuadratureSpec(max_evals=2000)
    with pytest.raises(QuadratureBudgetExceeded):
        u_block(BlockIndex(1, 4, 2), LAM, PT, quad)
    # one coarse p = 2 pass at (8, 4) charges 1,538,880 kernel points and a
    # refined one 6,060,840, whether its tables are built or cached; a cap
    # below the charge fails before any table is built
    blocks._p2_moments.cache_clear()
    quad = QuadratureSpec(max_evals=1_000_000)
    with pytest.raises(QuadratureBudgetExceeded):
        u_block(BlockIndex(2, 8, 4), LAM, PT, quad)
    assert blocks._p2_moments.cache_info().misses == 0
    for _ in range(2):
        assert u_block(BlockIndex(2, 8, 4), LAM, PT).budget_used == 7_599_720


def test_fold_counts_beyond_two_are_rejected():
    with pytest.raises(UnsupportedP):
        u_block(BlockIndex(3, 10, 4), LAM, PT)

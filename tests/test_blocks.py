"""Regularized simplex integrals: closed-form cross-checks at small fold
counts, lattice-shift covariance, dead indices, and the guard rails."""

import cmath
import math

import numpy as np
import pytest

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
from elliptic_selberg.quadrature import QuadratureSpec
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


def test_single_fold_block_matches_closed_form_subtraction():
    u = u_block(BlockIndex(1, 4, 2), LAM, PT)
    want = block_constant(1, 4, 2).value * theta1(LAM, PT) ** 2
    assert abs(u.value - want) / abs(want) < 1e-9
    assert u.error_estimate < 1e-8


def test_single_fold_block_matches_closed_form_contour():
    quad = QuadratureSpec(method="contour")
    u = u_block(BlockIndex(1, 4, 2), LAM, PT, quad)
    want = block_constant(1, 4, 2).value * theta1(LAM, PT) ** 2
    assert abs(u.value - want) / abs(want) < 1e-12
    assert u.error_estimate < 1e-10


def test_single_fold_regression_value():
    # frozen from a converged run; guards against silent quadrature drift
    u = u_block(BlockIndex(1, 5, 2), LAM, PT)
    want = 3.8476411489689966 - 1.2501743933430465j
    assert abs(u.value - want) < 1e-9 * abs(want)


# Values and budgets recorded from the per-lambda p = 1 quadrature this package
# used before the lambda-independent factors were tabulated: the coarse
# default spec, then its refined() spec.  tau = 1 + i is the T-transform
# input; at tau = 0.3 + 0.4i the argument of E varies along the middle path;
# lambda = -0.3i at tau = i is an S-transform input.  The tau values
# alternate, so tables cached under a key that missed tau would be reused at
# the wrong tau.
P1_PINNED = [
    (0.9j, 4, 2, 0.3, "subtraction",
     (1.3487341096132424 - 1.7411719926854345j, 4737),
     (1.3487341096544554 - 1.7411719926834688j, 7921)),
    (1 + 1j, 4, 2, 0.3, "subtraction",
     (1.484848764107721 + 1.1541171645695079j, 4737),
     (1.4848487640196706 + 1.154117164568794j, 7921)),
    (0.9j, 5, 3, 0.3, "subtraction",
     (0.565883128685783 + 0.13419349606789974j, 4481),
     (0.5658831286862098 + 0.1341934960673441j, 7569)),
    (0.3 + 0.4j, 4, 2, 0.3, "subtraction",
     (4.7139753797854675 - 1.8442021160885416j, 4737),
     (4.71397537984639 - 1.8442021160416846j, 7921)),
    (1j, 5, 2, -0.3j, "subtraction",
     (-5.39854667364053 + 1.7540941453051557j, 4481),
     (-5.398546673631424 + 1.7540941453173229j, 7569)),
    (0.9j, 4, 2, 0.3, "contour",
     (1.3487341095779506 - 1.7411719926494376j, 2305),
     (1.3487341095779506 - 1.7411719926494382j, 4657)),
]


def test_one_fold_values_are_pinned():
    for tau, kappa, n, lam, method, *pinned in P1_PINNED:
        quad = QuadratureSpec(method=method)
        for spec, (want, want_budget) in zip((quad, quad.refined()), pinned):
            got, budget = blocks._one_value(BlockIndex(1, kappa, n),
                                            complex(lam), ModularPoint(tau), spec)
            assert abs(got - want) <= 1e-13 * abs(want), (tau, kappa, n, method)
            assert budget.used == want_budget


def test_one_fold_work_is_tabulated(monkeypatch):
    # a warm p = 1 value needs theta1(lam), theta1'(lam) and one stacked
    # theta1 call; everything else comes from the lambda-independent tables
    idx, lam, spec = BlockIndex(1, 4, 2), complex(LAM), QuadratureSpec()
    blocks._one_value(idx, lam, PT, spec)
    calls = []
    kernel = specfun._theta1_array

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(specfun, "_theta1_array", counting)
    blocks._one_value(idx, lam, PT, spec)
    assert 0 < len(calls) <= 4


def test_dead_indices_vanish():
    scale = abs(u_block(BlockIndex(1, 5, 2), LAM, PT).value)
    for kappa, n in [(4, 1), (5, 1)]:
        dead = u_block(BlockIndex(1, kappa, n), LAM, PT).value
        assert abs(dead) < 1e-8 * scale


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


# Values recorded from the per-node quadrature this package used before the
# p = 2 integrand was tabulated in tensors; the default spec is the coarse
# pass, its refined() spec the fine one.
P2_PINNED = {
    (8, 4): (-2.002246852089143 - 0.8840385559530388j,
             -2.002246852089142 - 0.8840385559530386j),
    (6, 3): (-3.5479744556329638 + 2.274498042298444j,
             -3.5479744556329553 + 2.2744980422984424j),
}


@pytest.mark.parametrize("kappa,n", sorted(P2_PINNED))
def test_two_fold_values_are_pinned(kappa, n):
    quad = QuadratureSpec()
    for spec, want in zip((quad, quad.refined()), P2_PINNED[(kappa, n)]):
        got, _ = blocks._one_value(BlockIndex(2, kappa, n), LAM, PT, spec)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_two_fold_theta_calls_are_batched(monkeypatch):
    # the p = 2 quadrature evaluates theta1 on whole node tensors; a per-node
    # loop would make tens of thousands of kernel calls here
    calls = []
    kernel = specfun._theta1_array

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(specfun, "_theta1_array", counting)
    j_integral(BlockIndex(2, 8, 4), LAM, PT)
    assert 0 < len(calls) < 1000


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


def test_fold_counts_beyond_two_are_rejected():
    with pytest.raises(UnsupportedP):
        u_block(BlockIndex(3, 10, 4), LAM, PT)

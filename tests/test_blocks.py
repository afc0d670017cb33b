"""Regularized simplex integrals: closed-form cross-checks at small fold
counts, lattice-shift covariance, dead indices, and the guard rails."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from elliptic_selberg import blocks, cli, specfun, verify
from elliptic_selberg.blocks import (
    BlockIndex,
    j_integral,
    leading_term_constant,
    u_block,
    u_block_grid,
)
from elliptic_selberg.errors import (
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


# Values recorded from the endpoint-circle p = 1 quadrature that computed
# J(lam) and J(-lam) in separate passes: the coarse default spec, then its
# refined() spec, at lam and then at -lam.  tau = 1 + i
# is the T-transform input; at tau = 0.3 + 0.4i the argument of E varies
# along the middle path; lambda = -0.3i at tau = i is an S-transform input.
# The tau values alternate, so tables cached under a key that missed tau
# would be reused at the wrong tau.
P1_PINNED = [
    (0.9j, 4, 2, 0.3,
     1.3487341095779506 - 1.7411719926494376j,
     1.3487341095779506 - 1.7411719926494382j,
     1.3487341095779528 + 1.7411719926494367j,
     1.3487341095779533 + 1.7411719926494367j),
    (1 + 1j, 4, 2, 0.3,
     1.4848487640996109 + 1.1541171645608874j,
     1.4848487640996162 + 1.1541171645608874j,
     -1.4848487640996102 + 1.1541171645608892j,
     -1.4848487640996157 + 1.1541171645608892j),
    (0.9j, 5, 3, 0.3,
     0.5658831286847448 + 0.13419349606937386j,
     0.5658831286847448 + 0.1341934960693735j,
     0.5366860258791692 + 0.22405293870730603j,
     0.5366860258791695 + 0.22405293870730592j),
    (0.3 + 0.4j, 4, 2, 0.3,
     4.713975379558706 - 1.8442021159791389j,
     4.7139753795587005 - 1.8442021159791304j,
     0.8208693778069087 + 4.274173472183749j,
     0.8208693778069143 + 4.274173472183742j),
    (1j, 5, 2, -0.3j,
     -5.398546673663372 + 1.7540941453058636j,
     -5.398546673663393 + 1.7540941453058778j,
     -0.6585255313691478 + 0.21396791561407658j,
     -0.6585255313691478 + 0.2139679156140767j),
]


def p1_points(spec) -> int:
    """The quadrature points of a p = 1 pass, counted from the spec: the
    endpoint circle (four quarter panels) once per end, and the middle path
    graded toward both ends."""
    circle = 4 * max(8, spec.loop_nodes // 4)
    middle = 2 * (max(spec.graded_mesh_levels, 10) + 1) * spec.gauss_order
    return 2 * circle + middle


def p2_points(spec) -> int:
    """The (x, xi) points of a p = 2 pass, counted from the spec: outer
    corner loops and graded left and right sections, against the inner
    rules (loop, then a Gauss panel and a Gauss-Jacobi tail of twice the
    order at the x -> 0 corner and the left section, a graded mesh
    elsewhere)."""
    loop = 4 * max(8, spec.loop_nodes // 4)
    graded = (spec.graded_mesh_levels + 1) * spec.gauss_order
    # each outer rule (corner loop, graded section) meets one inner rule of
    # each kind (left, graded)
    return (loop + 2 * graded) * (2 * loop + 4 * spec.gauss_order + graded)


def one_value(idx, lam, pt, quad) -> tuple:
    """One pass, (J(lam), J(-lam)), and its quadrature points, checked
    against the spec's cap."""
    shape = (quad.gauss_order, quad.graded_mesh_levels, quad.loop_nodes)
    points = quad.check_points(blocks._points(idx, pt, shape))
    values = blocks._j_sum([idx], [complex(lam)], pt, [shape])
    return tuple(values[0, 0, :, 0].tolist()), points


def test_one_fold_values_are_pinned():
    # one p = 1 pass gives the pair (J(lam), J(-lam)) and counts its points
    quad = QuadratureSpec()
    for tau, kappa, n, lam, c_plus, f_plus, c_minus, f_minus in P1_PINNED:
        for spec, pinned in ((quad, (c_plus, c_minus)),
                             (quad.refined(), (f_plus, f_minus))):
            got, points = one_value(BlockIndex(1, kappa, n), complex(lam),
                                    ModularPoint(tau), spec)
            for value, want in zip(got, pinned):
                assert abs(value - want) <= 1e-13 * abs(want), (tau, kappa, n)
            assert points == p1_points(spec)


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
    # a warm p = 1 pass sums its cached frequency vector against phases in
    # lambda and takes the divisor theta1(+-lam) from the array kernel; a
    # different point cap reuses the tables
    idx, lam, spec = BlockIndex(1, 4, 2), complex(LAM), QuadratureSpec()
    one_value(idx, lam, PT, spec)
    builds = blocks._p1_moments.cache_info().misses
    calls, points = _count_kernels(monkeypatch)
    one_value(idx, lam, PT, QuadratureSpec(max_evals=100_000_000))
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
    # every lambda takes the strip edge's term counts, and the memoised
    # coefficient helpers already hold them
    u_block(BlockIndex(p, kappa, n), LAM, PT)
    counts = []
    term_count = specfun._term_count
    monkeypatch.setattr(specfun, "_term_count",
                        lambda *args: counts.append(args) or term_count(*args))
    u_block(BlockIndex(p, kappa, n), 0.41, PT)
    assert counts == []


class CountingExp:
    """numpy, with every exp call recorded in calls."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args):
        self.calls.append(args)
        return np.exp(*args)


@pytest.mark.parametrize("p,kappa,n,tau,lam,phase_sets", [
    (1, 5, 2, 0.9j, 0.41, 1),
    (1, 6, 3, 0.9j, 0.3 + 0.2j, 1),
    (1, 4, 1, 0.3 + 1.1j, 0.27 - 0.25j, 1),
    # folded by tau onto the partner label (5, 7), with one exp for its fold
    # phase
    (1, 5, 2, 0.9j, 0.3 + 1.1j, 2),
    (2, 8, 4, 0.9j, 0.41, 1),
])
def test_u_block_shares_its_lambda_side_bit_for_bit(monkeypatch, p, kappa, n,
                                                    tau, lam, phase_sets):
    # one divisor call, and a fixed number of exps, serve the coarse and the
    # refined pass of a u_block, which give exactly the values, estimate and
    # budget of the two passes made one at a time; phase_sets counts the
    # exps of the one group and of the fold phases of a folded point
    idx, pt, quad = BlockIndex(p, kappa, n), ModularPoint(tau), QuadratureSpec()
    u_block(idx, lam, pt)
    calls = []
    monkeypatch.setattr(blocks, "np", CountingExp(calls))
    got = u_block(idx, lam, pt)
    # numpy's exp as blocks calls it (a warm pass calls no other): one of i
    # pi nu sigma lam for both signs of sigma over the nu of both rule
    # shapes, and one of the fold phases
    assert len(calls) == phase_sets
    (c_plus, c_minus), coarse = one_value(idx, complex(lam), pt, quad)
    (plus, minus), fine = one_value(idx, complex(lam), pt, quad.refined())
    assert got.value == plus + (-1) ** (p + 1) * minus
    assert got.error_estimate == abs(plus - c_plus) + abs(minus - c_minus)
    assert got.budget_used == coarse + fine


def test_a_one_fold_family_makes_one_exp_per_nu_grid(monkeypatch):
    # the twelve p = 1 labels of the ten closed forms on the default real
    # grid: one fold-parity group, and one exp over the nu of every label
    # (both parities, as n takes both) and both rule shapes, at the strip
    # edge's term counts
    indices = [BlockIndex(1, kappa, n) for kappa, n in (
        (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4), (8, 2), (8, 3),
        (8, 5), (8, 6), (10, 3), (10, 7))]
    grid = (0.13, 0.27, 0.41, 0.55, 0.69, 0.83)
    want = blocks.u_blocks(indices, grid, PT)
    calls = []
    monkeypatch.setattr(blocks, "np", CountingExp(calls))
    assert blocks.u_blocks(indices, grid, PT) == want
    assert len(calls) == 1 and calls[0][0].shape[-1] == 147


@pytest.mark.parametrize("p,kappa,n", [(1, 5, 2), (2, 8, 4)])
def test_a_lambda_grid_builds_each_moment_table_once(p, kappa, n):
    # every lambda of the strip takes the strip edge's term counts, so the
    # six points of a grid of real and complex points share one moment
    # table per spec (coarse and refined); the later points read both from
    # the family memo
    moments = blocks._p1_moments if p == 1 else blocks._p2_moments
    memo = blocks._sum_vectors
    moments.cache_clear()
    memo.cache_clear()
    for lam in (0.13, 0.27 + 0.1j, 0.41, 0.55 - 0.2j, 0.69 + 0.4j, 0.83):
        u_block(BlockIndex(p, kappa, n), lam, PT)
    assert moments.cache_info().misses == 2
    assert memo.cache_info().misses == 1 and memo.cache_info().hits == 5


@pytest.mark.parametrize("tau", [0.9j, 0.3 + 1.1j])
@pytest.mark.parametrize("p,kappa,n", [(1, 5, 2), (2, 8, 4)])
def test_a_block_is_continuous_onto_the_real_axis(p, kappa, n, tau):
    # a real lambda and one a hair off the axis take the same series (the
    # strip edge's term counts) and give the same bits
    idx, pt = BlockIndex(p, kappa, n), ModularPoint(tau)
    for lam in (0.3, 0.62):
        assert u_block(idx, lam + 1e-300j, pt) == u_block(idx, lam, pt)


# ---------------------------------------------------------------------------
# a whole lambda grid in one pass
# ---------------------------------------------------------------------------


# tau on the imaginary axis, off it, and an S-image
GRID_TAUS = (0.9j, 0.6j, 1j, 0.3 + 1.1j, 1 + 1j, -1 / (0.3 + 1.1j))
# p = 2 takes one tau on the axis and one off it, at the pinned (kappa, n),
# so that few cold moment builds serve every example
P2_TAUS = (0.9j, 0.3 + 1.1j)
# Im lam as a fraction of Im tau: points of one parity of k share a divisor
# call, where beyond 1/2 the points are folded by k tau, k = 1, -1 and 3
GRID_IM_FRACTIONS = (0.0, 0.0, 0.1, -0.1, 0.25, -0.25, 0.8, -1.3, 2.6)


def divisor_groups(indices, grid, tau) -> int:
    """The divisor theta1(+-lam) calls of a family: one per parity of k (it
    picks the partner labels) among the grid's points folded into the strip
    |Im| <= Im tau / 2 as lam - k tau, every point with the strip edge's
    term counts, per fold count p >= 1 of the family, each of which makes
    its own pass."""
    folds = {idx.p for idx in indices} - {0}
    return len(folds) * len({round(complex(lam).imag / tau.imag) % 2
                             for lam in grid})


def _check_grid_against_points(idx, grid, pt):
    """u_block_grid equals u_block point by point bit for bit (value,
    estimate and budget), and a warm grid makes one divisor call per group
    of divisor_groups, at most one per distinct |Im lam|."""
    singles = tuple(u_block(idx, lam, pt) for lam in grid)
    with pytest.MonkeyPatch.context() as patch:
        calls, _ = _count_kernels(patch)
        assert u_block_grid(idx, grid, pt) == singles, (idx, grid, pt.tau)
    groups = divisor_groups([idx], grid, pt.tau)
    assert calls["_theta1_array"] == groups
    assert groups <= len({abs(complex(lam).imag) for lam in grid})


@given(data=st.data(), p=st.integers(0, 2), kappa=st.integers(4, 10),
       n=st.integers(0, 19), tau=st.sampled_from(GRID_TAUS),
       points=st.lists(st.tuples(st.floats(0.05, 0.95),
                                 st.sampled_from(GRID_IM_FRACTIONS)),
                       min_size=1, max_size=6),
       repeats=st.integers(0, 2))
@example(data=None, p=1, kappa=5, n=2, tau=0.9j,
         points=[(0.3, 0.25), (0.41, 0.0), (0.2, -0.25), (0.7, 0.1),
                 (0.13, 0.0)], repeats=2)
# kappa = 8, n = 4 on 64 points: one exp and one matmul per rule shape
# over the grid round each point as its one-point pass does
@example(data=None, p=2, kappa=8, n=4, tau=0.9j,
         points=[(0.05 + 0.9 * ((37 * k) % 64) / 63, 0.0) for k in range(64)],
         repeats=0)
@settings(max_examples=30, deadline=None)
def test_a_grid_pass_is_its_points_bit_for_bit(data, p, kappa, n, tau, points,
                                               repeats):
    if p == 2:
        kappa, n = P2_INDICES[kappa % len(P2_INDICES)]
        tau = P2_TAUS[GRID_TAUS.index(tau) % len(P2_TAUS)]
    kappa = max(kappa, 2 * p + 2)
    grid = [complex(x, frac * tau.imag) for x, frac in points]
    grid += grid[:repeats]
    if data is not None:  # unsorted, duplicates anywhere
        grid = data.draw(st.permutations(grid))
    _check_grid_against_points(BlockIndex(p, kappa, n), grid, ModularPoint(tau))


@given(data=st.data(),
       labels=st.lists(st.tuples(st.integers(0, 2), st.integers(4, 10),
                                 st.integers(0, 19)), min_size=1, max_size=5),
       tau=st.sampled_from(GRID_TAUS),
       points=st.lists(st.tuples(st.floats(0.05, 0.95),
                                 st.sampled_from(GRID_IM_FRACTIONS)),
                       min_size=1, max_size=6),
       repeats=st.integers(0, 2))
# two n at one kappa, with nu of both parities: one exp over every nu
@example(data=None, labels=[(1, 5, 2), (1, 5, 3), (1, 8, 3), (0, 5, 2),
                            (1, 5, 12)],
         tau=0.9j, points=[(0.3, 0.25), (0.41, 0.0), (0.7, -0.25)], repeats=1)
# a complex point near the real axis takes the strip edge's term counts, as
# the real one does, where at its own |Im lam| the refined circle needed
# one more theta1 term
@example(data=None, labels=[(1, 5, 2), (1, 6, 3)], tau=0.9j,
         points=[(0.3, 0.039818 / 0.9), (0.41, 0.0)], repeats=0)
@example(data=None, labels=[(2, 8, 4), (1, 5, 2), (2, 6, 3), (0, 4, 1)],
         tau=0.9j, points=[(0.3, 0.0), (0.41, 0.0), (0.3, 0.0)], repeats=2)
# an S-moved grid lam / tau at tau = i alone: pure-imaginary points up to
# |Im| 0.88, those beyond 0.5 folded by tau onto the partner labels, a
# group of their own
@example(data=None, labels=[(1, 4, 2), (1, 5, 2), (1, 5, 3), (1, 8, 3),
                            (1, 10, 3)],
         tau=1j, points=[(0.0, -(0.11 + 0.11 * k)) for k in range(8)],
         repeats=0)
# the one call numeric_modular_matrices makes at tau = i: the 8-point basis
# grid followed by its S image lam / tau, real and pure-imaginary points
# in one family pass
@example(data=None, labels=[(1, 4, 2), (1, 5, 2), (1, 5, 3)], tau=1j,
         points=[(0.11 + 0.11 * k, 0.0) for k in range(8)]
         + [(0.0, -(0.11 + 0.11 * k)) for k in range(8)], repeats=0)
@settings(max_examples=20, deadline=None)
def test_a_family_pass_is_its_blocks_bit_for_bit(data, labels, tau, points,
                                                 repeats):
    indices = []
    for p, kappa, n in labels:
        if p == 2:
            kappa, n = P2_INDICES[kappa % len(P2_INDICES)]
            tau = P2_TAUS[GRID_TAUS.index(tau) % len(P2_TAUS)]
        indices.append(BlockIndex(p, max(kappa, 2 * p + 2), n))
    indices += indices[:repeats]
    grid = [complex(x, frac * tau.imag) for x, frac in points]
    if data is not None:  # unsorted, duplicates anywhere
        grid = data.draw(st.permutations(grid + grid[:repeats]))
    pt = ModularPoint(tau)
    singles = tuple(u_block_grid(idx, grid, pt) for idx in indices)
    with pytest.MonkeyPatch.context() as patch:
        calls, _ = _count_kernels(patch)
        assert blocks.u_blocks(indices, grid, pt) == singles, (indices, grid)
    # one divisor call per fold parity of each fold count's pass
    assert calls["_theta1_array"] == divisor_groups(indices, grid, tau)


def test_a_grid_point_at_the_lattice_refuses_the_grid(monkeypatch):
    # every point is checked against the floor before any pass runs
    calls, _ = _count_kernels(monkeypatch)
    with pytest.raises(PoleProximity, match=r"^block argument \(1\+1e-09j\)"):
        u_block_grid(BlockIndex(1, 4, 2), [0.3, 0.41 + 0.1j, 1 + 1e-9j, 0.5],
                     PT)
    assert calls["_theta1_array"] == calls["theta1"] == 0


def test_a_grid_over_its_cap_is_refused_before_any_theta1(monkeypatch):
    # one count check per spec and grid, before the divisor or any table:
    # the refined pass of 1,116 points is over the cap of 1,000
    blocks._p1_tables.cache_clear()
    calls, _ = _count_kernels(monkeypatch)
    with pytest.raises(QuadratureBudgetExceeded, match="1116 > 1000$"):
        u_block_grid(BlockIndex(1, 5, 2), [0.3, 0.41 + 0.1j, 0.3], PT,
                     QuadratureSpec(max_evals=1_000))
    assert calls["_theta1_array"] == calls["theta1"] == 0
    assert blocks._p1_tables.cache_info().misses == 0


def one_fold_table(tau, shape, kappa, n, odd, js):
    """K[p, j] of the (p, j) contraction J(mu) theta1(mu) = sum_(p,j) d_p
    e^(i pi p mu) levels_j e^(2 pi i kappa (c + j) mu) K[p, j]: the node sum
    over the p = 1 sections of the weight e^(2 pi i n offset / kappa) e^(-4
    pi i c t) e^(i pi (p - 4j) t), t = -flip x."""
    circle, middle, _ = blocks._p1_tables(tau, *shape)
    b, c = -2.0 / kappa, n / (2.0 * kappa)
    nodes, weights = [], []
    for rule, flip in ((circle, 1.0), (circle, -1.0), (middle, 1.0)):
        w = flip * rule.weights * np.exp(b * rule.logs)
        w[:rule.n_loop] /= loop_winding(b - 1.0)
        if flip < 0:
            w *= cmath.exp(2j * math.pi * n / kappa)
        nodes.append(-flip * rule.nodes)
        weights.append(w)
    t, w = np.concatenate(nodes), np.concatenate(weights)
    # the moments at the exponents p - 4j, gathered as the pass used to
    top = odd[-1] + 4 * js[-1]
    moments = (w * np.exp(-4j * math.pi * c * t)) @ np.exp(
        1j * math.pi * np.outer(t, np.arange(-top, top + 1, 2)))
    return moments[(odd[:, None] - 4 * js + top) // 2]


@pytest.mark.parametrize("p,kappa,n", [(1, 5, 2), (1, 8, 3), (2, 6, 1),
                                       (2, 8, 4)])
def test_the_stacked_contraction_is_the_per_point_chain(p, kappa, n):
    # the stacked values of a family pass are, bit for bit, each point's own
    # chain: the one-point exponential sum over its frequency vector at lam
    # and -lam, divided p times by theta1 there; at p = 1 that sum is the
    # contraction of the theta1 and level rows with the (p, j) moment table
    # to 1e-14 of its sum of |terms|, the limit the exp rounding allows: a
    # term's exp rounds its argument i pi nu mu, |nu| up to about 90, where
    # the rows round i pi p mu and 2 pi i kappa (c + j) mu, and over 500
    # random in-strip cases the two differed by up to 6.8e-15 of it
    idx, quad = BlockIndex(p, kappa, n), QuadratureSpec()
    pt, grid = ModularPoint(0.3 + 1.1j), [0.3, 0.41 + 0.1j, 0.62, 0.2 - 0.1j,
                                          0.3, 0.5 + 0.25j]
    # the small rule shape keeps the p = 2 moment builds cheap
    shapes = [SMALL] if p == 2 else [
        (q.gauss_order, q.graded_mesh_levels, q.loop_nodes)
        for q in (quad, quad.refined())]
    got = blocks._j_sum([BlockIndex(p, 2 * p + 4, 2), idx],
                        [complex(lam) for lam in grid], pt, shapes)[1]
    moments = blocks._p1_moments if p == 1 else blocks._p2_moments
    for values, shape in zip(got, shapes):
        reach, level_reach = ((blocks._p1_tables(pt.tau, *shape)[2],) * 2
                              if p == 1 else blocks._p2_reach(pt.tau, *shape,
                                                              kappa))
        for k, lam in enumerate(grid):
            # every point takes the counts of the strip's edge
            mu = np.array([lam, -lam], dtype=complex)
            y = pt.tau.imag / 2
            coefs = specfun._theta1_coefs(pt.tau, y + reach)
            level = specfun._theta_level_coefs(
                kappa, n, pt.tau, y + (2.0 / kappa) * level_reach)
            first, freqs = moments(pt.tau, *shape, kappa, n, coefs, level)
            sums = np.exp(1j * math.pi * np.arange(
                first, first + 2 * freqs.size, 2) * mu[:, None]) @ freqs
            want = sums
            for _ in range(p):
                want = want / specfun._theta1_array(mu, pt.tau, y_max=y)
            assert values[:, k].tolist() == want.tolist()
            if p == 1:
                odd, js, d, levels = blocks._series(coefs, level)
                rows = (np.exp(1j * math.pi * np.multiply.outer(mu, odd)) * d,
                        np.exp(1j * math.pi * np.multiply.outer(
                            mu, n + 2 * kappa * js)) * levels)
                terms = (rows[0][:, :, None] * rows[1][:, None, :]
                         * one_fold_table(pt.tau, shape, kappa, n, odd, js))
                assert np.all(np.abs(terms.sum(axis=(1, 2)) - sums)
                              <= 1e-14 * np.abs(terms).sum(axis=(1, 2)))


def test_a_two_fold_pass_shares_one_exp_over_its_nu_grid(monkeypatch):
    # (8, 3) and (8, 5) of identities 5 and 6 have nu vectors of one length
    # but of different first nu: a pass over both makes one exp over the nu
    # both cover, and each index's values are those of its own pass bit for
    # bit (a contiguous copy of its columns of the shared exp)
    indices = [BlockIndex(2, 8, 3), BlockIndex(2, 8, 5)]
    grid = [0.3 + 0j, 0.41 + 0j]
    singles = [blocks._j_sum([idx], grid, PT, [SMALL])[0] for idx in indices]
    reach, level_reach = blocks._p2_reach(PT.tau, *SMALL, 8)
    edge = PT.tau.imag / 2
    vectors = [blocks._p2_moments(
        PT.tau, *SMALL, 8, idx.n, specfun._theta1_coefs(PT.tau, edge + reach),
        specfun._theta_level_coefs(8, idx.n, PT.tau,
                                   edge + 0.25 * level_reach))
        for idx in indices]
    assert [(first, f.size) for first, f in vectors] == [(-67, 71), (-65, 71)]
    calls = []
    monkeypatch.setattr(blocks, "np", CountingExp(calls))
    got = blocks._j_sum(indices, grid, PT, [SMALL])
    assert len(calls) == 1 and calls[0][0].shape == (4, 72)
    for values, want in zip(got, singles):
        assert values.tolist() == want.tolist()


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
# folded by tau and by -3 tau, and one in the strip
@example(kappa=10, n=4, tau_re=0.0, tau_im=0.9, lam_re=0.85, lam_frac=0.3)
@example(kappa=7, n=3, tau_re=0.3, tau_im=1.1, lam_re=0.4, lam_frac=-0.95)
@example(kappa=5, n=2, tau_re=0.0, tau_im=0.9, lam_re=0.3, lam_frac=0.1)
@settings(max_examples=25, deadline=None)
def test_one_fold_moment_pass_matches_brute_force(kappa, n, tau_re, tau_im,
                                                  lam_re, lam_frac):
    # real and complex lambda, |Im lam| <= 3 Im tau, over random (kappa, n):
    # the pass folds lam into the strip |Im| <= Im tau / 2, the brute-force
    # sum takes the nodes at lam itself
    tau, spec = complex(tau_re, tau_im), QuadratureSpec(max_evals=0)
    lam, pt = complex(lam_re, 3 * tau_im * lam_frac), ModularPoint(tau)
    # a lattice point (lam = tau + m is in range) is a pole of J
    assume(specfun.lattice_distance(lam, tau) >= specfun.DEFAULT_LATTICE_FLOOR)
    got = blocks._j_sum([BlockIndex(1, kappa, n)], [lam], pt,
                        [(spec.gauss_order, spec.graded_mesh_levels,
                          spec.loop_nodes)])
    for value, mu in zip(got[0, 0, :, 0], (lam, -lam)):
        want, scale = one_fold_brute(kappa, n, mu, tau, spec)
        assert abs(value - want) <= 1e-13 * scale, (value, want, scale)


# a small rule shape: the brute-force sum evaluates every (x, xi) point
SMALL = (8, 3, 16)


def power_bases(kind, outer_rule, inner_rule, tau, prime0):
    """(f, E(y)/y, diag, y, pos) of one section of the p = 2 layout, built
    from its rules, blocks._geometry and the array kernel: f = E(x), or
    E(x)/x on the corner loops, per outer node x; per (x, xi) point the
    coordinates y and pos and diag = E(d)/d at the corners, E(x - y) on the
    right half."""
    x = outer_rule.nodes
    f = specfun._theta1_array(x, tau) / prime0
    if outer_rule.n_loop:
        f = f / x
    y, d, pos = blocks._geometry(kind, x[:, None], inner_rule.nodes)
    e_y = specfun._theta1_array(y, tau) / (y * prime0)
    diag = specfun._theta1_array(d, tau) / prime0
    if kind != "half":
        diag = diag / d
    return f, e_y, diag, y, pos


def two_fold_brute(idx, lam, tau, shape=SMALL, corners_only=False):
    """Rows (sigma, s) of the half shapes' integrals at sigma lam, columns
    (corner loops' numerator, its b-derivative at kappa = 6, the corner-free
    sections), summed point by point over the rules of the p = 2 layout at
    one rule shape, theta1 at -sigma s lam + y and at -sigma flip s lam + x,
    and each column's sum of |terms|; with corners_only, the corner sections
    (whose outer rule has loop nodes) alone.  Every weight and the kappa = 6
    logs are built here from the rules and power_bases: outer w e^(b log)
    f^(b-1) and inner w e^(b log) (E(y)/y)^(b-1) diag^g, all powers
    principal (test_two_fold_power_bases_stay_in_the_right_half_plane)."""
    kappa, n = idx.kappa, idx.reduced_n
    b, g = -4.0 / kappa, 2.0 / kappa
    wind = loop_winding(b - 1.0)
    pt = ModularPoint(tau)
    div, prime0 = theta1(lam, pt) ** 2, theta1(0.0, pt, d_lambda=1)
    rows, scales = np.zeros((4, 3), complex), np.zeros((4, 3))
    for kind, flip, outer_rule, inner_rule in blocks._p2_layout(
            tau, *shape, kappa)[0]:
        x, n_loop = outer_rule.nodes, inner_rule.n_loop
        corner = outer_rule.n_loop > 0
        if corners_only and not corner:
            continue
        f, e_y, diag, y, pos = power_bases(kind, outer_rule, inner_rule, tau,
                                           prime0)
        outer_w = outer_rule.weights * np.exp(b * outer_rule.logs) * f ** (b - 1)
        outer_logs = outer_rule.logs + np.log(f)
        tensor = (inner_rule.weights * np.exp(b * inner_rule.logs)
                  * e_y ** (b - 1) * diag ** g)
        # the kappa = 6 corner sections also carry the b-derivative's logs
        tensor_logs = (inner_rule.logs + np.log(e_y)
                       if corner and kappa == 6 else None)
        for row, (sigma, s) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
            y_arg = -sigma * s * lam + y
            th_y = specfun._theta1_array(y_arg, tau)
            lev_arg = sigma * lam + s * g * (pos + y)
            lev = specfun._theta_level_array(kappa, n, lev_arg, tau)
            if s < 0:
                lev = lev * cmath.exp(4j * math.pi * n / kappa)
            inner = tensor * th_y * lev
            inner_abs = (np.abs(tensor) * theta1_scale(y_arg, tau)
                         * level_scale(kappa, n, lev_arg, tau))
            xi_b = inner[:, :n_loop].sum(axis=1) / wind + inner[:, n_loop:].sum(axis=1)
            xi_abs = inner_abs.sum(axis=1) / min(1.0, abs(wind))
            x_arg = -sigma * flip * s * lam + x
            outer = outer_w * specfun._theta1_array(x_arg, tau)
            outer_abs = np.abs(outer_w) * theta1_scale(x_arg, tau)
            col = 0 if corner else 2
            rows[row, col] += np.sum(outer * xi_b) / div
            scales[row, col] += np.sum(outer_abs * xi_abs) / abs(div)
            if tensor_logs is not None:
                logs = inner * tensor_logs
                slope = (logs[:, :n_loop].sum(axis=1) / wind
                         + logs[:, n_loop:].sum(axis=1)
                         - inner[:, :n_loop].sum(axis=1) * 2j * math.pi
                         * (wind + 1.0) / wind ** 2)
                rows[row, 1] += np.sum(outer * (outer_logs * xi_b + slope)) / div
                logs_abs = (inner_abs * (np.abs(tensor_logs) + 2 * math.pi
                                         * abs(wind + 1.0) / abs(wind) ** 2))
                scales[row, 1] += np.sum(outer_abs * (
                    np.abs(outer_logs) * xi_abs
                    + logs_abs.sum(axis=1) / min(1.0, abs(wind)))) / abs(div)
    return rows, scales


def fold_half_shapes(kappa, rows, scales):
    """(J(lam), J(-lam)) from two_fold_brute's rows, and their sums of
    |terms| folded the same way in absolute values: the pair branch e^(-i
    pi g) times the sum over s of the corner numerator over W(b) =
    loop_winding(2b + g - 1) plus the corner-free sections; at kappa = 6,
    where W(b) vanishes, the b-derivative over W'(b) = 4 pi i e^(2 pi i
    (2b + g - 1)) in place of the numerator over W(b)."""
    b, g = -4.0 / kappa, 2.0 / kappa
    corner = 2 * b + g - 1.0
    col, wind = ((1, 4j * math.pi * cmath.exp(2j * math.pi * corner))
                 if kappa == 6 else (0, loop_winding(corner)))
    values = (rows[:, col] / wind + rows[:, 2]).reshape(2, 2).sum(axis=1)
    sizes = (scales[:, col] / abs(wind) + scales[:, 2]).reshape(2, 2).sum(axis=1)
    return cmath.exp(-1j * math.pi * g) * values, sizes


@given(kappa=st.integers(6, 12), n=st.integers(0, 23),
       tau_re=st.floats(-1.0, 1.0), tau_im=st.floats(0.5, 1.5),
       lam_re=st.floats(0.05, 0.95), lam_frac=st.floats(-0.5, 0.5))
# kappa = 6 at n = 1, where the b-derivative's inner logs move J by half
@example(kappa=6, n=1, tau_re=0.0, tau_im=0.9, lam_re=0.3, lam_frac=0.0)
# off the axis, on the strip's edge and inside it
@example(kappa=8, n=4, tau_re=0.3, tau_im=0.9, lam_re=0.41, lam_frac=0.5)
@example(kappa=6, n=3, tau_re=-0.7, tau_im=0.5, lam_re=0.2, lam_frac=-0.2)
@settings(max_examples=12, deadline=None)
def test_two_fold_moment_pass_matches_brute_force(kappa, n, tau_re, tau_im,
                                                  lam_re, lam_frac):
    # real and complex lambda in the strip |Im lam| <= Im tau / 2, where the
    # pass folds nothing, over random tau and (kappa, n), both entries of
    # the pass pair; folded points are checked against the closed forms
    # (test_two_fold_verifies_off_the_axis): at k = 3 the brute-force sum
    # itself loses digits
    tau = complex(tau_re, tau_im)
    idx, pt = BlockIndex(2, kappa, n), ModularPoint(tau)
    lam = complex(lam_re, lam_frac * tau_im)
    # a lattice point (lam = 0 or 1) is a pole of J
    assume(specfun.lattice_distance(lam, tau) >= specfun.DEFAULT_LATTICE_FLOOR)
    got = blocks._j_sum([idx], [lam], pt, [SMALL])[0, 0, :, 0]
    want, scales = fold_half_shapes(kappa, *two_fold_brute(idx, lam, tau))
    assert np.all(np.abs(np.array(got) - want) <= 1e-13 * scales), (
        (np.array(got) - want) / scales)


@pytest.mark.parametrize("tau,inside", [
    (0.2j, True), (0.5 + 0.2j, True), (-0.7 + 0.5j, True), (0.3 + 0.9j, True),
    (0.5 + 0.3j, True), (0.5 + 0.15j, False)])
def test_two_fold_power_bases_stay_in_the_right_half_plane(tau, inside):
    # the p = 2 pass takes every power on its principal branch, which is its
    # continuation along the rules while the base keeps Re > 0: each base
    # starts at 1 (E(x)/x, E(y)/y, E(d)/d) or on the positive axis (E(x) at
    # small x, E(x - y) at small x - y), and the right half plane holds no
    # branch cut.
    # The smallest cos arg over the bases of both rule shapes reads 0.815,
    # 0.739, 0.876, 0.945 and 0.925 at the taus inside; at 0.5 + 0.15i it
    # falls to -0.28, where identity 4's report already fails
    # (test_the_coarse_refined_check_marks_the_two_fold_floor_in_im_tau)
    pt, quad = ModularPoint(tau), QuadratureSpec()
    prime0 = theta1(0.0, pt, d_lambda=1)
    lowest = min(
        float(np.min(base.real / np.abs(base)))
        for spec in (quad, quad.refined())
        for kind, _, outer, inner in blocks._p2_layout(
            tau, spec.gauss_order, spec.graded_mesh_levels, spec.loop_nodes,
            8)[0]
        for base in power_bases(kind, outer, inner, tau, prime0)[:3])
    assert (lowest > 0.0) is inside, lowest


def test_dead_indices_vanish():
    scale = abs(u_block(BlockIndex(1, 5, 2), LAM, PT).value)
    for kappa, n in [(4, 1), (5, 1)]:
        dead = u_block(BlockIndex(1, kappa, n), LAM, PT).value
        assert abs(dead) < 1e-8 * scale


# The kappa = 6 pass pair (J(LAM), J(-LAM)) at n = 1, a dead index where
# dropping the b-derivative's inner logs moves J(LAM) to 17.28 + 12.10i,
# recorded from the default-spec pass before the p = 2 tables were folded
# into the moment build with
#   PYTHONPATH=src python3 -c "from elliptic_selberg import blocks;
#   from elliptic_selberg.blocks import BlockIndex, QuadratureSpec;
#   from elliptic_selberg.specfun import ModularPoint;
#   print(blocks._passes([BlockIndex(2, 6, 1)], [0.3 + 0j],
#   ModularPoint(0.9j), (QuadratureSpec(),))[0][0][0, :, 0].tolist())"
P2_KAPPA6_N1 = (37.325928854157766 - 4.9701886760949864e-14j,
                37.325928854157794 - 7.069322615343851e-15j)


def test_kappa_six_pass_is_pinned_where_its_inner_logs_count():
    got, _ = one_value(BlockIndex(2, 6, 1), LAM, PT, QuadratureSpec())
    for value, want in zip(got, P2_KAPPA6_N1):
        assert abs(value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [1, 2])
def test_two_fold_dead_indices_vanish_at_the_integer_corner(n):
    # block_constant(2, 6, n) is 0 for n = 1, 2, so J(LAM) = J(-LAM) there;
    # the kappa = 6 limit's b-derivative needs the winding term of its
    # corner loops to keep that (without it u reaches a quarter to a half of
    # J), a term that vanishes at n = 3
    value, _ = one_value(BlockIndex(2, 6, n), LAM, PT, QuadratureSpec())
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
    # within the floor 1e-6 of the lattice points 0 and 1
    for lam in (1e-9, 1.0 + 1e-9):
        with pytest.raises(PoleProximity,
                           match=r"^block argument .* \(floor 1.0e-06\)$"):
            u_block(BlockIndex(1, 4, 2), lam, PT)


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
        got, _ = one_value(BlockIndex(2, kappa, n), LAM, PT, spec)
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
        got, points = one_value(BlockIndex(2, kappa, n), LAM,
                                ModularPoint(tau), quad)
        for value, want in zip(got, wants):
            assert abs(value - want) <= 1e-12 * abs(want), (tau, kappa, n)
        assert points == 192_000


def test_two_fold_tables_are_reused(monkeypatch):
    # a second lambda at the same (tau, rule shape, kappa, n), under another
    # point cap, builds no table and hands the array kernel only the
    # divisor theta1(+-lam) of each pass
    idx = BlockIndex(2, 8, 4)
    u_block(idx, LAM, PT)
    builds = blocks._p2_moments.cache_info().misses
    calls, points = _count_kernels(monkeypatch)
    one_value(idx, 0.41, PT, QuadratureSpec(max_evals=100_000_000))
    assert (calls, points) == WARM_PASS
    u_block(idx, 0.41, PT, QuadratureSpec(max_evals=100_000_000))
    assert blocks._p2_moments.cache_info().misses == builds


@pytest.mark.parametrize("tau", [0.9j, 0.6j])
@pytest.mark.parametrize("n", [1, 3])
def test_kappa_six_corner_numerators_cancel(tau, n):
    # at kappa = 6 the corner exponent 2b + g - 1 is -2 and loop_winding
    # vanishes there; the value is a finite limit only because the two half
    # shapes' corner numerators cancel at the base exponent, at +lam (rows 0
    # and 1) and at -lam (rows 2 and 3), summed point by point on the
    # default rule shape
    quad = QuadratureSpec()
    rows, _ = two_fold_brute(BlockIndex(2, 6, n), 0.3, tau, (
        quad.gauss_order, quad.graded_mesh_levels, quad.loop_nodes),
        corners_only=True)
    for n_plus, n_minus in (rows[0:2, 0], rows[2:4, 0]):
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
    blocks._sum_vectors.cache_clear()
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
    blocks._sum_vectors.cache_clear()
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
    for cached in (blocks._p2_moments, blocks._sum_vectors, blocks._p2_layout,
                   blocks._p2_reach, blocks._inner_rule, blocks._outer_rules):
        cached.cache_clear()
    tracemalloc.start()
    try:
        u_block(BlockIndex(2, 8, 4), LAM, PT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks._p2_moments.cache_info().misses == 2
    assert peak < 8e6, peak


def test_two_fold_layout_is_built_once_per_tau_rule_shape_and_kappa():
    # the point count, the term-count reach sweep and the moment build of
    # both passes read one cached layout per spec; another n at the same
    # kappa builds new moment tables on the same layouts
    for cached in (blocks._p2_layout, blocks._p2_reach, blocks._p2_moments,
                   blocks._sum_vectors):
        cached.cache_clear()
    u_block(BlockIndex(2, 8, 4), LAM, PT)
    u_block(BlockIndex(2, 8, 2), 0.41, PT)
    info = blocks._p2_layout.cache_info()
    assert info.misses == 2 and info.currsize == 2
    # each u_block reads each layout for its count and its moment build; the
    # first also for the reach sweep, which is cached on its own
    assert info.hits >= 6
    assert blocks._p2_reach.cache_info().misses == 2


@pytest.mark.parametrize("ident,tau,grid", [
    (4, 0.3 + 0.9j, (0.3, 0.41 + 0.1j)),
    (1, 0.3 + 0.9j, (0.3, 0.41 + 0.1j)),
    (4, -0.7 + 0.5j, (0.2 + 0.05j,)),
    (7, 1 + 0.9j, (0.3 + 0.2j,)),
    (8, 0.9j, (0.3 + 0.45j, 0.55 - 1.2j)),
    (10, 0.2 + 0.7j, None),
    # three periods out, folded by 3 tau onto the partner label
    (4, 0.9j, (0.3 + 2.7j,)),
])
def test_two_fold_verifies_off_the_axis(ident, tau, grid):
    # complex lambda, folded or not, and tau off the imaginary axis take the
    # route p = 1 takes: one exponential-sum pass on the folded points
    rep = verify.verify_identity(ident, 2, lambda_grid=grid,
                                 pt=ModularPoint(tau))
    assert rep.rel_err <= 1e-13 and rep.quad_agreement <= 1e-13, (
        rep.rel_err, rep.quad_agreement)


@pytest.mark.parametrize("tau,passes", [(0.15j, False), (0.5 + 0.15j, False),
                                        (0.2j, True), (0.5 + 0.2j, True)])
def test_the_coarse_refined_check_marks_the_two_fold_floor_in_im_tau(tau,
                                                                     passes):
    # the p = 2 rules lose digits as Im tau falls, whatever Re tau: identity
    # 4 on lambda = 0.3 reads rel_err 2.0e-5 at 0.15i and 1.3e-8 at 0.5 +
    # 0.15i, and its report fails there through the block's own estimate,
    # which covers the error; at 0.2i and 0.5 + 0.2i both pass
    pt = ModularPoint(tau)
    rep = verify.verify_identity(4, 2, lambda_grid=(0.3,), pt=pt)
    u = u_block(BlockIndex(2, 8, 4), 0.3, pt)
    assert rep.passed is passes
    assert (rep.quad_agreement <= rep.tolerance) is passes
    assert rep.quad_agreement == pytest.approx(
        u.error_estimate / abs(u.value), rel=1e-3)
    assert rep.rel_err <= rep.quad_agreement


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


def _clear_block_caches():
    for cached in (blocks._family_plan, blocks._p1_nodes, blocks._p1_tables,
                   blocks._p1_moments, blocks._sum_vectors, blocks._inner_rule,
                   blocks._outer_rules, blocks._p2_layout, blocks._p2_reach,
                   blocks._p2_moments, specfun._theta1_coefs,
                   specfun._theta1_series, specfun._theta1_laurent,
                   specfun._theta_level_coefs, specfun._theta_level_series):
        cached.cache_clear()


@pytest.mark.parametrize("idx,coarse,fine", [
    (BlockIndex(1, 5, 2), 544, 1_116),
    (BlockIndex(2, 8, 4), 192_000, 756_840),
], ids=["p1-kappa5", "p2-kappa8"])
def test_budget_used_counts_the_rule_points(idx, coarse, fine):
    # a u_block reports the quadrature points of its coarse and refined
    # passes, counted from the spec, the same cold (every cache cleared)
    # and warm
    quad = QuadratureSpec()
    count = p1_points if idx.p == 1 else p2_points
    assert (count(quad), count(quad.refined())) == (coarse, fine)
    _clear_block_caches()
    assert blocks._family_plan.cache_info().currsize == 0
    for lam in (LAM, LAM, 0.41):
        assert u_block(idx, lam, PT).budget_used == coarse + fine
    # one plan of the family serves every point
    assert blocks._family_plan.cache_info().misses == 1
    assert u_block(BlockIndex(0, 5, 2), LAM, PT).budget_used == 0


def test_budget_is_enforced():
    # the cap holds each pass: between the coarse and the refined count, the
    # refined pass fails, checked before any moment table is built
    for idx, cap, moments in ((BlockIndex(1, 4, 2), 1_000, blocks._p1_moments),
                              (BlockIndex(2, 8, 4), 500_000, blocks._p2_moments)):
        moments.cache_clear()
        quad = QuadratureSpec(max_evals=cap)
        with pytest.raises(QuadratureBudgetExceeded, match=f"> {cap}$"):
            u_block(idx, LAM, PT, quad)
        assert moments.cache_info().misses == 0
        # the coarse pass alone fits under the cap
        assert one_value(idx, LAM, PT, quad)[1] <= cap


# a p = 1 block whose coarse pass has 640,160 points, 640 times its cap
OVERSIZED_P1 = ["block", "--p", "1", "--kappa", "5", "--n", "2", "--lambda",
                "0.3", "--tau", "0.9i", "--mesh-levels", "20000",
                "--max-evals", "1000"]


def test_the_cap_refuses_an_oversized_one_fold_spec_before_any_theta1(
        monkeypatch, capsys):
    # the count comes from the theta1-free nodes, so no kernel and no
    # continued log runs on the rule nodes of a refused pass
    blocks._p1_tables.cache_clear()
    calls, _ = _count_kernels(monkeypatch)
    logs = []
    for module in (blocks, specfun):
        monkeypatch.setattr(module, "continue_log",
                            lambda *args: logs.append(args))
    quad = QuadratureSpec(graded_mesh_levels=20_000, max_evals=1_000)
    with pytest.raises(QuadratureBudgetExceeded, match="640160 > 1000$"):
        u_block(BlockIndex(1, 5, 2), LAM, PT, quad)
    assert cli.main(OVERSIZED_P1) == 2
    assert "640160 > 1000" in capsys.readouterr().err
    assert logs == [] and calls["_theta1_array"] == calls["theta1"] == 0
    assert blocks._p1_tables.cache_info().misses == 0


# a p = 2 block whose coarse pass has 2.0e11 points, 2.0e8 times its cap
OVERSIZED_P2 = ["block", "--p", "2", "--kappa", "8", "--n", "4", "--lambda",
                "0.3", "--tau", "0.9i", "--mesh-levels", "20000",
                "--max-evals", "1000"]


def _count_geometry(monkeypatch) -> list:
    """The (x, xi) points handed to blocks._geometry from now on."""
    swept, geometry = [], blocks._geometry
    monkeypatch.setattr(blocks, "_geometry", lambda kind, x, xi: swept.append(
        np.size(x) * np.size(xi)) or geometry(kind, x, xi))
    return swept


def _clear_p2_rules():
    for cached in (blocks._p2_reach, blocks._p2_layout, blocks._inner_rule,
                   blocks._outer_rules):
        cached.cache_clear()


def test_the_cap_refuses_an_oversized_two_fold_spec_before_any_theta1(
        monkeypatch, capsys):
    # the count comes from the rules alone: neither the term-count reach
    # sweep (geometry on the nodes) nor any theta1 runs for a refused spec
    swept = _count_geometry(monkeypatch)
    calls, _ = _count_kernels(monkeypatch)
    quad = QuadratureSpec(graded_mesh_levels=20_000, max_evals=1_000)
    try:
        with pytest.raises(QuadratureBudgetExceeded,
                           match="204963859968 > 1000$"):
            u_block(BlockIndex(2, 8, 4), LAM, PT, quad)
        assert cli.main(OVERSIZED_P2) == 2
    finally:
        # hold the 20,000-level rules no longer than this test
        _clear_p2_rules()
    assert "204963859968 > 1000" in capsys.readouterr().err
    assert swept == [] and calls["_theta1_array"] == calls["theta1"] == 0


def test_the_two_fold_reach_sweep_is_linear_in_the_nodes(monkeypatch):
    # only loop nodes leave the real axis, so the sweep pairs the loop rows
    # with every node and the real rows with the loop only: a layout of
    # 2.1e9 points is swept over 1.0e7, not all
    swept = _count_geometry(monkeypatch)
    quad = QuadratureSpec(graded_mesh_levels=2_000)
    shape = (quad.gauss_order, quad.graded_mesh_levels, quad.loop_nodes)
    try:
        assert blocks._p2_layout(PT.tau, *shape, 8)[1] == 2064403968
        assert swept == []
        blocks._p2_reach(PT.tau, *shape, 8)
    finally:
        _clear_p2_rules()
    assert 0 < sum(swept) < 2064403968 / 100


def test_fold_counts_beyond_two_are_rejected():
    with pytest.raises(UnsupportedP):
        u_block(BlockIndex(3, 10, 4), LAM, PT)

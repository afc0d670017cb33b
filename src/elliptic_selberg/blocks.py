"""Regularized simplex integrals over the torus and the block functions
built from them.

The p-fold integral has integrand

    prod_j E(t_j)^(-2p/kappa) * prod_{j<k} E(t_j - t_k)^(2/kappa)
    * prod_j sigma_lam(t_j) * theta_{kappa,n}(lam + (2/kappa) sum_j t_j)

over the ordered simplex 0 <= t_p <= ... <= t_1 <= 1, defined by analytic
continuation in the exponents.  Realizations:

* p = 0: the empty integral, exactly the level-kappa theta value.
* p = 1: endpoint exponents a = b-1 with b = -2/kappa; continuation by
  first-order Taylor subtraction on windows [0, delta], [1-delta, 1] plus the
  closed-form finite parts, or by endpoint circle integrals (method
  "contour"); both agree and realize the same continuation.
* p = 2: the simplex is split along the anti-diagonal t1 + t2 = 1 and the
  upper piece is reflected by (t1, t2) -> (1 - t2, 1 - t1), which maps it
  onto the lower shape {0 <= y <= min(x, 1-x)}.  In that presentation every
  singular boundary carries a pure power: y -> 0 goes like y^(b-1), and the
  collapsing corners x -> 0, x -> 1 go like x^A with A = 2b + g - 1
  (g = 2/kappa).  Fractional powers are continued with endpoint circle
  integrals; the integrable diagonal factor (x-y)^g is absorbed into a
  Gauss-Jacobi weight.  At kappa = 6 the corner exponent A is the integer -2
  and the circle formula degenerates, so the value is obtained by sampling
  the integral at shifted exponents b + s and interpolating back to s = 0
  (the integral is analytic in b there); this is the same continuation in
  exponents that defines the integral in the first place.

Both quadratures tabulate first and assemble second.  At p = 1 everything
that does not depend on lambda (the nodes, theta1 on them, the continued log
of E and its winding) is cached per (tau, spec, window depth), and each
lambda adds one theta1 and one level-theta call on stacked arguments.  At
p = 2 each section's outer x nodes and inner xi nodes form one tensor, the
theta factors are evaluated on chunks of it in a few kernel calls, and the
exponent b enters last as exp(b * log) of the tabulated principal logs, so
the shifted samples at kappa = 6 share one tabulation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import OutOfSupportedRange, UnsupportedP
from .quadrature import (
    EvalBudget,
    QuadratureSpec,
    endpoint_loop_nodes,
    fp_power_term,
    graded_nodes,
    levels_for_exponent,
    loop_winding,
    panel_nodes,
)
from .selberg import SelbergParams, selberg_value
from . import specfun
from .specfun import (
    DEFAULT_LATTICE_FLOOR,
    DEFAULT_TRUNC,
    EllipticArgument,
    ModularPoint,
    continue_log,
)

__all__ = [
    "BlockIndex",
    "BlockValue",
    "QuadratureSpec",
    "j_integral",
    "u_block",
    "leading_term_constant",
]

# exponent offsets used to interpolate across integer corner exponents
_SHIFT_SAMPLES = (-0.12, -0.09, -0.06, -0.03, 0.03, 0.06, 0.09, 0.12)
# p = 2 inner geometry: radius of the xi loops, and the split between the
# Gauss-Legendre panel and the Gauss-Jacobi tail of the corner integrals
_INNER_RADIUS = 0.3
_JACOBI_SPLIT = 0.6
# inner points tabulated per kernel call: enough to amortise the per-call
# cost, few enough to keep the transient tensors to a few megabytes
_CHUNK_POINTS = 4096


@dataclass(frozen=True)
class BlockIndex:
    """Label (p, kappa, n) of a block; n only matters mod 2*kappa."""

    p: int
    kappa: int
    n: int

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be non-negative")
        if self.kappa < 2 * self.p + 2:
            raise ValueError("kappa must be at least 2p+2")

    @property
    def reduced_n(self) -> int:
        return self.n % (2 * self.kappa)


@dataclass(frozen=True)
class BlockValue:
    """Numerical value with a mesh-comparison error estimate (not a bound)."""

    value: complex
    error_estimate: float
    budget_used: int


class _Kernel:
    """Vectorized torus factors at a fixed modular point and block argument.

    Wraps the array engines of the special-function module; every method
    accepts numpy arrays of (complex) arguments and charges the budget for
    each point.  theta1(lam) and theta1'(0) are computed once, here.
    """

    def __init__(self, pt: ModularPoint, lam: complex, budget: EvalBudget):
        self.pt = pt
        self.lam = lam
        self.budget = budget
        self.trunc = DEFAULT_TRUNC
        self.theta1_prime0 = specfun.theta1(0.0, pt, d_lambda=1)
        self.theta1_lam = specfun.theta1(lam, pt)

    def _t1(self, z, d_lambda=0):
        z = np.asarray(z, dtype=complex)
        self.budget.charge(z.size)
        return specfun._theta1_array(z, self.pt.tau, d_lambda, 0, self.trunc)

    def theta(self, kappa: int, n: int, args, d_lambda=0):
        args = np.asarray(args, dtype=complex)
        self.budget.charge(args.size)
        return specfun._theta_level_array(kappa, n, args, self.pt.tau,
                                          d_lambda, 0, self.trunc)


# ---------------------------------------------------------------------------
# p = 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _P1Tables:
    """The lambda-independent part of a p = 1 quadrature pass.

    mid_*: the middle path [lo, hi] with its weights, theta1 on it, and the
    log of E = theta1 / theta1'(0) continued rightward from the principal
    branch at lo; k_wind is the winding of that log against the principal
    log at the right anchor 1 - hi.  win_*: the endpoint rule, either the
    graded window [0, delta] (subtraction) or the endpoint circle with dt
    weights and the log of t continued from arg 0 (contour), with theta1 at
    +node and -node in the rows of win_theta.  evals: what one pass charges
    to the budget, the same whether or not the tables were cached: four
    factor evaluations per middle node (E, theta1 twice in sigma, the level
    theta), one at the right anchor, and four per endpoint node and side
    ((E(t)/t), theta1 twice in t sigma(t), the level theta), plus one per
    circle node and side for contours.
    """

    theta1_prime0: complex
    mid_nodes: np.ndarray
    mid_weights: np.ndarray
    mid_theta: np.ndarray
    mid_logs: np.ndarray
    k_wind: int
    win_nodes: np.ndarray
    win_weights: np.ndarray
    win_logs: np.ndarray | None
    win_theta: np.ndarray
    evals: int


@lru_cache(maxsize=64)
def _p1_tables(tau: complex, quad: QuadratureSpec, depth: int) -> _P1Tables:
    """Tables at one (tau, spec, window depth); contours ignore the depth."""
    pt = ModularPoint(tau)
    theta1_prime0 = specfun.theta1(0.0, pt, d_lambda=1)
    delta = quad.endpoint_delta
    if quad.method == "contour":
        r = quad.loop_radius_factor * delta
        win, win_w, phi = endpoint_loop_nodes(r, quad.loop_nodes)
        win_logs = math.log(r) + 1j * phi
        lo, hi = r, 1 - r
        win_evals = 10
    else:
        win, win_w = graded_nodes(0.0, delta, depth, quad.gauss_order, "left")
        win_logs = None
        lo, hi = delta, 1 - delta
        win_evals = 8
    levels = max(quad.graded_mesh_levels, 10)
    ts1, ws1 = graded_nodes(lo, 0.5, levels, quad.gauss_order, "left")
    ts2, ws2 = graded_nodes(0.5, hi, levels, quad.gauss_order, "right")
    mid = np.concatenate([ts1, ts2])
    th = specfun._theta1_array(np.append(mid, 1 - mid[-1]).astype(complex), tau)
    mid_theta = th[:-1]
    logs = continue_log(mid_theta / theta1_prime0)
    princ_right = cmath.log(complex((th[-1:] / theta1_prime0)[0]))
    k_wind = round(((logs[-1] - princ_right) / (2j * cmath.pi)).real)
    win_theta = specfun._theta1_array(
        np.concatenate([win, -win]).astype(complex), tau).reshape(2, -1)
    evals = 4 * mid.size + 1 + win_evals * win.size
    arrays = [mid, np.concatenate([ws1, ws2]), mid_theta, logs, win, win_w,
              win_logs, win_theta]
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)
    return _P1Tables(theta1_prime0, *arrays[:4], k_wind, *arrays[4:], evals)


def _j_p1(idx: BlockIndex, lam: complex, pt: ModularPoint,
          quad: QuadratureSpec, budget: EvalBudget) -> complex:
    """Middle path plus two endpoint pieces, assembled on _p1_tables.

    Per lambda this takes one theta1 call on [lam - mid, lam - win,
    lam + win], one level-theta call on the matching arguments and
    theta1(lam); the subtraction adds theta1'(lam) and the level-theta Taylor
    data at lam and lam + 2/kappa.  Those stay scalar calls: numpy rounds
    products of 0-d results differently from array products, and the window
    sums amplify a last-bit change in them to a few times 1e-12.
    """
    kappa, n = idx.kappa, idx.reduced_n
    b = -2.0 / kappa
    a = b - 1.0
    two_over_k = 2.0 / kappa
    delta = quad.endpoint_delta
    contour = quad.method == "contour"
    depth = 0 if contour else max(quad.graded_mesh_levels,
                                  levels_for_exponent(a + 2.0))
    tab = _p1_tables(pt.tau, quad, depth)
    budget.charge(tab.evals)
    mid, win = tab.mid_nodes, tab.win_nodes
    split = (mid.size, mid.size + win.size)
    prime0 = tab.theta1_prime0
    th_lam = specfun.theta1(lam, pt)
    th_lm, th_lw, th_lw_neg = np.split(specfun._theta1_array(
        np.concatenate([lam - mid, lam - win, lam + win]), pt.tau), split)
    lev_m, lev_l, lev_r = np.split(specfun._theta_level_array(
        kappa, n, np.concatenate([lam + two_over_k * mid,
                                  lam + two_over_k * win,
                                  lam + two_over_k * (1.0 - win)]), pt.tau),
        split)

    # middle: E^b on the continued log of E, times sigma and the level theta
    sig = th_lm * prime0 / (th_lam * tab.mid_theta)
    middle = complex(np.sum(np.exp(b * tab.mid_logs) * sig * lev_m
                            * tab.mid_weights))
    right_phase = cmath.exp(2j * cmath.pi * b * tab.k_wind)

    # endpoint cofactors (E(t)/t)^b * t sigma(t) * theta(lam + (2/k) t), and
    # at t = 1 - s, by E(1-s) = E(s) and sigma(1-s) = sigma(-s), the same
    # with -s sigma(-s) and theta(lam + (2/k)(1 - s)); principal powers
    th_w, th_w_neg = tab.win_theta
    e_over_z_b = (th_w / (win * prime0)) ** b
    cof_left = e_over_z_b * (th_lw * prime0 * win / (th_lam * th_w)) * lev_l
    cof_right = (e_over_z_b * (-(th_lw_neg * prime0 * -win / (th_lam * th_w_neg)))
                 * lev_r)

    if contour:
        powers = np.exp(a * tab.win_logs)
        wind = loop_winding(a)
        left = complex(np.sum(powers * cof_left * tab.win_weights) / wind)
        right = complex(np.sum(powers * cof_right * tab.win_weights) / wind)
        return left + middle + right_phase * right

    # subtraction method: first-order Taylor of the cofactors
    th0 = specfun.theta_level(kappa, n, lam, pt)
    th0p = specfun.theta_level(kappa, n, lam, pt, d_lambda=1)
    th1 = specfun.theta_level(kappa, n, lam + two_over_k, pt)
    th1p = specfun.theta_level(kappa, n, lam + two_over_k, pt, d_lambda=1)
    rho = specfun.theta1(lam, pt, d_lambda=1) / th_lam
    h0_l, h1_l = th0, -rho * th0 + two_over_k * th0p
    h0_r, h1_r = -th1, -(rho * th1 - two_over_k * th1p)
    if quad.subtraction_order == 0:
        h1_l = h1_r = 0.0
    powers = win.astype(complex) ** a

    def window(cofactor, h0, h1):
        resid = cofactor - h0 - h1 * win
        total = complex(np.sum(powers * resid * tab.win_weights))
        return total + (h0 * fp_power_term(a, delta)
                        + h1 * fp_power_term(a + 1, delta))

    return (window(cof_left, h0_l, h1_l) + middle
            + right_phase * window(cof_right, h0_r, h1_r))


# ---------------------------------------------------------------------------
# p = 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Rule:
    """Nodes and weights for integrands whose exponent b is applied last.

    A node contributes weight * exp(b * log) * h(node).  The weights carry
    every b-independent factor of the rule (1/t on the inner xi rules,
    x^(g-1) on the corner loops); logs holds the b-dependent power on its
    continued branch (log t for t^b, 2 log x for the corner x^(2b),
    log(1 - x) for (1 - x)^b).  The first n_loop nodes lie on an endpoint
    circle, whose part of the sum is divided by the loop winding of the
    exponent.
    """

    nodes: np.ndarray
    weights: np.ndarray
    logs: np.ndarray
    n_loop: int


def _frozen_rule(nodes, weights, logs, n_loop) -> _Rule:
    arrays = [np.asarray(a, dtype=complex) for a in (nodes, weights, logs)]
    for a in arrays:
        a.setflags(write=False)
    return _Rule(*arrays, n_loop)


@lru_cache(maxsize=32)
def _inner_rule(kind: str, order: int, levels: int, loop_nodes: int,
                g: float) -> _Rule:
    """xi rule of the inner integral Xi = FP int_0^1 xi^(b-1) psi(xi) dxi.

    kind "left" (corner x -> 0): loop, Gauss panel up to the split and a
    Gauss-Jacobi tail whose weight absorbs (1-xi)^g; the weights carry
    (1-xi)^g elsewhere.  kind "right" (corner x -> 1): loop and a mesh graded
    toward xi = 1, weights carrying the analytic (1+xi)^g.  kind "half"
    (real x in (1/2, 1)): loop and graded mesh, no diagonal factor.
    """
    r = _INNER_RADIUS
    t, dt, phi = endpoint_loop_nodes(r, loop_nodes)
    if kind == "left":
        xc = _JACOBI_SPLIT
        xs, ws = panel_nodes(r, xc, order * 2)
        jac, jw = roots_jacobi(order * 2, g, 0.0)
        xi_j = 0.5 * (xc + 1.0) + 0.5 * (1.0 - xc) * jac
        nodes = np.concatenate([t, xs, xi_j])
        weights = np.concatenate([dt * (1.0 - t) ** g, ws * (1.0 - xs) ** g,
                                  ((1.0 - xc) / 2.0) ** (1.0 + g) * jw])
    else:
        xs, ws = graded_nodes(r, 1.0, levels, order, "right")
        nodes = np.concatenate([t, xs])
        weights = np.concatenate([dt, ws])
        if kind == "right":
            weights = weights * (1.0 + nodes) ** g
    logs = np.concatenate([math.log(r) + 1j * phi, np.log(nodes[t.size:].real)])
    return _frozen_rule(nodes, weights / nodes, logs, t.size)


@lru_cache(maxsize=16)
def _outer_rules(order: int, levels: int, loop_nodes: int, r_out: float,
                 g: float) -> tuple:
    """The x rules of one half shape: corner loop, left and right sections.

    Corner loops (x -> 0 and, in w = 1 - x, x -> 1) carry the power
    x^A = x^(2b) x^(g-1); the left sections carry x^(b+g) from the inner ray
    coordinates and the right sections m^b with m = 1 - x.  The inner range
    switches form at the kink x = 1/2, so each section is graded toward both
    of its ends.
    """
    t, dt, phi = endpoint_loop_nodes(r_out, loop_nodes)
    ell = math.log(r_out) + 1j * phi
    corner = _frozen_rule(t, dt * np.exp((g - 1.0) * ell), 2.0 * ell, t.size)

    def two_graded(a, mid, b):
        lo = graded_nodes(a, mid, levels, order, "left")
        hi = graded_nodes(mid, b, levels, order, "right")
        return np.concatenate([lo[0], hi[0]]), np.concatenate([lo[1], hi[1]])

    xs, ws = two_graded(r_out, 0.5 * (r_out + 0.5), 0.5)
    left = _frozen_rule(xs, ws * xs ** g, np.log(xs), 0)
    xs, ws = two_graded(0.5, 0.5 * (0.5 + 1.0 - r_out), 1.0 - r_out)
    right = _frozen_rule(xs, ws, np.log(1.0 - xs), 0)
    return corner, left, right


def _inner_integrals(ker: _Kernel, kind: str, rule: _Rule, x, s_sign, mu, nu,
                     g, kappa, n, bs) -> np.ndarray:
    """Xi_b(x) for every outer node x and exponent b, shape (len(bs), len(x)).

    psi(xi) = (E(y)/y)^b * s y sigma(s y) * diag * theta_{kappa,n}(mu + nu (pos + y))
    with y = x xi (corners) or (1 - x) xi (right half).  The diagonal factor
    is (E(d)/d)^g with d = x (1 - xi) at the x -> 0 corner and d = w (1 + xi)
    at the x -> 1 corner (x is then the distance w to 1, pos = 1 - w), and
    E(x - y)^g on the right half; every power base stays close to 1 or on
    the positive axis, so all powers are principal.  The x -> 0 corner's
    (1-xi)^g and the x -> 1 corner's (1+xi)^g sit in the rule weights.
    """
    xi = rule.nodes
    wind = [loop_winding(b - 1.0) for b in bs]
    out = np.empty((len(bs), x.size), dtype=complex)
    step = max(1, _CHUNK_POINTS // xi.size)
    for lo in range(0, x.size, step):
        xc = x[lo:lo + step, None]
        if kind == "left":
            y, d, pos = xc * xi, xc * (1.0 - xi), xc
        elif kind == "right":
            y, d, pos = xc * xi, xc * (1.0 + xi), 1.0 - xc
        else:
            y = (1.0 - xc) * xi
            d, pos = xc - y, xc
        th_y, th_ly, th_d = ker._t1(np.stack([y, ker.lam - s_sign * y, d]))
        log_ez = np.log(th_y / (y * ker.theta1_prime0))
        diag = th_d / ker.theta1_prime0
        if kind != "half":
            diag = diag / d
        # (E(y)/y)^b * s y sigma(s y) * diag^g
        #     = s theta1(lam - s y) / theta1(lam) * exp((b-1) log_ez + g log diag)
        vals = (rule.weights * (s_sign / ker.theta1_lam) * th_ly
                * ker.theta(kappa, n, mu + nu * (pos + y)))
        logs = rule.logs + log_ez
        base = g * np.log(diag) - log_ez
        for k, b in enumerate(bs):
            terms = vals * np.exp(b * logs + base)
            out[k, lo:lo + step] = (terms[:, :rule.n_loop].sum(axis=1) / wind[k]
                                    + terms[:, rule.n_loop:].sum(axis=1))
    return out


def _outer_integral(ker: _Kernel, rule: _Rule, sign, over_z: bool, inner,
                    bs) -> np.ndarray:
    """sum over the x nodes of E(x)^b sign sigma(sign x) Xi_b(x), one per b.

    over_z: the loop form, with (E(x)/x)^b and the pole-free x sigma.
    """
    x = rule.nodes
    th_x, th_lx = ker._t1(np.stack([x, ker.lam - sign * x]))
    f = th_x / ker.theta1_prime0
    if over_z:
        f = f / x
    log_f = np.log(f)
    vals = rule.weights * (sign / ker.theta1_lam) * th_lx
    logs = rule.logs + log_f
    return np.array([np.sum(vals * np.exp(b * logs - log_f) * inner[k])
                     for k, b in enumerate(bs)])


def _half_shape_integral(ker: _Kernel, s_sign, mu, nu, g, kappa, n, bs,
                         quad: QuadratureSpec, r_out: float) -> np.ndarray:
    """Integral over {0 <= y <= min(x, 1-x)} of one reflected-part integrand.

    Integrand: E(x)^b E(y)^b E(x-y)^g sigma(s x) sigma(s y)
    theta_{kappa,n}(mu + nu (x+y)); corners x -> 0 and x -> 1 are continued
    via circle integrals with exponent A = 2b + g - 1.  One value per b.
    """
    rules = (quad.gauss_order, quad.graded_mesh_levels, quad.loop_nodes)
    corner, left, right = _outer_rules(*rules, r_out, g)
    wind = np.array([loop_winding(2 * b + g - 1.0) for b in bs])

    def part(kind, rule, sign, over_z):
        inner = _inner_integrals(ker, kind, _inner_rule(kind, *rules, g),
                                 rule.nodes, s_sign, mu, nu, g, kappa, n, bs)
        return _outer_integral(ker, rule, sign, over_z, inner, bs)

    # sigma(s (1 - w)) = sigma(-s w) by 1-periodicity at the x -> 1 corner
    return ((part("left", corner, s_sign, True)
             + part("right", corner, -s_sign, True)) / wind
            + part("left", left, s_sign, False)
            + part("half", right, s_sign, False))


def _j_p2(idx: BlockIndex, lam: complex, pt: ModularPoint,
          quad: QuadratureSpec, budget: EvalBudget) -> complex:
    if abs(complex(lam).imag) > 1e-12 or abs(pt.tau.real) > 1e-12:
        raise OutOfSupportedRange(
            "the two-fold integral is wired for real lambda and purely "
            "imaginary tau only")
    lam = float(complex(lam).real)
    kappa, n = idx.kappa, idx.reduced_n
    b0 = -4.0 / kappa
    g = 2.0 / kappa
    # Branch convention for the pairwise difference factor: the ordered
    # difference is taken with argument continued to -pi rather than 0
    # (one factor of exp(-i*pi*g) per pair; a single pair here).  The
    # convention is fixed by the normalization of the closed forms and was
    # pinned down empirically at two unrelated levels to 1e-15 relative.
    pair_branch = cmath.exp(-1j * math.pi * g)
    corner = 2 * b0 + g - 1.0
    # an integer corner exponent (kappa = 6) is crossed by sampling at
    # shifted E-exponents and interpolating back; the integral is analytic
    # in b on this neighbourhood
    shifts = np.array((0.0,) if abs(corner - round(corner)) > 0.02
                      else _SHIFT_SAMPLES)
    bs = b0 + shifts
    ker = _Kernel(pt, lam, budget)
    r_out = 0.2 * min(1.0, pt.tau.imag)
    values = (_half_shape_integral(ker, +1.0, lam, 2.0 / kappa, g, kappa, n,
                                   bs, quad, r_out)
              + _half_shape_integral(ker, -1.0, lam + 4.0 / kappa,
                                     -2.0 / kappa, g, kappa, n, bs, quad, r_out))
    if shifts.size == 1:
        return pair_branch * complex(values[0])
    coeff_re = np.polynomial.polynomial.polyfit(shifts, values.real,
                                                shifts.size - 1)
    coeff_im = np.polynomial.polynomial.polyfit(shifts, values.imag,
                                                shifts.size - 1)
    return pair_branch * complex(coeff_re[0], coeff_im[0])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _as_lambda(lam, pt: ModularPoint) -> complex:
    if isinstance(lam, EllipticArgument):
        lam.require_off_lattice(DEFAULT_LATTICE_FLOOR, "block argument")
        return lam.lam
    arg = EllipticArgument.from_lambda(lam, pt)
    arg.require_off_lattice(DEFAULT_LATTICE_FLOOR, "block argument")
    return arg.lam


def _one_value(idx: BlockIndex, lam, pt: ModularPoint,
               quad: QuadratureSpec) -> tuple:
    budget = EvalBudget(quad.max_evals)
    if idx.p == 0:
        return specfun.theta_level(idx.kappa, idx.reduced_n, lam, pt), budget
    if idx.p == 1:
        return _j_p1(idx, lam, pt, quad, budget), budget
    if idx.p == 2:
        return _j_p2(idx, lam, pt, quad, budget), budget
    raise UnsupportedP(f"p = {idx.p} is beyond the implemented range (p <= 2)")


def j_integral(idx: BlockIndex, lam, pt: ModularPoint,
               quad: QuadratureSpec | None = None) -> BlockValue:
    """Regularized p-fold simplex integral J at (lam, tau).

    The error estimate compares the requested quadrature against a refined
    one (heuristic, not a bound).  p = 0 is exact.
    """
    quad = quad or QuadratureSpec()
    lam = _as_lambda(lam, pt)
    coarse, budget1 = _one_value(idx, lam, pt, quad)
    if idx.p == 0:
        return BlockValue(value=coarse, error_estimate=0.0, budget_used=0)
    fine, budget2 = _one_value(idx, lam, pt, quad.refined())
    return BlockValue(value=fine, error_estimate=abs(fine - coarse),
                      budget_used=budget1.used + budget2.used)


def u_block(idx: BlockIndex, lam, pt: ModularPoint,
            quad: QuadratureSpec | None = None) -> BlockValue:
    """The symmetrized combination J(lam) + (-1)^(p+1) J(-lam)."""
    quad = quad or QuadratureSpec()
    lam = _as_lambda(lam, pt)
    plus = j_integral(idx, lam, pt, quad)
    minus = j_integral(idx, -lam, pt, quad)
    sign = (-1) ** (idx.p + 1)
    return BlockValue(value=plus.value + sign * minus.value,
                      error_estimate=plus.error_estimate + minus.error_estimate,
                      budget_used=plus.budget_used + minus.budget_used)


def leading_term_constant(p: int) -> complex:
    """Predicted q -> 0 ratio of the kappa = 2p+2 block to theta1^(p+1).

    i^(p+1) (2 pi e^{i pi/2})^(p(p+1)/(2p+2) + p) e^{-i pi (2p^2/(2p+2) + p)}
    * (2 pi i)^(-p) prod_{j=1..p} (e^{2 pi i (j+p+1)/(2p+2)} - 1)
    * B_p((p+2)/(2p+2), -2p/(2p+2), 1/(2p+2))
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    kappa = 2 * p + 2
    expo = p * (p + 1) / kappa + p
    value = 1j ** (p + 1)
    value *= cmath.exp(expo * (math.log(2 * math.pi) + 1j * math.pi / 2))
    value *= cmath.exp(-1j * math.pi * (2 * p * p / kappa + p))
    value *= (2j * math.pi) ** (-p)
    for j in range(1, p + 1):
        value *= cmath.exp(2j * cmath.pi * (j + p + 1) / kappa) - 1.0
    value *= selberg_value(SelbergParams(
        p, (p + 2) / kappa, -2 * p / kappa, 1 / kappa))
    return value

"""Regularized simplex integrals over the torus and the block functions
built from them.

The p-fold integral has integrand

    prod_j E(t_j)^(-2p/kappa) * prod_{j<k} E(t_j - t_k)^(2/kappa)
    * prod_j sigma_lam(t_j) * theta_{kappa,n}(lam + (2/kappa) sum_j t_j)

over the ordered simplex 0 <= t_p <= ... <= t_1 <= 1, defined by analytic
continuation in the exponents.  Realizations:

* p = 0: the empty integral, exactly the level-kappa theta value.
* p = 1: endpoint exponents a = b-1 with b = -2/kappa; continuation by
  endpoint circle integrals at t = 0 and t = 1, whose radius stays inside
  the disk free of the other zeros of theta1, plus the real middle path.
* p = 2: the simplex is split along the anti-diagonal t1 + t2 = 1 and the
  upper piece is reflected by (t1, t2) -> (1 - t2, 1 - t1), which maps it
  onto the lower shape {0 <= y <= min(x, 1-x)}.  In that presentation every
  singular boundary carries a pure power: y -> 0 goes like y^(b-1), and the
  collapsing corners x -> 0, x -> 1 go like x^A with A = 2b + g - 1
  (g = 2/kappa).  Fractional powers are continued with endpoint circle
  integrals; the integrable diagonal factor (x-y)^g is absorbed into a
  Gauss-Jacobi weight.  At kappa = 6 the corner exponent A is the integer -2,
  where the circle divisor and the two half shapes' summed corner-circle
  numerators vanish together; the integral is analytic in b, and its corner
  part is the quotient of their b-derivatives (the finite part of x^A at a
  negative integer).

Every pass gives the pair (J(lam), J(-lam)), so u_block is a coarse and a
refined pass for every p.  lambda enters an integrand only through theta1
at +-lam plus a node coordinate and the level theta at +-lam plus g times
the coordinate sum.  As sums of exponentials (theta1 by its sine series)
each is a sum of lambda phases times node exponentials, and since kappa g
= 2 the level theta's are e^(4 pi i c t) times integer powers of theta1's
e^(i pi t).  So at p >= 1, J(mu) theta1(mu)^p = sum_nu f_nu e^(i pi nu mu)
over integers nu of one parity, f a cached vector: the node sums of the
weights times those exponentials, folded with the series coefficients (at
p = 2 also with the half shapes, the corner winding and the pair branch),
keyed on (tau, rule shape (the spec less its point cap), kappa, n) and the
series' term counts.  The vectors are built from lambda-independent rules:
at p = 1 the endpoint circle and middle path, whose weights and logs carry
the powers of E; at p = 2 the outer x and inner xi rules of each section,
with the weights times the powers of E per (x, xi) point.  The exponent b
enters as exp(b * log) of the tabulated logs, so the b-derivative at
kappa = 6 is the same moment sum with the log factor.

The sums are taken in the strip |Im lam| <= Im tau / 2, where their terms
fit the double range: as the theta1 ratios' e^(2 pi i k sum t) cancel the
level theta's e^(-i pi kappa g k sum t), J_{kappa,n}(lam + k tau) = e^(-i
pi kappa (k lam + k^2 tau / 2)) J_{kappa,n+k kappa}(lam) node by node.  So
lam is folded to lam - k tau, k = round(Im lam / Im tau), with the partner
label n + k kappa and that phase, and -lam to -(lam - k tau) with the same
ones; a phase beyond the double range raises OutOfSupportedRange.  Every
point takes the term counts of the strip's edge |Im lam| = Im tau / 2, which
bound the series over the whole strip.  Every p takes every lambda and tau;
Im tau bounds the accuracy (at p = 2 the coarse-vs-refined estimate of
u_{8,4}(0.3) is 1.4e-4 of it at tau = 0.15i and 7.4e-8 at 0.5 + 0.15i,
2.2e-11 at 0.2i and 1.4e-13 at 0.5 + 0.2i).

u_blocks runs the coarse and the refined pass of a family of blocks once
over a whole lambda grid (u_block_grid, u_block and j_integral are its
one-index and one-point cases), on a plan of its lambda-free part built
once per (indices, tau, spec) (_family_plan).  p = 0 takes the level
theta; every other fold count makes one pass (_j_sum): per parity of k one
divisor call theta1(+-lam), one exp of i pi nu (+-lam) over the nu of the
blocks' partners at every rule shape, and one product per block and shape,
each value bit-identical to its point's own u_block.  Warm (one thread of a
2-core VM, best of 15 runs), a six-point real grid takes about 0.07 ms at
p = 1 and 0.08 ms at p = 2 (kappa = 8), the twelve p = 1 blocks of the ten
closed forms 0.26 ms.
The first p = 2 u_block at a new (tau, rule shape, kappa, n) builds the
moment tables on the cached _p2_layout (per (tau, rule shape, kappa) the
four sections' rules and the point count; _p2_reach sweeps the term-count
reaches once a pass runs), the per-point inner weights chunk by chunk
inside the moment loop: about 0.7 s at kappa = 8 with a heap peak of about
7 MB.  The corner tails' Gauss-Jacobi rule comes from
quadrature.gauss_jacobi, so the package needs no scipy.

A pass costs the quadrature points its tables sum over, the same cold or
warm: none at p = 0; at p = 1 the circle once per end plus the middle
path; at p = 2 the outer times the inner nodes, summed over the four
sections.  The counts are read from theta1-free rules (_p1_nodes, and the
p = 2 layout), so each spec's count is checked against its max_evals
(QuadratureSpec.check_points) once per family plan and layout, before any
theta1 or p = 2 reach sweep; BlockValue.budget_used reports the count of
both passes at each point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfSupportedRange, PoleProximity, UnsupportedP
from .quadrature import (
    QuadratureSpec,
    endpoint_loop_nodes,
    # blocks.roots_jacobi is the name perfbench/spans.py traces
    gauss_jacobi as roots_jacobi,
    graded_nodes,
    loop_winding,
    panel_nodes,
)
from .selberg import SelbergParams, selberg_value
from . import specfun
from .specfun import DEFAULT_LATTICE_FLOOR, ModularPoint, continue_log

__all__ = [
    "BlockIndex",
    "BlockValue",
    "QuadratureSpec",
    "j_integral",
    "u_block",
    "u_block_grid",
    "u_blocks",
    "leading_term_constant",
]

# (x, xi) points per chunk of the p = 2 reach sweep or moment build (two
# theta1 arguments and about two dozen powers each): enough to amortise
# the per-call cost, few enough to keep the transient tensors to a few
# megabytes
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
    """Numerical value with a mesh-comparison error estimate (not a bound)
    and the quadrature points of its coarse and refined passes."""

    value: complex
    error_estimate: float
    budget_used: int


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Rule:
    """Nodes and weights for integrands whose exponent b is applied last.

    A node contributes weight * exp(b * log) * h(node).  The weights carry
    every b-independent factor of the rule (1/t on the p = 1 circle and the
    inner xi rules, x^(g-1) on the corner loops); logs holds the b-dependent
    power on its continued branch (log t for t^b, 2 log x for the corner
    x^(2b), log(1 - x) for (1 - x)^b).  The first n_loop nodes lie on an endpoint
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


def _two_graded(a: float, mid: float, b: float, levels: int,
                order: int) -> tuple:
    """Nodes and weights on [a, b], graded toward both ends from mid."""
    lo = graded_nodes(a, mid, levels, order, "left")
    hi = graded_nodes(mid, b, levels, order, "right")
    return np.concatenate([lo[0], hi[0]]), np.concatenate([lo[1], hi[1]])


# ---------------------------------------------------------------------------
# p = 1
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _p1_nodes(tau: complex, order: int, levels: int, loop_nodes: int) -> tuple:
    """The theta1-free part of the p = 1 rules: the radius r, the endpoint
    circle |t| = r as (t, dt, arg t) and the middle path [r, 1 - r] as
    (nodes, Gauss weights).  A pass sums over the circle once per end and
    over the middle path, so these fix its point count.

    The radius is half the smaller of 0.1 and the shortest nonzero period,
    so the circle around an endpoint encloses no other zero of theta1 and
    E(t)/t stays analytic and nonzero inside it.
    """
    shortest = abs(specfun._reduced_basis(tau)[0])
    r = 0.5 * min(0.1, shortest)
    circle = endpoint_loop_nodes(r, loop_nodes)
    middle = _two_graded(r, 0.5, 1 - r, max(levels, 10), order)
    for a in circle + middle:  # a cached rule hands them to every later pass
        a.setflags(write=False)
    return r, circle, middle


@lru_cache(maxsize=64)
def _p1_tables(tau: complex, order: int, levels: int, loop_nodes: int) -> tuple:
    """The endpoint circle, the middle path and max |Im| over the circle.

    The circle (dt/t weights, logs log t continued from arg 0) and the
    middle path (Gauss weights, logs 0) of _p1_nodes are returned with
    their weights divided by f and log f added to their logs, where f =
    E(t)/t on the circle with its principal log and f = E(t) on the middle
    path with the log continued rightward from the principal branch at r.
    A node of either then weighs weight * exp(b log) = w f^(b-1) t^b.
    """
    prime0 = specfun.theta1(0.0, ModularPoint(tau), d_lambda=1)
    r, (t, dt, phi), (xs, ws) = _p1_nodes(tau, order, levels, loop_nodes)
    e = specfun._theta1_array(np.concatenate([t, xs]), tau) / prime0
    f_circle, f_middle = e[:t.size] / t, e[t.size:]
    # No winding phase is needed at the right end of the middle path: for
    # real t, E(t) = sin(pi t) / pi * prod (1 - q^n e^(2 pi i t))
    # (1 - q^n e^(-2 pi i t)) / (1 - q^n)^2 with sin(pi t) > 0 and every
    # t-dependent factor in the right half plane (|q^n| < 1), so the log
    # continued along [r, 1 - r] ends on the principal log it starts from,
    # and E(1 - t) = E(t).
    circle = _frozen_rule(t, dt / t / f_circle,
                          math.log(r) + 1j * phi + np.log(f_circle), t.size)
    middle = _frozen_rule(xs, ws / f_middle, continue_log(f_middle), 0)
    return circle, middle, float(np.max(np.abs(circle.nodes.imag)))


def _series(coefs: tuple, level: tuple) -> tuple:
    """(odd, js, d, levels): theta1(z) = sum_p d_p e^(i pi p z) over the odd
    |p| < 2 len(coefs) (its sine series) and theta_{kappa,n}(z) = sum_j
    levels_j e^(2 pi i kappa (c + j) z) over |j| < len(ahead), level = (c,
    ahead, behind)."""
    _, ahead, behind = level
    odd = np.arange(1 - 2 * len(coefs), 2 * len(coefs), 2)
    js = np.arange(1 - len(ahead), len(ahead))
    d = np.concatenate([-np.array(coefs[::-1]), coefs]) / 2j
    return odd, js, d, np.array(behind[::-1] + ahead)


@lru_cache(maxsize=256)
def _p1_moments(tau: complex, order: int, levels: int, loop_nodes: int,
                kappa: int, n: int, coefs: tuple, level: tuple) -> tuple:
    """(lo, f) with J(mu) theta1(mu) = sum_k f[k] e^(i pi (lo + 2k) mu) for
    one (tau, rule shape, kappa, n) and series.

    J(mu) sums, over the nodes x of the sections (rule, flip, offset), weight
    * exp(b log) * flip theta1(mu - flip x) / theta1(mu) * theta_{kappa,n}(mu
    + (2/kappa) (offset + flip x)), the circle nodes' terms divided by
    loop_winding(b - 1).  The t = 1 circle is the t = 0 circle in s = 1 - t,
    with flip -1 and offset 1: E(1 - s) = E(s) and sigma(1 - s) = sigma(-s).
    So the sections take theta1 at mu + t and the level theta at mu + g
    (offset - t), t = -flip x.  With K[p, j] the moment at
    p - 4j, the node sum of weight e^(2 pi i n offset / kappa) e^(-4 pi i c
    t) e^(i pi (p - 4j) t), f at nu = p + n + 2 kappa j sums d_p levels_j
    K[p, j] (_series), so the integers nu have the parity of n + 1.
    """
    circle, middle, _ = _p1_tables(tau, order, levels, loop_nodes)
    b = -2.0 / kappa
    loop = circle.weights * np.exp(b * circle.logs) / loop_winding(b - 1.0)
    # t = -flip x on the t = 0 circle, the t = 1 circle and the middle path
    t = np.concatenate([-circle.nodes, circle.nodes, -middle.nodes])
    w = np.concatenate([loop, -loop * cmath.exp(2j * math.pi * n / kappa),
                        middle.weights * np.exp(b * middle.logs)])
    odd, js, d, level_coefs = _series(coefs, level)
    top = odd[-1] + 4 * js[-1]
    c = (n % (2 * kappa)) / (2.0 * kappa)
    moments = (w * np.exp(-4j * math.pi * c * t)) @ np.exp(
        1j * math.pi * np.outer(t, np.arange(-top, top + 1, 2)))
    span = odd[-1] + 2 * kappa * js[-1]
    freqs = np.zeros(span + 1, dtype=complex)
    # K[p, j] enters at nu = p + n + 2 kappa j, offset by span - n, halved
    np.add.at(freqs, (odd[:, None] + odd[-1]) // 2 + kappa * (js + js[-1]),
              moments[(odd[:, None] - 4 * js + top) // 2]
              * np.outer(d, level_coefs))
    freqs.setflags(write=False)  # a cached table hands it to every later pass
    return n % (2 * kappa) - span, freqs


# ---------------------------------------------------------------------------
# p = 2
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _inner_rule(kind: str, order: int, levels: int, loop_nodes: int,
                g: float, r: float, split: float) -> _Rule:
    """xi rule of the inner integral Xi = FP int_0^1 xi^(b-1) psi(xi) dxi.

    Every kind starts with the loop |xi| = r.  kind "left" (corner x -> 0):
    then a Gauss panel up to split and a Gauss-Jacobi tail whose weight
    absorbs (1-xi)^g; the weights carry (1-xi)^g elsewhere.  kind "right"
    (corner x -> 1): then a mesh graded toward xi = 1, weights carrying the
    analytic (1+xi)^g.  kind "half" (real x in (1/2, 1)): then a graded
    mesh, no diagonal factor.
    """
    t, dt, phi = endpoint_loop_nodes(r, loop_nodes)
    if kind == "left":
        xs, ws = panel_nodes(r, split, order * 2)
        jac, jw = roots_jacobi(order * 2, g, 0.0)
        xi_j = 0.5 * (split + 1.0) + 0.5 * (1.0 - split) * jac
        nodes = np.concatenate([t, xs, xi_j])
        weights = np.concatenate([dt * (1.0 - t) ** g, ws * (1.0 - xs) ** g,
                                  ((1.0 - split) / 2.0) ** (1.0 + g) * jw])
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
    xs, ws = _two_graded(r_out, 0.5 * (r_out + 0.5), 0.5, levels, order)
    left = _frozen_rule(xs, ws * xs ** g, np.log(xs), 0)
    xs, ws = _two_graded(0.5, 0.5 * (0.5 + 1.0 - r_out), 1.0 - r_out, levels,
                         order)
    right = _frozen_rule(xs, ws, np.log(1.0 - xs), 0)
    return corner, left, right


def _geometry(kind: str, xc: np.ndarray, xi: np.ndarray) -> tuple:
    """(y, d, pos) on outer nodes xc (a column) and inner nodes xi (a row).

    y = x xi at the corners and (1 - x) xi on the right half; d is the
    diagonal coordinate x (1 - xi) at the x -> 0 corner, w (1 + xi) at the
    x -> 1 corner (x is then the distance w to 1) and x - y on the right
    half; pos + y is the level-theta argument's sum of the coordinates.
    """
    if kind == "left":
        return xc * xi, xc * (1.0 - xi), xc
    if kind == "right":
        return xc * xi, xc * (1.0 + xi), 1.0 - xc
    y = (1.0 - xc) * xi
    return y, xc - y, xc


@lru_cache(maxsize=64)
def _p2_layout(tau: complex, order: int, levels: int, loop_nodes: int,
               kappa: int) -> tuple:
    """(sections, points) of a p = 2 pass at one tau, rule shape and kappa.

    sections are the (kind, flip, outer rule, inner rule) of corner-left,
    corner-right, left and half; the corner sections are the ones whose
    outer rule has loop nodes.  points is the pass's count, outer times
    inner nodes summed over the sections, read from the rules alone.
    """
    g = 2.0 / kappa
    rules = (order, levels, loop_nodes)
    # radii of the outer corner loops and of the xi loops, and the split
    # between the Gauss-Legendre panel and the Gauss-Jacobi tail of the
    # corner integrals
    r_out, r_in, split = 0.2 * min(1.0, tau.imag), 0.3, 0.6
    corner, left, right = _outer_rules(*rules, r_out, g)
    # sigma(s (1 - w)) = sigma(-s w) by 1-periodicity at the x -> 1 corner
    sections = tuple((kind, flip, rule, _inner_rule(kind, *rules, g, r_in,
                                                    split))
                     for kind, flip, rule in (("left", 1.0, corner),
                                              ("right", -1.0, corner),
                                              ("left", 1.0, left),
                                              ("half", 1.0, right)))
    points = sum(rule.nodes.size * inner.nodes.size
                 for _, _, rule, inner in sections)
    return sections, points


@lru_cache(maxsize=64)
def _p2_reach(tau: complex, order: int, levels: int, loop_nodes: int,
              kappa: int) -> tuple:
    """max |Im| over the nodes of a p = 2 layout of the theta1 arguments x
    and y and of the coordinate sum pos + y: they fix a pass's term counts.
    Swept only once a pass runs, so the cap refuses a spec on its rules."""
    reach = (0.0, 0.0)
    for kind, _, rule, inner in _p2_layout(tau, order, levels, loop_nodes,
                                           kappa)[0]:
        # only loop nodes leave the real axis: the outer loop rows meet every
        # xi node and the real rows only the xi loop, so the sweep grows
        # with the nodes and not with their product
        for x, xi in ((rule.nodes[:rule.n_loop], inner.nodes),
                      (rule.nodes[rule.n_loop:], inner.nodes[:inner.n_loop])):
            step = max(1, _CHUNK_POINTS // xi.size)
            for lo in range(0, x.size, step):
                y, _, pos = _geometry(kind, x[lo:lo + step, None], xi)
                reach = (max(reach[0], np.abs(pos.imag).max(),
                             np.abs(y.imag).max()),
                         max(reach[1], np.abs((pos + y).imag).max()))
    return tuple(map(float, reach))


def _inner_moments(kind: str, x: np.ndarray, inner: _Rule, tau: complex,
                   kappa: int, prime0: complex, wind: complex, c: float,
                   top: int, slope: bool) -> np.ndarray:
    """Per outer node x, the xi sums of the inner weights (loop columns over
    wind; then, with their logs, the b-derivative's) times e^(4 pi i c s y)
    e^(i pi p y): rows (weight, s = 1, -1), columns the odd p up to top.

    The inner weights per (x, xi) point, xi weight times exp(b logs + g log
    diag - log E(y)/y) with logs = log xi + log E(y)/y, are built per chunk
    of _CHUNK_POINTS points and dropped.  The x -> 0 corner's (1-xi)^g and
    the x -> 1 corner's (1+xi)^g sit in the inner rule weights.
    """
    b, g = -4.0 / kappa, 2.0 / kappa
    xi, n_loop = inner.nodes, inner.n_loop
    cols = np.ones(xi.size, dtype=complex)
    cols[:n_loop] /= wind
    out = np.empty((x.size, 2 + 2 * slope, top + 1), dtype=complex)
    step = max(1, _CHUNK_POINTS // xi.size)
    mid = (top + 1) // 2
    buffer = np.empty((min(step, x.size), top + 1, xi.size), dtype=complex)
    for lo in range(0, x.size, step):
        chunk = slice(lo, lo + step)
        y, d, _ = _geometry(kind, x[chunk, None], xi)
        th_y, th_d = specfun._theta1_array(np.stack([y, d]), tau)
        log_ez = np.log(th_y / (y * prime0))
        diag = th_d / prime0
        if kind != "half":
            diag = diag / d
        logs = inner.logs + log_ez
        # xi^b (E(y)/y)^(b-1) diag^g with the xi weight
        weights = inner.weights * np.exp(b * logs
                                         + (g * np.log(diag) - log_ez))
        # h^p for the odd p, one contiguous (x, p, xi) block for the matmul
        h = np.exp(1j * math.pi * y)
        h_inv = 1.0 / h
        z, z_inv = h * h, h_inv * h_inv
        powers = buffer[:y.shape[0]]
        powers[:, mid], powers[:, mid - 1] = h, h_inv
        for k in range(1, mid):
            np.multiply(powers[:, mid + k - 1], z, out=powers[:, mid + k])
            np.multiply(powers[:, mid - k], z_inv, out=powers[:, mid - k - 1])
        sums = [weights * cols]
        if slope:
            # d/db of the loop division by loop_winding(b - 1) is
            # -2 pi i (wind + 1) / wind^2
            sums.append(weights * logs * cols)
            sums[1][:, :n_loop] -= (weights[:, :n_loop] * 2j * math.pi
                                    * (wind + 1.0) / wind ** 2)
        q = np.exp(4j * math.pi * c * y)
        rows = np.stack([w * f for w in sums for f in (q, 1.0 / q)], axis=1)
        out[chunk] = rows @ powers.transpose(0, 2, 1)
    return out


@lru_cache(maxsize=128)
def _p2_moments(tau: complex, order: int, levels: int, loop_nodes: int,
                kappa: int, n: int, coefs: tuple, level: tuple) -> tuple:
    """(lo, freqs) with J(mu) theta1(mu)^2 = sum_k freqs[k] e^(i pi (lo + 2k)
    mu), for one (tau, rule shape, kappa, n) and series.

    J(mu) sums two half shapes s = 1, -1 over {0 <= y <= min(x, 1-x)}: E(x)^b
    E(y)^b E(x-y)^g sigma(s x) sigma(s y) theta_{kappa,n}(mu + (1 - s) g + s g
    (x+y)), the corners x -> 0 and x -> 1 continued via circle integrals
    with exponent A = 2b + g - 1.  By oddness, sigma(s x) sigma(s y) is
    theta1(w + y) flip theta1(w + flip x) / theta1(mu)^2, w = -s mu, and the
    s = -1 level theta is theta_{kappa,n}(mu - g (pos + y)) times the phase
    exp(4 pi i n / kappa) of the shift by 2 g: a sum over m = c + j of e^(2
    pi i kappa m mu) e^(4 pi i m s pos) e^(4 pi i c s y) e^(4 pi i j s y).
    So K[s, po, p, j], the x node sum of flip outer e^(i pi po flip x) e^(4
    pi i m s pos) times the inner moment at p + 4 s j, enters freqs at nu =
    -s (po + p) + 2 kappa (c + j), an integer of the parity of n, times d_po
    d_p levels_j, the corner loops' part over their winding.  A section's
    outer weight is the x rule weight times exp(b log - log f)
    with f = E(x), or E(x)/x on the corner loops, whose logs the
    b-derivative also multiplies by.  Every power is principal: each base
    (E(x) and E(x)/x here, E(y)/y, E(d)/d at the corners and E(x - y) on
    the right half in _inner_moments) starts at 1 or on the positive axis
    and keeps Re > 0, clear of the cut, over the rules down to Im tau = 0.2
    (test_two_fold_power_bases_stay_in_the_right_half_plane).  At kappa = 8
    and tau = 0.9i, freqs holds 71 numbers.
    """
    b, g = -4.0 / kappa, 2.0 / kappa
    c = (n % (2 * kappa)) / (2.0 * kappa)
    wind = loop_winding(b - 1.0)
    odd, js, d, level_coefs = _series(coefs, level)
    top = odd[-1] + 4 * js[-1]
    # per (corner loops, corner-free sections) and s
    tables = np.zeros((2, 2, odd.size, odd.size, js.size), dtype=complex)
    prime0 = specfun.theta1(0.0, ModularPoint(tau), d_lambda=1)
    sections = _p2_layout(tau, order, levels, loop_nodes, kappa)[0]
    for kind, flip, rule, inner in sections:
        x, corner_loop = rule.nodes, rule.n_loop > 0
        f = specfun._theta1_array(x, tau) / prime0
        if corner_loop:
            f = f / x
        log_f = np.log(f)
        logs = rule.logs + log_f
        outer = rule.weights * np.exp(b * logs - log_f)
        moments = _inner_moments(kind, x, inner, tau, kappa, prime0, wind, c,
                                 top, corner_loop and kappa == 6)
        pos = _geometry(kind, x, 0.0)[2]
        basis = flip * outer[:, None] * np.exp(
            1j * math.pi * np.outer(flip * x, odd))
        for k, s in enumerate((1, -1)):
            # the inner moments at p + 4 s j as [x, p, j]
            cols = (odd[:, None] + 4 * s * js + top) // 2
            g0, *g1 = (moments[:, r + k][:, cols]
                       * np.exp(4j * math.pi * s * np.outer(pos, c + js))[:, None]
                       for r in range(0, moments.shape[1], 2))
            # at kappa = 6 the corner loops enter by their b-derivative only
            tables[0 if corner_loop else 1, k] += np.einsum(
                "xo,xpj->opj", basis, g1[0] + logs[:, None, None] * g0 if g1
                else g0)
    terms = tables * np.multiply.outer(np.outer(d, d), level_coefs)
    span = odd[-1] + kappa * js[-1]
    sums = np.zeros((2, 2 * span + 1, 2), dtype=complex)
    for k, s in enumerate((1, -1)):
        # nu = n + 2 m, m = -s (po + p) / 2 + kappa j, offset by span
        m = -s * (odd[:, None, None] + odd[:, None]) // 2 + kappa * js + span
        np.add.at(sums[k], m.ravel(), terms[:, k].reshape(2, -1).T)
    # J sums its half shapes, s = -1 with the level theta's shift phase
    corners, rests = (sums[0] + cmath.exp(4j * math.pi * n / kappa)
                      * sums[1]).T
    # The corner numerator is divided by W(b) = loop_winding(A).  A = -6/kappa
    # - 1 is an integer only at kappa = 6, where W(b) and N+ + N- vanish
    # together and J takes the limit (N+' + N-') / W'(b), W'(b) = 4 pi i
    # e^(2 pi i A): the finite part of x^A at a negative integer (Gel'fand
    # and Shilov, Generalized Functions, vol. 1, ch. I, 3).
    corner = 2 * b + g - 1.0
    corner_wind = (4j * math.pi * cmath.exp(2j * math.pi * corner)
                   if kappa == 6 else loop_winding(corner))
    # Branch convention for the pairwise difference factor: the ordered
    # difference is taken with argument continued to -pi rather than 0
    # (one factor of exp(-i*pi*g) per pair; a single pair here).  The
    # convention is fixed by the normalization of the closed forms; the
    # q -> 0 limit test_pair_branch_gives_the_leading_term pins it.
    freqs = cmath.exp(-1j * math.pi * g) * (corners / corner_wind + rests)
    freqs.setflags(write=False)  # a cached table hands it to every later pass
    return n % (2 * kappa) - 2 * span, freqs


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _as_lambdas(grid, pt: ModularPoint) -> list:
    """The grid as complex points, all checked against the lattice floor in
    one call before any pass runs."""
    lams = [complex(lam) for lam in grid]
    for lam, dist in zip(lams, specfun._lattice_distances(lams, pt.tau)):
        if dist < DEFAULT_LATTICE_FLOOR:
            raise PoleProximity(
                f"block argument {lam} is within {dist:.3e} of the lattice "
                f"(floor {DEFAULT_LATTICE_FLOOR:.1e})")
    return lams


def _j_p0(indices: list, lams: list, pt: ModularPoint,
          shapes: list) -> np.ndarray:
    """J(lam) and J(-lam) of the empty integral as an array (index, rule
    shape, sign, point): level-theta values, the same for every rule shape."""
    signs = [[[specfun.theta_level(idx.kappa, idx.reduced_n, mu, pt)
               for mu in mus] for mus in (lams, [-lam for lam in lams])]
             for idx in indices]
    return np.array([[pair] * len(shapes) for pair in signs], dtype=complex)


@lru_cache(maxsize=256)
def _sum_vectors(p: int, tau: complex, shapes: tuple, labels: tuple) -> tuple:
    """(i pi nu over all their nu, per label and rule shape (its columns, its
    f)): the vectors (_p1_moments, _p2_moments) of p-fold labels (kappa, n)
    at tau and the shapes, with the term counts of the strip's edge y = Im
    tau / 2 plus the nodes' theta1 reach (2/kappa times their level reach,
    level series), which serve every point of the strip."""
    y = tau.imag / 2
    vectors = [(_p1_moments if p == 1 else _p2_moments)(
        tau, *shape, kappa, n, specfun._theta1_coefs(tau, y + reach),
        specfun._theta_level_coefs(kappa, n, tau,
                                   y + (2.0 / kappa) * level_reach))
        for kappa, n in labels for shape in shapes for reach, level_reach in [
            (_p1_tables(tau, *shape)[2],) * 2 if p == 1
            else _p2_reach(tau, *shape, kappa)]]
    lo = min(first for first, _ in vectors)
    step = 1 + (len({first % 2 for first, _ in vectors}) == 1)
    rates = 1j * math.pi * np.arange(lo, max(
        first + 2 * f.size - 1 for first, f in vectors), step)
    rates.setflags(write=False)  # a cached table hands it to every later pass
    return rates, [(slice((first - lo) // step, (first - lo + 2 * f.size - 2)
                          // step + 1, 2 // step), f) for first, f in vectors]


def _j_sum(indices: list, lams: list, pt: ModularPoint,
           shapes: list) -> np.ndarray:
    """J(lam) and J(-lam) of indices of one p >= 1 as an array (index, rule
    shape, sign, point): the exponential sums of the module docstring at the
    folded points, per parity of the fold, every point with the strip
    edge's term counts in the vectors and the divisor."""
    tau, p = pt.tau, indices[0].p
    shifts = [round(lam.imag / tau.imag) for lam in lams]
    folded = [lam - k * tau if k else lam for lam, k in zip(lams, shifts)]
    parities = dict.fromkeys(shift % 2 for shift in shifts)
    labels = [(idx.kappa, idx.reduced_n) for idx in indices]
    # one group holds every point in order and needs no gather
    out = (None if len(parities) == 1 else
           np.empty((len(labels), len(shapes), 2, len(lams)), dtype=complex))
    for parity in parities:
        ks = [k for k, shift in enumerate(shifts) if shift % 2 == parity]
        # the partner labels (kappa, n + k kappa)
        rates, parts = _sum_vectors(p, tau, tuple(shapes), tuple(
            (kappa, (n + parity * kappa) % (2 * kappa)) for kappa, n in labels))
        mu = np.array([folded[k] for k in ks] + [-folded[k] for k in ks])
        waves = np.exp(rates * mu[:, None])
        # a strided view would round the products differently
        sums = np.array([np.ascontiguousarray(waves[:, cols]) @ f
                         for cols, f in parts])
        div = specfun._theta1_array(mu, tau, y_max=tau.imag / 2)
        for _ in range(p):
            sums = sums / div
        sums = sums.reshape(len(labels), len(shapes), 2, -1)
        if out is None:
            out = sums
        else:
            out[..., ks] = sums
    moved = [k for k, shift in enumerate(shifts) if shift]
    if moved:
        phases = np.array([[-1j * math.pi * kappa * (
            shifts[k] * folded[k] + shifts[k] ** 2 * tau / 2) for k in moved]
            for kappa, _ in labels])
        if phases.real.max() > specfun._LOG_DOUBLE_MAX:
            raise OutOfSupportedRange("a fold phase leaves the double range")
        out[..., moved] *= np.exp(phases)[:, None, None]
    return out


def _points(idx: BlockIndex, pt: ModularPoint, shape: tuple) -> int:
    """The quadrature points a pass at one rule shape sums over, read from
    its cached rules before any theta1 is evaluated (see the module
    docstring)."""
    if idx.p == 1:
        _, (t, _, _), (xs, _) = _p1_nodes(pt.tau, *shape)
        return 2 * t.size + xs.size
    if idx.p == 2:
        return _p2_layout(pt.tau, *shape, idx.kappa)[1]
    return 0


@lru_cache(maxsize=64)
def _family_plan(indices: tuple, pt: ModularPoint,
                 quad: QuadratureSpec) -> tuple:
    """(shapes, folds, where): the rule shapes of quad and quad.refined();
    per fold count p, (p, its distinct indices, their points of both
    passes); each index's position among them.  p > 2 and the caps are
    checked on the way, before any table is built (module docstring); an
    lru_cache keeps no exception, so a refused family is refused each call."""
    quads = (quad, quad.refined())
    shapes = tuple((q.gauss_order, q.graded_mesh_levels, q.loop_nodes)
                   for q in quads)
    family, counted, folds = {}, {}, {}
    for idx in indices:
        family.setdefault((idx.p, idx.kappa, idx.reduced_n), idx)
    for idx in family.values():
        if idx.p > 2:
            raise UnsupportedP(
                f"p = {idx.p} is beyond the implemented range (p <= 2)")
        layout = (idx.p, idx.kappa if idx.p == 2 else 0)
        if layout not in counted:
            counted[layout] = sum(q.check_points(_points(idx, pt, shape))
                                  for q, shape in zip(quads, shapes))
        folds.setdefault(idx.p, []).append((idx, counted[layout]))
    folds = tuple((p, *zip(*fold)) for p, fold in sorted(folds.items()))
    labels = sorted(family, key=lambda label: label[0])  # as in folds
    return shapes, folds, tuple(labels.index((idx.p, idx.kappa, idx.reduced_n))
                                for idx in indices)


def _two_passes(indices: tuple, grid, pt: ModularPoint,
                quad: QuadratureSpec | None) -> tuple:
    """(where, per distinct index (p, J(+-lam) as an array (spec, sign,
    point), points)): the lattice check, the plan, one pass per fold count."""
    lams = _as_lambdas(grid, pt)
    shapes, folds, where = _family_plan(indices, pt, quad or QuadratureSpec())
    return where, [(p, values, points) for p, fold, counts in folds
                   for values, points in zip((_j_sum if p else _j_p0)(
                       fold, lams, pt, shapes), counts)]


def j_integral(idx: BlockIndex, lam, pt: ModularPoint,
               quad: QuadratureSpec | None = None) -> BlockValue:
    """Regularized p-fold simplex integral J at (lam, tau).

    The error estimate compares the requested quadrature against a refined
    one (heuristic, not a bound).  p = 0 is exact.
    """
    _, [(_, both, points)] = _two_passes((idx,), (lam,), pt, quad)
    (coarse, _), (fine, _) = both[:, :, 0].tolist()
    return BlockValue(value=fine, error_estimate=abs(fine - coarse),
                      budget_used=points)


def _family_values(indices: tuple, grid, pt: ModularPoint,
                   quad: QuadratureSpec | None) -> list:
    """Per index of a family, in order, (values, estimates, points): its u
    values and coarse-vs-refined estimates on the grid as lists of Python
    scalars, and the points of both passes; all but lambda is planned once
    per (indices, tau, spec) by _family_plan."""
    where, passes = _two_passes(indices, grid, pt, quad)
    rows = []
    for p, both, points in passes:
        (c_plus, c_minus), (plus, minus) = both.tolist()
        sign = (-1) ** (p + 1)
        rows.append(([a + sign * b for a, b in zip(plus, minus)],
                     [abs(a - c) + abs(b - d) for a, b, c, d
                      in zip(plus, minus, c_plus, c_minus)], points))
    return [rows[k] for k in where]


def u_blocks(indices, grid, pt: ModularPoint,
             quad: QuadratureSpec | None = None) -> tuple:
    """u_block_grid at each index of a family, in order (_family_values)."""
    return tuple([tuple([BlockValue(value, estimate, points)
                         for value, estimate in zip(values, estimates)])
                  for values, estimates, points in _family_values(
                      tuple(indices), grid, pt, quad)])


def u_block_grid(idx: BlockIndex, grid, pt: ModularPoint,
                 quad: QuadratureSpec | None = None) -> tuple:
    """u_block at every point of the grid, in its order, each value
    bit-identical to the point's own u_block."""
    return u_blocks((idx,), grid, pt, quad)[0]


def u_block(idx: BlockIndex, lam, pt: ModularPoint,
            quad: QuadratureSpec | None = None) -> BlockValue:
    """The symmetrized combination J(lam) + (-1)^(p+1) J(-lam), with the
    coarse-vs-refined estimate of both terms."""
    return u_block_grid(idx, (lam,), pt, quad)[0]


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

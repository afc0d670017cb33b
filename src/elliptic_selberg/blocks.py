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
each is a sum of lambda phases times node exponentials, and since
kappa g = 2 the level theta's are e^(4 pi i c t) times integer powers of
theta1's e^(i pi t).  So a pass contracts cached moment tables (sums over
the nodes of the weights times those exponentials) with a few phases in
lambda and evaluates nothing per node.  The tables are keyed on (tau,
rule shape (the spec less its budget cap), kappa, n) and the memoised
series coefficients, whose term counts follow |Im lam| + max |Im node|,
and hold their logs.  They are built from lambda-independent rules: at
p = 1 the endpoint circle and middle path, whose weights and logs carry
the powers of E; at p = 2 the outer x and inner xi rules of each section,
with the weights times the powers of E per (x, xi) point.  The exponent b
enters as exp(b * log) of the tabulated logs, so the b-derivative at
kappa = 6 is the same moment sum with the log factor.  The passes of a
u_block share one theta1(+-lam) call and their phases; a warm u_block
takes about 0.1 ms at p = 1 and 0.6 ms at p = 2 on one thread of a 2-core
VM.  The first p = 2 u_block at a new (tau, rule shape, kappa, n) builds
the moment tables, computing the per-point weights chunk by chunk inside
the moment loop rather than as whole section tensors (5 MB coarse and
12 MB refined at kappa = 8): about 0.7 s at kappa = 8 with a heap peak
of about 7 MB.  The corner tails' Gauss-Jacobi rule comes from
quadrature.gauss_jacobi, so the package needs no scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfSupportedRange, UnsupportedP
from .quadrature import (
    EvalBudget,
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
from .specfun import (
    DEFAULT_LATTICE_FLOOR,
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

# p = 2 inner geometry: radius of the xi loops, and the split between the
# Gauss-Legendre panel and the Gauss-Jacobi tail of the corner integrals
_INNER_RADIUS = 0.3
_JACOBI_SPLIT = 0.6
# (x, xi) points per chunk of a p = 2 table build (two theta1 arguments
# each) or moment build (about two dozen powers each): enough to amortise
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
    """Numerical value with a mesh-comparison error estimate (not a bound)."""

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
def _p1_tables(tau: complex, order: int, levels: int, loop_nodes: int) -> tuple:
    """The endpoint circle, the middle path and max |Im| over the circle.

    The circle |t| = r (dt/t weights, logs log t continued from arg 0) and
    the middle path [r, 1 - r] (Gauss weights, logs 0) are returned with
    their weights divided by f and log f added to their logs, where f =
    E(t)/t on the circle with its principal log and f = E(t) on the middle
    path with the log continued rightward from the principal branch at r.
    A node of either then weighs weight * exp(b log) = w f^(b-1) t^b.

    The radius is half the smaller of 0.1 and the shortest nonzero period,
    so the circle around an endpoint encloses no other zero of theta1 and
    E(t)/t stays analytic and nonzero inside it.
    """
    prime0 = specfun.theta1(0.0, ModularPoint(tau), d_lambda=1)
    shortest = abs(specfun._reduced_basis(tau)[0])
    r = 0.5 * min(0.1, shortest)
    t, dt, phi = endpoint_loop_nodes(r, loop_nodes)
    xs, ws = _two_graded(r, 0.5, 1 - r, max(levels, 10), order)
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


def _modes(coefs: tuple, level: tuple) -> tuple:
    """(odd, log d, js, c, log levels): theta1(z) = sum_p d_p e^(i pi p z)
    over the odd |p| < 2 len(coefs) (its sine series) and theta_{kappa,n}(z)
    = sum_j levels_j e^(2 pi i kappa (c + j) z) over |j| < len(ahead), level
    = (c, ahead, behind).  Logs keep a phase beyond the double range finite
    against its small coefficient."""
    coefs = np.array(coefs)
    c, ahead, behind = level
    with np.errstate(divide="ignore"):
        odd, log_d, js, log_levels = rows = (
            np.arange(1 - 2 * coefs.size, 2 * coefs.size, 2),
            np.log(np.concatenate([-coefs[::-1], coefs]) / 2j),
            np.arange(1 - len(ahead), len(ahead)),
            np.log(np.array(behind[::-1] + ahead)))
    for row in rows:  # a cached table hands them to every later pass
        row.setflags(write=False)
    return odd, log_d, js, c, log_levels


def _phases(modes: tuple, kappa: int, w: complex, mu: complex) -> tuple:
    """d_p e^(i pi p w) and levels_j e^(2 pi i kappa (c + j) mu); each
    depends on w or mu alone, so lam -> -lam swaps the rows bit for bit."""
    odd, log_d, js, c, log_levels = modes
    return (np.exp(log_d + 1j * math.pi * odd * w),
            np.exp(log_levels + 2j * math.pi * kappa * (c + js) * mu))


def _lambda_side(moments, lam: complex, tau: complex, kappa: int, n: int,
                 reaches: list, args: tuple) -> tuple:
    """theta1(+-lam) from one kernel call and, per (rule shape, reach,
    level_reach), the tables of moments at the term counts lam plus a node of
    |Im| up to reach (at level kappa, g times level_reach) needs, with their
    phases at each (w, mu) of args, evaluated once per distinct counts."""
    sides, built = [], {}
    for shape, reach, level_reach in reaches:
        coefs = specfun._theta1_coefs(tau, abs(lam.imag) + reach)
        level = specfun._theta_level_coefs(
            kappa, n, tau, abs(lam.imag) + (2.0 / kappa) * level_reach)
        modes, tables = moments(tau, *shape, kappa, n, coefs, level)
        counts = (len(coefs), len(level[1]))
        if counts not in built:
            built[counts] = [_phases(modes, kappa, w, mu) for w, mu in args]
        sides.append((tables, built[counts]))
    return specfun._theta1_array(np.array([lam, -lam]), tau), sides


def _gather(moments: np.ndarray, odd: np.ndarray, js: np.ndarray,
            s: int) -> np.ndarray:
    """moments[..., p + 4 s j] as [..., p, j], the last axis of moments
    holding the odd exponents up to max(odd) + 4 max(js)."""
    top = odd[-1] + 4 * js[-1]
    return moments[..., (odd[:, None] + 4 * s * js + top) // 2]


@lru_cache(maxsize=256)
def _p1_moments(tau: complex, order: int, levels: int, loop_nodes: int,
                kappa: int, n: int, coefs: tuple, level: tuple) -> tuple:
    """(_modes of the series, K) with J(mu) theta1(mu) = sum_(p,j) d_p
    e^(i pi p mu) levels_j e^(2 pi i kappa (c + j) mu) K[p, j].

    The sections (rule, flip, offset) take theta1 at mu + t and the level
    theta at mu + g (offset - t), t = -flip x, so K[p, j] is the moment at
    p - 4j, the node sum of weight e^(2 pi i n offset / kappa) e^(-4 pi i
    c t) e^(i pi (p - 4j) t).
    """
    circle, middle, _ = _p1_tables(tau, order, levels, loop_nodes)
    b = -2.0 / kappa
    wind = loop_winding(b - 1.0)
    shifts, weights = [], []
    for rule, flip in ((circle, 1.0), (circle, -1.0), (middle, 1.0)):
        w = flip * rule.weights * np.exp(b * rule.logs)
        w[:rule.n_loop] /= wind
        if flip < 0:
            w *= cmath.exp(2j * math.pi * n / kappa)
        shifts.append(-flip * rule.nodes)
        weights.append(w)
    t, w = np.concatenate(shifts), np.concatenate(weights)
    odd, _, js, _, _ = modes = _modes(coefs, level)
    top = odd[-1] + 4 * js[-1]
    c = (n % (2 * kappa)) / (2.0 * kappa)
    moments = (w * np.exp(-4j * math.pi * c * t)) @ np.exp(
        1j * math.pi * np.outer(t, np.arange(-top, top + 1, 2)))
    table = _gather(moments, odd, js, -1)
    table.setflags(write=False)
    return modes, table


def _j_p1(idx: BlockIndex, lam: complex, pt: ModularPoint, shapes: list,
          budgets: list) -> list:
    """(J(lam), J(-lam)) per rule shape: endpoint circles and middle path.

    J(mu) sums, over the nodes x of the sections (rule, flip, offset), weight
    * exp(b log) * flip theta1(mu - flip x) / theta1(mu) * theta_{kappa,n}(mu
    + (2/kappa) (offset + flip x)), the circle nodes' terms divided by
    loop_winding(b - 1).  The t = 1 circle is the t = 0 circle in s = 1 - t,
    with flip -1 and offset 1: E(1 - s) = E(s) and sigma(1 - s) = sigma(-s).
    A pass contracts its cached moment table (_p1_moments) with the phases
    of mu = lam and -lam, and takes the divisor theta1(mu) from the
    relative-accurate array kernel.
    """
    reaches = []
    for shape, budget in zip(shapes, budgets):
        circle, middle, im = _p1_tables(pt.tau, *shape)
        # per sign, four factor evaluations per middle node (E, theta1 twice
        # in sigma, the level theta), one for theta1(mu), five per circle node
        # and end (E(t)/t, theta1 twice in t sigma(t), the level theta, t^a)
        budget.charge(2 * (4 * middle.nodes.size + 1 + 10 * circle.nodes.size))
        # the term counts, and so the table, follow |Im lam| + max |Im node|
        reaches.append((shape, im, im))
    div, sides = _lambda_side(_p1_moments, lam, pt.tau, idx.kappa,
                              idx.reduced_n, reaches, ((lam, lam), (-lam, -lam)))
    return [tuple(complex(theta / d @ table @ level)
                  for d, (theta, level) in zip(div, phases))
            for table, phases in sides]


# ---------------------------------------------------------------------------
# p = 2
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class _P2Section:
    """The lambda-independent outer part of one p = 2 section.

    kind names the inner geometry and inner_rule its xi rule; flip is the
    sign of x in the outer sigma.  outer holds, per outer node x, the rule
    weight times exp(b log - log f) with f = E(x), or E(x)/x on the corner
    loops.  The corner sections at kappa = 6 also keep outer_logs, the logs
    by which the b-derivative multiplies; elsewhere it is None.  The inner
    weights per (x, xi) point are built by _inner_chunks, chunk by chunk,
    inside the moment loop.
    """

    kind: str
    flip: float
    inner_rule: _Rule
    x: np.ndarray
    outer: np.ndarray
    outer_logs: np.ndarray | None


def _p2_layout(tau: complex, order: int, levels: int, loop_nodes: int,
               kappa: int) -> tuple:
    """(kind, flip, outer rule, inner rule) of the four p = 2 sections:
    corner-left, corner-right, left and half.  The corner sections are the
    ones whose outer rule has loop nodes."""
    g = 2.0 / kappa
    rules = (order, levels, loop_nodes)
    corner, left, right = _outer_rules(*rules, 0.2 * min(1.0, tau.imag), g)
    # sigma(s (1 - w)) = sigma(-s w) by 1-periodicity at the x -> 1 corner
    return tuple((kind, flip, rule, _inner_rule(kind, *rules, g))
                 for kind, flip, rule in (("left", 1.0, corner),
                                          ("right", -1.0, corner),
                                          ("left", 1.0, left),
                                          ("half", 1.0, right)))


@lru_cache(maxsize=16)
def _p2_reach(tau: complex, order: int, levels: int, loop_nodes: int,
              kappa: int) -> tuple:
    """Max |Im| over the p = 2 nodes of the theta1 arguments x and y and of
    the coordinate sum pos + y: they fix a pass's term counts."""
    reach = (0.0, 0.0)
    for kind, _, rule, inner in _p2_layout(tau, order, levels, loop_nodes,
                                           kappa):
        for x in np.array_split(rule.nodes, -(-rule.nodes.size
                                              * inner.nodes.size // _CHUNK_POINTS)):
            y, _, pos = _geometry(kind, x[:, None], inner.nodes)
            reach = (max(reach[0], np.abs(pos.imag).max(), np.abs(y.imag).max()),
                     max(reach[1], np.abs((pos + y).imag).max()))
    return tuple(map(float, reach))


def _p2_tables(tau: complex, order: int, levels: int, loop_nodes: int,
               kappa: int) -> tuple:
    """theta1'(0) and the four sections' outer tables at one tau, rule shape
    and kappa.  They are not cached: only a moment table build
    (_p2_moments) reads them.

    Every power base (E(x) and E(x)/x here, E(y)/y, E(d)/d at the corners
    and E(x - y) on the right half in _inner_chunks) stays close to 1 or on
    the positive axis, so all powers are principal.
    """
    b = -4.0 / kappa
    prime0 = specfun.theta1(0.0, ModularPoint(tau), d_lambda=1)
    sections = []
    for kind, flip, rule, inner in _p2_layout(tau, order, levels, loop_nodes,
                                              kappa):
        x, is_corner = rule.nodes, rule.n_loop > 0
        f = specfun._theta1_array(x, tau) / prime0
        if is_corner:
            f = f / x
        log_f = np.log(f)
        logs = rule.logs + log_f
        arrays = [x, rule.weights * np.exp(b * logs - log_f),
                  logs if is_corner and kappa == 6 else None]
        for arr in arrays:
            if arr is not None:
                arr.setflags(write=False)
        sections.append(_P2Section(kind, flip, inner, *arrays))
    return prime0, tuple(sections)


def _inner_chunks(sec: _P2Section, tau: complex, kappa: int,
                  prime0: complex):
    """Per chunk of _CHUNK_POINTS (x, xi) points of a section, (chunk, y,
    weights, logs): the slice of its outer nodes, y at the points, the xi
    weight times exp(b logs + g log diag - log E(y)/y), and logs = log xi +
    log E(y)/y where the section keeps outer_logs (None elsewhere).

    The x -> 0 corner's (1-xi)^g and the x -> 1 corner's (1+xi)^g sit in
    the inner rule weights.
    """
    b, g = -4.0 / kappa, 2.0 / kappa
    inner = sec.inner_rule
    step = max(1, _CHUNK_POINTS // inner.nodes.size)
    for lo in range(0, sec.x.size, step):
        chunk = slice(lo, lo + step)
        y, d, _ = _geometry(sec.kind, sec.x[chunk, None], inner.nodes)
        th_y, th_d = specfun._theta1_array(np.stack([y, d]), tau)
        log_ez = np.log(th_y / (y * prime0))
        diag = th_d / prime0
        if sec.kind != "half":
            diag = diag / d
        logs = inner.logs + log_ez
        # xi^b (E(y)/y)^(b-1) diag^g with the xi weight
        weights = inner.weights * np.exp(b * logs
                                         + (g * np.log(diag) - log_ez))
        yield chunk, y, weights, logs if sec.outer_logs is not None else None


def _inner_moments(sec: _P2Section, tau: complex, kappa: int, prime0: complex,
                   wind: complex, c: float, top: int) -> np.ndarray:
    """Per outer node x, the xi sums of the inner weights (loop columns over
    wind; then, with their logs, the b-derivative's) times e^(4 pi i c s y)
    e^(i pi p y): rows (weight, s = 1, -1), columns the odd p up to top."""
    xi, n_loop = sec.inner_rule.nodes, sec.inner_rule.n_loop
    slope = sec.outer_logs is not None
    cols = np.ones(xi.size, dtype=complex)
    cols[:n_loop] /= wind
    out = np.empty((sec.x.size, 2 + 2 * slope, top + 1), dtype=complex)
    mid, buffer = (top + 1) // 2, None
    for chunk, y, inner, logs in _inner_chunks(sec, tau, kappa, prime0):
        # h^p for the odd p, one contiguous (x, p, xi) block for the matmul;
        # the first chunk is the largest
        if buffer is None:
            buffer = np.empty((y.shape[0], top + 1, xi.size), dtype=complex)
        h = np.exp(1j * math.pi * y)
        h_inv = 1.0 / h
        z, z_inv = h * h, h_inv * h_inv
        powers = buffer[:y.shape[0]]
        powers[:, mid], powers[:, mid - 1] = h, h_inv
        for k in range(1, mid):
            np.multiply(powers[:, mid + k - 1], z, out=powers[:, mid + k])
            np.multiply(powers[:, mid - k], z_inv, out=powers[:, mid - k - 1])
        weights = [inner * cols]
        if slope:
            # d/db of the loop division by loop_winding(b - 1) is
            # -2 pi i (wind + 1) / wind^2
            weights.append(inner * logs * cols)
            weights[1][:, :n_loop] -= (inner[:, :n_loop] * 2j * math.pi
                                       * (wind + 1.0) / wind ** 2)
        q = np.exp(4j * math.pi * c * y)
        rows = np.stack([w * f for w in weights for f in (q, 1.0 / q)], axis=1)
        out[chunk] = rows @ powers.transpose(0, 2, 1)
    return out


@lru_cache(maxsize=32)
def _p2_moments(tau: complex, order: int, levels: int, loop_nodes: int,
                kappa: int, n: int, coefs: tuple, level: tuple) -> tuple:
    """(_modes of the series, the tables (corner, its b-derivative, rest)),
    each K[s, po, p, j] for the half shapes s = 1, -1, of one (tau, rule
    shape, kappa, n) and series; the b-derivative is 0 off kappa = 6.

    Row (sigma, s) of _p2_rows holds theta1(w + y) flip theta1(w + flip x)
    and the level theta at sigma lam + s g (pos + y), a sum over m = c + j
    of e^(2 pi i kappa m sigma lam) e^(4 pi i m s pos) e^(4 pi i c s y)
    e^(4 pi i j s y).  So K[s, po, p, j] sums over the x nodes flip outer
    e^(i pi po flip x) e^(4 pi i m s pos) times the inner moment at p + 4 s j.
    """
    b = -4.0 / kappa
    c = (n % (2 * kappa)) / (2.0 * kappa)
    wind = loop_winding(b - 1.0)
    odd, _, js, _, _ = modes = _modes(coefs, level)
    top = odd[-1] + 4 * js[-1]
    tables = np.zeros((3, 2, odd.size, odd.size, js.size), dtype=complex)
    prime0, sections = _p2_tables(tau, order, levels, loop_nodes, kappa)
    for i, sec in enumerate(sections):
        moments = _inner_moments(sec, tau, kappa, prime0, wind, c, top)
        pos = _geometry(sec.kind, sec.x, 0.0)[2]
        basis = sec.flip * sec.outer[:, None] * np.exp(
            1j * math.pi * np.outer(sec.flip * sec.x, odd))
        for k, s in enumerate((1, -1)):
            g0, *g1 = (_gather(moments[:, r + k], odd, js, s)
                       * np.exp(4j * math.pi * s * np.outer(pos, c + js))[:, None]
                       for r in range(0, moments.shape[1], 2))
            tables[2 if i > 1 else 0, k] += np.einsum("xo,xpj->opj", basis, g0)
            if g1:
                tables[1, k] += np.einsum("xo,xpj->opj", basis, g1[0]
                                          + sec.outer_logs[:, None, None] * g0)
    tables.setflags(write=False)
    return modes, tables


def _p2_rows(idx: BlockIndex, lam: complex, tau: complex,
             shapes: list) -> np.ndarray:
    """Integrals over {0 <= y <= min(x, 1-x)} of the four integrands.

    Half shape s at sigma lam: E(x)^b E(y)^b E(x-y)^g sigma(s x) sigma(s y)
    theta_{kappa,n}(mu + s g (x+y)), mu = sigma lam + (1 - s) g; corners
    x -> 0 and x -> 1 are continued via circle integrals with exponent
    A = 2b + g - 1.  Per rule shape, the rows (sigma, s) = (1, 1), (1, -1),
    (-1, 1), (-1, -1) with three columns: the corner loops' numerator, to
    be divided by loop_winding(A), its b-derivative (0 off kappa = 6) and
    the sum of the corner-free sections.  By oddness, sigma(s x) sigma(s
    y) is theta1(w + y) flip theta1(w + flip x) / theta1(sigma lam)^2, w =
    -sigma s lam; the s = -1 level theta is theta_{kappa,n}(sigma lam - g
    (pos + y)) times the phase exp(4 pi i n / kappa) of the shift by 2 g.
    """
    kappa, n = idx.kappa, idx.reduced_n
    # the term counts, and so the tables, follow |Im lam| + max |Im node|
    div, sides = _lambda_side(_p2_moments, lam, tau, kappa, n, [
        (shape, *_p2_reach(tau, *shape, kappa)) for shape in shapes], tuple(
        (-sigma * s * lam, sigma * lam) for sigma in (1.0, -1.0)
        for s in (1.0, -1.0)))
    phase = cmath.exp(4j * math.pi * n / kappa)
    # per rule shape, row i is (sigma, s) with sigma's divisor div[i // 2]
    return np.array([[[theta / div[i // 2] @ (table[i % 2] @ level)
                       @ (theta / div[i // 2]) * (phase if i % 2 else 1.0)
                       for table in tables]
                      for i, (theta, level) in enumerate(phases)]
                     for tables, phases in sides])


def _j_p2(idx: BlockIndex, lam: complex, pt: ModularPoint, shapes: list,
          budgets: list) -> list:
    """(J(lam), J(-lam)) per rule shape from the four half shapes' rows."""
    if abs(complex(lam).imag) > 1e-12 or abs(pt.tau.real) > 1e-12:
        raise OutOfSupportedRange(
            "the two-fold integral is wired for real lambda and purely "
            "imaginary tau only")
    b, g = -4.0 / idx.kappa, 2.0 / idx.kappa
    # Branch convention for the pairwise difference factor: the ordered
    # difference is taken with argument continued to -pi rather than 0
    # (one factor of exp(-i*pi*g) per pair; a single pair here).  The
    # convention is fixed by the normalization of the closed forms; the
    # q -> 0 limit test_pair_branch_gives_the_leading_term pins it.
    pair_branch = cmath.exp(-1j * math.pi * g)
    corner = 2 * b + g - 1.0
    # The corner exponent -6/kappa - 1 is an integer only at kappa = 6, where
    # W(b) = loop_winding(2b + g - 1) and N+ + N- vanish together and J takes
    # the limit (N+' + N-') / W'(b): the finite part of x^A at a negative
    # integer (Gel'fand and Shilov, Generalized Functions, vol. 1, ch. I, 3).
    at_pole = idx.kappa == 6
    # The charge, made before any table is built and the same whether or
    # not they are cached: per (x, xi) point theta1 on y, the diagonal and
    # lam -+ y and the four level thetas, per outer node theta1 on x and
    # lam -+ x.  The tables do not depend on the budget cap.
    for shape, budget in zip(shapes, budgets):
        budget.charge(sum((8 * inner.nodes.size + 3) * outer.nodes.size
                          for _, _, outer, inner in _p2_layout(
                              pt.tau, *shape, idx.kappa)))
    rows = _p2_rows(idx, complex(lam).real + 0j, pt.tau, shapes)
    # J(sigma lam) sums its two half shapes, rows (sigma, 1) and (sigma, -1)
    corners, slopes, rests = np.moveaxis(
        rows.reshape(-1, 2, 2, 3).sum(axis=2), -1, 0)
    value = (slopes / (4j * math.pi * cmath.exp(2j * math.pi * corner))
             if at_pole else corners / loop_winding(corner))
    return [tuple(map(complex, pair)) for pair in pair_branch * (value + rests)]


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


def _j_p0(idx: BlockIndex, lam: complex, pt: ModularPoint, shapes: list,
          budgets: list) -> list:
    """(J(lam), J(-lam)) of the empty integral: level-theta values."""
    return [tuple(specfun.theta_level(idx.kappa, idx.reduced_n, mu, pt)
                  for mu in (lam, -lam))] * len(shapes)


_PASSES = {0: _j_p0, 1: _j_p1, 2: _j_p2}


def _passes(idx: BlockIndex, lam, pt: ModularPoint, quads: tuple) -> tuple:
    """Per spec, a pass (J(lam), J(-lam)) and its budget; no table depends
    on the budget cap, and the passes share their lambda side."""
    if idx.p not in _PASSES:
        raise UnsupportedP(f"p = {idx.p} is beyond the implemented range (p <= 2)")
    budgets = [EvalBudget(quad.max_evals) for quad in quads]
    shapes = [(q.gauss_order, q.graded_mesh_levels, q.loop_nodes) for q in quads]
    return _PASSES[idx.p](idx, lam, pt, shapes, budgets), budgets


def _one_value(idx: BlockIndex, lam, pt: ModularPoint,
               quad: QuadratureSpec) -> tuple:
    """One pass, (J(lam), J(-lam)), and its budget."""
    (values,), (budget,) = _passes(idx, lam, pt, (quad,))
    return values, budget


def _two_passes(idx: BlockIndex, lam, pt: ModularPoint,
                quad: QuadratureSpec | None) -> tuple:
    """The requested (coarse) pass, a refined one and their summed budget."""
    quad = quad or QuadratureSpec()
    (coarse, fine), budgets = _passes(idx, _as_lambda(lam, pt), pt,
                                      (quad, quad.refined()))
    return coarse, fine, sum(budget.used for budget in budgets)


def j_integral(idx: BlockIndex, lam, pt: ModularPoint,
               quad: QuadratureSpec | None = None) -> BlockValue:
    """Regularized p-fold simplex integral J at (lam, tau).

    The error estimate compares the requested quadrature against a refined
    one (heuristic, not a bound).  p = 0 is exact.
    """
    (coarse, _), (fine, _), used = _two_passes(idx, lam, pt, quad)
    return BlockValue(value=fine, error_estimate=abs(fine - coarse),
                      budget_used=used)


def u_block(idx: BlockIndex, lam, pt: ModularPoint,
            quad: QuadratureSpec | None = None) -> BlockValue:
    """The symmetrized combination J(lam) + (-1)^(p+1) J(-lam), with the
    coarse-vs-refined estimate of both terms."""
    (c_plus, c_minus), (plus, minus), used = _two_passes(idx, lam, pt, quad)
    return BlockValue(value=plus + (-1) ** (idx.p + 1) * minus,
                      error_estimate=abs(plus - c_plus) + abs(minus - c_minus),
                      budget_used=used)


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

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
refined pass for every p.  Both quadratures tabulate first and assemble
second, on tables of everything that does not depend on lambda.  At p = 1
the tables (the endpoint circle and the middle path as rules whose weights
and logs carry the powers of E) are cached per tau and rule shape (the spec
less its budget cap), and a pass makes one call to each pair kernel of
specfun, theta1 at mu - flip t and the level theta at its shifts, with
mu = lam and -lam in rows (flip = -1 on the t = 1 circle, taken in
s = 1 - t).  At p = 2
each section's outer x nodes and inner xi nodes form one tensor, and the
tables, cached per (tau, rule shape, kappa), hold the weights times the
lambda-independent powers of E on it, one complex number per (x, xi) point.
One pass then integrates the four integrands of u = J(lam) - J(-lam) (two
half shapes at each sign of lambda) together: per chunk of the tensor, one
theta1 pair call on y gives theta1(+-lam + y), which serves all four since
theta1 is odd, and one level-theta pair call gives their four level
thetas; per section, one theta1 pair call on x.  The pair kernels make one
set of exponentials per node for both signs of lambda.  The exponent b
enters last as exp(b * log) of the tabulated logs, so the b-derivative at
kappa = 6 is the same sum with the tabulated log factor.
A warm p = 2 u_block at the default spec (coarse and refined pass) hands
the theta1 pair kernel 951,840 points and the level-theta pair kernel
948,840, about 0.37 s on one thread of a 2-core VM (0.76 s with the array
kernels on lam -+ y, lam -+ x and four level-theta arguments per node); its
two tables hold about 15 MB.  The Gauss-Jacobi rule of the corner tails is
scipy's roots_jacobi, imported on first use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import OutOfSupportedRange, UnsupportedP
from .quadrature import (
    EvalBudget,
    QuadratureSpec,
    endpoint_loop_nodes,
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
# each) or pass (two theta1 and four level-theta arguments each): enough to
# amortise the per-call cost, few enough to keep the transient tensors to a
# few megabytes
_CHUNK_POINTS = 4096


def roots_jacobi(n: int, alpha: float, beta: float):
    """scipy.special.roots_jacobi, imported on first use: only the p = 2
    corner rules need it, so importing the package loads no scipy."""
    from scipy.special import roots_jacobi

    return roots_jacobi(n, alpha, beta)


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
def _p1_tables(tau: complex, quad: QuadratureSpec) -> tuple:
    """The endpoint circle and the middle path at one (tau, spec), tabulated.

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
    t, dt, phi = endpoint_loop_nodes(r, quad.loop_nodes)
    xs, ws = _two_graded(r, 0.5, 1 - r, max(quad.graded_mesh_levels, 10),
                         quad.gauss_order)
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
    return circle, middle


def _j_p1(idx: BlockIndex, lam: complex, pt: ModularPoint,
          quad: QuadratureSpec, budget: EvalBudget) -> tuple:
    """(J(lam), J(-lam)): two endpoint circles plus the middle path.

    J(mu) sums, over the nodes x of the sections (rule, flip, offset), weight
    * exp(b log) * flip theta1(mu - flip x) / theta1(mu) * theta_{kappa,n}(mu
    + (2/kappa) (offset + flip x)), the circle nodes' terms divided by
    loop_winding(b - 1).  The t = 1 circle is the t = 0 circle in s = 1 - t, with flip -1 and
    offset 1: E(1 - s) = E(s) and sigma(1 - s) = sigma(-s).  One pass makes
    one call to each pair kernel, with mu = lam and mu = -lam in rows (the
    level theta on the circle and middle nodes only, every row used), and
    takes the divisor theta1(mu) from the relative-accurate array kernel.
    """
    kappa, n = idx.kappa, idx.reduced_n
    b = -2.0 / kappa
    # the tables do not depend on the budget cap, so it is left out of the key
    circle, middle = _p1_tables(pt.tau, replace(quad, max_evals=0))
    # per sign, four factor evaluations per middle node (E, theta1 twice in
    # sigma, the level theta), one for theta1(mu), and five per circle node
    # and end ((E(t)/t), theta1 twice in t sigma(t), the level theta, t^a)
    budget.charge(2 * (4 * middle.nodes.size + 1 + 10 * circle.nodes.size))
    wind = loop_winding(b - 1.0)
    columns = []
    for rule, flip in ((circle, 1.0), (circle, -1.0), (middle, 1.0)):
        weights = flip * rule.weights * np.exp(b * rule.logs)
        weights[:rule.n_loop] /= wind
        columns.append((flip * rule.nodes, weights))
    flip_x, weights = (np.concatenate(c) for c in zip(*columns))
    div = specfun._theta1_array(np.array([[lam], [-lam]]), pt.tau)
    th = specfun._theta1_pair(lam, -flip_x, pt.tau)
    # the rows s = 1 serve the t = 0 circle and the middle path; the t = 1
    # circle takes the rows s = -1 at the same circle nodes, as
    # theta_{kappa,n}(w + 2/kappa) = e^(2 pi i n/kappa) theta_{kappa,n}(w)
    rows = specfun._theta_level_pair(
        kappa, n, lam, (2.0 / kappa) * np.concatenate([circle.nodes, middle.nodes]),
        pt.tau)
    m = circle.nodes.size
    lev = np.concatenate([rows[::2, :m], cmath.exp(2j * math.pi * n / kappa)
                          * rows[1::2, :m], rows[::2, m:]], axis=1)
    plus, minus = np.sum(weights * th / div * lev, axis=1)
    return complex(plus), complex(minus)


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


# The p = 2 integrand rows: (sign sigma of lambda, half shape s) per integrand
_SIGMA = (1.0, 1.0, -1.0, -1.0)
_S = (1.0, -1.0, 1.0, -1.0)


def _odd_rows(signs, pair) -> np.ndarray:
    """theta1(-sigma sign lam + t) per integrand from the rows pair =
    theta1(+-lam + t); since theta1 is odd, -sigma times it is sign
    theta1(sigma lam - sign t) theta1(lam) / theta1(sigma lam)."""
    return pair[[int(sigma * sign > 0) for sigma, sign in zip(_SIGMA, signs)]]


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
    """The lambda-independent part of one p = 2 section.

    kind names the inner geometry and inner_rule its xi rule; flip is the
    sign of x in the outer sigma.  outer holds, per outer node x, the rule
    weight times exp(b log - log f) with f = E(x), or E(x)/x on the corner
    loops; inner holds, per (x, xi) point, the xi weight times
    exp(b logs + g log diag - log E(y)/y), logs = log xi + log E(y)/y.  The
    corner sections at kappa = 6 also keep the two logs, by which the
    b-derivative multiplies; elsewhere these are None.
    """

    kind: str
    flip: float
    inner_rule: _Rule
    x: np.ndarray
    outer: np.ndarray
    outer_logs: np.ndarray | None
    inner: np.ndarray
    inner_logs: np.ndarray | None


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


@lru_cache(maxsize=4)
def _p2_tables(tau: complex, order: int, levels: int, loop_nodes: int,
               kappa: int) -> tuple:
    """The four sections' tables at one tau, rule shape and kappa, built in
    chunks of _CHUNK_POINTS.

    Every power base (E(y)/y, E(d)/d at the corners, E(x - y) on the right
    half, E(x) and E(x)/x) stays close to 1 or on the positive axis, so all
    powers are principal.  The x -> 0 corner's (1-xi)^g and the x -> 1
    corner's (1+xi)^g sit in the inner rule weights.
    """
    b, g = -4.0 / kappa, 2.0 / kappa
    prime0 = specfun.theta1(0.0, ModularPoint(tau), d_lambda=1)
    sections = []
    for kind, flip, rule, inner in _p2_layout(tau, order, levels, loop_nodes,
                                              kappa):
        x, is_corner = rule.nodes, rule.n_loop > 0
        slope = is_corner and kappa == 6
        tensor = np.empty((x.size, inner.nodes.size), dtype=complex)
        tensor_logs = np.empty_like(tensor) if slope else None
        step = max(1, _CHUNK_POINTS // inner.nodes.size)
        for lo in range(0, x.size, step):
            y, d, _ = _geometry(kind, x[lo:lo + step, None], inner.nodes)
            th_y, th_d = specfun._theta1_array(np.stack([y, d]), tau)
            log_ez = np.log(th_y / (y * prime0))
            diag = th_d / prime0
            if kind != "half":
                diag = diag / d
            logs = inner.logs + log_ez
            # xi^b (E(y)/y)^(b-1) diag^g with the xi weight
            tensor[lo:lo + step] = inner.weights * np.exp(
                b * logs + (g * np.log(diag) - log_ez))
            if slope:
                tensor_logs[lo:lo + step] = logs
        f = specfun._theta1_array(x, tau) / prime0
        if is_corner:
            f = f / x
        log_f = np.log(f)
        logs = rule.logs + log_f
        arrays = [x, rule.weights * np.exp(b * logs - log_f),
                  logs if slope else None, tensor, tensor_logs]
        for arr in arrays:
            if arr is not None:
                arr.setflags(write=False)
        sections.append(_P2Section(kind, flip, inner, *arrays))
    return tuple(sections)


def _p2_sections(sections: tuple, idx: BlockIndex, lam: float,
                 tau: complex) -> tuple:
    """Integrals over {0 <= y <= min(x, 1-x)} of the four integrands.

    Half shape s at sigma lam: E(x)^b E(y)^b E(x-y)^g sigma(s x) sigma(s y)
    theta_{kappa,n}(mu + s g (x+y)), mu = sigma lam + (1 - s) g; corners
    x -> 0 and x -> 1 are continued via circle integrals with exponent
    A = 2b + g - 1.  Returns (corner, rest), rows in _SIGMA/_S order: the
    corner loops' numerator, still to be divided by loop_winding(A), with
    its b-derivative as a second column at kappa = 6, and the sum of the
    corner-free sections as a single column.

    Per chunk of a section's (x, xi) tensor this makes one theta1 pair call
    on y and one level-theta pair call on g (pos + y), and per section one
    theta1 pair call on x.  The s = -1 level rows are theta_{kappa,n}(sigma
    lam - g (pos + y)) times the phase exp(4 pi i n / kappa) of the shift by
    2 g = 4 / kappa.
    """
    kappa, n = idx.kappa, idx.reduced_n
    b, g = -4.0 / kappa, 2.0 / kappa
    inv_lam = 1.0 / specfun.theta1(lam, ModularPoint(tau))
    wind = loop_winding(b - 1.0)
    phase = cmath.exp(4j * math.pi * n / kappa)
    # per row, -sigma (see _odd_rows) over theta1(lam), and the inner rows'
    # level-theta phase
    outer_scale = np.array([-sigma * inv_lam for sigma in _SIGMA])[:, None]
    inner_scale = np.array([-sigma * inv_lam * (phase if s < 0 else 1.0)
                            for sigma, s in zip(_SIGMA, _S)])[:, None, None]

    def part(sec: _P2Section) -> np.ndarray:
        """sum over the x nodes of E(x)^b sign sigma(sign x) Xi_b(x), sign =
        flip * s, and at kappa = 6 its b-derivative; shape (4, 1 + slope).

        Xi_b(x) = FP int_0^1 xi^(b-1) psi(xi) dxi with psi(xi) = (E(y)/y)^b
        * s y sigma(s y) * diag * theta_{kappa,n}(mu + s g (pos + y)).
        """
        x, xi, n_loop = sec.x, sec.inner_rule.nodes, sec.inner_rule.n_loop
        slope = sec.inner_logs is not None
        xi_b = np.empty((4, 1 + slope, x.size), dtype=complex)
        step = max(1, _CHUNK_POINTS // xi.size)
        for lo in range(0, x.size, step):
            y, _, pos = _geometry(sec.kind, x[lo:lo + step, None], xi)
            th = specfun._theta1_pair(lam, y, tau)
            lev = specfun._theta_level_pair(kappa, n, lam, g * (pos + y), tau)
            # (E(y)/y)^b * s y sigma(s y) * diag^g = s theta1(sigma lam - s y)
            #     / theta1(sigma lam) * exp((b-1) log_ez + g log diag), the
            #     exponential tabulated in sec.inner
            terms = (sec.inner[lo:lo + step]
                     * (inner_scale * _odd_rows(_S, th) * lev))
            loop = terms[..., :n_loop].sum(axis=-1)
            xi_b[:, 0, lo:lo + step] = loop / wind + terms[..., n_loop:].sum(axis=-1)
            if slope:
                # d/db, where d/db loop_winding(b - 1) = 2 pi i (wind + 1)
                terms = terms * sec.inner_logs[lo:lo + step]
                xi_b[:, 1, lo:lo + step] = (terms[..., :n_loop].sum(axis=-1) / wind
                                            + terms[..., n_loop:].sum(axis=-1)
                                            - loop * 2j * math.pi * (wind + 1.0) / wind ** 2)
        terms = sec.outer * outer_scale * _odd_rows(
            [sec.flip * s for s in _S], specfun._theta1_pair(lam, x, tau))
        out = [np.sum(terms * xi_b[:, 0], axis=-1)]
        if slope:
            out.append(np.sum(terms * (sec.outer_logs * xi_b[:, 0] + xi_b[:, 1]),
                              axis=-1))
        return np.stack(out, axis=1)

    corner_left, corner_right, left, half = (part(sec) for sec in sections)
    return corner_left + corner_right, left + half


def _j_p2(idx: BlockIndex, lam: complex, pt: ModularPoint,
          quad: QuadratureSpec, budget: EvalBudget) -> tuple:
    """(J(lam), J(-lam)) from one tabulation of their four half shapes."""
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
    key = (pt.tau, quad.gauss_order, quad.graded_mesh_levels,
           quad.loop_nodes, idx.kappa)
    budget.charge(sum((8 * inner.nodes.size + 3) * outer.nodes.size
                      for _, _, outer, inner in _p2_layout(*key)))
    # J(sigma lam) sums its two half shapes, rows (sigma, 1) and (sigma, -1)
    corners, rests = (a.reshape(2, 2, -1).sum(axis=1) for a in _p2_sections(
        _p2_tables(*key), idx, float(complex(lam).real), pt.tau))
    value = (corners[:, 1] / (4j * math.pi * cmath.exp(2j * math.pi * corner))
             if at_pole else corners[:, 0] / loop_winding(corner))
    plus, minus = pair_branch * (value + rests[:, 0])
    return complex(plus), complex(minus)


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


def _j_p0(idx: BlockIndex, lam: complex, pt: ModularPoint,
          quad: QuadratureSpec, budget: EvalBudget) -> tuple:
    """(J(lam), J(-lam)) of the empty integral: level-theta values."""
    return tuple(specfun.theta_level(idx.kappa, idx.reduced_n, mu, pt)
                 for mu in (lam, -lam))


_PASSES = {0: _j_p0, 1: _j_p1, 2: _j_p2}


def _one_value(idx: BlockIndex, lam, pt: ModularPoint,
               quad: QuadratureSpec) -> tuple:
    """One pass, (J(lam), J(-lam)), and its budget."""
    if idx.p not in _PASSES:
        raise UnsupportedP(f"p = {idx.p} is beyond the implemented range (p <= 2)")
    budget = EvalBudget(quad.max_evals)
    return _PASSES[idx.p](idx, lam, pt, quad, budget), budget


def _two_passes(idx: BlockIndex, lam, pt: ModularPoint,
                quad: QuadratureSpec | None) -> tuple:
    """The requested (coarse) pass, a refined one and their summed budget."""
    quad = quad or QuadratureSpec()
    lam = _as_lambda(lam, pt)
    coarse, budget1 = _one_value(idx, lam, pt, quad)
    fine, budget2 = _one_value(idx, lam, pt, quad.refined())
    return coarse, fine, budget1.used + budget2.used


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

"""Simplex beta integrals: gamma-product closed form, quadrature oracle,
and the normalization constants attached to the block family.

Closed form (p factors, empty product = 1):

    B_p(a, b, g) = (1/p!) * prod_{j=0}^{p-1}
        Gamma(1+g+j*g) * Gamma(a+j*g) * Gamma(b+j*g)
        / (Gamma(1+g) * Gamma(a+b+(p+j-1)*g))

defined by analytic continuation: a pole in a numerator gamma raises
GammaPole, a pole hit only by a denominator gamma makes the value 0.

The oracle integrates the defining simplex integral directly.  For positive
real-part exponents it uses graded Gauss meshes (depth adapted to the weakest
endpoint exponent).  At p = 1 an endpoint exponent a with Re a <= 0 is
continued by the rule that keeps its digits: for Re a > -1 first-order Taylor
subtraction of the smooth cofactor plus the closed-form finite parts
delta**(a+1)/(a+1) and delta**(a+2)/(a+2) (the circle divisor
e^{2 pi i a} - 1 vanishes at a = 0); for Re a <= -1 an endpoint circle
integral (the subtracted residual's rounding, times t**a, swamps the deep
mesh nodes there), exact at any non-integer a.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import GammaPole, OutOfSupportedRange
from .quadrature import (
    EvalBudget,
    QuadratureSpec,
    endpoint_loop_fp,
    fp_power_term,
    graded_nodes,
    levels_for_exponent,
)

__all__ = [
    "SelbergParams",
    "BlockConstant",
    "selberg_value",
    "selberg_oracle",
    "block_constant",
]


@dataclass(frozen=True)
class SelbergParams:
    """Parameters (p, alpha, beta, gamma) of the p-fold simplex beta integral."""

    p: int
    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be a non-negative integer")


@dataclass(frozen=True)
class BlockConstant:
    """Normalization constant attached to a block label (p, kappa, n)."""

    p: int
    kappa: int
    n: int
    value: complex

    def __post_init__(self):
        if self.kappa < 2 * self.p + 2:
            raise ValueError("kappa must be at least 2p+2")


def _near_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    k = round(z.real)
    return k <= 0 and abs(z - k) < tol


def selberg_value(params: SelbergParams) -> complex:
    """Gamma-product closed form, continued across parameter space.

    Raises GammaPole when a numerator gamma argument sits on a non-positive
    integer; returns 0 when only denominator gammas do (the reciprocal gamma
    vanishes there).
    """
    p = params.p
    if p == 0:
        return 1.0 + 0.0j  # empty integral, by convention
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    numerators = []
    denominators = []
    for j in range(p):
        numerators += [("1+gamma+j*gamma", 1 + g + j * g),
                       ("alpha+j*gamma", a + j * g),
                       ("beta+j*gamma", b + j * g)]
        denominators += [("1+gamma", 1 + g),
                         ("alpha+beta+(p+j-1)*gamma", a + b + (p + j - 1) * g)]
    for name, z in numerators:
        if _near_nonpositive_integer(z):
            j = numerators.index((name, z)) // 3
            raise GammaPole(f"numerator Gamma({name}) = Gamma({z}) at j={j}")
    if any(_near_nonpositive_integer(z) for _, z in denominators):
        return 0.0 + 0.0j
    # scipy loads on first use: importing the package and the series proofs
    # need none of it
    from scipy.special import loggamma

    log_total = sum(loggamma(z) for _, z in numerators)
    log_total -= sum(loggamma(z) for _, z in denominators)
    return complex(cmath.exp(log_total - math.lgamma(p + 1)))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def _endpoint_window_fp(exponent: complex, h0: complex, h1: complex,
                        resid, delta: float, quad: QuadratureSpec,
                        budget: EvalBudget) -> complex:
    """Finite part over a window [0, delta] of t**a * h(t), h analytic.

    resid(t) must return h(t) - (h0 + h1*t) vectorized; the subtracted part is
    added back in closed form.
    """
    levels = max(quad.graded_mesh_levels,
                 levels_for_exponent(exponent.real + 2.0))
    ts, ws = graded_nodes(0.0, delta, levels, quad.gauss_order, toward="left")
    budget.charge(ts.size)
    vals = resid(ts) * ts.astype(complex) ** exponent
    total = complex(np.sum(vals * ws))
    total += h0 * fp_power_term(exponent, delta)
    total += h1 * fp_power_term(exponent + 1, delta)
    return total


# p = 1 endpoint exponents with real part at or below this are continued by an
# endpoint circle, those above it (up to 0) by Taylor subtraction
_CIRCLE_AT_OR_BELOW = -1.0
# radius of that circle: a quarter of the unit distance to the other
# endpoint's branch point, large enough that t^a stays moderate on it
_CIRCLE_RADIUS = 0.25


def _oracle_p1(params: SelbergParams, quad: QuadratureSpec,
               budget: EvalBudget) -> complex:
    a_exp = complex(params.alpha) - 1  # endpoint exponent at t = 0
    b_exp = complex(params.beta) - 1   # endpoint exponent at t = 1
    delta = quad.endpoint_delta

    def start(expo):
        """Where the middle path leaves an endpoint with this exponent."""
        if expo.real > 0:
            return 0.0
        return _CIRCLE_RADIUS if expo.real <= _CIRCLE_AT_OR_BELOW else delta

    def levels(expo):
        """Mesh depth toward an end: graded for the power t**expo only where
        the path reaches the endpoint; where it meets the circle or the
        window the integrand is smooth."""
        if expo.real > 0:
            return max(quad.graded_mesh_levels, levels_for_exponent(expo.real))
        return quad.graded_mesh_levels

    total = 0.0 + 0.0j
    segments = []
    lo, hi = start(a_exp), 1 - start(b_exp)
    mid = 0.5 * (lo + hi)
    segments.append(graded_nodes(lo, mid, levels(a_exp), quad.gauss_order, "left"))
    segments.append(graded_nodes(mid, hi, levels(b_exp), quad.gauss_order, "right"))
    for ts, ws in segments:
        budget.charge(ts.size)
        vals = (ts.astype(complex) ** a_exp) * ((1.0 - ts).astype(complex) ** b_exp)
        total += complex(np.sum(vals * ws))

    # each endpoint in its own distance t to the end: t**expo * (1 - t)**other
    for expo, other in ((a_exp, b_exp), (b_exp, a_exp)):
        if expo.real > 0:
            continue
        if expo.real <= _CIRCLE_AT_OR_BELOW:
            total += endpoint_loop_fp(
                lambda t: (1.0 - t) ** other, expo, _CIRCLE_RADIUS,
                quad.loop_nodes, budget)
        else:
            h0, h1 = 1.0 + 0.0j, -other
            total += _endpoint_window_fp(
                expo, h0, h1,
                lambda t: (1.0 - t).astype(complex) ** other - h0 - h1 * t,
                delta, quad, budget)
    return total


def _oracle_p2(params: SelbergParams, quad: QuadratureSpec,
               budget: EvalBudget) -> complex:
    """Iterated quadrature on 0 <= t2 <= t1 <= 1 via t2 = t1*v.

    The integrand factorizes as t1**(2a+2g-1) (1-t1)**(b-1) * v**(a-1)
    (1-v)**(2g) * (1 - t1*v)**(b-1); only the last factor couples the layers.
    Positive real parts of alpha and beta are required here.

    Each of t1 and v is integrated on [0, 1/2] in the variable itself and on
    [1/2, 1] in the distance to 1, so deeply graded meshes never lose the
    small quantity to cancellation (1 - t1*v is reassembled from whichever
    pieces are exact).
    """
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    if a.real <= 0 or b.real <= 0:
        raise OutOfSupportedRange(
            "two-variable oracle needs Re alpha, Re beta > 0; "
            "negative-exponent continuation is only wired for p=1")
    out_exp0 = 2 * a + 2 * g - 1          # t1 -> 0
    out_exp1 = b - 1                      # t1 -> 1
    in_exp0 = a - 1                       # v -> 0
    in_exp1 = 2 * g                       # v -> 1 (corner sharpens it to 2g+b-1)
    order = quad.gauss_order
    lev = quad.graded_mesh_levels

    def half_nodes(exp_real):
        return graded_nodes(0.0, 0.5, max(lev, levels_for_exponent(exp_real)),
                            order, "left")

    t_lo, wt_lo = half_nodes(out_exp0.real)           # t1 on [0, 1/2]
    s_hi, ws_hi = half_nodes(out_exp1.real)           # 1-t1 on (0, 1/2]
    v_lo, wv_lo = half_nodes(in_exp0.real)            # v on [0, 1/2]
    u_hi, wu_hi = half_nodes(in_exp1.real + min(out_exp1.real, 0.0))  # 1-v
    budget.charge((t_lo.size + s_hi.size) * (v_lo.size + u_hi.size))

    fo_t = (t_lo.astype(complex) ** out_exp0) * ((1.0 - t_lo) ** out_exp1) * wt_lo
    fo_s = ((1.0 - s_hi).astype(complex) ** out_exp0) * (s_hi ** out_exp1) * ws_hi
    fi_v = (v_lo.astype(complex) ** in_exp0) * ((1.0 - v_lo) ** in_exp1) * wv_lo
    fi_u = ((1.0 - u_hi).astype(complex) ** in_exp0) * (u_hi ** in_exp1) * wu_hi

    def cross_sum(fo, fi, one_minus_tv):
        # sum_{i,j} fo_i fi_j (1 - t_i v_j)^(b-1), chunked over the outer axis
        total = 0.0 + 0.0j
        chunk = 512
        for k in range(0, fo.size, chunk):
            sl = slice(k, k + chunk)
            m = one_minus_tv(sl).astype(complex) ** (b - 1)
            total += complex(fo[sl] @ (m @ fi))
        return total

    value = cross_sum(fo_t, fi_v, lambda sl: 1.0 - np.outer(t_lo[sl], v_lo))
    value += cross_sum(fo_t, fi_u,
                       lambda sl: (1.0 - t_lo[sl])[:, None]
                       + np.outer(t_lo[sl], u_hi))
    value += cross_sum(fo_s, fi_v,
                       lambda sl: (1.0 - v_lo) + np.outer(s_hi[sl], v_lo))
    value += cross_sum(fo_s, fi_u,
                       lambda sl: np.outer(1.0 - s_hi[sl], u_hi)
                       + s_hi[sl][:, None])
    return value


def selberg_oracle(params: SelbergParams, quad: QuadratureSpec | None = None) -> complex:
    """Direct numerical evaluation of the simplex integral, p <= 2.

    p=1 continues a non-positive endpoint exponent by first-order Taylor
    subtraction above -1 and by an endpoint circle from -1 down, where an
    integer exponent raises OutOfSupportedRange; p=2 requires Re alpha,
    Re beta > 0.  gamma must have non-negative real part throughout.
    """
    quad = quad or QuadratureSpec()
    if params.p not in (1, 2):
        raise OutOfSupportedRange(f"oracle supports p in {{1, 2}}, got p={params.p}")
    if complex(params.gamma).real < 0:
        raise OutOfSupportedRange("oracle needs Re gamma >= 0")
    budget = EvalBudget(quad.max_evals)
    if params.p == 1:
        return _oracle_p1(params, quad, budget)
    return _oracle_p2(params, quad, budget)


# ---------------------------------------------------------------------------
# block normalization constants
# ---------------------------------------------------------------------------


def block_constant(p: int, kappa: int, n: int) -> BlockConstant:
    """Normalization constant c for the block labelled (p, kappa, n).

    c = (2 pi)^(p(p+1)/kappa) e^{-i pi p(3p-1)/(2 kappa)} e^{i pi (p+1)/2}
        * B_p((n+1)/kappa, -2p/kappa, 1/kappa)
        * prod_{j=1..p} (1 - e^{2 pi i (n+j)/kappa})

    The fractional power of 2 pi takes the positive real root.  p = 0 gives
    c = i (all products empty, B_0 = 1).
    """
    if kappa < 2 * p + 2:
        raise ValueError("kappa must be at least 2p+2")
    if not (0 <= n <= kappa):
        raise ValueError("n must lie in [0, kappa]")
    pref = (2 * math.pi) ** (p * (p + 1) / kappa)
    pref *= cmath.exp(-1j * cmath.pi * p * (3 * p - 1) / (2 * kappa))
    pref *= cmath.exp(1j * cmath.pi * (p + 1) / 2)
    bval = selberg_value(SelbergParams(
        p, (n + 1) / kappa, -2 * p / kappa, 1 / kappa))
    root_prod = 1.0 + 0.0j
    for j in range(1, p + 1):
        root_prod *= 1 - cmath.exp(2j * cmath.pi * (n + j) / kappa)
    return BlockConstant(p=p, kappa=kappa, n=n, value=pref * bval * root_prod)

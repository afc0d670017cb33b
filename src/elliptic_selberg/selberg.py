"""Simplex beta integrals: gamma-product closed form, quadrature oracle,
and the normalization constants attached to the block family.

Closed form (p factors, empty product = 1):

    B_p(a, b, g) = (1/p!) * prod_{j=0}^{p-1}
        Gamma(1+g+j*g) * Gamma(a+j*g) * Gamma(b+j*g)
        / (Gamma(1+g) * Gamma(a+b+(p+j-1)*g))

defined by analytic continuation: a pole in a numerator gamma raises
GammaPole, a pole hit only by a denominator gamma makes the value 0.

The oracle integrates the defining simplex integral directly, on one 1-D
endpoint rule on [0, 1] whose weights carry t**e0 (1 - t)**e1.  An end with
Re e <= -1/2 is continued by a circle of radius 1/4 (exact at any
non-integer exponent), any other is graded into to a 1e-15 tail.  p = 1 is
the sum of the rule's weights, for any non-integer endpoint exponents.  p = 2
is a tensor of two such rules in (t1, v = t2/t1), with circles at the 0 ends
only: the parameter of smaller real part (B_2 is symmetric in alpha, beta)
is continued wherever its exponents 2 alpha + 2 gamma - 1 and alpha - 1 are
not integers, the other must have real part above about 0.23.  Near an even
2 alpha + 2 gamma - 1 = -2, -4, where the closed form stays finite, the
circle divides a vanishing integral by a vanishing winding, and the relative
error grows as one over the distance (3e-11 at 0.05).
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
    endpoint_loop_nodes,
    graded_nodes,
    levels_for_exponent,
    loop_winding,
    panel_nodes,
)

__all__ = [
    "SelbergParams",
    "BlockConstant",
    "selberg_value",
    "selberg_oracle",
    "selberg_oracle_terms",
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
    log_total = sum(_log_gamma(z) for _, z in numerators)
    log_total -= sum(_log_gamma(z) for _, z in denominators)
    return complex(cmath.exp(log_total - math.lgamma(p + 1)))


# Stirling's series for log Gamma(z): the coefficients B_2k / (2k (2k - 1))
# of z^(1 - 2k), k = 1..8, used at |z| >= _STIRLING_FROM, where the first
# omitted term is below 2e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)
_STIRLING_FROM = 10.0
_HALF_LOG_2PI_OVER_E = 0.5 * (math.log(2.0 * math.pi) - 1.0)


def _log_gamma(z: complex) -> complex:
    """log Gamma(z) up to 2 pi i Z: math.lgamma (plus i pi where Gamma < 0)
    on the real line, where every block constant lies.  Off it, reflection
    Gamma(z) Gamma(1 - z) = pi / sin(pi z) for Re z < 1/2, with sin taken
    at z less its nearest integer k (sin(pi z) = (-1)^k sin(pi (z - k))),
    and Stirling's series after the upward shift Gamma(z) = Gamma(z + m) /
    (z (z + 1) ... (z + m - 1)) to |z + m| >= _STIRLING_FROM."""
    if z.imag == 0:
        negative = z.real < 0 and math.ceil(-z.real) % 2
        return complex(math.lgamma(z.real), math.pi if negative else 0.0)
    if z.real < 0.5:
        k = round(z.real)
        w = z - k
        if abs(w.imag) > 10.0:
            # sin(pi w) = (s i / 2) e^(-s i pi w) (1 - e^(2 s i pi w)), s
            # the sign of Im w, whose last factor is within 1e-27 of 1;
            # cmath.sin overflows beyond |Im w| of about 225
            sign = math.copysign(1.0, w.imag)
            log_sin = cmath.log(0.5j * sign) - 1j * sign * math.pi * w
        else:
            log_sin = cmath.log(cmath.sin(math.pi * w))
        return (math.log(math.pi) - 1j * math.pi * k - _log_gamma(1.0 - z)
                - log_sin)
    shift = 1.0
    while abs(z) < _STIRLING_FROM:
        shift *= z
        z += 1.0
    inv2, series = 1.0 / (z * z), 0.0
    for coef in reversed(_STIRLING):
        series = series * inv2 + coef
    # (z - 1/2) log z - z + log(2 pi) / 2, regrouped to round less
    return ((z - 0.5) * (cmath.log(z) - 1.0) + _HALF_LOG_2PI_OVER_E
            + series / z - cmath.log(shift))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

# an endpoint exponent with real part at or below this is continued by a
# circle of this radius around the end, where t^a stays moderate; any other
# end is graded into until the innermost panel holds under 10^-digits
_CIRCLE_AT_OR_BELOW = -0.5
_CIRCLE_RADIUS = 0.25
_TAIL_DIGITS = 15.0
_MAX_LEVELS = 220


def _half_rule(expo: complex, quad: QuadratureSpec,
               grade: complex | None = None):
    """Nodes s on [0, 1/2] in the distance to one end, weights carrying s**expo.

    With no grade given, an end with Re expo <= -1/2 is the counterclockwise
    circle |s| = 1/4 with its weights divided by the winding
    e^{2 pi i expo} - 1, plus one Gauss panel out to 1/2: the finite part,
    exact at any non-integer exponent.  Any other end is graded for the
    power s**grade (default expo).
    """
    if grade is None and expo.real <= _CIRCLE_AT_OR_BELOW:
        s, ds, phi = endpoint_loop_nodes(_CIRCLE_RADIUS, quad.loop_nodes)
        x, wx = panel_nodes(_CIRCLE_RADIUS, 0.5, quad.gauss_order)
        ws = ds * np.exp(expo * (math.log(_CIRCLE_RADIUS) + 1j * phi))
        return (np.concatenate([s, x]),
                np.concatenate([ws / loop_winding(expo), wx * x ** expo]))
    grade = expo if grade is None else grade
    levels = levels_for_exponent(grade.real, _TAIL_DIGITS, cap=_MAX_LEVELS + 1)
    if levels > _MAX_LEVELS:
        raise OutOfSupportedRange(
            f"endpoint exponent {grade} needs a graded mesh deeper than "
            f"{_MAX_LEVELS} levels")
    s, ws = graded_nodes(0.0, 0.5, max(quad.graded_mesh_levels, levels),
                         quad.gauss_order)
    return s, ws * s.astype(complex) ** expo


def _endpoint_rule(e0: complex, e1: complex, quad: QuadratureSpec,
                   grade_1: complex | None = None):
    """Rule on [0, 1] for t**e0 (1 - t)**e1 times a function analytic on it.

    Returns (t, 1 - t, w), each of t and 1 - t exact on the half next to its
    own end; w carries both powers.  Given grade_1, the 1 end takes no
    circle and is graded for (1 - t)**grade_1.
    """
    s0, w0 = _half_rule(e0, quad)
    s1, w1 = _half_rule(e1, quad, grade_1)
    return (np.concatenate([s0, 1 - s1]), np.concatenate([1 - s0, s1]),
            np.concatenate([w0 * (1 - s0) ** e1, w1 * (1 - s1) ** e0]))


def _oracle_p2(a: complex, b: complex, g: complex, quad: QuadratureSpec,
               budget: EvalBudget) -> complex:
    """Iterated quadrature on 0 <= t2 <= t1 <= 1 via t2 = t1*v.

    The integrand factorizes as t1**(2a+2g-1) (1-t1)**(b-1) * v**(a-1)
    (1-v)**(2g) * ((1-t1) + t1 (1-v))**(b-1); only the last factor couples
    the two rules, and it is analytic at t1 = 0 and v = 0 but not at the 1
    ends, so only the 0 ends take circles.  B_2 is symmetric in a <-> b, so
    the smaller real part is put at the 0 ends.
    """
    if b.real < a.real:
        a, b = b, a
    if b.real <= 0:
        raise OutOfSupportedRange("p = 2 oracle needs Re alpha or Re beta > 0")
    t, ut, fo = _endpoint_rule(2 * a + 2 * g - 1, b - 1, quad, grade_1=b - 1)
    # at t1 -> 1 the v -> 1 end sharpens to (1-v)**(2g+b-1)
    v, uv, fi = _endpoint_rule(a - 1, 2 * g, quad,
                               grade_1=2 * g + min(b.real - 1, 0.0))
    budget.charge(t.size * v.size)
    total, scale = 0.0 + 0.0j, 0.0
    chunk = 512
    for k in range(0, t.size, chunk):
        sl = slice(k, k + chunk)
        m = (ut[sl, None] + t[sl, None] * uv) ** (b - 1)
        total += complex(fo[sl] @ (m @ fi))
        scale += float(np.abs(fo[sl]) @ (np.abs(m) @ np.abs(fi)))
    return total, scale


def selberg_oracle(params: SelbergParams, quad: QuadratureSpec | None = None) -> complex:
    """selberg_oracle_terms without the scale."""
    return selberg_oracle_terms(params, quad)[0]


def selberg_oracle_terms(params: SelbergParams,
                         quad: QuadratureSpec | None = None) -> tuple:
    """Direct numerical evaluation of the simplex integral, p <= 2, and the
    rule's sum of |terms|, the scale its rounding is relative to.

    Both p run on one endpoint rule: an end whose exponent has Re <= -1/2 is
    continued by a circle, exact at any non-integer exponent (an integer one
    raises OutOfSupportedRange); any other end is graded into to a 1e-15
    tail.  p = 1 continues either exponent.  p = 2 continues the parameter
    of smaller real part and grades the other, whose real part must lie
    above about 0.23 (a graded end that needs more than the deepest mesh
    raises OutOfSupportedRange).  gamma must have non-negative real part.
    """
    quad = quad or QuadratureSpec()
    if params.p not in (1, 2):
        raise OutOfSupportedRange(f"oracle supports p in {{1, 2}}, got p={params.p}")
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    if g.real < 0:
        raise OutOfSupportedRange("oracle needs Re gamma >= 0")
    budget = EvalBudget(quad.max_evals)
    if params.p == 2:
        return _oracle_p2(a, b, g, quad, budget)
    w = _endpoint_rule(a - 1, b - 1, quad)[2]
    budget.charge(w.size)
    return complex(np.sum(w)), float(np.sum(np.abs(w)))


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

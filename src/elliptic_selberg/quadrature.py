"""Quadrature toolkit: graded Gauss-Legendre meshes, Gauss-Jacobi rules
and endpoint loops.

An endpoint-singular integrand t**a * h(t) with h analytic is either graded
into (levels_for_exponent sets the depth for the power) or continued in the
exponent by an endpoint loop: the finite part of the integral over [0, r]
equals 1/(e^{2 pi i a} - 1) times the counterclockwise circle integral of
the branch-tracked integrand at |t| = r, exact for any non-integer exponent.
An integrable power (1-x)^alpha (1+x)^beta can instead sit in the weight of
a Gauss-Jacobi rule (gauss_jacobi, by Golub and Welsch, "Calculation of
Gauss quadrature rules", Math. Comp. 23, 1969).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import OutOfSupportedRange, QuadratureBudgetExceeded

__all__ = [
    "QuadratureSpec",
    "EvalBudget",
    "gauss_legendre",
    "gauss_jacobi",
    "panel_nodes",
    "graded_breakpoints",
    "graded_nodes",
    "levels_for_exponent",
    "endpoint_loop_nodes",
    "loop_winding",
    "endpoint_loop_fp",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the singular quadrature engines.

    gauss_order and graded_mesh_levels control the panel rule and the
    least geometric grading depth; loop_nodes is the node count of an
    endpoint circle.  The radii and splits are fixed by each engine.
    max_evals caps total integrand evaluations.
    """

    gauss_order: int = 16
    graded_mesh_levels: int = 12
    loop_nodes: int = 64
    max_evals: int = 200_000_000

    def __post_init__(self):
        if self.gauss_order < 8:
            raise ValueError("gauss_order must be at least 8")
        if self.graded_mesh_levels < 1:
            raise ValueError("graded_mesh_levels must be positive")
        if self.loop_nodes < 16:
            raise ValueError("loop_nodes must be at least 16")

    @lru_cache(maxsize=64)
    def refined(self) -> "QuadratureSpec":
        """A strictly finer spec, used for mesh-comparison error estimates;
        memoised per spec."""
        return replace(self,
                       gauss_order=self.gauss_order + 6,
                       graded_mesh_levels=self.graded_mesh_levels + 8,
                       loop_nodes=self.loop_nodes + 32)


class EvalBudget:
    """Mutable counter of integrand evaluations with a hard cap."""

    __slots__ = ("used", "cap")

    def __init__(self, cap: int):
        self.used = 0
        self.cap = int(cap)

    def charge(self, n: int):
        self.used += int(n)
        if self.used > self.cap:
            raise QuadratureBudgetExceeded(
                f"integrand evaluation budget exceeded: {self.used} > {self.cap}")


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def gauss_jacobi(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes/weights for (1-x)^alpha (1+x)^beta on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic recurrence, polished by two Newton steps on P_n^(alpha, beta).
    The weights are 1 / ((1 - x^2) P_n'(x)^2) at the polished nodes, scaled
    to sum to mu0 = 2^(alpha+beta+1) B(alpha+1, beta+1).  P_n and P_n' come
    from the three-term recurrence and its derivative.  alpha, beta > -1.
    """
    a, b, k = alpha, beta, np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    # the 0/0 at k = 0 where a + b = 0 and at k = 1 where a + b = -1 are
    # taken at their limits
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = np.where(s == 0.0, (b - a) / (a + b + 2.0),
                        (b * b - a * a) / (s * (s + 2.0)))
        k, s = k[1:], s[1:]
        off = np.sqrt(np.where(s == 1.0, 2.0 * (1.0 + a) * (1.0 + b),
                               4.0 * k * (k + a) * (k + b) * (k + a + b)
                               / (s * s * (s + 1.0) * (s - 1.0))))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    def value_and_slope(x):
        p0, p = np.ones_like(x), 0.5 * (a - b + (a + b + 2.0) * x)
        d0, d = np.zeros_like(x), np.full_like(x, 0.5 * (a + b + 2.0))
        for m in range(1, n):
            t = 2.0 * m + a + b
            lin = (t + 1.0) * t * (t + 2.0)
            c = lin * x + (t + 1.0) * (a * a - b * b)
            back = 2.0 * (m + a) * (m + b) * (t + 2.0)
            den = 2.0 * (m + 1.0) * (m + a + b + 1.0) * t
            p0, p, d0, d = (p, (c * p - back * p0) / den,
                            d, (c * d + lin * p - back * d0) / den)
        return p, d

    for _ in range(2):
        p, d = value_and_slope(x)
        x = x - p / d
    w = 1.0 / ((1.0 - x) * (1.0 + x) * value_and_slope(x)[1] ** 2)
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                   + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    w *= mu0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_nodes(a: float, b: float, order: int):
    """Gauss-Legendre nodes/weights on the interval [a, b]."""
    x, w = gauss_legendre(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def graded_breakpoints(a: float, b: float, levels: int, toward: str = "left",
                       ratio: float = 0.5) -> np.ndarray:
    """Geometric breakpoints on [a, b] clustering toward one endpoint."""
    fracs = ratio ** np.arange(levels, -1, -1, dtype=float)
    fracs = np.concatenate(([0.0], fracs))
    if toward == "left":
        return a + (b - a) * fracs
    if toward == "right":
        return b - (b - a) * fracs[::-1]
    raise ValueError("toward must be 'left' or 'right'")


def graded_nodes(a: float, b: float, levels: int, order: int,
                 toward: str = "left", ratio: float = 0.5):
    """Concatenated Gauss nodes/weights on a geometrically graded mesh."""
    bps = graded_breakpoints(a, b, levels, toward, ratio)
    xs, ws = [], []
    for lo, hi in zip(bps[:-1], bps[1:]):
        x, w = panel_nodes(lo, hi, order)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def levels_for_exponent(re_exponent: float, digits: float = 10.0,
                        floor: int = 12, cap: int = 220) -> int:
    """Mesh depth so the ungraded tail [0, 2^-L] of t**a drops below 10**-digits.

    The innermost-panel deficit scales like (2**-L)**(a+1); exponents near -1
    need proportionally deeper meshes.
    """
    strength = re_exponent + 1.0
    if strength <= 0:
        return cap
    needed = math.ceil(digits / (strength * math.log10(2.0)))
    return max(floor, min(cap, needed))


def endpoint_loop_nodes(radius: float, n_nodes: int, center: complex = 0.0):
    """Counterclockwise circle nodes anchored at arg 0, with dt weights.

    Returns (t, dt_weights, phi): composite Gauss-Legendre in the angle over
    four quarter panels (the branch factor e^{i a phi} makes the integrand
    non-periodic, so the trapezoid rule is not spectrally accurate here).
    """
    per_panel = max(8, n_nodes // 4)
    phis, wphis = [], []
    for k in range(4):
        x, w = panel_nodes(k * math.pi / 2, (k + 1) * math.pi / 2, per_panel)
        phis.append(x)
        wphis.append(w)
    phi = np.concatenate(phis)
    wphi = np.concatenate(wphis)
    t = center + radius * np.exp(1j * phi)
    dt = 1j * radius * np.exp(1j * phi) * wphi
    return t, dt, phi


def loop_winding(exponent: complex) -> complex:
    """The divisor e^{2 pi i a} - 1 that turns a circle integral of t**a
    into the finite part over [0, radius]; raises near integer exponents."""
    wind = cmath.exp(2j * cmath.pi * exponent) - 1.0
    if abs(wind) < 1e-9:
        raise OutOfSupportedRange(
            f"exponent {exponent} is too close to an integer for the loop formula")
    return wind


def endpoint_loop_fp(smooth: Callable[[np.ndarray], np.ndarray],
                     exponent: complex, radius: float, n_nodes: int,
                     budget: EvalBudget | None = None) -> complex:
    """Finite part of the integral of t**exponent * smooth(t) over [0, radius].

    smooth must be analytic and single-valued on the closed disk |t| <= radius;
    the power factor is continued counterclockwise from the positive real axis
    (t**a = radius**a * e^{i a phi}).  Exact in the exponent: this is the
    analytic continuation from Re exponent > -1, valid at any non-integer a.
    """
    wind = loop_winding(exponent)
    t, dt, phi = endpoint_loop_nodes(radius, n_nodes)
    if budget is not None:
        budget.charge(t.size)
    powers = np.exp(complex(exponent) * (math.log(radius) + 1j * phi))
    total = np.sum(powers * smooth(t) * dt)
    return complex(total / wind)

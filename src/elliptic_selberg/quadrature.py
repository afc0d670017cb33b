"""Quadrature toolkit: graded Gauss-Legendre meshes and endpoint loops.

Endpoint-singular integrands t**a * h(t) with h analytic are handled two ways:

* subtraction: integrate t**a * (h - Taylor(h)) on a mesh graded toward the
  endpoint and add the Taylor part in closed form, delta**(a+1)/(a+1) etc.;
* endpoint loop: the finite part of the integral over [0, r] equals
  1/(e^{2 pi i a} - 1) times the counterclockwise circle integral of the
  branch-tracked integrand at |t| = r, exact for any non-integer exponent.

Both realize the same analytic continuation in the exponent; the loop form is
also valid when a <= -2, where low-order subtraction stops working.
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
    "panel_nodes",
    "graded_breakpoints",
    "graded_nodes",
    "levels_for_exponent",
    "fp_power_term",
    "endpoint_loop_nodes",
    "loop_winding",
    "endpoint_loop_fp",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the singular quadrature engines.

    gauss_order and graded_mesh_levels control the panel rule and the
    geometric grading depth; subtraction_order (0 or 1) is the Taylor order of
    the endpoint cofactor; endpoint_delta is the half-width of the subtraction
    windows at t = 0 and t = 1.  method selects between "subtraction" and the
    "contour" endpoint-loop realization where both are available; loop_nodes
    and loop_radius_factor shape the circle rule (radius as a fraction of the
    largest safe disk).  max_evals caps total integrand evaluations.
    """

    gauss_order: int = 16
    graded_mesh_levels: int = 12
    subtraction_order: int = 1
    endpoint_delta: float = 0.1
    method: str = "subtraction"
    loop_nodes: int = 64
    loop_radius_factor: float = 0.5
    max_evals: int = 200_000_000

    def __post_init__(self):
        if self.gauss_order < 8:
            raise ValueError("gauss_order must be at least 8")
        if self.subtraction_order not in (0, 1):
            raise ValueError("subtraction_order must be 0 or 1")
        if not (0 < self.endpoint_delta < 0.25):
            raise ValueError("endpoint_delta must lie in (0, 1/4)")
        if self.graded_mesh_levels < 1:
            raise ValueError("graded_mesh_levels must be positive")
        if self.method not in ("subtraction", "contour"):
            raise ValueError("method must be 'subtraction' or 'contour'")
        if self.loop_nodes < 16:
            raise ValueError("loop_nodes must be at least 16")
        if not (0 < self.loop_radius_factor < 1):
            raise ValueError("loop_radius_factor must lie in (0, 1)")

    def refined(self) -> "QuadratureSpec":
        """A strictly finer spec, used for mesh-comparison error estimates."""
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


def fp_power_term(exponent: complex, delta: float) -> complex:
    """The analytically continued integral of t**a over [0, delta]."""
    a1 = complex(exponent) + 1
    if abs(a1) < 1e-12:
        raise OutOfSupportedRange("exponent -1 has no power-law finite part")
    return delta ** a1 / a1


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

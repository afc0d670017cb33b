"""Theta-type special functions on the upper half plane.

Conventions used throughout the package:

    q = exp(2*pi*i*tau),  Im tau > 0,

and every fractional power of q is taken as q**c = exp(2*pi*i*tau*c), which
is single valued in tau.  The odd Jacobi theta function is evaluated from its
sine series

    theta1(lam, tau) = 2 * sum_{j>=0} (-1)**j q**((j+1/2)**2/2)
                                       * sin((2j+1)*pi*lam),

with lambda- and tau-derivatives applied term by term.  Level-kappa theta
functions are lattice sums

    theta_level(kappa, n; lam, tau)
        = sum_{j in Z} exp(2*pi*i*kappa*(j+n/(2*kappa))**2 * tau)
                     * exp(2*pi*i*kappa*(j+n/(2*kappa)) * lam).

The theta series fix their term count before summing.  Each term is bounded
from Im tau and the largest |Im lam| of the argument array (|sin z| and
|exp(i z)| are at most exp(|Im z|)), and the sum keeps every term up to and
including the second one in a row whose bound falls below tail_tolerance
times the largest bound before it (a Gaussian decay, as in Deconinck, Heil,
Bobenko, van Hoeij and Schmies, "Computing Riemann theta functions", Math.
Comp. 2004).  A count above max_terms raises NonConvergence, and a term
bound beyond the double range raises OutOfSupportedRange.  The sums run
as Laurent polynomials in exp(2*pi*i*lam) (exp(2*pi*i*kappa*lam) at level
kappa) by Horner's rule; theta1 and its even lambda-derivatives keep
sin(pi*lam) as a factor, so they stay accurate relative to their size next
to their zeros at the integers.  The eta-type products stop once |q|**j falls below tail_tolerance,
and raise NonConvergence at max_terms.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BranchAmbiguity,
    NonConvergence,
    OutOfSupportedRange,
    PoleProximity,
)

__all__ = [
    "SeriesTruncation",
    "ModularPoint",
    "EllipticArgument",
    "BranchedPower",
    "SigmaE",
    "theta1",
    "dedekind_eta",
    "dedekind_eta_logderiv",
    "phi",
    "phi_logderiv",
    "theta_level",
    "sigma_and_E",
    "branched_pow",
    "continue_log",
    "lattice_distance",
    "DEFAULT_TRUNC",
    "DEFAULT_LATTICE_FLOOR",
]

DEFAULT_LATTICE_FLOOR = 1e-6
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SeriesTruncation:
    """Stopping rule for theta series and eta-type products."""

    tail_tolerance: float = 1e-14
    max_terms: int = 600

    def __post_init__(self):
        if not (0 < self.tail_tolerance < 1):
            raise ValueError("tail_tolerance must lie in (0, 1)")
        if self.max_terms < 8:
            raise ValueError("max_terms must be at least 8")


DEFAULT_TRUNC = SeriesTruncation()


@dataclass(frozen=True)
class ModularPoint:
    """A point tau in the open upper half plane."""

    tau: complex

    def __post_init__(self):
        if not (self.tau.imag > 0):
            raise ValueError(f"Im tau must be positive, got tau={self.tau}")

    @property
    def q(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.tau)

    def q_pow(self, c: float) -> complex:
        """q**c as exp(2*pi*i*tau*c); the only branch used for fractional powers."""
        return cmath.exp(2j * cmath.pi * self.tau * c)


def lattice_distance(lam: complex, tau: complex) -> float:
    """Distance from lam to the lattice Z + tau*Z.

    The basis (1, tau) is first Lagrange-Gauss reduced to (u, v) with
    |u| <= |v| and |Re(v conj(u))| <= |u|**2 / 2.  lam is then written as
    a*u + b*v with real a, b, and the four corners of the reduced cell
    around it (floor/ceil of a and b) are compared.  Without the reduction
    the nearest point of a skewed lattice (large |Re tau| or small Im tau)
    can lie outside the four corners.
    """
    lam = complex(lam)
    u, v = 1.0 + 0.0j, complex(tau)
    while True:
        if abs(v) < abs(u):
            u, v = v, u
        mu = round((v * u.conjugate()).real / abs(u) ** 2)
        if mu == 0:
            break
        v -= mu * u
    # solve lam = a*u + b*v over the reals
    det = (u.conjugate() * v).imag
    a = (lam.conjugate() * v).imag / det
    b = (u.conjugate() * lam).imag / det
    best = math.inf
    for m in (math.floor(a), math.floor(a) + 1):
        for n in (math.floor(b), math.floor(b) + 1):
            best = min(best, abs(lam - (m * u + n * v)))
    return best


@dataclass(frozen=True)
class EllipticArgument:
    """A lattice-aware elliptic argument: lam together with its distance to Z + tau*Z."""

    lam: complex
    lattice_dist: float

    @classmethod
    def from_lambda(cls, lam: complex, pt: ModularPoint) -> "EllipticArgument":
        return cls(complex(lam), lattice_distance(lam, pt.tau))

    def require_off_lattice(self, floor: float = DEFAULT_LATTICE_FLOOR, what: str = "argument"):
        if self.lattice_dist < floor:
            raise PoleProximity(
                f"{what} {self.lam} is within {self.lattice_dist:.3e} of the lattice "
                f"(floor {floor:.1e})"
            )


# ---------------------------------------------------------------------------
# theta1 and friends
# ---------------------------------------------------------------------------


def _term_count(log_bound, trunc: SeriesTruncation, what: str) -> int:
    """Number of series terms to sum, fixed before any term is computed.

    log_bound(j) bounds log |term j| over the whole argument array.  The
    count ends with the second term in a row whose bound is below
    tail_tolerance times the largest bound so far.  A bound beyond the
    double range raises OutOfSupportedRange instead of summing to inf/nan.
    """
    log_tol = math.log(trunc.tail_tolerance)
    runmax = -math.inf
    small_streak = 0
    for j in range(trunc.max_terms):
        bound = log_bound(j)
        if bound > _LOG_DOUBLE_MAX:
            raise OutOfSupportedRange(f"{what} has terms beyond the double range")
        runmax = max(runmax, bound)
        if j >= 2 and bound <= log_tol + runmax:
            small_streak += 1
            if small_streak >= 2:
                return j + 1
        else:
            small_streak = 0
    raise NonConvergence(f"{what} needs more than {trunc.max_terms} terms")


def _max_abs_imag(lam: np.ndarray) -> float:
    return float(np.max(np.abs(lam.imag))) if lam.size else 0.0


def _horner(coefs, z):
    """sum_j coefs[j] * z**j elementwise over z; needs two coefficients or more."""
    acc = coefs[-1] * z + coefs[-2]
    for c in coefs[-3::-1]:
        acc *= z
        acc += c
    return acc


def _theta1_array(lam, tau: complex, d_lambda: int = 0, d_tau: int = 0,
                  trunc: SeriesTruncation = DEFAULT_TRUNC) -> np.ndarray:
    """Vectorised sine-series evaluation of theta1 derivatives.

    lam may be any complex ndarray; returns an array of the same shape.
    Term j is coef_j * sin((2j+1)*x + d_lambda*pi/2) with x = pi*lam, a
    signed sine for even d_lambda and a signed cosine for odd d_lambda.
    With w = exp(2ix), sin((2j+1)x) = sin(x) * sum_{|k|<=j} w**k, so a sine
    series is sin(x) times a Laurent polynomial in w; factoring out sin(x)
    keeps theta1 accurate relative to its size next to its zeros at the
    integers.  A cosine series is summed as exp(ix) P(w) + exp(-ix) P(1/w)
    with P = sum_j coef_j/2 w**j.
    """
    lam = np.asarray(lam, dtype=complex)
    a = math.pi * complex(tau).imag
    y_max = _max_abs_imag(lam)

    def log_bound(j):
        half = j + 0.5
        return (math.log(2.0) - a * half * half + 2.0 * math.pi * half * y_max
                + d_lambda * math.log(2.0 * math.pi * half)
                + d_tau * math.log(math.pi * half * half))

    terms = _term_count(log_bound, trunc, f"theta1 series (tau={tau})")
    sign = -1 if d_lambda % 4 >= 2 else 1
    coefs = []
    for j in range(terms):
        half = j + 0.5
        coef = sign * 2.0 * (-1) ** j * cmath.exp(1j * cmath.pi * tau * half * half)
        coef *= ((2 * j + 1) * math.pi) ** d_lambda
        if d_tau:
            coef *= (1j * cmath.pi * half * half) ** d_tau
        coefs.append(coef)
    x = math.pi * lam
    if d_lambda % 2:
        halves = [c / 2 for c in coefs]
        return (np.exp(1j * x) * _horner(halves, np.exp(2j * x))
                + np.exp(-1j * x) * _horner(halves, np.exp(-2j * x)))
    # The Laurent coefficient of w**k is the tail sum C_|k| = sum_{j>=|k|}
    # coef_j.  The constant one is summed as coef_0 + C_1: coef_0 then enters
    # as it does in theta1'(0), so theta1(z) / (z theta1'(0)) tends to 1
    # without a rounding offset.
    tails = list(itertools.accumulate(reversed(coefs)))[::-1][1:]
    w = np.exp(2j * x)
    w_inv = 1.0 / w
    laurent = coefs[0] + (tails[0] + w * _horner(tails, w)
                          + w_inv * _horner(tails, w_inv))
    return np.sin(x) * laurent


def theta1(lam: complex, pt: ModularPoint, d_lambda: int = 0, d_tau: int = 0,
           trunc: SeriesTruncation = DEFAULT_TRUNC) -> complex:
    """The odd Jacobi theta function theta1(lam, tau) or one of its derivatives.

    Parameters
    ----------
    lam : complex
        Elliptic argument.
    pt : ModularPoint
        Modular parameter tau (Im tau > 0).
    d_lambda, d_tau : int
        Derivative orders.  Supported range: d_lambda + 2*d_tau <= 3 with
        d_lambda, d_tau >= 0 (term-wise differentiation of the sine series).

    Notes
    -----
    theta1'(0, tau) = 2*pi*eta(tau)**3, and theta1 is odd, 1-antiperiodic and
    tau-quasi-periodic; those identities are exercised by the test suite at
    multiple points of the fundamental domain.
    """
    if d_lambda < 0 or d_tau < 0 or d_lambda + 2 * d_tau > 3:
        raise ValueError("need d_lambda, d_tau >= 0 with d_lambda + 2*d_tau <= 3")
    return complex(_theta1_array(np.array(complex(lam)), pt.tau, d_lambda, d_tau, trunc))


def dedekind_eta(pt: ModularPoint, trunc: SeriesTruncation = DEFAULT_TRUNC) -> complex:
    """Dedekind eta(tau) = q**(1/24) * prod_{j>=1} (1 - q**j)."""
    q = pt.q
    aq = abs(q)
    acc = pt.q_pow(1.0 / 24.0)
    for j in range(1, trunc.max_terms):
        acc *= 1.0 - q ** j
        if aq ** j < trunc.tail_tolerance and j >= 2:
            return acc
    raise NonConvergence(f"eta product did not settle after {trunc.max_terms} factors")


def dedekind_eta_logderiv(pt: ModularPoint, trunc: SeriesTruncation = DEFAULT_TRUNC) -> complex:
    """d/dtau log eta(tau), term-wise from the product form."""
    q = pt.q
    aq = abs(q)
    acc = 1j * cmath.pi / 12.0
    for j in range(1, trunc.max_terms):
        qj = q ** j
        acc += -2j * cmath.pi * j * qj / (1.0 - qj)
        if j * aq ** j < trunc.tail_tolerance and j >= 2:
            return acc
    raise NonConvergence("eta log-derivative series did not settle")


_PHI_KINDS = (1, 2, 3)


def phi(kind: int, pt: ModularPoint, trunc: SeriesTruncation = DEFAULT_TRUNC) -> complex:
    """Weber-type eta quotients phi_1, phi_2, phi_3.

        phi_1 = q**(-1/48) prod (1 + q**(j-1/2))
        phi_2 = q**(-1/48) prod (1 - q**(j-1/2))
        phi_3 = sqrt(2) q**(1/24) prod (1 + q**j)

    They satisfy phi_1(-1/tau) = phi_1(tau), phi_2(-1/tau) = phi_3(tau),
    phi_3(-1/tau) = phi_2(tau) and pick up 48th roots of unity under
    tau -> tau + 1.
    """
    if kind not in _PHI_KINDS:
        raise ValueError(f"phi kind must be one of {_PHI_KINDS}, got {kind}")
    q = pt.q
    aq = abs(q)
    if kind == 3:
        acc = math.sqrt(2.0) * pt.q_pow(1.0 / 24.0)
        for j in range(1, trunc.max_terms):
            acc *= 1.0 + q ** j
            if aq ** j < trunc.tail_tolerance and j >= 2:
                return acc
    else:
        sign = 1.0 if kind == 1 else -1.0
        acc = pt.q_pow(-1.0 / 48.0)
        for j in range(1, trunc.max_terms):
            acc *= 1.0 + sign * pt.q_pow(j - 0.5)
            if aq ** (j - 0.5) < trunc.tail_tolerance and j >= 2:
                return acc
    raise NonConvergence(f"phi_{kind} product did not settle")


def phi_logderiv(kind: int, pt: ModularPoint, trunc: SeriesTruncation = DEFAULT_TRUNC) -> complex:
    """d/dtau log phi_kind(tau), term-wise from the product form."""
    if kind not in _PHI_KINDS:
        raise ValueError(f"phi kind must be one of {_PHI_KINDS}, got {kind}")
    q = pt.q
    aq = abs(q)
    if kind == 3:
        acc = 1j * cmath.pi / 12.0
        for j in range(1, trunc.max_terms):
            qj = q ** j
            acc += 2j * cmath.pi * j * qj / (1.0 + qj)
            if j * aq ** j < trunc.tail_tolerance and j >= 2:
                return acc
    else:
        sign = 1.0 if kind == 1 else -1.0
        acc = -1j * cmath.pi / 24.0
        for j in range(1, trunc.max_terms):
            h = j - 0.5
            qh = pt.q_pow(h)
            acc += sign * 2j * cmath.pi * h * qh / (1.0 + sign * qh)
            if j * aq ** h < trunc.tail_tolerance and j >= 2:
                return acc
    raise NonConvergence(f"phi_{kind} log-derivative series did not settle")


# ---------------------------------------------------------------------------
# level-kappa theta functions
# ---------------------------------------------------------------------------


def _theta_level_array(kappa: int, n: int, lam, tau: complex, d_lambda: int = 0,
                       d_tau: int = 0,
                       trunc: SeriesTruncation = DEFAULT_TRUNC) -> np.ndarray:
    """Vectorised lattice sum for theta_level; lam may be a complex ndarray.

    Shell j holds the exponents m = c + j and m = c - j with c = n/(2*kappa)
    reduced to [0, 1); with u = exp(2*pi*i*kappa*lam) the sum is
    exp(2*pi*i*kappa*c*lam) times a Laurent polynomial in u.
    """
    lam = np.asarray(lam, dtype=complex)
    c = (n % (2 * kappa)) / (2.0 * kappa)
    two_pi_k = 2.0 * math.pi * kappa
    a = two_pi_k * complex(tau).imag
    y_max = _max_abs_imag(lam)

    def log_m(m):
        bound = -a * m * m + two_pi_k * abs(m) * y_max
        if d_lambda + d_tau:
            if m == 0:
                return -math.inf
            bound += (d_lambda * math.log(two_pi_k * abs(m))
                      + d_tau * math.log(two_pi_k * m * m))
        return bound

    terms = _term_count(lambda j: max(log_m(c + j), log_m(c - j)), trunc,
                        f"theta_level({kappa},{n}) sum")

    def coef(m):
        w = 2j * cmath.pi * kappa * m
        value = cmath.exp(2j * cmath.pi * kappa * m * m * tau)
        if d_lambda:
            value *= w ** d_lambda
        if d_tau:
            value *= (2j * cmath.pi * kappa * m * m) ** d_tau
        return value

    u = np.exp(2j * math.pi * kappa * lam)
    u_inv = 1.0 / u
    total = (_horner([coef(c + j) for j in range(terms)], u)
             + u_inv * _horner([coef(c - j) for j in range(1, terms)], u_inv))
    return np.exp(2j * math.pi * kappa * c * lam) * total


def theta_level(kappa: int, n: int, lam: complex, pt: ModularPoint,
                d_lambda: int = 0, d_tau: int = 0, symmetrized: bool = False,
                trunc: SeriesTruncation = DEFAULT_TRUNC) -> complex:
    """Level-kappa theta function theta_{kappa,n}(lam, tau) or a derivative.

    The index n only matters modulo 2*kappa and is reduced before summing.
    With symmetrized=True the combination theta_{kappa,n}(lam) +
    theta_{kappa,n}(-lam) is returned (derivatives of the second term carry
    the usual (-1)**d_lambda).

    Supported derivative orders: d_lambda <= 2, d_tau <= 1.
    """
    if kappa < 1:
        raise ValueError("kappa must be a positive integer")
    if not (0 <= d_lambda <= 2 and 0 <= d_tau <= 1):
        raise ValueError("need 0 <= d_lambda <= 2 and 0 <= d_tau <= 1")
    lam = complex(lam)
    val = complex(_theta_level_array(kappa, n, np.array(lam), pt.tau, d_lambda, d_tau, trunc))
    if symmetrized:
        other = complex(
            _theta_level_array(kappa, n, np.array(-lam), pt.tau, d_lambda, d_tau, trunc)
        )
        val += (-1) ** d_lambda * other
    return val


# ---------------------------------------------------------------------------
# sigma, E, rho
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaE:
    """Values of the sigma kernel and its companions at (lam, t, tau)."""

    sigma: complex
    E: complex
    rho: complex
    rho_prime: complex


def sigma_and_E(lam: complex, t: complex, pt: ModularPoint,
                trunc: SeriesTruncation = DEFAULT_TRUNC,
                lattice_floor: float = DEFAULT_LATTICE_FLOOR) -> SigmaE:
    """The kernel sigma_lam(t) = theta1(lam-t) theta1'(0) / (theta1(lam) theta1(t)),
    the prime form E(t) = theta1(t)/theta1'(0), and rho = theta1'/theta1 with its
    derivative rho' = theta1''/theta1 - rho**2, all at the same tau.

    Raises PoleProximity when lam or t is within lattice_floor of Z + tau*Z
    (sigma and rho have poles there).
    """
    EllipticArgument.from_lambda(lam, pt).require_off_lattice(lattice_floor, "lam")
    EllipticArgument.from_lambda(t, pt).require_off_lattice(lattice_floor, "t")
    th_d0 = theta1(0.0, pt, d_lambda=1, trunc=trunc)
    th_lam = theta1(lam, pt, trunc=trunc)
    th_t = theta1(t, pt, trunc=trunc)
    th_lt = theta1(lam - t, pt, trunc=trunc)
    th_dlam = theta1(lam, pt, d_lambda=1, trunc=trunc)
    th_ddlam = theta1(lam, pt, d_lambda=2, trunc=trunc)
    rho = th_dlam / th_lam
    return SigmaE(
        sigma=th_lt * th_d0 / (th_lam * th_t),
        E=th_t / th_d0,
        rho=rho,
        rho_prime=th_ddlam / th_lam - rho * rho,
    )


# ---------------------------------------------------------------------------
# branch-tracked powers
# ---------------------------------------------------------------------------


def continue_log(values: Sequence[complex]) -> np.ndarray:
    """Continuous logarithm along a path of nonzero values.

    The branch at the path head is the principal one; every later point picks
    the log continuously: the step from point k-1 to point k adds
    log|v_k / v_(k-1)| + i arg(v_k / v_(k-1)), and the steps are summed in
    path order.  Raises BranchAmbiguity when a step turns by pi or more (the
    caller must then refine the path), naming the first such index.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 1 or len(vals) == 0:
        raise ValueError("need a non-empty 1-d path of values")
    if np.any(vals == 0):
        raise BranchAmbiguity("branch tracking hit an exact zero")
    ratios = vals[1:] / vals[:-1]
    # libm's atan2 and log per step, as cmath.phase and math.log give them:
    # numpy's SIMD log and arctan2 can differ from libm in the last bit, and
    # these logs feed quadrature sums whose reports are compared byte for byte
    steps = np.fromiter(map(math.atan2, ratios.imag.tolist(),
                            ratios.real.tolist()), float, ratios.size)
    bad = np.flatnonzero(np.abs(steps) >= math.pi * (1.0 - 1e-12))
    if bad.size:
        k = int(bad[0]) + 1
        raise BranchAmbiguity(
            f"consecutive path values subtend {abs(steps[k - 1]):.6f} rad at index {k}; "
            "refine the path"
        )
    moduli = np.hypot(ratios.real, ratios.imag).tolist()
    increments = np.empty(len(vals), dtype=complex)
    increments[0] = cmath.log(vals[0])
    increments[1:] = np.fromiter(map(math.log, moduli), float, ratios.size) + 1j * steps
    return np.cumsum(increments)


@dataclass(frozen=True)
class BranchedPower:
    """A power of values along a path with a continuously tracked branch."""

    base_path: tuple
    exponent: complex
    log_branch: tuple
    values: tuple

    def __post_init__(self):
        diffs = np.diff(np.asarray(self.log_branch, dtype=complex).imag)
        if len(diffs) and np.max(np.abs(diffs)) >= math.pi:
            raise BranchAmbiguity("log branch jumps by >= pi between path points")


def branched_pow(values: Sequence[complex], exponent: complex) -> BranchedPower:
    """values**exponent along a path, with the branch continued from the head.

    At the head the principal log is used, which realises the convention
    arg -> 0 for paths that start next to the positive real axis.
    """
    logs = continue_log(values)
    powered = np.exp(complex(exponent) * logs)
    return BranchedPower(
        base_path=tuple(complex(v) for v in values),
        exponent=complex(exponent),
        log_branch=tuple(complex(v) for v in logs),
        values=tuple(complex(v) for v in powered),
    )

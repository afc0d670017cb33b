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
including the second one in a row whose bound falls below _TAIL_TOLERANCE
(1e-14) times the largest bound before it (a Gaussian decay, as in
Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing Riemann theta
functions", Math. Comp. 2004).  A count above _MAX_TERMS (600) raises
NonConvergence, and a term bound beyond the double range raises
OutOfSupportedRange.  The sums run as Laurent polynomials in
exp(2*pi*i*lam) (exp(2*pi*i*kappa*lam) at level kappa) by Horner's rule;
theta1 and its even lambda-derivatives keep sin(pi*lam) as a factor, so
they stay accurate relative to their size next to their zeros at the
integers.  The eta-type products stop once |q|**j falls below
_TAIL_TOLERANCE, and raise NonConvergence at _MAX_TERMS.

The block quadratures take the series coefficients from _theta1_coefs and
_theta_level_coefs (with |Im| bounded by |Im lam| + max |Im node|, lam
folded into |Im lam| <= Im tau / 2) and fold them with lambda-independent
moment tables of their nodes into exponential sums in lambda; a divisor
such as theta1(lam) is taken from _theta1_array.  Both helpers are
memoised (a failure is never stored).
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BranchAmbiguity,
    NonConvergence,
    OutOfSupportedRange,
)

__all__ = [
    "ModularPoint",
    "theta1",
    "dedekind_eta",
    "dedekind_eta_logderiv",
    "phi",
    "phi_logderiv",
    "theta_level",
    "continue_log",
    "lattice_distance",
    "DEFAULT_LATTICE_FLOOR",
]

DEFAULT_LATTICE_FLOOR = 1e-6
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# the stopping rule of the theta series and eta-type products: a relative
# tail tolerance and the most terms or factors summed before NonConvergence
_TAIL_TOLERANCE = 1e-14
_MAX_TERMS = 600


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


@lru_cache(maxsize=64)
def _reduced_basis(tau: complex) -> tuple:
    """Lagrange-Gauss reduced basis (u, v) of the lattice Z + tau*Z.

    |u| <= |v| and |Re(v conj(u))| <= |u|**2 / 2, so u is a shortest
    nonzero period.
    """
    u, v = 1.0 + 0.0j, complex(tau)
    while True:
        if abs(v) < abs(u):
            u, v = v, u
        mu = round((v * u.conjugate()).real / abs(u) ** 2)
        if mu == 0:
            return u, v
        v -= mu * u


def lattice_distance(lam, tau: complex):
    """Distance from lam to the lattice Z + tau*Z: a float, or with an array
    lam an array of the distances of its elements, each its scalar call's.

    lam is written as a*u + b*v with real a, b in the reduced basis (u, v)
    of _reduced_basis, and the four corners of the reduced cell around it
    (floor/ceil of a and b) are compared.  Without the reduction the nearest
    point of a skewed lattice (large |Re tau| or small Im tau) can lie
    outside the four corners.
    """
    z = np.asarray(lam, dtype=complex)
    dist = _lattice_distances(z.ravel().tolist(), tau)
    return np.array(dist).reshape(z.shape) if z.ndim else dist[0]


def _lattice_distances(lams, tau: complex) -> list:
    """lattice_distance of each Python complex of lams, as floats."""
    u, v = _reduced_basis(tau)
    det = (u.conjugate() * v).imag

    def one(z):
        # solve z = a*u + b*v over the reals
        m = math.floor((z.conjugate() * v).imag / det)
        n = math.floor((u.conjugate() * z).imag / det)
        return min(abs(z - (m * u + n * v)), abs(z - ((m + 1) * u + n * v)),
                   abs(z - (m * u + (n + 1) * v)),
                   abs(z - ((m + 1) * u + (n + 1) * v)))

    return [one(z) for z in lams]


# ---------------------------------------------------------------------------
# theta1 and friends
# ---------------------------------------------------------------------------


def _term_count(log_bound, what: str) -> int:
    """Number of series terms to sum, fixed before any term is computed.

    log_bound(j) bounds log |term j| over the whole argument array.  The
    count ends with the second term in a row whose bound is below
    _TAIL_TOLERANCE times the largest bound so far.  A bound beyond the
    double range raises OutOfSupportedRange instead of summing to inf/nan.
    """
    log_tol = math.log(_TAIL_TOLERANCE)
    runmax = -math.inf
    small_streak = 0
    for j in range(_MAX_TERMS):
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
    raise NonConvergence(f"{what} needs more than {_MAX_TERMS} terms")


def _max_abs_imag(lam: np.ndarray) -> float:
    # a few points as Python floats skip numpy's reduction set-up, and the
    # method skips np.max's dispatch, a microsecond or more a kernel call
    if lam.size <= 8:
        return max(map(abs, lam.imag.ravel().tolist()), default=0.0)
    return float(np.abs(lam.imag).max())


def _imag_groups(lams, counts) -> list:
    """(counts, indices into lams) per group of the points by counts(|Im
    lam|), the series term counts a point needs, in order of first
    appearance (one counts call per distinct |Im lam|): a group's kernel
    call gives each point the value of its own one-point call."""
    by_imag, groups = {}, {}
    for k, lam in enumerate(lams):
        y = abs(lam.imag)
        if y not in by_imag:
            by_imag[y] = counts(y)
        groups.setdefault(by_imag[y], []).append(k)
    return list(groups.items())


def _horner(coefs, z):
    """sum_j coefs[j] * z**j elementwise over z; needs two coefficients or more.

    The steps are not in place: numpy's in-place complex multiply rounds a
    one-element array differently from a longer one, and a point's value
    must not depend on the size of the grid it is evaluated in; the kernels'
    one Horner over stacked [z; 1/z] relies on it.  Their products name both
    operands: numpy's complex multiply is not commutative bit for bit, and
    runs a * (a temporary of 16,384+ elements) as temporary *= a."""
    acc = coefs[-1] * z + coefs[-2]
    for c in coefs[-3::-1]:
        acc = acc * z + c
    return acc


@lru_cache(maxsize=256)
def _theta1_coefs(tau: complex, y_max: float, d_lambda: int = 0,
                  d_tau: int = 0) -> tuple:
    """Coefficients coef_j of the sine series of a theta1 derivative, as many
    as arguments with |Im lam| <= y_max need.

    Term j is coef_j * sin((2j+1)*x + d_lambda*pi/2) with x = pi*lam: a
    signed sine for even d_lambda and a signed cosine for odd d_lambda.
    """
    a = math.pi * complex(tau).imag

    def log_bound(j):
        half = j + 0.5
        return (math.log(2.0) - a * half * half + 2.0 * math.pi * half * y_max
                + d_lambda * math.log(2.0 * math.pi * half)
                + d_tau * math.log(math.pi * half * half))

    terms = _term_count(log_bound, f"theta1 series (tau={tau})")
    return _theta1_series(tau, terms, d_lambda, d_tau)


@lru_cache(maxsize=256)
def _theta1_series(tau: complex, terms: int, d_lambda: int = 0,
                   d_tau: int = 0) -> tuple:
    """The first terms coefficients of _theta1_coefs' series."""
    sign = -1 if d_lambda % 4 >= 2 else 1
    coefs = []
    for j in range(terms):
        half = j + 0.5
        coef = sign * 2.0 * (-1) ** j * cmath.exp(1j * cmath.pi * tau * half * half)
        coef *= ((2 * j + 1) * math.pi) ** d_lambda
        if d_tau:
            coef *= (1j * cmath.pi * half * half) ** d_tau
        coefs.append(coef)
    return tuple(coefs)


@lru_cache(maxsize=256)
def _theta1_laurent(tau: complex, y_max: float, d_lambda: int = 0,
                    d_tau: int = 0) -> tuple:
    """_theta1_coefs as _theta1_array sums them: a cosine series' halves
    coef_j / 2, or a sine series' coef_0 and tails C_k = sum_{j>=k} coef_j.
    As sin((2j+1)x) = sin(x) sum_{|k|<=j} w**k, w = exp(2ix), C_|k| is the
    coefficient of w**k; its constant is summed as coef_0 + C_1, coef_0 as
    in theta1'(0), so theta1(z) / (z theta1'(0)) -> 1 without rounding."""
    coefs = _theta1_coefs(tau, y_max, d_lambda, d_tau)
    if d_lambda % 2:
        return tuple(c / 2 for c in coefs)
    return coefs[0], tuple(itertools.accumulate(reversed(coefs)))[::-1][1:]


def _theta1_array(lam, tau: complex, d_lambda: int = 0, d_tau: int = 0, *,
                  y_max: float | None = None) -> np.ndarray:
    """Vectorised sine-series evaluation of theta1 derivatives.

    lam may be any complex ndarray; returns an array of the same shape,
    summed with the term counts of |Im lam| <= y_max (by default max |Im
    lam| over the array).  A sine series is sin(x) times a Laurent
    polynomial in w = exp(2ix) (_theta1_laurent); factoring out sin(x) keeps
    theta1 accurate relative to its size next to its zeros at the integers.
    A cosine series is summed as exp(ix) P(w) + exp(-ix) P(1/w) with P =
    sum_j coef_j/2 w**j.  Either way w and 1/w make one Horner.
    """
    lam = np.asarray(lam, dtype=complex)
    laurent = _theta1_laurent(tau, _max_abs_imag(lam) if y_max is None
                              else y_max, d_lambda, d_tau)
    x = math.pi * lam.ravel()
    if d_lambda % 2:
        h = _horner(laurent, np.exp(np.concatenate([2j * x, -2j * x])))
        e = np.exp(np.concatenate([1j * x, -1j * x]))
        return (e[:x.size] * h[:x.size]
                + e[x.size:] * h[x.size:]).reshape(lam.shape)
    constant, tails = laurent
    w = np.exp(2j * x)
    z = np.concatenate([w, 1.0 / w])
    h = _horner(tails, z)
    h = z * h
    return (np.sin(x) * (constant + (tails[0] + h[:x.size] + h[x.size:]))
            ).reshape(lam.shape)


def theta1(lam: complex, pt: ModularPoint, d_lambda: int = 0,
           d_tau: int = 0) -> complex:
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
    # a one-element array rounds like the same point inside a grid
    return complex(_theta1_array(np.array([complex(lam)]), pt.tau, d_lambda, d_tau)[0])


def dedekind_eta(pt: ModularPoint) -> complex:
    """Dedekind eta(tau) = q**(1/24) * prod_{j>=1} (1 - q**j)."""
    q = pt.q
    aq = abs(q)
    acc = pt.q_pow(1.0 / 24.0)
    for j in range(1, _MAX_TERMS):
        acc *= 1.0 - q ** j
        if aq ** j < _TAIL_TOLERANCE and j >= 2:
            return acc
    raise NonConvergence(f"eta product did not settle after {_MAX_TERMS} factors")


def dedekind_eta_logderiv(pt: ModularPoint) -> complex:
    """d/dtau log eta(tau), term-wise from the product form."""
    q = pt.q
    aq = abs(q)
    acc = 1j * cmath.pi / 12.0
    for j in range(1, _MAX_TERMS):
        qj = q ** j
        acc += -2j * cmath.pi * j * qj / (1.0 - qj)
        if j * aq ** j < _TAIL_TOLERANCE and j >= 2:
            return acc
    raise NonConvergence("eta log-derivative series did not settle")


_PHI_KINDS = (1, 2, 3)


def phi(kind: int, pt: ModularPoint) -> complex:
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
        for j in range(1, _MAX_TERMS):
            acc *= 1.0 + q ** j
            if aq ** j < _TAIL_TOLERANCE and j >= 2:
                return acc
    else:
        sign = 1.0 if kind == 1 else -1.0
        acc = pt.q_pow(-1.0 / 48.0)
        for j in range(1, _MAX_TERMS):
            acc *= 1.0 + sign * pt.q_pow(j - 0.5)
            if aq ** (j - 0.5) < _TAIL_TOLERANCE and j >= 2:
                return acc
    raise NonConvergence(f"phi_{kind} product did not settle")


def phi_logderiv(kind: int, pt: ModularPoint) -> complex:
    """d/dtau log phi_kind(tau), term-wise from the product form."""
    if kind not in _PHI_KINDS:
        raise ValueError(f"phi kind must be one of {_PHI_KINDS}, got {kind}")
    q = pt.q
    aq = abs(q)
    if kind == 3:
        acc = 1j * cmath.pi / 12.0
        for j in range(1, _MAX_TERMS):
            qj = q ** j
            acc += 2j * cmath.pi * j * qj / (1.0 + qj)
            if j * aq ** j < _TAIL_TOLERANCE and j >= 2:
                return acc
    else:
        sign = 1.0 if kind == 1 else -1.0
        acc = -1j * cmath.pi / 24.0
        for j in range(1, _MAX_TERMS):
            h = j - 0.5
            qh = pt.q_pow(h)
            acc += sign * 2j * cmath.pi * h * qh / (1.0 + sign * qh)
            if j * aq ** h < _TAIL_TOLERANCE and j >= 2:
                return acc
    raise NonConvergence(f"phi_{kind} log-derivative series did not settle")


# ---------------------------------------------------------------------------
# level-kappa theta functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _theta_level_coefs(kappa: int, n: int, tau: complex, y_max: float,
                       d_lambda: int = 0, d_tau: int = 0) -> tuple:
    """(c, ahead, behind) of the level-kappa lattice sum, as many shells as
    arguments with |Im lam| <= y_max need.

    Shell j holds the exponents m = c + j and m = c - j with c = n/(2*kappa)
    reduced to [0, 1); with u = exp(2*pi*i*kappa*lam) the sum is
    exp(2*pi*i*kappa*c*lam) * (H(ahead, u) + H(behind, 1/u) / u), H the
    polynomial with those coefficients (_theta_level_array).
    """
    c = (n % (2 * kappa)) / (2.0 * kappa)
    two_pi_k = 2.0 * math.pi * kappa
    a = two_pi_k * complex(tau).imag

    def log_m(m):
        bound = -a * m * m + two_pi_k * abs(m) * y_max
        if d_lambda + d_tau:
            if m == 0:
                return -math.inf
            bound += (d_lambda * math.log(two_pi_k * abs(m))
                      + d_tau * math.log(two_pi_k * m * m))
        return bound

    terms = _term_count(lambda j: max(log_m(c + j), log_m(c - j)),
                        f"theta_level({kappa},{n}) sum")
    return _theta_level_series(kappa, n, tau, terms, d_lambda, d_tau)


@lru_cache(maxsize=256)
def _theta_level_series(kappa: int, n: int, tau: complex, terms: int,
                        d_lambda: int = 0, d_tau: int = 0) -> tuple:
    """_theta_level_coefs' (c, ahead, behind) at terms shells."""
    c = (n % (2 * kappa)) / (2.0 * kappa)

    def coef(m):
        w = 2j * cmath.pi * kappa * m
        value = cmath.exp(2j * cmath.pi * kappa * m * m * tau)
        if d_lambda:
            value *= w ** d_lambda
        if d_tau:
            value *= (2j * cmath.pi * kappa * m * m) ** d_tau
        return value

    return (c, tuple(coef(c + j) for j in range(terms)),
            tuple(coef(c - j) for j in range(1, terms)))


@lru_cache(maxsize=64)
def _level_rows(rows: tuple, tau: complex, counts: tuple, d_lambda: int,
                d_tau: int) -> tuple:
    """Per (kappa, n) of rows at its shell count, as stacked columns: 2 pi i
    kappa c over 2 pi i kappa, and per power the Horner coefficients ahead
    over behind, each zero-padded at the top to the longest row's ahead (0 u
    + c = c leaves the padded steps exact)."""
    top = max(counts)
    series = [(2j * math.pi * kappa, terms, _theta_level_series(
        kappa, n, tau, terms, d_lambda, d_tau))
        for (kappa, n), terms in zip(rows, counts)]
    cols = [np.array(col)[:, None] for col in zip(
        *[(rate * c,) + ahead + (0j,) * (top - terms)
          for rate, terms, (c, ahead, _) in series],
        *[(rate,) + behind + (0j,) * (top - terms + 1)
          for rate, terms, (_, _, behind) in series])]
    for col in cols:  # handed to every later call
        col.setflags(write=False)
    return cols[0], cols[1:]


def _theta_level_array(kappa, n, lam, tau: complex, d_lambda: int = 0,
                       d_tau: int = 0) -> np.ndarray:
    """Vectorised lattice sum for theta_level; lam may be a complex ndarray.
    With equal-length tuples kappa and n, one row per (kappa, n) over the
    flattened lam, each bit for bit its own one-row call: a shorter row's
    zero padding leaves its Horner steps exact (0 u + c = c).  u and 1/u
    make one Horner (_theta_level_coefs)."""
    z = np.asarray(lam, dtype=complex).reshape(1, -1)
    rows = tuple(zip(kappa, n)) if isinstance(kappa, tuple) else ((kappa, n),)
    y = _max_abs_imag(z)
    rates, coefs = _level_rows(rows, tau, tuple(
        len(_theta_level_coefs(k, m, tau, y, d_lambda, d_tau)[1])
        for k, m in rows), d_lambda, d_tau)
    r = len(rows)
    phases = np.empty((3 * r, z.size), dtype=complex)  # [u^c; u; 1/u]
    np.exp(rates * z, out=phases[:2 * r])
    np.divide(1.0, phases[r:2 * r], out=phases[2 * r:])
    h = _horner(coefs, phases[r:])
    h = h[:r] + phases[2 * r:] * h[r:]
    values = phases[:r] * h
    return values if isinstance(kappa, tuple) else values.reshape(np.shape(lam))


def theta_level(kappa: int, n: int, lam: complex, pt: ModularPoint,
                d_lambda: int = 0, d_tau: int = 0,
                symmetrized: bool = False) -> complex:
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
    # one-element arrays round like the same points inside a grid; lam and
    # -lam share |Im lam| and so every term count
    vals = _theta_level_array(kappa, n, np.array([lam, -lam] if symmetrized
                                                 else [lam]), pt.tau,
                              d_lambda, d_tau).tolist()
    if symmetrized:
        return vals[0] + (-1) ** d_lambda * vals[1]
    return vals[0]


# ---------------------------------------------------------------------------
# branch tracking
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

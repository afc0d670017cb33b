"""Exact bivariate q-series arithmetic over the Gaussian rationals.

Series are finite sums  sum c[(e, m)] * q**e * x**m  with Gaussian-rational
coefficients, rational q-exponents e below a truncation order, and integer
x-exponents m.  Here q = exp(2*pi*i*tau) and x = exp(pi*i*lam), so the theta
builtins below have exact expansions in this ring:

    theta1   = -i * sum_{j>=0} (-1)**j q**((2j+1)**2/8) (x**(2j+1) - x**-(2j+1))
    theta(kappa,n) = sum_{j in Z} q**(kappa*(j+n/(2kappa))**2) x**(2*kappa*j+n)
    eta      = q**(1/24) prod (1-q**j)
    phi1     = q**(-1/48) prod (1+q**(j-1/2))
    phi2     = q**(-1/48) prod (1-q**(j-1/2))
    phi3     = sqrt(2) * q**(1/24) prod (1+q**j)

sqrt(2) is not a Gaussian rational, so the "phi3" builtin returns
phi3/sqrt(2); named identities below carry the factor of 2 explicitly (or are
checked in squared form), keeping every coefficient exact.

Products run on an integer exponent grid: q-exponents are scaled to ints
over the lcm of their denominators, coefficients multiply as (re, im) pairs
of ints (Fractions only where a part is not integral), and each output
monomial is converted back to a Fraction key and a GaussianRational once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import OrderTooSmall, UnsupportedBuiltin

__all__ = [
    "GaussianRational",
    "BivariateSeries",
    "SeriesIdentity",
    "expand_builtin",
    "check_series_identity",
    "named_identity",
    "NAMED_IDENTITIES",
    "series_rows",
]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i) with exact Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re=0, im=0) -> "GaussianRational":
        return cls(_frac(re), _frac(im))

    def __add__(self, o):
        o = _coerce(o)
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = _coerce(o)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, o):
        o = _coerce(o)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, o):
        return _coerce(o) - self

    def __truediv__(self, o):
        o = _coerce(o)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _coerce(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(_frac(v), Fraction(0))
    raise TypeError(f"cannot coerce {v!r} into Q(i)")


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def _num(v: Fraction):
    return v.numerator if v.denominator == 1 else v


def _grid(items, den: int) -> list:
    """(q*den, x, re, im) rows of ((q, x), coeff) items, ascending in q, with
    the coefficient parts int where integral."""
    return sorted((qe.numerator * (den // qe.denominator), xe, _num(c.re), _num(c.im))
                  for (qe, xe), c in items)


def _spread(acc: dict, left, right: list, cap: int) -> None:
    """acc += left * right on the grid, dropping q >= cap; right ascends in q."""
    for qa, xa, ar, ai in left:
        for qb, xb, br, bi in right:
            if qa + qb >= cap:
                break
            key = (qa + qb, xa + xb)
            re, im = acc.get(key, (0, 0))
            acc[key] = (re + ar * br - ai * bi, im + ar * bi + ai * br)


def _from_grid(acc: dict, den: int, order) -> "BivariateSeries":
    out = BivariateSeries(order=order)
    out.coeffs = {(Fraction(qe, den), xe): GaussianRational(Fraction(re), Fraction(im))
                  for (qe, xe), (re, im) in acc.items() if re or im}
    return out


class BivariateSeries:
    """Truncated series in q (rational exponents) and x (integer exponents).

    `order` is the rational truncation bound: every monomial with q-exponent
    strictly below it is exact, everything at or above it has been dropped.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Optional[dict] = None, order=Fraction(10)):
        self.order = _frac(order)
        self.coeffs = {}
        if coeffs:
            for (qe, xe), c in coeffs.items():
                qe = _frac(qe)
                c = _coerce(c)
                if c and qe < self.order:
                    self.coeffs[(qe, int(xe))] = c

    # -- basic structure ----------------------------------------------------

    @property
    def lead_qexp(self) -> Fraction:
        """Smallest q-exponent present; for an (apparently) zero series the order."""
        if not self.coeffs:
            return self.order
        return min(qe for (qe, _) in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    # -- ring operations ----------------------------------------------------

    def _binary_order(self, other) -> Fraction:
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        order = self._binary_order(other)
        out = BivariateSeries(order=order)
        for src in (self.coeffs, other.coeffs):
            for key, c in src.items():
                if key[0] >= order:
                    continue
                acc = out.coeffs.get(key, GR_ZERO) + c
                if acc:
                    out.coeffs[key] = acc
                else:
                    out.coeffs.pop(key, None)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = BivariateSeries(order=self.order)
        out.coeffs = {k: -c for k, c in self.coeffs.items()}
        return out

    def scale(self, c) -> "BivariateSeries":
        c = _coerce(c)
        out = BivariateSeries(order=self.order)
        if c:
            out.coeffs = {k: v * c for k, v in self.coeffs.items()}
        return out

    def times_monomial(self, qexp, xexp: int, coeff=GR_ONE) -> "BivariateSeries":
        qexp = _frac(qexp)
        coeff = _coerce(coeff)
        out = BivariateSeries(order=self.order + qexp)
        if coeff:
            for (qe, xe), c in self.coeffs.items():
                out.coeffs[(qe + qexp, xe + int(xexp))] = c * coeff
        return out

    def __mul__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        order = min(self.order + other.lead_qexp, other.order + self.lead_qexp)
        den = math.lcm(1, *{qe.denominator for c in (self.coeffs, other.coeffs)
                            for (qe, _) in c})
        acc = {}
        _spread(acc, _grid(self.coeffs.items(), den), _grid(other.coeffs.items(), den),
                math.ceil(order * den))
        return _from_grid(acc, den, order)

    # -- x-variable helpers ---------------------------------------------------

    def x_invert(self) -> "BivariateSeries":
        """Substitute x -> 1/x (that is lam -> -lam)."""
        out = BivariateSeries(order=self.order)
        out.coeffs = {(qe, -xe): c for (qe, xe), c in self.coeffs.items()}
        return out

    def x_phase_i(self, quarter_turns: int = 1) -> "BivariateSeries":
        """Substitute x -> i**quarter_turns * x (that is lam -> lam + quarter_turns/2)."""
        powers = (GR_ONE, GR_I, -GR_ONE, -GR_I)
        out = BivariateSeries(order=self.order)
        out.coeffs = {
            (qe, xe): c * powers[(quarter_turns * xe) % 4]
            for (qe, xe), c in self.coeffs.items()
        }
        return out

    # -- display --------------------------------------------------------------

    def __repr__(self):
        n = len(self.coeffs)
        return f"BivariateSeries({n} terms, order<{self.order})"


# ---------------------------------------------------------------------------
# builtin expansions
# ---------------------------------------------------------------------------


def _one(order) -> BivariateSeries:
    return BivariateSeries({(Fraction(0), 0): GR_ONE}, order=order)


def _product(order: Fraction, factors: list) -> BivariateSeries:
    """Product of 1 + f over {(qe, xe): coeff} factors f with qe >= 0.

    Each factor is one pass over the accumulator: every old term, read from
    a snapshot, adds its shifts by the factor's monomials.
    """
    den = math.lcm(1, *(qe.denominator for f in factors for (qe, _) in f))
    cap = math.ceil(order * den)
    acc = {(0, 0): (1, 0)}
    for f in factors:
        _spread(acc, [(*key, *c) for key, c in acc.items()], _grid(f.items(), den), cap)
    return _from_grid(acc, den, order)


def expand_builtin(name: str, order, kappa: Optional[int] = None,
                   n: Optional[int] = None, at_lambda_zero: bool = False) -> BivariateSeries:
    """Exact expansion of a builtin function up to the given q-order.

    Supported names: "theta1", "theta_level" (needs kappa and n), "eta",
    "phi1", "phi2", "phi3".  "phi3" returns phi3/sqrt(2) so the coefficients
    stay Gaussian rational; callers account for the factor sqrt(2) explicitly.
    theta_level with at_lambda_zero=True sets x = 1 (the theta constant).
    """
    order = _frac(order)
    if order <= 0:
        raise OrderTooSmall("truncation order must be positive")
    if name == "theta1":
        coeffs = {}
        j = 0
        while Fraction((2 * j + 1) ** 2, 8) < order:
            qe = Fraction((2 * j + 1) ** 2, 8)
            c = -GR_I if j % 2 == 0 else GR_I
            coeffs[(qe, 2 * j + 1)], coeffs[(qe, -(2 * j + 1))] = c, -c
            j += 1
        return BivariateSeries(coeffs, order=order)
    if name == "theta_level":
        if kappa is None or n is None or kappa < 1:
            raise UnsupportedBuiltin("theta_level needs kappa >= 1 and n")
        nn = n % (2 * kappa)
        # q**(m**2/(4 kappa)) x**m with m = 2 kappa j + nn; beyond |j| = reach
        # the exponent is at least kappa (|j| - 1)**2 >= order
        reach = math.isqrt(math.ceil(order / kappa)) + 1
        counts = {}
        for m in range(nn - 2 * kappa * reach, nn + 2 * kappa * reach + 1, 2 * kappa):
            key = (Fraction(m * m, 4 * kappa), 0 if at_lambda_zero else m)
            counts[key] = counts.get(key, 0) + 1
        return BivariateSeries(counts, order=order)
    if name == "eta":
        j = 1
        factors = []
        while j <= order:
            factors.append({(Fraction(j), 0): -GR_ONE})
            j += 1
        return _product(order, factors).times_monomial(Fraction(1, 24), 0)
    if name in ("phi1", "phi2"):
        sign = GR_ONE if name == "phi1" else -GR_ONE
        factors = []
        j = 1
        while Fraction(2 * j - 1, 2) <= order:
            factors.append({(Fraction(2 * j - 1, 2), 0): sign})
            j += 1
        return _product(order, factors).times_monomial(Fraction(-1, 48), 0)
    if name == "phi3":
        factors = []
        j = 1
        while j <= order:
            factors.append({(Fraction(j), 0): GR_ONE})
            j += 1
        return _product(order, factors).times_monomial(Fraction(1, 24), 0)
    raise UnsupportedBuiltin(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# identity checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesIdentity:
    """An exact identity between two series, checked coefficient by coefficient."""

    name: str
    lhs: BivariateSeries
    rhs: BivariateSeries
    description: str = ""


@dataclass(frozen=True)
class SeriesCheckReport:
    name: str
    passed: bool
    checked_order: Fraction
    terms_compared: int
    first_mismatch: Optional[tuple] = None

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        msg = (f"{self.name}: {status} (order < {self.checked_order}, "
               f"{self.terms_compared} monomials)")
        if self.first_mismatch:
            qe, xe, lc, rc = self.first_mismatch
            msg += f"; first mismatch at q^{qe} x^{xe}: {lc} != {rc}"
        return msg


def check_series_identity(identity: SeriesIdentity) -> SeriesCheckReport:
    """Compare the two sides exactly below the smaller truncation order."""
    order = min(identity.lhs.order, identity.rhs.order)
    keys = {k for k in identity.lhs.coeffs if k[0] < order}
    keys |= {k for k in identity.rhs.coeffs if k[0] < order}
    mismatch = None
    for key in sorted(keys):
        lc = identity.lhs.coeffs.get(key, GR_ZERO)
        rc = identity.rhs.coeffs.get(key, GR_ZERO)
        if lc != rc:
            mismatch = (key[0], key[1], lc, rc)
            break
    return SeriesCheckReport(
        name=identity.name,
        passed=mismatch is None,
        checked_order=order,
        terms_compared=len(keys),
        first_mismatch=mismatch,
    )


# -- named identities --------------------------------------------------------


def _identity_theta_sym_shift(order) -> SeriesIdentity:
    # theta_{2,1}(lam) + theta_{2,1}(-lam) = theta1(lam + 1/2, tau)
    t = expand_builtin("theta_level", order, kappa=2, n=1)
    lhs = t + t.x_invert()
    rhs = expand_builtin("theta1", order).x_phase_i(1)
    return SeriesIdentity("theta_sym_2_1_is_shifted_theta1", lhs, rhs,
                          "symmetrised level-2 theta equals theta1 at lam+1/2")


def _identity_theta2_eta_phi3(order) -> SeriesIdentity:
    # 2*theta_{2,1}(0) = eta*phi3**2; phi3**2 = 2*(phi3/sqrt2)**2
    lhs = expand_builtin("theta_level", order, kappa=2, n=1, at_lambda_zero=True).scale(2)
    p3 = expand_builtin("phi3", order)
    rhs = (expand_builtin("eta", order) * p3 * p3).scale(2)
    return SeriesIdentity("two_theta21_is_eta_phi3_sq", lhs, rhs,
                          "level-2 theta constant as an eta * phi3**2 product")


def _identity_theta4_phi1(order) -> SeriesIdentity:
    t1 = expand_builtin("theta_level", order, kappa=4, n=1, at_lambda_zero=True)
    t3 = expand_builtin("theta_level", order, kappa=4, n=3, at_lambda_zero=True)
    lhs = (t1 - t3) * expand_builtin("phi1", order)
    return SeriesIdentity("theta4_diff_times_phi1_is_eta", lhs,
                          expand_builtin("eta", order),
                          "odd level-4 theta constants against phi1")


def _identity_theta4_phi2(order) -> SeriesIdentity:
    t1 = expand_builtin("theta_level", order, kappa=4, n=1, at_lambda_zero=True)
    t3 = expand_builtin("theta_level", order, kappa=4, n=3, at_lambda_zero=True)
    lhs = (t1 + t3) * expand_builtin("phi2", order)
    return SeriesIdentity("theta4_sum_times_phi2_is_eta", lhs,
                          expand_builtin("eta", order),
                          "odd level-4 theta constants against phi2")


def _identity_theta4_phi3_sq(order) -> SeriesIdentity:
    # (theta_{4,0}(0)-theta_{4,4}(0)) * phi3 = sqrt(2)*eta, checked squared:
    # ((t0-t4) * (phi3/sqrt2))**2 = eta**2
    t0 = expand_builtin("theta_level", order, kappa=4, n=0, at_lambda_zero=True)
    t4 = expand_builtin("theta_level", order, kappa=4, n=4, at_lambda_zero=True)
    f = (t0 - t4) * expand_builtin("phi3", order)
    eta = expand_builtin("eta", order)
    return SeriesIdentity("theta4_even_diff_times_phi3_sq", f * f, eta * eta,
                          "even level-4 theta constants against phi3, squared form")


def _identity_theta6_eta(order) -> SeriesIdentity:
    t1 = expand_builtin("theta_level", order, kappa=6, n=1, at_lambda_zero=True)
    t5 = expand_builtin("theta_level", order, kappa=6, n=5, at_lambda_zero=True)
    return SeriesIdentity("theta6_diff_is_eta", t1 - t5,
                          expand_builtin("eta", order),
                          "level-6 theta constant difference is eta (pentagonal numbers)")


def _identity_euler_product(order) -> SeriesIdentity:
    # phi1*phi2*phi3 = sqrt(2)  <=>  phi1*phi2*(phi3/sqrt2) = 1
    lhs = (expand_builtin("phi1", order) * expand_builtin("phi2", order)
           * expand_builtin("phi3", order))
    return SeriesIdentity("phi_product_is_const", lhs, _one(order),
                          "Euler product: prod (1-q^(2j-1))(1+q^j) = 1")


NAMED_IDENTITIES: dict[str, Callable] = {
    "theta_sym_2_1_is_shifted_theta1": _identity_theta_sym_shift,
    "two_theta21_is_eta_phi3_sq": _identity_theta2_eta_phi3,
    "theta4_diff_times_phi1_is_eta": _identity_theta4_phi1,
    "theta4_sum_times_phi2_is_eta": _identity_theta4_phi2,
    "theta4_even_diff_times_phi3_sq": _identity_theta4_phi3_sq,
    "theta6_diff_is_eta": _identity_theta6_eta,
    "phi_product_is_const": _identity_euler_product,
}


def named_identity(name: str, order) -> SeriesIdentity:
    """Build one of the registered exact identities at the requested order."""
    if name not in NAMED_IDENTITIES:
        raise UnsupportedBuiltin(
            f"unknown identity {name!r}; known: {sorted(NAMED_IDENTITIES)}")
    return NAMED_IDENTITIES[name](_frac(order))


def series_rows(series: BivariateSeries):
    """Sorted (q_exponent, x_exponent, re, im) string rows, CSV-friendly."""
    rows = []
    for (qe, xe) in sorted(series.coeffs):
        c = series.coeffs[(qe, xe)]
        rows.append((str(qe), xe, str(c.re), str(c.im)))
    return rows

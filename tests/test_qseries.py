"""Exact q-series ring: oracle comparisons, ring laws, named identities.

The oracle for the builtin expansions is a deliberately naive dict-based
product expander written inline here (no shared code with the library), plus
numeric evaluation against the floating-point special-function engine.
"""

import cmath
import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elliptic_selberg import specfun
from elliptic_selberg.errors import OrderTooSmall, UnsupportedBuiltin
from elliptic_selberg.qseries import (
    NAMED_IDENTITIES,
    BivariateSeries,
    GaussianRational,
    SeriesIdentity,
    _product,
    check_series_identity,
    expand_builtin,
    named_identity,
    series_rows,
)

ONE = GaussianRational.of(1)
I = GaussianRational.of(0, 1)


# ---------------------------------------------------------------------------
# oracle: naive product expander
# ---------------------------------------------------------------------------


def naive_product(order, factors):
    """Multiply out {exponent: coeff} factors with plain Fraction arithmetic."""
    acc = {Fraction(0): Fraction(1)}
    for f in factors:
        nxt = {}
        for ea, ca in acc.items():
            for eb, cb in f.items():
                e = ea + eb
                if e < order:
                    nxt[e] = nxt.get(e, Fraction(0)) + ca * cb
        acc = {e: c for e, c in nxt.items() if c}
    return acc


def x_free_coeffs(series):
    assert all(xe == 0 for _, xe in series.coeffs)
    return {qe: c.re for (qe, _), c in series.coeffs.items() if c.im == 0}


@pytest.mark.parametrize("name,shift,sign,step", [
    ("eta", Fraction(1, 24), -1, 1),
    ("phi3", Fraction(1, 24), +1, 1),
])
def test_integer_step_products_match_naive_expansion(name, shift, sign, step):
    order = Fraction(12)
    factors = [{Fraction(0): Fraction(1), Fraction(j): Fraction(sign)}
               for j in range(1, 13)]
    series = expand_builtin(name, order)
    want = {e + shift: c for e, c in naive_product(order, factors).items()
            if e + shift < series.order}
    assert x_free_coeffs(series) == want


@pytest.mark.parametrize("name,sign", [("phi1", 1), ("phi2", -1)])
def test_half_step_products_match_naive_expansion(name, sign):
    order = Fraction(10)
    factors = [{Fraction(0): Fraction(1), Fraction(2 * j - 1, 2): Fraction(sign)}
               for j in range(1, 12)]
    shift = Fraction(-1, 48)
    series = expand_builtin(name, order)
    want = {e + shift: c for e, c in naive_product(order + 1, factors).items()
            if e + shift < series.order}
    assert x_free_coeffs(series) == want


def test_theta_level_coefficients_are_lattice_sum():
    order = Fraction(9)
    kappa, n = 4, 3
    s = expand_builtin("theta_level", order, kappa=kappa, n=n)
    want = {}
    for j in range(-6, 7):
        qe = Fraction(kappa * (2 * kappa * j + n) ** 2, 4 * kappa ** 2)
        if qe < order:
            want[(qe, 2 * kappa * j + n)] = ONE
    assert s.coeffs == want


def test_theta1_series_is_signed_odd_powers():
    s = expand_builtin("theta1", Fraction(7))
    # q^{1/8}(x - 1/x) - q^{9/8}(x^3 - x^-3) + q^{25/8}(x^5 - x^-5) - ...
    want = {}
    for j, c in [(0, -I), (1, I), (2, -I), (3, I)]:
        qe = Fraction((2 * j + 1) ** 2, 8)  # 49/8 < 7 keeps the j=3 pair
        want[(qe, 2 * j + 1)] = c
        want[(qe, -(2 * j + 1))] = -c
    assert s.coeffs == want


def eval_series(s, lam, tau):
    tot = 0j
    for (qe, xe), c in s.coeffs.items():
        tot += ((complex(c.re) + 1j * complex(c.im))
                * cmath.exp(2j * cmath.pi * tau * float(qe))
                * cmath.exp(1j * cmath.pi * lam * xe))
    return tot


@pytest.mark.parametrize("tau", [1.1j, 0.9j])
def test_builtins_evaluate_to_float_engine(tau):
    pt = specfun.ModularPoint(tau)
    lam = 0.37
    order = Fraction(14)
    checks = [
        (expand_builtin("theta1", order), lam, specfun.theta1(lam, pt)),
        (expand_builtin("eta", order), 0.0, specfun.dedekind_eta(pt)),
        (expand_builtin("phi1", order), 0.0, specfun.phi(1, pt)),
        (expand_builtin("phi2", order), 0.0, specfun.phi(2, pt)),
        (expand_builtin("theta_level", order, kappa=6, n=5), lam,
         specfun.theta_level(6, 5, lam, pt)),
    ]
    for series, at, ref in checks:
        assert abs(eval_series(series, at, tau) - ref) < 1e-13 * max(1, abs(ref))
    p3 = expand_builtin("phi3", order)
    assert abs(eval_series(p3, 0.0, tau) * 2 ** 0.5 - specfun.phi(3, pt)) < 1e-13


def test_unknown_builtin_and_missing_args():
    with pytest.raises(UnsupportedBuiltin):
        expand_builtin("zeta", 5)
    with pytest.raises(UnsupportedBuiltin):
        expand_builtin("theta_level", 5)
    for kappa in (0, -2):  # -2 looped forever on an ever-negative exponent
        with pytest.raises(UnsupportedBuiltin):
            expand_builtin("theta_level", 5, kappa=kappa, n=1)
    with pytest.raises(OrderTooSmall):
        expand_builtin("eta", 0)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


def test_gaussian_rational_arithmetic():
    a = GaussianRational.of(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational.of(2, 5)
    assert a + b == GaussianRational.of(Fraction(5, 2), Fraction(17, 4))
    assert a * b == GaussianRational.of(
        Fraction(1, 2) * 2 - Fraction(-3, 4) * 5,
        Fraction(1, 2) * 5 + Fraction(-3, 4) * 2)
    assert (a / b) * b == a
    assert str(I * I) == "-1"
    assert 1 - a == GaussianRational.of(Fraction(1, 2), Fraction(3, 4))
    assert not GaussianRational()
    assert a


def test_gaussian_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational.of(1) / GaussianRational()


gr_strategy = st.builds(
    GaussianRational.of,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@given(a=gr_strategy, b=gr_strategy, c=gr_strategy)
@settings(max_examples=80, deadline=None)
def test_gaussian_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a / b) * b == a


# ---------------------------------------------------------------------------
# ring laws for series
# ---------------------------------------------------------------------------


def small_series(seed: int) -> BivariateSeries:
    # deterministic pseudo-random small series with exponents in (1/4)Z
    coeffs = {}
    state = seed
    for _ in range(4):
        state = (state * 1103515245 + 12345) % (2 ** 31)
        qe = Fraction(state % 8, 4)
        xe = (state // 8) % 5 - 2
        cr = Fraction((state // 64) % 7 - 3)
        ci = Fraction((state // 512) % 5 - 2)
        c = GaussianRational.of(cr, ci)
        if c:
            coeffs[(qe, xe)] = coeffs.get((qe, xe), GaussianRational()) + c
    return BivariateSeries(coeffs, order=Fraction(4))


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_series_ring_laws(i, j, k):
    a, b, c = small_series(i), small_series(j), small_series(k)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == BivariateSeries(order=a.order)
    lhs = a * (b + c)
    rhs = a * b + a * c
    # orders may differ (truncation bookkeeping is conservative); compare terms
    cutoff = min(lhs.order, rhs.order)
    assert {k_: v for k_, v in lhs.coeffs.items() if k_[0] < cutoff} == \
           {k_: v for k_, v in rhs.coeffs.items() if k_[0] < cutoff}


def test_multiplication_order_tracking():
    # multiplying by a series with positive valuation extends validity
    a = BivariateSeries({(Fraction(1, 2), 0): ONE}, order=Fraction(3))
    b = BivariateSeries({(Fraction(2), 1): ONE}, order=Fraction(5))
    assert (a * b).order == Fraction(5)  # min(3+2, 5+1/2)
    assert (a * b).coeffs == {(Fraction(5, 2), 1): ONE}


def test_monomial_and_phase_helpers():
    t = expand_builtin("theta1", Fraction(5))
    assert t.x_invert() == -t  # oddness, exact
    # theta_level index reflection via x-inversion
    s = expand_builtin("theta_level", Fraction(7), kappa=5, n=2)
    r = expand_builtin("theta_level", Fraction(7), kappa=5, n=-2)
    assert s.x_invert() == r
    # four quarter-turns come home
    assert t.x_phase_i(1).x_phase_i(3) == t
    shifted = t.times_monomial(Fraction(3, 2), -2, I)
    assert shifted.order == t.order + Fraction(3, 2)
    assert shifted.coeffs[(Fraction(1, 8) + Fraction(3, 2), -1)] == \
        t.coeffs[(Fraction(1, 8), 1)] * I


# ---------------------------------------------------------------------------
# products against the schoolbook reference
# ---------------------------------------------------------------------------


def schoolbook(a: dict, b: dict, order) -> dict:
    """Every pair of monomials multiplied in Fraction arithmetic, below order."""
    out = {}
    for (qa, xa), ca in a.items():
        for (qb, xb), cb in b.items():
            if qa + qb < order:
                key = (qa + qb, xa + xb)
                out[key] = out.get(key, GaussianRational()) + ca * cb
    return {k: c for k, c in out.items() if c}


def assert_exact(series: BivariateSeries, order, coeffs: dict):
    assert series.order == order
    assert series.coeffs == coeffs
    for (qe, xe), c in series.coeffs.items():
        assert type(qe) is Fraction and type(xe) is int
        assert type(c.re) is Fraction and type(c.im) is Fraction and c


# q-exponents on the denominators of the builtins and their products
exponent_st = st.builds(Fraction, st.integers(-6, 72), st.sampled_from([1, 8, 16, 24, 48]))
coeff_st = st.builds(GaussianRational.of,
                     st.fractions(min_value=-3, max_value=3, max_denominator=6),
                     st.fractions(min_value=-3, max_value=3, max_denominator=6))
monomials_st = st.dictionaries(st.tuples(exponent_st, st.integers(-3, 3)), coeff_st,
                               max_size=8)
# orders off the exponent grid too, where the last kept grid point is below
order_st = st.builds(Fraction, st.integers(1, 72), st.sampled_from([1, 5, 8, 16]))
series_st = st.builds(lambda c, order: BivariateSeries(c, order=order), monomials_st,
                      order_st)
H = Fraction(1, 2)


@given(a=series_st, b=series_st)
# q^(1/2) * q^(1/2) lands exactly on the order and is dropped
@example(a=BivariateSeries({(Fraction(0), 0): ONE, (H, 1): ONE}, order=Fraction(1)),
         b=BivariateSeries({(Fraction(0), 0): ONE, (H, -1): I}, order=Fraction(1)))
# (1 + i q^(1/8) x)(1 - i q^(1/8) x) = 1 + q^(1/4) x^2: the q^(1/8) terms cancel
@example(a=BivariateSeries({(Fraction(0), 0): ONE, (Fraction(1, 8), 1): I}, order=Fraction(2)),
         b=BivariateSeries({(Fraction(0), 0): ONE, (Fraction(1, 8), 1): -I}, order=Fraction(2)))
# (1 + q)**2 below order 3/2 keeps 2q, one grid step under the order
@example(a=BivariateSeries({(Fraction(0), 0): ONE, (Fraction(1), 0): ONE}, order=Fraction(3, 2)),
         b=BivariateSeries({(Fraction(0), 0): ONE, (Fraction(1), 0): ONE}, order=Fraction(3, 2)))
@example(a=BivariateSeries(order=Fraction(3)),
         b=BivariateSeries({(Fraction(1, 48), 2): I}, order=Fraction(5, 8)))
@settings(max_examples=120, deadline=None)
def test_product_matches_schoolbook(a, b):
    order = min(a.order + b.lead_qexp, b.order + a.lead_qexp)
    assert_exact(a * b, order, schoolbook(a.coeffs, b.coeffs, order))


@given(factors=st.lists(st.dictionaries(
           st.tuples(st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 8, 16, 24, 48])),
                     st.integers(-2, 2)), coeff_st, max_size=3), max_size=6),
       order=order_st)
@example(factors=[{(Fraction(1, 2), 0): ONE}, {(Fraction(1, 2), 0): -ONE}], order=Fraction(1))
@example(factors=[{(Fraction(1), 0): ONE}, {(Fraction(1), 1): I}], order=Fraction(3, 2))
@example(factors=[], order=Fraction(3))
@settings(max_examples=80, deadline=None)
def test_euler_product_matches_schoolbook(factors, order):
    want = {(Fraction(0), 0): ONE}
    for f in factors:
        one_plus_f = dict(f)
        one_plus_f[(Fraction(0), 0)] = one_plus_f.get((Fraction(0), 0), GaussianRational()) + ONE
        want = schoolbook(want, one_plus_f, order)
    assert_exact(_product(order, factors), order, want)


# ---------------------------------------------------------------------------
# named identities and alternation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(NAMED_IDENTITIES))
def test_named_identities_hold_exactly(name):
    report = check_series_identity(named_identity(name, Fraction(10)))
    assert report.passed, str(report)
    assert report.checked_order >= Fraction(8)


def test_named_identity_unknown_name():
    with pytest.raises(UnsupportedBuiltin):
        named_identity("nonsense", 5)


def test_check_reports_first_mismatch():
    e = expand_builtin("eta", Fraction(6))
    tampered = e + BivariateSeries({(Fraction(3), 0): I}, order=Fraction(6))
    report = check_series_identity(SeriesIdentity("tampered", e, tampered))
    assert not report.passed
    qe, xe, lc, rc = report.first_mismatch
    assert (qe, xe) == (Fraction(3), 0)
    assert rc - lc == I
    assert "FAIL" in str(report)


def alternates(plain, flipped) -> bool:
    """Whether two x-free series are related by q**(1/2) -> -q**(1/2): below
    the smaller order their exponents lie in one coset base + Z/2, and
    flipped[base + k/2] equals (-1)**k plain[base + k/2]."""
    assert all(xe == 0 for s in (plain, flipped) for _, xe in s.coeffs)
    order = min(plain.order, flipped.order)
    keys = sorted({qe for s in (plain, flipped) for qe, _ in s.coeffs if qe < order})
    zero = GaussianRational()
    return all((qe - keys[0]) * 2 % 1 == 0
               and flipped.coeffs.get((qe, 0), zero)
               == plain.coeffs.get((qe, 0), zero) * (-1) ** int((qe - keys[0]) * 2)
               for qe in keys)


def test_phi_pair_alternates_in_half_steps():
    p1 = expand_builtin("phi1", Fraction(10))
    p2 = expand_builtin("phi2", Fraction(10))
    assert alternates(p1, p2)


def test_theta4_pair_alternates_in_half_steps():
    t1 = expand_builtin("theta_level", Fraction(10), kappa=4, n=1, at_lambda_zero=True)
    t3 = expand_builtin("theta_level", Fraction(10), kappa=4, n=3, at_lambda_zero=True)
    assert alternates(t1 - t3, t1 + t3)


def test_alternation_detects_failure():
    # the check above is not vacuous: a series does not alternate against
    # itself, and a series in x is refused
    p1 = expand_builtin("phi1", Fraction(6))
    assert not alternates(p1, p1)
    with pytest.raises(AssertionError):
        alternates(expand_builtin("theta1", 4), p1)


def test_series_rows_are_sorted_strings():
    s = BivariateSeries({(Fraction(1, 2), -1): I, (Fraction(0), 2): ONE},
                        order=Fraction(3))
    rows = series_rows(s)
    assert rows == [("0", 2, "1", "0"), ("1/2", -1, "0", "1")]


# ---------------------------------------------------------------------------
# pinned exact outputs
# ---------------------------------------------------------------------------


def digest(*parts) -> str:
    return hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest()[:16]


def builtin_digest(name, kappa, n, at_lambda_zero) -> str:
    return digest(series_rows(expand_builtin(name, 24, kappa=kappa, n=n,
                                             at_lambda_zero=at_lambda_zero)))


def identity_digest(name, order) -> str:
    identity = named_identity(name, order)
    return digest(check_series_identity(identity), series_rows(identity.lhs),
                  series_rows(identity.rhs))


PIN_BUILTINS = [(name, None, None) for name in ("eta", "phi1", "phi2", "phi3", "theta1")]
PIN_BUILTINS += [("theta_level", kappa, n) for kappa, n in
                 [(2, 1), (4, 0), (4, 1), (4, 2), (4, 3), (4, 4), (6, 1), (6, 5)]]

# sha256 prefixes of the exact outputs as the schoolbook Fraction products
# gave them: the rows of every builtin at order 24 (at_lambda_zero only
# reaches theta_level), and each named identity's report and both sides'
# rows at orders 20, 24 and 48
BUILTIN_PINS = {
    ("eta", None, None, False): "fc0b1e0d31dc6f95",
    ("eta", None, None, True): "fc0b1e0d31dc6f95",
    ("phi1", None, None, False): "34a774089031a8fa",
    ("phi1", None, None, True): "34a774089031a8fa",
    ("phi2", None, None, False): "9a043eb350ebb884",
    ("phi2", None, None, True): "9a043eb350ebb884",
    ("phi3", None, None, False): "762abeb0ae085c4c",
    ("phi3", None, None, True): "762abeb0ae085c4c",
    ("theta1", None, None, False): "fa0083b0262d9d9e",
    ("theta1", None, None, True): "fa0083b0262d9d9e",
    ("theta_level", 2, 1, False): "c211fbb3a0d7d1d5",
    ("theta_level", 2, 1, True): "f76fca2d8dcef319",
    ("theta_level", 4, 0, False): "68371900be7f83a7",
    ("theta_level", 4, 0, True): "00879534d6700bff",
    ("theta_level", 4, 1, False): "7e0428b3344a63af",
    ("theta_level", 4, 1, True): "b89b906e77f1dbcb",
    ("theta_level", 4, 2, False): "f52a3d64a6095c0d",
    ("theta_level", 4, 2, True): "e4554074ce50b52f",
    ("theta_level", 4, 3, False): "eada7eeac009fc7a",
    ("theta_level", 4, 3, True): "1518a6741e0d3979",
    ("theta_level", 4, 4, False): "1eba8c0471616050",
    ("theta_level", 4, 4, True): "ef611c26199ccdf6",
    ("theta_level", 6, 1, False): "110370dccf9ada76",
    ("theta_level", 6, 1, True): "e60e4cb21614c1d2",
    ("theta_level", 6, 5, False): "d6fc0da34761b822",
    ("theta_level", 6, 5, True): "42d8200239850326",
}
IDENTITY_PINS = {
    ("phi_product_is_const", 20): "03723124daeddca7",
    ("theta4_diff_times_phi1_is_eta", 20): "373a577cd6dd83d8",
    ("theta4_even_diff_times_phi3_sq", 20): "b6882f3c48c45562",
    ("theta4_sum_times_phi2_is_eta", 20): "cc09536b4ca220da",
    ("theta6_diff_is_eta", 20): "a65f50fc45bb9edc",
    ("theta_sym_2_1_is_shifted_theta1", 20): "c7c6e73a39e0592f",
    ("two_theta21_is_eta_phi3_sq", 20): "2b5be2520988bd3d",
    ("phi_product_is_const", 24): "b311b3d7f6a5dd68",
    ("theta4_diff_times_phi1_is_eta", 24): "d09b378327c57ec4",
    ("theta4_even_diff_times_phi3_sq", 24): "94d40ce82aea132c",
    ("theta4_sum_times_phi2_is_eta", 24): "e3a8d227bc601904",
    ("theta6_diff_is_eta", 24): "01f7da8843bb7c21",
    ("theta_sym_2_1_is_shifted_theta1", 24): "7730fdade670a998",
    ("two_theta21_is_eta_phi3_sq", 24): "5015d74fc9c2df25",
    ("phi_product_is_const", 48): "35b10819bc6b32aa",
    ("theta4_diff_times_phi1_is_eta", 48): "fda832353f7b33a2",
    ("theta4_even_diff_times_phi3_sq", 48): "0a8ecb2a2c01a0d5",
    ("theta4_sum_times_phi2_is_eta", 48): "31c0244f5624fe8d",
    ("theta6_diff_is_eta", 48): "44abb0c8af5f17f2",
    ("theta_sym_2_1_is_shifted_theta1", 48): "e99ba2aa02cd8243",
    ("two_theta21_is_eta_phi3_sq", 48): "727e7135a8ec4207",
}


@pytest.mark.parametrize("key", list(BUILTIN_PINS), ids=str)
def test_builtin_rows_are_pinned(key):
    assert builtin_digest(*key) == BUILTIN_PINS[key]


@pytest.mark.parametrize("key", list(IDENTITY_PINS), ids=str)
def test_identity_reports_are_pinned(key):
    assert identity_digest(*key) == IDENTITY_PINS[key]

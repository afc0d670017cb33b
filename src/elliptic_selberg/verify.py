"""Numeric verification harness.

Three layers of checks, and the battery that runs them:

* the ten closed-form evaluations of the regularized block integrals
  (``verify_identities``, and ``verify_identity`` for one), comparing
  quadrature values against products of eta/phi weights, a power of the
  odd Jacobi theta, and level-theta combinations, with the normalization
  constants from ``selberg``, both sides evaluated a whole lambda grid at
  a time and the blocks of every identity as one family;
* residuals of the heat equation the blocks satisfy (``kzb_residual``),
  either with exact series derivatives for the closed forms or with
  Richardson finite differences for arbitrary evaluators;
* residuals of the first-order tau-ODEs that pin down the scalar weights
  in the closed forms (``ode_residual``), at the two degeneration points;
* ``battery``, the ordered list of named checks with their stated
  tolerances, which ``ellsel suite``, the acceptance tests and the demos
  all run.

Every report carries its inputs, so a run is reproducible from the report
alone.  Before any quadrature runs, the exact series identities that the
closed-form weights rely on are re-proven once per process.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from .blocks import BlockIndex, _family_values, leading_term_constant
from .errors import EllipticSelbergError, OutOfSupportedRange
from .macdonald import (ct_inner, macdonald_basis, modular_matrices,
                        relation_residuals)
from .qseries import NAMED_IDENTITIES, check_series_identity, named_identity
from .quadrature import QuadratureSpec
from .selberg import block_constant
from .specfun import (ModularPoint, dedekind_eta, dedekind_eta_logderiv, phi,
                      phi_logderiv, theta1, theta_level)

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_TAU",
    "DEFAULT_TOLERANCE",
    "MATRIX_CASES",
    "SECONDARY_TAU",
    "Check",
    "ClosedFormSolution",
    "IdentityStructure",
    "VerificationReport",
    "battery",
    "heat_residual_check",
    "identity_structure",
    "kzb_residual",
    "kzb_solution_for_identity",
    "ode_recipe_value",
    "ode_residual",
    "orthogonality_check",
    "phi_rule_checks",
    "rel_errors",
    "rhs_shift_phase",
    "rhs_value",
    "series_prerequisites",
    "sym_theta_residual_check",
    "symmetric_theta_solution",
    "verify_identities",
    "verify_identity",
]

DEFAULT_LAMBDA_GRID = (0.13, 0.27, 0.41, 0.55, 0.69, 0.83)
DEFAULT_TAU = 0.9j
SECONDARY_TAU = 0.6j

IDENTITY_IDS = tuple(range(1, 11))

# per-identity data, parameterized by p:
#   kappa offset over 2p; the index of the normalization constant; the
#   second block index and the parity of its phase sign (None: single-u);
#   the power of two in the weight; the (factor, exponent-coefficient)
#   pairs, exponent = coeff * (p+1)/kappa; the level-theta combination as
#   (level, index, sign, symmetrized) terms.
_STRUCTURE = {
    1: (2, 1, None, 0.0, (), ()),
    2: (3, 1, None, 0.0, (("eta", -3.0),), ((1, 0, 1, False),)),
    3: (3, 2, None, 0.0, (("eta", -3.0),), ((1, 1, 1, False),)),
    4: (4, 2, None, -2.0, (("phi3", 4.0), ("eta", -4.0)),
        ((2, 1, 1, True),)),
    5: (4, 1, (3, 1), 0.0, (("phi2", 4.0), ("eta", -4.0)),
        ((2, 0, 1, False), (2, 2, -1, False))),
    6: (4, 1, (3, 0), 0.0, (("phi1", 4.0), ("eta", -4.0)),
        ((2, 0, 1, False), (2, 2, 1, False))),
    7: (6, 1, (5, 1), 3.0, (("phi3", -6.0), ("eta", -6.0)),
        ((4, 0, 1, False), (4, 4, -1, False))),
    8: (6, 2, (4, 0), 0.0, (("phi2", -6.0), ("eta", -6.0)),
        ((4, 1, 1, True), (4, 3, 1, True))),
    9: (6, 2, (4, 1), 0.0, (("phi1", -6.0), ("eta", -6.0)),
        ((4, 1, 1, True), (4, 3, -1, True))),
    10: (8, 2, (6, 1), 0.0, (("eta", -8.0),),
         ((6, 1, 1, True), (6, 5, -1, True))),
}


@dataclass(frozen=True)
class IdentityStructure:
    """One closed-form evaluation, resolved for a concrete p."""

    ident: int
    p: int
    kappa: int
    constant_index: int
    lhs_terms: tuple          # ((n, coefficient), ...)
    power_of_two: float       # exponent of the plain 2** prefactor
    weight_factors: tuple     # ((name, exponent), ...) on eta/phi factors
    theta_terms: tuple        # ((level, index, sign, symmetrized), ...)


def identity_structure(ident: int, p: int) -> IdentityStructure:
    if ident not in _STRUCTURE:
        raise ValueError(f"identity id must be 1..10, got {ident}")
    if p < 1:
        raise OutOfSupportedRange(
            "the closed forms degenerate at p = 0; use p >= 1")
    offset, c_shift, second, two_exp, weights, thetas = _STRUCTURE[ident]
    kappa = 2 * p + offset
    n_first = p + c_shift
    lhs = [(n_first, 1.0 + 0.0j)]
    if second is not None:
        n_gap, parity = second
        phase = ((-1.0) ** (p + parity)
                 * cmath.exp(2j * math.pi * p * n_first / kappa))
        lhs.append((p + n_gap, phase))
    expo_unit = (p + 1) / kappa
    weight = tuple((name, coeff * expo_unit) for name, coeff in weights)
    return IdentityStructure(
        ident=ident, p=p, kappa=kappa, constant_index=n_first,
        lhs_terms=tuple(lhs), power_of_two=two_exp * expo_unit,
        weight_factors=weight, theta_terms=thetas)


# ---------------------------------------------------------------------------
# eta/phi weights and their tau-log-derivatives
# ---------------------------------------------------------------------------


def _frac_power(base: complex, expo: float) -> complex:
    if base == 0:
        raise ZeroDivisionError("zero base in a fractional power")
    if abs(base.imag) < 1e-14 * abs(base) and base.real > 0:
        return math.exp(expo * math.log(base.real))
    return cmath.exp(expo * cmath.log(base))


def _factor_value(name: str, pt: ModularPoint) -> complex:
    if name == "eta":
        return dedekind_eta(pt)
    return phi(int(name[-1]), pt)


def _factor_logderiv(name: str, pt: ModularPoint) -> complex:
    if name == "eta":
        return dedekind_eta_logderiv(pt)
    return phi_logderiv(int(name[-1]), pt)


def _weight_value(st: IdentityStructure, pt: ModularPoint) -> complex:
    total = 2.0 ** st.power_of_two
    for name, expo in st.weight_factors:
        total *= _frac_power(_factor_value(name, pt), expo)
    return total


def _weight_logderiv(st: IdentityStructure, pt: ModularPoint) -> complex:
    return sum((expo * _factor_logderiv(name, pt)
                for name, expo in st.weight_factors), 0.0 + 0.0j)


def _theta_combo(st: IdentityStructure, lam: complex, pt: ModularPoint,
                 d_lambda: int = 0, d_tau: int = 0) -> complex:
    if not st.theta_terms:
        return 1.0 + 0.0j if d_lambda == 0 and d_tau == 0 else 0.0 + 0.0j
    total = 0.0 + 0.0j
    for level, index, sign, symmetrized in st.theta_terms:
        total += sign * theta_level(level, index, lam, pt, d_lambda=d_lambda,
                                    d_tau=d_tau, symmetrized=symmetrized)
    return total


@lru_cache(maxsize=64)
def _identity_plan(idents: tuple, p: int) -> tuple:
    """(structures, blocks, coefficients, rows) of idents at p, raising as
    identity_structure does in their order: each combination's blocks and
    coefficients, and the distinct (level, index) of the theta terms."""
    sts = tuple(identity_structure(ident, p) for ident in idents)
    return (sts, tuple(BlockIndex(p, st.kappa, n) for st in sts
                       for n, _ in st.lhs_terms),
            tuple(tuple(coeff for _, coeff in st.lhs_terms) for st in sts),
            tuple(dict.fromkeys(term[:2] for st in sts
                                for term in st.theta_terms)))


@lru_cache(maxsize=64)
def _verify_plan(idents: tuple, p: int, pt: ModularPoint,
                 quad: QuadratureSpec) -> tuple:
    """(constants, spec): per identity of idents the lambda-free factor of
    its closed form, block constant times weight, and the spec's fields as
    (name, value) pairs, which every report echoes."""
    return (tuple(block_constant(p, st.kappa, st.constant_index).value
                  * _weight_value(st, pt) for st in _identity_plan(idents, p)[0]),
            tuple(asdict(quad).items()))


def _rhs_grids(sts: list, rows: tuple, p: int, constants: list, lams: list,
               pt: ModularPoint) -> list:
    """Per structure of sts, constant * theta1(lam)^(p+1) * its theta
    combination per complex point of lams.  The points sharing the term
    counts of every series make one theta1 call and one level-theta call,
    whose rows are the distinct (level, index) of the theta terms on [lam...,
    -lam...]; the products are per point and structure."""
    tau = pt.tau

    def counts(y):
        return (len(specfun._theta1_coefs(tau, y)),
                *(len(specfun._theta_level_coefs(level, index, tau, y)[1])
                  for level, index in rows))

    out = [[None] * len(lams) for _ in sts]
    for _, ks in specfun._imag_groups(lams, counts):
        m = len(ks)
        both = np.array([lams[k] for k in ks] + [-lams[k] for k in ks])
        thetas = specfun._theta1_array(both[:m], tau).tolist()
        levels = dict(zip(rows, specfun._theta_level_array(
            *zip(*rows), both, tau).tolist() if rows else ()))
        for values, st, constant in zip(out, sts, constants):
            for i, (k, t) in enumerate(zip(ks, thetas)):
                combo = 0j if st.theta_terms else 1.0 + 0.0j
                for level, index, sign, sym in st.theta_terms:
                    v = levels[level, index]
                    combo += sign * (v[i] + v[m + i] if sym else v[i])
                values[k] = constant * t ** (p + 1) * combo
    return out


def rhs_value(ident: int, p: int, lam: complex, pt: ModularPoint) -> complex:
    """The closed-form side of one identity at (lam, tau): the one-point
    grid of _rhs_grids."""
    sts, _, _, rows = _identity_plan((ident,), p)
    constants = _verify_plan((ident,), p, pt, QuadratureSpec())[0]
    return _rhs_grids(sts, rows, p, constants, [complex(lam)], pt)[0][0]


def rhs_shift_phase(pair: tuple, p: int) -> complex:
    """Constant relating a closed form at tau+1 to its partner at tau.

    The weight pairs (phi2 <-> phi1) and the level-theta combinations swap
    under tau -> tau+1, leaving one scalar phase; it only depends on the
    identity family.
    """
    if pair == (5, 6):
        kappa = 2 * p + 4
        return cmath.exp(1j * math.pi * (p + 1) ** 2 / (2 * kappa))
    if pair == (8, 9):
        kappa = 2 * p + 6
        return cmath.exp(1j * math.pi * (p + 2) ** 2 / (2 * kappa))
    raise ValueError("recognized pairs are (5, 6) and (8, 9)")


# ---------------------------------------------------------------------------
# series prerequisites (exact, run once per process)
# ---------------------------------------------------------------------------

_PREREQ_CACHE: dict = {}


def series_prerequisites(force: bool = False) -> dict:
    """Prove the exact series identities the closed-form weights rely on.

    Returns {name: ok}; cached after the first call.  ``verify_identity``
    refuses to spend quadrature time if any of these fail.
    """
    if _PREREQ_CACHE and not force:
        return dict(_PREREQ_CACHE)
    results = {}
    for name in sorted(NAMED_IDENTITIES):
        report = check_series_identity(named_identity(name, 24))
        results[name] = bool(report.passed)
    _PREREQ_CACHE.clear()
    _PREREQ_CACHE.update(results)
    return dict(results)


def _require_prerequisites() -> None:
    results = series_prerequisites()
    bad = [name for name, ok in results.items() if not ok]
    if bad:
        raise EllipticSelbergError(
            f"exact series prerequisites failed: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


# every identity reaches 1e-13 or better: a loss of three digits fails
DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    name: str
    inputs: dict
    lhs: tuple
    rhs: tuple
    abs_err: float
    rel_err: float
    quad_agreement: float
    budget: int
    tolerance: float
    passed: bool
    notes: tuple = field(default=())

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": dict(self.inputs),
            "lhs": [[z.real, z.imag] for z in self.lhs],
            "rhs": [[z.real, z.imag] for z in self.rhs],
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "quad_agreement": self.quad_agreement,
            "budget": self.budget,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "notes": list(self.notes),
        }


def rel_errors(lhs, rhs) -> list:
    """Per grid point, |lhs - rhs| relative to |rhs|, or to the largest |rhs|
    of the grid where |rhs| is below 1e-3 of it."""
    return _relative(lhs, rhs, [abs(b) for b in rhs])


def _relative(lhs, rhs, sizes) -> list:  # rel_errors, given sizes |rhs|
    scale = max(sizes)
    return [abs(a - b) / (size if size > 1e-3 * scale else scale)
            for a, b, size in zip(lhs, rhs, sizes)]


def verify_identities(idents, p: int, lambda_grid=None,
                      pt: ModularPoint | None = None,
                      quad: QuadratureSpec | None = None,
                      tol: float | None = None) -> tuple:
    """Compare the block quadrature against each closed form of idents on
    one grid, one report per identity in order.

    The quadrature side runs coarse and refined meshes internally; a report
    fails if the two disagree beyond tolerance even when the match to the
    closed form looks good, to guard against lucky cancellation.  The
    distinct blocks of all the combinations run as one u_blocks family and
    the closed forms as one _rhs_grids pass; |rhs| is taken once per point.
    All but lambda is planned once, each part at its step so that errors
    come in order: _identity_plan, the blocks' plan, then _verify_plan.
    """
    _require_prerequisites()
    idents = tuple(idents)
    sts, family, coefficients, rows = _identity_plan(idents, p)
    pt = pt or ModularPoint(DEFAULT_TAU)
    grid = tuple(lambda_grid) if lambda_grid is not None else DEFAULT_LAMBDA_GRID
    if not grid:
        raise ValueError("the lambda grid is empty")
    quad = quad or QuadratureSpec()
    tol = tol if tol is not None else DEFAULT_TOLERANCE

    blocks = iter(_family_values(family, grid, pt, quad))
    constants, quadrature = _verify_plan(idents, p, pt, quad)
    points = [complex(x) for x in grid]
    complex_grid = any(z.imag for z in points)
    reports = []
    for st, coeffs, rhs in zip(sts, coefficients, _rhs_grids(
            sts, rows, p, constants, points, pt)):
        values, errors, budgets = zip(*(next(blocks) for _ in coeffs))
        # a row holds a point's block values or estimates
        lhs = [sum((c * v for c, v in zip(coeffs, row)), 0j)
               for row in zip(*values)]
        estimates = [sum(abs(c) * e for c, e in zip(coeffs, row))
                     for row in zip(*errors)]
        budget = len(rhs) * sum(budgets)

        sizes = [abs(b) for b in rhs]
        scale = max(sizes)
        abs_err = max(abs(a - b) for a, b in zip(lhs, rhs))
        rel_err = max(_relative(lhs, rhs, sizes))
        quad_agreement = max(e / max(size, 1e-3 * scale, 1e-300)
                             for e, size in zip(estimates, sizes))
        notes = (("coarse and refined quadrature disagree beyond tolerance",)
                 if quad_agreement > tol else ())
        inputs = {
            "identity": st.ident,
            "p": p,
            "kappa": st.kappa,
            "tau": [pt.tau.real, pt.tau.imag],
            # a complex grid is echoed as [re, im] pairs, a real one as reals
            "lambda_grid": [[z.real, z.imag] if complex_grid else z.real
                            for z in points],
            "quadrature": dict(quadrature),
            "tolerance": tol,
        }
        reports.append(VerificationReport(
            name=f"identity-{st.ident}", inputs=inputs, lhs=tuple(lhs),
            rhs=tuple(rhs), abs_err=abs_err, rel_err=rel_err,
            quad_agreement=quad_agreement, budget=budget, tolerance=tol,
            passed=rel_err <= tol and quad_agreement <= tol, notes=notes))
    return tuple(reports)


def verify_identity(ident: int, p: int, lambda_grid=None,
                    pt: ModularPoint | None = None,
                    quad: QuadratureSpec | None = None,
                    tol: float | None = None) -> VerificationReport:
    """The one-identity case of verify_identities."""
    return verify_identities((ident,), p, lambda_grid, pt, quad, tol)[0]


# ---------------------------------------------------------------------------
# heat-equation residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormSolution:
    """A function with exact series lambda- and tau-derivatives.

    value = weight(tau) * theta1(lam)^(p+1) * theta-combination(lam, tau);
    the tau-derivatives use the term-wise heat relations of the series and
    the logarithmic derivatives of the weight factors.
    """

    p: int
    kappa: int
    structure: IdentityStructure

    def value(self, lam: complex, pt: ModularPoint) -> complex:
        st = self.structure
        rows = tuple(dict.fromkeys(term[:2] for term in st.theta_terms))
        return _rhs_grids([st], rows, self.p, [_weight_value(st, pt)],
                          [complex(lam)], pt)[0][0]

    def d_lambda2(self, lam: complex, pt: ModularPoint) -> complex:
        st = self.structure
        p = self.p
        w = _weight_value(st, pt)
        t = theta1(lam, pt)
        t1 = theta1(lam, pt, d_lambda=1)
        t2 = theta1(lam, pt, d_lambda=2)
        h = _theta_combo(st, lam, pt)
        h1 = _theta_combo(st, lam, pt, d_lambda=1)
        h2 = _theta_combo(st, lam, pt, d_lambda=2)
        return w * ((p + 1) * p * t ** (p - 1) * t1 * t1 * h
                    + (p + 1) * t ** p * t2 * h
                    + 2 * (p + 1) * t ** p * t1 * h1
                    + t ** (p + 1) * h2)

    def d_tau(self, lam: complex, pt: ModularPoint) -> complex:
        st = self.structure
        p = self.p
        w = _weight_value(st, pt)
        wdot = w * _weight_logderiv(st, pt)
        t = theta1(lam, pt)
        tdot = theta1(lam, pt, d_tau=1)
        h = _theta_combo(st, lam, pt)
        hdot = _theta_combo(st, lam, pt, d_tau=1)
        return (wdot * t ** (p + 1) * h
                + w * (p + 1) * t ** p * tdot * h
                + w * t ** (p + 1) * hdot)


def kzb_solution_for_identity(ident: int, p: int) -> ClosedFormSolution:
    """The identity's closed-form side as an exact-derivative solution.

    The normalization constant is dropped; residuals are scale-free.
    """
    st = identity_structure(ident, p)
    return ClosedFormSolution(p=p, kappa=st.kappa, structure=st)


class _BareThetaSolution(ClosedFormSolution):
    """Level-theta combination with no theta1 power (the p = 0 case)."""

    def value(self, lam, pt):
        return _theta_combo(self.structure, lam, pt)

    def d_lambda2(self, lam, pt):
        return _theta_combo(self.structure, lam, pt, d_lambda=2)

    def d_tau(self, lam, pt):
        return _theta_combo(self.structure, lam, pt, d_tau=1)


def symmetric_theta_solution(level: int, m: int) -> ClosedFormSolution:
    """The symmetrized level theta as a heat-equation solution (p = 0)."""
    st = IdentityStructure(
        ident=0, p=0, kappa=level, constant_index=m, lhs_terms=(),
        power_of_two=0.0, weight_factors=(),
        theta_terms=((level, m, 1, True),))
    return _BareThetaSolution(p=0, kappa=level, structure=st)


def _rho_prime(lam: complex, pt: ModularPoint) -> complex:
    t = theta1(lam, pt)
    t1 = theta1(lam, pt, d_lambda=1)
    t2 = theta1(lam, pt, d_lambda=2)
    return t2 / t - (t1 / t) ** 2


def _richardson_tau(f, lam, pt, h):
    def d(step):
        up = f(lam, ModularPoint(pt.tau + step))
        dn = f(lam, ModularPoint(pt.tau - step))
        return (up - dn) / (2 * step)

    return (4 * d(h / 2) - d(h)) / 3


def _richardson_lam2(f, lam, pt, h):
    def d(step):
        return (f(lam + step, pt) - 2 * f(lam, pt) + f(lam - step, pt)) \
            / step ** 2

    return (4 * d(h / 2) - d(h)) / 3


def kzb_residual(f, lam: complex, pt: ModularPoint,
                 mode: str = "finite_difference", h: float = 1e-3) -> float:
    """Normalized residual of 2*pi*i*kappa u_tau = u_ll + p(p+1) rho' u.

    ``analytic_rhs`` needs an object with exact ``value``/``d_lambda2``/
    ``d_tau`` (see the solution factories); ``finite_difference`` accepts
    any callable (lam, pt) -> complex tagged with p and kappa attributes,
    and uses Richardson-extrapolated central differences of step h.
    """
    if mode == "analytic_rhs":
        if not hasattr(f, "d_tau"):
            raise TypeError("analytic mode needs a solution object with "
                            "exact derivatives; use a solution factory")
        val = f.value(lam, pt)
        dtau = f.d_tau(lam, pt)
        dl2 = f.d_lambda2(lam, pt)
    elif mode == "finite_difference":
        evaluate = f if callable(f) else f.value
        val = evaluate(lam, pt)
        dtau = _richardson_tau(evaluate, lam, pt, h)
        dl2 = _richardson_lam2(evaluate, lam, pt, h)
    else:
        raise ValueError("mode must be analytic_rhs or finite_difference")
    p, kappa = f.p, f.kappa
    lhs = 2j * math.pi * kappa * dtau
    curvature = dl2
    potential = p * (p + 1) * _rho_prime(lam, pt) * val
    scale = max(abs(lhs), abs(curvature), abs(potential), 1e-300)
    return abs(lhs - curvature - potential) / scale


# ---------------------------------------------------------------------------
# tau-ODE residuals for the scalar weights
# ---------------------------------------------------------------------------

# recipe: (offset, positions, signs, m, c) for kappa = 2p + offset.  The
# weight is ((2 pi)^m (c D)^(2m-1) / theta1'(0)^m)^(2(p+1)/kappa) with
# D = sum_j s_j theta_{kappa-2p-2, j}(0) over the positions and signs, and
# its tau-log-derivative w ((2m-1) D'/D - 3m eta'/eta).
_RECIPES = {
    "eta_power": (3, (0,), (1,), 0.5, 1),
    "theta21_power": (4, (1,), (1,), 1, 2),
    "theta4_power": (6, (0, 4), (1, -1), 2, 1),
    "theta6_power": (8, (1, 5), (1, -1), 3, 1),
}


def _theta0(level: int, index: int, pt: ModularPoint,
            d_tau: int = 0) -> complex:
    return theta_level(level, index, 0.0, pt, d_tau=d_tau)


def _recipe(recipe: str) -> tuple:
    if recipe not in _RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}")
    return _RECIPES[recipe]


def _recipe_sum(recipe: str, pt: ModularPoint, d_tau: int = 0) -> complex:
    """D of the recipe, or its tau-derivative."""
    offset, positions, signs, _, _ = _recipe(recipe)
    return sum(s * _theta0(offset - 2, j, pt, d_tau=d_tau)
               for j, s in zip(positions, signs))


def ode_recipe_value(recipe: str, kappa: int, p: int,
                     pt: ModularPoint) -> complex:
    """The scalar tau-weight of the matching closed form, at this tau."""
    *_, m, c = _recipe(recipe)
    base = ((2 * math.pi) ** m
            * (c * _recipe_sum(recipe, pt)) ** (2 * m - 1)
            / theta1(0.0, pt, d_lambda=1) ** m)
    return _frac_power(base, 2.0 * (p + 1) / kappa)


def _recipe_logderiv(recipe: str, kappa: int, p: int,
                     pt: ModularPoint) -> complex:
    *_, m, _ = _recipe(recipe)
    w = 2.0 * (p + 1) / kappa
    d_dot, d = _recipe_sum(recipe, pt, d_tau=1), _recipe_sum(recipe, pt)
    return w * ((2 * m - 1) * d_dot / d - 3 * m * dedekind_eta_logderiv(pt))


def ode_residual(case: str, kappa: int, p: int, c_recipe: str,
                 pt: ModularPoint) -> float:
    """Residual of the first-order tau-ODE for the scalar weight.

    ``del_at_0`` is the degeneration of the heat equation at the origin,
    ``del3_at_tau`` the one at lam = tau (which flips the level-theta index
    j -> K - j).  The recipe fixes both the weight profile over the basis
    and its logarithmic tau-derivative.
    """
    offset, positions, signs, _, _ = _recipe(c_recipe)
    if kappa != 2 * p + offset:
        raise OutOfSupportedRange(
            f"recipe {c_recipe} belongs to kappa = 2p + {offset}, "
            f"got kappa={kappa}, p={p}")
    level = kappa - 2 * p - 2
    if case == "del_at_0":
        def label(j):
            return j
    elif case == "del3_at_tau":
        def label(j):
            return level - j
    else:
        raise ValueError("case must be del_at_0 or del3_at_tau")

    c_ld = _recipe_logderiv(c_recipe, kappa, p, pt)
    eta_ld3 = 3.0 * dedekind_eta_logderiv(pt)  # d/dtau log theta1'(0)
    sum_c = sum(s * _theta0(level, label(j), pt)
                for j, s in zip(positions, signs))
    sum_cdot = c_ld * sum_c
    sum_c_thetadot = sum(s * _theta0(level, label(j), pt, d_tau=1)
                         for j, s in zip(positions, signs))
    term1 = kappa / (p + 1) * sum_cdot
    term2 = (2 * p + 2 - kappa) * eta_ld3 * sum_c
    term3 = 2.0 * (kappa - 2 * p - 3) * sum_c_thetadot
    scale = max(abs(term1), abs(term2), abs(term3), 1e-300)
    return abs(term1 - term2 - term3) / scale


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------

# (p, kappa) pairs whose closed-form matrices are checked against the
# transformation relations
MATRIX_CASES = ((0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (1, 8), (1, 10),
                (2, 6), (4, 16), (6, 20))
_ODE_RECIPES = (("eta_power", 5), ("theta21_power", 6), ("theta4_power", 8),
                ("theta6_power", 10))


class Check(NamedTuple):
    """One battery check: a name and a thunk returning (passed, detail)."""

    name: str
    run: Callable[[], tuple]


def _bounded(name: str, measure, label: str = "resid") -> Check:
    """A check that passes when measure() -> (value, bound) has value <= bound."""
    def run():
        value, bound = measure()
        return bool(value <= bound), f"{label}={value:.2e}"

    return Check(name, run)


def _series_check(name: str) -> Check:
    """Exact proof of one named series identity (zero tolerance)."""
    def run():
        report = check_series_identity(named_identity(name, 20))
        return (bool(report.passed and report.terms_compared > 0),
                f"order<{report.checked_order}, "
                f"{report.terms_compared} monomials")

    return Check(f"series:{name}", run)


def _theta1_slope_check(tau: complex) -> Check:
    """theta1'(0) = 2 pi eta^3, to 1e-12 relative."""
    def measure():
        pt = ModularPoint(tau)
        rhs = 2 * math.pi * dedekind_eta(pt) ** 3
        return abs(theta1(0.0, pt, d_lambda=1) - rhs), 1e-12 * abs(rhs)

    return _bounded(f"theta1-slope-eta-cube:tau={tau}", measure)


# per rule: the image of tau, then (kind, partner kind, factor) with
# phi_kind(image) = factor * phi_partner(tau)
_PHI_RULES = {
    "shift": (lambda tau: tau + 1,
              ((1, 2, cmath.exp(-1j * math.pi / 24)),
               (2, 1, cmath.exp(-1j * math.pi / 24)),
               (3, 3, cmath.exp(1j * math.pi / 12)))),
    "inversion": (lambda tau: -1 / tau, ((1, 1, 1.0), (2, 3, 1.0),
                                         (3, 2, 1.0))),
}


def phi_rule_checks(tau: complex = 0.8j,
                    rules=("shift", "inversion")) -> tuple:
    """The phi triple under tau -> tau + 1 and tau -> -1/tau, to 1e-10.

    The bound is absolute: |phi| is about 1 on the points used.
    """
    checks = []
    for rule in rules:
        image, table = _PHI_RULES[rule]
        for kind, partner, factor in table:
            def measure(image=image, kind=kind, partner=partner,
                        factor=factor):
                lhs = phi(kind, ModularPoint(image(tau)))
                rhs = factor * phi(partner, ModularPoint(tau))
                return abs(lhs - rhs), 1e-10

            checks.append(_bounded(f"phi{kind}-{rule}", measure))
    return tuple(checks)


def _theta_level_rule_check(kappa: int) -> Check:
    """Translation, quasi-periodicity and inversion of theta_{kappa,n}.

    The worst of the three residuals, relative to theta_{kappa,n}(lam),
    must stay below 1e-8.
    """
    def measure():
        lam, tau = 0.29, 0.8j
        pt = ModularPoint(tau)
        n = 1 if kappa == 2 else 2
        base = theta_level(kappa, n, lam, pt)
        shift = theta_level(kappa, n, lam + 1, pt) - (-1) ** n * base
        quasi = (theta_level(kappa, n, lam + tau, pt)
                 - cmath.exp(-1j * math.pi * kappa * (lam + tau / 2))
                 * theta_level(kappa, n + kappa, lam, pt))
        pref = cmath.sqrt(-1j * tau / (2 * kappa)) * cmath.exp(
            1j * math.pi * kappa * lam ** 2 / (2 * tau))
        dual = pref * sum(
            cmath.exp(-1j * math.pi * m * n / kappa)
            * theta_level(kappa, m, lam, pt) for m in range(2 * kappa))
        invres = (theta_level(kappa, n, lam / tau, ModularPoint(-1 / tau))
                  - dual)
        return max(abs(shift), abs(quasi), abs(invres)) / abs(base), 1e-8

    return _bounded(f"theta-level-rules:kappa={kappa}", measure)


def _matrix_relation_check(p: int, kappa: int) -> Check:
    """Closed-form T and S matrices satisfy their relations to 1e-8."""
    def measure():
        tmat, smat = modular_matrices(p, kappa)
        return max(relation_residuals(tmat, smat, p, kappa).values()), 1e-8

    return _bounded(f"matrix-relations:p={p},kappa={kappa}", measure)


def orthogonality_check(k: int, kappa: int, n_max: int) -> Check:
    """Off-diagonal Gram entries of the orthogonal family vanish to 1e-10."""
    def measure():
        basis = macdonald_basis(k, kappa, n_max)
        return max(abs(ct_inner(basis.polys[m], basis.polys[n], k, kappa))
                   for m in range(n_max + 1) for n in range(m)), 1e-10

    return _bounded(f"orthogonal-family:k={k},kappa={kappa}", measure,
                    label="gram")


def _identity_check(ident: int, tau: complex, p: int = 1) -> Check:
    """One closed form against quadrature, at its default tolerance."""
    def run():
        report = verify_identity(ident, p, pt=ModularPoint(tau))
        return report.passed, f"rel_err={report.rel_err:.2e}"

    # the name leaves p = 1 implicit, as heat_residual_check does
    return Check(f"identity-{ident}{'' if p == 1 else f',p={p}'}:tau={tau}", run)


def _heat_check(name: str, solution: ClosedFormSolution, lam: float) -> Check:
    return _bounded(name, lambda: (kzb_residual(
        solution, lam, ModularPoint(DEFAULT_TAU), mode="analytic_rhs"), 1e-8))


def heat_residual_check(ident: int, p: int = 1, lam: float = 0.31) -> Check:
    """Heat-equation residual of one closed form, exact derivatives, 1e-8.

    The battery runs p = 1, which its name leaves implicit.
    """
    name = f"heat-residual:identity-{ident}" + (f",p={p}" if p != 1 else "")
    return _heat_check(name, kzb_solution_for_identity(ident, p), lam)


def sym_theta_residual_check(level: int, m: int, lam: float = 0.27) -> Check:
    """Heat-equation residual of a bare symmetrized level theta, 1e-8."""
    return _heat_check(f"heat-residual:sym-theta-{level}-{m}",
                       symmetric_theta_solution(level, m), lam)


def _ode_residual_check(recipe: str, kappa: int, case: str) -> Check:
    """Residual of the p = 1 scalar-weight tau-ODE, 1e-8."""
    return _bounded(f"ode-residual:{recipe}:{case}", lambda: (ode_residual(
        case, kappa, 1, recipe, ModularPoint(DEFAULT_TAU)), 1e-8))


def _leading_term_check() -> Check:
    """The p = 1 leading-term constant equals its block constant, 1e-10."""
    def measure():
        want = block_constant(1, 4, 2).value
        return abs(leading_term_constant(1) - want) / abs(want), 1e-10

    return _bounded("leading-term-constant:p=1", measure)


def battery(full: bool = False) -> dict:
    """The desk-scale battery: {section: (Check, ...)} in run order.

    full adds the secondary tau and the ten p = 2 closed forms at the
    default tau to the identity section.  Building the battery evaluates
    nothing; each check computes when it is run.
    """
    cases = ((DEFAULT_TAU, 1), (SECONDARY_TAU, 1), (DEFAULT_TAU, 2))
    return {
        "series": tuple(_series_check(name)
                        for name in sorted(NAMED_IDENTITIES)),
        "special-functions": (
            *(_theta1_slope_check(tau) for tau in (0.6j, 0.9j, 0.3 + 1j)),
            *phi_rule_checks(),
            *(_theta_level_rule_check(kappa) for kappa in (2, 4, 5, 6))),
        "matrices": (
            *(_matrix_relation_check(p, kappa) for p, kappa in MATRIX_CASES),
            orthogonality_check(2, 7, 3), orthogonality_check(5, 16, 6)),
        "identities": tuple(_identity_check(ident, tau, p)
                            for tau, p in cases[:3 if full else 1]
                            for ident in IDENTITY_IDS),
        "residuals": (
            *(heat_residual_check(ident) for ident in IDENTITY_IDS),
            *(sym_theta_residual_check(level, m)
              for level, m in ((2, 1), (4, 1), (6, 5))),
            *(_ode_residual_check(recipe, kappa, case)
              for recipe, kappa in _ODE_RECIPES
              for case in ("del_at_0", "del3_at_tau"))),
        "leading-term": (_leading_term_check(),),
    }

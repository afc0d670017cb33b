"""Tests for the verification harness.

The identity checks here are the real thing, not mocks: each one runs the
block quadrature on the default grid and compares against the closed form.
They stay fast because p = 1 blocks cost milliseconds.
"""

import cmath
import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elliptic_selberg import blocks
from elliptic_selberg.blocks import BlockIndex, u_block
from elliptic_selberg.errors import (EllipticSelbergError, OutOfSupportedRange,
                                     PoleProximity, QuadratureBudgetExceeded,
                                     UnsupportedP)
from elliptic_selberg.quadrature import QuadratureSpec
from elliptic_selberg.specfun import ModularPoint, dedekind_eta, phi, theta1
from elliptic_selberg.transforms import BlockFunction, transformed_function
from elliptic_selberg import verify as V

PT = ModularPoint(0.9j)


# ---------------------------------------------------------------------------
# structure registry
# ---------------------------------------------------------------------------

def test_structure_resolves_kappa_and_constant_index():
    st = V.identity_structure(5, 2)
    assert st.kappa == 8
    assert st.constant_index == 3
    assert st.lhs_terms[0] == (3, 1.0 + 0.0j)
    n2, phase = st.lhs_terms[1]
    assert n2 == 5
    # (-1)^(p+1) * exp(2 pi i p n / kappa) at p=2, n=3, kappa=8
    expected = -cmath.exp(2j * math.pi * 2 * 3 / 8)
    assert abs(phase - expected) < 1e-14


def test_structure_weight_exponents():
    st = V.identity_structure(4, 1)
    assert st.power_of_two == pytest.approx(-2.0 * 2 / 6)
    weights = dict(st.weight_factors)
    assert weights["phi3"] == pytest.approx(4.0 * 2 / 6)
    assert weights["eta"] == pytest.approx(-4.0 * 2 / 6)


def test_structure_rejects_bad_ids():
    with pytest.raises(ValueError):
        V.identity_structure(0, 1)
    with pytest.raises(ValueError):
        V.identity_structure(11, 1)
    with pytest.raises(OutOfSupportedRange):
        V.identity_structure(1, 0)


def test_an_empty_grid_is_refused_before_any_pass(monkeypatch):
    # the grid names itself, rather than failing later in the report's max
    def no_pass(*args):
        raise AssertionError("a block pass ran")

    monkeypatch.setattr(V, "_family_values", no_pass)
    for grid in ((), []):
        with pytest.raises(ValueError, match="^the lambda grid is empty$"):
            V.verify_identities((4,), 1, lambda_grid=grid)


PLANS = (V._identity_plan, V._verify_plan, blocks._family_plan)


def test_errors_come_in_the_order_of_the_steps():
    # the structures (each identity in order, its id then p), the empty
    # grid, the lattice floor, then the block family's fold counts and caps:
    # each plan is built at its step, so none raises ahead of an earlier one
    with pytest.raises(OutOfSupportedRange, match="p = 0"):
        V.verify_identities((4,), 0, lambda_grid=())
    with pytest.raises(ValueError, match="got 11$"):
        V.verify_identities((4, 11), 1, lambda_grid=())
    with pytest.raises(PoleProximity):
        V.verify_identities((4,), 3, lambda_grid=(1e-9,))
    with pytest.raises(UnsupportedP):
        V.verify_identities((4,), 3, lambda_grid=(0.3,))
    # the refined pass of the kappa = 6 block counts 1,116 points: the cap
    # refuses the spec on every call, and no plan of it is kept
    capped = QuadratureSpec(max_evals=1_000)
    plans = [plan.cache_info().currsize for plan in PLANS]
    for _ in range(2):
        with pytest.raises(PoleProximity):
            V.verify_identity(4, 1, (0.3, 1e-9), PT, capped)
        with pytest.raises(QuadratureBudgetExceeded, match="1116 > 1000$"):
            V.verify_identity(4, 1, (0.3,), PT, capped)
    assert [plan.cache_info().currsize for plan in PLANS] == plans


def test_the_plans_hold_nothing_of_lambda():
    # fifty seeded grids, real and complex (folded by up to one tau), at
    # one (identity, p, tau, spec) build each plan once; a report after
    # them, on the first grid or the last, is the report of plans freshly
    # built for it, byte for byte
    rng = random.Random(29)
    grids = [tuple(complex(round(rng.uniform(0.05, 0.95), 4),
                           round(rng.choice((0.0, 1.0)) * rng.uniform(
                               -1.3, 1.3) * PT.tau.imag, 4))
                   for _ in range(rng.randint(1, 6))) for _ in range(50)]
    for plan in PLANS:
        plan.cache_clear()
    for grid in grids:
        V.verify_identity(5, 1, grid, PT)
    for plan in PLANS:
        info = plan.cache_info()
        assert (info.currsize, info.misses) == (1, 1), plan
    for grid in (grids[0], grids[-1]):
        warm = repr(V.verify_identity(5, 1, grid, PT).as_dict())
        for plan in PLANS:
            plan.cache_clear()
        assert repr(V.verify_identity(5, 1, grid, PT).as_dict()) == warm


def test_default_tolerance_is_one_constant():
    assert V.DEFAULT_TOLERANCE == 1e-10
    assert "default_tolerance" not in V.__all__
    rep = V.verify_identity(2, 1, lambda_grid=(0.27,))
    assert rep.tolerance == V.DEFAULT_TOLERANCE
    assert rep.inputs["tolerance"] == V.DEFAULT_TOLERANCE


# ---------------------------------------------------------------------------
# series prerequisites
# ---------------------------------------------------------------------------

def test_series_prerequisites_all_pass_and_cache():
    first = V.series_prerequisites()
    assert first and all(first.values())
    second = V.series_prerequisites()
    assert second == first
    second["phi_product_is_const"] = False  # caller's copy, not the cache
    assert V.series_prerequisites()["phi_product_is_const"] is True


# ---------------------------------------------------------------------------
# the ten closed forms against quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ident", range(1, 11))
def test_identity_passes_on_default_grid(ident):
    rep = V.verify_identity(ident, 1)
    assert rep.passed, f"rel_err={rep.rel_err}, notes={rep.notes}"
    # quadrature is much better than the contract tolerance at p = 1
    assert rep.rel_err < 1e-8
    assert rep.quad_agreement < 1e-8


@pytest.mark.parametrize("ident", [1, 4, 8])
def test_identity_passes_at_secondary_tau(ident):
    rep = V.verify_identity(ident, 1, pt=ModularPoint(0.6j))
    assert rep.passed
    assert rep.rel_err < 1e-8


def test_paired_closed_forms_sum_to_twice_single_block():
    # the two kappa = 2p+4 evaluations share their first block; adding them
    # cancels the second one
    lam = 0.37
    total = V.rhs_value(5, 1, lam, PT) + V.rhs_value(6, 1, lam, PT)
    block = u_block(BlockIndex(1, 6, 2), lam, PT).value
    assert abs(total - 2 * block) < 1e-9 * abs(block)


def test_report_fails_under_impossible_tolerance():
    rep = V.verify_identity(1, 1, lambda_grid=(0.31,), tol=1e-17)
    assert not rep.passed
    assert rep.rel_err > 1e-17
    assert any("quadrature" in note for note in rep.notes)


def test_report_dict_is_json_stable():
    kwargs = dict(ident=2, p=1, lambda_grid=(0.27, 0.55))
    a = json.dumps(V.verify_identity(**kwargs).as_dict(), sort_keys=True)
    b = json.dumps(V.verify_identity(**kwargs).as_dict(), sort_keys=True)
    assert a == b
    payload = json.loads(a)
    assert payload["name"] == "identity-2"
    assert payload["inputs"]["kappa"] == 5
    assert (sorted(payload["inputs"]["quadrature"])
            == sorted(f.name for f in dataclasses.fields(QuadratureSpec)))
    assert len(payload["lhs"]) == 2


def test_report_echoes_a_complex_grid():
    # the report computes at complex lambda, so its echo keeps the imaginary
    # parts; a real grid stays a list of reals
    rep = V.verify_identity(4, 1, lambda_grid=(0.3 + 0.1j, 0.5 + 0.1j))
    assert rep.passed
    assert rep.inputs["lambda_grid"] == [[0.3, 0.1], [0.5, 0.1]]
    real = V.verify_identity(4, 1, lambda_grid=(0.3, 0.5))
    assert real.inputs["lambda_grid"] == [0.3, 0.5]


def test_identity_four_pairs_at_p_two():
    rep = V.verify_identity(4, 2, lambda_grid=(0.3,))
    assert rep.passed, f"rel_err={rep.rel_err}"
    assert rep.rel_err <= 1e-12


# tau on the imaginary axis, off it, and an S-image
RHS_TAUS = (0.9j, 0.6j, 0.3 + 0.9j, -1 / (0.3 + 1.1j))
# Im lam as a fraction of Im tau: repeated and opposite |Im lam| share
# their series term counts, distinct ones need their own
RHS_IM_FRACTIONS = (0.0, 0.0, 0.1, -0.1, 0.25, -0.25)


def level_scale(kappa, n, z, tau):
    """Sum over the lattice sum's terms m = n/(2 kappa) + j, |j| <= 12, of
    |exp(2 pi i kappa (m^2 tau + m z))|."""
    m = (n % (2 * kappa)) / (2 * kappa) + np.arange(-12, 13)
    return float(np.sum(np.abs(np.exp(
        2j * math.pi * kappa * (m * m * tau + m * z)))))


@given(data=st.data(), ident=st.integers(1, 10),
       tau=st.sampled_from(RHS_TAUS),
       points=st.lists(st.tuples(st.floats(0.05, 0.95),
                                 st.sampled_from(RHS_IM_FRACTIONS)),
                       min_size=1, max_size=6),
       repeats=st.integers(0, 2), p=st.sampled_from([1, 1, 1, 2]))
@example(data=None, ident=10, tau=0.3 + 0.9j,
         points=[(0.3, 0.25), (0.41, 0.0), (0.2, -0.25), (0.7, 0.1)],
         repeats=2, p=1)
# all ten closed forms in one call (ident 0): identity 1 has no theta term,
# and the level rows of the others are zero-padded to the longest
@example(data=None, ident=0, tau=0.3 + 0.9j,
         points=[(0.3, 0.25), (0.41, 0.0), (0.2, -0.25), (0.7, 0.1)],
         repeats=2, p=1)
@settings(max_examples=60, deadline=None)
def test_a_closed_form_grid_is_its_points(data, ident, tau, points, repeats,
                                          p):
    grid = [complex(x, frac * tau.imag) for x, frac in points]
    grid += grid[:repeats]
    if data is not None:  # unsorted, duplicates anywhere
        grid = data.draw(st.permutations(grid))
    pt = ModularPoint(tau)
    idents = [ident] if ident else list(range(1, 11))
    sts, _, _, rows = V._identity_plan(tuple(idents), p)
    constants = V._verify_plan(tuple(idents), p, pt, QuadratureSpec())[0]
    for ident, st_, constant, got in zip(
            idents, sts, constants,
            V._rhs_grids(sts, rows, p, constants, grid, pt)):
        check_closed_form_grid(ident, p, st_, constant, got, grid, pt)


def check_closed_form_grid(ident, p, st_, constant, got, grid, pt):
    """Each value of one closed form's grid is its one-point grid bit for
    bit, and the scalar product to rounding."""
    tau = pt.tau
    for lam, value in zip(grid, got):
        # the one-point grid, bit for bit
        assert value == V.rhs_value(ident, p, lam, pt)
        # the scalar product to rounding, relative to its sum of |terms|
        # (a level theta can vanish on the grid)
        power = constant * theta1(lam, pt) ** (p + 1)
        want = power * V._theta_combo(st_, lam, pt)
        terms = sum(level_scale(level, index, z, tau)
                    for level, index, _, symmetrized in st_.theta_terms
                    for z in ((lam, -lam) if symmetrized else (lam,)))
        assert abs(value - want) <= 1e-15 * abs(power) * (terms or 1.0), (
            ident, p, tau, lam)


@pytest.mark.parametrize("tau", [0.9j, 0.6j, 0.3 + 0.9j])
def test_the_ten_identities_at_once_are_each_ones_report(tau):
    # one family pass for the blocks of all ten combinations and one pass
    # for their closed forms give each identity's own report, bit for bit,
    # on a grid with a repeated point
    pt, grid = ModularPoint(tau), (0.3, 0.41, 0.3, 0.62)
    got = V.verify_identities(range(1, 11), 1, grid, pt)
    assert [r.as_dict() for r in got] == [
        V.verify_identity(i, 1, grid, pt).as_dict() for i in range(1, 11)]
    assert all(r.passed for r in got)


# ---------------------------------------------------------------------------
# heat-equation residuals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ident", range(1, 11))
def test_closed_forms_satisfy_heat_equation_exactly(ident):
    sol = V.kzb_solution_for_identity(ident, 1)
    assert V.kzb_residual(sol, 0.31, PT, mode="analytic_rhs") < 1e-12


def test_theta_power_alone_satisfies_heat_equation():
    # the kappa = 2p+2 solution is a bare theta1 power
    for p in (1, 2, 3):
        sol = V.kzb_solution_for_identity(1, p)
        assert sol.kappa == 2 * p + 2
        assert V.kzb_residual(sol, 0.27, PT, mode="analytic_rhs") < 1e-12


@pytest.mark.parametrize("level,m", [(2, 1), (4, 1), (6, 5)])
def test_symmetrized_level_theta_heat_residual(level, m):
    sol = V.symmetric_theta_solution(level, m)
    assert sol.p == 0 and sol.kappa == level
    assert V.kzb_residual(sol, 0.27, PT, mode="analytic_rhs") < 1e-12


def test_finite_difference_mode_agrees_with_analytic():
    sol = V.kzb_solution_for_identity(2, 1)
    fd = V.kzb_residual(sol, 0.31, PT, mode="finite_difference")
    assert fd < 1e-8


def test_finite_difference_on_quadrature_block():
    f = BlockFunction.from_block(BlockIndex(1, 5, 2))
    assert V.kzb_residual(f, 0.31, PT, mode="finite_difference", h=5e-3) < 1e-5


def test_kzb_mode_validation():
    sol = V.kzb_solution_for_identity(1, 1)
    with pytest.raises(ValueError):
        V.kzb_residual(sol, 0.3, PT, mode="spectral")
    plain = lambda lam, pt: theta1(lam, pt)  # noqa: E731
    plain.p, plain.kappa = 0, 4
    with pytest.raises(TypeError):
        V.kzb_residual(plain, 0.3, PT, mode="analytic_rhs")


# ---------------------------------------------------------------------------
# tau-ODE residuals and scalar-weight recipes
# ---------------------------------------------------------------------------

RECIPES = [("eta_power", 5), ("theta21_power", 6),
           ("theta4_power", 8), ("theta6_power", 10)]


@pytest.mark.parametrize("recipe,kappa", RECIPES)
@pytest.mark.parametrize("case", ["del_at_0", "del3_at_tau"])
def test_ode_residual_vanishes(recipe, kappa, case):
    assert V.ode_residual(case, kappa, 1, recipe, PT) < 1e-12


def test_ode_residual_validation():
    with pytest.raises(ValueError):
        V.ode_residual("del_at_0", 5, 1, "cube_root", PT)
    with pytest.raises(ValueError):
        V.ode_residual("somewhere", 5, 1, "eta_power", PT)
    with pytest.raises(OutOfSupportedRange):
        V.ode_residual("del_at_0", 6, 1, "eta_power", PT)


def test_theta6_recipe_collapses_to_eta_power():
    got = V.ode_recipe_value("theta6_power", 10, 1, PT)
    want = dedekind_eta(PT) ** (-8.0 * 2 / 10)
    assert abs(got - want) < 1e-12 * abs(want)


def test_theta21_recipe_collapses_to_phi3_over_eta_power():
    got = V.ode_recipe_value("theta21_power", 6, 1, PT)
    want = (phi(3, PT) / dedekind_eta(PT)) ** (4.0 * 2 / 6)
    assert abs(got - want) < 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# cross-tau and modular consistency of the closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pair", [(5, 6), (8, 9)])
@pytest.mark.parametrize("p", [1, 2])
def test_tau_shift_swaps_paired_closed_forms(pair, p):
    lam = 0.37
    shifted = V.rhs_value(pair[0], p, lam, ModularPoint(PT.tau + 1))
    partner = V.rhs_shift_phase(pair, p) * V.rhs_value(pair[1], p, lam, PT)
    assert abs(shifted - partner) < 1e-12 * abs(partner)


def test_shift_phase_rejects_unknown_pair():
    with pytest.raises(ValueError):
        V.rhs_shift_phase((1, 2), 1)


def test_identity_ten_closed_form_is_modular_eigenvector():
    # at tau = i the inversion maps the solution space to itself; the
    # closed form must come back as a constant unimodular multiple, whose
    # square is the known involution scalar
    p, pt = 1, ModularPoint(1j)
    st = V.identity_structure(10, p)
    f = BlockFunction(evaluator=lambda lams, mp: [V.rhs_value(10, p, lam, mp)
                                                  for lam in lams],
                      p=p, kappa=st.kappa)
    ratios = [transformed_function("S", f)(lam, pt) / f(lam, pt)
              for lam in (0.17, 0.33, 0.49, 0.61)]
    assert max(abs(r - ratios[0]) for r in ratios) < 1e-9
    assert abs(abs(ratios[0]) - 1) < 1e-9
    squared = (-1) ** p * 1j * cmath.exp(-1j * math.pi * p * (p + 1) / st.kappa)
    assert abs(ratios[0] ** 2 - squared) < 1e-9


def test_prerequisite_gate_raises_on_poisoned_cache():
    V.series_prerequisites()
    saved = dict(V._PREREQ_CACHE)
    try:
        V._PREREQ_CACHE["theta6_diff_is_eta"] = False
        with pytest.raises(EllipticSelbergError):
            V.verify_identity(1, 1, lambda_grid=(0.31,))
    finally:
        V._PREREQ_CACHE.clear()
        V._PREREQ_CACHE.update(saved)

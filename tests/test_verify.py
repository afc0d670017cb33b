"""Tests for the verification harness.

The identity checks here are the real thing, not mocks: each one runs the
block quadrature on the default grid and compares against the closed form.
They stay fast because p = 1 blocks cost milliseconds.
"""

import cmath
import json
import math

import pytest

from elliptic_selberg.blocks import BlockIndex, u_block
from elliptic_selberg.errors import EllipticSelbergError, OutOfSupportedRange
from elliptic_selberg.specfun import ModularPoint, dedekind_eta, phi, theta1
from elliptic_selberg.transforms import BlockFunction, apply_transform
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


def test_default_tolerance_ladder():
    assert V.default_tolerance(1, 4) == 1e-5
    assert V.default_tolerance(1, 6) == 1e-5
    assert V.default_tolerance(1, 8) == 1e-4
    assert V.default_tolerance(2, 6) == 1e-4


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
    rep = V.verify_identity(1, 1, lambda_grid=(0.31,), tol=1e-15)
    assert not rep.passed
    assert rep.rel_err > 1e-15
    assert any("quadrature" in note for note in rep.notes)


def test_report_dict_is_json_stable():
    kwargs = dict(ident=2, p=1, lambda_grid=(0.27, 0.55))
    a = json.dumps(V.verify_identity(**kwargs).as_dict(), sort_keys=True)
    b = json.dumps(V.verify_identity(**kwargs).as_dict(), sort_keys=True)
    assert a == b
    payload = json.loads(a)
    assert payload["name"] == "identity-2"
    assert payload["inputs"]["kappa"] == 5
    assert payload["inputs"]["quadrature"]["method"] == "subtraction"
    assert len(payload["lhs"]) == 2


def test_identity_four_pairs_at_p_two():
    rep = V.verify_identity(4, 2, lambda_grid=(0.3,), tol=1e-4)
    assert rep.passed, f"rel_err={rep.rel_err}"


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
    f = BlockFunction(evaluator=lambda lam, mp: V.rhs_value(10, p, lam, mp),
                      p=p, kappa=st.kappa)
    ratios = [apply_transform("S", f, lam, pt) / f(lam, pt)
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

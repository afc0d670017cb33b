"""Acceptance battery.

The go/no-go checks for the package.  Every check of ``ellsel suite
--full`` comes from the one registry, ``verify.battery``, and runs here as
its own case; further cases go through the same check factories with
other parameters.  The tests below them cover what the battery does not:
the beta-type integral against its oracle, the shift-matrix relations,
matrices reconstructed from quadrature, a three-fold closed-form run,
lattice properties of the blocks and the leading term at the cusp.
"""

import cmath
import math
import random

import numpy as np
import pytest

from elliptic_selberg.blocks import BlockIndex, u_block
from elliptic_selberg.macdonald import modular_matrices
from elliptic_selberg.selberg import (SelbergParams, block_constant,
                                      selberg_oracle_terms, selberg_value)
from elliptic_selberg.specfun import ModularPoint, theta1
from elliptic_selberg.transforms import shift_matrices
from elliptic_selberg import verify as V


# ---------------------------------------------------------------------------
# 1. the registry: series proofs, special-function rules, matrix relations,
#    the ten closed forms at two tau, heat/ODE residuals, leading term
# ---------------------------------------------------------------------------

SECTIONS = V.battery(full=True)

# Three families keep the case ids they had before the registry existed:
# the series proofs by identity name, the level-theta rules by kappa and
# the closed forms as "<identity>-<tau>".
SERIES = SECTIONS["series"]
LEVEL_THETA = [c for c in SECTIONS["special-functions"]
               if c.name.startswith("theta-level-rules:")]
CLOSED_FORMS = SECTIONS["identities"]
BATTERY = [check for checks in SECTIONS.values() for check in checks
           if check not in (*SERIES, *LEVEL_THETA, *CLOSED_FORMS)]

EXTRA_CHECKS = [
    *V.phi_rule_checks(0.55 + 0.8j, rules=("shift",)),
    *V.phi_rule_checks(1j, rules=("inversion",)),
    V.orthogonality_check(3, 10, 3),
    V.sym_theta_residual_check(4, 3),
    V.sym_theta_residual_check(6, 1),
    V.heat_residual_check(1, p=1, lam=0.27),
    V.heat_residual_check(1, p=2, lam=0.27),
]


def _run(check):
    passed, detail = check.run()
    assert passed, detail


@pytest.mark.parametrize(
    "check", SERIES, ids=lambda c: c.name.removeprefix("series:"))
def test_exact_series_proof(check):
    _run(check)


@pytest.mark.parametrize(
    "check", LEVEL_THETA,
    ids=lambda c: c.name.removeprefix("theta-level-rules:kappa="))
def test_level_theta_translation_and_inversion_rules(check):
    _run(check)


@pytest.mark.parametrize(
    "check", CLOSED_FORMS,
    ids=lambda c: c.name.removeprefix("identity-").replace(":tau=", "-"))
def test_closed_form_evaluation_single_pair(check):
    _run(check)


@pytest.mark.parametrize("check", BATTERY, ids=lambda c: c.name)
def test_battery_check(check):
    _run(check)


@pytest.mark.parametrize("check", EXTRA_CHECKS, ids=lambda c: c.name)
def test_extra_check(check):
    _run(check)


# ---------------------------------------------------------------------------
# 2. beta-type integral: closed form vs quadrature oracle
# ---------------------------------------------------------------------------

def test_beta_integral_matches_oracle_on_random_draws():
    rng = random.Random(20260825)
    worst = 0.0
    for k in range(20):
        p = 1 + (k % 2)
        params = SelbergParams(
            p=p,
            alpha=rng.uniform(0.2, 3.0) + 1j * rng.uniform(-0.3, 0.3),
            beta=rng.uniform(0.2, 3.0) + 1j * rng.uniform(-0.3, 0.3),
            gamma=rng.uniform(0.05, 1.5))
        closed = selberg_value(params)
        oracle = selberg_oracle_terms(params)[0]
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    assert worst <= 1e-8, f"worst draw rel err {worst}"


def test_negative_exponent_oracle_reproduces_pi():
    val = selberg_oracle_terms(SelbergParams(1, 0.5, 0.5, 0.0))[0]
    assert abs(val - math.pi) <= 1e-8 * math.pi


# ---------------------------------------------------------------------------
# 3. the shift matrices against the closed-form modular matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,kappa", V.MATRIX_CASES)
def test_transformation_matrix_relations(p, kappa):
    tmat, smat = modular_matrices(p, kappa)
    amat, bmat = shift_matrices(p, kappa)
    A, B = amat.entries, bmat.entries
    T, S = tmat.entries, smat.entries
    conj = S @ A @ np.linalg.inv(S) - B
    comm = A @ B - (-1) ** kappa * B @ A
    braid = T @ B - 1j ** kappa * B @ A @ T
    scale = max(np.max(np.abs(B)), 1.0)
    assert np.max(np.abs(conj)) <= 1e-8 * scale
    assert np.max(np.abs(comm)) <= 1e-8 * scale
    assert np.max(np.abs(braid)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# 4. numeric matrices reconstructed from quadrature match the closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kappa", [4, 5])
def test_numeric_matrices_match_closed_forms(kappa):
    from elliptic_selberg.transforms import numeric_modular_matrices
    tnum, snum = numeric_modular_matrices(1, kappa)
    tmat, smat = modular_matrices(1, kappa)
    assert np.max(np.abs(tnum.entries - tmat.entries)) <= 1e-4
    assert np.max(np.abs(snum.entries - smat.entries)) <= 1e-4


# ---------------------------------------------------------------------------
# 5. the three-fold closed form
# ---------------------------------------------------------------------------

def test_closed_form_evaluation_two_pairs():
    # the two-fold integral at the smallest level (kappa = 6), one lambda
    report = V.verify_identity(1, 2, lambda_grid=(0.3,))
    assert report.passed, f"rel_err={report.rel_err:.3e}"
    assert report.rel_err <= 1e-12


# ---------------------------------------------------------------------------
# 6. lattice properties of the blocks
# ---------------------------------------------------------------------------

def test_block_lattice_properties():
    pt = ModularPoint(0.9j)
    tau, lam = pt.tau, 0.31
    idx = BlockIndex(1, 5, 2)
    base = u_block(idx, lam, pt).value
    period2 = u_block(idx, lam + 2, pt).value
    assert abs(period2 - base) <= 1e-5 * abs(base)
    shifted = u_block(idx, lam + 2 * tau, pt).value
    expected = cmath.exp(-2j * math.pi * idx.kappa * (lam + tau)) * base
    assert abs(shifted - expected) <= 1e-5 * abs(expected)
    mirrored = u_block(idx, -lam, pt).value
    assert abs(mirrored - base) <= 1e-5 * abs(base)  # (-1)^(p+1) = +1 here


def test_dead_index_vanishes():
    pt = ModularPoint(0.9j)
    dead = u_block(BlockIndex(1, 4, 1), 0.31, pt).value
    alive = u_block(BlockIndex(1, 4, 2), 0.31, pt).value
    assert abs(dead) <= 1e-4 * abs(alive)


@pytest.mark.parametrize("kappa", [5, 6])
def test_admissible_family_has_full_rank(kappa):
    pt = ModularPoint(0.9j)
    grid = np.linspace(0.07, 0.93, 12)
    cols = [[u_block(BlockIndex(1, kappa, n), x, pt).value for x in grid]
            for n in range(2, kappa - 1)]
    svals = np.linalg.svd(np.array(cols).T, compute_uv=False)
    assert svals[-1] > 1e-4 * svals[0]


# ---------------------------------------------------------------------------
# 7. leading-term normalization
# ---------------------------------------------------------------------------

def test_leading_term_constant_consistency():
    # large-Im-tau ratio u/theta1^2 extrapolated toward the cusp
    want = block_constant(1, 4, 2).value
    lam = 0.3
    ratios = []
    for tau in (2j, 3j):
        pt = ModularPoint(tau)
        u = u_block(BlockIndex(1, 4, 2), lam, pt).value
        ratios.append(u / theta1(lam, pt) ** 2)
    w = math.exp(-math.pi)  # leading correction shrinks by q^(1/2) per step
    extrapolated = (ratios[1] - w * ratios[0]) / (1 - w)
    assert abs(extrapolated - want) <= 1e-3 * abs(want), (
        f"ratios={ratios}, extrapolated={extrapolated}, constant={want}")

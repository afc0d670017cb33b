"""Operator actions on block functions: pointwise laws, group relations,
and numeric extraction of the modular matrices."""

import cmath
import math

import numpy as np
import pytest

from elliptic_selberg import blocks, transforms
from elliptic_selberg.blocks import BlockIndex
from elliptic_selberg.errors import IllConditionedBasis
from elliptic_selberg.macdonald import modular_matrices
from elliptic_selberg.specfun import ModularPoint
from elliptic_selberg.transforms import (
    BlockFunction,
    basis_indices,
    default_lambda_grid,
    expand_in_block_basis,
    numeric_modular_matrices,
    shift_matrices,
    transformed_function,
)

PT = ModularPoint(0.9j)
PTI = ModularPoint(1j)
LAM = 0.3


def block(p, kappa, n):
    return BlockFunction.from_block(BlockIndex(p, kappa, n))


# ---------------------------------------------------------------------------
# pointwise operator laws
# ---------------------------------------------------------------------------


def test_shift_by_one_multiplies_by_index_parity():
    f = block(1, 5, 2)
    got = transformed_function("A", f)(LAM, PT)
    want = f(LAM, PT)
    assert abs(got - want) < 1e-9 * abs(want)
    g = block(1, 5, 3)
    assert abs(transformed_function("A", g)(LAM, PT) + g(LAM, PT)) \
        < 1e-9 * abs(g(LAM, PT))


def test_shift_by_tau_swaps_the_index():
    f = block(1, 5, 2)
    got = transformed_function("B", f)(LAM, PT)
    want = -cmath.exp(2j * math.pi * 2 / 5) * block(1, 5, 3)(LAM, PT)
    assert abs(got - want) < 1e-9 * abs(want)


def test_double_shift_is_identity():
    f = block(1, 4, 2)
    aa = transformed_function("A", transformed_function("A", f))
    want = f(LAM, PT)
    assert abs(aa(LAM, PT) - want) < 1e-9 * abs(want)
    bb = transformed_function("B", transformed_function("B", f))
    assert abs(bb(LAM, PT) - want) < 1e-9 * abs(want)


def test_inversion_squared_is_the_scalar():
    p, kappa = 1, 4
    f = block(p, kappa, 2)
    ss = transformed_function("S", transformed_function("S", f))
    scalar = (-1) ** p * 1j * cmath.exp(-1j * math.pi * p * (p + 1) / kappa)
    got = ss(LAM, PT) / f(LAM, PT)
    assert abs(got - scalar) < 1e-9


def test_inversion_shift_cubed_is_the_same_scalar():
    p, kappa = 1, 4
    f = block(p, kappa, 2)

    def st(g):
        return transformed_function("S", transformed_function("T", g))

    st3 = st(st(st(f)))
    scalar = (-1) ** p * 1j * cmath.exp(-1j * math.pi * p * (p + 1) / kappa)
    got = st3(LAM, PTI) / f(LAM, PTI)
    assert abs(got - scalar) < 1e-9


def test_transformed_block_keeps_the_block_properties():
    # periodicity, tau-quasi-periodicity and parity survive the inversion
    g = transformed_function("S", block(1, 5, 2))
    base = g(LAM, PTI)
    assert abs(g(LAM + 2.0, PTI) - base) < 1e-6 * abs(base)
    shifted = g(LAM + 2 * PTI.tau, PTI)
    want = cmath.exp(-2j * math.pi * 5 * (LAM + PTI.tau)) * base
    assert abs(shifted - want) < 1e-6 * max(abs(want), abs(shifted))
    assert abs(g(-LAM, PTI) - base) < 1e-6 * abs(base)


def test_unknown_transform_is_rejected():
    f = block(1, 4, 2)
    with pytest.raises(ValueError):
        transformed_function("Q", f)


# ---------------------------------------------------------------------------
# basis expansion
# ---------------------------------------------------------------------------


def test_basis_member_expands_to_unit_vector():
    exp = expand_in_block_basis(block(1, 5, 3), 1, 5,
                                default_lambda_grid(1, 5), PT)
    assert exp.indices == (2, 3)
    assert abs(exp.coefficient(3) - 1.0) < 1e-6
    assert abs(exp.coefficient(2)) < 1e-6
    assert exp.residual < 1e-6


def test_shifted_tau_block_expands_diagonally():
    moved = transformed_function("T", block(1, 5, 2))
    exp = expand_in_block_basis(moved, 1, 5, default_lambda_grid(1, 5), PTI)
    want = cmath.exp(1j * math.pi * 4 / (2 * 5))
    assert abs(exp.coefficient(2) - want) < 1e-6
    assert abs(exp.coefficient(3)) < 1e-6


def test_expansion_needs_enough_samples():
    with pytest.raises(ValueError):
        expand_in_block_basis(block(1, 5, 2), 1, 5, [0.3, 0.4], PT)


def test_degenerate_grid_is_flagged():
    grid = [0.31] * 8  # repeated point: rank-one sample matrix
    with pytest.raises(IllConditionedBasis):
        expand_in_block_basis(block(1, 5, 2), 1, 5, grid, PT)


# ---------------------------------------------------------------------------
# matrices on the block basis
# ---------------------------------------------------------------------------


def test_closed_form_shift_matrices():
    a, b = shift_matrices(1, 5)
    assert a.labels == (2, 3)
    assert np.allclose(a.entries, np.diag([1.0, -1.0]))
    # column n=2 lands on row kappa-n=3 with phase -e^{4 pi i/5}
    assert abs(b.entries[1, 0] + cmath.exp(4j * math.pi / 5)) < 1e-15
    assert b.entries[0, 0] == 0.0


@pytest.mark.parametrize("kappa", [4, 5])
def test_numeric_matrices_match_closed_forms(kappa):
    tn, sn = numeric_modular_matrices(1, kappa)
    ta, sa = modular_matrices(1, kappa)
    assert np.abs(tn.entries - ta.entries).max() < 1e-5
    assert np.abs(sn.entries - sa.entries).max() < 1e-5


def test_numeric_matrices_satisfy_group_relations():
    kappa = 5
    tn, sn = numeric_modular_matrices(1, kappa)
    a, b = shift_matrices(1, kappa)
    conj = sn.entries @ a.entries @ np.linalg.inv(sn.entries)
    assert np.abs(conj - b.entries).max() < 1e-4
    lhs = tn.entries @ b.entries
    rhs = (1j) ** kappa * (b.entries @ a.entries @ tn.entries)
    assert np.abs(lhs - rhs).max() < 1e-4
    comm = a.entries @ b.entries - (-1) ** kappa * (b.entries @ a.entries)
    assert np.abs(comm).max() < 1e-12


def test_numeric_t_matrix_is_diagonal():
    tn, _ = numeric_modular_matrices(1, 5)
    off = tn.entries - np.diag(np.diag(tn.entries))
    assert np.abs(off).max() < 1e-4


def _count_family_calls(monkeypatch):
    # (labels, points) per family call of transforms, and the points of
    # every grid call or point-by-point block
    calls = {"u_block": [], "u_block_grid": [], "_family_values": []}
    for module, name in ((blocks, "u_block"), (transforms, "u_block_grid"),
                         (transforms, "_family_values")):
        original = getattr(module, name)

        def counting(idx, lam, *args, _original=original, _record=calls[name],
                     _family=name == "_family_values", **kwargs):
            _record.append((len(idx), np.size(lam)) if _family
                           else np.size(lam))
            return _original(idx, lam, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def _assert_pointwise_fits(tn, sn, kappa, grid):
    # each column is its own lstsq of the transformed block, evaluated
    # point by point, over the basis sampled point by point
    labels = basis_indices(1, kappa)
    mat = np.array([[block(1, kappa, n)(lam, PTI) for n in labels]
                    for lam in grid], dtype=complex)
    for which, got in (("T", tn), ("S", sn)):
        for j, n in enumerate(labels):
            moved = transformed_function(which, block(1, kappa, n))
            rhs = np.array([moved(lam, PTI) for lam in grid], dtype=complex)
            want = transforms._fit(mat, rhs)
            assert np.array_equal(got.entries[:, j], want), (which, n)


def test_numeric_extraction_samples_the_basis_once(monkeypatch):
    # one family call of the dim basis labels per distinct tau: at tau = i
    # the 8-point basis grid and its S image lam / tau in one 16-point call,
    # the T-moved grid at 1 + i in another; no grid call per label or
    # point-by-point block, where re-expanding each transformed block from
    # scratch would resample the basis four times
    calls = _count_family_calls(monkeypatch)
    tn, sn = numeric_modular_matrices(1, 5)
    assert calls == {"u_block": [], "u_block_grid": [],
                     "_family_values": [(2, 16), (2, 8)]}
    # the one multi-column solve is the per-column point-by-point fits,
    # bit for bit
    monkeypatch.undo()
    _assert_pointwise_fits(tn, sn, 5,
                           [complex(x) for x in default_lambda_grid(1, 5)])


@pytest.mark.parametrize("kappa", [4, 5, 7])
def test_numeric_extraction_on_a_grid_that_meets_its_s_image(kappa):
    # 0.3i / i = 0.3 and 0.15i / i = 0.15: the merged call at tau = i holds
    # those points twice, once as basis points and once as S-moved points
    grid = [0.3, 0.3j, 0.41 + 0.1j, 0.15, 0.2 + 0.2j, 0.63, 0.15j,
            0.74 - 0.05j, 0.45 + 0.3j]
    tn, sn = numeric_modular_matrices(1, kappa, lambda_grid=grid)
    _assert_pointwise_fits(tn, sn, kappa, grid)
    ta, sa = modular_matrices(1, kappa)
    assert np.abs(tn.entries - ta.entries).max() < 1e-5
    assert np.abs(sn.entries - sa.entries).max() < 1e-5


def test_numeric_extraction_guards_its_grid(monkeypatch):
    calls = _count_family_calls(monkeypatch)
    # kappa = 7 has dim 4: seven points are refused before any block pass
    with pytest.raises(ValueError, match="need at least 8 sample points"):
        numeric_modular_matrices(1, 7, lambda_grid=[0.1 * k for k in
                                                    range(1, 8)])
    assert calls["_family_values"] == []
    # one repeated point: a rank-one sample matrix
    with pytest.raises(IllConditionedBasis):
        numeric_modular_matrices(1, 5, lambda_grid=[0.31] * 8)


def test_numeric_two_fold_modular_matrices_match_closed_forms():
    # kappa = 7 is the smallest kappa with two p = 2 labels; the T and S
    # moves take its basis to 1 + i and to the S-moved grid lam / i, folded
    # onto the partner labels beyond |Im| 0.5
    tn, sn = numeric_modular_matrices(2, 7)
    ta, sa = modular_matrices(2, 7)
    assert tn.labels == ta.labels == (3, 4)
    assert np.abs(tn.entries - ta.entries).max() <= 1e-12
    assert np.abs(sn.entries - sa.entries).max() <= 1e-12


def test_numeric_two_fold_shift_matrices_match_closed_forms():
    # each shifted p = 2 block re-expanded over the basis at 0.9i: the B
    # move lam + tau folds back onto the partner label
    a, b = shift_matrices(2, 7)
    for which, want in (("A", a), ("B", b)):
        got = np.array([expand_in_block_basis(
            transformed_function(which, block(2, 7, n)), 2, 7,
            default_lambda_grid(2, 7), PT).coefficients for n in want.labels]).T
        assert np.abs(got - want.entries).max() <= 1e-12, which


def test_basis_indices_range():
    assert basis_indices(1, 6) == (2, 3, 4)
    with pytest.raises(ValueError):
        basis_indices(2, 5)

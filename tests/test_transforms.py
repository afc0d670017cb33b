"""Operator actions on block functions: pointwise laws, group relations,
and numeric extraction of the modular matrices."""

import cmath
import math

import numpy as np
import pytest

from elliptic_selberg import transforms
from elliptic_selberg.blocks import BlockIndex
from elliptic_selberg.errors import IllConditionedBasis, UnsupportedP
from elliptic_selberg.macdonald import modular_matrices
from elliptic_selberg.specfun import ModularPoint
from elliptic_selberg.transforms import (
    BlockFunction,
    apply_transform,
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
    got = apply_transform("A", f, LAM, PT)
    want = f(LAM, PT)
    assert abs(got - want) < 1e-9 * abs(want)
    g = block(1, 5, 3)
    assert abs(apply_transform("A", g, LAM, PT) + g(LAM, PT)) \
        < 1e-9 * abs(g(LAM, PT))


def test_shift_by_tau_swaps_the_index():
    f = block(1, 5, 2)
    got = apply_transform("B", f, LAM, PT)
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
        apply_transform("Q", f, LAM, PT)
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


def test_numeric_extraction_samples_the_basis_once(monkeypatch):
    # dim basis columns on the 8-point grid, then 2 * dim transformed blocks
    # on it: (2 + 4) * 8 u_block calls at kappa = 5, where re-expanding each
    # transformed block from scratch would resample the basis four times
    calls = []
    block = transforms.u_block

    def counting(*args, **kwargs):
        calls.append(1)
        return block(*args, **kwargs)

    monkeypatch.setattr(transforms, "u_block", counting)
    numeric_modular_matrices(1, 5)
    assert len(calls) == 48


def test_numeric_extraction_rejects_large_p_and_wrong_tau():
    with pytest.raises(UnsupportedP):
        numeric_modular_matrices(2, 8)
    with pytest.raises(ValueError):
        numeric_modular_matrices(1, 4, pt=PT)


def test_basis_indices_range():
    assert basis_indices(1, 6) == (2, 3, 4)
    with pytest.raises(ValueError):
        basis_indices(2, 5)

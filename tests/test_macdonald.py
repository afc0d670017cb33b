"""Orthogonal Laurent families at roots of unity and the (T, S) matrices.

Oracle for the pairing: an inline dict-based constant-term expander; oracle
for the matrices: the closed sine-pattern reduction at p=0 and the algebraic
matrix relations, which the construction never uses directly.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_selberg.errors import DegenerateGram
from elliptic_selberg.macdonald import (
    LaurentPoly,
    TransformMatrix,
    ct_inner,
    macdonald_basis,
    macdonald_poly,
    modular_matrices,
    relation_residuals,
)

RELATION_SET = [(0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (1, 8), (1, 10), (2, 6)]


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def oracle_inner(f: dict, g: dict, k: int, kappa: int) -> complex:
    """Naive dict expansion of (1/2) CT(f g prod (1-eps^2j z^2)(1-eps^2j z^-2))."""
    eps2 = cmath.exp(2j * cmath.pi / kappa)

    def mul(a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                out[ma + mb] = out.get(ma + mb, 0) + ca * cb
        return out

    acc = mul(f, g)
    for j in range(k):
        acc = mul(acc, {0: 1, 2: -eps2 ** j})
        acc = mul(acc, {0: 1, -2: -eps2 ** j})
    return 0.5 * acc.get(0, 0)


def test_pairing_trivial_cases():
    one = LaurentPoly({0: 1})
    assert ct_inner(one, one, 0, 4) == 0.5
    assert abs(ct_inner(one, one, 1, 4) - 1.0) < 1e-15  # (1/2) CT[(1-z^2)(1-z^-2)] = 1


@pytest.mark.parametrize("k,kappa", [(1, 4), (2, 7), (3, 9)])
def test_pairing_matches_naive_expansion(k, kappa):
    f = {1: 1.0, -1: 1.0}
    g = {2: 0.5 - 0.25j, 0: 1.0, -2: 0.5 - 0.25j}
    lhs = ct_inner(LaurentPoly(f), LaurentPoly(g), k, kappa)
    assert abs(lhs - oracle_inner(f, g, k, kappa)) < 1e-13
    # the P1-building pairing from the monomial chain
    lhs = ct_inner(LaurentPoly(f), LaurentPoly({0: 1}), k, kappa)
    assert abs(lhs - oracle_inner(f, {0: 1}, k, kappa)) < 1e-13


coeff_strategy = st.complex_numbers(max_magnitude=3, allow_nan=False,
                                    allow_infinity=False)
poly_strategy = st.dictionaries(st.integers(-3, 3), coeff_strategy,
                                min_size=1, max_size=4)


@given(f=poly_strategy, g=poly_strategy, a=coeff_strategy)
@settings(max_examples=50, deadline=None)
def test_pairing_is_symmetric_and_bilinear(f, g, a):
    k, kappa = 2, 7
    F, G = LaurentPoly(f), LaurentPoly(g)
    assert abs(ct_inner(F, G, k, kappa) - ct_inner(G, F, k, kappa)) < 1e-10
    lhs = ct_inner(F.scale(a) + G, G, k, kappa)
    rhs = a * ct_inner(F, G, k, kappa) + ct_inner(G, G, k, kappa)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_pairing_rejects_negative_k():
    with pytest.raises(ValueError):
        ct_inner(LaurentPoly({0: 1}), LaurentPoly({0: 1}), -1, 4)


# ---------------------------------------------------------------------------
# orthogonal family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa", [5, 7, 9])
def test_k1_family_is_the_telescoping_sum(kappa):
    # at k=1 the family collapses to z^n + z^(n-2) + ... + z^-n for every kappa
    for n in range(6):
        P = macdonald_poly(n, 1, kappa)
        want = {n - 2 * i: 1.0 for i in range(n + 1)} if n else {0: 1.0}
        assert set(P.coeffs) == set(want)
        assert all(abs(P.coefficient(m) - 1.0) < 1e-10 for m in want)


@pytest.mark.parametrize("k,kappa,n_max", [(2, 7, 3), (3, 10, 3), (2, 9, 5),
                                           (0, 6, 4)])
def test_family_invariants(k, kappa, n_max):
    basis = macdonald_basis(k, kappa, n_max)
    for n, P in enumerate(basis.polys):
        # even in z -> 1/z, of degree at most n
        assert all(abs(c - P.coefficient(-m)) <= 1e-10 for m, c in P.coeffs.items())
        assert abs(P.coefficient(n) - 1.0) < 1e-12 or n == 0
        assert all(abs(m) <= n for m in P.coeffs)
    for m in range(n_max + 1):
        for n in range(m):
            assert abs(ct_inner(basis.polys[m], basis.polys[n], k, kappa)) < 1e-10


def test_orthogonality_example_k2_kappa7():
    P1 = macdonald_poly(1, 2, 7)
    P2 = macdonald_poly(2, 2, 7)
    assert abs(ct_inner(P2, P1, 2, 7)) < 1e-10


def test_p0_poly_is_one():
    P = macdonald_poly(0, 3, 8)
    assert P.coeffs == {0: 1.0}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_degenerate_gram_is_detected_not_regularized(k):
    # the pairing collapses at n = kappa - 2k + 1, one step beyond the range
    # the matrix construction uses, at every kappa from 2k + 1 to 2k + 11:
    # the norm relative to the squared coefficients reads <= 2.3e-14 there
    # and >= 8.3e-7 below it
    for kappa in range(2 * k + 1, 2 * k + 12):
        n = kappa - 2 * k + 1
        with pytest.raises(DegenerateGram, match=f"squared norm at n={n} "):
            macdonald_basis(k, kappa, n)
        basis = macdonald_basis(k, kappa, n - 1)  # still fine one index earlier
        assert len(basis.polys) == n


def test_the_one_parameter_family_never_degenerates():
    # no k = 1 norm falls under the relative test up to n = kappa
    for kappa in range(3, 14):
        assert len(macdonald_basis(1, kappa, kappa).polys) == kappa + 1


def test_basis_argument_validation():
    with pytest.raises(ValueError):
        macdonald_poly(-1, 1, 5)
    with pytest.raises(ValueError):
        macdonald_basis(1, 0, 2)


# ---------------------------------------------------------------------------
# modular matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa", [3, 4, 5])
def test_p0_s_matrix_is_sine_pattern(kappa):
    _, S = modular_matrices(0, kappa)
    for i, m in enumerate(S.labels):
        for j, n in enumerate(S.labels):
            ref = (math.sqrt(2 / kappa) * cmath.exp(-3j * cmath.pi / 4)
                   * math.sin(math.pi * m * n / kappa))
            assert abs(S.entries[i, j] - ref) < 1e-12


@pytest.mark.parametrize("p,kappa", RELATION_SET)
def test_t_matrix_is_diagonal_unit_phase(p, kappa):
    T, _ = modular_matrices(p, kappa)
    assert T.dim == kappa - 2 * p - 1
    off = T.entries - np.diag(np.diag(T.entries))
    assert np.max(np.abs(off)) == 0.0
    assert np.allclose(np.abs(np.diag(T.entries)), 1.0, atol=1e-14)
    for i, n in enumerate(T.labels):
        want = cmath.exp(1j * cmath.pi * n * n / (2 * kappa))
        assert abs(T.entries[i, i] - want) < 1e-14


@pytest.mark.parametrize("p,kappa", RELATION_SET)
def test_modular_relations(p, kappa):
    T, S = modular_matrices(p, kappa)
    res = relation_residuals(T, S, p, kappa)
    assert res["s_squared"] <= 1e-8
    assert res["st_cubed"] <= 1e-8


@pytest.mark.parametrize("p", range(7))
def test_modular_relations_hold_to_rounding(p):
    # the explicit family keeps S to rounding well past the RELATION_SET
    for kappa in range(2 * p + 2, 2 * p + 9):
        T, S = modular_matrices(p, kappa)
        assert max(relation_residuals(T, S, p, kappa).values()) <= 1e-12


def test_s_matrix_hand_value_p1_kappa4():
    # dim-1 case worked by hand: prefactor e^{-i pi/4}/(2 sqrt 2), phase
    # eps^{-1}, (eps^-2 - eps^2) = -2i, (eps^-1 - eps) = -i sqrt 2, P = 1
    # with eps = e^{i pi/4}; the product collapses to s_{2,2} = i, and
    # s^2 = -1 matches the relation phase -i e^{-i pi/2}
    _, S = modular_matrices(1, 4)
    assert S.dim == 1 and S.labels == (2,)
    assert abs(S.entries[0, 0] - 1j) < 1e-14


def test_matrix_constructor_validation():
    with pytest.raises(ValueError):
        modular_matrices(1, 3)
    with pytest.raises(ValueError):
        TransformMatrix(dim=2, entries=np.zeros((3, 3), dtype=complex),
                        labels=(1, 2))
    with pytest.raises(ValueError):
        TransformMatrix(dim=0, entries=np.zeros((0, 0), dtype=complex),
                        labels=())

"""Shift and modular operators acting on torus block functions.

Four operators act on functions of (lambda, tau): two lattice shifts (in
lambda by 1 and by tau, the latter with an exponential cocycle) and two
modular moves (tau -> tau+1 and tau -> -1/tau, the latter with a Gaussian
prefactor and a fractional power of tau).  On the span of the admissible
block integrals these generate a finite-dimensional action whose matrices
have closed forms; this module evaluates the operators on whole lambda
grids, expands transformed functions back over the block basis by least
squares, and extracts the matrices numerically with one u_blocks call for
the whole basis per grid: the sampled basis, the T-moved grid and the
S-moved grid (three calls at any kappa, not one per block).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocks import BlockIndex, _family_values, u_block_grid
from .errors import IllConditionedBasis, UnsupportedP
from .macdonald import TransformMatrix
from .quadrature import QuadratureSpec
from .specfun import ModularPoint

__all__ = [
    "BasisExpansion",
    "BlockFunction",
    "basis_indices",
    "expand_in_block_basis",
    "numeric_modular_matrices",
    "shift_matrices",
    "transformed_function",
]

TRANSFORM_NAMES = ("A", "B", "T", "S")


@dataclass(frozen=True)
class BlockFunction:
    """A function of (lambda, tau) tagged with the (p, kappa) it lives at.

    The tag is what the modular prefactor of the tau-inversion needs; the
    evaluator itself may be a quadrature-backed block, a closed form, or a
    linear combination.  It takes a list of complex lambda at one tau and
    returns their values in order; a call is its one-point grid.
    """

    evaluator: Callable[[list, ModularPoint], list]
    p: int
    kappa: int

    def on_grid(self, lams, pt: ModularPoint) -> list:
        return self.evaluator([complex(lam) for lam in lams], pt)

    def __call__(self, lam: complex, pt: ModularPoint) -> complex:
        return self.on_grid([lam], pt)[0]

    @classmethod
    def from_block(cls, idx: BlockIndex,
                   quad: QuadratureSpec | None = None) -> "BlockFunction":
        def evaluate(lams, pt):
            return [value.value for value in u_block_grid(idx, lams, pt, quad)]

        return cls(evaluator=evaluate, p=idx.p, kappa=idx.kappa)


def basis_indices(p: int, kappa: int) -> tuple[int, ...]:
    """Labels n of the admissible block basis, p+1 .. kappa-p-1."""
    if kappa < 2 * p + 2:
        raise ValueError("kappa must be at least 2p+2")
    return tuple(range(p + 1, kappa - p))


def transformed_function(which: str, f: BlockFunction) -> BlockFunction:
    """The operator applied lazily, so transforms can be composed.

    A grid moves as a whole, one grid call of f: A and B shift every point,
    T takes the grid to tau + 1 and S takes [lam / tau...] to -1/tau; the B
    phase and the S prefactor are cmath scalars per point.  The inversion
    uses the principal branch of tau**w, consistent with arg(tau) in (0,
    pi) which ModularPoint guarantees.
    """
    if which not in TRANSFORM_NAMES:
        raise ValueError(f"unknown transform {which!r}; expected one of "
                         f"{TRANSFORM_NAMES}")

    def evaluate(lams, pt):
        tau = pt.tau
        if which == "A":
            return f.on_grid([lam + 1.0 for lam in lams], pt)
        if which == "B":
            moved = f.on_grid([lam + tau for lam in lams], pt)
            return [cmath.exp(1j * math.pi * f.kappa * (lam + tau / 2.0)) * v
                    for lam, v in zip(lams, moved)]
        if which == "T":
            return f.on_grid(lams, ModularPoint(tau + 1.0))
        weight = -0.5 - f.p * (f.p + 1) / f.kappa
        moved = f.on_grid([lam / tau for lam in lams],
                          ModularPoint(-1.0 / tau))
        return [cmath.exp(-1j * math.pi * f.kappa * lam * lam / (2.0 * tau))
                * tau ** weight * v for lam, v in zip(lams, moved)]

    return BlockFunction(evaluator=evaluate, p=f.p, kappa=f.kappa)


@dataclass(frozen=True)
class BasisExpansion:
    """Least-squares coordinates of a function over the block basis."""

    indices: tuple[int, ...]
    coefficients: np.ndarray
    residual: float

    def coefficient(self, n: int) -> complex:
        return complex(self.coefficients[self.indices.index(n)])


_CONDITION_LIMIT = 1e8


def _sampled_basis(family: list, grid: list, pt: ModularPoint) -> np.ndarray:
    """The functions of a _block_family sampled on the grid, one column each.

    Raises IllConditionedBasis when the columns are too close to dependent
    for a least-squares fit to mean anything.
    """
    if len(grid) < 2 * len(family):
        raise ValueError(
            f"need at least {2 * len(family)} sample points for a "
            f"{len(family)}-dimensional basis, got {len(grid)}")
    mat = np.array([f.on_grid(grid, pt) for f in family], dtype=complex).T
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise IllConditionedBasis(
            f"sampled basis matrix has condition {cond:.3e} "
            f"(limit {_CONDITION_LIMIT:.0e}); widen or move the grid")
    return mat


def _fit(mat: np.ndarray, f: BlockFunction, grid: list,
         pt: ModularPoint) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of f on the grid, evaluated in one grid
    call, over the columns of mat, and the root-mean-square misfit relative
    to the root-mean-square of f (absolute when f vanishes on the grid)."""
    rhs = np.array(f.on_grid(grid, pt), dtype=complex)
    coeffs, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    misfit = math.sqrt(float(np.mean(np.abs(mat @ coeffs - rhs) ** 2)))
    scale = math.sqrt(float(np.mean(np.abs(rhs) ** 2)))
    return coeffs, (misfit / scale if scale > 0.0 else misfit)


def _block_family(p: int, kappa: int,
                  quad: QuadratureSpec | None) -> list:
    """One BlockFunction per basis label; the first grid call at a (grid,
    tau) evaluates every label in one u_blocks call, which serves the
    others."""
    indices = [BlockIndex(p, kappa, n) for n in basis_indices(p, kappa)]
    done = {}

    def column(lams, pt, j):
        key = (tuple(lams), pt.tau)
        if key not in done:
            done[key] = _family_values(indices, lams, pt, quad)
        return done[key][j][0]

    return [BlockFunction(lambda lams, pt, j=j: column(lams, pt, j), p, kappa)
            for j in range(len(indices))]


def expand_in_block_basis(f, p: int, kappa: int, lambda_grid, pt: ModularPoint,
                          quad: QuadratureSpec | None = None) -> BasisExpansion:
    """Coordinates of f over {u_n : p+1 <= n <= kappa-p-1} by least squares.

    The residual is the root-mean-square misfit over the grid, relative to
    the root-mean-square of f where that is nonzero.  It is reported always;
    callers decide what size of residual they can live with.
    """
    grid = [complex(x) for x in lambda_grid]
    mat = _sampled_basis(_block_family(p, kappa, quad), grid, pt)
    coeffs, residual = _fit(mat, f, grid, pt)
    return BasisExpansion(indices=basis_indices(p, kappa), coefficients=coeffs,
                          residual=residual)


def default_lambda_grid(p: int, kappa: int) -> np.ndarray:
    """Sample points for basis expansion: equispaced, off symmetry points."""
    count = max(2 * len(basis_indices(p, kappa)), 8)
    return np.linspace(0.11, 0.88, count)


def shift_matrices(p: int, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form matrices of the two lattice shifts on the block basis.

    The shift by 1 is the diagonal parity sign (-1)^n; the shift by tau
    sends basis label n to kappa-n with the phase -e^{2 pi i p n / kappa}.
    """
    labels = basis_indices(p, kappa)
    dim = len(labels)
    a = np.zeros((dim, dim), dtype=complex)
    b = np.zeros((dim, dim), dtype=complex)
    for j, n in enumerate(labels):
        a[j, j] = (-1.0) ** n
        b[labels.index(kappa - n), j] = -cmath.exp(2j * math.pi * p * n / kappa)
    return (TransformMatrix(dim=dim, entries=a, labels=labels),
            TransformMatrix(dim=dim, entries=b, labels=labels))


def numeric_modular_matrices(p: int, kappa: int,
                             quad: QuadratureSpec | None = None,
                             lambda_grid=None):
    """The (T, S) matrices extracted by transforming and re-expanding blocks.

    Works at tau = i, the fixed point of the inversion, so the transformed
    functions can be expanded over the basis sampled at the same tau; the
    basis is sampled once and all 2 * dim transformed blocks are fitted
    against it, each fit one lstsq, from one u_blocks call for the whole
    basis per moved grid.  The shift by one in tau is
    evaluated at tau = 1 + i with branch-tracked quadrature.  p = 2 is
    refused: the two-fold quadrature takes real lambda at purely imaginary
    tau only (the guard in blocks._j_p2), and the T move (tau = 1 + i) and
    the S move (lambda / tau) leave that range.
    """
    if p > 1:
        raise UnsupportedP("numeric matrix extraction is wired for p <= 1")
    pt = ModularPoint(1j)
    labels = basis_indices(p, kappa)
    grid = default_lambda_grid(p, kappa) if lambda_grid is None else lambda_grid
    grid = [complex(x) for x in grid]
    family = _block_family(p, kappa, quad)
    mat = _sampled_basis(family, grid, pt)
    t_cols = []
    s_cols = []
    for base in family:
        for which, cols in (("T", t_cols), ("S", s_cols)):
            moved = transformed_function(which, base)
            cols.append(_fit(mat, moved, grid, pt)[0])
    dim = len(labels)
    return (TransformMatrix(dim=dim, entries=np.array(t_cols).T, labels=labels),
            TransformMatrix(dim=dim, entries=np.array(s_cols).T, labels=labels))

"""Shift and modular operators acting on torus block functions.

Four operators act on functions of (lambda, tau): two lattice shifts (in
lambda by 1 and by tau, the latter with an exponential cocycle) and two
modular moves (tau -> tau+1 and tau -> -1/tau, the latter with a Gaussian
prefactor and a fractional power of tau).  On the span of the admissible
block integrals these generate a finite-dimensional action whose matrices
have closed forms; this module evaluates the operators pointwise, expands
transformed functions back over the block basis by least squares, and
extracts the matrices numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocks import BlockIndex, u_block
from .errors import IllConditionedBasis, UnsupportedP
from .macdonald import TransformMatrix
from .quadrature import QuadratureSpec
from .specfun import ModularPoint

__all__ = [
    "BasisExpansion",
    "BlockFunction",
    "apply_transform",
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
    linear combination.
    """

    evaluator: Callable[[complex, ModularPoint], complex]
    p: int
    kappa: int

    def __call__(self, lam: complex, pt: ModularPoint) -> complex:
        return self.evaluator(lam, pt)

    @classmethod
    def from_block(cls, idx: BlockIndex,
                   quad: QuadratureSpec | None = None) -> "BlockFunction":
        def evaluate(lam, pt):
            return u_block(idx, lam, pt, quad).value

        return cls(evaluator=evaluate, p=idx.p, kappa=idx.kappa)


def basis_indices(p: int, kappa: int) -> tuple[int, ...]:
    """Labels n of the admissible block basis, p+1 .. kappa-p-1."""
    if kappa < 2 * p + 2:
        raise ValueError("kappa must be at least 2p+2")
    return tuple(range(p + 1, kappa - p))


def apply_transform(which: str, f: BlockFunction, lam: complex,
                    pt: ModularPoint) -> complex:
    """Evaluate (X f)(lam, tau) for X among A, B, T, S.

    The tau-inversion uses the principal branch of tau**w, consistent with
    arg(tau) in (0, pi) which ModularPoint guarantees.
    """
    tau = pt.tau
    if which == "A":
        return f(lam + 1.0, pt)
    if which == "B":
        phase = cmath.exp(1j * math.pi * f.kappa * (lam + tau / 2.0))
        return phase * f(lam + tau, pt)
    if which == "T":
        return f(lam, ModularPoint(tau + 1.0))
    if which == "S":
        weight = -0.5 - f.p * (f.p + 1) / f.kappa
        prefactor = (cmath.exp(-1j * math.pi * f.kappa * lam * lam / (2.0 * tau))
                     * tau ** weight)
        return prefactor * f(lam / tau, ModularPoint(-1.0 / tau))
    raise ValueError(f"unknown transform {which!r}; expected one of "
                     f"{TRANSFORM_NAMES}")


def transformed_function(which: str, f: BlockFunction) -> BlockFunction:
    """The operator applied lazily, so transforms can be composed."""
    if which not in TRANSFORM_NAMES:
        raise ValueError(f"unknown transform {which!r}; expected one of "
                         f"{TRANSFORM_NAMES}")

    def evaluate(lam, pt):
        return apply_transform(which, f, lam, pt)

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


def _sampled_basis(p: int, kappa: int, grid: list,
                   pt: ModularPoint, quad: QuadratureSpec | None) -> np.ndarray:
    """The blocks u_n sampled on the grid, one column per basis label.

    Raises IllConditionedBasis when the columns are too close to dependent
    for a least-squares fit to mean anything.
    """
    labels = basis_indices(p, kappa)
    if len(grid) < 2 * len(labels):
        raise ValueError(
            f"need at least {2 * len(labels)} sample points for a "
            f"{len(labels)}-dimensional basis, got {len(grid)}")
    columns = []
    for n in labels:
        idx = BlockIndex(p, kappa, n)
        columns.append([u_block(idx, x, pt, quad).value for x in grid])
    mat = np.array(columns, dtype=complex).T
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise IllConditionedBasis(
            f"sampled basis matrix has condition {cond:.3e} "
            f"(limit {_CONDITION_LIMIT:.0e}); widen or move the grid")
    return mat


def _fit(mat: np.ndarray, f, grid: list,
         pt: ModularPoint) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of f on the grid over the columns of mat,
    and the root-mean-square misfit relative to the root-mean-square of f
    (absolute when f vanishes on the grid)."""
    rhs = np.array([f(x, pt) for x in grid], dtype=complex)
    coeffs, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    misfit = math.sqrt(float(np.mean(np.abs(mat @ coeffs - rhs) ** 2)))
    scale = math.sqrt(float(np.mean(np.abs(rhs) ** 2)))
    return coeffs, (misfit / scale if scale > 0.0 else misfit)


def expand_in_block_basis(f, p: int, kappa: int, lambda_grid, pt: ModularPoint,
                          quad: QuadratureSpec | None = None) -> BasisExpansion:
    """Coordinates of f over {u_n : p+1 <= n <= kappa-p-1} by least squares.

    The residual is the root-mean-square misfit over the grid, relative to
    the root-mean-square of f where that is nonzero.  It is reported always;
    callers decide what size of residual they can live with.
    """
    grid = [complex(x) for x in lambda_grid]
    mat = _sampled_basis(p, kappa, grid, pt, quad)
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
                             pt: ModularPoint | None = None,
                             quad: QuadratureSpec | None = None,
                             lambda_grid=None):
    """The (T, S) matrices extracted by transforming and re-expanding blocks.

    Works at tau = i, the fixed point of the inversion, so the transformed
    functions can be expanded over the basis sampled at the same tau; the
    basis is sampled once and all 2 * dim transformed blocks are fitted
    against it.  The shift by one in tau is evaluated at tau = 1 + i with
    branch-tracked quadrature.  Cost limits this to p <= 1.
    """
    if p > 1:
        raise UnsupportedP("numeric matrix extraction is wired for p <= 1")
    pt = pt or ModularPoint(1j)
    if abs(pt.tau - 1j) > 1e-12:
        raise ValueError("matrix extraction needs tau = i, the fixed point "
                         "of the inversion")
    labels = basis_indices(p, kappa)
    grid = default_lambda_grid(p, kappa) if lambda_grid is None else lambda_grid
    grid = [complex(x) for x in grid]
    mat = _sampled_basis(p, kappa, grid, pt, quad)
    t_cols = []
    s_cols = []
    for n in labels:
        base = BlockFunction.from_block(BlockIndex(p, kappa, n), quad)
        for which, cols in (("T", t_cols), ("S", s_cols)):
            moved = transformed_function(which, base)
            cols.append(_fit(mat, moved, grid, pt)[0])
    dim = len(labels)
    return (TransformMatrix(dim=dim, entries=np.array(t_cols).T, labels=labels),
            TransformMatrix(dim=dim, entries=np.array(s_cols).T, labels=labels))

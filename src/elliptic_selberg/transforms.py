"""Shift and modular operators acting on torus block functions.

Four operators act on functions of (lambda, tau): two lattice shifts (in
lambda by 1 and by tau, the latter with an exponential cocycle) and two
modular moves (tau -> tau+1 and tau -> -1/tau, the latter with a Gaussian
prefactor and a fractional power of tau).  On the span of the admissible
block integrals these generate a finite-dimensional action whose matrices
have closed forms; this module evaluates the operators on whole lambda
grids, expands transformed functions back over the block basis by least
squares, and extracts the matrices numerically with one u_blocks call for
the whole basis per distinct tau and one least-squares solve: at tau = i
the sampled basis and the S-moved grid share a call and the T-moved grid
has its own (two calls at any kappa, not one per block).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocks import BlockIndex, _family_values, u_block_grid
from .errors import IllConditionedBasis
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


def _move(which: str, p: int, kappa: int, lams: list, tau: complex) -> tuple:
    """Operator `which` at (lams, tau) as f on a moved grid at a moved tau,
    times per-point cmath factors (None for none): A and B shift every
    point, with the B phase; T takes tau to tau + 1; S takes [lam / tau...]
    to -1/tau with the prefactor, on the principal branch of tau**w
    (arg(tau) in (0, pi), which ModularPoint guarantees)."""
    if which == "A":
        return [lam + 1.0 for lam in lams], tau, None
    if which == "B":
        return ([lam + tau for lam in lams], tau,
                [cmath.exp(1j * math.pi * kappa * (lam + tau / 2.0))
                 for lam in lams])
    if which == "T":
        return lams, tau + 1.0, None
    weight = -0.5 - p * (p + 1) / kappa
    return ([lam / tau for lam in lams], -1.0 / tau,
            [cmath.exp(-1j * math.pi * kappa * lam * lam / (2.0 * tau))
             * tau ** weight for lam in lams])


def _scaled(values: list, factors) -> list:
    """Values times their per-point factors, as Python complex products."""
    return values if factors is None else [c * v for c, v
                                           in zip(factors, values)]


def transformed_function(which: str, f: BlockFunction) -> BlockFunction:
    """The operator applied lazily, so transforms can be composed.

    A grid moves as a whole, one grid call of f (see _move).
    """
    if which not in TRANSFORM_NAMES:
        raise ValueError(f"unknown transform {which!r}; expected one of "
                         f"{TRANSFORM_NAMES}")

    def evaluate(lams, pt):
        grid, tau, factors = _move(which, f.p, f.kappa, lams, pt.tau)
        return _scaled(f.on_grid(grid, ModularPoint(tau)), factors)

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


def _sampled(p: int, kappa: int, requests: list,
             quad: QuadratureSpec | None) -> list:
    """Per (grid, tau, factors) request, the basis labels' values on the
    grid times the factors, one list per label, from one _family_values
    call per distinct tau; a first grid shorter than 2 * dim is refused
    before any call."""
    indices = tuple(BlockIndex(p, kappa, n) for n in basis_indices(p, kappa))
    if len(requests[0][0]) < 2 * len(indices):
        raise ValueError(
            f"need at least {2 * len(indices)} sample points for a "
            f"{len(indices)}-dimensional basis, got {len(requests[0][0])}")
    merged = {}
    for lams, tau, _ in requests:
        merged.setdefault(tau, []).extend(lams)
    rows = {tau: [values for values, _, _ in _family_values(
        indices, lams, ModularPoint(tau), quad)] for tau, lams in merged.items()}
    out = []
    for lams, tau, factors in requests:
        out.append([_scaled(row[:len(lams)], factors) for row in rows[tau]])
        rows[tau] = [row[len(lams):] for row in rows[tau]]
    return out


def _fit(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of rhs (a vector, or one column per
    function) over the columns of mat.  Raises IllConditionedBasis when the
    singular values lstsq returns put the condition of mat over the limit:
    its columns are too close to dependent for a fit to mean anything."""
    coeffs, _, _, sv = np.linalg.lstsq(mat, rhs, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf
    if not cond <= _CONDITION_LIMIT:
        raise IllConditionedBasis(
            f"sampled basis matrix has condition {cond:.3e} "
            f"(limit {_CONDITION_LIMIT:.0e}); widen or move the grid")
    return coeffs


def expand_in_block_basis(f, p: int, kappa: int, lambda_grid, pt: ModularPoint,
                          quad: QuadratureSpec | None = None) -> BasisExpansion:
    """Coordinates of f over {u_n : p+1 <= n <= kappa-p-1} by least squares.

    The residual is the root-mean-square misfit over the grid, relative to
    the root-mean-square of f where that is nonzero.  It is reported always;
    callers decide what size of residual they can live with.
    """
    grid = [complex(x) for x in lambda_grid]
    [basis] = _sampled(p, kappa, [(grid, pt.tau, None)], quad)
    mat = np.array(basis, dtype=complex).T
    rhs = np.array(f.on_grid(grid, pt), dtype=complex)
    coeffs = _fit(mat, rhs)
    misfit = math.sqrt(float(np.mean(np.abs(mat @ coeffs - rhs) ** 2)))
    scale = math.sqrt(float(np.mean(np.abs(rhs) ** 2)))
    return BasisExpansion(indices=basis_indices(p, kappa), coefficients=coeffs,
                          residual=misfit / scale if scale > 0.0 else misfit)


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
    functions can be expanded over the basis sampled at the same tau.  One
    u_blocks call for the whole basis per distinct tau (_sampled): the
    basis grid with the S-moved grid lam / tau at i, the T-moved grid at
    1 + i (branch-tracked quadrature); then one lstsq fits all 2 * dim
    moved blocks.  p = 2 takes the same route: the S-moved points beyond
    |Im| 1/2 fold onto partner labels inside the block pass.
    """
    grid = default_lambda_grid(p, kappa) if lambda_grid is None else lambda_grid
    grid = [complex(x) for x in grid]
    basis, t_moved, s_moved = _sampled(p, kappa, [(grid, 1j, None)] + [
        _move(which, p, kappa, grid, 1j) for which in ("T", "S")], quad)
    coeffs = _fit(np.array(basis, dtype=complex).T,
                  np.array(t_moved + s_moved, dtype=complex).T)
    dim = len(basis)
    labels = basis_indices(p, kappa)
    return (TransformMatrix(dim=dim, entries=coeffs[:, :dim], labels=labels),
            TransformMatrix(dim=dim, entries=coeffs[:, dim:], labels=labels))

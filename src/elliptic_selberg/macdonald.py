"""Rank-one Macdonald polynomials at a root of unity and the induced
modular-transformation matrices on the block index range.

Everything lives in the Laurent ring C[z, 1/z] with z = eps**x and
eps = e^{i pi / kappa}.  The constant-term pairing

    <f, g> = (1/2) * CT( f * g * prod_{j=0}^{k-1} (1 - eps^{2j} z^2)(1 - eps^{2j} z^{-2}) )

is bilinear (no conjugation).  Its orthogonal family with unit leading
coefficient is Rogers' continuous q-ultraspherical family at q = eps^2,
beta = q^k (Askey and Ismail, "A generalization of ultraspherical
polynomials", 1983; Gasper and Rahman, Basic Hypergeometric Series, 7.4):

    P_n = sum_{j=0..n} r_j r_{n-j} / r_n z^{n-2j},
    r_j = prod_{i<j} sin(pi (k+i)/kappa) / sin(pi (i+1)/kappa),

real since the phases of each 1 - q^m = -2i sin(pi m/kappa) e^{i pi m/kappa}
cancel; k = 0 is the limit z^n + z^{-n}.  The pairing checks the formula:
DegenerateGram holds where a squared norm is below 1e-12 sum |coefficient|^2
(first at n = kappa - 2k + 1 for k >= 2) or r_n vanishes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateGram

__all__ = [
    "LaurentPoly",
    "MacdonaldBasis",
    "TransformMatrix",
    "ct_inner",
    "macdonald_poly",
    "macdonald_basis",
    "modular_matrices",
    "relation_residuals",
]


class LaurentPoly:
    """Finite Laurent polynomial sum coeffs[m] * z**m with complex coeffs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for m, c in coeffs.items():
                c = complex(c)
                if c != 0:
                    self.coeffs[int(m)] = c

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return LaurentPoly(out)

    def scale(self, c: complex) -> "LaurentPoly":
        return LaurentPoly({m: v * c for m, v in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                m = ma + mb
                out[m] = out.get(m, 0.0) + ca * cb
        return LaurentPoly(out)

    def constant_term(self) -> complex:
        return self.coeffs.get(0, 0.0 + 0.0j)

    def coefficient(self, m: int) -> complex:
        return self.coeffs.get(int(m), 0.0 + 0.0j)

    def evaluate(self, z: complex) -> complex:
        return sum(c * z ** m for m, c in self.coeffs.items())

    def __repr__(self):
        terms = ", ".join(f"{m}: {c:.4g}" for m, c in sorted(self.coeffs.items()))
        return f"LaurentPoly({{{terms}}})"


@dataclass(frozen=True)
class MacdonaldBasis:
    """Rogers' family P_0 ... P_N (the module's formula) for parameter k at
    eps = e^{i pi/kappa}, each P_n's norm checked by the pairing."""

    k: int
    kappa: int
    polys: tuple


@dataclass(frozen=True)
class TransformMatrix:
    """Matrix on the block index range, rows/columns labelled p+1 ... kappa-p-1."""

    dim: int
    entries: np.ndarray
    labels: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1 (kappa >= 2p+2)")
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError("entries shape must match dim")


@lru_cache(maxsize=128)
def _pairing_weight(k: int, kappa: int) -> LaurentPoly:
    eps2 = cmath.exp(2j * cmath.pi / kappa)
    w = LaurentPoly({0: 1.0})
    for j in range(k):
        phase = eps2 ** j
        w = w * LaurentPoly({0: 1.0, 2: -phase})
        w = w * LaurentPoly({0: 1.0, -2: -phase})
    return w


def ct_inner(f: LaurentPoly, g: LaurentPoly, k: int, kappa: int) -> complex:
    """Half the constant term of f*g against the k-fold root-of-unity weight."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return 0.5 * (f * g * _pairing_weight(k, kappa)).constant_term()


@lru_cache(maxsize=64)
def _basis_upto(k: int, kappa: int, n_max: int) -> MacdonaldBasis:
    polys, r = [], [1.0]
    for n in range(n_max + 1):
        if n:
            r.append(r[-1] * math.sin(math.pi * (k + n - 1) / kappa)
                     / math.sin(math.pi * n / kappa))
        if k and abs(r[n]) < 1e-12:
            raise DegenerateGram(
                f"vanishing r_n at n={n} (k={k}, kappa={kappa})")
        # k = 0 takes the limit z^n + z^-n
        p = LaurentPoly({n: 1.0, -n: 1.0} if k == 0 else
                        {n - 2 * j: r[j] * r[n - j] / r[n]
                         for j in range(n + 1)})
        if abs(ct_inner(p, p, k, kappa)) < 1e-12 * sum(
                abs(c) ** 2 for c in p.coeffs.values()):
            raise DegenerateGram(
                f"vanishing squared norm at n={n} (k={k}, kappa={kappa})")
        polys.append(p)
    return MacdonaldBasis(k=k, kappa=kappa, polys=tuple(polys))


def macdonald_basis(k: int, kappa: int, n_max: int) -> MacdonaldBasis:
    """Rogers' family P_0..P_n_max by the module's formula; raises
    DegenerateGram where a P_n squared norm (one ct_inner per polynomial) is
    below 1e-12 sum |coefficient|^2 or r_n vanishes, never at k = 0."""
    if k < 0 or kappa < 1 or n_max < 0:
        raise ValueError("need k >= 0, kappa >= 1, n_max >= 0")
    return _basis_upto(k, kappa, n_max)


def macdonald_poly(n: int, k: int, kappa: int) -> LaurentPoly:
    """The n-th orthogonal polynomial for parameter k at eps = e^{i pi/kappa}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return macdonald_basis(k, kappa, n).polys[n]


def modular_matrices(p: int, kappa: int):
    """The (T, S) matrix pair on indices p+1 <= m, n <= kappa-p-1.

    T is the diagonal phase e^{i pi n^2 / (2 kappa)}.  S combines a fixed
    phase, root-of-unity difference products, and the (p+1)-parameter
    orthogonal polynomial evaluated at z = eps^m:

        s_{m,n} = e^{-i pi/4}/sqrt(2 kappa) * eps^{p(n-m) - p(p+1)/2}
                  * (eps^{-m} - eps^{m})
                  * prod_{j=1..p} (eps^{-n+j} - eps^{n-j})
                  * P^{(p+1)}_{n-p-1}(z = eps^m)
    """
    if kappa < 2 * p + 2:
        raise ValueError("kappa must be at least 2p+2")
    labels = tuple(range(p + 1, kappa - p))
    dim = len(labels)
    eps = cmath.exp(1j * cmath.pi / kappa)
    t = np.zeros((dim, dim), dtype=complex)
    for i, n in enumerate(labels):
        t[i, i] = cmath.exp(1j * cmath.pi * n * n / (2 * kappa))

    basis = macdonald_basis(p + 1, kappa, kappa - 2 * p - 2)
    pref = cmath.exp(-1j * cmath.pi / 4) / math.sqrt(2 * kappa)
    s = np.zeros((dim, dim), dtype=complex)
    for j, n in enumerate(labels):
        diff_prod = 1.0 + 0.0j
        for jj in range(1, p + 1):
            diff_prod *= eps ** (-n + jj) - eps ** (n - jj)
        poly = basis.polys[n - p - 1]
        for i, m in enumerate(labels):
            s[i, j] = (pref * eps ** (p * (n - m) - p * (p + 1) / 2)
                       * (eps ** (-m) - eps ** m)
                       * diff_prod
                       * poly.evaluate(eps ** m))
    return (TransformMatrix(dim=dim, entries=t, labels=labels),
            TransformMatrix(dim=dim, entries=s, labels=labels))


def relation_residuals(tmat: TransformMatrix, smat: TransformMatrix,
                       p: int, kappa: int) -> dict:
    """Max-norm residuals of S^2 = (ST)^3 = (-1)^p i e^{-i pi p(p+1)/kappa} I."""
    phase = (-1) ** p * 1j * cmath.exp(-1j * cmath.pi * p * (p + 1) / kappa)
    eye = phase * np.eye(tmat.dim)
    st = smat.entries @ tmat.entries
    return {
        "s_squared": float(np.max(np.abs(smat.entries @ smat.entries - eye))),
        "st_cubed": float(np.max(np.abs(st @ st @ st - eye))),
    }

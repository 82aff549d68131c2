"""Action of the crystallographic generators on eigenfunction bases.

For central frequency n != 0 the quotient eigenspace has the Weil-Brezin basis
indexed by (a, b) with a in [0,|n|), b in [0,2l), ordered a-major.  With
N = 2l|n| the basis position of (a, b) carries the index
k = 2l a + sgn(n) b mod N (`_sector_index`), and on that index the generators
are exact Fourier objects: the quarter-turn pullback is i^(n+lam) F for n > 0
and i^(n+3 lam) conj(F) for n < 0, F the unitary DFT of size N, and the
half-turn, its square, is the reversal k -> -k with sign (-1)^(n+lam).
On the same k an invariant combination sum c^{a,b} f^{a,b} is one series over
(1/N)Z with c^{a,b} at residue k (f^{a,b} has offset k/N up to a whole step);
its window takes every term some residue needs, each dropped term is under
tol/10 of sup|psi_lam|, and the tail is at most ~tol sup|psi_lam| sum |c|.
Fixed-subspace dimensions follow from closed forms, from characters and Gauss
sums, or from an SVD nullity oracle, kept separate so they can be compared; the
oracle and the invariant bases share one rank rule on I - M (singular values
below tol are kernel, one inside [tol/10, 10 tol] raises IllConditionedError).
The oracle takes those singular values block by block: I - M splits into the
connected components of its nonzero pattern (1x1 and 2x2 blocks for the
half-turn, one dense block for the quarter-turn), and the blocks together have
the dense matrix's singular values, so the rank rule is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import LatticeSpec
from .weil_brezin import _hermite_windows, _series_value


class IllConditionedError(RuntimeError):
    """A singular value fell inside the threshold's uncertainty band."""


def _check_nl(n: int, lam: int, l: int):
    if n == 0:
        raise ValueError("n must be nonzero")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if l < 1:
        raise ValueError("l must be a positive integer")


@dataclass(frozen=True, eq=False)
class PullbackMatrix:
    """Matrix of gamma* on the (a, b) basis, metadata carried alongside."""

    generator: str  # "phi" | "psi"
    n: int
    lam: int
    l: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.l * abs(self.n)


def _sector_index(n: int, l: int) -> np.ndarray:
    """DFT index k = 2l a + sgn(n) b mod N of each basis position a*2l + b."""
    two_l = 2 * l
    dim = two_l * abs(n)
    a, b = np.divmod(np.arange(dim), two_l)
    return (two_l * a + (b if n > 0 else -b)) % dim


def phi_pullback_matrix(n: int, lam: int, l: int) -> PullbackMatrix:
    """Signed permutation k -> -k mod N with single entry (-1)^(n+lam) per column."""
    _check_nl(n, lam, l)
    k = _sector_index(n, l)
    dim = k.size
    pos = np.empty(dim, dtype=int)
    pos[k] = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[pos[-k % dim], np.arange(dim)] = -1.0 if (n + lam) % 2 else 1.0
    return PullbackMatrix("phi", n, lam, l, mat)


def psi_pullback_matrix(n: int, lam: int, l: int) -> PullbackMatrix:
    """Dense unitary of the quarter-turn pullback; its square is the half-turn's.

    The DFT exponent k k' is reduced mod N in integers, so the phase argument
    stays below 2 pi whatever the size.
    """
    _check_nl(n, lam, l)
    k = _sector_index(n, l)
    dim = k.size
    if n > 0:
        phase, sign = 1j ** ((n + lam) % 4), -1.0
    else:
        phase, sign = 1j ** ((n + 3 * lam) % 4), 1.0
    mat = (phase / math.sqrt(dim)) * np.exp((sign * 2j * math.pi / dim) * (np.outer(k, k) % dim))
    return PullbackMatrix("psi", n, lam, l, mat)


def _nullity(svals: np.ndarray, tol: float) -> int:
    """The rank rule: the count of singular values below tol, refused with
    IllConditionedError when one lies inside [tol/10, 10 tol]."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if np.any((svals >= tol / 10) & (svals <= tol * 10)):
        raise IllConditionedError(f"singular value inside the band [tol/10, 10 tol], tol = {tol!r}")
    return int(np.sum(svals < tol))


# Up to this size one dense SVD is cheaper than the split: the split's numpy calls
# take 60-100 us, a dense SVD 18, 43 and 72 us at N = 8, 16 and 24 (timeit, 2-core
# x86 box), and the verify suite `dims` makes 160 oracle calls at N <= 16.
_DENSE_MAX = 32


def _singular_values(A: np.ndarray) -> np.ndarray:
    """The singular values of the square complex matrix A in descending order, as
    np.linalg.svd(A, compute_uv=False) gives them, taken one block at a time.

    The blocks are the connected components of the pattern (A != 0) | (A^T != 0),
    labelled by min-label propagation; permuting A to block-diagonal form keeps its
    singular values, so those of the blocks together are A's.  Blocks of one size
    go to one batched SVD; a 1x1 block's value is |a|.  A with a row or a column
    free of zeros is one block, so it goes straight to the dense SVD, as does an A
    of size at most _DENSE_MAX.
    """
    dim = A.shape[0]
    if dim <= _DENSE_MAX or A[0].all() or A[:, 0].all():
        return np.linalg.svd(A, compute_uv=False)
    A = np.ascontiguousarray(A, dtype=complex)
    # each nonzero real or imaginary part of the row-major A names its entry
    row, col = np.divmod(np.flatnonzero(A.view(float) != 0) >> 1, dim)
    src, dst = np.concatenate((row, col)), np.concatenate((col, row))
    label = np.arange(dim)
    while True:
        low = label.copy()
        np.minimum.at(low, src, label[dst])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))  # by block size, then block
    svals = []
    for s in np.unique(size).tolist():
        index = order[size[order] == s].reshape(-1, s)
        blocks = A[index[:, :, None], index[:, None, :]]
        svals.append(np.abs(blocks.ravel()) if s == 1 else
                     np.linalg.svd(blocks, compute_uv=False).ravel())
    return np.sort(np.concatenate(svals))[::-1]


def fixed_subspace_dim(M, tol: float = 1e-8) -> int:
    """Dimension of the +1 eigenspace as the SVD nullity of (M - I), by the rank rule.

    The singular values come from the blocks of M - I (`_singular_values`), which
    its nonzero pattern alone finds; they are those of the dense SVD, so the rank
    rule and its band are unchanged.
    """
    A = np.array(getattr(M, "matrix", M), dtype=complex)
    A.reshape(-1)[::A.shape[0] + 1] -= 1  # the diagonal of the row-major copy
    return _nullity(_singular_values(A), tol)


def dim_phi_invariant(n: int, lam: int, l: int) -> int:
    """Fixed-subspace dimension under the half-turn: l|n| +- 1 by parity of |n|+lam."""
    _check_nl(n, lam, l)
    m = abs(n)
    return l * m + 1 if (m + lam) % 2 == 0 else l * m - 1


def dim_psi_invariant(n: int, lam: int, l: int) -> int:
    """Fixed-subspace dimension under the quarter-turn, by |n|+lam mod 4.

    With l|n| even the value is l|n|/2 + {1, 0, 0, -1} for residues {0, 1or2, 3};
    with l and |n| both odd it is l|n|/2 +- 1/2, the sign set by residue parity.
    """
    _check_nl(n, lam, l)
    m = abs(n)
    r = (m + lam) % 4
    if m % 2 == 0 or l % 2 == 0:
        base = (l * m) // 2
        if r == 0:
            return base + 1
        if r == 3:
            return base - 1
        return base
    return (l * m + 1) // 2 if r in (0, 2) else (l * m - 1) // 2


def gauss_sum(m: int) -> complex:
    """Closed form of sum_{k<m} e^{2 pi i k^2 / m} by the residue of m mod 4."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    root = math.sqrt(m)
    r = m % 4
    if r == 0:
        return complex(root, root)
    if r == 1:
        return complex(root, 0.0)
    if r == 2:
        return 0j
    return complex(0.0, root)


def gauss_sum_direct(m: int) -> complex:
    """Defining sum, reduced mod m so the phase argument stays small."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    ks = np.arange(m)
    return complex(np.sum(np.exp(2j * math.pi * ((ks * ks) % m) / m)))


@dataclass(frozen=True)
class CharacterTable:
    """Character values of the quarter-turn cyclic action on the sector."""

    n: int
    lam: int
    l: int
    values: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        chi0, _, _, chi3 = self.values
        if abs(chi0 - 2 * self.l * abs(self.n)) > 1e-9:
            raise ValueError("chi(1) must equal the sector dimension")
        if abs(chi3 - np.conj(self.values[1])) > 1e-9:
            raise ValueError("chi(g^3) must conjugate chi(g)")


def character_table(n: int, lam: int, l: int) -> CharacterTable:
    _check_nl(n, lam, l)
    m = abs(n)
    chi0 = complex(2 * l * m)
    if n > 0:
        chi1 = np.exp(0.5j * math.pi * (n + lam)) * np.conj(gauss_sum(2 * l * n)) / math.sqrt(2 * l * n)
    else:
        chi1 = np.exp(0.5j * math.pi * (n + 3 * lam)) * gauss_sum(2 * l * m) / math.sqrt(2 * l * m)
    chi2 = complex(2 * (-1.0 if (n + lam) % 2 else 1.0))
    return CharacterTable(n, lam, l, (chi0, complex(chi1), chi2, complex(np.conj(chi1))))


def sector_dimensions(table: CharacterTable) -> tuple[int, int, int, int]:
    """Multiplicities of the four eigenvalues i^j of the cyclic action."""
    out = []
    for j in range(4):
        acc = sum((1j ** (-j * m)) * table.values[m] for m in range(4))
        val = acc / 4.0
        if abs(val.imag) > 1e-9 or abs(val.real - round(val.real)) > 1e-9:
            raise ValueError("character table produced a non-integer multiplicity")
        out.append(int(round(val.real)))
    return tuple(out)


def dim_from_characters(table: CharacterTable) -> int:
    """(1/4) sum of the table: multiplicity of eigenvalue +1."""
    return sector_dimensions(table)[0]


# ---------------------------------------------------------------------------
# coefficient constraints


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Coefficients c^{a,b} of an eigenfunction combination, a-major order."""

    n: int
    l: int
    entries: np.ndarray

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("n must be nonzero")
        if self.entries.shape != (2 * self.l * abs(self.n),):
            raise ValueError("entry vector has the wrong length")


def _nullspace_basis(M: PullbackMatrix) -> list[CoefficientVector]:
    """Orthonormal basis of c = Mc: the last fixed_subspace_dim(M) right singular vectors."""
    _, svals, vh = np.linalg.svd(np.eye(M.dim) - M.matrix)
    return [CoefficientVector(M.n, M.l, v.conj()) for v in vh[M.dim - _nullity(svals, 1e-8):]]


def phi_constraint_solve(n: int, lam: int, l: int) -> list[CoefficientVector]:
    """The fixed_subspace_dim(M) orthonormal solutions of the half-turn relations.

    The relations pair (a, b) with its pullback target: e c^{a,b} = c^{a',b'}
    with e = (-1)^(n+lam).  The pullback is a symmetric involution, so these
    rows are e (I - M) and share the null space of I - M; a singular value in
    the rank rule's band raises IllConditionedError.
    """
    return _nullspace_basis(phi_pullback_matrix(n, lam, l))


def psi_constraint_solve(n: int, lam: int, l: int) -> list[CoefficientVector]:
    """The fixed_subspace_dim(M) orthonormal solutions of the quarter-turn relations
    c = Mc; a singular value in the rank rule's band raises IllConditionedError."""
    return _nullspace_basis(psi_pullback_matrix(n, lam, l))


def eigenfunction_combination(coef: CoefficientVector, lam: int, lattice: LatticeSpec,
                              pt, tol: float = 1e-12) -> complex:
    """Evaluate sum_{a,b} c^{a,b} f^{a,b} at pt on the given quotient, as one series."""
    to_rect, window_at = _hermite_windows(coef.n, 2 * coef.l, lam, lattice, tol)
    dim = coef.entries.size
    weights = coef.entries[np.argsort(_sector_index(coef.n, coef.l))]  # c at residue k
    pt = to_rect(pt)
    exponents, seeds = window_at(pt.p, np.arange(dim) / dim)
    return _series_value(coef.n, (exponents, (seeds.reshape(-1, dim) * weights).ravel()), pt)

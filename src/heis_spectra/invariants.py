"""Action of the crystallographic generators on eigenfunction bases.

For central frequency n != 0 the quotient eigenspace has the Weil-Brezin basis
indexed by (a, b) with a in [0,|n|), b in [0,2l), ordered a-major.  With
N = 2l|n| the basis position of (a, b) carries the index
k = 2l a + sgn(n) b mod N (`_sector_index`), and on that index the generators
are exact Fourier objects: the quarter-turn pullback is i^(n+lam) F for n > 0
and i^(n+3 lam) conj(F) for n < 0, F the unitary DFT of size N, and the
half-turn, its square, is the reversal k -> -k with sign (-1)^(n+lam).
On the same k an invariant combination sum c^{a,b} f^{a,b} is one series over
(1/N)Z with c^{a,b} at residue k (f^{a,b} has offset k/N up to a whole step),
its weights read through `_residue_order`, the closed-form inverse of the index;
its window is the contiguous run of points m/N within the seed's reach, so each
dropped term is under tol/10 of sup|psi_lam| and the tail is at most
~tol sup|psi_lam| sum |c|.  The half-turn's invariant basis is in closed form,
the reversal's even orbit vectors (e = 1) or its odd ones (e = -1); the
quarter-turn's is the null space of I - M by a dense SVD.
Fixed-subspace dimensions follow from closed forms, from characters and Gauss
sums, or from an SVD nullity oracle, kept separate so they can be compared; the
oracle and the quarter-turn's invariant basis share one rank rule on I - M
(singular values below tol are kernel, one inside [tol/10, 10 tol] raises
IllConditionedError, and a tol below the floor sigma_max N eps raises ValueError).
`fixed_subspace_dim` takes one dense SVD and is the reference; the oracles of
`dims` never build the matrix.  Both generators act on the orbits of the
reversal k -> -k: the half-turn is the reversal itself, 1x1 blocks on its fixed
points and 2x2 blocks on its pairs (`phi_fixed_subspace_dim`), and the
quarter-turn commutes with its square, the reversal, so on the reversal's even
and odd orbit vectors (e_k +- e_{-k})/sqrt 2 it is two real blocks times a
phase, of sizes N/2 + 1 and N/2 - 1 (`psi_fixed_subspace_dim`; the even/odd
split of the DFT, McClellan and Parks, IEEE Trans. Audio Electroacoust. 20,
1972).  The blocks together have the dense matrix's singular values, so the
rank rule is the same; as the blocks are real and symmetric, those are read off
their eigenvalues at each level's phase, one eigendecomposition per N.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .group import LatticeSpec, symplectic_coords
from .weil_brezin import _hermite_seed, _residue_series


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


@functools.lru_cache(maxsize=64)
def _residue_order(n: int, l: int) -> np.ndarray:
    """The basis position of each index k, the inverse of `_sector_index`, in closed
    form: k itself for n > 0, and 2l (ceil(k/2l) mod |n|) + (-k mod 2l) for n < 0,
    as k = 2l a - b with 0 < b < 2l is 2l (a - 1) + (2l - b).  Read-only."""
    two_l = 2 * l
    k = np.arange(two_l * abs(n))
    if n < 0:
        k = two_l * (-(-k // two_l) % -n) + (-k % two_l)
    k.flags.writeable = False
    return k


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


def _psi_phase(n: int, lam: int) -> tuple[int, float]:
    """(r, sign): the quarter-turn pullback is i^r exp(sign 2 pi i k k'/N)/sqrt N."""
    if n > 0:
        return (n + lam) % 4, -1.0
    return (n + 3 * lam) % 4, 1.0


def psi_pullback_matrix(n: int, lam: int, l: int) -> PullbackMatrix:
    """Dense unitary of the quarter-turn pullback; its square is the half-turn's.

    The DFT exponent k k' is reduced mod N in integers, so the phase argument
    stays below 2 pi whatever the size.
    """
    _check_nl(n, lam, l)
    k = _sector_index(n, l)
    dim = k.size
    r, sign = _psi_phase(n, lam)
    mat = (1j**r / math.sqrt(dim)) * np.exp((sign * 2j * math.pi / dim) * (np.outer(k, k) % dim))
    return PullbackMatrix("psi", n, lam, l, mat)


def _nullity(svals: np.ndarray, tol: float) -> int:
    """The rank rule on the N singular values of an N x N matrix: the count of those
    below tol, refused with IllConditionedError when one lies inside
    [tol/10, 10 tol] and with ValueError when tol is below sigma_max N eps."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    floor = np.max(svals, initial=0.0) * svals.size * np.finfo(float).eps
    if tol < floor:  # numpy's matrix_rank default: below it a kernel value may be noise
        raise ValueError(f"tol = {tol!r} is below the rank rule's floor "
                         f"sigma_max N eps = {floor:.3g}")
    if np.any((svals >= tol / 10) & (svals <= tol * 10)):
        raise IllConditionedError(f"singular value inside the band [tol/10, 10 tol], tol = {tol!r}")
    return int(np.sum(svals < tol))


def fixed_subspace_dim(M, tol: float = 1e-8) -> int:
    """Dimension of the +1 eigenspace as the SVD nullity of (M - I), by the rank rule:
    one dense SVD, the reference for the structured oracles."""
    A = np.array(getattr(M, "matrix", M), dtype=complex)
    A.reshape(-1)[::A.shape[0] + 1] -= 1  # the diagonal of the row-major copy
    return _nullity(np.linalg.svd(A, compute_uv=False), tol)


def _orbit_blocks(dim: int):
    """Yield C, then S: the unitary DFT of size dim on the even and on the odd orbit
    vectors of the reversal k -> -k mod dim, up to the pullback's phase.

    With h = dim/2 the even basis is e_0, e_h and (e_j + e_{dim-j})/sqrt 2 for
    0 < j < h, the odd basis (e_j - e_{dim-j})/sqrt 2 for 0 < j < h; then
    C[j, k] = w_j w_k cos(2 pi (jk mod dim)/dim)/sqrt dim, w = 1 at j in {0, h} and
    sqrt 2 elsewhere, and S[j, k] = 2 sin(2 pi (jk mod dim)/dim)/sqrt dim.  Both are
    real and symmetric and depend on dim alone.  S is built after C is dropped, so
    a caller that drops C first holds the table jk, in the smallest unsigned type
    that holds h^2, and one block at a time.
    """
    h = dim // 2
    j = np.arange(h + 1, dtype=np.min_scalar_type(h * h))
    jk = np.outer(j, j) % dim
    angle = (2 * math.pi / dim) * np.arange(dim)
    even = (np.cos(angle) / math.sqrt(dim))[jk]
    even[1:h] *= math.sqrt(2.0)
    even[:, 1:h] *= math.sqrt(2.0)
    yield even
    del even
    yield (2.0 * np.sin(angle) / math.sqrt(dim))[jk[1:h, 1:h]]


@functools.lru_cache(maxsize=1)
def _orbit_eigenvalues(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the two orbit blocks (C, S) of `_orbit_blocks(dim)`, by
    `eigvalsh`, one block at a time.  A dims range asks for one size at each of its
    levels, so the last size is kept: 2 N floats, while the blocks' tables (at the
    peak about 3 N^2 bytes, the table jk and one block) are freed on return.
    """
    eigs = []
    for block in _orbit_blocks(dim):
        eigs.append(np.linalg.eigvalsh(block))
        eigs[-1].flags.writeable = False
        del block
    return tuple(eigs)


def _block_singular_values(eigs: np.ndarray, r: int) -> np.ndarray:
    """The singular values of i^r T - I for a real symmetric T of eigenvalues eigs.

    T = Q diag(eigs) Q^T with Q real orthogonal, so i^r T - I = Q (i^r diag(eigs) - I) Q^T
    is normal and its singular values are |i^r eig - 1|: |eig - 1| and |eig + 1| for
    the real phases i^r = 1 and -1, and sqrt(1 + eig^2) for the imaginary ones.
    """
    if r % 2:
        return np.sqrt(1.0 + eigs * eigs)
    return np.abs((eigs if r % 4 == 0 else -eigs) - 1.0)


def phi_fixed_subspace_dim(n: int, lam: int, l: int, tol: float = 1e-8) -> int:
    """fixed_subspace_dim(phi_pullback_matrix(n, lam, l), tol), without the dense
    matrix and without an SVD: O(N) time and memory.

    The half-turn is the reversal k -> -k with sign e = (-1)^(n+lam), so with
    h = l|n| = N/2 it is e on the reversal's h + 1 even orbit vectors (e_0, e_h and
    (e_k + e_{N-k})/sqrt 2) and -e on its h - 1 odd ones (e_k - e_{N-k})/sqrt 2.
    M - I is diagonal on them, and its singular values are |e - 1| and |e + 1|
    there, those of the dense I - M, so the rank rule is unchanged.
    """
    _check_nl(n, lam, l)
    e = -1.0 if (n + lam) % 2 else 1.0
    h = l * abs(n)
    return _nullity(np.repeat([abs(e - 1.0), abs(e + 1.0)], [h + 1, h - 1]), tol)


def psi_fixed_subspace_dim(n: int, lam: int, l: int, tol: float = 1e-8) -> int:
    """fixed_subspace_dim(psi_pullback_matrix(n, lam, l), tol), without the dense
    matrix and without an SVD: the eigenvalues of two real symmetric blocks of
    about half its size (sizes 2 and 0 at N = 2), taken once per N and read at
    each level's phase.

    The quarter-turn i^r F (F the DFT of `_psi_phase`'s sign) commutes with the
    reversal, so on its even and odd orbit vectors it is i^r C and sign i^(r+1) S
    (`_orbit_blocks`), and no entry joins the two.  Their singular values of B - I
    (`_block_singular_values`) together are those of the dense I - M, so the rank
    rule is unchanged.  A call costs O(N^3) for a new N and O(N) for the last one,
    and holds O(N) memory afterwards.

    `eigvalsh` leaves the eigenvalues, all +-1, up to about N eps / 2 away from them
    (5 eps at N = 14), where the dense SVD of I - M leaves its kernel values below
    0.4 N eps.  So for a tol below about 5 N eps, just above the floor, a kernel
    value of either route may reach the band's edge tol/10, and one route may
    refuse a row the other counts; they never count it differently, as the noise
    stays below the floor and so below tol.
    """
    _check_nl(n, lam, l)
    r, sign = _psi_phase(n, lam)
    even, odd = _orbit_eigenvalues(2 * l * abs(n))
    odd_phase = r + (3 if sign < 0 else 1)  # sign i = i^3 or i
    svals = (_block_singular_values(even, r), _block_singular_values(odd, odd_phase))
    return _nullity(np.concatenate(svals), tol)


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
    r, sign = _psi_phase(n, lam)
    gauss = gauss_sum(2 * l * m)
    chi1 = 1j**r * (gauss.conjugate() if sign < 0 else gauss) / math.sqrt(2 * l * m)
    chi2 = complex(2 * (-1.0 if (n + lam) % 2 else 1.0))
    return CharacterTable(n, lam, l, (chi0, complex(chi1), chi2, complex(np.conj(chi1))))


# _UNITS[j][m] = i^(-j m): the weight of chi(g^m) in the multiplicity of the eigenvalue i^j
_UNITS = tuple(tuple(1j ** (-j * m) for m in range(4)) for j in range(4))


def sector_dimensions(table: CharacterTable) -> tuple[int, int, int, int]:
    """Multiplicities of the four eigenvalues i^j of the cyclic action."""
    out = []
    for units in _UNITS:
        acc = sum(map(operator.mul, units, table.values))
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
        if not np.isfinite(self.entries).all():
            raise ValueError("coefficients must be finite")


def _nullspace_basis(M: PullbackMatrix) -> list[CoefficientVector]:
    """Orthonormal basis of c = Mc: the last fixed_subspace_dim(M) right singular vectors."""
    _, svals, vh = np.linalg.svd(np.eye(M.dim) - M.matrix)
    return [CoefficientVector(M.n, M.l, v.conj()) for v in vh[M.dim - _nullity(svals, 1e-8):]]


def phi_constraint_solve(n: int, lam: int, l: int) -> list[CoefficientVector]:
    """The fixed_subspace_dim(M) orthonormal solutions of the half-turn relations, in
    closed form.

    The relations pair (a, b) with its pullback target: e c^{a,b} = c^{a',b'}
    with e = (-1)^(n+lam).  On the index k (`_sector_index`) the pullback is the
    reversal k -> -k mod N with sign e, so with h = l|n| = N/2 the solutions are
    (e_k + e e_{N-k})/sqrt 2 for 0 < k < h, and e_0 and e_h when e = 1, each
    carried to the basis positions by `_residue_order`.
    """
    _check_nl(n, lam, l)
    e = -1.0 if (n + lam) % 2 else 1.0
    h = l * abs(n)
    ks = np.arange(1, h)
    vecs = np.zeros((h - 1, 2 * h), dtype=complex)
    vecs[ks - 1, ks] = math.sqrt(0.5)
    vecs[ks - 1, 2 * h - ks] = e * math.sqrt(0.5)
    if e > 0:
        vecs = np.concatenate((np.eye(2 * h, dtype=complex)[[0, h]], vecs))
    entries = np.empty_like(vecs)
    entries[:, _residue_order(n, l)] = vecs
    return [CoefficientVector(n, l, v) for v in entries]


def psi_constraint_solve(n: int, lam: int, l: int) -> list[CoefficientVector]:
    """The fixed_subspace_dim(M) orthonormal solutions of the quarter-turn relations
    c = Mc; a singular value in the rank rule's band raises IllConditionedError."""
    return _nullspace_basis(psi_pullback_matrix(n, lam, l))


def eigenfunction_combination(coef: CoefficientVector, lam: int, lattice: LatticeSpec,
                              pt, tol: float = 1e-12) -> complex:
    """Evaluate sum_{a,b} c^{a,b} f^{a,b} at pt on the given quotient, as one series
    over (1/N)Z with c^{a,b} at residue k (`_residue_series`); a point whose p on the
    cover is not below 2^52 in magnitude, or a value that is not finite, raises
    ValueError."""
    lam, cover, scale = _hermite_seed(coef.n, 2 * coef.l, lam, lattice, tol)
    p, q, s = pt.p, pt.q, pt.s
    if cover is not None:
        p, q, s = symplectic_coords(cover, p, q, s)
    weights = coef.entries[_residue_order(coef.n, coef.l)]  # c at residue k
    return _residue_series(lam, scale, coef.n, weights, p, q, s, tol)

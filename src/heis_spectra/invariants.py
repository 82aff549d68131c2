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
~tol sup|psi_lam| sum |c|.  Both invariant bases are reversal orbit vectors
(`_orbit_basis`): the half-turn's even (e = 1) or odd (e = -1) ones in closed
form, the quarter-turn's from the kernels of its two real orbit blocks (below).
Fixed-subspace dimensions follow from closed forms, from characters and Gauss
sums, or from a nullity oracle, kept separate so they can be compared.  The
characters and the oracles are columns over rows (n, lam): one (rows x 4)
character array and one product with the powers of i (`character_values`,
`sector_multiplicities`), and one int64 oracle column per generator
(`phi_fixed_subspace_dims`, `psi_fixed_subspace_dims`); the one-row calls
`phi_fixed_subspace_dim` and `psi_fixed_subspace_dim` are their columns of one
row.  A row's phase reads
lam only mod 4, taken in Python ints, so a level of any size is exact.  One rank
rule on I - M (`_nullity`, over a stack of rows, optionally as runs of equal
values) serves the oracles, the dense reference and the quarter-turn's invariant
basis: singular values below tol are kernel, one inside [tol/10, 10 tol] raises
IllConditionedError, and a tol below the floor sigma_max N eps raises ValueError;
a column raises the error of its first refusing row, with the row's index as
`.row`.  `fixed_subspace_dim` takes one dense SVD, batched over a stack of
matrices of one size, and is the reference; the oracles and bases never build
the matrix.  Both generators act on the orbits of
the reversal k -> -k: the half-turn is the reversal itself, 1x1 blocks on its fixed
points and 2x2 blocks on its pairs (`phi_fixed_subspace_dims`), and the
quarter-turn commutes with its square, the reversal, so on the reversal's even
and odd orbit vectors (e_k +- e_{-k})/sqrt 2 it is two real blocks times a
phase, of sizes N/2 + 1 and N/2 - 1 (the even/odd split of the DFT, McClellan
and Parks, IEEE Trans. Audio Electroacoust. 20, 1972; `psi_fixed_subspace_dims`).
The blocks together have the dense matrix's singular values, so the rank rule is
the same; as the blocks are real and symmetric, those are read off their
eigenvalues at each row's phase, one eigendecomposition per distinct N.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .group import LatticeSpec, symplectic_coords
from .weil_brezin import _hermite_seed, _residue_series


_EPS = sys.float_info.epsilon


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


def _refusal(exc: Exception, row: int) -> Exception:
    exc.row = row  # the index of the refusing row in its column
    return exc


def _rank_rule(svals: np.ndarray, tol: float, counts: np.ndarray | None = None):
    """The rank rule along the last axis of a stack of rows, each row the singular
    values of one N x N matrix, or with `counts` their runs (value j repeated
    counts[..., j] times, N the sum): per row the nullity (the count below tol),
    the floor sigma_max N eps, and whether the row is refused (a value inside
    [tol/10, 10 tol], a tol below the floor, or a tol that is not positive and
    finite).  A run of none holds no value."""
    if counts is None:
        size, present = svals.shape[-1], {}
    else:
        size, present = np.add.reduce(counts, -1), {"where": counts > 0}
    floor = np.maximum.reduce(svals, -1, initial=0.0, **present) * size * _EPS
    band = (svals >= tol / 10) & (svals <= tol * 10)
    refused = (floor > tol) | np.logical_or.reduce(band, -1, **present)
    if not 0 < tol < math.inf:
        refused[...] = True
    kernel = svals < tol
    if counts is None:
        return np.add.reduce(kernel, -1, dtype=np.int64), floor, refused
    return np.add.reduce(counts, -1, where=kernel), floor, refused


def _rank_refusal(floor: float, tol: float, row: int) -> Exception:
    """The error of a row the rank rule refuses, its index as `.row`."""
    if not 0 < tol < math.inf:
        return _refusal(ValueError(f"tol must be positive and finite, got {tol!r}"), row)
    if floor > tol:  # numpy's matrix_rank default: below it a kernel value may be noise
        return _refusal(ValueError(f"tol = {tol!r} is below the rank rule's floor "
                                   f"sigma_max N eps = {floor:.3g}"), row)
    return _refusal(IllConditionedError(
        f"singular value inside the band [tol/10, 10 tol], tol = {tol!r}"), row)


def _nullity(svals: np.ndarray, tol: float, counts: np.ndarray | None = None):
    """The rank rule (`_rank_rule`) on the singular values of N x N matrices: the
    nullity of each row of a stack as an int64 column, or of one row as an int.  The
    first refused row raises IllConditionedError for a value inside [tol/10, 10 tol]
    and ValueError for a tol below sigma_max N eps, its index as `.row`."""
    if np.ndim(svals) == 1:
        return int(_nullity(svals[None], tol, None if counts is None else counts[None])[0])
    nullity, floor, refused = _rank_rule(svals, tol, counts)
    if np.count_nonzero(refused):
        row = int(refused.argmax())
        raise _rank_refusal(float(floor[row]), tol, row)
    return nullity


def fixed_subspace_dim(M, tol: float = 1e-8):
    """Dimension of the +1 eigenspace as the SVD nullity of (M - I), by the rank rule:
    one dense SVD, the reference for the structured oracles.  M of shape (N, N) gives
    an int; a stack of shape (..., N, N) gives an int64 array of shape (...), from
    one batched SVD, and its first refusing matrix (in row-major order) raises its
    error, that index as `.row`."""
    A = np.array(getattr(M, "matrix", M), dtype=complex)
    size = A.shape[-1]
    A.reshape(A.shape[:-2] + (size * size,))[..., ::size + 1] -= 1  # the diagonals of the copy
    svals = np.linalg.svd(A, compute_uv=False)
    if svals.ndim == 1:
        return _nullity(svals, tol)
    return _nullity(svals.reshape(-1, size), tol).reshape(svals.shape[:-1])


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


def _phase_rows(ns, lams, l: int):
    """(sizes, keys, refusal): per row, in Python ints, the sector size N = 2l|n|
    and the phase key 2r + (n > 0) of (r, sign) = `_psi_phase(n, lam)`, which reads
    lam only mod 4, so a level of any size stays exact.  The rows stop before the
    first that `_check_nl` refuses, and its refusal, or None, comes third."""
    ns, lams = list(ns), list(lams)
    refusal = None
    if l < 1 or not all(ns) or min(lams, default=0) < 0:
        for row, (n, lam) in enumerate(zip(ns, lams)):
            try:
                _check_nl(n, lam, l)
            except ValueError as exc:
                refusal = _refusal(exc, row)
                del ns[row:], lams[row:]
                break
    sizes = [2 * l * abs(n) for n in ns]
    keys = [2 * r + (sign < 0) for r, sign in map(_psi_phase, ns, lams)]
    return sizes, keys, refusal


# the half-turn's singular values |e - 1| and |e + 1| at e = 1 and at e = -1, on its
# h + 1 even and h - 1 odd orbit vectors
_HALF_TURN = np.array([[0.0, 2.0], [2.0, 0.0]])


def phi_fixed_subspace_dims(ns, lams, l: int, tol: float = 1e-8, phases=None) -> np.ndarray:
    """fixed_subspace_dim(phi_pullback_matrix(n, lam, l), tol) of each row (n, lam),
    as one int64 column, without the dense matrices and without an SVD: O(1) a row.

    The half-turn is the reversal k -> -k with sign e = (-1)^(n+lam), so with
    h = l|n| = N/2 it is e on the reversal's h + 1 even orbit vectors (e_0, e_h and
    (e_k + e_{N-k})/sqrt 2) and -e on its h - 1 odd ones (e_k - e_{N-k})/sqrt 2.
    M - I is diagonal on them, and its singular values are |e - 1| and |e + 1|
    there, those of the dense I - M; the rank rule takes them as two runs.  The
    first refusing row raises its error, its index as `.row`.  phases, if given,
    is `_phase_rows(ns, lams, l)`, computed once for several columns.
    """
    sizes, keys, refusal = phases or _phase_rows(ns, lams, l)
    svals = _HALF_TURN.take([key >> 1 & 1 for key in keys], 0)  # r has the parity of n + lam
    runs = np.array([(size // 2 + 1, size // 2 - 1) for size in sizes], dtype=np.int64)
    nullity = _nullity(svals, tol, runs.reshape(-1, 2))
    if refusal is not None:
        raise refusal
    return nullity


def phi_fixed_subspace_dim(n: int, lam: int, l: int, tol: float = 1e-8) -> int:
    """The one-row `phi_fixed_subspace_dims`."""
    return int(phi_fixed_subspace_dims([n], [lam], l, tol)[0])


def psi_fixed_subspace_dims(ns, lams, l: int, tol: float = 1e-8, phases=None) -> np.ndarray:
    """fixed_subspace_dim(psi_pullback_matrix(n, lam, l), tol) of each row (n, lam),
    as one int64 column, without the dense matrices and without an SVD: the
    eigenvalues of two real symmetric blocks of about half the size (sizes 2 and 0
    at N = 2), taken once per distinct N and read at each phase of its rows.

    The quarter-turn i^r F (F the DFT of `_psi_phase`'s sign) commutes with the
    reversal, so on its even and odd orbit vectors it is i^r C and sign i^(r+1) S
    (`_orbit_blocks`), and no entry joins the two.  Their singular values of B - I
    (`_block_singular_values`) together are those of the dense I - M, so the rank
    rule, taken once per N on the stack of its phases, is unchanged.  A new N costs
    O(N^3), and O(N) memory is held afterwards.  The first refusing row raises its
    error, its index as `.row`.  phases is as in `phi_fixed_subspace_dims`.

    `eigvalsh` leaves the eigenvalues, all +-1, up to about N eps / 2 away from them
    (5 eps at N = 14), where the dense SVD of I - M leaves its kernel values below
    0.4 N eps.  So for a tol below about 5 N eps, just above the floor, a kernel
    value of either route may reach the band's edge tol/10, and one route may
    refuse a row the other counts; they never count it differently, as the noise
    stays below the floor and so below tol.
    """
    sizes, keys, refusal = phases or _phase_rows(ns, lams, l)
    codes = [8 * size + key for size, key in zip(sizes, keys)]
    nullity_of, refused = {}, {}  # by code: the phase pair's nullity, or its floor if refused
    # each (N, phase) once, by N, so one eigvalsh pair per N
    for size, group in itertools.groupby(sorted(set(codes)), lambda code: code >> 3):
        group = list(group)
        even, odd = _orbit_eigenvalues(size)
        stack = np.empty((len(group), size))  # a row per phase: the even block's, the odd's
        for row, code in zip(stack, group):
            r, positive = divmod(code & 7, 2)
            row[:even.size] = _block_singular_values(even, r)
            row[even.size:] = _block_singular_values(odd, r + (3 if positive else 1))
        nullity, floor, bad = _rank_rule(stack, tol)
        nullity_of.update(zip(group, nullity.tolist()))
        if np.count_nonzero(bad):
            refused.update((code, fl) for code, fl, b in zip(group, floor.tolist(), bad) if b)
    if refused:
        row = next(row for row, code in enumerate(codes) if code in refused)
        raise _rank_refusal(refused[codes[row]], tol, row)
    if refusal is not None:
        raise refusal
    return np.array([nullity_of[code] for code in codes], dtype=np.int64)


def psi_fixed_subspace_dim(n: int, lam: int, l: int, tol: float = 1e-8) -> int:
    """The one-row `psi_fixed_subspace_dims`."""
    return int(psi_fixed_subspace_dims([n], [lam], l, tol)[0])


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


def _characters(size: int, r: int, positive: bool) -> tuple[complex, ...]:
    """chi(g^m), m = 0..3, on a sector of the given size and phase (r, n > 0), for
    the table below: chi(g) = i^r G(N)/sqrt N with G the Gauss sum, conjugated for
    n > 0, and chi(g^2) = 2 (-1)^r, the trace of the half-turn of sign
    (-1)^(n+lam) = (-1)^r."""
    gauss = gauss_sum(size)
    chi1 = 1j**r * (gauss.conjugate() if positive else gauss) / math.sqrt(size)
    return complex(size), chi1, complex(2.0 * (-1) ** r), chi1.conjugate()


# the characters at row 2 key + N/2 mod 2, key = 2r + (n > 0) (`_phase_rows`): G(N)/sqrt N
# and so chi(g) take one value at every even N = 0 mod 4 and one at every N = 2 mod 4
_CHARACTERS = np.array([_characters(size, r, positive)
                        for r in range(4) for positive in (False, True) for size in (4, 2)])


def character_values(ns, lams, l: int, phases=None) -> np.ndarray:
    """The character table chi(g^m), m = 0..3, of the quarter-turn on the sector of
    each row (n, lam): one (rows x 4) complex array.  chi(1) is the size N = 2l|n|,
    chi(g) = i^r G(N)/sqrt N with G the Gauss sum (`gauss_sum`), conjugated for
    n > 0, and chi(g^3) its conjugate.  The first row that `_check_nl` refuses
    raises its error, its index as `.row`.  phases is as in
    `phi_fixed_subspace_dims`."""
    sizes, keys, refusal = phases or _phase_rows(ns, lams, l)
    if refusal is not None:
        raise refusal
    values = _CHARACTERS.take([2 * key + (size >> 1 & 1) for size, key in zip(sizes, keys)], 0)
    values[:, 0] = sizes
    return values


# _UNITS[j][m] = i^(-j m): the weight of chi(g^m) in the multiplicity of the eigenvalue i^j
_UNITS = tuple(tuple(1j ** (-j * m) for m in range(4)) for j in range(4))
_QUARTER_UNITS = np.array(_UNITS).T / 4.0


def sector_multiplicities(values: np.ndarray) -> np.ndarray:
    """The multiplicities of the four eigenvalues i^j of the cyclic action, from each
    row of a (rows x 4) character array by one product: a (rows x 4) int64 array.
    The first row with a multiplicity off an integer by more than 1e-9 raises
    ValueError, its index as `.row`."""
    mult = values @ _QUARTER_UNITS  # /4 by a power of two, exact in the product
    whole = np.rint(mult.real)
    # the real parts' distances to the integers and the imaginary parts, side by side
    off = np.logical_or.reduce(np.abs((mult - whole).view(float)) > 1e-9, -1)
    if np.count_nonzero(off):
        raise _refusal(ValueError("character table produced a non-integer multiplicity"),
                       int(off.argmax()))
    return whole.astype(np.int64)


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


def _orbit_basis(n: int, l: int, even: np.ndarray, odd: np.ndarray) -> list[CoefficientVector]:
    """The columns of even, on the reversal's even orbit vectors e_0, (e_j + e_{N-j})/sqrt 2,
    e_h, then of odd, on its odd ones (e_j - e_{N-j})/sqrt 2 (0 < j < h = l|n|), set on
    the index k and carried to the basis positions by `_residue_order`."""
    h, split, half = l * abs(n), even.shape[1], math.sqrt(0.5)
    vecs = np.zeros((split + odd.shape[1], 2 * h), dtype=complex)
    vecs[:split, 0], vecs[:split, h] = even[0], even[h]
    vecs[:split, 1:h] = vecs[:split, :h:-1] = even[1:h].T * half  # k = j and N - j
    vecs[split:, 1:h] = odd.T * half
    vecs[split:, :h:-1] -= odd.T * half  # 0 - 0 is +0, as an assigned zero
    entries = np.empty_like(vecs)
    entries[:, _residue_order(n, l)] = vecs
    return [CoefficientVector(n, l, v) for v in entries]


def phi_constraint_solve(n: int, lam: int, l: int) -> list[CoefficientVector]:
    """The fixed_subspace_dim(M) orthonormal solutions of the half-turn relations, in
    closed form.

    The relations pair (a, b) with its pullback target: e c^{a,b} = c^{a',b'}
    with e = (-1)^(n+lam).  On the index k (`_sector_index`) the pullback is the
    reversal k -> -k mod N with sign e, so with h = l|n| = N/2 the solutions are
    its orbit vectors of sign e (`_orbit_basis`): for e = 1 the even ones, e_0, e_h
    and then (e_k + e_{N-k})/sqrt 2 for 0 < k < h, and for e = -1 the odd ones.
    """
    _check_nl(n, lam, l)
    h = l * abs(n)
    if (n + lam) % 2:
        return _orbit_basis(n, l, np.empty((h + 1, 0)), np.eye(h - 1))
    return _orbit_basis(n, l, np.eye(h + 1)[:, [0, h, *range(1, h)]], np.empty((h - 1, 0)))


def psi_constraint_solve(n: int, lam: int, l: int) -> list[CoefficientVector]:
    """The fixed_subspace_dim(M) orthonormal solutions of the quarter-turn relations
    c = Mc: the eigenvectors of the orbit blocks C and S (`_orbit_blocks`) whose
    singular values of B - I, at the phases of `psi_fixed_subspace_dims`, are below
    tol = 1e-8, counted by the same rank rule: one in its band raises IllConditionedError."""
    _check_nl(n, lam, l)
    r, sign = _psi_phase(n, lam)
    svals, kernels = [], []
    for block, phase in zip(_orbit_blocks(2 * l * abs(n)), (r, r + (3 if sign < 0 else 1))):
        eigs, vecs = np.linalg.eigh(block)
        svals.append(_block_singular_values(eigs, phase))
        kernels.append(vecs[:, svals[-1] < 1e-8])
    _nullity(np.concatenate(svals), 1e-8)
    return _orbit_basis(n, l, *kernels)


def eigenfunction_combination(coef: CoefficientVector, lam: int, lattice: LatticeSpec,
                              pt, tol: float = 1e-12) -> complex:
    """Evaluate sum_{a,b} c^{a,b} f^{a,b} at pt on the given quotient, as one series
    over (1/N)Z with c^{a,b} at residue k (`_residue_series`); a point whose p on the
    cover is not below 2^52 in magnitude, whose phases may round past tol
    (`weil_brezin._point_phase_error`), or whose value is not finite, raises
    ValueError."""
    lam, cover, scale = _hermite_seed(coef.n, 2 * coef.l, lam, lattice, tol)
    p, q, s = pt.p, pt.q, pt.s
    if cover is not None:
        p, q, s = symplectic_coords(cover, p, q, s)
    weights = coef.entries[_residue_order(coef.n, coef.l)]  # c at residue k
    return _residue_series(lam, scale, coef.n, weights, p, q, s, tol)

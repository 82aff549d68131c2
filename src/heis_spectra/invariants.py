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
~tol sup|psi_lam| sum |c|.  With the N unit vectors as its columns of weights the
same series gives the whole basis f^{a,b} at a point from one Hermite call
(`sector_basis_values`).  The dense pullbacks are built as stacks of rows of one
size (`pullback_matrices`), one table per sign of n; the one-row builders are its
one-row case.  Both invariant bases are reversal orbit vectors
(`_orbit_basis`): the half-turn's even (e = 1) or odd (e = -1) ones in closed
form, the quarter-turn's from the kernels of its two real orbit blocks (below).
Fixed-subspace dimensions follow from closed forms, from characters and Gauss
sums, or from a nullity oracle, kept separate so they can be compared.  The
characters and the oracles are columns over rows (n, lam): one (rows x 4)
character array and one product with the powers of i (`character_values`,
`sector_multiplicities`), and one int64 oracle column of psi^power, power 1 for
the quarter-turn and 2 for the half-turn phi = psi^2 (`fixed_subspace_dims`);
`dims_columns` takes the closed forms, the oracle and the characters of a block
of rows from one phase per row.  A row's phase reads lam only mod 4, taken in
Python ints, so a level of any size is exact.  One rank rule on I - M
(`_nullity`, over a stack of rows, optionally as runs of equal values) serves
the oracles, the dense reference and the quarter-turn's invariant basis:
singular values below tol are kernel, one inside [tol/10, 10 tol] raises
IllConditionedError, and a tol below the floor sigma_max N eps raises ValueError;
a column raises the error of its first refusing row, with the row's index as
`.row`.  `fixed_subspace_dim` takes one dense SVD, batched over a stack of
matrices of one size, and is the reference; the oracles and bases never build
the matrix.  The quarter-turn commutes with its square, the reversal k -> -k, so
on the reversal's even and odd orbit vectors (e_k +- e_{-k})/sqrt 2 it is two
real blocks times a phase, of sizes N/2 + 1 and N/2 - 1 (the even/odd split of
the DFT, McClellan and Parks, IEEE Trans. Audio Electroacoust. 20, 1972).  The
blocks are real, symmetric and unitary, so their eigenvalues are +-1, with
McClellan and Parks' multiplicities: four runs, on which one table of the
blocks' phases (`_PHASES`) gives the quarter-turn's eigenvalues.  Squared, they
are the half-turn's, e = (-1)^(n+lam) on the even orbit vectors and -e on the odd
ones.  So the oracle reads each row's singular values, |eigenvalue^power - 1|,
those of the dense matrix, as four runs at its phase, O(1) a row, and only the
quarter-turn's basis takes the blocks' eigenvectors.
"""

from __future__ import annotations

import functools
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


def _psi_phase(n: int, lam: int) -> tuple[int, float]:
    """(r, sign): the quarter-turn pullback is i^r exp(sign 2 pi i k k'/N)/sqrt N."""
    if n > 0:
        return (n + lam) % 4, -1.0
    return (n + 3 * lam) % 4, 1.0


def pullback_matrices(power: int, ns, lams, l: int) -> np.ndarray:
    """The dense pullbacks psi^power on the (a, b) basis of each row (n, lam), as one
    (rows, N, N) complex stack; every row must have the same size N = 2l|n|.

    Power 1 is the quarter-turn, i^r exp(sign 2 pi i k k'/N)/sqrt N on the index k
    (`_sector_index`, `_psi_phase`), with the DFT exponent k k' reduced mod N in
    integers so the phase argument stays below 2 pi whatever the size.  Power 2 is
    the half-turn phi = psi^2, the signed permutation k -> -k mod N with the single
    entry (-1)^(n+lam) = (-1)^r per column.  Both depend on n only through its sign
    and on lam only through r, so each sign of n takes one table and its rows one
    product.  Rows of more than one size raise ValueError, and the first row that
    `_check_nl` refuses raises its error, its index as `.row`."""
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power!r}")
    sizes, keys, refusal = _phase_rows(ns, lams, l)
    if refusal is not None:
        raise refusal
    if len(set(sizes)) > 1:
        raise ValueError(f"a stack holds one sector size N = 2l|n|, got {sorted(set(sizes))}")
    dim = sizes[0] if sizes else 0
    keys = np.array(keys, dtype=np.int64)
    out = np.zeros((keys.size, dim, dim), dtype=complex)
    for positive in (False, True):
        rows = np.flatnonzero(keys & 1 == positive)
        if not rows.size:
            continue
        n = dim // (2 * l) if positive else -(dim // (2 * l))
        k = _sector_index(n, l)
        r = keys[rows] >> 1
        if power == 1:
            sign = -1.0 if positive else 1.0
            table = np.exp((sign * 2j * math.pi / dim) * (np.outer(k, k) % dim))
            units = np.array([1j**j / math.sqrt(dim) for j in range(4)])
            out[rows] = units[r, None, None] * table
        else:
            out[rows[:, None], _residue_order(n, l)[-k % dim], np.arange(dim)] = \
                np.where(r % 2, -1.0, 1.0)[:, None]
    return out


def _refusal(exc: Exception, row: int) -> Exception:
    exc.row = row  # the index of the refusing row in its column
    return exc


def _nullity(svals: np.ndarray, tol: float, counts: np.ndarray | None = None):
    """The rank rule along the last axis of a stack of rows, each row the singular
    values of one N x N matrix, or with `counts` their runs (value j repeated
    counts[..., j] times, N the sum; a run of none holds no value): the nullity, the
    count below tol, of each row as an int64 column, or of one row as an int.  The
    first refused row raises, its index as `.row`: IllConditionedError for a value
    inside [tol/10, 10 tol], and ValueError for a tol below the floor sigma_max N eps
    or a tol that is not positive and finite."""
    if np.ndim(svals) == 1:
        return int(_nullity(svals[None], tol, None if counts is None else counts[None])[0])
    if counts is None:
        size, present = svals.shape[-1], {}
    else:
        size, present = np.add.reduce(counts, -1), {"where": counts > 0}
    floor = np.maximum.reduce(svals, -1, initial=0.0, **present) * size * _EPS
    band = (svals >= tol / 10) & (svals <= tol * 10)
    refused = (floor > tol) | np.logical_or.reduce(band, -1, **present)
    if not 0 < tol < math.inf:
        refused[...] = True
    if np.count_nonzero(refused):
        row = int(refused.argmax())
        if not 0 < tol < math.inf:
            raise _refusal(ValueError(f"tol must be positive and finite, got {tol!r}"), row)
        if floor[row] > tol:  # numpy's matrix_rank default: below it a kernel value may be noise
            raise _refusal(ValueError(f"tol = {tol!r} is below the rank rule's floor "
                                      f"sigma_max N eps = {float(floor[row]):.3g}"), row)
        raise _refusal(IllConditionedError(
            f"singular value inside the band [tol/10, 10 tol], tol = {tol!r}"), row)
    kernel = svals < tol
    if counts is None:
        return np.add.reduce(kernel, -1, dtype=np.int64)
    return np.add.reduce(counts, -1, where=kernel)


def fixed_subspace_dim(M, tol: float = 1e-8):
    """Dimension of the +1 eigenspace as the SVD nullity of (M - I), by the rank rule:
    one dense SVD, the reference for the structured oracles.  M of shape (N, N) gives
    an int; a stack of shape (..., N, N) gives an int64 array of shape (...), from
    one batched SVD, and its first refusing matrix (in row-major order) raises its
    error, that index as `.row`."""
    A = np.array(M, dtype=complex)
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


# the phases of the quarter-turn's two orbit blocks at each phase key 2r + (n > 0)
# (`_phase_rows`): i^r on C and sign i^(r+1) on S
_PHASES = np.array([(1j**r, sign * 1j**(r + 1)) for r in range(4) for sign in (1.0, -1.0)])
# the quarter-turn's eigenvalues on its four runs (`_quarter_turn_runs`), C's +1 and -1
# and S's at their phases, and from them the singular values |eigenvalue^power - 1| of
# psi^power - I, power 1 for the quarter-turn and 2 for the half-turn phi = psi^2
_EIGENVALUES = _PHASES.repeat(2, 1) * [1.0, -1.0, 1.0, -1.0]
_SINGULAR_VALUES = {power: np.abs(_EIGENVALUES**power - 1.0) for power in (1, 2)}


def _quarter_turn_runs(sizes) -> np.ndarray:
    """The lengths of the runs of `_EIGENVALUES` on sectors of the given sizes N, as
    a (rows x 4) int64 array: the multiplicities of C's eigenvalues +1 and -1,
    N//4 + 1 and N/2 - N//4, then of S's, N//4 and N/2 - 1 - N//4."""
    sizes = np.array(sizes, dtype=np.int64)
    half, quarter = sizes // 2, sizes // 4
    return np.stack((quarter + 1, half - quarter, quarter, half - 1 - quarter), axis=-1)


def _oracle_column(power: int, phases, tol: float) -> np.ndarray:
    """`fixed_subspace_dims` of the rows of phases = `_phase_rows(ns, lams, l)`."""
    sizes, keys, refusal = phases
    nullity = _nullity(_SINGULAR_VALUES[power].take(keys, 0), tol, _quarter_turn_runs(sizes))
    if refusal is not None:
        raise refusal
    return nullity


def fixed_subspace_dims(power: int, ns, lams, l: int, tol: float = 1e-8) -> np.ndarray:
    """fixed_subspace_dim of the quarter-turn pullback M = pullback_matrices(1, [n], [lam],
    l)[0] to the given power, M at power 1 and the half-turn M^2 at power 2, of each
    row (n, lam), as one int64 column, without the dense matrices and without an SVD
    or an eigendecomposition: O(1) a row.

    The quarter-turn i^r F (F the DFT of `_psi_phase`'s sign) commutes with the
    reversal, so on its even and odd orbit vectors it is i^r C and sign i^(r+1) S
    (`_orbit_blocks`, `_PHASES`), and no entry joins the two.  C and S are real,
    symmetric and unitary, so their eigenvalues are +-1, with the multiplicities of
    the DFT's eigenvalues (McClellan and Parks 1972; `_quarter_turn_runs`).  So M is
    normal, with four runs of eigenvalues, and the singular values of M^power - I are
    |eigenvalue^power - 1| on them, those of the dense I - M^power: at power 2, |e - 1|
    on the h + 1 even orbit vectors and |e + 1| on the h - 1 odd ones, e = (-1)^(n+lam)
    and h = N/2.  The rank rule takes the four runs of each row; the first refusing
    row raises its error, its index as `.row`.
    """
    return _oracle_column(power, _phase_rows(ns, lams, l), tol)


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


def gauss_sum_direct(m):
    """Defining sum, reduced mod m so the phase argument stays small: a complex for
    an int m, and for a 1-D sequence of m the column of their sums, from one exp
    over the ragged k < m of every row and one segmented sum."""
    ms = np.array(m, dtype=np.int64)
    if ms.ndim > 1:
        raise ValueError("m must be an integer or a 1-D sequence of integers")
    if np.any(ms < 1):
        raise ValueError("m must be a positive integer")
    rows = ms.reshape(-1)
    starts = np.cumsum(rows) - rows
    mods = np.repeat(rows, rows)
    ks = np.arange(mods.size) - np.repeat(starts, rows)
    sums = np.add.reduceat(np.exp(2j * math.pi * ((ks * ks) % mods) / mods), starts)
    return complex(sums[0]) if ms.ndim == 0 else sums


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


def _character_column(phases) -> np.ndarray:
    """`character_values` of the rows of phases = `_phase_rows(ns, lams, l)`."""
    sizes, keys, refusal = phases
    if refusal is not None:
        raise refusal
    values = _CHARACTERS.take([2 * key + (size >> 1 & 1) for size, key in zip(sizes, keys)], 0)
    values[:, 0] = sizes
    return values


def character_values(ns, lams, l: int) -> np.ndarray:
    """The character table chi(g^m), m = 0..3, of the quarter-turn on the sector of
    each row (n, lam): one (rows x 4) complex array.  chi(1) is the size N = 2l|n|,
    chi(g) = i^r G(N)/sqrt N with G the Gauss sum (`gauss_sum`), conjugated for
    n > 0, and chi(g^3) its conjugate.  The first row that `_check_nl` refuses
    raises its error, its index as `.row`."""
    return _character_column(_phase_rows(ns, lams, l))


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


def dims_columns(power: int, ns, lams, l: int, tol: float = 1e-8) -> tuple[list, list, list]:
    """(closed, oracle, characters): the three routes to the fixed-subspace dimension
    of psi^power, power 1 for the quarter-turn and 2 for the half-turn phi = psi^2, as
    lists over the rows (ns, lams), from one phase per row (`_phase_rows`).  closed is
    `dim_psi_invariant` or `dim_phi_invariant`, oracle is `fixed_subspace_dims`, and
    characters sums the multiplicities of the quarter-turn's eigenvalues i^j with
    i^(j power) = 1 (`sector_multiplicities`): psi^2 fixes psi's eigenvectors for +1
    and -1.  A refusal raises ValueError for the first refusing row in row order, and
    the characters' on a tie, as when each row took its characters before its
    oracle; its message ends "(row n = ..., lambda = ...)", its index is `.row`, and
    the column's error is its cause."""
    phases = _phase_rows(ns, lams, l)
    columns, refusals = [], []
    for column in (lambda: sector_multiplicities(_character_column(phases))[:, ::4 // power].sum(1),
                   lambda: _oracle_column(power, phases, tol)):
        try:
            columns.append(column().tolist())
        except (ValueError, IllConditionedError) as exc:
            refusals.append(exc)
    if refusals:
        exc = min(refusals, key=lambda exc: exc.row)
        raise _refusal(ValueError(f"{exc} (row n = {ns[exc.row]}, lambda = {lams[exc.row]})"),
                       exc.row) from exc
    characters, oracle = columns
    closed_form = dim_psi_invariant if power == 1 else dim_phi_invariant
    return list(map(closed_form, ns, lams, [l] * len(ns))), oracle, characters


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
    singular values of B - I, |phase eig - 1| at the blocks' `_PHASES`, are below
    tol = 1e-8, counted by the same rank rule: one in its band raises IllConditionedError."""
    _check_nl(n, lam, l)
    r, sign = _psi_phase(n, lam)
    svals, kernels = [], []
    for block, phase in zip(_orbit_blocks(2 * l * abs(n)), _PHASES[2 * r + (sign < 0)]):
        eigs, vecs = np.linalg.eigh(block)
        svals.append(np.abs(phase * eigs - 1))
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


def sector_basis_values(n: int, lam: int, lattice: LatticeSpec, pt,
                        tol: float = 1e-12) -> np.ndarray:
    """The N = 2l|n| values f^{a,b}(pt) of the sector's basis, a-major, on a quotient's
    base lattice of covering width 2l, as one complex array: the series of
    `eigenfunction_combination` with the unit vectors of the basis as its N columns of
    weights, so one Hermite call, one exp and one product give them all.  It refuses
    what `eigenfunction_combination` refuses, with ValueError."""
    l, odd = divmod(lattice.covering_width, 2)
    if odd:
        raise ValueError(f"{lattice} has odd covering width; a sector's basis is indexed "
                         f"on a quotient's base lattice, of width 2l")
    if n == 0:
        raise ValueError("n must be nonzero")
    lam, cover, scale = _hermite_seed(n, 2 * l, lam, lattice, tol)
    p, q, s = pt.p, pt.q, pt.s
    if cover is not None:
        p, q, s = symplectic_coords(cover, p, q, s)
    weights = np.eye(2 * l * abs(n))[_residue_order(n, l)]  # f^{a,b} at residue k
    return _residue_series(lam, scale, n, weights, p, q, s, tol)

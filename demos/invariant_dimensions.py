"""
Three routes to the invariant dimensions
========================================

The multiplicity of an oscillator eigenvalue on a crystallographic quotient is
the dimension of the fixed subspace of a pullback matrix.  Compute it three
ways: closed form, SVD rank deficiency, and character averaging.
"""

import numpy as np

from heis_spectra import (
    character_values,
    dim_phi_invariant,
    dim_psi_invariant,
    fixed_subspace_dim,
    phi_pullback_matrix,
    psi_pullback_matrix,
    sector_multiplicities,
)

L = 1
ROWS = [(n, lam) for n in range(1, 5) for lam in range(0, 4)]
# chi(g^m), m = 0..3, and the multiplicities of the eigenvalues i^j of each row's
# quarter-turn, as (rows x 4) columns
CHARS = character_values(*zip(*ROWS), L)
MULTS = sector_multiplicities(CHARS)

print(f"half-turn quotient, l={L}: dim = l|n| +/- 1 by the parity of |n|+lam")
print(" n lam | closed  svd  chars")
for (n, lam), mult in zip(ROWS, MULTS.tolist()):
    closed = dim_phi_invariant(n, lam, L)
    svd = fixed_subspace_dim(phi_pullback_matrix(n, lam, L))
    # the half-turn is the square of the quarter-turn: its fixed vectors are the
    # quarter-turn's eigenvectors for +1 and -1
    print(f"{n:2d} {lam:3d} | {closed:6d} {svd:4d} {mult[0] + mult[2]:6d}")

print(f"\nquarter-turn quotient, l={L}: the residue of |n|+lam mod 4 decides")
print(" n lam | closed  svd  chars   chi(psi)")
for (n, lam), chars, chi in zip(ROWS, MULTS[:, 0].tolist(), CHARS[:, 1].tolist()):
    closed = dim_psi_invariant(n, lam, L)
    svd = fixed_subspace_dim(psi_pullback_matrix(n, lam, L))
    print(f"{n:2d} {lam:3d} | {closed:6d} {svd:4d} {chars:6d}   {chi.real:+.3f}{chi.imag:+.3f}i")

# the quarter-turn matrices are unitary fourth roots of the identity
M = psi_pullback_matrix(3, 1, L).matrix
print("\n||M^4 - I|| =", np.linalg.norm(np.linalg.matrix_power(M, 4) - np.eye(M.shape[0])))

import functools
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from heis_spectra import invariants, verify
from heis_spectra.group import (
    PolarizedPoint,
    motion_apply,
    phi_generator,
    psi_generator,
    scaled_square,
    standard_rect,
)
from heis_spectra.invariants import (
    CoefficientVector,
    IllConditionedError,
    _UNITS,
    _EIGENVALUES,
    _PHASES,
    _characters,
    _nullity,
    _orbit_blocks,
    _psi_phase,
    _quarter_turn_runs,
    _residue_order,
    _sector_index,
    character_values,
    dim_phi_invariant,
    dim_psi_invariant,
    dims_columns,
    eigenfunction_combination,
    fixed_subspace_dim,
    fixed_subspace_dims,
    gauss_sum,
    gauss_sum_direct,
    phi_constraint_solve,
    psi_constraint_solve,
    pullback_matrices,
    sector_multiplicities,
)

SWEEP = [(n, lam, l) for n in (-3, -2, -1, 1, 2, 3) for lam in range(4) for l in (1, 2)]

# N = 2l|n| = 34, 64, 160 and 256
LARGER_SECTORS = [(n, lam, l) for m, l in ((17, 1), (16, 2), (20, 4), (32, 4))
                   for n in (m, -m) for lam in range(4)]

# l <= 5, 1 <= |n| <= 12: the sectors on which the structured matrices are
# compared against the paper's entry formulas
SECTORS = [(n, l) for l in range(1, 6) for m in range(1, 13) for n in (m, -m)]


def _one_row(power):
    """The oracle column of psi^power as a call on one row (n, lam, l, tol): an int, or
    the row's refusal raised."""
    return lambda n, lam, l, tol=1e-8: int(fixed_subspace_dims(power, [n], [lam], l, tol)[0])


phi_one_row, psi_one_row = _one_row(2), _one_row(1)


# ---------------------------------------------------------------------------
# the paper's formulas, entry by entry, as oracles for the structured pullback


def _psi_prefactor(n, lam, l):
    if n > 0:
        return np.exp(0.5j * math.pi * (n + lam)) / math.sqrt(2 * l * n)
    return np.exp(0.5j * math.pi * (n + 3 * lam)) / math.sqrt(2 * l * abs(n))


def _psi_kernel_loop(n, l):
    """exp(-4 pi i l n x' x) with x = j/|n| + u/(2l n), the quarter-turn entry without its prefactor."""
    m = abs(n)
    two_l = 2 * l
    dim = m * two_l
    mat = np.empty((dim, dim), dtype=complex)
    for jp in range(m):
        for up in range(two_l):
            xp = jp / m + up / (two_l * n)
            for j in range(m):
                for u in range(two_l):
                    x = j / m + u / (two_l * n)
                    mat[jp * two_l + up, j * two_l + u] = np.exp(-4j * l * n * math.pi * xp * x)
    return mat


def _phi_target(a, b, n, two_l):
    """Index map of the half-turn pullback: (a,b) -> (a',b')."""
    m = abs(n)
    if b == 0:
        return (-a) % m, 0
    if n > 0:
        return (-a - 1) % m, (two_l - b) % two_l
    return (-a + 1) % m, (two_l - b) % two_l


def _phi_loop(n, lam, l):
    m, two_l = abs(n), 2 * l
    mat = np.zeros((m * two_l, m * two_l), dtype=complex)
    for a in range(m):
        for b in range(two_l):
            a2, b2 = _phi_target(a, b, n, two_l)
            mat[a2 * two_l + b2, a * two_l + b] = -1.0 if (n + lam) % 2 else 1.0
    return mat


def _phi_relation_rows(n, lam, l):
    """The displayed relations e c^{a,b} = c^{a',b'}, e = (-1)^(n+lam), one row per pair."""
    m, two_l = abs(n), 2 * l
    dim = m * two_l
    e = -1.0 if (n + lam) % 2 else 1.0
    rows = np.zeros((dim, dim), dtype=complex)
    for a in range(m):
        for b in range(two_l):
            a2, b2 = _phi_target(a, b, n, two_l)
            rows[a * two_l + b, a * two_l + b] += e
            rows[a * two_l + b, a2 * two_l + b2] -= 1.0
    return rows


def test_structured_pullbacks_equal_the_entry_formulas():
    for n, l in SECTORS:
        kernel = _psi_kernel_loop(n, l)
        for lam in range(8):
            assert np.array_equal(pullback_matrices(2, [n], [lam], l)[0], _phi_loop(n, lam, l))
            want = _psi_prefactor(n, lam, l) * kernel
            assert np.max(np.abs(pullback_matrices(1, [n], [lam], l)[0] - want)) < 1e-12


def _dense_phi(n, lam, l):
    """The half-turn as its builder made it one row at a time, before the stacks."""
    k = _sector_index(n, l)
    dim = k.size
    mat = np.zeros((dim, dim), dtype=complex)
    mat[_residue_order(n, l)[-k % dim], np.arange(dim)] = -1.0 if (n + lam) % 2 else 1.0
    return mat


def _dense_psi(n, lam, l):
    """The quarter-turn as its builder made it one row at a time, before the stacks."""
    k = _sector_index(n, l)
    dim = k.size
    r, sign = _psi_phase(n, lam)
    return (1j**r / math.sqrt(dim)) * np.exp((sign * 2j * math.pi / dim) * (np.outer(k, k) % dim))


def test_pullback_stacks_equal_the_one_row_builders_bit_for_bit():
    # every N <= 32, both signs of n and both powers: each row of a stack of all the
    # rows of one size and l (levels 0..5, so lam mod 4 repeats) is the one-row
    # builder's matrix and the one-row formula's, bit for bit
    for l in range(1, 5):
        for m in range(1, 32 // (2 * l) + 1):
            ns, lams = zip(*[(n, lam) for n in (m, -m) for lam in range(6)])
            for power, formula in ((1, _dense_psi), (2, _dense_phi)):
                stack = pullback_matrices(power, ns, lams, l)
                assert stack.shape == (len(ns), 2 * l * m, 2 * l * m)
                for row, n, lam in zip(stack, ns, lams):
                    one_row = pullback_matrices(power, [n], [lam], l)[0].tobytes()
                    assert row.tobytes() == one_row == formula(n, lam, l).tobytes()


def test_one_row_builders_keep_their_bits():
    # n in +-1..9, lam 0..3, l 1..3
    for n, lam, l in itertools.product([*range(-9, 0), *range(1, 10)], range(4), range(1, 4)):
        assert pullback_matrices(2, [n], [lam], l)[0].tobytes() == _dense_phi(n, lam, l).tobytes()
        assert pullback_matrices(1, [n], [lam], l)[0].tobytes() == _dense_psi(n, lam, l).tobytes()


def test_pullback_stacks_refuse_mixed_sizes_and_bad_rows():
    with pytest.raises(ValueError, match="one sector size"):
        pullback_matrices(1, [2, 1], [0, 0], 1)
    with pytest.raises(ValueError, match="one sector size"):
        pullback_matrices(2, [2, -3], [0, 0], 1)
    with pytest.raises(ValueError, match="n must be nonzero") as info:
        pullback_matrices(1, [2, 2, 0], [0, 1, 0], 1)
    assert info.value.row == 2
    with pytest.raises(ValueError, match="power"):
        pullback_matrices(4, [2], [0], 1)
    assert pullback_matrices(2, [], [], 1).shape == (0, 0, 0)


def _projector(V):
    return V @ V.conj().T


def test_constraint_bases_span_the_displayed_relations():
    # the swept sectors and one of N = 2l|n| = 256, the largest of the dims-table workload
    for n, l in [(n, l) for n, l in SECTORS if l <= 3 and abs(n) <= 6] + [(-32, 4)]:
        kernel = _psi_kernel_loop(n, l)
        for lam in range(4):
            for solver, power, closed, rows in (
                    (phi_constraint_solve, 2, dim_phi_invariant,
                     _phi_relation_rows(n, lam, l)),
                    (psi_constraint_solve, 1, dim_psi_invariant,
                     np.eye(kernel.shape[0]) - _psi_prefactor(n, lam, l) * kernel)):
                basis = solver(n, lam, l)
                want = null_space(rows)
                M = pullback_matrices(power, [n], [lam], l)[0]
                assert len(basis) == want.shape[1] == fixed_subspace_dim(M)
                assert len(basis) == closed(n, lam, l)
                if basis:
                    V = np.column_stack([v.entries for v in basis])
                    assert np.linalg.norm(V.conj().T @ V - np.eye(len(basis))) < 1e-10
                    assert np.linalg.norm(_projector(V) - _projector(want)) < 1e-9


def test_dim_psi_is_the_mcclellan_parks_multiplicity():
    # the unitary DFT of size N has eigenvalue (-i)^r with these multiplicities
    # (McClellan and Parks 1972); psi = i^(n+lam) F fixes the class r = n+lam,
    # and psi = i^(n+3 lam) conj(F) for n < 0 fixes r = -(n+3 lam)
    checked = 0
    for l in range(1, 6):
        for m in range(1, 10):
            N = 2 * l * m
            mult = (N // 4 + 1, (N + 1) // 4, (N + 2) // 4, (N - 1) // 4)
            for n in (m, -m):
                for lam in range(8):
                    r = (n + lam) % 4 if n > 0 else -(n + 3 * lam) % 4
                    assert dim_psi_invariant(n, lam, l) == mult[r], (n, lam, l)
                    checked += 1
    assert checked == 720


def test_psi_kernel_margin_at_large_sector():
    # N = 320: a float phase argument growing like k k'/N leaves the kernel of
    # psi - I near 1e-13; the integer reduction keeps it at rounding level
    n, lam, l = 40, 1, 4
    M = pullback_matrices(1, [n], [lam], l)[0]
    svals = np.linalg.svd(M - np.eye(M.shape[0]), compute_uv=False)
    kernel = svals[-dim_psi_invariant(n, lam, l):]
    assert np.max(kernel) < 1e-14


def test_phi_matrix_small_cases():
    M = pullback_matrices(2, [1], [0], 1)[0]
    assert np.allclose(M, -np.eye(2))
    M = pullback_matrices(2, [2], [0], 1)[0]
    # column (a=1,b=0) maps to (a=1,b=0) with entry +1
    assert M[2, 2] == 1.0


def test_phi_matrix_is_signed_permutation():
    for n, lam, l in SWEEP:
        M = pullback_matrices(2, [n], [lam], l)[0]
        phase = -1.0 if (n + lam) % 2 else 1.0
        for col in range(M.shape[1]):
            nz = np.nonzero(M[:, col])[0]
            assert len(nz) == 1
            assert M[nz[0], col] == phase
        assert np.allclose(M @ M, np.eye(M.shape[0]), atol=1e-14)


def test_psi_matrix_small_case():
    M = pullback_matrices(1, [1], [0], 1)[0]
    want = (1j / math.sqrt(2)) * np.array([[1, 1], [1, -1]], dtype=complex)
    assert np.allclose(M, want, atol=1e-14)
    assert abs(np.trace(M)) < 1e-14


def test_psi_matrix_unitary_and_power_relations():
    for n, lam, l in SWEEP + [(6, 5, 3), (-6, 2, 3), (5, 8, 3)]:
        M = pullback_matrices(1, [n], [lam], l)[0]
        dim = M.shape[0]
        assert np.linalg.norm(M.conj().T @ M - np.eye(dim)) < 1e-10
        M2 = M @ M
        assert np.linalg.norm(M2 @ M2 - np.eye(dim)) < 1e-10
        Mphi = pullback_matrices(2, [n], [lam], l)[0]
        assert np.max(np.abs(M2 - Mphi)) < 1e-10


def test_the_half_turn_is_the_quarter_turn_squared():
    # phi = psi^2 on the dense matrices, and so on the oracle's table: the squared
    # eigenvalues of each phase key are e = (-1)^r on C's runs and -e on S's
    for n, lam, l in SWEEP:
        psi = pullback_matrices(1, [n], [lam], l)[0]
        assert np.abs(pullback_matrices(2, [n], [lam], l)[0] - psi @ psi).max() < 1e-12
    for key, squares in enumerate(_EIGENVALUES**2):
        e = (-1) ** (key >> 1)
        assert squares.tolist() == [e, e, -e, -e]


def test_fixed_subspace_dim_basics():
    assert fixed_subspace_dim(np.eye(4)) == 4
    assert fixed_subspace_dim(pullback_matrices(2, [1], [0], 1)[0]) == 0
    assert fixed_subspace_dim(pullback_matrices(1, [2], [2], 1)[0]) == 2


def test_fixed_subspace_dim_flags_threshold_band():
    M = np.eye(4, dtype=complex)
    M[0, 0] += 1e-8
    with pytest.raises(IllConditionedError):
        fixed_subspace_dim(M, tol=1e-8)


def test_a_stack_of_matrices_takes_one_batched_svd():
    # a stack (..., N, N) gives the int64 array of the one-matrix results; the first
    # refusing matrix in row-major order raises its error, that index as .row
    rows = [(n, lam, l) for n, lam, l in SWEEP + LARGER_SECTORS if 2 * l * abs(n) == 4]
    matrices = [pullback_matrices(power, [n], [lam], l)[0] for n, lam, l in rows
                for power in (2, 1)]
    dims = fixed_subspace_dim(np.array(matrices).reshape(2, -1, 4, 4))
    assert dims.dtype == np.int64 and dims.shape == (2, len(matrices) // 2)
    assert dims.ravel().tolist() == [fixed_subspace_dim(M) for M in matrices]
    assert dims.ravel().tolist() == [dim(*row) for row in rows
                                     for dim in (dim_phi_invariant, dim_psi_invariant)]
    stack = np.array([np.eye(4, dtype=complex)] * 6).reshape(2, 3, 4, 4)
    stack[1, 1, 0, 0] += 1e-8  # the band of tol = 1e-8, in the matrix at index 4
    stack[1, 2, 0, 0] += 1e-8
    with pytest.raises(IllConditionedError) as info:
        fixed_subspace_dim(stack, tol=1e-8)
    assert info.value.row == 4
    assert fixed_subspace_dim(stack[0]).tolist() == [4, 4, 4]


# planted offsets of an orbit block's eigenvalue from +-1: kernel (< tol/10), the band
# at tol = 1e-8, and rank
_PLANTED = st.sampled_from([0.0, 1e-13, -1e-10, 3e-9, -1e-8, 3e-8, 1e-6, 0.5, -2.0])


@settings(max_examples=80, deadline=None, database=None)
@given(l=st.integers(1, 3), m=st.integers(1, 4), negative=st.booleans(),
       lam=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_basis_and_oracle_follow_one_rank_rule_on_planted_blocks(l, m, negative, lam, seed,
                                                                  data):
    # orbit blocks Q diag(eig) Q^T with eig planted near +-1: the basis refuses the
    # band by the oracles' rank rule, or counts the planted kernel and spans it on
    # the basis positions (the oracle reads no block; the sweep below ties the two)
    n = -m if negative else m
    dim = 2 * l * m
    h = dim // 2
    rng = np.random.default_rng(seed)
    r, sign = _psi_phase(n, lam)
    blocks, svals = [], []
    B = np.zeros((dim, dim), dtype=complex)  # the planted pullback on the orbit vectors
    for part, phase in ((slice(0, h + 1), 1j**r), (slice(h + 1, dim), sign * 1j**(r + 1))):
        size = part.stop - part.start
        eigs = np.array([data.draw(st.sampled_from([1.0, -1.0])) + data.draw(_PLANTED)
                         for _ in range(size)])
        Q = np.linalg.qr(rng.normal(size=(size, size)))[0]
        T = Q @ np.diag(eigs) @ Q.T
        blocks.append((T + T.T) / 2)
        B[part, part] = phase * blocks[-1]
        svals += [abs(phase * eig - 1) for eig in eigs]

    def planted(size):
        assert size == dim
        yield from blocks

    with mock.patch.object(invariants, "_orbit_blocks", planted):
        basis = _outcome(psi_constraint_solve, n, lam, l)
    if any(1e-9 <= s <= 1e-7 for s in svals):
        assert basis is IllConditionedError
        return
    assert len(basis) == sum(s < 1e-8 for s in svals)
    if basis:
        V = np.column_stack([v.entries for v in basis])
        Q = _orbit_basis(n, l)
        assert np.abs(V.conj().T @ V - np.eye(len(basis))).max() < 1e-12
        assert np.abs(Q @ B @ Q.T @ V - V).max() < 1e-9


def test_quarter_turn_basis_and_oracle_count_alike_on_real_sectors():
    # the basis takes eigh of the real orbit blocks, the oracle their multiplicities
    for n, lam, l in SWEEP + LARGER_SECTORS + [(n, lam, 1) for n in (-7, 7, 9) for lam in range(4)]:
        dim = dim_psi_invariant(n, lam, l)
        assert len(psi_constraint_solve(n, lam, l)) == psi_one_row(n, lam, l) == dim, (n, lam, l)


def test_one_dense_svd_per_psi_sector_and_no_svd_per_half_turn_row():
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        # N = 128: the reference takes one dense SVD of I - M
        M = pullback_matrices(1, [16], [1], 4)[0]
        assert fixed_subspace_dim(M) == dim_psi_invariant(16, 1, 4)
        assert [call.args[0].shape for call in svd.call_args_list] == [(128, 128)]
        svd.reset_mock()
        # the half-turn is e on the reversal's even orbit vectors and -e on its odd
        # ones, at N = 256 and at small N alike, down to N = 2 with no odd one: its
        # singular values |e - 1| and |e + 1| are in closed form, and no row takes an SVD
        for n, lam, l in ((128, 1, 1), (-4, 2, 2), (1, 0, 1), (128, 0, 1), (-4, 1, 2)):
            assert phi_one_row(n, lam, l) == dim_phi_invariant(n, lam, l)
        assert svd.call_count == 0


def _orbit_basis(n, l):
    """Q: the even orbit vectors e_0, e_h, (e_j + e_{N-j})/sqrt 2 and then the odd
    ones (e_j - e_{N-j})/sqrt 2 of the reversal, 0 < j < h, on the positions a*2l + b."""
    k = _sector_index(n, l)
    dim = k.size
    h = dim // 2
    pos = np.empty(dim, dtype=int)
    pos[k] = np.arange(dim)
    Q = np.zeros((dim, dim))
    Q[pos[0], 0] = Q[pos[h], h] = 1.0
    for j in range(1, h):
        Q[pos[j], j] = Q[pos[dim - j], j] = Q[pos[j], h + j] = 1 / math.sqrt(2)
        Q[pos[dim - j], h + j] = -1 / math.sqrt(2)
    return Q


# (l, |n|) with 2 <= N = 2l|n| <= 160
_ORBIT_SECTORS = st.integers(1, 8).flatmap(
    lambda l: st.tuples(st.just(l), st.integers(1, 80 // l)))


@settings(max_examples=40, deadline=None, database=None)
@given(sector=_ORBIT_SECTORS, lam=st.integers(0, 40), negative=st.booleans())
def test_quarter_turn_splits_into_the_two_orbit_blocks(sector, lam, negative):
    l, m = sector
    dim = 2 * l * m
    n = -m if negative else m
    M = pullback_matrices(1, [n], [lam], l)[0]
    Q = _orbit_basis(n, l)
    assert np.allclose(Q.T @ Q, np.eye(dim), rtol=0, atol=1e-15)
    B = Q.T @ M @ Q
    h = dim // 2
    C, S = _orbit_blocks(dim)
    r, sign = _psi_phase(n, lam)
    assert np.abs(B[:h + 1, :h + 1] - 1j**r * C).max() < 1e-13
    # at N = 2 the odd block and the cross blocks are empty
    assert np.abs(B[h + 1:, h + 1:] - sign * 1j**(r + 1) * S).max(initial=0) < 1e-13
    assert np.abs(B[:h + 1, h + 1:]).max(initial=0) < 1e-13
    assert np.abs(B[h + 1:, :h + 1]).max(initial=0) < 1e-13
    # the blocks' singular values of B - I are those of the dense I - M
    blocks = [np.linalg.svd(T - np.eye(len(T)), compute_uv=False)
              for T in (1j**r * C, sign * 1j**(r + 1) * S)]
    dense = np.linalg.svd(np.eye(dim) - M, compute_uv=False)
    assert np.abs(np.sort(np.concatenate(blocks))[::-1] - dense).max() < 1e-12
    assert psi_one_row(n, lam, l) == fixed_subspace_dim(M) == dim_psi_invariant(n, lam, l)


def test_quarter_turn_levels_share_one_eigvalsh_pair():
    # the four levels of sectors of every size, from N = 2, whose odd block is empty,
    # to N = 4096, share the closed-form runs of the two orbit blocks: not even one
    # eigvalsh pair is taken, and no eigh or SVD
    with (mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh,
          mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh,
          mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd):
        for l, sectors in ((1, (1, -1, 3, 2048)), (2, (8,)), (4, (-16, -512))):
            ns, lams = [n for n in sectors for _ in range(4)], [0, 1, 2, 3] * len(sectors)
            dims = fixed_subspace_dims(1, ns, lams, l)
            assert dims.dtype == np.int64
            assert dims.tolist() == [dim_psi_invariant(n, lam, l) for n, lam in zip(ns, lams)]
    assert eigvalsh.call_count == eigh.call_count == svd.call_count == 0


def test_quarter_turn_oracle_holds_o_n_memory_afterwards():
    # N = 1024 and N = 4096: no block is built, so the peak stays a few kB at any N,
    # and nothing is held on return
    fixed_subspace_dims(1, [256] * 4, [0, 1, 2, 3], 2)  # numpy's first-call caches
    for n, l in ((256, 2), (-512, 4), (2048, 1)):
        tracemalloc.start()
        try:
            dims = fixed_subspace_dims(1, [n] * 4, [0, 1, 2, 3], l)
            assert dims.tolist() == [dim_psi_invariant(n, lam, l) for lam in range(4)]
            del dims
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**13, peak
        assert held < 2**12, held


@settings(max_examples=60, deadline=None, database=None)
@given(dim=st.integers(1, 256).map(lambda h: 2 * h))
@example(dim=2)
@example(dim=4)
@example(dim=512)
def test_quarter_turn_runs_are_the_signs_of_the_orbit_blocks(dim):
    # McClellan and Parks' multiplicities, against eigvalsh of the two real orbit
    # blocks: every eigenvalue is +-1, and the runs count each sign
    even, odd = (np.linalg.eigvalsh(block) for block in _orbit_blocks(dim))
    for eigs in (even, odd):
        assert np.abs(np.abs(eigs) - 1.0).max(initial=0.0) < 1e-12
    runs = _quarter_turn_runs([dim])
    assert runs.dtype == np.int64
    assert runs.tolist() == [[int(np.sum(even > 0)), int(np.sum(even < 0)),
                              int(np.sum(odd > 0)), int(np.sum(odd < 0))]]


def test_orbit_blocks_are_built_one_at_a_time():
    # N = 1024: the index table, 4 bytes an entry, and one block of 8 bytes an entry
    # are held at a time, about 1.5 blocks, when the caller drops C before it asks
    # for S, as psi_constraint_solve does; both blocks and an int64 table were 3
    block = 8 * 513**2
    tracemalloc.start()
    try:
        shapes = []
        for T in _orbit_blocks(1024):
            shapes.append(T.shape)
            del T
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes == [(513, 513), (511, 511)]
    assert block < peak < 2 * block


def test_quarter_turn_oracle_keeps_the_rank_rule():
    # sqrt(2) is a singular value of every quarter-turn sector's I - M
    with pytest.raises(IllConditionedError) as info:
        fixed_subspace_dims(1, [1, 17], [0, 0], 1, tol=1.0)
    assert info.value.row == 0
    with pytest.raises(ValueError, match="positive and finite"):
        fixed_subspace_dims(1, [17], [0], 1, tol=0.0)
    with pytest.raises(ValueError, match="n must be nonzero") as info:
        fixed_subspace_dims(1, [17, 0], [0, 0], 1)
    assert info.value.row == 1


def _outcome(count, *args):
    try:
        return count(*args)
    except (IllConditionedError, ValueError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None, database=None)
@given(sector=_ORBIT_SECTORS, lam=st.integers(0, 40), negative=st.booleans(),
       tol=st.sampled_from([1e-20, 1e-14, 1e-12, 1e-8, 1e-4, 0.1, 0.3, 1.0, 30.0]))
def test_half_turn_oracle_counts_and_refuses_as_the_dense_svd(sector, lam, negative, tol):
    # 2 <= N <= 160: the orbit blocks give the dense count, or the same refusal (the
    # band around the singular value 2 at tol = 0.3 and 1, the floor at 1e-20, and
    # at 1e-14 once N > 22)
    l, m = sector
    n = -m if negative else m
    assert (_outcome(phi_one_row, n, lam, l, tol)
            == _outcome(fixed_subspace_dim, pullback_matrices(2, [n], [lam], l)[0], tol))


@settings(max_examples=60, deadline=None, database=None)
@given(sector=_ORBIT_SECTORS, lam=st.integers(0, 40), negative=st.booleans(),
       tol=st.sampled_from([1e-20, 1e-14, 1e-12, 1e-8, 1e-4, 0.1, 0.3, 1.0, 30.0]))
@example(sector=(1, 7), lam=2, negative=False, tol=1e-14)
@example(sector=(7, 1), lam=0, negative=True, tol=1e-14)
@example(sector=(1, 1), lam=1, negative=True, tol=1e-15)
def test_quarter_turn_oracle_counts_and_refuses_as_the_dense_svd(sector, lam, negative, tol):
    # 2 <= N <= 160: the blocks' runs give the dense count, or the same refusal (the
    # band around the singular values sqrt 2 and 2 at tol = 0.3 and 1, the floor at
    # 1e-20, and at 1e-14 once N > 22)
    l, m = sector
    n = -m if negative else m
    M = pullback_matrices(1, [n], [lam], l)[0]
    oracle = _outcome(psi_one_row, n, lam, l, tol)
    dense = _outcome(fixed_subspace_dim, M, tol)
    if oracle != dense:
        # just above the floor 2 N eps rounding decides whether one of the dense SVD's
        # kernel values, below 0.4 N eps, reaches the band's edge tol/10, where the
        # oracle's are 0: at N = 2 the dense SVD refuses what the oracle counts at
        # tol = 1e-15; a count never differs (at N = 14 and tol = 1e-14 both count
        # the examples' 3)
        assert tol < 5 * len(M) * np.finfo(float).eps
        assert IllConditionedError in (oracle, dense) and ValueError not in (oracle, dense)
    # the blocks' eigenvalues, by eigvalsh here, times the blocks' phases give the
    # dense singular values
    r, sign = _psi_phase(n, lam)
    blocks = (np.linalg.eigvalsh(block) for block in _orbit_blocks(len(M)))
    svals = np.concatenate([np.abs(phase * eigs - 1)
                            for phase, eigs in zip(_PHASES[2 * r + (sign < 0)], blocks)])
    dense_svals = np.linalg.svd(np.eye(len(M)) - M, compute_uv=False)
    assert np.abs(np.sort(svals)[::-1] - dense_svals).max() < 1e-13


def test_rank_rule_refuses_a_tol_below_its_floor():
    # the floor is numpy's matrix_rank default sigma_max N eps; below it a kernel
    # value may be rounding noise (the dense SVD's is 1e-16..5e-16 at N = 30)
    svals = np.array([2.0] * 64 + [0.0] * 64)
    floor = 2.0 * 128 * np.finfo(float).eps
    with pytest.raises(ValueError, match="floor"):
        _nullity(svals, 0.99 * floor)
    assert _nullity(svals, 1.01 * floor) == _nullity(svals, 1e-12) == 64
    assert _nullity(np.zeros(4), 1e-300) == 4  # M = I: the floor is 0
    for count in (phi_one_row, psi_one_row,
                  lambda n, lam, l, tol:
                      fixed_subspace_dim(pullback_matrices(2, [n], [lam], l)[0], tol)):
        with pytest.raises(ValueError, match="floor"):
            count(15, 0, 1, 1e-20)


def test_rank_rule_needs_a_positive_finite_tol():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            fixed_subspace_dim(np.eye(2), tol=tol)


_EPS = np.finfo(float).eps

# tols drawn log-uniformly, next to the band's edges around the singular values
# sqrt 2 and 2 (tol/10 and 10 tol on either side of them), and next to the floor
# 2 N eps of a sector of size N
_TOLS = st.one_of(
    st.floats(-20.0, 1.5).map(lambda e: 10.0**e),
    st.sampled_from([0.2, 20.0, math.sqrt(0.02), math.sqrt(200.0), 1e-8]).flatmap(
        lambda t: st.sampled_from([t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)])),
    st.tuples(st.integers(2, 320), st.floats(0.5, 20.0)).map(lambda p: 2 * p[0] * _EPS * p[1]),
)


def _refusal(exc):
    return exc.row, type(exc), str(exc)


def _one_at_a_time(one_row, ns, lams, *args):
    """The one-row calls in row order: their results, or the first refusal as
    (row, type, message), with its row in the whole column."""
    out = []
    for row, (n, lam) in enumerate(zip(ns, lams)):
        try:
            out.append(one_row(n, lam, *args))
        except (IllConditionedError, ValueError) as exc:
            exc.row = row
            return _refusal(exc)
    return out


def _as_column(column, ns, lams, *args):
    try:
        return column(ns, lams, *args).tolist()
    except (IllConditionedError, ValueError) as exc:
        return _refusal(exc)


# a range of n (zero among them at times, which the rows refuse) by a list of
# levels, up to 10**400 and negative at times, as the rows of a dims table
_ROWS = st.tuples(
    st.integers(1, 4), st.integers(-40, 40), st.integers(0, 6),
    st.lists(st.one_of(st.integers(0, 40), st.integers(0, 10**400), st.just(-1)),
             min_size=1, max_size=5),
).filter(lambda r: 2 * r[0] * max(abs(r[1]), abs(r[1] + r[2])) <= 320).map(
    lambda r: (r[0], [n for n in range(r[1], r[1] + r[2] + 1) for _ in r[3]], r[3] * (r[2] + 1)))


@settings(max_examples=150, deadline=None, database=None)
@given(rows=_ROWS, tol=_TOLS)
@example(rows=(1, [3, 3, 4, 4], [0, 1, 0, 1]), tol=1.0)  # the band around sqrt 2 and 2
@example(rows=(2, [1, -1, 0, 2], [0, 10**400, 1, 3]), tol=1e-8)  # n = 0 ends the column
@example(rows=(1, [60, 2], [0, 0]), tol=1e-14)  # the floor refuses the first row only
def test_the_oracle_columns_equal_the_rows_one_at_a_time(rows, tol):
    l, ns, lams = rows
    for power, one_row in ((2, phi_one_row), (1, psi_one_row)):
        assert (_as_column(functools.partial(fixed_subspace_dims, power), ns, lams, l, tol)
                == _one_at_a_time(one_row, ns, lams, l, tol)), power


def test_dims_columns_name_the_first_refusing_row(monkeypatch):
    rows = ([2, 1, -3], [1, 0, 2])
    closed = [dim_phi_invariant(n, lam, 1) for n, lam in zip(*rows)]
    assert dims_columns(2, *rows, 1) == (closed, closed, closed)
    # row 1 of the half-turn has e = -1, the singular value 2 inside the band at tol 1;
    # the characters refuse at the same row or the next, planted
    for planted, message, cause in ((1, "planted", ValueError),
                                    (2, "singular value inside the band [tol/10, 10 tol], "
                                        "tol = 1.0", IllConditionedError)):
        def multiplicities(values, row=planted):
            raise invariants._refusal(ValueError("planted"), row)

        with monkeypatch.context() as patch:
            patch.setattr(invariants, "sector_multiplicities", multiplicities)
            with pytest.raises(ValueError) as info:
                dims_columns(2, [1, 1, 1], [1, 0, 0], 1, 1.0)
        assert str(info.value) == f"{message} (row n = 1, lambda = 0)"
        assert info.value.row == 1 and type(info.value.__cause__) is cause
    # on real rows: the oracle refuses row 0 for its tol, before the characters' n = 0,
    # and a refusal of both at one row is the characters'
    for power, ns, lams, tol, row, message in (
            (1, [2, 0], [0, 3], 0.0, 0, "tol must be positive and finite, got 0.0 (row n = 2, "
                                        "lambda = 0)"),
            (2, [2, 0], [0, 3], 1e-8, 1, "n must be nonzero (row n = 0, lambda = 3)"),
            (1, [2, 3], [0, -1], 1e-8, 1, "lambda must be nonnegative (row n = 3, lambda = -1)")):
        with pytest.raises(ValueError) as info:
            dims_columns(power, ns, lams, 1, tol)
        assert (str(info.value), info.value.row) == (message, row)


def _character_row(n, lam, l):
    """chi(g^m), m = 0..3, of one row from its own sector size N = 2l|n|, where the
    column reads G(N)/sqrt N off the table's N = 4 or N = 2."""
    invariants._check_nl(n, lam, l)
    return _characters(2 * l * abs(n), _psi_phase(n, lam)[0], n > 0)


def _by_powers(row):
    """The multiplicities of the eigenvalues i^j from one row chi(g^m), m = 0..3, as
    (1/4) sum_m i^(-j m) chi(g^m), rounded."""
    return [round((sum((1j ** (-j * m)) * row[m] for m in range(4)) / 4.0).real)
            for j in range(4)]


@settings(max_examples=80, deadline=None, database=None)
@given(rows=_ROWS)
def test_the_character_columns_equal_the_rows_one_at_a_time(rows):
    l, ns, lams = rows
    tables = _one_at_a_time(_character_row, ns, lams, l)
    try:
        values = character_values(ns, lams, l)
    except ValueError as exc:
        assert _refusal(exc) == tables
        return
    # bit for bit, signed zeros included
    assert [[repr(v) for v in row] for row in values.tolist()] == [
        [repr(v) for v in t] for t in tables]
    assert sector_multiplicities(values).tolist() == [_by_powers(t) for t in tables]


def test_a_multiplicity_off_an_integer_refuses_its_row():
    values = character_values([2] * 3, [0] * 3, 1)
    values[1, 1] += 1e-6
    with pytest.raises(ValueError, match="non-integer multiplicity") as info:
        sector_multiplicities(values)
    assert info.value.row == 1


_SVALS = st.sampled_from([0.0, 1e-13, 1e-10, 3e-9, 1e-8, 3e-8, 1e-6, 0.5, math.sqrt(2), 2.0])


@settings(max_examples=150, deadline=None, database=None)
@given(runs=st.lists(st.tuples(_SVALS, st.integers(0, 200)), min_size=1, max_size=4),
       tol=_TOLS)
@example(runs=[(0.0, 2), (2.0, 0)], tol=1e-16)  # N = 2, e = 1: the empty run holds no value
@example(runs=[(2.0, 2), (0.0, 0)], tol=1e-16)
def test_runs_follow_the_rank_rule_of_the_repeated_array(runs, tol):
    # the half-turn's two runs |e - 1|, |e + 1| of lengths h + 1, h - 1 among them
    svals, counts = (np.array(column) for column in zip(*runs))
    if not counts.sum():
        return

    def outcome(*args):
        try:
            return _nullity(*args)
        except (IllConditionedError, ValueError) as exc:
            return type(exc), str(exc)

    assert outcome(svals, tol, counts) == outcome(np.repeat(svals, counts), tol)


def test_dim_phi_closed_form():
    assert dim_phi_invariant(2, 0, 1) == 3
    assert dim_phi_invariant(1, 0, 1) == 0
    assert dim_phi_invariant(-3, 1, 2) == 7


def test_dim_psi_closed_form():
    assert dim_psi_invariant(2, 2, 1) == 2
    assert dim_psi_invariant(1, 1, 1) == 1
    assert dim_psi_invariant(1, 0, 1) == 0


def test_oracle_equivalence_subset():
    for n, lam, l in SWEEP + LARGER_SECTORS:
        half, quarter = (pullback_matrices(power, [n], [lam], l)[0] for power in (2, 1))
        assert fixed_subspace_dim(half) == dim_phi_invariant(n, lam, l)
        assert phi_one_row(n, lam, l) == dim_phi_invariant(n, lam, l)
        assert fixed_subspace_dim(quarter) == dim_psi_invariant(n, lam, l)
        assert psi_one_row(n, lam, l) == dim_psi_invariant(n, lam, l)


def test_gauss_sum_closed_form_values():
    assert gauss_sum(4) == 2 + 2j
    assert gauss_sum(2) == 0
    assert abs(gauss_sum(8) - (1 + 1j) * 2 * math.sqrt(2)) < 1e-14
    assert gauss_sum(1) == 1.0
    assert abs(gauss_sum(3) - 1j * math.sqrt(3)) < 1e-14
    with pytest.raises(ValueError):
        gauss_sum(0)


def test_gauss_sum_against_direct_summation():
    for m in range(1, 401):
        assert abs(gauss_sum(m) - gauss_sum_direct(m)) < 1e-9


def test_gauss_sum_direct_column_equals_its_one_row_calls():
    ms = list(range(1, 201))
    column = gauss_sum_direct(ms)
    assert column.shape == (200,) and column.dtype == complex
    for m, value in zip(ms, column):
        one = gauss_sum_direct(m)
        assert type(one) is complex and abs(value - one) <= 1e-12
        ks = np.arange(m)  # the defining sum
        assert abs(one - np.sum(np.exp(2j * math.pi * ((ks * ks) % m) / m))) <= 1e-12
    # the rows need no order, and an empty column is empty
    assert np.array_equal(gauss_sum_direct([7, 3, 7]), column[[6, 2, 6]])
    assert gauss_sum_direct([]).shape == (0,)
    for bad in (0, [3, 0], [[1, 2]]):
        with pytest.raises(ValueError):
            gauss_sum_direct(bad)


def test_character_table_values():
    values = character_values([2, 1], [2, 0], 1)
    mults = sector_multiplicities(values)
    t = values[0]
    assert t[0] == 4
    assert abs(t[1] - (1 - 1j)) < 1e-12
    assert abs(t[2] - 2) < 1e-12
    assert abs(t[3] - (1 + 1j)) < 1e-12
    assert mults[0, 0] == 2

    t = values[1]
    assert t[0] == 2
    assert abs(t[1]) < 1e-12
    assert abs(t[2] + 2) < 1e-12
    assert mults[1, 0] == 0


def test_character_table_validation(monkeypatch):
    # the checks of a character table, chi(1) = N and chi(g^3) = conj chi(g), are the
    # characters suite's: entries of one row off by 1e-6 fail it, and chi(g) and
    # chi(g^3) moved together fail it at the trace of M
    for columns, message in (([0], r"chi\(1\) must equal the sector dimension"),
                             ([1], r"chi\(g\^3\) must conjugate chi\(g\)"),
                             ([3], r"chi\(g\^3\) must conjugate chi\(g\)"),
                             ([1, 3], "character value disagrees with the trace at power 1")):
        def perturbed(*args, read=character_values):
            values = read(*args)
            values[5, columns] += 1e-6
            return values

        with monkeypatch.context() as patch:
            patch.setattr(verify, "character_values", perturbed)
            (result,) = verify.run_suites(["characters"])
        assert not result.passed
        assert re.fullmatch("VerificationError: " + message, result.detail)
    assert verify.run_suites(["characters"])[0].passed


def test_characters_match_matrix_traces():
    for l in (1, 2):
        rows = [(n, lam) for n, lam, ll in SWEEP if ll == l]
        values = character_values(*zip(*rows), l)
        mults = sector_multiplicities(values)
        for (n, lam), t, mult in zip(rows, values, mults):
            M = pullback_matrices(1, [n], [lam], l)[0]
            power = np.eye(M.shape[0], dtype=complex)
            for m in range(4):
                assert abs(np.trace(power) - t[m]) < 1e-9
                power = M @ power
            assert mult[0] == dim_psi_invariant(n, lam, l)


def test_sector_dimensions_sum_to_sector_size():
    for l in (1, 2):
        rows = [(n, lam) for n, lam, ll in SWEEP if ll == l]
        mults = sector_multiplicities(character_values(*zip(*rows), l))
        assert mults.sum(axis=1).tolist() == [2 * l * abs(n) for n, _ in rows]
        assert (mults >= 0).all()


def test_sector_dimensions_read_the_powers_of_i_from_one_table():
    # the table holds the very values 1j ** (-j m), signed zeros included, so each
    # multiplicity sums the same products in the same order as the powers gave them
    for j in range(4):
        for m in range(4):
            assert repr(_UNITS[j][m]) == repr(1j ** (-j * m))

    rows = [(n, lam) for n in [n for n in range(-13, 14) if n] + [-1000, 999] for lam in range(8)]
    for l in (1, 2, 3, 5):
        values = character_values(*zip(*rows), l)
        assert sector_multiplicities(values).tolist() == [_by_powers(t) for t in values.tolist()]


def test_phi_constraints_dimensions_and_span():
    basis = phi_constraint_solve(2, 0, 1)
    assert len(basis) == 3
    assert phi_constraint_solve(1, 0, 1) == []
    for n, lam, l in [(2, 0, 1), (3, 1, 1), (-2, 1, 2), (-1, 0, 1), (4, 2, 1)]:
        basis = phi_constraint_solve(n, lam, l)
        assert len(basis) == dim_phi_invariant(n, lam, l)
        M = pullback_matrices(2, [n], [lam], l)[0]
        if basis:
            V = np.column_stack([v.entries for v in basis])
            assert np.linalg.norm(V.conj().T @ V - np.eye(len(basis))) < 1e-10
            assert np.max(np.abs(M @ V - V)) < 1e-10


def test_psi_constraints_dimensions_and_span():
    assert len(psi_constraint_solve(2, 2, 1)) == 2
    assert psi_constraint_solve(1, 0, 1) == []
    for n, lam, l in [(2, 2, 1), (3, 1, 1), (-2, 0, 1), (2, 1, 2), (-3, 3, 1)]:
        basis = psi_constraint_solve(n, lam, l)
        assert len(basis) == dim_psi_invariant(n, lam, l)
        M = pullback_matrices(1, [n], [lam], l)[0]
        if basis:
            V = np.column_stack([v.entries for v in basis])
            assert np.linalg.norm(V.conj().T @ V - np.eye(len(basis))) < 1e-10
            assert np.max(np.abs(M @ V - V)) < 1e-10


def test_constraint_span_equals_oracle_eigenspace():
    # projector onto the constraint span vs projector onto the +1 eigenspace
    for n, lam, l in [(2, 0, 1), (-3, 1, 1), (2, 2, 1)]:
        for solver, power in ((phi_constraint_solve, 2), (psi_constraint_solve, 1)):
            basis = solver(n, lam, l)
            if not basis:
                continue
            V = np.column_stack([v.entries for v in basis])
            M = pullback_matrices(power, [n], [lam], l)[0]
            w, vecs = np.linalg.eig(M)
            E = vecs[:, np.abs(w - 1) < 1e-8]
            E, _ = np.linalg.qr(E)
            P1 = V @ V.conj().T
            P2 = E @ E.conj().T
            assert np.linalg.norm(P1 - P2) < 1e-9


def test_phi_invariant_combination_pointwise():
    rng = np.random.default_rng(51)
    n, lam, l = 2, 0, 1
    lattice = standard_rect(2 * l)
    phi = phi_generator()
    for v in phi_constraint_solve(n, lam, l):
        for _ in range(5):
            pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
            a = eigenfunction_combination(v, lam, lattice, motion_apply(phi, pt))
            b = eigenfunction_combination(v, lam, lattice, pt)
            assert abs(a - b) < 1e-7


def test_psi_invariant_combination_pointwise():
    rng = np.random.default_rng(52)
    psi = psi_generator()
    for n, lam, l in [(2, 2, 1), (1, 1, 1)]:
        lattice = scaled_square(l)
        for v in psi_constraint_solve(n, lam, l):
            for _ in range(20):
                pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
                a = eigenfunction_combination(v, lam, lattice, motion_apply(psi, pt))
                b = eigenfunction_combination(v, lam, lattice, pt)
                assert abs(a - b) < 1e-7


def test_residue_order_is_the_inverse_of_the_sector_index():
    for n in [m for m in range(-64, 65) if m]:
        for l in range(1, 5):
            assert np.array_equal(_residue_order(n, l), np.argsort(_sector_index(n, l)))


def test_combination_reads_its_weights_without_a_sort(monkeypatch):
    # five points of one sector, the residue order computed afresh, and neither the
    # index map nor a sort called once
    calls = []
    for owner, name in ((invariants, "_sector_index"), (np, "argsort")):
        fn = getattr(owner, name)
        counted = lambda *args, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    _residue_order.cache_clear()
    rng = np.random.default_rng(53)
    for n, l, lattice in ((-3, 2, scaled_square(2)), (2, 1, standard_rect(2))):
        coef = CoefficientVector(n, l, rng.normal(size=2 * l * abs(n)) + 0j)
        for _ in range(5):
            eigenfunction_combination(coef, 2, lattice, PolarizedPoint(*rng.uniform(-1, 1, 3)))
    assert calls == []


def test_constraint_bases_take_no_svd_and_no_dense_matrix():
    with (mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd,
          mock.patch.object(invariants, "pullback_matrices", wraps=pullback_matrices) as dense):
        for n, lam, l in ((128, 1, 1), (-4, 2, 2), (1, 0, 1), (128, 0, 1), (-3, 1, 2), (-5, 3, 1)):
            assert len(phi_constraint_solve(n, lam, l)) == dim_phi_invariant(n, lam, l)
            assert len(psi_constraint_solve(n, lam, l)) == dim_psi_invariant(n, lam, l)
        assert svd.call_count == dense.call_count == 0


@pytest.mark.parametrize("n,l", [(512, 1), (-256, 2)])
def test_quarter_turn_basis_at_n_1024(n, l):
    # one lam per class mod 4: the closed-form count of vectors, fixed by the dense
    # pullback and orthonormal
    for lam in range(4):
        V = np.column_stack([v.entries for v in psi_constraint_solve(n, lam, l)])
        assert V.shape == (1024, dim_psi_invariant(n, lam, l))
        M = pullback_matrices(1, [n], [lam], l)[0]
        assert np.abs(M @ V - V).max() < 1e-12
        assert np.abs(V.conj().T @ V - np.eye(V.shape[1])).max() < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        pullback_matrices(2, [0], [0], 1)[0]
    with pytest.raises(ValueError):
        pullback_matrices(1, [1], [-1], 1)[0]
    with pytest.raises(ValueError):
        dim_psi_invariant(1, 0, 0)

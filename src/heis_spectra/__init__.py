"""Spectra of the sub-Laplacian family on Heisenberg nilmanifolds and quotients."""

from .group import (
    BieberbachSpec,
    LatticeSpec,
    PolarizedPoint,
    RigidMotion,
    StandardPoint,
    SymplecticMap,
    apply_symplectic,
    gamma_pi,
    gamma_pi_half,
    lattice_contains,
    motion_apply,
    motion_compose,
    motion_coords,
    motion_inverse,
    motion_power,
    phi_generator,
    polarized_identity,
    polarized_inverse,
    polarized_mul,
    psi_generator,
    reduce_to_fundamental_domain,
    scaled_square,
    scaling_map,
    standard_mul,
    standard_rect,
    standard_to_polarized,
    torsion_witness,
    translation_motion,
)
from .hermite import hermite_function, hermite_poly
from .invariants import (
    CoefficientVector,
    IllConditionedError,
    character_values,
    dim_phi_invariant,
    dim_psi_invariant,
    eigenfunction_combination,
    fixed_subspace_dim,
    gauss_sum,
    gauss_sum_direct,
    phi_constraint_solve,
    psi_constraint_solve,
    pullback_matrices,
    sector_basis_values,
    sector_multiplicities,
)
from .operator import apply_folland_stein, folland_stein_residual
from .spectrum import (
    dual_lattice,
    enumerate_spectrum,
    oscillator_eigenvalue,
    torus_character,
)
from .verify import SuiteResult, VerificationError, available_suites, run_suites
from .weil_brezin import (
    TruncationError,
    WBIndex,
    schrodinger_act,
    wb_eigenfunction,
    wb_eigenfunction_grid,
    weil_brezin_eval,
)
from .weyl import (
    CountingSeries,
    ParitySetCounts,
    WeylConstant,
    counting_columns,
    counting_function,
    default_tgrid,
    manifold_tag,
    oscillator_pair_sums,
    parity_counts,
    volume,
    weyl_constant,
    weyl_ratio_check,
)

__version__ = "0.1.0"

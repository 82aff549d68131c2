"""Named self-check suites runnable from the CLI.

Each suite re-derives a slice of the library's guarantees from scratch and
raises VerificationError on the first violation.  Suites run one after
another: every suite is Python work that holds the interpreter lock.  The dims
and characters suites stack their dense matrices by size and take one batched
SVD reference and one power chain per stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import (
    PolarizedPoint,
    gamma_pi,
    gamma_pi_half,
    lattice_contains,
    motion_apply,
    motion_compose,
    motion_power,
    phi_generator,
    polarized_mul,
    psi_generator,
    reduce_to_fundamental_domain,
    scaled_square,
    standard_rect,
    torsion_witness,
    translation_motion,
)
from .hermite import hermite_function, hermite_poly
from .invariants import (
    character_values,
    dim_phi_invariant,
    dim_psi_invariant,
    fixed_subspace_dim,
    gauss_sum,
    gauss_sum_direct,
    phi_pullback_matrix,
    psi_pullback_matrix,
    sector_multiplicities,
)
from .spectrum import enumerate_spectrum
from .weil_brezin import WBIndex, schrodinger_act, weil_brezin_eval, wb_eigenfunction
from .weyl import counting_columns, oscillator_pair_sums, weyl_constant


class VerificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise VerificationError(msg)


def _suite_group() -> str:
    phi, psi = phi_generator(), psi_generator()
    center = PolarizedPoint(0.0, 0.0, 1.0)
    for name, m in (("phi^2", motion_power(phi, 2)), ("psi^4", motion_power(psi, 4))):
        _require(m.translation == center, f"{name} is not the unit central translation")
        _require(m.rotation.A == 1.0 and m.rotation.B == 0.0, f"{name} has a residual rotation")
    _require(motion_power(psi, 2).translation == motion_power(phi, 1).translation,
             "psi^2 does not reproduce phi")
    rng = np.random.default_rng(1001)
    for _ in range(20):
        a, b, c = (PolarizedPoint(*rng.uniform(-2, 2, size=3)) for _ in range(3))
        left = polarized_mul(polarized_mul(a, b), c)
        right = polarized_mul(a, polarized_mul(b, c))
        _require(max(abs(left.p - right.p), abs(left.q - right.q), abs(left.s - right.s)) < 1e-12,
                 "associativity failed")
    for spec in (gamma_pi(1), gamma_pi_half(1)):
        lat = spec.base_lattice
        sp, sq = lat.steps
        for _ in range(20):
            i, k, m = rng.integers(-4, 5, size=3)
            g = PolarizedPoint(i * sp, k * sq, float(m))
            w = torsion_witness(g, spec)
            _require(abs(w.s - round(w.s)) < 1e-9 and round(w.s) % 2 == 1,
                     "torsion witness is not an odd central translation")
        for _ in range(10):
            g = PolarizedPoint(*rng.uniform(-3, 3, size=3))
            g0, motion = reduce_to_fundamental_domain(spec, g)
            back = motion_apply(motion, g0)
            _require(max(abs(back.p - g.p), abs(back.q - g.q), abs(back.s - g.s)) < 1e-9,
                     "fundamental-domain reduction does not invert")
    return "identities, associativity, torsion, reduction"


def _suite_hermite() -> str:
    ys = np.linspace(-3.0, 3.0, 25)
    for lam in range(0, 12):
        coeffs = np.zeros(lam + 1)
        coeffs[lam] = 1.0
        ref = np.polynomial.hermite.hermval(ys, coeffs)
        _require(np.max(np.abs(hermite_poly(lam, ys) - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref))),
                 f"recurrence disagrees with the reference at order {lam}")
    h = 1e-3
    for lam in (0, 3, 6):
        for y in (-1.3, 0.4, 2.1):
            second = (hermite_function(lam, y + h) - 2 * hermite_function(lam, y)
                      + hermite_function(lam, y - h)) / h**2
            resid = abs(-second + y * y * hermite_function(lam, y)
                        - (2 * lam + 1) * hermite_function(lam, y))
            scale = max(1.0, (2 * lam + 1) * abs(hermite_function(lam, y)))
            _require(resid / scale < 1e-4,
                     f"oscillator equation residual {resid:.2e} at order {lam}")
    # unit norm by the trapezoid rule, exact for steps under pi / (sqrt(2 lam + 1) + 6)
    for lam in (0, 5, 201):
        turn = math.sqrt(2 * lam + 1)
        h = math.pi / (turn + 6.0)
        sq = hermite_function(lam, np.arange(0.0, turn + 8.0, h)) ** 2
        norm = h * (2.0 * np.sum(sq) - sq[0])
        _require(abs(norm - 1.0) < 1e-12, f"norm of order {lam} is 1 + {norm - 1.0:.1e}")
    return "recurrence and oscillator equation"


def _suite_weil_brezin() -> str:
    origin = PolarizedPoint(0.0, 0.0, 0.0)
    idx = WBIndex(1, 0, 0, 1)
    val = wb_eigenfunction(idx, 0, standard_rect(1), origin)
    # pi^{-1/4} theta_3(e^{-pi}) = 1/Gamma(3/4)
    _require(abs(val - 1.0 / math.gamma(0.75)) < 1e-12, "theta value at the origin drifted")
    rng = np.random.default_rng(1003)
    for lattice in (standard_rect(1), standard_rect(2), scaled_square(1)):
        width = lattice.covering_width
        idx = WBIndex(1, 0, 0, width)
        sp, sq = lattice.steps
        for _ in range(5):
            pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
            i, k, m = rng.integers(-2, 3, size=3)
            shift = polarized_mul(PolarizedPoint(i * sp, k * sq, float(m)), pt)
            a = wb_eigenfunction(idx, 1, lattice, shift)
            b = wb_eigenfunction(idx, 1, lattice, pt)
            _require(abs(a - b) < 1e-8, "lattice invariance failed")
    seed = lambda x: math.exp(-math.pi * (x - 0.2) ** 2)
    for n in (1, -2):
        idx = WBIndex(n, 0, 0, 2)
        for _ in range(5):
            pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
            h = PolarizedPoint(*rng.uniform(-1, 1, size=3))
            lhs = weil_brezin_eval(idx, seed, polarized_mul(pt, h))
            rhs = weil_brezin_eval(idx, lambda x: schrodinger_act(n, h, seed, x), pt)
            _require(abs(lhs - rhs) < 1e-8, "intertwining relation failed")
    return "theta value, invariance, intertwining"


def _suite_pullback() -> str:
    rng = np.random.default_rng(1004)
    checked = 0
    cases = ((gamma_pi, phi_pullback_matrix, [(1, 0, 1), (2, 1, 1), (-2, 0, 1)]),
             (gamma_pi_half, psi_pullback_matrix, [(1, 1, 1), (2, 0, 1), (-1, 0, 1)]))
    for quotient, builder, sectors in cases:
        for n, lam, l in sectors:
            M = builder(n, lam, l).matrix
            spec = quotient(l)
            gen, lattice = spec.generator, spec.base_lattice
            width = lattice.covering_width
            idxs = [WBIndex(n, a, b, width) for a in range(abs(n)) for b in range(width)]
            for _ in range(4):
                pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
                image = motion_apply(gen, pt)
                f_pt = np.array([wb_eigenfunction(i, lam, lattice, pt) for i in idxs])
                f_gen = np.array([wb_eigenfunction(i, lam, lattice, image) for i in idxs])
                err = np.max(np.abs(f_gen - M.T @ f_pt))
                _require(err < 1e-7, f"pullback matrix mismatch {err:.2e} at (n={n}, lam={lam})")
                checked += 1
    return f"{checked} pointwise matrix checks"


def _stacks(matrices: list):
    """(where, stack) for each size among the square matrices, in order of first
    appearance: the positions of that size in the list and those matrices stacked."""
    sizes = [len(M) for M in matrices]
    for size in dict.fromkeys(sizes):
        where = [i for i, other in enumerate(sizes) if other == size]
        yield where, np.stack([matrices[i] for i in where])


def _suite_dims() -> str:
    rows = [(n, lam, l) for l in (1, 2) for n in range(-4, 5) if n for lam in range(0, 5)]
    # each row's half-turn, then its quarter-turn, the order in which they are checked;
    # one dense SVD reference per size over the stack of that size
    matrices = [build(*row).matrix for row in rows
                for build in (phi_pullback_matrix, psi_pullback_matrix)]
    dims = np.empty(len(matrices), dtype=np.int64)
    for where, stack in _stacks(matrices):
        dims[where] = fixed_subspace_dim(stack)
    closed = [dim(*row) for row in rows for dim in (dim_phi_invariant, dim_psi_invariant)]
    wrong = np.flatnonzero(dims != closed).tolist()
    if wrong:
        name, (n, lam, l) = ("phi", "psi")[wrong[0] % 2], rows[wrong[0] // 2]
        raise VerificationError(f"{name} dim mismatch at ({n}, {lam}, {l})")
    return "closed forms equal rank oracles on the sweep"


def _suite_characters() -> str:
    rows = [(n, lam) for n in (-3, -1, 1, 2, 3) for lam in range(0, 4)]
    for l in (1, 2):
        values = character_values(*zip(*rows), l)  # (rows x 4): chi(g^m), m = 0..3
        sizes = [2 * l * abs(n) for n, _ in rows]
        _require(bool(np.all(np.abs(values[:, 0] - sizes) <= 1e-9)),
                 "chi(1) must equal the sector dimension")
        _require(bool(np.all(np.abs(values[:, 3] - values[:, 1].conj()) <= 1e-9)),
                 "chi(g^3) must conjugate chi(g)")
        # tr M^m of each row, one power chain per size over the stack of that size
        traces = np.empty_like(values)
        matrices = [psi_pullback_matrix(n, lam, l).matrix for n, lam in rows]
        for where, stack in _stacks(matrices):
            power = np.eye(stack.shape[-1], dtype=complex)
            for m in range(4):
                if m:
                    power = power @ stack
                traces[where, m] = np.trace(power, axis1=-2, axis2=-1)
        wrong = np.flatnonzero(~(np.abs(traces - values) < 1e-9)).tolist()
        if wrong:
            raise VerificationError(
                f"character value disagrees with the trace at power {wrong[0] % 4}")
        mults = sector_multiplicities(values)
        _require(mults[:, 0].tolist() == [dim_psi_invariant(n, lam, l) for n, lam in rows],
                 "character average disagrees with the closed form")
        _require(mults.sum(axis=1).tolist() == sizes, "sector dimensions do not resolve the space")
    return "traces, averages, sector sums"


def _suite_gauss() -> str:
    for m in range(1, 101):
        _require(abs(gauss_sum(m) - gauss_sum_direct(m)) < 1e-9,
                 f"Gauss sum closed form fails at m={m}")
    for l in (1, 2, 3):
        for n in (-3, -2, -1, 1, 2, 3):
            _require(2 * l * abs(n) % 4 in (0, 2), "reachable modulus is odd")
    return "closed form vs direct sums, reachable moduli"


def _suite_spectrum() -> str:
    for manifold, alpha, mult in (
            (standard_rect(1), 0.0, lambda n, lam: abs(n)),
            (standard_rect(2), 0.4, lambda n, lam: 2 * abs(n)),
            (scaled_square(1), 0.0, lambda n, lam: 2 * abs(n)),
            (gamma_pi(1), 0.0, lambda n, lam: dim_phi_invariant(n, lam, 1)),
            (gamma_pi_half(1), 0.4, lambda n, lam: dim_psi_invariant(n, lam, 1))):
        lines = enumerate_spectrum(manifold, alpha, 15.0)
        _require(bool((np.diff(lines["value"]) >= 0).all()), "spectrum is not sorted")
        _require(bool((lines["multiplicity"] >= 1).all()), "empty spectral line")
        osc = lines[lines["kind"] == 1]
        for value, multiplicity, n, lam in osc[["value", "multiplicity", "n", "lam"]].tolist():
            sgn = 1.0 if n > 0 else -1.0
            expect = (math.pi * abs(n) / 2.0) * (2 * lam + 1 - alpha * sgn)
            _require(abs(value - expect) < 1e-12, "oscillator value mismatch")
            _require(multiplicity == mult(n, lam), "oscillator multiplicity mismatch")
    return "ordering, values, multiplicities"


def _suite_weyl() -> str:
    _require(abs(weyl_constant(0.0).value - 0.5) < 1e-8, "A_0 is off")
    for a in (1.0, -1.0):
        _require(abs(weyl_constant(a).value - 1.0 / 6.0) < 1e-8, "endpoint constant is off")
    for a in (0.3, 0.7):
        _require(abs(weyl_constant(a).value - weyl_constant(-a).value) < 1e-10,
                 "constant is not even in alpha")
    _require(oscillator_pair_sums(math.pi, 0.0, 1) == (4, 12), "pair sums changed")
    # the half quotient, its cover standard-rect(2) and the parity sets in one pass
    halves, covers, parity, _ = counting_columns(gamma_pi(1), 0.0, [30.0, 90.0])
    for n_half, n_cover, pc in zip(halves.oscillator, covers, parity):
        _require(abs(2 * n_half - n_cover) == 2 * abs(pc.even_count - pc.odd_count),
                 "half-count relation failed")
    return "constants, pair sums, half-count relation"


SUITES = {
    "group": _suite_group,
    "hermite": _suite_hermite,
    "weil-brezin": _suite_weil_brezin,
    "pullback": _suite_pullback,
    "dims": _suite_dims,
    "characters": _suite_characters,
    "gauss": _suite_gauss,
    "spectrum": _suite_spectrum,
    "weyl": _suite_weyl,
}


def available_suites() -> list[str]:
    return list(SUITES)


def run_suites(names=None) -> list[SuiteResult]:
    """Run the requested suites (all by default) and report in input order."""
    names = list(names) if names is not None else available_suites()
    unknown = sorted(set(names) - set(SUITES))
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    results = []
    for name in names:
        try:
            detail = SUITES[name]()
            results.append(SuiteResult(name, True, detail))
        except Exception as exc:
            results.append(SuiteResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results

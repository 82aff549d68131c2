import math
import sys

import numpy as np
import pytest

from heis_spectra.group import (
    BieberbachSpec,
    LatticeSpec,
    PolarizedPoint,
    StandardPoint,
    SymplecticMap,
    UnitaryAutomorphism,
    apply_symplectic,
    apply_unitary,
    gamma_pi,
    gamma_pi_half,
    identity_motion,
    lattice_contains,
    motion_apply,
    motion_compose,
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
    standard_inverse,
    standard_mul,
    standard_rect,
    standard_to_polarized,
    torsion_witness,
    translation_motion,
    unitary_compose,
)

TOL = 1e-12


def _close(g, h, tol=TOL):
    return abs(g.p - h.p) <= tol and abs(g.q - h.q) <= tol and abs(g.s - h.s) <= tol


def _rand_point(rng, scale=5.0):
    p, q, s = rng.uniform(-scale, scale, size=3)
    return PolarizedPoint(p, q, s)


def test_product_spot_check():
    g = polarized_mul(PolarizedPoint(1, 2, 3), PolarizedPoint(4, 5, 6))
    assert (g.p, g.q, g.s) == (5, 7, 14)


def test_identity_and_inverse():
    e = polarized_identity()
    g = PolarizedPoint(1.0, 2.0, 3.0)
    assert _close(polarized_mul(g, e), g)
    assert _close(polarized_mul(e, g), g)
    assert _close(polarized_mul(g, polarized_inverse(g)), e)
    assert _close(polarized_mul(polarized_inverse(g), g), e)


def test_associativity_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        g, h, k = (_rand_point(rng) for _ in range(3))
        lhs = polarized_mul(polarized_mul(g, h), k)
        rhs = polarized_mul(g, polarized_mul(h, k))
        assert _close(lhs, rhs)


def test_inverse_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        g = _rand_point(rng)
        assert _close(polarized_mul(g, polarized_inverse(g)), polarized_identity())


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        PolarizedPoint(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        StandardPoint(0.0, math.inf, 0.0)


def test_standard_to_polarized_spot():
    g = standard_to_polarized(StandardPoint(1.0, 1.0, 4.0))
    assert _close(g, PolarizedPoint(1.0, 1.0, 1.5))


def test_coordinate_change_is_homomorphism():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        a = StandardPoint(*rng.uniform(-4, 4, size=3))
        b = StandardPoint(*rng.uniform(-4, 4, size=3))
        lhs = standard_to_polarized(standard_mul(a, b))
        rhs = polarized_mul(standard_to_polarized(a), standard_to_polarized(b))
        assert _close(lhs, rhs)
        inv = standard_to_polarized(standard_inverse(a))
        assert _close(inv, polarized_inverse(standard_to_polarized(a)))


def test_unitary_specializations():
    g = PolarizedPoint(1.3, -0.7, 2.1)
    assert _close(apply_unitary(UnitaryAutomorphism(1.0, 0.0), g), g)
    h = apply_unitary(UnitaryAutomorphism(-1.0, 0.0), g)
    assert _close(h, PolarizedPoint(-1.3, 0.7, 2.1))
    k = apply_unitary(UnitaryAutomorphism(0.0, 1.0), g)
    assert _close(k, PolarizedPoint(0.7, 1.3, 2.1 - 1.3 * (-0.7)))


def test_unitary_is_automorphism():
    rng = np.random.default_rng(10)
    for _ in range(500):
        theta = rng.uniform(0, 2 * math.pi)
        u = UnitaryAutomorphism(math.cos(theta), math.sin(theta))
        g, h = _rand_point(rng), _rand_point(rng)
        assert _close(apply_unitary(u, polarized_mul(g, h)),
                      polarized_mul(apply_unitary(u, g), apply_unitary(u, h)), 1e-11)


def test_unitary_composition_matches_complex_multiplication():
    rng = np.random.default_rng(11)
    for _ in range(200):
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        u = UnitaryAutomorphism(math.cos(t1), math.sin(t1))
        v = UnitaryAutomorphism(math.cos(t2), math.sin(t2))
        w = unitary_compose(u, v)
        z = complex(u.A, u.B) * complex(v.A, v.B)
        assert abs(w.A - z.real) <= TOL and abs(w.B - z.imag) <= TOL
        g = _rand_point(rng)
        assert _close(apply_unitary(w, g), apply_unitary(u, apply_unitary(v, g)), 1e-11)


def test_unitary_norm_validated():
    with pytest.raises(ValueError):
        UnitaryAutomorphism(1.0, 1.0)


def test_symplectic_determinant_validated():
    with pytest.raises(ValueError):
        SymplecticMap(2.0, 0.0, 0.0, 1.0)


def test_symplectic_is_homomorphism():
    rng = np.random.default_rng(12)
    for _ in range(300):
        a, b, c = rng.uniform(-2, 2, size=3)
        # complete (a b; c d) to determinant one, avoiding degenerate a
        a = a if abs(a) > 0.2 else 1.0
        d = (1.0 + b * c) / a
        m = SymplecticMap(a, b, c, d)
        g, h = _rand_point(rng, 3.0), _rand_point(rng, 3.0)
        assert _close(apply_symplectic(m, polarized_mul(g, h)),
                      polarized_mul(apply_symplectic(m, g), apply_symplectic(m, h)), 1e-10)


def test_scaling_map_action():
    m = scaling_map(2)
    w = math.sqrt(4.0)
    g = apply_symplectic(m, PolarizedPoint(w, -3 * w, 5.0))
    assert _close(g, PolarizedPoint(1.0, -3.0 * 4.0, 5.0), 1e-12)


def test_scaling_map_carries_square_lattice_to_rect():
    for l in (1, 2, 3):
        m = scaling_map(l)
        rect = standard_rect(2 * l)
        sq = scaled_square(l)
        w = sq.steps[0]
        rng = np.random.default_rng(13 + l)
        for _ in range(100):
            i, j, k = (int(v) for v in rng.integers(-4, 5, size=3))
            g = PolarizedPoint(i * w, j * w, float(k))
            assert lattice_contains(rect, apply_symplectic(m, g), 1e-9)


def test_motion_semidirect_product_law():
    rng = np.random.default_rng(14)
    for _ in range(300):
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        m1 = type(identity_motion())(_rand_point(rng),
                                     UnitaryAutomorphism(math.cos(t1), math.sin(t1)))
        m2 = type(identity_motion())(_rand_point(rng),
                                     UnitaryAutomorphism(math.cos(t2), math.sin(t2)))
        g = _rand_point(rng)
        assert _close(motion_apply(motion_compose(m1, m2), g),
                      motion_apply(m1, motion_apply(m2, g)), 1e-10)
        assert _close(motion_apply(motion_compose(m1, motion_inverse(m1)), g), g, 1e-10)


def test_phi_squares_to_central_translation():
    sq = motion_power(phi_generator(), 2)
    assert sq.rotation.A == 1.0 and sq.rotation.B == 0.0
    assert _close(sq.translation, PolarizedPoint(0.0, 0.0, 1.0), 0.0)


def test_psi_powers():
    psi = psi_generator()
    sq = motion_power(psi, 2)
    phi = phi_generator()
    assert abs(sq.rotation.A - phi.rotation.A) <= TOL
    assert abs(sq.rotation.B - phi.rotation.B) <= TOL
    assert _close(sq.translation, phi.translation, 0.0)
    fourth = motion_power(psi, 4)
    assert fourth.rotation.A == 1.0 and fourth.rotation.B == 0.0
    assert _close(fourth.translation, PolarizedPoint(0.0, 0.0, 1.0), 0.0)


def test_generator_pointwise_action():
    g = PolarizedPoint(0.3, 1.1, -0.4)
    h = motion_apply(phi_generator(), g)
    assert _close(h, PolarizedPoint(-0.3, -1.1, 0.1))
    k = motion_apply(psi_generator(), g)
    assert _close(k, PolarizedPoint(-1.1, 0.3, -0.4 + 0.25 - 0.3 * 1.1))


def test_lattice_membership():
    rect = standard_rect(2)
    assert lattice_contains(rect, PolarizedPoint(1.0, 4.0, 7.0))
    assert not lattice_contains(rect, PolarizedPoint(1.0, 3.0, 7.0))
    assert not lattice_contains(rect, PolarizedPoint(0.5, 4.0, 7.0))
    sq = scaled_square(1)
    r2 = math.sqrt(2.0)
    assert lattice_contains(sq, PolarizedPoint(r2, -3 * r2, 2.0))
    assert not lattice_contains(sq, PolarizedPoint(1.0, 0.0, 0.0))


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec("hex", 1)
    with pytest.raises(ValueError):
        standard_rect(0)
    with pytest.raises(ValueError):
        BieberbachSpec("gamma-pi", -1)


def test_lattice_specs_refuse_an_l_whose_squared_steps_leave_float_range():
    # the squared steps are (1, l^2) and (2l, 2l); gamma-pi extends Z x 2lZ x Z
    top = int(sys.float_info.max)
    for make, largest in ((standard_rect, math.isqrt(top)), (scaled_square, top // 2),
                          (gamma_pi, math.isqrt(top) // 2), (gamma_pi_half, top // 2)):
        assert make(largest).l == largest
        with pytest.raises(ValueError, match=r"l is too large \(\d+ digits\)"):
            make(largest + 1)


def test_reduce_rect_spot_check():
    g0, motion = reduce_to_fundamental_domain(standard_rect(1), PolarizedPoint(1.5, 0.25, 0.75))
    assert _close(g0, PolarizedPoint(0.5, 0.25, 0.5))
    assert _close(motion.translation, PolarizedPoint(1.0, 0.0, 0.0))
    assert motion.rotation.A == 1.0 and motion.rotation.B == 0.0


@pytest.mark.parametrize("spec", [standard_rect(1), standard_rect(3), scaled_square(1), scaled_square(2)])
def test_reduce_lattice_roundtrip(spec):
    rng = np.random.default_rng(15)
    sp, sq = spec.steps
    for _ in range(200):
        g = _rand_point(rng, 8.0)
        g0, motion = reduce_to_fundamental_domain(spec, g)
        assert 0 <= g0.p < sp and 0 <= g0.q < sq and 0 <= g0.s < 1
        assert lattice_contains(spec, motion.translation, 1e-9)
        assert _close(motion_apply(motion, g0), g, 1e-10)


@pytest.mark.parametrize("spec", [gamma_pi(1), gamma_pi(2), gamma_pi_half(1), gamma_pi_half(2)])
def test_reduce_quotient_roundtrip(spec):
    rng = np.random.default_rng(16)
    sp, sq = spec.base_lattice.steps
    for _ in range(200):
        g = _rand_point(rng, 6.0)
        g0, motion = reduce_to_fundamental_domain(spec, g)
        assert 0 <= g0.p < sp + 1e-9 and 0 <= g0.q < sq + 1e-9
        if spec.kind == "gamma-pi":
            assert g0.q / 2 - 1e-9 <= g0.s < g0.q / 2 + 0.5 + 1e-9
        assert _close(motion_apply(motion, g0), g, 1e-9)


@pytest.mark.parametrize("spec", [gamma_pi(1), gamma_pi_half(1), gamma_pi_half(3)])
def test_reduce_constant_on_orbits(spec):
    # the representative must not depend on which orbit element we start from
    rng = np.random.default_rng(17)
    sp, sq = spec.base_lattice.steps
    gen = spec.generator
    for _ in range(100):
        g = _rand_point(rng, 3.0)
        g0, _ = reduce_to_fundamental_domain(spec, g)
        i, j, k = (int(v) for v in rng.integers(-3, 4, size=3))
        nu = PolarizedPoint(i * sp, j * sq, float(k))
        power = int(rng.integers(0, spec.index))
        gamma = motion_compose(translation_motion(nu), motion_power(gen, power))
        h0, _ = reduce_to_fundamental_domain(spec, motion_apply(gamma, g))
        assert _close(g0, h0, 1e-9)


def test_torsion_witness_half_turn_family():
    rng = np.random.default_rng(18)
    for l in (1, 2, 3):
        spec = gamma_pi(l)
        for _ in range(100):
            xi, ee, t = (int(v) for v in rng.integers(-6, 7, size=3))
            eta = 2 * l * ee
            g = PolarizedPoint(float(xi), float(eta), float(t))
            w = torsion_witness(g, spec)
            expected = 2 * t - xi * eta + 1
            assert abs(w.s - expected) <= 1e-9
            assert expected % 2 == 1 and expected != 0


def test_torsion_witness_quarter_turn_family():
    rng = np.random.default_rng(19)
    for l in (1, 2):
        spec = gamma_pi_half(l)
        w0 = math.sqrt(2.0 * l)
        for _ in range(100):
            a, b, t = (int(v) for v in rng.integers(-5, 6, size=3))
            g = PolarizedPoint(a * w0, b * w0, float(t))
            w = torsion_witness(g, spec)
            expected = 4 * t + 2 * l * (a - b) ** 2 + 1
            assert abs(w.s - expected) <= 1e-8
            assert expected % 4 in (1, 3) and expected != 0


def test_torsion_witness_rejects_nonlattice_point():
    with pytest.raises(ValueError):
        torsion_witness(PolarizedPoint(0.5, 0.0, 0.0), gamma_pi(1))


def _reference_reduction(spec, g):
    """reduce_to_fundamental_domain of a quotient with every coset motion taken by
    motion_power at the call, as it was before the motions were read from a table."""
    base, gen = spec.base_lattice, spec.generator

    def box(h):
        sp, sq = base.steps
        xi, eta = sp * math.floor(h.p / sp), sq * math.floor(h.q / sq)
        p0, q0 = h.p - xi, h.q - eta
        return xi, eta, p0, q0, h.s - xi * q0

    if spec.kind == "gamma-pi":
        best = None
        for k in (0, 1):
            xi, eta, p0, q0, s_shift = box(motion_apply(motion_power(gen, -k), g))
            w = s_shift - 0.5 * q0
            frac = w - math.floor(w)
            cand = (frac, k, xi, eta, p0, q0, s_shift)
            if frac < 0.5:
                best = cand
                break
            if best is None or frac < best[0]:
                best = cand
        _, k, xi, eta, p0, q0, s_shift = best
        m = math.floor(s_shift - 0.5 * q0)
        return (PolarizedPoint(p0, q0, s_shift - m),
                motion_compose(motion_power(gen, k),
                               translation_motion(PolarizedPoint(xi, eta, float(m)))))
    candidates = []
    for k in range(4):
        xi, eta, p0, q0, s_shift = box(motion_apply(motion_power(gen, -k), g))
        m = math.floor(s_shift)
        candidates.append(((p0, q0, s_shift - m), k, PolarizedPoint(xi, eta, float(m))))

    def lex_less(a, b, tol=1e-12):
        for u, v in zip(a, b):
            if u < v - tol:
                return True
            if u > v + tol:
                return False
        return False

    best = candidates[0]
    for cand in candidates[1:]:
        if lex_less(cand[0], best[0]):
            best = cand
    trip, k, nu = best
    return PolarizedPoint(*trip), motion_compose(motion_power(gen, k), translation_motion(nu))


@pytest.mark.parametrize("spec", [gamma_pi(1), gamma_pi(2), gamma_pi_half(1), gamma_pi_half(2),
                                  gamma_pi_half(3)])
def test_reduction_reads_the_coset_motions_with_their_bits(spec):
    # the sweeps of the roundtrip and orbit tests above: every (g0, motion) equals the
    # reference's, which builds each coset motion by motion_power, bit for bit
    sp, sq = spec.base_lattice.steps
    points = []
    for seed, scale in ((16, 6.0), (17, 3.0)):
        rng = np.random.default_rng(seed)
        points += [_rand_point(rng, scale) for _ in range(200)]
    rng = np.random.default_rng(17)
    for _ in range(100):
        g = _rand_point(rng, 3.0)
        i, j, k = (int(v) for v in rng.integers(-3, 4, size=3))
        gamma = motion_compose(translation_motion(PolarizedPoint(i * sp, j * sq, float(k))),
                               motion_power(spec.generator, int(rng.integers(0, spec.index))))
        points += [g, motion_apply(gamma, g)]
    for g in points:  # repr tells -0.0 from 0.0
        assert repr(reduce_to_fundamental_domain(spec, g)) == repr(_reference_reduction(spec, g))

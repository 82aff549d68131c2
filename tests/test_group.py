import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis_spectra.group import (
    BieberbachSpec,
    LatticeSpec,
    PolarizedPoint,
    RigidMotion,
    StandardPoint,
    SymplecticMap,
    apply_symplectic,
    gamma_pi,
    gamma_pi_half,
    identity_motion,
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
    standard_inverse,
    standard_mul,
    standard_rect,
    standard_to_polarized,
    symplectic_coords,
    torsion_witness,
    translation_motion,
)
from heis_spectra.group import _TURNS

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


def _rotation(theta):
    """The rotation (p, q) |-> (p cos - q sin, p sin + q cos) by theta as a symplectic map."""
    return SymplecticMap(math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta))


def _turn(r):
    """The motion i^r with no translation."""
    return RigidMotion(polarized_identity(), r)


def test_unitary_specializations():
    g = PolarizedPoint(1.3, -0.7, 2.1)
    assert _close(motion_apply(identity_motion(), g), g)
    h = motion_apply(_turn(2), g)
    assert _close(h, PolarizedPoint(-1.3, 0.7, 2.1))
    k = motion_apply(_turn(1), g)
    assert _close(k, PolarizedPoint(0.7, 1.3, 2.1 - 1.3 * (-0.7)))


def test_unitary_is_automorphism():
    # every rotation of U(1), not only the quarter turns
    rng = np.random.default_rng(10)
    for _ in range(500):
        u = _rotation(rng.uniform(0, 2 * math.pi))
        g, h = _rand_point(rng), _rand_point(rng)
        assert _close(apply_symplectic(u, polarized_mul(g, h)),
                      polarized_mul(apply_symplectic(u, g), apply_symplectic(u, h)), 1e-11)


def test_unitary_composition_matches_complex_multiplication():
    # the lifts compose as e^(i t1) e^(i t2), and the quarter turns add their counts
    rng = np.random.default_rng(11)
    for _ in range(200):
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        w = _rotation(t1 + t2)
        z = complex(math.cos(t1), math.sin(t1)) * complex(math.cos(t2), math.sin(t2))
        assert abs(w.A - z.real) <= TOL and abs(w.B - z.imag) <= TOL
        g = _rand_point(rng)
        assert _close(apply_symplectic(w, g),
                      apply_symplectic(_rotation(t1), apply_symplectic(_rotation(t2), g)), 1e-11)
        r1, r2 = (int(r) for r in rng.integers(0, 4, size=2))
        turns = motion_compose(_turn(r1), _turn(r2)).turns
        assert turns == (r1 + r2) % 4 and abs(1j**r1 * 1j**r2 - 1j**turns) <= TOL
        assert _close(motion_apply(_turn(turns), g),
                      motion_apply(_turn(r1), motion_apply(_turn(r2), g)), 1e-11)


def test_unitary_norm_validated():
    # a + ib off the unit circle is refused: a^2 + b^2 is the determinant of its map
    with pytest.raises(ValueError):
        SymplecticMap(1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("turns", [-1, 4, 5, 1.0, 2.5, "1", None])
def test_a_motion_refuses_turns_outside_zero_to_three(turns):
    with pytest.raises(ValueError, match="turns must be an integer in 0..3"):
        RigidMotion(polarized_identity(), turns)


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


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_scaling_map_keeps_the_bits_of_s(l):
    # B = C = 0, so the lift adds zero; the product form ((Aq + Bp)(Cq + Dp) - pq)/2
    # once moved s by an ulp at 2231 of these 10,000 points for l = 1
    rng = np.random.default_rng(40 + l)
    p, q, s = rng.uniform(-5.0, 5.0, (3, 10_000))
    s = np.concatenate([s, rng.normal(0.0, 1e6, 100), [0.0, 1e300, -1e-300]])
    p, q = (np.resize(v, s.size) for v in (p, q))
    assert symplectic_coords(scaling_map(l), p, q, s)[2].tobytes() == s.tobytes()


def test_the_quarter_turns_keep_their_bits():
    # i^r moves (p, q, s) to (p, q, s), (-q, p, s - pq), (-p, -q, s) and (q, -p, s - pq),
    # bit for bit at points off the axes
    rng = np.random.default_rng(44)
    p, q, s = rng.uniform(-5.0, 5.0, (3, 1000))
    want = ((p, q, s), (-q, p, s - p * q), (-p, -q, s), (q, -p, s - p * q))
    for turn, image in zip(_TURNS, want):
        assert np.stack(symplectic_coords(turn, p, q, s)).tobytes() == np.stack(image).tobytes()


def test_motion_semidirect_product_law():
    # (t1, U1)(t2, U2) = (t1 * U1(t2), U1 U2) and (t, U)^-1 = (U^-1(t^-1), U^-1): at
    # every angle, with (t, theta) moving g to t * U(g), and for the motions of the
    # program, whose angles are quarter turns
    def move(t, theta, g):
        return polarized_mul(t, apply_symplectic(_rotation(theta), g))

    rng = np.random.default_rng(14)
    for _ in range(300):
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        a, b, g = _rand_point(rng), _rand_point(rng), _rand_point(rng)
        assert _close(move(move(a, t1, b), t1 + t2, g), move(a, t1, move(b, t2, g)), 1e-10)
        inverse = apply_symplectic(_rotation(-t1), polarized_inverse(a))
        assert _close(move(move(a, t1, inverse), 0.0, g), g, 1e-10)
        r1, r2 = (int(r) for r in rng.integers(0, 4, size=2))
        m1, m2 = RigidMotion(a, r1), RigidMotion(b, r2)
        assert _close(motion_apply(motion_compose(m1, m2), g),
                      motion_apply(m1, motion_apply(m2, g)), 1e-10)
        assert _close(motion_apply(motion_compose(m1, motion_inverse(m1)), g), g, 1e-10)
        assert motion_compose(m1, motion_inverse(m1)).turns == 0


def test_phi_squares_to_central_translation():
    sq = motion_power(phi_generator(), 2)
    assert sq.turns == 0
    assert _close(sq.translation, PolarizedPoint(0.0, 0.0, 1.0), 0.0)


def test_psi_powers():
    psi = psi_generator()
    sq = motion_power(psi, 2)
    phi = phi_generator()
    assert sq.turns == phi.turns == 2
    assert _close(sq.translation, phi.translation, 0.0)
    fourth = motion_power(psi, 4)
    assert fourth.turns == 0
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
    assert motion.turns == 0


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


def _unitary_lift(a, b):
    """The float lift of the rotation (p, q) |-> (ap - bq, bp + aq), a^2 + b^2 = 1, as
    motions took it before they held quarter-turn counts: a reference for their bits."""
    def lift(g):
        p, q = g.p, g.q
        s = g.s + 0.5 * (a * b * (p * p - q * q) + (a * a - b * b - 1.0) * p * q)
        return PolarizedPoint(a * p - b * q, b * p + a * q, s)
    return lift


# the reference motions: (translation, (a, b)), moving g to translation * lift(g)
_REF_GENERATORS = {"gamma-pi": (PolarizedPoint(0.0, 0.0, 0.5), (-1.0, 0.0)),
                   "gamma-pi-half": (PolarizedPoint(0.0, 0.0, 0.25), (0.0, 1.0))}
_TURN_OF = {(1.0, 0.0): 0, (0.0, 1.0): 1, (-1.0, 0.0): 2, (0.0, -1.0): 3}  # a + ib = i^r


def _ref_apply(m, g):
    t, (a, b) = m
    return polarized_mul(t, _unitary_lift(a, b)(g))


def _ref_compose(m1, m2):
    (a1, b1), (a2, b2) = m1[1], m2[1]
    return _ref_apply(m1, m2[0]), (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)


def _ref_power(m, k):
    if k < 0:
        t, (a, b) = m
        return _ref_power((_unitary_lift(a, -b)(polarized_inverse(t)), (a, -b)), -k)
    out = (polarized_identity(), (1.0, 0.0))
    for _ in range(k):
        out = _ref_compose(out, m)
    return out


def _same_motion(m, ref):
    """Whether a motion equals a reference motion, its translation bit for bit."""
    return repr(m.translation) == repr(ref[0]) and m.turns == _TURN_OF[ref[1]]


def _sweep_points():
    """The points of the sweeps above, as floats, with their seeds and scales, and
    points of scale 1e6 and with signed zeros."""
    points = []
    for seed, scale in ((7, 5.0), (10, 5.0), (14, 5.0), (15, 8.0), (16, 6.0), (17, 3.0)):
        rng = np.random.default_rng(seed)
        points += [PolarizedPoint(*map(float, rng.uniform(-scale, scale, 3)))
                   for _ in range(200)]
    rng = np.random.default_rng(20)
    points += [PolarizedPoint(*map(float, rng.normal(0.0, 1e6, 3))) for _ in range(200)]
    points += [PolarizedPoint(p, q, s) for p in (0.0, -0.0, 1.5) for q in (0.0, -0.0, -2.5)
               for s in (0.0, -0.0, 0.75)]
    return points


def test_motions_keep_the_bits_of_the_float_lift():
    # at each quarter turn, behind no, a central and a general translation, and for
    # the powers k = -5..5 of both generators, repr telling -0.0 from 0.0
    points = _sweep_points()
    for r, rotation in enumerate(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))):
        for t in (PolarizedPoint(0.0, 0.0, 0.0), PolarizedPoint(0.0, 0.0, 0.25),
                  PolarizedPoint(1.25, -0.5, 3.0)):
            m = RigidMotion(t, r)
            for g in points:
                assert repr(motion_apply(m, g)) == repr(_ref_apply((t, rotation), g))
    for spec in (gamma_pi(1), gamma_pi_half(1)):
        for k in range(-5, 6):
            m, ref = motion_power(spec.generator, k), _ref_power(_REF_GENERATORS[spec.kind], k)
            assert _same_motion(m, ref), (spec.kind, k)
            for g in points[::10]:
                assert repr(motion_apply(m, g)) == repr(_ref_apply(ref, g))


def test_motion_coords_on_arrays_equals_motion_apply_bit_for_bit():
    rng = np.random.default_rng(21)
    p = np.concatenate([rng.uniform(-5, 5, 40), [0.0, -0.0, 1e6]])[:, None]
    q = np.concatenate([rng.uniform(-5, 5, 20), [0.0, -0.0]])[None, :]
    s = -0.0
    for r in range(4):
        for t in (PolarizedPoint(0.0, 0.0, 0.0), PolarizedPoint(1.25, -0.5, 3.0)):
            m = RigidMotion(t, r)
            got = np.stack(np.broadcast_arrays(*motion_coords(m, p, q, s)), axis=-1)
            want = np.array([[tuple(vars(motion_apply(m, PolarizedPoint(pi, qj, s))).values())
                              for qj in q[0].tolist()] for pi in p[:, 0].tolist()])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


_HUGE = st.floats(-1e300, 1e300)


@settings(max_examples=300, deadline=None, database=None)
@given(p=_HUGE, q=_HUGE, s=_HUGE)
@example(p=1e200, q=0.0, s=0.0)
@example(p=2e154, q=1.0, s=0.0)
@example(p=1e300, q=-1e300, s=1e300)
@example(p=1e300, q=1e8, s=0.0)
def test_the_generators_move_points_of_any_size(p, q, s):
    # phi(p, q, s) = (-p, -q, s + 1/2) and psi(p, q, s) = (-q, p, s - pq + 1/4), refused
    # only where that value is not a float
    g = PolarizedPoint(p, q, s)
    h = motion_apply(phi_generator(), g)
    assert (h.p, h.q, h.s) == (-p, -q, s + 0.5)
    want = (-q, p, s - p * q + 0.25)
    if math.isfinite(want[2]):
        k = motion_apply(psi_generator(), g)
        assert (k.p, k.q, k.s) == want
    else:
        with pytest.raises(ValueError, match="coordinates must be finite"):
            motion_apply(psi_generator(), g)


def _reference_reduction(spec, g):
    """reduce_to_fundamental_domain of a quotient with every coset motion a reference
    motion, taken by _ref_power at the call, as it was before motions held quarter-turn
    counts and were read from a table."""
    base, gen = spec.base_lattice, _REF_GENERATORS[spec.kind]

    def box(h):
        sp, sq = base.steps
        xi, eta = sp * math.floor(h.p / sp), sq * math.floor(h.q / sq)
        p0, q0 = h.p - xi, h.q - eta
        return xi, eta, p0, q0, h.s - xi * q0

    if spec.kind == "gamma-pi":
        best = None
        for k in (0, 1):
            xi, eta, p0, q0, s_shift = box(_ref_apply(_ref_power(gen, -k), g))
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
                _ref_compose(_ref_power(gen, k),
                             (PolarizedPoint(xi, eta, float(m)), (1.0, 0.0))))
    candidates = []
    for k in range(4):
        xi, eta, p0, q0, s_shift = box(_ref_apply(_ref_power(gen, -k), g))
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
    return PolarizedPoint(*trip), _ref_compose(_ref_power(gen, k), (nu, (1.0, 0.0)))


@pytest.mark.parametrize("spec", [gamma_pi(1), gamma_pi(2), gamma_pi_half(1), gamma_pi_half(2),
                                  gamma_pi_half(3)])
def test_reduction_reads_the_coset_motions_with_their_bits(spec):
    # the sweeps of the roundtrip and orbit tests above: every (g0, motion) equals the
    # reference's, which builds each coset motion from the float lift, bit for bit
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
        g0, motion = reduce_to_fundamental_domain(spec, g)
        ref_g0, ref_motion = _reference_reduction(spec, g)
        assert repr(g0) == repr(ref_g0) and _same_motion(motion, ref_motion)

"""Polarized Heisenberg group, its rotations, and the discrete subgroups.

Points carry polarized coordinates (p, q, s) with product

    (p, q, s) * (p', q', s') = (p + p', q + q', s + s' + p q'),

together with the standard-coordinate picture (x, y, t) where the center is
scaled by 4 and the two pictures are identified by (x, y, t) |-> (y, x, t/4 + xy/2).

Rigid motions combine a left translation with a rotation fixing the center.
The two torsion-free crystallographic groups used downstream are generated by
a lattice together with the half-turn ``phi`` or the quarter-turn ``psi``, so
every rotation is i^r: a motion holds its count r of quarter turns, composes
by adding counts mod 4, and moves points through the one lift of linear maps,
``symplectic_coords``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

_FINITE_MSG = "coordinates must be finite"


@dataclass(frozen=True)
class PolarizedPoint:
    p: float
    q: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q) and math.isfinite(self.s)):
            raise ValueError(_FINITE_MSG)


@dataclass(frozen=True)
class StandardPoint:
    x: float
    y: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.t)):
            raise ValueError(_FINITE_MSG)


def polarized_identity() -> PolarizedPoint:
    return PolarizedPoint(0.0, 0.0, 0.0)


def polarized_mul(g: PolarizedPoint, h: PolarizedPoint) -> PolarizedPoint:
    return PolarizedPoint(g.p + h.p, g.q + h.q, g.s + h.s + g.p * h.q)


def polarized_inverse(g: PolarizedPoint) -> PolarizedPoint:
    return PolarizedPoint(-g.p, -g.q, -g.s + g.p * g.q)


def standard_mul(g: StandardPoint, h: StandardPoint) -> StandardPoint:
    # Im(z zbar') = y x' - x y' for z = x + iy, z' = x' + iy'
    return StandardPoint(g.x + h.x, g.y + h.y, g.t + h.t + 2.0 * (g.y * h.x - g.x * h.y))


def standard_inverse(g: StandardPoint) -> StandardPoint:
    return StandardPoint(-g.x, -g.y, -g.t)


def standard_to_polarized(g: StandardPoint) -> PolarizedPoint:
    """Group isomorphism from the standard picture onto the polarized one."""
    return PolarizedPoint(g.y, g.x, g.t / 4.0 + g.x * g.y / 2.0)


@dataclass(frozen=True)
class SymplecticMap:
    """Determinant-one map of the (p, q) plane lifted to the group.

    (p, q, s) |-> (Cq + Dp, Aq + Bp, s + ((Aq + Bp)(Cq + Dp) - pq) / 2).
    """

    A: float
    B: float
    C: float
    D: float

    def __post_init__(self):
        if abs(self.A * self.D - self.B * self.C - 1.0) > 1e-12:
            raise ValueError("AD - BC must equal 1")


def symplectic_coords(m: SymplecticMap, p, q, s):
    """The map on coordinates: floats, or numpy arrays that broadcast together.

    As AD - BC = 1 the correction is also AC q^2/2 + BC pq + BD p^2/2, and every
    map takes it in that form, each coefficient applied before a coordinate: no
    product leaves the float range unless the image does, a half-turn and
    `scaling_map` (B = C = 0) add zero, and a quarter-turn adds -pq.
    """
    p_new = m.C * q + m.D * p
    q_new = m.A * q + m.B * p
    return p_new, q_new, s + (0.5 * m.A * m.C * q * q + m.B * m.C * p * q
                              + 0.5 * m.B * m.D * p * p)


def apply_symplectic(m: SymplecticMap, g: PolarizedPoint) -> PolarizedPoint:
    return PolarizedPoint(*symplectic_coords(m, g.p, g.q, g.s))


@functools.lru_cache(maxsize=64)
def scaling_map(l: int) -> SymplecticMap:
    """The rescaling (p, q, s) |-> (p / sqrt(2l), sqrt(2l) q, s).

    Carries the square lattice of width sqrt(2l) onto the rectangular lattice
    Z x 2lZ x Z, so square-lattice quotients can reuse rectangular machinery.
    The map is frozen, so one is built per l and shared by every point.
    """
    w = math.sqrt(2.0 * l)
    return SymplecticMap(A=w, B=0.0, C=0.0, D=1.0 / w)


# the quarter turns i^r, r = 0..3: (p, q) |-> (ap - bq, bp + aq) for a + ib = i^r
_TURNS = tuple(SymplecticMap(a, b, -b, a)
               for a, b in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))


@dataclass(frozen=True)
class RigidMotion:
    """Left translation after a quarter turn about the center: g |-> t * i^turns(g).

    The turn is the lift of a rotation by ``symplectic_coords``, so the group law
    is exact: turns add mod 4 under composition.
    """

    translation: PolarizedPoint
    turns: int

    def __post_init__(self):
        if not isinstance(self.turns, int) or not 0 <= self.turns <= 3:
            raise ValueError(f"turns must be an integer in 0..3, got {self.turns!r}")


def identity_motion() -> RigidMotion:
    return RigidMotion(polarized_identity(), 0)


def translation_motion(g: PolarizedPoint) -> RigidMotion:
    return RigidMotion(g, 0)


def motion_coords(m: RigidMotion, p, q, s):
    """The motion on coordinates: floats, or numpy arrays that broadcast together."""
    p, q, s = symplectic_coords(_TURNS[m.turns], p, q, s)
    t = m.translation
    return t.p + p, t.q + q, t.s + s + t.p * q


def motion_apply(m: RigidMotion, g: PolarizedPoint) -> PolarizedPoint:
    return PolarizedPoint(*motion_coords(m, g.p, g.q, g.s))


def motion_compose(m1: RigidMotion, m2: RigidMotion) -> RigidMotion:
    # (t1, U1)(t2, U2) = (t1 * U1(t2), U1 U2)
    return RigidMotion(motion_apply(m1, m2.translation), (m1.turns + m2.turns) % 4)


def motion_inverse(m: RigidMotion) -> RigidMotion:
    turns = -m.turns % 4
    return RigidMotion(apply_symplectic(_TURNS[turns], polarized_inverse(m.translation)), turns)


def motion_power(m: RigidMotion, k: int) -> RigidMotion:
    if k < 0:
        return motion_power(motion_inverse(m), -k)
    out = identity_motion()
    for _ in range(k):
        out = motion_compose(out, m)
    return out


def phi_generator() -> RigidMotion:
    """Half-turn with central offset 1/2; squares to the translation (0, 0, 1)."""
    return RigidMotion(PolarizedPoint(0.0, 0.0, 0.5), 2)


def psi_generator() -> RigidMotion:
    """Quarter-turn with central offset 1/4; its square is the half-turn motion."""
    return RigidMotion(PolarizedPoint(0.0, 0.0, 0.25), 1)


# ---------------------------------------------------------------------------
# discrete subgroups


@dataclass(frozen=True)
class LatticeSpec:
    """Discrete subgroup of translations.

    kind "standard-rect": Z x lZ x Z.
    kind "scaled-square": sqrt(2l)Z x sqrt(2l)Z x Z.
    """

    kind: str
    l: int

    def __post_init__(self):
        if self.kind not in ("standard-rect", "scaled-square"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if not isinstance(self.l, int) or self.l < 1:
            raise ValueError("l must be a positive integer")
        # steps, dual lattice and torus values are floats of the squared steps
        if max(self.squared_steps) > sys.float_info.max:
            raise ValueError(f"l is too large ({len(str(self.l))} digits): the squared steps "
                             f"of the {self.kind} lattice pass the largest float, about 1.8e308")

    @property
    def squared_steps(self) -> tuple[int, int]:
        """The squares (P, Q) of the generator steps along p and q: (1, l^2) or (2l, 2l)."""
        if self.kind == "standard-rect":
            return 1, self.l**2
        return 2 * self.l, 2 * self.l

    @property
    def steps(self) -> tuple[float, float]:
        """Generator step sizes along p and q."""
        P, Q = self.squared_steps
        return math.sqrt(P), math.sqrt(Q)

    @property
    def covering_width(self) -> int:
        """Width L of the rectangular lattice Z x LZ x Z this quotient indexes by.

        The square lattice is carried onto Z x 2lZ x Z by ``scaling_map``, so its
        eigenfunction bookkeeping uses width 2l.
        """
        return self.l if self.kind == "standard-rect" else 2 * self.l


def standard_rect(l: int) -> LatticeSpec:
    return LatticeSpec("standard-rect", l)


def scaled_square(l: int) -> LatticeSpec:
    return LatticeSpec("scaled-square", l)


@dataclass(frozen=True)
class BieberbachSpec:
    """Torsion-free crystallographic group: a lattice extended by phi or psi.

    kind "gamma-pi":      Z x 2lZ x Z extended by the half-turn, index 2.
    kind "gamma-pi-half": sqrt(2l)Z x sqrt(2l)Z x Z extended by the quarter-turn,
                          index 4.
    """

    kind: str
    l: int

    def __post_init__(self):
        if self.kind not in ("gamma-pi", "gamma-pi-half"):
            raise ValueError(f"unknown quotient kind {self.kind!r}")
        if not isinstance(self.l, int) or self.l < 1:
            raise ValueError("l must be a positive integer")
        self.base_lattice  # refuses an l too large for the lattice

    @property
    def base_lattice(self) -> LatticeSpec:
        if self.kind == "gamma-pi":
            return standard_rect(2 * self.l)
        return scaled_square(self.l)

    @property
    def generator(self) -> RigidMotion:
        return phi_generator() if self.kind == "gamma-pi" else psi_generator()

    @property
    def index(self) -> int:
        return 2 if self.kind == "gamma-pi" else 4


def gamma_pi(l: int) -> BieberbachSpec:
    return BieberbachSpec("gamma-pi", l)


def gamma_pi_half(l: int) -> BieberbachSpec:
    return BieberbachSpec("gamma-pi-half", l)


def lattice_contains(spec: LatticeSpec, g: PolarizedPoint, tol: float = 1e-9) -> bool:
    """Whether g lies in the lattice, testing each coordinate within tol."""
    sp, sq = spec.steps
    return (
        abs(g.p - sp * round(g.p / sp)) <= tol
        and abs(g.q - sq * round(g.q / sq)) <= tol
        and abs(g.s - round(g.s)) <= tol
    )


def _box_reduce(spec: LatticeSpec, g: PolarizedPoint):
    """Write g = nu * g0 with nu in the lattice and (p0, q0) in the base box.

    The s coordinate of the quotient representative shifts by xi*q0 under the
    left translation, so it is normalized after the horizontal reduction.
    """
    sp, sq = spec.steps
    xi = sp * math.floor(g.p / sp)
    eta = sq * math.floor(g.q / sq)
    p0 = g.p - xi
    q0 = g.q - eta
    s_shift = g.s - xi * q0
    return xi, eta, p0, q0, s_shift


@functools.cache
def _coset_motions(kind: str) -> tuple[tuple[RigidMotion, ...], tuple[RigidMotion, ...]]:
    """(powers, inverse powers): motion_power(gen, k) and motion_power(gen, -k) for
    k below the index, of the generator of a quotient kind.  Motions are frozen, so
    one table per kind is shared by every reduction."""
    spec = BieberbachSpec(kind, 1)
    ks = range(spec.index)
    return (tuple(motion_power(spec.generator, k) for k in ks),
            tuple(motion_power(spec.generator, -k) for k in ks))


def reduce_to_fundamental_domain(spec, g: PolarizedPoint):
    """Reduce g into a fundamental domain of the given discrete group.

    Returns ``(g0, motion)`` with ``motion_apply(motion, g0) == g`` and motion in
    the group. For a plain lattice the domain is the coordinate box; for the
    extended groups the coset representative is chosen first and the lattice
    reduction applied inside it.
    """
    if isinstance(spec, LatticeSpec):
        xi, eta, p0, q0, s_shift = _box_reduce(spec, g)
        m = math.floor(s_shift)
        g0 = PolarizedPoint(p0, q0, s_shift - m)
        return g0, translation_motion(PolarizedPoint(xi, eta, float(m)))
    if not isinstance(spec, BieberbachSpec):
        raise TypeError("spec must be a LatticeSpec or BieberbachSpec")

    base = spec.base_lattice
    powers, inverses = _coset_motions(spec.kind)
    if spec.kind == "gamma-pi":
        # domain: 0 <= p < 1, 0 <= q < 2l, q/2 <= s < (q+1)/2; exactly one of
        # the two coset candidates lands there (up to the boundary)
        best = None
        for k in (0, 1):
            h = motion_apply(inverses[k], g)
            xi, eta, p0, q0, s_shift = _box_reduce(base, h)
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
        g0 = PolarizedPoint(p0, q0, s_shift - m)
        nu = PolarizedPoint(xi, eta, float(m))
        motion = motion_compose(powers[k], translation_motion(nu))
        return g0, motion

    # quarter-turn quotient: box-reduce all four coset candidates and keep the
    # lexicographically smallest triple (ties broken toward smaller k)
    candidates = []
    for k in range(4):
        h = motion_apply(inverses[k], g)
        xi, eta, p0, q0, s_shift = _box_reduce(base, h)
        m = math.floor(s_shift)
        candidates.append(((p0, q0, s_shift - m), k, PolarizedPoint(xi, eta, float(m))))

    def _lex_less(a, b, tol=1e-12):
        for u, v in zip(a, b):
            if u < v - tol:
                return True
            if u > v + tol:
                return False
        return False

    best_trip, best_k, best_nu = candidates[0]
    for trip, k, nu in candidates[1:]:
        if _lex_less(trip, best_trip):
            best_trip, best_k, best_nu = trip, k, nu
    g0 = PolarizedPoint(*best_trip)
    motion = motion_compose(powers[best_k], translation_motion(best_nu))
    return g0, motion


def torsion_witness(g: PolarizedPoint, spec: BieberbachSpec, tol: float = 1e-9) -> PolarizedPoint:
    """Central translation certifying that g * generator has no torsion.

    For a lattice element g, (g * generator)^index is a pure central translation
    (0, 0, k) with k a nonzero integer; the witness point is returned."""
    if not lattice_contains(spec.base_lattice, g, tol):
        raise ValueError("g is not an element of the base lattice")
    gamma = motion_compose(translation_motion(g), spec.generator)
    power = motion_power(gamma, spec.index)
    if power.turns != 0:
        raise AssertionError("power of the motion failed to be a translation")
    w = power.translation
    if abs(w.p) > tol or abs(w.q) > tol:
        raise AssertionError("power of the motion failed to be central")
    return w

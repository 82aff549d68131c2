"""Correctness checks made apart from the program.

Every checker takes an operation's parameters and its output (file text or
returned values) and returns a list of problems; an empty list means the output
passed.  The expected values come from formulas written here, not from the
program: closed-form eigenvalues, the lattice quasi-periodicity of
Weil-Brezin eigenfunctions, a finite-difference stencil for the operator,
McClellan-Parks DFT multiplicities, integer lattice-point counts and
closed-form oscillator pair sums.  The one place the program is consulted is
the operator residual, which needs values off the grid; those come from the
same public function the CLI calls, and the grid value at the sampled point
must equal it.
"""

from __future__ import annotations

import json
import math

import numpy as np

PI2 = math.pi * math.pi
SUITES = ("group", "hermite", "weil-brezin", "pullback", "dims", "characters", "gauss",
          "spectrum", "weyl")


# ---------------------------------------------------------------------------
# closed forms


def eigenvalue(n: int, lam: int, alpha: float) -> float:
    """Oscillator eigenvalue (pi |n| / 2)(2 lam + 1 - alpha sgn n)."""
    return (math.pi * abs(n) / 2.0) * (2 * lam + 1 - alpha * (1 if n > 0 else -1))


def steps(manifold: str, l: int) -> tuple[float, float]:
    """Lattice steps in p and q: Z x lZ (nl) or sqrt(2l)Z x sqrt(2l)Z (nprime)."""
    if manifold == "nl":
        return 1.0, float(l)
    w = math.sqrt(2.0 * l)
    return w, w


def volume(manifold: str, l: int) -> float:
    return {"nl": l, "nprime": 2 * l, "gamma-pi": l, "gamma-pi2": l / 2}[manifold]


def weyl_target(manifold: str, l: int, alpha: float) -> float:
    """vol * A_alpha with A_alpha = 1/(2 cos^2(pi alpha / 2)), and A_{+-1} = 1/6."""
    if abs(alpha) == 1.0:
        return volume(manifold, l) / 6.0
    return volume(manifold, l) / (2.0 * math.cos(math.pi * alpha / 2.0) ** 2)


# McClellan-Parks: the unitary DFT of size N has eigenvalue multiplicities
# floor((N + c)/4) + d for the four classes r = 0..3
_MP = ((0, 1), (1, 0), (2, 0), (-1, 0))


def mp_multiplicity(N: int, r: int) -> int:
    c, d = _MP[r]
    return (N + c) // 4 + d


def psi_class(n: int, lam: int) -> int:
    """Eigenvalue class of the quarter-turn sector: (n+lam) mod 4, or -(n+3lam) mod 4."""
    return (n + lam) % 4 if n > 0 else (-(n + 3 * lam)) % 4


def dim_psi(n: int, lam: int, l: int) -> int:
    return mp_multiplicity(2 * l * abs(n), psi_class(n, lam))


def dim_phi(n: int, lam: int, l: int) -> int:
    """The half-turn is +-(index reversal) on Z/N: its eigenspaces have N/2 +- 1."""
    N = 2 * l * abs(n)
    return N // 2 + 1 if (n + lam) % 2 == 0 else N // 2 - 1


def generator_image(manifold: str, p: float, q: float, s: float) -> tuple[float, float, float]:
    """Image of (p, q, s) under the half-turn (gamma-pi) or quarter-turn (gamma-pi2)."""
    if manifold == "gamma-pi":
        return -p, -q, s + 0.5
    return -q, p, s - p * q + 0.25


# ---------------------------------------------------------------------------
# counting


def _row_count(i2: float, m2: float, t: float) -> int:
    """Number of integers k with pi^2 (i2 + (k m2)^2) <= t."""
    r = t / PI2 - i2
    if r < 0:
        return 0
    k = int(math.sqrt(r) / m2)
    while PI2 * (i2 + ((k + 1) * m2) ** 2) <= t:
        k += 1
    while k >= 0 and PI2 * (i2 + (k * m2) ** 2) > t:
        k -= 1
    return 2 * k + 1 if k >= 0 else 0


def torus_count(manifold: str, l: int, t: float) -> int:
    """Nonzero dual-lattice points with pi^2 (mu^2 + nu^2) <= t, counted row by row;
    the crystallographic quotients count free orbits of the rotation."""
    if manifold in ("nl", "gamma-pi"):
        m1, m2 = 1.0, 1.0 / (l if manifold == "nl" else 2 * l)
    else:
        m1 = m2 = 1.0 / math.sqrt(2.0 * l)
    imax = int(math.sqrt(t) / (math.pi * m1)) + 1
    total = sum(_row_count((i * m1) ** 2, m2, t) for i in range(-imax, imax + 1)) - 1
    return total // {"nl": 1, "nprime": 1, "gamma-pi": 2, "gamma-pi2": 4}[manifold]


def _classes_sum(l: int, M: int, r_of_residue) -> int:
    """Sum over m = 1..M of mp_multiplicity(2lm, r(m mod 4)), in closed form per class."""
    total = 0
    for j in range(4):
        first = j or 4
        if first > M:
            continue
        cnt = (M - first) // 4 + 1
        msum = cnt * first + 2 * cnt * (cnt - 1)
        c, d = _MP[r_of_residue(j)]
        e = (2 * l * first + c) % 4  # the same for every m in the class
        total += (2 * l * msum + (c - e) * cnt) // 4 + d * cnt
    return total


def oscillator_count(manifold: str, l: int, alpha: float, t: float) -> int:
    """Sum of multiplicities over (n, lam) with eigenvalue in (0, t], per level lam."""
    total = 0
    for sgn in (1, -1):
        lam = 0
        while (math.pi / 2.0) * (2 * lam + 1 - alpha * sgn) <= t:
            base = (math.pi / 2.0) * (2 * lam + 1 - alpha * sgn)
            if base > 0:
                M = int(math.floor(t / base))
                tri = M * (M + 1) // 2
                if manifold == "nl":
                    total += l * tri
                elif manifold == "nprime":
                    total += 2 * l * tri
                elif manifold == "gamma-pi":
                    # l m + 1 when m + lam is even, l m - 1 when odd
                    alt = -(M % 2) if lam % 2 == 0 else M % 2
                    total += l * tri + alt
                elif sgn > 0:
                    total += _classes_sum(l, M, lambda j: (j + lam) % 4)
                else:
                    total += _classes_sum(l, M, lambda j: (j - 3 * lam) % 4)
            lam += 1
    return total


# ---------------------------------------------------------------------------
# checkers


def _parse_grid(text: str):
    lines = text.splitlines()
    head = lines[1].lstrip("# ").split()
    fields = dict(item.split("=", 1) for item in head)
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[3:]])
    return fields, rows


def check_grid(params: dict, text: str, evaluate=None) -> list[str]:
    """Eigenfunction grid: geometry, finiteness, periods, phase, operator residual.

    ``evaluate(p, q, s)`` gives the eigenfunction off the grid for the residual
    check; without it that check is skipped.
    """
    n, lam, g = params["n"], params["lam"], params["grid"]
    sp, sq = steps(params["manifold"], params["l"])
    try:
        fields, rows = _parse_grid(text)
    except (ValueError, IndexError) as exc:
        return [f"unparsable grid: {exc}"]
    problems = []
    E = eigenvalue(n, lam, params["alpha"])
    if abs(float(fields["eigenvalue"]) - E) > 1e-12 * E:
        problems.append(f"eigenvalue {fields['eigenvalue']} != {E!r}")
    if rows.shape != (4 * g**3, 5):
        return problems + [f"grid has shape {rows.shape}, expected {(4 * g**3, 5)}"]
    i, k, m = np.meshgrid(np.arange(2 * g), np.arange(g), np.arange(2 * g), indexing="ij")
    expect = np.stack([i * sp / g, k * sq / g, m / g], axis=-1).reshape(-1, 3)
    if np.max(np.abs(rows[:, :3] - expect)) > 1e-12 * max(sp, sq):
        problems.append("grid coordinates are not the uniform two-period grid")
    f = (rows[:, 3] + 1j * rows[:, 4]).reshape(2 * g, g, 2 * g)
    if not np.all(np.isfinite(f)):
        return problems + [f"{np.count_nonzero(~np.isfinite(f))} non-finite values"]
    scale = float(np.max(np.abs(f)))
    # a grid can sit on the zeros of a function; off-grid values set the scale then
    rng = np.random.default_rng(0)
    probes = [(u * 2 * sp, v * sq, w) for u, v, w in rng.random((3, 3))]
    off = [evaluate(*pt) for pt in probes] if evaluate is not None else []
    scale = max([scale] + [abs(v) for v in off])
    if scale == 0.0:
        return problems + ["eigenfunction vanishes everywhere it was evaluated"]
    tol = 1e-9 * scale
    q = np.arange(g) * sq / g
    s = np.arange(2 * g) / g
    # lattice invariance f((sp,0,0) x) = f(x) reads f(p + sp, q, s) = e^{-2 pi i n sp q} f(p, q, s)
    quasi = np.exp(-2j * math.pi * n * sp * q)[None, :, None] * f[:g]
    if np.max(np.abs(f[g:] - quasi)) > tol:
        problems.append("second period in p does not repeat the first")
    if np.max(np.abs(f[:, :, g:] - f[:, :, :g])) > tol:
        problems.append("second period in s does not repeat the first")
    phase = np.exp(2j * math.pi * n * s)[None, None, :] * f[:, :, :1]
    if np.max(np.abs(f - phase)) > tol:
        problems.append("f(p,q,s) != e^{2 pi i n s} f(p,q,0)")
    if evaluate is None:
        return problems
    flat = np.abs(f).ravel()
    for at in np.argsort(-flat, kind="stable")[:3]:
        ii, kk, mm = np.unravel_index(at, f.shape)
        pt = (ii * sp / g, kk * sq / g, mm / g)
        if abs(evaluate(*pt) - f[ii, kk, mm]) > 1e-12 * scale:
            problems.append(f"grid value at {pt} differs from the library value")
    # the residual is measured against the size of the operator's two parts, since
    # E itself nearly vanishes at lam = 0 and alpha sgn n close to 1
    size = (math.pi * abs(n) / 2.0) * (2 * lam + 1 + abs(params["alpha"])) * scale
    for pt, f0 in zip(probes, off):
        resid = abs(folland_stein(evaluate, params["alpha"], *pt) - E * f0)
        if resid > 1e-2 * size:
            problems.append(f"operator residual {resid / size:.2e} at {pt}")
    return problems


def folland_stein(f, alpha: float, p: float, q: float, s: float, h: float = 1e-4) -> complex:
    """L_alpha f = (1/4)(-(P^2 + Q^2) + i alpha S), P = d/dp, Q = d/dq + p d/ds, S = d/ds,
    by central differences."""
    f0 = f(p, q, s)
    d2p = (f(p + h, q, s) - 2 * f0 + f(p - h, q, s)) / h**2
    d2q = (f(p, q + h, s) - 2 * f0 + f(p, q - h, s)) / h**2
    fp, fm = f(p, q, s + h), f(p, q, s - h)
    d2s = (fp - 2 * f0 + fm) / h**2
    dqs = (f(p, q + h, s + h) - f(p, q + h, s - h) - f(p, q - h, s + h)
           + f(p, q - h, s - h)) / (4 * h * h)
    return 0.25 * (-(d2p + d2q + 2 * p * dqs + p * p * d2s) + 1j * alpha * (fp - fm) / (2 * h))


def check_invariant(params: dict, result) -> list[str]:
    """Invariant combinations: basis size, generator images, f(gamma x) = f(x)."""
    points, images, values, image_values = result
    manifold, n, lam, l = params["manifold"], params["n"], params["lam"], params["l"]
    problems = []
    dim = (dim_phi if manifold == "gamma-pi" else dim_psi)(n, lam, l)
    if params["dim"] != dim:
        problems.append(f"invariant basis of size {params['dim']}, expected {dim}")
    for x, y in zip(points, images):
        if max(abs(u - v) for u, v in zip(generator_image(manifold, *x), y)) > 1e-12:
            problems.append(f"generator image of {x} is {y}")
            break
    if values.size == 0 or not (np.all(np.isfinite(values)) and np.all(np.isfinite(image_values))):
        return problems + ["missing or non-finite values"]
    scale = float(np.max(np.abs(values)))
    err = float(np.max(np.abs(image_values - values)))
    if err > 1e-8 * scale:
        problems.append(f"f(gamma x) - f(x) reaches {err:.2e} (scale {scale:.2e})")
    return problems


def check_dims(params: dict, text: str) -> list[str]:
    """Every row agrees, and `closed` equals the benchmark's own multiplicity formula."""
    manifold, l = params["manifold"], params["l"]
    dim = dim_phi if manifold == "gamma-pi" else dim_psi
    lines = text.splitlines()
    if not lines or lines[0] != "n,lambda,closed,oracle,character,agree":
        return ["missing header"]
    want = [(n, lam) for n in params["ns"] for lam in range(params["lmax"] + 1)]
    problems = []
    got = []
    for line in lines[1:]:
        n, lam, closed, oracle, char, agree = line.split(",")
        n, lam = int(n), int(lam)
        got.append((n, lam))
        expect = dim(n, lam, l)
        if agree != "true" or not int(closed) == int(oracle) == int(char) == expect:
            problems.append(f"row {line!r}: expected {expect} on every route")
    if got != want:
        problems.append(f"{len(got)} rows for {len(want)} requested (n, lambda) pairs")
    return problems


def _count(manifold: str, l: int, alpha: float, t: float) -> tuple[int, int]:
    return oscillator_count(manifold, l, alpha, t), torus_count(manifold, l, t)


def check_weyl(params: dict, text: str) -> list[str]:
    """Counts per sample against the closed-form pair sums and lattice-point counts;
    the target against vol / (2 cos^2(pi alpha / 2))."""
    manifold, l, alpha = params["manifold"], params["l"], params["alpha"]
    lines = text.splitlines()
    problems = []
    try:
        target = float(lines[0].rsplit("target=", 1)[1])
        start = 2 if lines[1].startswith("#") else 1
        rows = [line.split(",") for line in lines[start + 1:]]
    except (IndexError, ValueError) as exc:
        return [f"unparsable weyl table: {exc}"]
    expect = weyl_target(manifold, l, alpha)
    if not abs(target - expect) <= 1e-9 * expect:
        problems.append(f"target {target!r} != {expect!r}")
    S, tmin, tmax = params["samples"], params["tmin"], params["tmax"]
    if len(rows) != S:
        return problems + [f"{len(rows)} samples, expected {S}"]
    for j, row in enumerate(rows):
        t = float(row[0])
        t_expect = tmin * (tmax / tmin) ** (j / (S - 1))
        if abs(t - t_expect) > 1e-12 * t_expect:
            problems.append(f"sample {j} at t={t!r}, expected {t_expect!r}")
            break
        osc, tor = _count(manifold, l, alpha, t)
        if (int(row[1]), int(row[2]), int(row[3])) != (osc, tor, osc + tor):
            problems.append(f"counts {row[1:4]} at t={t!r}, expected {[osc, tor, osc + tor]}")
            break
        if abs(float(row[4]) - (osc + tor) / t**2) > 1e-12 * max(1.0, float(row[4])):
            problems.append(f"ratio column wrong at t={t!r}")
            break
    return problems


def check_spectrum(params: dict, text: str) -> list[str]:
    """Values positive, sorted and at most tmax; oscillator values by formula; the
    summed multiplicities equal the independent count N(tmax)."""
    manifold, l, alpha, tmax = params["manifold"], params["l"], params["alpha"], params["tmax"]
    try:
        if params["format"] == "json":
            lines = json.loads(text)["lines"]
            entries = [(ln["value"], ln["multiplicity"], ln["origin"].get("n"),
                        ln["origin"].get("lambda")) for ln in lines]
        else:
            rows = [line.split(",") for line in text.splitlines()[1:]]
            entries = [(float(r[0]), int(r[1]), int(r[3]) if r[3] else None,
                        int(r[4]) if r[4] else None) for r in rows]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable spectrum: {exc}"]
    problems = []
    values = [e[0] for e in entries]
    if values != sorted(values) or (values and not 0 < values[0] <= values[-1] <= tmax):
        problems.append("values are not sorted inside (0, tmax]")
    for value, mult, n, lam in entries:
        if mult < 1:
            problems.append(f"line {value!r} has multiplicity {mult}")
            break
        if n is not None and abs(value - eigenvalue(n, lam, alpha)) > 1e-12 * value:
            problems.append(f"oscillator line (n={n}, lambda={lam}) has value {value!r}")
            break
    total = sum(e[1] for e in entries)
    osc, tor = _count(manifold, l, alpha, tmax)
    if total != osc + tor:
        problems.append(f"multiplicities sum to {total}, expected {osc + tor}")
    return problems


def check_verify(text: str) -> list[str]:
    """Every one of the nine suites reports PASS."""
    status = {}
    for line in text.splitlines():
        head, _, rest = line.partition(": ")
        if head.startswith("suite "):
            status[head[6:]] = rest.split(" ", 1)[0]
    return [f"suite {name}: {status.get(name, 'missing')}"
            for name in SUITES if status.get(name) != "PASS"]

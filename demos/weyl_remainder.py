"""
The Weyl remainder at large t
=============================

N(t) approaches A_alpha vol t^2.  The remainder R(t) = N(t) - A_alpha vol t^2
is exact integer counting minus the Weyl term, so it can be followed far out:
the counting core takes the whole grid of samples at once.  Here it runs to
t = 1e6 on all four quotients, and the exponent of |R(t)| is fitted on a
log-log scale, once on the samples and once on their running maximum, which
smooths the sign changes.  Compare R. S. Strichartz, "Spectral asymptotics on
compact Heisenberg manifolds", J. Geom. Anal. 26 (2016).
"""

import time

import numpy as np

from heis_spectra import (
    counting_function,
    default_tgrid,
    gamma_pi,
    gamma_pi_half,
    scaled_square,
    standard_rect,
    volume,
    weyl_constant,
)

ALPHA = 0.3
TGRID = default_tgrid(25, 1e2, 1e6)
A = weyl_constant(ALPHA).value
print(f"alpha = {ALPHA}, A_alpha = {A:.12f}, {len(TGRID)} samples from 1e2 to 1e6")

for manifold in (standard_rect(1), scaled_square(1), gamma_pi(1), gamma_pi_half(1)):
    start = time.perf_counter()
    series = counting_function(manifold, ALPHA, TGRID)
    elapsed = time.perf_counter() - start
    target = A * volume(manifold)
    t = np.array(series.t)
    remainder = np.array([count - target * s * s for s, count in zip(series.t, series.counts)])
    print(f"\n{manifold.kind}(l={manifold.l}), volume {volume(manifold)}, "
          f"counted in {elapsed:.2f} s")
    print("          t             N(t)          R(t)      R(t)/t")
    for s, count, r in list(zip(t, series.counts, remainder))[::4]:
        print(f"{s:11.4g} {count:16d} {r:13.4g} {r / s:11.4f}")
    # the sign changes make log|R| ragged; its running maximum is the envelope
    slope = np.polyfit(np.log(t), np.log(np.abs(remainder)), 1)[0]
    envelope = np.polyfit(np.log(t), np.log(np.maximum.accumulate(np.abs(remainder))), 1)[0]
    print(f"log-log slope of |R(t)|: {slope:.3f}, of its running maximum: {envelope:.3f}")

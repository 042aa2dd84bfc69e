"""Width-c batched replay: cost coefficients and chunk-lag estimators.

Batched replay processes c independent input sets (a c-row block of draws)
per application.  The quality of the batching is summarized by two
measured coefficients:

    K_F = c * (batched forward time per path) / (scalar forward time per path)
    K_R = likewise for the reverse sweep

A perfectly parallel replay would score 1; the coefficients are measured,
never assumed (they depend entirely on the machine and the replay engine).
Scalar replay is a one-lane block replay, so one loop times both: forward
then reverse replays over consecutive c-row slices through one reused
buffer, at c = 1 on the first 256 paths and at width c on all of them.
"""

import numpy as np

import mcadjoint as mc
from mcadjoint.estimators import measure_correction_coefficients

spec, curve = mc.default_fixture()
tape = mc.build_model_tape(spec, curve)
paths = mc.generate(seed=11, n_paths=8192, n_inputs=5)

for width in (1, 8, 64, 512):
    rep = measure_correction_coefficients(tape, curve.knot_vols, paths, width,
                                          repeats=3)
    if rep.degenerate:
        print(f"c={width:>4}: K_F = K_R = 1 by definition (degenerate width)")
        continue
    print(f"c={width:>4}: K_F={rep.k_f:7.3f}  K_R={rep.k_r:7.3f}   "
          f"scalar F {rep.t_scalar_f_us:6.1f} us/path vs batched "
          f"{rep.t_batched_f_us:6.2f} us/path")

# grad_est_batched runs the estimators as if c paths were evaluated at a
# time.  For the lagged algorithms the seed source moves to chunk
# granularity (lane l of chunk t is seeded from lane l of chunk t-1, or
# from the mean over all earlier chunks), so chunk 0 is forward-only and
# the batched estimate is a /different/ unbiased draw than the scalar one.
# Algorithm 1's seeds are path-independent, so there the two coincide.
# Either way the paths run through the same block engine.
print("\nchunk-lag batched estimates at c=8 vs the scalar algorithms:")
for alg, fn in [(1, mc.grad_est1), (2, mc.grad_est2), (3, mc.grad_est3)]:
    scalar = fn(tape, curve.knot_vols, paths, spec.prices)
    batched = mc.grad_est_batched(alg, tape, curve.knot_vols, paths,
                                  spec.prices, width=8)
    gap_se = np.abs(batched.grad - scalar.grad) / np.sqrt(scalar.variance
                                                          + batched.variance)
    print(f"  alg {alg}: f/r = {batched.f_evals}/{batched.r_evals}, "
          f"max |difference| = {gap_se.max():.2f} combined standard errors")

"""The complete two-iteration outcome atlas.

Two iterations involve three measurements, so at 50 Fock levels there are
50^3 = 125,000 outcome sequences. This enumerates all of them exactly and
answers: how lucky do you have to be? The cumulative curves trade success
probability against output quality.
"""

import numpy as np

from qpbreed import (
    FockConfig,
    default_target,
    effective_squeezing_curve,
    enumerate_two_iterations,
    probability_fidelity_curve,
    sign_aggregated,
)

cfg = FockConfig()
probability, fid, delta = enumerate_two_iterations(cfg, target=default_target(cfg))

print(f"enumerated {probability.size} outcome sequences "
      f"(total probability {probability.sum():.10f})")

# arrays are indexed [q1, q2, p]; nan fidelities (underflowed leaves) sort last
best = np.unravel_index(np.argsort(-fid, axis=None, kind="stable")[:5], fid.shape)
print("\nhighest-fidelity sequences (probability aggregates the mirror-sign twins):")
print(f"{'q1':>4} {'q2':>4} {'p':>4} {'fidelity':>9} {'probability':>12} {'squeezing':>10}")
for leaf in zip(*best):
    print(f"{leaf[0]:4d} {leaf[1]:4d} {leaf[2]:4d} {fid[leaf]:9.4f} "
          f"{sign_aggregated(probability[leaf], 3):12.5f} {delta[leaf]:10.4f}")

print("\nprobability of doing at least this well:")
for threshold, cumulative in probability_fidelity_curve(probability, fid, [0.94, 0.96, 0.98]):
    print(f"  fidelity >= {threshold:.2f}: {100 * cumulative:6.2f}%")
for bound, cumulative in effective_squeezing_curve(probability, delta, [0.36, 0.40, 0.46]):
    print(f"  squeezing <= {bound:.2f}: {100 * cumulative:6.2f}%")

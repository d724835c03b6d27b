"""One breeding step, narrated.

Two copies of the binomial input state go through a balanced beamsplitter;
a homodyne detector measures the q quadrature of the first output mode.
The script prints the outcome distribution's labeled peaks and shows how
much closer to the grid-state target each post-selected outcome lands.
"""

from qpbreed import (
    FockConfig,
    breed_step,
    default_input,
    default_target,
    effective_squeezing,
    fidelity,
    label_peaks,
    quadrature_basis,
)
from qpbreed.homodyne import OutcomeDistribution

cfg = FockConfig()
psi0 = default_input(cfg)
target = default_target(cfg)

print(f"input state: fidelity to target {fidelity(psi0, target):.4f}, "
      f"effective squeezing {effective_squeezing(cfg, psi0):.4f}")

probs, posts = breed_step(psi0, psi0, "q", cfg)
basis = quadrature_basis(cfg, "q")
dist = label_peaks(
    OutcomeDistribution(axis="q", eigenvalues=basis.eigenvalues, probabilities=probs)
)

print("\nlabeled peaks of the first measurement:")
print(f"{'label':>10} {'index':>6} {'q/sqrt(2 pi)':>13} {'probability':>12} "
      f"{'fidelity':>9} {'squeezing':>10}")
for index in sorted(dist.peak_labels):
    label = dist.peak_labels[index]
    post = posts[index]
    print(f"{label:>10} {index:6d} {dist.rescaled_outcomes[index]:13.3f} "
          f"{probs[index]:12.5f} {fidelity(post, target):9.4f} "
          f"{effective_squeezing(cfg, post):10.4f}")

peak_total = sum(probs[i] for i in dist.peak_labels)
print(f"\nall labeled peaks together carry probability {peak_total:.4f}")
print("one step is not enough: even the central outcome only reaches "
      f"fidelity {fidelity(posts[24], target):.3f} - the second "
      "iteration (see 02_deep_chains.py) is where the grid emerges")

"""Running the quantum classifier on individual Boolean functions.

The classifier for a basis recipe is a tensor product of the 2x2
Hadamard H (for each B1 factor) and the 4x4 transform C2 (for each Q2
factor).  Fed the sign vector of a function h, it concentrates the
measurement probability on the basis kets nearest to h in Hamming
distance; the classification threshold theta is the total probability
landing on those nearest kets.
Run with: python demos/02_classify_functions.py
"""

import numpy as np

from basisket import (
    ClassifierSpec,
    PatternVector,
    apply_classifier,
    classification_threshold,
    dense_unitary,
    outcome_distribution,
)

spec = ClassifierSpec.parse("C2,C2")
basis = spec.basis()
print(f"classifier {spec} acts on {spec.total_bits} bits "
      f"({spec.dim}-dimensional state)")

# A class member measures as its own ket with probability 1.
member3 = basis.members[3]
probs = outcome_distribution(spec, member3)
print(f"\nmember r3 = {member3}")
print(f"P(outcome 3) = {probs[3]:.12f} (exact classification)")

# One flipped bit away from r0 the nearest ket still dominates.
h = PatternVector.parse("0000000100011110")
report = classification_threshold(spec, h)
print(f"\nh = {h} (one bit away from r0)")
print(f"distance {report.nearest.distance}, "
      f"nearest kets {sorted(report.nearest.indices)}, "
      f"theta = {report.theta}")  # exactly (7/8)**2 = 0.765625

print("\noutcome distribution:")
for i, p in enumerate(report.distribution):
    bar = "#" * round(60 * p)
    print(f"  |{i:2d}> = |{format(i, '04b')}>  {p:8.6f} {bar}")

# The all-ones function sits at the uniform zero-count distance rho = 10
# from every member, and the threshold spikes back to exactly 1.
ones = PatternVector.parse("1" * 16)
report = classification_threshold(spec, ones)
print(f"\nall-ones: distance {report.nearest.distance}, "
      f"theta = {report.theta:.12f} "
      f"(spread over all {len(report.nearest.indices)} kets)")

# The in-place butterfly path agrees with the explicit Kronecker matrix.
g = dense_unitary(spec)
v = np.random.default_rng(0).standard_normal(spec.dim)
v /= np.linalg.norm(v)
fast = apply_classifier(spec, v.copy())
print(f"\nmax |fast - dense| on a random state: "
      f"{np.abs(fast - g @ v).max():.2e}")

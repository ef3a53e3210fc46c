"""Stratified sampling for lengths beyond exhaustive reach.

At length 32 there are 2**32 functions, so the profile is sampled:
for each target distance d, flip a random d-subset of a random member's
bits, compute the true minimum distance (flips can land nearer another
member), and credit the sample to its true bucket.  Distances past
2**n / 2 are unreachable by flipping, so deterministic probes (all-ones,
all-zeros, member complements) cover the far half.
Run with: python demos/04_sampled_profiles.py
"""

from basisket import (
    interval_summary,
    probe_suite,
    stratified_sample_profile,
)
from basisket.report import ascii_histogram, svg_histogram

RECIPE = ("C2", "C2", "H")  # length 32

quotas = {d: 200 for d in range(1, 16)}
profile = stratified_sample_profile(RECIPE, quotas, seed=42,
                                    attempt_factor=100_000)
print(ascii_histogram(profile))
if profile.short_buckets:
    print(f"buckets short of quota: {list(profile.short_buckets)}")

# Buckets just below 2**(n-1) are hit rarely (a 15-bit flip usually
# lands nearer some other member), hence the large attempt factor.
print("probes covering the far half:")
for name, report in probe_suite(RECIPE):
    print(f"  {name:<24} distance {report.nearest.distance:2d} "
          f"theta {report.theta:.6f}")

summary = interval_summary(profile)
print(f"\nregion verdicts (consistent = {summary.consistent}):")
for region in summary.regions:
    print(f"  {region}")

with open("profile32.svg", "w", encoding="utf-8") as fh:
    fh.write(svg_histogram(profile))
print("\nwrote profile32.svg")

"""How the classification threshold decays with distance, exhaustively.

For pattern lengths 8 and 16 every Boolean function can be enumerated
(256 and 65 536 of them), bucketed by its exact minimum Hamming distance
from the class, and averaged.  The mean threshold stays above 1/2 up to
distance 2**n / 8, fades between there and 2**n / 2, and is zero beyond
-- except for the pure-Q2 classes, whose uniform zero count rho puts a
threshold-1 spike back at distance rho.
Run with: python demos/03_distance_profiles.py
"""

from basisket import ClassifierSpec, exhaustive_profile, interval_summary
from basisket.report import ascii_histogram, profile_to_csv

# Length 8: one of the three rank-3 recipes.
profile = exhaustive_profile(("H", "C2"))
print(profile_to_csv(profile))

# Length 16: the pure-C2 recipe shows the rho = 10 spike (a single
# function, all-ones) and the small rebound at distance 9.
profile = exhaustive_profile(("C2", "C2"))
print(ascii_histogram(profile))

for region in interval_summary(profile).regions:
    print(region)
rho = ClassifierSpec(profile.recipe).rho()
print(f"rho = {rho}, spike mean = {profile.rows()[rho].mean}")

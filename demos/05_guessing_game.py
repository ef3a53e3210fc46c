"""The nearest-basis-ket guessing game, Monte Carlo style.

Bob secretly picks a function h outside the class and reveals only its
minimum distance d; the classifier runs once on h and the measured ket
is announced; Alice must say whether that ket is one of h's nearest
basis kets.  Her interval strategy says yes for d up to 2**n / 8 (and
at the rho spike of pure-Q2 classes), no otherwise.  Near the pivot
distance 2**n / 8 the game approaches a fair coin toss; far from it
Alice wins almost surely.
Run with: python demos/05_guessing_game.py
"""

from basisket import GameConfig, estimate_win_rate, play_round

RECIPE = ("C2", "C2")  # length 16, rho = 10

print("Alice's win rate by Bob's chosen distance (2000 rounds each):")
for d in (1, 2, 3, 4, 5, 8, 10):
    config = GameConfig(RECIPE, "at_distance", "interval_threshold",
                        trials=2000, seed=100 + d, bob_distance=d)
    result = estimate_win_rate(config)
    low, high = result.wilson_95
    print(f"  d={d:2d}  win rate {result.rate:.3f} "
          f"(95% [{low:.3f}, {high:.3f}]), exact {result.exact_rate:.3f}")

# "exact" averages each round's exact win chance, theta(h) when Alice
# says yes and 1 - theta(h) when she says no, so it has no measurement
# noise.  d=8 and d=10 are sure wins: at 8 the nearest kets carry zero
# probability and Alice says no; at rho=10 the threshold is exactly 1
# and she says yes.  The 95% Wilson interval keeps its width there,
# where the standard error sqrt(p (1 - p) / n) is 0.

print("\nBob at the pivot (d = 2), a few individual rounds:")
config = GameConfig(RECIPE, "pivot", "interval_threshold",
                    trials=1, seed=0)
for round_seed in range(5):
    r = play_round(config, round_seed)
    print(f"  h={r.function}  outcome |{r.outcome:04b}>  "
          f"nearest? {r.in_nearest}  Alice said {'yes' if r.alice_yes else 'no'}"
          f"  -> {'win' if r.alice_wins else 'loss'}")

print("\nBob picking uniformly at random, 5000 rounds:")
config = GameConfig(RECIPE, "uniform_random", "interval_threshold",
                    trials=5000, seed=7)
result = estimate_win_rate(config)
low, high = result.wilson_95
print(f"  win rate {result.rate:.3f} (95% [{low:.3f}, {high:.3f}]), "
      f"exact {result.exact_rate:.3f}")

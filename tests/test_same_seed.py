"""The same seed gives the same bytes, across versions as well as runs.

The digests below were recorded with the sampler and game of commit
2edf50f.  A change that only makes the code faster or simpler must keep
them.  A change that alters the random stream on purpose (a new draw,
a new block split, a new sampler) updates the digests here and says so,
with the reason, in CHANGES.md.
"""

import hashlib

import pytest

from basisket import (GameConfig, bob_pick, exhaustive_profile, play_round,
                      stratified_sample_profile)
from basisket.cli import cli_dispatch
from basisket.report import (ascii_histogram, profile_to_csv, profile_to_json,
                             svg_histogram)

SAMPLE_NEAREST_SHA256 = (
    "ef24e1ac1d95950d6ddb0d66b773ecc94398fbc856ee4ef6a216b00abf8bf1df")
SAMPLE_SHORT_BUCKETS = (14, 15)
#: recorded on ff7fde7: an L=64 draw over many composition rows
LONG_SAMPLE_NEAREST_SHA256 = (
    "264747ba1a77cdd65e3cbfd96fb003d4f93d1eaafc3983d4ae1512e751b75ef8")
LONG_SAMPLE_SHORT_BUCKETS = (31,)
#: recorded on 39504ca: batches of several BLOCKs, the largest
#: 32,768 rows at L=32 and 16,384 rows at L=64
MULTI_BLOCK_SAMPLES = {
    "L32": ((("C2", "C2", "H"), {14: 20, 15: 5}, 3, 100_000),
            "a23fb32420b7962587aea8709ec1617d1686891f5311ed12b22adaf2a3414527",
            ()),
    "L64": ((("C2", "C2", "C2"), {8: 5, 30: 2}, 4, 20_000),
            "7a7cade69c32182f67e618bcb013bb887aba0790e7a3f0927ffa11646b97e84d",
            (30,)),
}
#: recorded on 3f79d3b: the length-2 and length-4 recipes, the three
#: length-8 recipes of table 3 and the five length-16 recipes of table 5
EXHAUSTIVE_NEAREST_SHA256 = {
    "H":
        "51a6d5daaae41127312b085e8cf990fe937f2ba3ac48a4c98f14d19ca7d61bbd",
    "C2":
        "66326a2dcb3785e769804e77e72570b584241b1179975dc14166271de52db0be",
    "H,H":
        "e6a6d07ef0f505b14177cb6e06dcd8bafb35c0a32b40a58acb6a185b7d3b1f0d",
    "H,H,H":
        "40abc1a72fef8fb140c43895c433f7d5476f1ada1ef931057713110f73803d9a",
    "H,C2":
        "6ae8f445eb1f9e546f58ff50e8d012a28231e0620cdd2bc9ae7fee0afd0992fa",
    "C2,H":
        "6ae8f445eb1f9e546f58ff50e8d012a28231e0620cdd2bc9ae7fee0afd0992fa",
    "H,H,H,H":
        "d6e96777f710d99021be06a2117d6098f8858a7eaef229ebb1120b81b47a39f2",
    "H,H,C2":
        "446a7da05e2d51307770db36f66b3d6f445f7cbacd5fd02ee971574aa3d67400",
    "H,C2,H":
        "446a7da05e2d51307770db36f66b3d6f445f7cbacd5fd02ee971574aa3d67400",
    "C2,H,H":
        "446a7da05e2d51307770db36f66b3d6f445f7cbacd5fd02ee971574aa3d67400",
    "C2,C2":
        "74191bd3798136572bd93e63810823ce5b15c9116da4477fa51fce8bc39d0de4",
}
GAME_STDOUT_SHA256 = (
    "9f08b7ad1a5adb27fdf70e84e7ca5ce57a5fd253e502395bb0d13f74ec9ec176")
#: recorded on 39504ca: the per-round log, outcome column included
ROUNDS_OUT_SHA256 = {
    ("C2,C2", "uniform_random"):
        "99ba359345ce5c64e3220b0cea38973b4b093f85dccf93cbd18e6a1a9ad79113",
    ("C2,C2,C2", "pivot"):
        "ffae2fb2408ad2ce8d898ed0155d962023da63b797272cb00afe587d5780d95a",
}
#: recorded on d2cefc4: the per-round log of an at_distance game above
#: L/4, whose picks keep the hit test, and of one with fewer than
#: ROUND_BLOCK / 2 trials, whose picks draw several tries each
AT_DISTANCE_ROUNDS_OUT_SHA256 = {
    ("C2,C2", 5, 1500):
        "0b9f5633a844cfe57ae9cbb68a9a5ea055bf6fc3e19cf22eb303949c3e27be8e",
    ("C2,C2,C2", 8, 100):
        "c024ed6c382cccb3cd4ec6a6b378e135b2bd89f9adb9db5f39ebd8f262bcdeb5",
}
#: recorded on b288e50: the per-round log of games whose Alice answers
#: the same every round, at L = 4 and L = 8, so a constant verdict
#: column and a short function bit string are written
FIXED_ALICE_ROUNDS_OUT_SHA256 = {
    ("C2", "at_distance", 1, "always_no"):
        "941b161e39315a2cde13bbd80559bcd25d76d50d99f32fa0feb7896d5d31267b",
    ("H,C2", "uniform_random", None, "always_yes"):
        "0b68a18133ccda155e8c616f110e0082d2380d29ac3515327530a02a3062b07e",
}
#: recorded on 797e3e5: the per-round log of a game of BLOCK + 600
#: rounds (17 blocks of ROUND_BLOCK and one of 88), so it spans more
#: than one group of blocks classified together
MULTI_GROUP_ROUNDS_OUT = (
    ("C2,C2", "uniform_random", 8792),
    "05374230b7fb8a440b381578517efe8fc673d1c7979b0f929ece2019ace69eb4")
#: recorded on d2cefc4: single picks and single rounds, each pick drawing
#: PICK_ATTEMPT_CAP tries, over strategies and distances on both sides of
#: L/4 (L = 16 and 64)
SINGLE_PICK_SHA256 = (
    "49aca35ce4c45bb16acd8bcffb6ac2d2dee130475cdf7f31a0a854ee2862771a")
SINGLE_ROUND_SHA256 = (
    "484bf576e4511018996b519b68ad05650bb93bf906f07c20032aa6d78c3a4734")
#: recorded on 0e5110d: each profile writer's bytes (JSON at runtime 0.0,
#: CSV, ASCII and SVG) of an exhaustive profile and of the L=64 sample
#: of MULTI_BLOCK_SAMPLES, whose d=30 bucket is short
WRITERS = {"json": lambda p: profile_to_json(p, 0.0), "csv": profile_to_csv,
           "ascii": ascii_histogram, "svg": svg_histogram}
WRITER_SHA256 = {
    "C2,C2": {
        "json":
            "e9fc62dd2114b5b0f33c1e02bcc0d3c034f008f770223dc1c5afafe9a355c021",
        "csv":
            "13fcbf73bff1ee163d6bd40296eafd2976a79b98d890897f89ab1bdb41192346",
        "ascii":
            "f74a00d920e3ed486b71b3cf6c32caa03c6b04ca692938f52e5d51457fd16fad",
        "svg":
            "1f56678e8abe20d51602d54330d41234f22c4c6b854f4b7f2b9f4697d7ca0f0a",
    },
    "L64": {
        "json":
            "faa913d21ab43c940754e8aac935744caa90f450964f3af18a8ab6401fe80c7a",
        "csv":
            "4a47024f85ca60666d32bb1fbdabc106f3cd40007a5e1931db1ea2452cfee7b7",
        "ascii":
            "e82669a2fbb59f1167242c9f7b7638e8bc624dee2ccf3fd7b405af43e72863cc",
        "svg":
            "0ac3ac254e6cc631509359086cb47741f918a216da55e1b7b6f2bd0d0475cec7",
    },
}
#: recorded on 0e5110d: `tables --which N` stdout, DIFF lines included
TABLES_STDOUT_SHA256 = {
    3: "aec76bb7e68cc58cf1d2a944a3dd1c027e1d365602886693dac7dc2d06bed400",
    5: "86b187dd69545b3741a65b3e93a92afdeb9c2fa11a026baf720d625e6981135c",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sampled_profile_bytes():
    profile = stratified_sample_profile(
        ("C2", "C2", "H"), {d: 50 for d in range(1, 16)}, seed=7)
    # little-endian int64 whatever the platform's byte order
    assert sha256(profile.nearest.astype("<i8").tobytes()) == \
        SAMPLE_NEAREST_SHA256
    assert profile.short_buckets == SAMPLE_SHORT_BUCKETS


def test_long_sampled_profile_bytes():
    profile = stratified_sample_profile(
        ("C2", "C2", "C2"), {2: 40, 16: 40, 31: 40}, seed=5)
    assert sha256(profile.nearest.astype("<i8").tobytes()) == \
        LONG_SAMPLE_NEAREST_SHA256
    assert profile.short_buckets == LONG_SAMPLE_SHORT_BUCKETS


@pytest.mark.parametrize("case", sorted(MULTI_BLOCK_SAMPLES))
def test_multi_block_sampled_profile_bytes(case):
    (recipe, quotas, seed, factor), digest, short = MULTI_BLOCK_SAMPLES[case]
    profile = stratified_sample_profile(recipe, quotas, seed=seed,
                                        attempt_factor=factor)
    assert sha256(profile.nearest.astype("<i8").tobytes()) == digest
    assert profile.short_buckets == short


@pytest.mark.parametrize("recipe", sorted(EXHAUSTIVE_NEAREST_SHA256))
def test_exhaustive_profile_bytes(recipe):
    profile = exhaustive_profile(recipe.split(","))
    assert sha256(profile.nearest.astype("<i8").tobytes()) == \
        EXHAUSTIVE_NEAREST_SHA256[recipe]


@pytest.mark.parametrize("recipe,bob", sorted(ROUNDS_OUT_SHA256))
def test_game_rounds_out_bytes(capsys, tmp_path, recipe, bob):
    target = tmp_path / "rounds.jsonl"
    code = cli_dispatch(["game", "--recipe", recipe, "--bob", bob,
                         "--seed", "6", "--trials", "1500",
                         "--rounds-out", str(target)])
    assert code == 0
    assert sha256(target.read_bytes()) == ROUNDS_OUT_SHA256[recipe, bob]


@pytest.mark.parametrize("recipe,distance,trials",
                         sorted(AT_DISTANCE_ROUNDS_OUT_SHA256))
def test_at_distance_rounds_out_bytes(capsys, tmp_path, recipe, distance,
                                      trials):
    target = tmp_path / "rounds.jsonl"
    code = cli_dispatch(["game", "--recipe", recipe, "--bob", "at_distance",
                         "--distance", str(distance), "--seed", "6",
                         "--trials", str(trials), "--rounds-out", str(target)])
    assert code == 0
    assert sha256(target.read_bytes()) == \
        AT_DISTANCE_ROUNDS_OUT_SHA256[recipe, distance, trials]


@pytest.mark.parametrize("recipe,bob,distance,alice",
                         sorted(FIXED_ALICE_ROUNDS_OUT_SHA256, key=str))
def test_fixed_alice_rounds_out_bytes(capsys, tmp_path, recipe, bob,
                                      distance, alice):
    target = tmp_path / "rounds.jsonl"
    bob_args = [] if distance is None else ["--distance", str(distance)]
    code = cli_dispatch(["game", "--recipe", recipe, "--bob", bob, *bob_args,
                         "--alice", alice, "--seed", "6", "--trials", "1500",
                         "--rounds-out", str(target)])
    assert code == 0
    assert sha256(target.read_bytes()) == \
        FIXED_ALICE_ROUNDS_OUT_SHA256[recipe, bob, distance, alice]


def test_multi_group_rounds_out_bytes(capsys, tmp_path):
    (recipe, bob, trials), digest = MULTI_GROUP_ROUNDS_OUT
    target = tmp_path / "rounds.jsonl"
    code = cli_dispatch(["game", "--recipe", recipe, "--bob", bob,
                         "--seed", "6", "--trials", str(trials),
                         "--rounds-out", str(target)])
    assert code == 0
    assert sha256(target.read_bytes()) == digest


#: (recipe, strategy, distance) of the single-pick cases
SINGLE_PICKS = [
    *((("C2", "C2"), "at_distance", d) for d in (1, 3, 4, 5, 7)),
    *((("C2", "C2", "C2"), "at_distance", d) for d in (1, 8, 16, 17, 20)),
    (("C2", "C2"), "pivot", None), (("C2", "C2", "C2"), "pivot", None),
    (("C2", "C2"), "uniform_random", None),
    (("C2", "C2", "C2"), "uniform_random", None),
]


def test_single_pick_bytes():
    lines = []
    for recipe, bob, distance in SINGLE_PICKS:
        for seed in range(4):
            h, nearest = bob_pick(recipe, bob, seed, distance)
            lines.append(f"{h} {nearest.distance} {sorted(nearest.indices)}")
    assert sha256("\n".join(lines).encode()) == SINGLE_PICK_SHA256


def test_single_round_bytes():
    lines = []
    for recipe, bob, distance in SINGLE_PICKS:
        for alice in ("interval_threshold", "always_yes"):
            config = GameConfig(recipe, bob, alice, 1, 0, distance)
            for seed in range(3):
                r = play_round(config, seed)
                lines.append(f"{r.function} {r.distance} {r.outcome} "
                             f"{r.in_nearest} {r.alice_yes} {r.theta!r}")
    assert sha256("\n".join(lines).encode()) == SINGLE_ROUND_SHA256


def test_game_stdout_bytes(capsys):
    code = cli_dispatch(["game", "--recipe", "C2,C2,C2", "--bob", "pivot",
                         "--seed", "3", "--trials", "1500"])
    assert code == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == \
        GAME_STDOUT_SHA256


@pytest.fixture(scope="module")
def writer_profiles():
    (recipe, quotas, seed, factor), _, _ = MULTI_BLOCK_SAMPLES["L64"]
    return {"C2,C2": exhaustive_profile(("C2", "C2")),
            "L64": stratified_sample_profile(recipe, quotas, seed=seed,
                                             attempt_factor=factor)}


@pytest.mark.parametrize("case,writer", [
    (case, writer) for case in sorted(WRITER_SHA256) for writer in WRITERS])
def test_profile_writer_bytes(writer_profiles, case, writer):
    text = WRITERS[writer](writer_profiles[case])
    assert sha256(text.encode("utf-8")) == WRITER_SHA256[case][writer]


@pytest.mark.parametrize("which", sorted(TABLES_STDOUT_SHA256))
def test_tables_stdout_bytes(capsys, which):
    assert cli_dispatch(["tables", "--which", str(which)]) == 2
    assert sha256(capsys.readouterr().out.encode("utf-8")) == \
        TABLES_STDOUT_SHA256[which]

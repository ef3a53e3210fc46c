"""The same seed gives the same bytes, across versions as well as runs.

The digests below were recorded with the sampler and game of commit
2edf50f.  A change that only makes the code faster or simpler must keep
them.  A change that alters the random stream on purpose (a new draw,
a new block split, a new sampler) updates the digests here and says so,
with the reason, in CHANGES.md.
"""

import hashlib

from basisket import stratified_sample_profile
from basisket.cli import cli_dispatch

SAMPLE_NEAREST_SHA256 = (
    "ef24e1ac1d95950d6ddb0d66b773ecc94398fbc856ee4ef6a216b00abf8bf1df")
SAMPLE_SHORT_BUCKETS = (14, 15)
#: recorded on ff7fde7: an L=64 draw over many composition rows
LONG_SAMPLE_NEAREST_SHA256 = (
    "264747ba1a77cdd65e3cbfd96fb003d4f93d1eaafc3983d4ae1512e751b75ef8")
LONG_SAMPLE_SHORT_BUCKETS = (31,)
GAME_STDOUT_SHA256 = (
    "9f08b7ad1a5adb27fdf70e84e7ca5ce57a5fd253e502395bb0d13f74ec9ec176")


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


def test_game_stdout_bytes(capsys):
    code = cli_dispatch(["game", "--recipe", "C2,C2,C2", "--bob", "pivot",
                         "--seed", "3", "--trials", "1500"])
    assert code == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == \
        GAME_STDOUT_SHA256

import csv
import json
import os
import re
import stat
import threading

import pytest

import basisket
from basisket.classifier import ClassifierSpec, classification_threshold
from basisket.cli import (DEFAULT_QUOTA, SEED_ENV_VAR, build_parser,
                          cli_dispatch)
from basisket.experiment import ATTEMPT_FACTOR
from basisket.game import ROUND_BLOCK
from basisket.patterns import PatternVector


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBases:
    def test_prints_members_and_rho(self, capsys):
        code, out, _ = run(capsys, "bases", "--recipe", "C2,C2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Q2,Q2"
        assert lines[1] == "0001000100011110"
        assert len([l for l in lines if set(l) <= {"0", "1"}]) == 16
        assert "zero-count 10" in out

    def test_mixed_class_has_no_uniform_zero_count(self, capsys):
        code, out, _ = run(capsys, "bases", "--recipe", "H,C2")
        assert code == 0
        assert out.splitlines()[-1] == "# rank 3, zero-count not-uniform"

    def test_bad_recipe_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bases", "--recipe", "H,X")
        assert code == 1
        assert "error" in err


class TestClassify:
    def test_csv_summary(self, capsys):
        code, out, err = run(capsys, "classify", "--recipe", "C2,C2",
                             "--function", "0000000100011110")
        assert code == 0
        assert "index,bitstring,probability" in out
        assert "distance 1" in err
        assert "theta 0.765625" in err
        assert "nearest_kets [0]" in err

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "dist.json"
        code, out, _ = run(capsys, "classify", "--recipe", "H,C2",
                           "--function", "00000001", "--format", "json",
                           "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert len(doc["outcomes"]) == 8
        assert abs(sum(r["probability"] for r in doc["outcomes"]) - 1) < 1e-12

    def test_length_mismatch(self, capsys):
        code, _, err = run(capsys, "classify", "--recipe", "C2,C2",
                           "--function", "0001")
        assert code == 1
        assert "mismatch" in err

    def test_hist_is_not_an_option(self, capsys):
        # classify prints a distribution, not a profile: only enumerate
        # and sample draw histograms
        code, out, err = run(capsys, "classify", "--recipe", "C2,C2",
                             "--function", "0000000100011110",
                             "--hist", "ascii")
        assert code == 1 and out == ""
        assert "--hist" in err


class TestEnumerate:
    def test_csv_and_manifest(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, _, _ = run(capsys, "enumerate", "--recipe", "H,C2",
                         "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "distance,count,mean_theta,min_theta,max_theta"
        assert lines[1].startswith("0,8,")
        manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "enumerate"
        assert manifest["recipe"] == "H,C2"
        assert manifest["runtime_seconds"] > 0

    def test_ascii_histogram_to_stderr(self, capsys):
        code, _, err = run(capsys, "enumerate", "--recipe", "H,H,H",
                           "--hist", "ascii")
        assert code == 0
        assert "recipe H,H,H" in err
        assert "#" in err and "*" in err

    def test_manifest_lists_the_svg_chart(self, capsys, tmp_path):
        target = tmp_path / "p.csv"
        code, _, _ = run(capsys, "enumerate", "--recipe", "H,C2",
                         "--out", str(target), "--hist", "svg")
        assert code == 0
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(target), f"{target}.svg"]
        assert (tmp_path / "p.csv.svg").read_text().startswith("<svg")

    def test_missing_output_directory_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "enumerate", "--recipe", "H,C2",
                             "--out", str(target))
        assert code == 1
        assert err.startswith("error: ") and str(target) in err
        assert out == ""

    def test_length32_rejected(self, capsys):
        code, _, err = run(capsys, "enumerate", "--recipe", "C2,C2,H")
        assert code == 1
        assert "exhaustive cap" in err

    def test_length32_error_names_the_sample_command(self, capsys):
        # the parent of this check named only the library function
        code, _, err = run(capsys, "enumerate", "--recipe", "C2,C2,H")
        assert code == 1
        assert "`basisket sample`" in err


class TestSample:
    def test_quotas_probes_and_regions(self, capsys, tmp_path):
        target = tmp_path / "sampled.json"
        code, out, _ = run(
            capsys, "sample", "--recipe", "C2,C2,H", "--seed", "5",
            "--quota", "1=20", "--quota", "2=20",
            "--format", "json", "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["mode"] == "sampled"
        assert doc["seed"] == 5
        assert doc["quotas"] == {"1": 20, "2": 20}
        manifest = json.loads(
            (tmp_path / "sampled.json.manifest.json").read_text())
        assert manifest["subcommand"] == "sample"
        assert manifest["outputs"] == [str(target)]
        for key in ("mode", "seed", "quotas"):
            assert manifest[key] == doc[key]
        assert "# probes:" in out
        assert "all_ones" in out
        assert "# region [1, 4] (above_half): consistent" in out

    def test_empty_regions_are_not_printed(self, capsys):
        # regions(2) gives [1, 0] twice; neither is a line
        code, _, err = run(capsys, "sample", "--recipe", "H", "--seed", "1",
                           "--quota", "1=40", "--format", "json")
        assert code == 0
        assert [line for line in err.splitlines()
                if line.startswith("# region")] == [
            "# region [1, 2] (zero): consistent"]

    def test_short_buckets_agree_with_the_rows(self, capsys):
        # flips at the later targets fill 10 and 11 (61 and 35 functions)
        quotas = [f"--quota={d}=20" for d in range(10, 17)]
        code, out, err = run(capsys, "sample", "--recipe", "C2,C2,H",
                             "--seed", "0", "--attempt-factor", "1", *quotas,
                             "--format", "json")
        assert code == 0
        assert "# short buckets (quota unmet): [12, 13, 14, 15, 16]" in \
            err.splitlines()
        assert json.loads(out)["short_buckets"] == [12, 13, 14, 15, 16]

    def test_seed_env_var_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        out_a = tmp_path / "a.json"
        # the env default is read when the command is dispatched
        code, _, _ = run(capsys, "sample", "--recipe", "C2,C2,H",
                         "--quota", "1=10", "--format", "json",
                         "--out", str(out_a))
        assert code == 0
        assert json.loads(out_a.read_text())["seed"] == 77

    def test_bad_seed_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        code, _, err = run(capsys, "game", "--recipe", "C2,C2",
                           "--trials", "5")
        assert code == 1
        assert SEED_ENV_VAR in err and "'abc'" in err
        # an explicit seed wins, and commands without a seed never read it
        assert run(capsys, "game", "--recipe", "C2,C2", "--trials", "5",
                   "--seed", "1")[0] == 0
        assert run(capsys, "bases", "--recipe", "C2")[0] == 0

    def test_negative_seed_env_var_is_usage_error(self, capsys,
                                                  monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-4")
        code, out, err = run(capsys, "game", "--recipe", "C2,C2",
                             "--trials", "5")
        assert code == 1 and out == ""
        assert err.rstrip().endswith(
            "seed must be a non-negative integer, got '-4' "
            f"(from {SEED_ENV_VAR})")

    @pytest.mark.parametrize("argv", [
        ("sample", "--recipe", "C2,C2,H", "--quota", "1=5"),
        ("game", "--recipe", "C2,C2", "--trials", "5"),
    ])
    def test_negative_seed_flag_is_usage_error(self, capsys, monkeypatch,
                                               argv):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, out, err = run(capsys, *argv, "--seed", "-4")
        assert code == 1 and out == ""
        assert err.rstrip().endswith(
            "argument --seed: seed must be a non-negative integer, "
            "got '-4'")
        assert SEED_ENV_VAR not in err

    def test_bad_seed_flag_does_not_blame_the_env_var(self, capsys,
                                                      monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, out, err = run(capsys, "sample", "--recipe", "C2,C2,H",
                             "--seed", "x", "--quota", "1=5")
        assert code == 1 and out == ""
        assert err.rstrip().endswith(
            "argument --seed: seed must be an integer, got 'x'")
        assert SEED_ENV_VAR not in err

    @pytest.mark.parametrize("flag, name", [
        (("--quota", "1=-3"), "quota"),
        (("--attempt-factor", "0"), "attempt_factor"),
    ], ids=["quota", "attempt_factor"])
    def test_non_positive_sampler_input_writes_nothing(self, capsys, tmp_path,
                                                       flag, name):
        target = tmp_path / "p.json"
        code, out, err = run(capsys, "sample", "--recipe", "C2,C2,H",
                             "--quota", "2=5", *flag, "--out", str(target))
        assert code == 1
        assert name in err
        assert out == "" and not target.exists()

    @pytest.mark.parametrize("quota", ["5", "x=5", "1="])
    def test_malformed_quota_names_the_flag(self, capsys, tmp_path, quota):
        target = tmp_path / "p.json"
        code, out, err = run(capsys, "sample", "--recipe", "C2,C2,H",
                             "--quota", quota, "--out", str(target))
        assert code == 1
        assert "--quota" in err and "D=COUNT" in err and repr(quota) in err
        assert out == "" and not target.exists()

    def test_repeated_quota_distance_is_rejected(self, capsys, tmp_path):
        target = tmp_path / "p.json"
        code, out, err = run(capsys, "sample", "--recipe", "C2,C2,H",
                             "--quota", "3=5", "--quota", "3=7",
                             "--format", "json", "--out", str(target))
        assert code == 1
        assert err.rstrip().endswith("--quota gives distance 3 twice")
        assert out == "" and not target.exists()

    def test_default_quota_below_half_the_length(self, capsys, tmp_path):
        target = tmp_path / "p.csv"
        code, _, _ = run(capsys, "sample", "--recipe", "H,C2", "--seed", "1",
                         "--out", str(target))
        assert code == 0
        manifest = json.loads(
            (tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["quotas"] == {d: DEFAULT_QUOTA for d in "123"}
        assert DEFAULT_QUOTA == 200

    def test_length_two_has_no_default_quota(self, capsys, tmp_path):
        target = tmp_path / "p.csv"
        code, out, err = run(capsys, "sample", "--recipe", "H",
                             "--out", str(target))
        assert code == 1
        assert err == ("error: length 2 has no distance below L/2 for the "
                       "default quota; give --quota D=COUNT\n")
        assert out == "" and not target.exists()

    def test_attempt_factor_default_is_the_library_default(self):
        args = build_parser().parse_args(
            ["sample", "--recipe", "C2,C2,H"])
        assert args.attempt_factor == ATTEMPT_FACTOR

    def test_svg_histogram_written(self, capsys, tmp_path):
        target = tmp_path / "prof.csv"
        code, out, _ = run(capsys, "sample", "--recipe", "C2,C2,H",
                           "--seed", "1", "--quota", "1=10",
                           "--out", str(target), "--hist", "svg")
        assert code == 0
        svg = (tmp_path / "prof.csv.svg").read_text()
        assert svg.startswith("<svg")
        assert "histogram written" in out


class TestManifest:
    """The manifest beside an --out file, byte for byte but for its
    runtime: key order, sorted string quota keys, tool version, seed."""

    @staticmethod
    def manifest_text(capsys, tmp_path, monkeypatch, *argv):
        monkeypatch.chdir(tmp_path)
        out = argv[argv.index("--out") + 1]
        assert run(capsys, *argv)[0] == 0
        text = (tmp_path / f"{out}.manifest.json").read_text()
        runtime = json.loads(text)["runtime_seconds"]
        assert type(runtime) is float and runtime > 0
        return re.sub(r'"runtime_seconds": [-+.0-9eE]+',
                      '"runtime_seconds": 0', text)

    def test_sample_manifest_bytes(self, capsys, tmp_path, monkeypatch):
        text = self.manifest_text(
            capsys, tmp_path, monkeypatch, "sample", "--recipe", "C2,C2,H",
            "--seed", "5", "--quota", "2=20", "--quota", "1=20",
            "--out", "s.csv")
        assert text == (
            '{\n  "subcommand": "sample",\n  "recipe": "C2,C2,H",\n'
            '  "mode": "sampled",\n  "seed": 5,\n'
            '  "quotas": {\n    "1": 20,\n    "2": 20\n  },\n'
            '  "attempt_factor": 50,\n  "short_buckets": [],\n'
            '  "outputs": [\n    "s.csv"\n  ],\n'
            f'  "tool_version": "{basisket.__version__}",\n'
            '  "runtime_seconds": 0\n}')

    def test_sample_manifest_records_the_attempt_factor(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        # factor 1 leaves d=12 short at 2 functions, factor 1000 fills it
        manifests = []
        for factor in (1, 1000):
            (tmp_path / str(factor)).mkdir()
            manifests.append(json.loads(self.manifest_text(
                capsys, tmp_path / str(factor), monkeypatch, "sample",
                "--recipe", "C2,C2,H", "--seed", "1", "--quota", "12=20",
                "--attempt-factor", str(factor), "--out", "s.csv")))
        low, high = manifests
        assert {key for key in low if low[key] != high[key]} == {
            "attempt_factor", "short_buckets"}
        assert (low["attempt_factor"], low["short_buckets"]) == (1, [12])
        assert (high["attempt_factor"], high["short_buckets"]) == (1000, [])

    def test_manifest_records_the_parsed_recipe(self, capsys, tmp_path,
                                                monkeypatch):
        manifest = json.loads(self.manifest_text(
            capsys, tmp_path, monkeypatch, "enumerate", "--recipe",
            " H , C2", "--format", "json", "--out", "sp.json"))
        assert manifest["recipe"] == "H,C2"
        assert json.loads((tmp_path / "sp.json").read_text())["recipe"] == \
            "H,C2"

    def test_enumerate_manifest_bytes(self, capsys, tmp_path, monkeypatch):
        text = self.manifest_text(
            capsys, tmp_path, monkeypatch, "enumerate", "--recipe", "H,C2",
            "--format", "json", "--out", "e.json")
        assert text == (
            '{\n  "subcommand": "enumerate",\n  "recipe": "H,C2",\n'
            '  "mode": "exhaustive",\n  "seed": null,\n  "quotas": {},\n'
            '  "outputs": [\n    "e.json"\n  ],\n'
            f'  "tool_version": "{basisket.__version__}",\n'
            '  "runtime_seconds": 0\n}')


class TestTables:
    def test_table_8_matches(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "8")
        assert code == 0
        assert "all cells within tolerance" in out

    def test_table_3_reports_known_diffs(self, capsys):
        # the shared length-8 column does not hold for the all-H recipe;
        # the diff exit code is the honest outcome
        code, out, _ = run(capsys, "tables", "--which", "3")
        assert code == 2
        assert "DIFF" in out
        assert "H,H,H" in out
        diff_lines = [l for l in out.splitlines() if l.startswith("DIFF")]
        assert all("H,H,H d=2" in l for l in diff_lines)
        assert out.splitlines() == [
            "DIFF table 3 recipe H,H,H d=2: expected 0.54 got 0.500000 "
            "(tol 0.005)",
            "table 3: 1 cell(s) outside tolerance",
        ]

    def test_table_5_reports_exactly_the_known_diffs(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "5")
        assert code == 2
        assert out.splitlines() == [
            "DIFF table 5 recipe H,H,H,H d=1: expected 0.76 got 0.765625 "
            "(tol 0.005)",
            "DIFF table 5 recipe H,H,H,H d=5: expected 0.36 got 0.347426 "
            "(tol 0.005)",
            "DIFF table 5 recipe H,H,H,H d=7: expected 0.1 got 0.142045 "
            "(tol 0.005)",
            "DIFF table 5 recipe H,H,C2 d=1: expected 0.76 got 0.765625 "
            "(tol 0.005)",
            "DIFF table 5 recipe H,C2,H d=1: expected 0.76 got 0.765625 "
            "(tol 0.005)",
            "DIFF table 5 recipe C2,H,H d=1: expected 0.76 got 0.765625 "
            "(tol 0.005)",
            "table 5: 6 cell(s) outside tolerance",
        ]

    def test_table_7_matches(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "7")
        assert code == 0
        assert out == "table 7: all cells within tolerance\n"

    def test_unknown_table_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "tables", "--which", "4")
        assert code == 1

    def test_attempt_factor_is_not_an_option(self, capsys):
        # table 7 always samples at reference.TABLE_7_ATTEMPT_FACTOR
        code, out, err = run(capsys, "tables", "--which", "7",
                             "--attempt-factor", "5")
        assert code == 1 and out == ""
        assert "--attempt-factor" in err


class TestGame:
    def test_summary_json(self, capsys):
        code, out, _ = run(capsys, "game", "--recipe", "C2,C2",
                           "--bob", "at_distance", "--distance", "8",
                           "--trials", "50", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["alice_win_rate"] == 1.0
        assert doc["trials"] == 50
        assert doc["standard_error"] == 0.0
        low, high = doc["wilson_95"]
        assert 0.9 < low < high == 1.0
        assert list(doc).index("wilson_95") == list(doc).index(
            "standard_error") + 1

    def test_summary_echoes_the_parsed_recipe(self, capsys):
        code, out, _ = run(capsys, "game", "--recipe", "C2, C2",
                           "--trials", "10", "--seed", "1")
        assert code == 0
        assert json.loads(out)["recipe"] == "C2,C2"

    def test_distance_needs_the_at_distance_strategy(self, capsys):
        # pivot plays at L/8 = 2; a summary saying "distance": 3 would lie
        code, out, err = run(capsys, "game", "--recipe", "C2,C2",
                             "--bob", "pivot", "--distance", "3",
                             "--trials", "5", "--seed", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "distance 3" in err

    @pytest.mark.parametrize("recipe,length", [
        ("H", 2), ("C2", 4), ("H,H", 4)])
    def test_pivot_needs_length_eight(self, capsys, recipe, length):
        # L/8 is 0 below length 8; the error must not blame a --distance
        # the user never gave
        code, out, err = run(capsys, "game", "--recipe", recipe,
                             "--bob", "pivot", "--trials", "5", "--seed", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        assert f"length {length}" in err and "pivot needs L >= 8" in err
        assert "distance >= 1" not in err

    @pytest.mark.parametrize("argv,message", [
        (("--recipe", "C2,C2", "--bob", "at_distance", "--distance", "17"),
         "distance 17 exceeds function length 16"),
        (("--recipe", "C2,C2", "--bob", "at_distance", "--distance", "-1"),
         "distance >= 1"),
        (("--recipe", "H,H", "--bob", "pivot"), "pivot needs L >= 8")])
    def test_bad_bob_keeps_the_rounds_file(self, capsys, tmp_path, argv,
                                           message):
        # Bob's arguments are checked before the rounds file is opened, so
        # an existing file keeps its bytes.
        target = tmp_path / "rounds.jsonl"
        target.write_bytes(b"sentinel")
        code, out, err = run(capsys, "game", *argv, "--trials", "5",
                             "--seed", "1", "--rounds-out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert target.read_bytes() == b"sentinel"

    @pytest.mark.parametrize("recipe,distance,trials", [
        ("C2,C2", 12, 5), ("C2,C2,C2", 29, 50)])
    def test_unreachable_bob_keeps_the_rounds_file(self, capsys, tmp_path,
                                                   recipe, distance, trials):
        # no function of C2,C2 is 12 from the class, and flips do not
        # reach the nonempty d = 29 shell of C2,C2,C2: the game fails
        # while it plays, before its rounds file is opened
        target = tmp_path / "rounds.jsonl"
        target.write_bytes(b"sentinel")
        code, out, err = run(capsys, "game", "--recipe", recipe,
                             "--bob", "at_distance", "--distance",
                             str(distance), "--trials", str(trials),
                             "--seed", "1", "--rounds-out", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: no function at distance {distance} ")
        assert target.read_bytes() == b"sentinel"
        assert list(tmp_path.iterdir()) == [target]  # nothing beside it

    @pytest.mark.parametrize("trials", [1, ROUND_BLOCK - 1, ROUND_BLOCK,
                                        ROUND_BLOCK + 1, 1500])
    def test_rounds_out(self, capsys, tmp_path, trials):
        # the log and the summary come from the same blocks: its wins and
        # its rounds' exact win chances give the summary's rates to the bit
        target = tmp_path / "rounds.jsonl"
        code, out, _ = run(capsys, "game", "--recipe", "C2,C2",
                           "--trials", str(trials), "--seed", "5",
                           "--rounds-out", str(target))
        assert code == 0
        summary = json.loads(out)
        records = [json.loads(l) for l in target.read_text().splitlines()]
        assert len(records) == trials
        wins = sum(r["alice_wins"] for r in records)
        assert summary["alice_win_rate"] == wins / trials
        spec = ClassifierSpec(("C2", "C2"))
        chances = 0.0
        for r in records:
            theta = classification_threshold(
                spec, PatternVector.parse(r["function"])).theta
            chances += theta if r["alice_yes"] else 1.0 - theta
        assert summary["alice_exact_win_rate"] == chances / trials
        assert all(len(r["function"]) == 16 for r in records)
        assert list(records[0]) == ["distance", "outcome", "in_nearest",
                                    "alice_yes", "alice_wins", "function"]
        # writing the rounds does not change the summary
        code, plain, _ = run(capsys, "game", "--recipe", "C2,C2",
                             "--trials", str(trials), "--seed", "5")
        assert code == 0 and json.loads(plain) == summary

    def test_rounds_out_into_missing_directory_is_an_error(self, capsys,
                                                           tmp_path):
        target = tmp_path / "missing" / "rounds.jsonl"
        code, out, err = run(capsys, "game", "--recipe", "C2,C2",
                             "--trials", "5", "--rounds-out", str(target))
        assert code == 1 and out == ""
        # the error names the file given
        assert err == f"error: [Errno 2] No such file or directory: " \
                      f"'{target}'\n"

    def test_rounds_out_keeps_the_file_mode(self, capsys, tmp_path):
        # an existing log is rewritten in place, not replaced by a new file
        target = tmp_path / "rounds.jsonl"
        target.write_bytes(b"sentinel")
        target.chmod(0o600)
        code, _, _ = run(capsys, "game", "--recipe", "C2,C2", "--trials", "5",
                         "--seed", "1", "--rounds-out", str(target))
        assert code == 0 and len(target.read_text().splitlines()) == 5
        assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_rounds_out_writes_through_a_symlink(self, capsys, tmp_path):
        real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
        direct = tmp_path / "direct.jsonl"
        real.write_bytes(b"sentinel")
        link.symlink_to(real)
        argv = ("game", "--recipe", "C2,C2", "--trials", "5", "--seed", "1")
        assert run(capsys, *argv, "--rounds-out", str(direct))[0] == 0
        assert run(capsys, *argv, "--rounds-out", str(link))[0] == 0
        assert link.is_symlink() and link.resolve() == real
        assert real.read_bytes() == direct.read_bytes()
        assert sorted(tmp_path.iterdir()) == [direct, link, real]
        # a failed game leaves the link and the file it names as they were
        real.write_bytes(b"sentinel")
        code, _, _ = run(capsys, "game", "--recipe", "C2,C2", "--bob",
                         "at_distance", "--distance", "12", "--trials", "5",
                         "--rounds-out", str(link))
        assert code == 1
        assert link.is_symlink() and real.read_bytes() == b"sentinel"
        assert sorted(tmp_path.iterdir()) == [direct, link, real]

    def test_rounds_out_streams_into_a_fifo(self, capsys, tmp_path):
        # a pipe is written in place, once the game has been played
        fifo, direct = tmp_path / "rounds.fifo", tmp_path / "direct.jsonl"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        argv = ("game", "--recipe", "C2,C2", "--trials", "5", "--seed", "1")
        code, _, _ = run(capsys, *argv, "--rounds-out", str(fifo))
        reader.join(timeout=30)  # still blocked if the fifo was not opened
        assert code == 0 and not reader.is_alive()
        assert run(capsys, *argv, "--rounds-out", str(direct))[0] == 0
        assert received == [direct.read_bytes()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(tmp_path.iterdir()) == [direct, fifo]

    def test_same_seed_gives_the_same_bytes(self, capsys, tmp_path):
        def game(seed, name):
            target = tmp_path / name
            code, out, _ = run(capsys, "game", "--recipe", "C2,C2",
                               "--bob", "pivot", "--trials", "600",
                               "--seed", str(seed), "--rounds-out", str(target))
            assert code == 0
            return target.read_bytes(), out

        rounds, out = game(4, "a.jsonl")
        assert game(4, "b.jsonl") == (rounds, out)
        assert game(5, "c.jsonl")[0] != rounds
        doc = json.loads(out)
        assert 0.0 <= doc["alice_exact_win_rate"] <= 1.0

    def test_same_seed_gives_the_same_stdout_at_length_64(self, capsys):
        def game(seed):
            code, out, _ = run(capsys, "game", "--recipe", "C2,C2,C2",
                               "--bob", "pivot", "--trials", "1500",
                               "--seed", str(seed))
            assert code == 0
            return out

        out = game(8)
        assert game(8) == out
        assert game(9) != out


class TestDocumentOnStdout:
    """With no --out, stdout is the document alone, in CSV or JSON; the
    command's other lines go to stderr.  With --out they stay on stdout."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,moved", [
        (("classify", "--recipe", "H,C2", "--function", "00000001"),
         ("distance 1  nearest_kets [0]  theta 0.562500",)),
        (("enumerate", "--recipe", "H,C2", "--hist", "ascii"),
         ("recipe H,C2  mode exhaustive", "d=  1  count         64 |")),
        (("sample", "--recipe", "C2,C2,H", "--quota", "1=5"),
         ("# probes:", "#   all_zeros: distance 12", "# region [1, 4]")),
        (("enumerate", "--recipe", "H,C2", "--hist", "svg"),
         ("histogram written to profile.svg",)),
    ], ids=["classify", "enumerate_ascii", "sample", "enumerate_svg"])
    def test_stdout_is_one_document(self, capsys, tmp_path, monkeypatch,
                                    argv, moved, fmt):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "json":
            json.loads(out)
        else:
            rows = list(csv.reader(out.splitlines()))
            assert len(rows) > 1
            assert {len(row) for row in rows} == {len(rows[0])}
        for line in moved:
            assert line in err
            assert line not in out

    def test_notes_stay_on_stdout_with_out(self, capsys, tmp_path):
        target = tmp_path / "s.csv"
        code, out, err = run(capsys, "sample", "--recipe", "C2,C2,H",
                             "--quota", "1=5", "--format", "csv",
                             "--out", str(target))
        assert code == 0 and err == ""
        assert "# probes:" in out and "# region [1, 4]" in out
        assert target.read_text().startswith("distance,count,")


class TestTopLevel:
    def test_version(self, capsys):
        assert run(capsys, "--version")[0] == 0

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 1

    def test_every_export_resolves(self):
        assert len(set(basisket.__all__)) == len(basisket.__all__)
        assert [name for name in basisket.__all__
                if not hasattr(basisket, name)] == []
        namespace = {}
        exec("from basisket import *", namespace)
        assert set(basisket.__all__) <= set(namespace)

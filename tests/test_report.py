import json

import numpy as np
import pytest

from basisket import (exhaustive_profile, merge_profiles,
                      stratified_sample_profile)
from basisket.report import (
    PROFILE_CSV_HEADER,
    ascii_histogram,
    distribution_to_csv,
    distribution_to_json,
    profile_from_json,
    profile_to_csv,
    profile_to_json,
    svg_histogram,
)


@pytest.fixture(scope="module")
def profile():
    return exhaustive_profile(("H", "C2"))


@pytest.fixture(scope="module")
def hhhh():
    return exhaustive_profile(("H", "H", "H", "H"))


@pytest.fixture(scope="module")
def sampled():
    return stratified_sample_profile(("C2", "C2", "H"), {1: 10, 2: 10}, seed=5)


@pytest.fixture(scope="module")
def short():
    """Short at 12..16 only: flips at the later targets fill 10 and 11."""
    return stratified_sample_profile(
        ("C2", "C2", "H"), {d: 20 for d in range(10, 17)}, seed=0,
        attempt_factor=1)


class TestCsv:
    def test_header_and_rows(self, profile):
        lines = profile_to_csv(profile).splitlines()
        assert lines[0] == ",".join(PROFILE_CSV_HEADER)
        assert len(lines) == 1 + len(profile.rows())
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "8"


class TestJson:
    def test_round_trip_preserves_metadata(self, sampled):
        back = profile_from_json(profile_to_json(sampled, runtime=1.5))
        assert back.recipe == sampled.recipe
        assert back.mode == "sampled"
        assert back.seed == 5
        assert back.quotas == {1: 10, 2: 10}
        assert back.short_buckets == sampled.short_buckets
        assert np.array_equal(back.counts, sampled.counts)
        assert np.array_equal(back.nearest, sampled.nearest)

    @pytest.mark.parametrize("which", ["profile", "sampled", "hhhh"])
    def test_round_trip_is_exact(self, request, which):
        # H,H,H,H's d=7 theta sum is 100: rebuilding it as mean * count
        # gave 100.00000000000001
        p = request.getfixturevalue(which)
        text = profile_to_json(p, runtime=0.25)
        back = profile_from_json(text)
        assert np.array_equal(back.nearest, p.nearest)
        assert profile_to_json(back, runtime=0.25) == text

    def test_row_without_nearest_rejected(self, profile):
        doc = json.loads(profile_to_json(profile))
        del doc["rows"][1]["nearest"]
        with pytest.raises(ValueError, match="nearest counts sum to 0"):
            profile_from_json(json.dumps(doc))

    def test_nearest_counts_must_sum_to_count(self, profile):
        doc = json.loads(profile_to_json(profile))
        doc["rows"][1]["count"] += 1
        with pytest.raises(ValueError, match="not count"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize("size", ["0", "9"])
    def test_nearest_size_out_of_range_rejected(self, profile, size):
        doc = json.loads(profile_to_json(profile))
        row = doc["rows"][1]
        row["nearest"] = {size: row["count"]}
        with pytest.raises(ValueError, match="nearest-set size"):
            profile_from_json(json.dumps(doc))

    def test_negative_nearest_count_rejected(self, profile):
        # the row still sums to its count
        doc = json.loads(profile_to_json(profile))
        row = doc["rows"][1]
        row["nearest"] = {"1": row["count"] + 6, "2": -6}
        with pytest.raises(ValueError, match=f"distance {row['distance']}: "
                                             "nearest-set size 2 has count -6"):
            profile_from_json(json.dumps(doc))

    def test_fractional_nearest_count_rejected(self, profile):
        # int64 storage would truncate it to the row's count
        doc = json.loads(profile_to_json(profile))
        row = doc["rows"][1]
        row["nearest"] = {"1": row["count"] + 0.7}
        with pytest.raises(ValueError, match=f"distance {row['distance']}: "
                                             "nearest-set size 1 has count"):
            profile_from_json(json.dumps(doc))

    def test_repeated_distance_row_rejected(self, profile):
        doc = json.loads(profile_to_json(profile))
        doc["rows"].append(dict(doc["rows"][1]))
        with pytest.raises(ValueError, match=f"distance "
                           f"{doc['rows'][1]['distance']} appears twice"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize("distance", [-1, 9, 1.5])
    def test_row_distance_out_of_range_rejected(self, profile, distance):
        # a fractional distance must not reach numpy indexing (IndexError)
        doc = json.loads(profile_to_json(profile))
        doc["rows"][0]["distance"] = distance
        with pytest.raises(ValueError, match=f"row 0: distance {distance} "):
            profile_from_json(json.dumps(doc))

    def test_repeated_nearest_size_rejected(self, profile):
        # "1" and "01" name one size; storing both would keep only the last
        doc = json.loads(profile_to_json(profile))
        row = doc["rows"][1]
        row["nearest"] = {"1": row["count"], "01": row["count"]}
        with pytest.raises(ValueError, match=f"distance {row['distance']}: "
                                             "nearest-set size 1 appears twice"):
            profile_from_json(json.dumps(doc))

    def test_length_other_than_the_recipes_rejected(self, profile):
        # every row fits the stored length 8, but C2,C2 has length 16
        doc = json.loads(profile_to_json(profile))
        doc["recipe"] = "C2,C2"
        with pytest.raises(ValueError,
                           match="length 8 is not the length 16 of recipe C2,C2"):
            profile_from_json(json.dumps(doc))

    def test_unknown_factor_rejected(self, profile):
        doc = json.loads(profile_to_json(profile))
        doc["recipe"] = "X,Y"
        with pytest.raises(ValueError, match="unknown classifier factor 'X'"):
            profile_from_json(json.dumps(doc))

    def test_unknown_mode_rejected(self, sampled):
        # merge_profiles guards only mode "sampled" against a shared seed
        doc = json.loads(profile_to_json(sampled))
        doc["mode"] = "Sampled"
        with pytest.raises(ValueError, match="unknown profile mode 'Sampled'"):
            profile_from_json(json.dumps(doc))

    # each loaded at the parent of this check, and a merge_profiles of
    # the loaded profile then raised TypeError rather than ValueError
    @pytest.mark.parametrize("field, value, match", [
        ("quotas", {"1": "abc"}, "quotas: distance 1 has quota 'abc'"),
        ("quotas", {"1": -5}, "quotas: distance 1 has quota -5"),
        ("quotas", {"1": 10, "99": 10},
         "quotas: distance '99' is not an integer in 1..16"),
        ("quotas", {"1": 10, "x": 10}, "quotas: distance 'x' is not"),
        ("quotas", {"1": 10, "01": 10}, "quotas: distance 1 appears twice"),
        ("short_buckets", [99], r"short_buckets \[99\] are not the"),
        ("short_buckets", ["x"], r"short_buckets \['x'\] are not the"),
        ("seed", "seven", "seed 'seven' is not null or an integer"),
        ("seed", -1, "seed -1 is not null or an integer"),
    ], ids=["quota-text", "quota-negative", "quota-distance-99",
            "quota-distance-x", "quota-distance-twice", "short-99",
            "short-text", "seed-text", "seed-negative"])
    def test_malformed_metadata_rejected(self, sampled, field, value, match):
        doc = json.loads(profile_to_json(sampled))
        doc[field] = value
        with pytest.raises(ValueError, match=match):
            profile_from_json(json.dumps(doc))

    # each loaded at the parent of this check, and merge_profiles(p, p)
    # then accepted it: its same-seed refusal covers sampled profiles only
    @pytest.mark.parametrize("field, value", [
        ("seed", 5), ("quotas", {"1": 3})], ids=["seed", "quotas"])
    def test_exhaustive_document_carries_no_seed_or_quotas(self, profile,
                                                           field, value):
        doc = json.loads(profile_to_json(profile))
        doc[field] = value
        with pytest.raises(ValueError, match=f"an exhaustive profile has "
                                             f"no {field}, but the document"):
            profile_from_json(json.dumps(doc))

    def test_exhaustive_and_merged_documents_load(self, profile, sampled):
        other = stratified_sample_profile(("C2", "C2", "H"), {1: 10, 2: 10},
                                          seed=6)
        for p in (profile, merge_profiles(profile, profile),
                  merge_profiles(sampled, other)):
            back = profile_from_json(profile_to_json(p))
            assert (back.mode, back.seed, back.quotas) == (
                p.mode, p.seed, p.quotas)
            assert np.array_equal(back.nearest, p.nearest)

    # each loaded before the reader checked these fields
    @pytest.mark.parametrize("key", ["mean_theta", "min_theta", "max_theta"])
    @pytest.mark.parametrize("value", [None, "0.5", 1])
    def test_row_theta_must_be_a_float(self, profile, key, value):
        doc = json.loads(profile_to_json(profile))
        row = doc["rows"][1]
        if value is None:
            del row[key]
            match = f"missing field '{key}'"
        else:
            row[key] = value
            match = f"{key} {value!r} is not a float"
        with pytest.raises(ValueError, match=f"row at distance "
                                             f"{row['distance']}: {match}"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [None, "1.5"])
    def test_runtime_must_be_a_float(self, profile, value):
        doc = json.loads(profile_to_json(profile))
        if value is None:
            del doc["runtime_seconds"]
            match = "missing field 'runtime_seconds'"
        else:
            doc["runtime_seconds"] = value
            match = "runtime_seconds '1.5' is not a float"
        with pytest.raises(ValueError, match=f"profile: {match}"):
            profile_from_json(json.dumps(doc))

    def test_repeated_short_bucket_rejected(self, sampled):
        # it loaded as (1, 1) and was written back twice
        doc = json.loads(profile_to_json(sampled))
        doc["short_buckets"] = [1, 2, 1]
        with pytest.raises(ValueError,
                           match=r"short_buckets \[1, 2, 1\] are not the"):
            profile_from_json(json.dumps(doc))

    # each loaded before the reader derived the short buckets: [1] has a
    # row of 64 >= 10 functions, 10..16 is what the sampler stored for
    # `short` although its rows at 10 and 11 meet their quota, and 12.0
    # equals 12 but is not an integer
    @pytest.mark.parametrize("which, value", [
        ("sampled", [1]),
        ("short", [10, 11, 12, 13, 14, 15, 16]),
        ("short", [12.0, 13, 14, 15, 16]),
    ], ids=["met-quota", "stored-by-the-sampler", "float"])
    def test_short_buckets_other_than_the_rows_rejected(self, request, which,
                                                        value):
        doc = json.loads(profile_to_json(request.getfixturevalue(which)))
        doc["short_buckets"] = value
        with pytest.raises(ValueError, match="short_buckets"):
            profile_from_json(json.dumps(doc))

    def test_short_buckets_round_trip(self, short):
        doc = json.loads(profile_to_json(short))
        assert doc["short_buckets"] == [12, 13, 14, 15, 16]
        assert profile_from_json(json.dumps(doc)).short_buckets == \
            (12, 13, 14, 15, 16)

    # each escaped at the parent of this check as another exception than
    # ValueError, or (a float length) loaded
    def test_list_recipe_rejected(self, profile):
        doc = json.loads(profile_to_json(profile))
        doc["recipe"] = ["H", "C2"]
        with pytest.raises(ValueError,
                           match=r"recipe \['H', 'C2'\] is not a string"):
            profile_from_json(json.dumps(doc))

    def test_missing_seed_rejected(self, profile):
        doc = json.loads(profile_to_json(profile))
        del doc["seed"]
        with pytest.raises(ValueError, match="missing field 'seed'"):
            profile_from_json(json.dumps(doc))

    def test_list_nearest_rejected(self, profile):
        doc = json.loads(profile_to_json(profile))
        row = doc["rows"][0]
        row["nearest"] = [row["count"]]
        with pytest.raises(ValueError, match=f"distance {row['distance']}: "
                                             "nearest .* is not an object"):
            profile_from_json(json.dumps(doc))

    def test_float_length_rejected(self, profile):
        doc = json.loads(profile_to_json(profile))
        doc["length"] = 8.0
        with pytest.raises(ValueError,
                           match="length 8.0 is not the length 8 of recipe"):
            profile_from_json(json.dumps(doc))

    def test_fractional_row_count_rejected(self, profile):
        # 8.0 equals the nearest counts' sum 8, so only its type is wrong
        doc = json.loads(profile_to_json(profile))
        row = doc["rows"][0]
        row["count"] = float(row["count"])
        with pytest.raises(ValueError, match=f"distance {row['distance']}: "
                                             "count 8.0 is not an integer"):
            profile_from_json(json.dumps(doc))

    def test_document_that_is_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="the document is not a JSON "
                                             "object"):
            profile_from_json("[]")

    def test_row_that_is_not_an_object_rejected(self, profile):
        doc = json.loads(profile_to_json(profile))
        doc["rows"][1] = 5
        with pytest.raises(ValueError, match="row 1: 5 is not an object"):
            profile_from_json(json.dumps(doc))

    def test_document_shape(self, profile):
        doc = json.loads(profile_to_json(profile))
        assert doc["recipe"] == "H,C2"
        assert doc["length"] == 8
        assert [r["distance"] for r in doc["rows"]] == list(profile.rows())
        # nearest-set sizes that occur, with their function counts
        assert doc["rows"][0]["nearest"] == {"1": 8}
        for row in doc["rows"]:
            assert row["nearest"] == {
                str(k): int(n)
                for k, n in enumerate(profile.nearest[row["distance"]]) if n}


class TestDistributionEmitters:
    def test_csv(self):
        probs = np.array([0.25, 0.75])
        lines = distribution_to_csv(probs, 1).splitlines()
        assert lines[0] == "index,bitstring,probability"
        assert lines[1] == "0,0,0.25"
        assert lines[2] == "1,1,0.75"

    def test_json(self):
        doc = json.loads(distribution_to_json(np.array([1.0, 0.0]), 1))
        assert doc["outcomes"][0] == {
            "index": 0, "bitstring": "0", "probability": 1.0}


class TestCharts:
    def test_ascii_has_two_bars_per_distance(self, profile):
        chart = ascii_histogram(profile)
        lines = chart.splitlines()
        assert lines[0].startswith("recipe H,C2")
        assert len(lines) == 1 + 2 * len(profile.rows())
        assert any("#" in line for line in lines)
        assert any("*" in line for line in lines)

    def test_svg_is_well_formed(self, profile):
        import xml.etree.ElementTree as ET
        svg = svg_histogram(profile)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        # background plus one count bar and one theta bar per distance
        assert len(rects) == 1 + 2 * len(profile.rows())

    def test_empty_profile_rejected(self):
        from basisket import DistanceProfile
        empty = DistanceProfile.empty(("H",), "exhaustive")
        for chart in (ascii_histogram, svg_histogram):
            with pytest.raises(ValueError, match="profile is empty"):
                chart(empty)

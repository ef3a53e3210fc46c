"""Serialization and chart emitters for profiles and distributions.

Every writer reads a profile through ``DistanceProfile.rows()``, its one
row summary.  CSV schema per profile row: distance, count, mean_theta,
min_theta, max_theta; CSV is export-only.  The JSON envelope carries the
recipe, mode, length, seed, quotas, short buckets and runtime next to the
same rows, each with one more key, ``"nearest": {"k": n, ...}``, the
function count n of each nearest-set size k at that distance; reading a
file back checks that every field is there with its JSON type, then its
mode, its recipe's length, seed and quotas (an exhaustive document has
a null seed and no quotas), rebuilds the exact table from its rows, and
checks that the short buckets are those it gives.
The runtime and each row's mean_theta, min_theta and max_theta must be
numbers of JSON type float, but their values are not read: the reader
keeps no runtime, and the thetas are recomputed from ``nearest``.
Charts show two series per distance, function count and mean threshold,
as fixed-width ASCII bars or a standalone SVG.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .experiment import DistanceProfile

PROFILE_CSV_HEADER = ["distance", "count", "mean_theta", "min_theta", "max_theta"]
DISTRIBUTION_CSV_HEADER = ["index", "bitstring", "probability"]

ASCII_BAR_WIDTH = 60


def profile_to_csv(profile: DistanceProfile) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PROFILE_CSV_HEADER)
    for d, b in profile.rows().items():
        writer.writerow([d, b.count, repr(b.mean), repr(b.min_theta),
                         repr(b.max_theta)])
    return buf.getvalue()


def profile_to_json(profile: DistanceProfile, runtime: float = 0.0) -> str:
    doc = {
        "recipe": ",".join(profile.recipe),
        "mode": profile.mode,
        "length": profile.length,
        "seed": profile.seed,
        "quotas": {str(k): v for k, v in sorted(profile.quotas.items())},
        "short_buckets": list(profile.short_buckets),
        "runtime_seconds": runtime,
        "rows": [
            {"distance": d, "count": b.count, "mean_theta": b.mean,
             "min_theta": b.min_theta, "max_theta": b.max_theta,
             "nearest": {str(k): n for k, n in b.nearest.items()}}
            for d, b in profile.rows().items()
        ],
    }
    return json.dumps(doc, indent=2)


def _int_key(key: str, low: int, high: int, what: str) -> int:
    """A JSON object key that must name an integer in low..high."""
    try:
        value = int(key)
    except ValueError:
        value = None
    if value is None or not low <= value <= high:
        raise ValueError(f"{what} {key!r} is not an integer in {low}..{high}")
    return value


def _is_count(value, low: int = 0) -> bool:
    """An int (not a bool or float) of at least `low`."""
    return type(value) is int and value >= low


_JSON_TYPES = {str: "a string", int: "an integer", float: "a float",
               list: "a list", dict: "an object"}


def _field(obj: dict, key: str, kind: type | None, where: str):
    """obj[key], which must be of JSON type `kind` (exactly: no bool or
    float for an integer) unless `kind` is None; a missing key or another
    type raises ValueError naming `where` and the field."""
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is not None and type(value) is not kind:
        raise ValueError(f"{where}: {key} {value!r} is not {_JSON_TYPES[kind]}")
    return value


def profile_from_json(text: str) -> DistanceProfile:
    """The profile a profile_to_json document holds.  A missing field, a
    field of the wrong JSON type, a malformed mode, length, seed, quota
    or row, a seed or quota in an exhaustive document, or a
    short_buckets list other than the one the rows and quotas give
    raises ValueError naming the field, rather than loading a profile
    that a later merge_profiles or report would trip over."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("profile: the document is not a JSON object")
    recipe = _field(doc, "recipe", str, "profile")
    mode = _field(doc, "mode", None, "profile")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown profile mode {mode!r}; "
                         "expected exhaustive or sampled")
    profile = DistanceProfile.empty(tuple(recipe.split(",")), mode)
    length = profile.length
    stored = _field(doc, "length", None, "profile")
    if type(stored) is not int or stored != length:
        raise ValueError(f"length {stored!r} is not the length "
                         f"{length} of recipe {recipe}")
    seed = _field(doc, "seed", None, "profile")
    if seed is not None and not _is_count(seed):
        raise ValueError(f"seed {seed!r} is not null or an integer >= 0")
    profile.seed = seed
    for key, quota in _field(doc, "quotas", dict, "profile").items():
        d = _int_key(key, 1, length // 2, "quotas: distance")
        if d in profile.quotas:
            raise ValueError(f"quotas: distance {d} appears twice "
                             f"(key {key!r})")
        if not _is_count(quota, 1):
            raise ValueError(f"quotas: distance {d} has quota {quota!r}, "
                             f"not an integer >= 1")
        profile.quotas[d] = quota
    if mode == "exhaustive" and (seed is not None or profile.quotas):
        field = "seed" if seed is not None else "quotas"
        raise ValueError(f"an exhaustive profile has no {field}, "
                         f"but the document gives {field} {doc[field]!r}")
    short = _field(doc, "short_buckets", list, "profile")
    _field(doc, "runtime_seconds", float, "profile")
    seen = set()
    for i, row in enumerate(_field(doc, "rows", list, "profile")):
        if type(row) is not dict:
            raise ValueError(f"row {i}: {row!r} is not an object")
        d = _field(row, "distance", None, f"row {i}")
        if type(d) is not int or not 0 <= d <= length:
            raise ValueError(
                f"row {i}: distance {d!r} is not an integer in 0..{length}")
        if d in seen:
            raise ValueError(f"row at distance {d} appears twice")
        seen.add(d)
        for key in ("mean_theta", "min_theta", "max_theta"):
            _field(row, key, float, f"row at distance {d}")
        nearest = (_field(row, "nearest", dict, f"row at distance {d}")
                   if "nearest" in row else {})
        sizes = set()
        for k, n in nearest.items():
            size = _int_key(k, 1, length,
                            f"row at distance {d}: nearest-set size")
            if size in sizes:
                raise ValueError(f"row at distance {d}: nearest-set size "
                                 f"{size} appears twice (key {k!r})")
            sizes.add(size)
            if not _is_count(n):
                raise ValueError(f"row at distance {d}: nearest-set size "
                                 f"{k} has count {n!r}, not a count >= 0")
            profile.nearest[d, size] = n
        count = _field(row, "count", None, f"row at distance {d}")
        if not _is_count(count):
            raise ValueError(f"row at distance {d}: count {count!r} "
                             f"is not an integer >= 0")
        if profile.counts[d] != count:
            raise ValueError(
                f"row at distance {d}: nearest counts sum to "
                f"{profile.counts[d]}, not count {count}")
    if short != list(profile.short_buckets) or not all(map(_is_count, short)):
        raise ValueError(f"short_buckets {short!r} are not the buckets "
                         f"below quota, {list(profile.short_buckets)}")
    return profile


def distribution_to_csv(probs: np.ndarray, n_bits: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DISTRIBUTION_CSV_HEADER)
    for i, p in enumerate(probs):
        writer.writerow([i, format(i, f"0{n_bits}b"), repr(float(p))])
    return buf.getvalue()


def distribution_to_json(probs: np.ndarray, n_bits: int) -> str:
    rows = [{"index": i, "bitstring": format(i, f"0{n_bits}b"),
             "probability": float(p)} for i, p in enumerate(probs)]
    return json.dumps({"outcomes": rows}, indent=2)


def ascii_histogram(profile: DistanceProfile) -> str:
    """Two fixed-width bars per populated distance: count and mean theta."""
    rows = profile.rows()
    if not rows:
        raise ValueError("profile is empty")
    max_count = max(b.count for b in rows.values())
    lines = [f"recipe {','.join(profile.recipe)}  mode {profile.mode}"]
    for d, (count, mean, *_) in rows.items():
        cbar = "#" * max(1, round(ASCII_BAR_WIDTH * count / max_count))
        tbar = "*" * round(ASCII_BAR_WIDTH * mean)
        lines.append(f"d={d:3d}  count {count:>10d} |{cbar:<{ASCII_BAR_WIDTH}}|")
        lines.append(f"       theta {mean:10.4f} |{tbar:<{ASCII_BAR_WIDTH}}|")
    return "\n".join(lines) + "\n"


def svg_histogram(profile: DistanceProfile) -> str:
    """Standalone SVG with a count series (green) and a mean-theta series
    (red), one bar pair per populated distance."""
    rows = profile.rows()
    if not rows:
        raise ValueError("profile is empty")
    width, height, margin = 800, 400, 50
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    max_count = max(b.count for b in rows.values())
    slot = plot_w / len(rows)
    bar = slot * 0.38

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="monospace">recipe {",".join(profile.recipe)} '
        f'({profile.mode})</text>',
    ]
    for k, (d, (count, mean, *_)) in enumerate(rows.items()):
        x0 = margin + k * slot
        ch = plot_h * count / max_count
        th = plot_h * mean
        parts.append(
            f'<rect x="{x0:.1f}" y="{margin + plot_h - ch:.1f}" '
            f'width="{bar:.1f}" height="{ch:.1f}" fill="green">'
            f'<title>d={d} count={count}</title></rect>')
        parts.append(
            f'<rect x="{x0 + bar:.1f}" y="{margin + plot_h - th:.1f}" '
            f'width="{bar:.1f}" height="{th:.1f}" fill="red">'
            f'<title>d={d} mean_theta={mean:.6f}</title></rect>')
        parts.append(
            f'<text x="{x0 + bar:.1f}" y="{height - margin + 15}" '
            f'text-anchor="middle" font-size="10" '
            f'font-family="monospace">{d}</text>')
    parts.append(
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{width - margin}" '
        f'y2="{margin + plot_h}" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

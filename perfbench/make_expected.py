"""Write expected_census.json: the exact census of the `census` workload.

The census is computed from the closed form rather than by the
classifier: for a function h at class distance d with nearest set N,
theta(h) = |N| * (1 - 2d/L)**2 = |N| * (L - 2d)**2 / L**2.  Theta sums,
minimums and maximums are stored as integer numerators over L**2, so
the benchmark's check compares the CLI's floats with exact rationals.

Run from the repository root:  python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from basisket.classifier import ClassifierSpec  # noqa: E402

from workloads import CENSUS_RECIPES  # noqa: E402


def census(recipe: str) -> dict:
    basis = ClassifierSpec.parse(recipe).basis()
    length = basis.length
    members = np.array(basis.member_values(), dtype=np.uint64)
    values = np.arange(1 << length, dtype=np.uint64)
    dist = np.bitwise_count(values[:, None] ^ members[None, :]).astype(np.int64)
    dmin = dist.min(axis=1)
    nearest = (dist == dmin[:, None]).sum(axis=1)
    numer = nearest * (length - 2 * dmin) ** 2
    rows = []
    for d in np.unique(dmin):
        sel = numer[dmin == d]
        rows.append({"distance": int(d), "count": int(sel.size),
                     "theta_sum": int(sel.sum()), "theta_min": int(sel.min()),
                     "theta_max": int(sel.max())})
    return {"length": length, "denominator": length * length, "rows": rows}


def main() -> None:
    doc = {r: census(r) for r in CENSUS_RECIPES}
    (HERE / "expected_census.json").write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

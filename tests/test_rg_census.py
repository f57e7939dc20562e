"""estimate_Rg against a frozen census of its outcomes.

``data/rg_census.json`` holds, for every ``enumerate_small_reps``
representative at (q = 2, n <= 7), (q = 3, n <= 4) and (q = 4, n <= 3), the
outcome of ``estimate_Rg(rep, n, q, budget=500, seed=0)``: the order and a
sha256 of the sorted element encodings, or the NonConvergence message.  It
was captured from the sampler that called RingO once per scalar, before the
residue arithmetic moved to plain ints, so any change to the draw stream,
the residue products or the reduction shows up here.  Seed 0 includes two
results known to stop early on a proper subgroup (order 2 instead of 4 for
Diagonal(i=-3, j=8) at n = 6 and Diagonal(i=-3, j=7) at n = 7); they are
pinned as they are.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from klingen.cosets import enumerate_small_reps
from klingen.errors import NonConvergence
from klingen.padic import estimate_Rg

CENSUS = json.loads((Path(__file__).parent / "data" / "rg_census.json").read_text())


def outcome(rep, n: int, q: int) -> dict:
    try:
        sub = estimate_Rg(rep, n, q, budget=500, seed=0)
    except NonConvergence as exc:
        return {"nonconvergence": str(exc)}
    keys = sorted(g.mat.e for g in sub.elements)
    text = "\n".join(",".join(map(str, e)) for e in keys)
    return {"order": sub.order, "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize(
    "q,n", [(int(q), int(n)) for q in CENSUS for n in CENSUS[q]]
)
def test_rg_census(q, n):
    want = CENSUS[str(q)][str(n)]
    reps = list(enumerate_small_reps(n))
    assert sorted(repr(r) for r in reps) == sorted(want)
    for rep in reps:
        assert outcome(rep, n, q) == want[repr(rep)], (q, n, rep)


def test_census_pins_the_early_stops():
    assert CENSUS["2"]["6"]["Diagonal(i=-3, j=8)"]["order"] == 2
    assert CENSUS["2"]["7"]["Diagonal(i=-3, j=7)"]["order"] == 2

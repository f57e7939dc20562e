"""named_subgroup against a frozen census of its elements.

``data/named_subgroup_census.json`` holds, for each q and name, the order of
``named_subgroup(name, q)`` and a sha256 of its sorted (matrix encodings, mu
encoding) pairs: every name at q = 2, 3, 4, 5, and every name with at most
6,000 elements at q = 7, 8, 9.  It was captured from the FqElem-built
parameterisations that preceded the encoding-table port, so any entry or
similitude factor that moves shows up here; the extension fields 8 and 9
exercise the divisions through the inverse table.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from closed_orders import named_subgroup_order
from klingen import groupfq as gq

CENSUS = json.loads(
    (Path(__file__).parent / "data" / "named_subgroup_census.json").read_text()
)


def outcome(name: str, q: int) -> dict:
    sg = gq.named_subgroup(name, q)
    pairs = sorted((g.mat.e, g.mu.encoding()) for g in sg.elements)
    text = "\n".join(",".join(map(str, e)) + ";" + str(mu) for e, mu in pairs)
    return {"order": sg.order, "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize("q", sorted(CENSUS, key=int))
def test_named_subgroup_census(q):
    for name, want in CENSUS[q].items():
        assert outcome(name, int(q)) == want, (q, name)


def test_census_coverage():
    for q in ("2", "3", "4", "5"):
        assert set(CENSUS[q]) == set(gq.NAMED_SUBGROUP_NAMES)
    for q in ("7", "8", "9"):
        small = {n for n in gq.NAMED_SUBGROUP_NAMES
                 if named_subgroup_order(n, int(q)) <= 6000}
        assert set(CENSUS[q]) == small

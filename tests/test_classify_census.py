"""classify against a frozen label census, and its conjugation invariance.

``data/classify_census.json`` holds, for each q and group, the Counter of
``repr(classify(g))`` over every element: all named subgroups at q = 2, 3, 4,
seven named subgroups at q = 5, and GSp(4, 2) and GSp(4, 3) (key "GSp4").
Both the per-element ``classify`` and the per-subgroup ``_class_counts``
that ``dim_fixed`` reads are held to it, except that GSp(4, 3), whose
103,680 elements hold every odd-q label, is held only by ``_class_counts``.
It was captured from the polynomial-arithmetic classify that preceded the
encoding-table port, and GSp(4, 3) from the per-element encoding-table
classifier that preceded the batched one, so any label or elliptic token
that moves shows up here.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from klingen import groupfq as gq
from klingen.chartab import _class_counts, classify
from klingen.ffield import field_for_q

CENSUS = json.loads((Path(__file__).parent / "data" / "classify_census.json").read_text())


# too many elements to classify one at a time
_COUNTS_ONLY = {("3", "GSp4")}


def _group(q: int, name: str):
    return gq.enumerate_gsp4(q) if name == "GSp4" else gq.named_subgroup(name, q)


@pytest.mark.parametrize("q", sorted(CENSUS, key=int))
def test_label_census(q):
    for name, want in CENSUS[q].items():
        if (q, name) in _COUNTS_ONLY:
            continue
        got = Counter(repr(classify(g)) for g in _group(int(q), name).elements)
        assert dict(got) == want, (q, name)


@pytest.mark.parametrize("q", sorted(CENSUS, key=int))
def test_class_counts_census(q):
    # the per-subgroup path of dim_fixed: roots once per polynomial
    for name, want in CENSUS[q].items():
        got = _class_counts(_group(int(q), name))
        assert {repr(label): n for label, n in got.items()} == want, (q, name)


def test_census_covers_every_named_subgroup():
    for q in ("2", "3", "4"):
        assert set(CENSUS[q]) >= set(gq.NAMED_SUBGROUP_NAMES)
    assert "GSp4" in CENSUS["2"] and "GSp4" in CENSUS["3"]


# elements with many different labels, conjugated by random words in the
# generators of the whole group
_POOLS = {4: ("M", "R_klingen", "D", "Row8"), 5: ("M1", "R_last", "B", "U_K")}


@lru_cache(maxsize=None)
def _pool(q: int) -> tuple:
    elems = [g for name in _POOLS[q] for g in gq.named_subgroup(name, q).elements]
    return tuple(elems), tuple(gq.gsp4_generators(field_for_q(q)))


@pytest.mark.parametrize("q", sorted(_POOLS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_conjugation_invariance(q, data):
    pool, gens = _pool(q)
    g = pool[data.draw(st.integers(0, len(pool) - 1), label="g")]
    word = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=8),
                     label="word")
    h = gens[word[0]]
    for i in word[1:]:
        h = h * gens[i]
    assert classify(h * g * h.inverse()) == classify(g)

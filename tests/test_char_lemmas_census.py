"""The character-data verification against a frozen census of its content.

``data/char_lemmas_census.json`` holds, for ``verify_char_lemmas(2)``: the
sha256 of its checks as (name, str(expected), str(actual)) triples, the
degrees, every table value (all rational at q = 2, hence ints) and the
coefficients of the virtual typeII carrier.  It was captured while
``Cyclotomic`` still held ``Fraction`` coefficients, so a change to the
arithmetic under the table that alters any check, value or coefficient
shows up here.  The CLI census pins only the check count and failures of
``verify chartab``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from klingen.verify_lemmas import verify_char_lemmas

CENSUS = json.loads((Path(__file__).parent / "data" / "char_lemmas_census.json").read_text())


@pytest.fixture(scope="module")
def report():
    return verify_char_lemmas(CENSUS["q"])


def test_checks(report):
    triples = [[c.name, str(c.expected), str(c.actual)] for c in report.checks]
    blob = json.dumps(triples, separators=(",", ":"), ensure_ascii=False).encode()
    assert len(triples) == CENSUS["n_checks"]
    assert hashlib.sha256(blob).hexdigest() == CENSUS["checks_sha256"]


def test_table(report):
    table = report.table
    assert table.degrees == CENSUS["degrees"]
    assert [[table.value(i, k).as_int() for k in range(table.n_classes)]
            for i in range(table.n_chars)] == CENSUS["values"]


def test_virtual_type_ii(report):
    assert report.virtual_type_ii == CENSUS["virtual_type_ii"]

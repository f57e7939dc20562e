"""The CLI's fixed command set against a frozen census of its output.

``data/cli_census.json`` holds, for each command of the set, its argv, its
exit code and a sha256 of everything it wrote to stdout.  It was captured
before the reference p-adic path, Bruhat streaming and the duplicate
eliminations were deleted, so any change to what these commands print
shows up here.  The commands run in-process through ``cli.main`` with
``KLINGEN_SEED`` unset, so the rg suite runs at seed 0.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from klingen import cli

CENSUS = json.loads((Path(__file__).parent / "data" / "cli_census.json").read_text())


@pytest.mark.parametrize("entry", CENSUS, ids=lambda entry: " ".join(entry["argv"]))
def test_cli_census(entry, monkeypatch):
    monkeypatch.delenv("KLINGEN_SEED", raising=False)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(entry["argv"]), out=out, err=err)
    assert code == entry["exit"], err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == entry["stdout_sha256"]

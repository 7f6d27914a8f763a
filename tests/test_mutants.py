"""The mutant catalogue, scripts/mutants.json, still fits the code it mutates.

``scripts/run_mutants.py`` applies each entry and runs its tests; these
checks only keep the entries applicable, so a refactor that moves a
snippet updates its entry in the same change.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((ROOT / "scripts" / "mutants.json").read_text())


def test_entry_names_are_unique():
    names = [entry["name"] for entry in CATALOGUE]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("entry", CATALOGUE, ids=[entry["name"] for entry in CATALOGUE])
def test_snippet_occurs_once(entry):
    assert set(entry) == {"name", "file", "snippet", "replacement", "tests"}
    text = (ROOT / "src" / entry["file"]).read_text()
    assert text.count(entry["snippet"]) == 1
    assert entry["replacement"] != entry["snippet"]
    assert entry["tests"]
    for node in entry["tests"]:
        assert (ROOT / node.split("::")[0]).is_file(), node

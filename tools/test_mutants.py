"""Every mutant list of ``mutate.py`` loads: each mutant's ``find``
occurs exactly once in its file, so a refactor that moves the code a
mutant edits fails here, not at the next sweep.

This file sits beside the tool, outside ``tests``, so that a sweep's
selection (``-- tests``) does not run it: every mutant breaks the list
check, which would be a kill that says nothing."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent
LISTS = sorted(TOOLS.glob("mutants_*.json"))


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutate", TOOLS / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    return mutate.load_mutants


def test_the_lists_are_found():
    assert {"mutants_encoders.json", "mutants_network.json"} <= {p.name for p in LISTS}


@pytest.mark.parametrize("path", LISTS, ids=lambda p: p.name)
def test_every_mutant_applies_once(path):
    assert _load_mutants()(path)

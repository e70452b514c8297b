"""The 32 built-in reports keep the answers recorded in ledger.json (see ledger.py)."""

import json
import math

import pytest

import ledger

LEDGER = json.loads(ledger.LEDGER_PATH.read_text(encoding="utf-8"))
CONFIGS = ledger.configs()


def test_ledger_covers_every_config():
    assert list(LEDGER) == list(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_matches_ledger(name):
    """Discrete answers equal; each float summary within REL_TOL (ABS_TOL near 0)."""
    want = LEDGER[name]
    got = ledger.entry(ledger.run(CONFIGS[name]))
    assert got["discrete"] == want["discrete"]
    assert got["floats"].keys() == want["floats"].keys()
    for key, value in want["floats"].items():
        if value is None or got["floats"][key] is None:
            assert got["floats"][key] == value, key
        else:
            assert math.isclose(got["floats"][key], value, rel_tol=ledger.REL_TOL,
                                abs_tol=ledger.ABS_TOL), (key, got["floats"][key], value)

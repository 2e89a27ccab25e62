"""Every example in the docstrings of the realspectra modules that have no
doctest runner in their own test file runs, and so does every example in
tests/oracles.py."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import realspectra

import oracles

# modules whose test_<name>.py runs their doctests in its own test_doctests
OWN_RUNNER = {"abelian", "blocks", "coefficients", "duality", "grading",
              "hfpss", "localcoh"}

ALL_MODULES = sorted(info.name for info in pkgutil.walk_packages(
    realspectra.__path__, "realspectra."))
MODULES = [name for name in ALL_MODULES
           if name.rpartition(".")[2] not in OWN_RUNNER]


def test_every_module_has_one_runner():
    assert {name.rpartition(".")[2] for name in ALL_MODULES} >= OWN_RUNNER
    here = Path(__file__).parent
    for name in OWN_RUNNER:
        assert "def test_doctests" in (here / f"test_{name}.py").read_text()
    assert "realspectra.commands" in MODULES
    assert "realspectra.localcoh" not in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_oracle_doctests():
    result = doctest.testmod(oracles)
    assert result.failed == 0 and result.attempted > 0

"""Tier-1 runs from the repository root, whatever directory it is started
in: the tests open `corpus/` and `bench/ladder/` files by paths relative to
the root, and some pins hash those paths as names."""

import os
from pathlib import Path


def pytest_configure(config):
    os.chdir(Path(__file__).resolve().parent.parent)

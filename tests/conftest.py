import os

import pytest

import phstab


@pytest.fixture
def cli_env():
    """Environment for a child ``python -m phstab.cli``: it imports the same
    phstab as the tests, from an installed package or a bare checkout."""
    src = os.path.dirname(os.path.dirname(phstab.__file__))
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}

"""Test-session settings shared by every test module."""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline, so the suite stays
# deterministic and its timing does not fail a test.
settings.register_profile("suite", derandomize=True, database=None, deadline=None)
settings.load_profile("suite")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis also caches what it reads from the package's source (even
    # without a database); keep that in a directory of its own for the
    # session instead of .hypothesis/.
    config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME].name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()

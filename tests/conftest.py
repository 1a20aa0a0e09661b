"""Session-wide set-up for the tests."""

import os
import shutil
import tempfile

import pytest

from repro.pipeline.tables import CACHE_DIR_ENV

_TABLE_STORE = pytest.StashKey[tuple]()


def pytest_configure(config):
    """Give the session a private, empty table store directory before
    anything is collected. ``run_table`` and the pool workers write
    learned table states back, so a test run should neither start from
    a store the user's own runs left nor leave one behind."""
    directory = tempfile.mkdtemp(prefix="repro-tables-tests-")
    config.stash[_TABLE_STORE] = (directory, os.environ.get(CACHE_DIR_ENV))
    os.environ[CACHE_DIR_ENV] = directory


def pytest_unconfigure(config):
    directory, previous = config.stash[_TABLE_STORE]
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous
    shutil.rmtree(directory, ignore_errors=True)

"""Shared set-up for the parallel tests."""

import pytest

from repro.parallel import executor


@pytest.fixture(autouse=True)
def shard_on_any_host(monkeypatch):
    """These tests exercise the sharded path, which a host with one
    usable CPU never takes; there, let ``jobs`` alone decide."""
    monkeypatch.setattr(executor, "effective_workers", lambda jobs: max(1, int(jobs)))

"""Shared fixtures: the paper's CAD schema and scene, plus a generic graph.

The actual schema constants and builders live in :mod:`helpers` so test
modules can import them directly (``from helpers import ...``) without
relying on the test tree being a package.
"""

import pytest

from helpers import make_cad_db, make_edge_db
from repro.relational import Database


@pytest.fixture
def cad_db() -> Database:
    return make_cad_db()


@pytest.fixture
def edge_db() -> Database:
    return make_edge_db([("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")])


@pytest.fixture
def pipeline_requests(monkeypatch):
    """``(executor, pipeline)`` for every branch a backend is asked to run
    (``ExecutorBackend.pipeline_for``; ``vector`` asks ``batch`` for the
    branches outside its coverage), so a property can assert that the
    compiled lowerings are total: only ``tuple`` answers None."""
    from repro.compiler.executors import ExecutorBackend

    requests = []
    original = ExecutorBackend.pipeline_for

    def recording(self, branch, ctx=None):
        pipeline = original(self, branch, ctx)
        requests.append((self.name, pipeline))
        return pipeline

    monkeypatch.setattr(ExecutorBackend, "pipeline_for", recording)
    return requests

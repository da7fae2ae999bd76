"""Serial vs parallel: byte-identical experiment output for any worker count."""

from __future__ import annotations

import pytest

from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.registry import run_experiment
from repro.parallel.executor import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


class TestFigure8Determinism:
    def test_csv_byte_identical_across_worker_counts(self):
        serial = run_figure8(fast=True, workers=1)
        parallel = run_figure8(fast=True, workers=4)
        assert len(serial.tables) == len(parallel.tables) == 3
        for a, b in zip(serial.tables, parallel.tables):
            assert a.to_csv() == b.to_csv()
        assert serial.render() == parallel.render()
        assert serial.notes == parallel.notes

    def test_parallel_outcome_attached(self):
        result = run_figure8(fast=True, workers=2)
        assert result.parallel_outcome is not None
        assert result.parallel_outcome.tasks == 3
        assert result.parallel_outcome.workers == 2


class TestFigure9Determinism:
    def test_render_byte_identical_across_worker_counts(self):
        serial = run_figure9(fast=True, workers=1)
        parallel = run_figure9(fast=True, workers=4)
        assert serial.render() == parallel.render()
        for a, b in zip(serial.tables, parallel.tables):
            assert a.to_csv() == b.to_csv()
        # Two phases: per-movie maxima, then the budget allocation points.
        assert parallel.parallel_outcome.tasks == 6


class TestBackendDeterminism:
    def test_figure8_byte_identical_across_backends_and_workers(self):
        # The scalar oracle, serially, is the reference; the batched
        # backend at every worker count must reproduce its CSVs byte for
        # byte.  (Workers inherit the active backend through fork.)
        from repro.numerics.backend import use_backend

        with use_backend("scalar"):
            oracle = run_figure8(fast=True, workers=1)
        with use_backend("numpy"):
            for workers in (1, 2):
                result = run_figure8(fast=True, workers=workers)
                for a, b in zip(oracle.tables, result.tables):
                    assert a.to_csv() == b.to_csv()
                assert result.render() == oracle.render()


class TestRegistryKnob:
    def test_workers_forwarded_to_parallel_runners(self):
        result = run_experiment("figure8", fast=True, workers=2)
        assert result.parallel_outcome.workers == 2

    def test_runners_without_workers_still_run(self):
        # figure7 has no workers parameter; the knob must be ignored.
        result = run_experiment("figure7d", fast=True, workers=2)
        assert result.tables

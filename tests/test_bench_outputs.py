"""The benchmark's own output checks pass on every workload.

``bench/run.py`` judges each query's output with the oracles of
``bench/checks.py`` and requires a rerun of a query to give the same
bytes (``worker.Runner.verdict``). A failure there makes a benchmark run
incorrect, so each workload's queries run here twice through
``worker.Runner.one_pass``, at the benchmark's test size and at full
size, and no failure may be unexpected. ``bench/`` is only imported:
nothing is written there, not even bytecode.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import worker
    import workloads

    return worker, workloads


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
@pytest.mark.parametrize("workload", ["honest", "attack", "advisor"])
def test_every_query_passes_its_check_and_repeats_its_bytes(bench, tmp_path, workload, tiny):
    worker, workloads = bench
    queries = workloads.build(workload, 1, tiny)
    runner = worker.Runner(queries, tmp_path)
    for _ in range(2):
        runner.one_pass()
    assert runner.attempted == 2 * len(queries)
    assert runner.unexpected == []

"""The benchmark's own tests, at tiny sizes: python -m pytest bench/tests"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import Tracer
from worker import Outcome, Runner

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = ["setup_s", "wall_s", "query_p50_ms", "query_p90_ms", "success_ratio",
              "peak_rss_mb"]


def bench_run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == ["honest", "attack", "advisor"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END


@pytest.mark.parametrize("workload", ["honest", "attack", "advisor"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace):
    done = bench_run("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and isinstance(entry["value"], float)
    assert result["correct"] is True and result["attempted"] >= 1
    queries = workloads.build(workload, 3, tiny=True)
    known = sum(1 for q in queries if q.known_defect)
    assert result["failed"] * len(queries) == result["attempted"] * known


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench_run("--workload", "honest", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _query(workload, label):
    queries = workloads.build(workload, 5, tiny=True)
    return queries, next(i for i, q in enumerate(queries) if q.label == label)


@pytest.fixture
def honest_runner(tmp_path):
    queries, i = _query("honest", "paper-exact")
    return Runner(queries, tmp_path), i


def test_checker_accepts_real_output(honest_runner):
    runner, i = honest_runner
    out = runner.run(i)
    assert checks.check(runner.queries[i], out) == (None, False)


def test_checker_flags_corrupted_output(honest_runner):
    runner, i = honest_runner
    out = runner.run(i)
    bad = Outcome(out.latency_s, out.exit_code, out.stdout, out.stderr,
                  out.payload.replace(b'"pass_probability": 1.0', b'"pass_probability": 0.5', 1))
    assert bad.payload != out.payload
    reason, known = checks.check(runner.queries[i], bad)
    assert "honest round off 1" in reason and not known


def test_checker_flags_wrong_exit_code(honest_runner):
    runner, i = honest_runner
    out = runner.run(i)
    out.exit_code = 2
    assert checks.check(runner.queries[i], out)[0] == "exit code 2, expected 0"


def test_checker_flags_corrupted_attack_table(tmp_path):
    queries, i = _query("attack", "sweep-json")
    out = Runner(queries, tmp_path).run(i)
    doc = json.loads(out.payload)
    doc["rows"][0]["p_pass"] += 1e-6
    out.payload = json.dumps(doc).encode()
    assert "p_pass" in checks.check(queries[i], out)[0]


def test_exact_eve_defect_is_counted_as_known(tmp_path):
    queries, i = _query("attack", "eve-t1-exact")
    runner = Runner(queries, tmp_path)
    reason = runner.verdict(i, runner.run(i))
    assert reason is not None and "exact rounds differ" in reason
    assert (runner.failed, runner.known, runner.unexpected) == (1, 1, [])


def _with_exact_probabilities(out, probability):
    lines = [json.loads(line) for line in out.payload.decode().splitlines()]
    for j, rec in enumerate(lines[1:-1]):
        rec["pass_probability"] = probability(j, rec["pass_probability"])
    out.payload = ("\n".join(json.dumps(rec) for rec in lines) + "\n").encode()
    return out


@pytest.mark.parametrize("probability", [
    lambda j, x: 0.5,
    lambda j, x: 0.0,
    lambda j, x: float("nan"),
    lambda j, x: x + 0.01 if j == 0 else x,
    lambda j, x: 1.0 - 1.0 / 16.0,
], ids=["all-half", "all-zero", "nan", "one-round-shifted", "all-at-cap"])
def test_other_exact_eve_failures_are_not_the_known_defect(tmp_path, probability):
    queries, i = _query("attack", "eve-t1-exact")
    runner = Runner(queries, tmp_path)
    out = _with_exact_probabilities(runner.run(i), probability)
    reason = runner.verdict(i, out)
    assert reason is not None
    assert (runner.failed, runner.known, len(runner.unexpected)) == (1, 0, 1)


def test_two_runs_of_a_query_give_identical_bytes(honest_runner):
    runner, _ = honest_runner
    i = next(i for i, q in enumerate(runner.queries) if q.label == "paper-sampled")
    first, second = runner.run(i), runner.run(i)
    assert first.output_bytes() == second.output_bytes()
    assert runner.verdict(i, first) is None and runner.verdict(i, second) is None


def test_changed_bytes_fail_the_query(honest_runner):
    runner, i = honest_runner
    out = runner.run(i)
    assert runner.verdict(i, out) is None
    out.stdout = "extra"
    assert runner.verdict(i, out) == "output differs from the first run of the same query"
    assert runner.unexpected


def test_tracer_counts_spans_and_restores(honest_runner):
    import phaseid.protocol as protocol
    import phaseid.qsim as qsim
    runner, i = honest_runner
    original = protocol.partial_trace
    tracer = Tracer()
    tracer.install()
    try:
        assert protocol.partial_trace is not original
        runner.run(i)
    finally:
        tracer.uninstall()
    assert protocol.partial_trace is original is qsim.partial_trace
    s = runner.queries[i].expect["s"]
    assert tracer.rounds == s
    assert tracer.calls["protocol.run_session"] == 1
    assert tracer.calls["qsim.partial_trace"] == 2 * s
    assert tracer.calls["cli.main"] == 1
    assert tracer.self_ns["cli.main"] > 0


def _side(values):
    q1, med, q3 = run.quartiles(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


@pytest.mark.parametrize("new, want", [
    ([1.0, 1.01, 0.99, 1.0, 1.0], "same"),
    ([1.3, 1.31, 1.29, 1.3, 1.3], "worse"),
    ([0.7, 0.71, 0.69, 0.7, 0.7], "better"),
    ([0.5, 1.5, 0.6, 1.4, 1.0], "unresolved"),
])
def test_compare_labels(new, want):
    spec = {"name": "wall_s", "better": "lower", "bound": 0.1}
    base = _side([1.0, 1.01, 0.99, 1.0, 1.0])
    assert run.label(spec, base, _side(new)) == want


@pytest.mark.parametrize("new, holds", [
    ({"correct": True, "attempted": 30, "failed": 6}, True),
    ({"correct": True, "attempted": 30, "failed": 5}, True),
    ({"correct": False, "attempted": 30, "failed": 6}, False),
    ({"correct": True, "attempted": 30, "failed": 7}, False),
])
def test_compare_flags_worse_checks(new, holds):
    base = {"correct": True, "attempted": 15, "failed": 3}
    assert run.checks_hold(base, new) is holds

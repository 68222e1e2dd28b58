"""One workload in a fresh process: closed loop, checks, optional traced phase.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS pinned to one
thread. A single client sends the next query only after the previous one
returns. The first pass warms up and records each query's output bytes;
timed passes follow until ``--seconds`` have passed and the run holds at
least ``MIN_SAMPLES`` query latencies. With ``--trace 1`` the time is
split between untraced passes and traced passes, and the per-layer
numbers come from the traced ones. The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from phaseid import adversary, cli, keys, protocol

import calibrate
import checks
import tracer as tracer_mod
import workloads

# p90 needs at least ten samples above it.
MIN_SAMPLES = 100
MIN_PHASE_PASSES = 3


@dataclass
class Outcome:
    latency_s: float
    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    payload: bytes = b""
    error: str | None = None

    def output_bytes(self) -> bytes:
        return self.stdout.encode("utf-8") + b"\0" + self.payload


class Runner:
    """Runs queries through phaseid's public entry points and checks them."""

    def __init__(self, queries, out_dir: Path):
        self.queries = queries
        self.out_path = out_dir / "query.out"
        self.reference: dict[int, tuple] = {}  # query -> (output key, reason, known)
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.unexpected: list[str] = []
        # Eve inputs are made once, before anything is timed or traced.
        self.eve_inputs = {}
        for i, q in enumerate(queries):
            if q.kind == "eve":
                e = q.eve
                params = keys.ProtocolParams(e["r"], e["s"])
                key = keys.PrivateKey(tuple(keys.PhaseFraction(k, params.p)
                                            for k in e["phases"]))
                self.eve_inputs[i] = (params, key)

    def run(self, i: int) -> Outcome:
        q = self.queries[i]
        if q.kind == "cli":
            return self._run_cli(q)
        return self._run_eve(i, q)

    def _run_cli(self, q) -> Outcome:
        if self.out_path.exists():
            self.out_path.unlink()
        out, err = io.StringIO(), io.StringIO()
        argv = list(q.argv) + ["--out", str(self.out_path)]
        start = time.perf_counter()
        error = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed query, not a crashed benchmark
                error = f"{type(exc).__name__}: {exc}"
            payload = self.out_path.read_bytes() if self.out_path.exists() else b""
        latency = time.perf_counter() - start
        return Outcome(latency, code, out.getvalue(), err.getvalue(), payload, error)

    def _run_eve(self, i: int, q) -> Outcome:
        # Names are looked up on the modules at call time, so the tracer's
        # wrappers apply.
        params, key = self.eve_inputs[i]
        e = q.eve
        start = time.perf_counter()
        try:
            prover = adversary.EveProver(adversary.helstrom_strategy(e["t"]))
            transcript = protocol.run_session(params, key, prover, mode=e["mode"],
                                              seed=e["seed"])
            payload = ("\n".join(transcript.to_json_lines()) + "\n").encode("utf-8")
        except Exception as exc:  # a crash is a failed query, not a crashed benchmark
            return Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        return Outcome(time.perf_counter() - start, 0, payload=payload)

    def verdict(self, i: int, out: Outcome) -> str | None:
        """Check one execution; the first execution of a query sets its bytes."""
        q = self.queries[i]
        key = (out.exit_code, out.output_bytes(), out.error)
        ref = self.reference.get(i)
        if ref is None:
            reason, known = checks.check(q, out)
            self.reference[i] = (key, reason, known)
        elif key != ref[0]:
            reason, known = "output differs from the first run of the same query", False
        else:
            _, reason, known = ref
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if known:
                self.known += 1
            else:
                self.unexpected.append(f"{q.label}: {reason}")
        return reason

    def one_pass(self, tracer=None) -> tuple[list[float], list[float], int]:
        """Run every query once, each after a calibration kernel.

        Returns (latencies, kernel times, output bytes of the CLI queries).
        """
        latencies, kernels, nbytes = [], [], 0
        for i, q in enumerate(self.queries):
            kernels.append(calibrate.kernel_time())
            if tracer is not None:
                tracer.query = i
            out = self.run(i)
            latencies.append(out.latency_s)
            if q.kind == "cli":
                nbytes += len(out.stdout.encode("utf-8")) + len(out.payload)
            self.verdict(i, out)
        return latencies, kernels, nbytes

    def passes(self, seconds: float, min_passes: int, min_samples: int = 0,
               tracer=None) -> dict[str, list[float]]:
        """Whole passes until ``seconds`` are up.

        Pass times and latencies are calibrated (see calibrate.py); the
        raw pass times and latencies are returned too.
        """
        walls, raw_walls, latencies, raw_latencies = [], [], [], []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds or len(walls) < min_passes
               or len(latencies) < min_samples):
            lat, kernels, _ = self.one_pass(tracer)
            factor = calibrate.speed_factor(kernels)
            raw_walls.append(sum(lat))
            walls.append(sum(lat) * factor)
            latencies.extend(x * factor for x in lat)
            raw_latencies.extend(lat)
            if tracer is not None:
                tracer.record = False  # keep the spans of the first traced pass only
        return {"walls": walls, "raw_walls": raw_walls, "latencies": latencies,
                "raw_latencies": raw_latencies}


def per_layer(tracer, passes: int, untraced_wall: float, traced_wall: float,
              output_bytes: int) -> dict[str, float]:
    """Every per-layer number the traced passes give, per pass."""
    calls = {k: v / passes for k, v in tracer.calls.items()}
    self_s = {k: v / 1e9 / passes for k, v in tracer.self_ns.items()}
    nested = {k: v / passes for k, v in tracer.nested.items()}
    rounds = tracer.rounds / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in tracer.names:
        m[f"{name}.calls"] = calls.get(name, 0.0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in tracer_mod.LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self_s(layer) / passes
    constructions = sum(nested.get((cls, "protocol.run_session"), 0.0)
                        for cls in ("qsim.PureState", "qsim.DensityOperator"))
    m["protocol.rounds"] = rounds
    m["protocol.state_constructions_per_round"] = ratio(constructions, rounds)
    m["adversary.dense_dim3_computed"] = tracer.dense_dim3 / passes
    m["adversary.grid_points_per_report"] = ratio(
        nested.get(("adversary.attack_round_branches", "adversary.eve_attack_round"), 0.0),
        calls.get("adversary.eve_attack_round", 0.0))
    m["bounds.bound_evals_per_advice"] = ratio(
        nested.get(("bounds.p_break_bound", "bounds.min_security_parameter"), 0.0),
        calls.get("bounds.min_security_parameter", 0.0))
    m["cli.output_bytes"] = float(output_bytes)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = sum(tracer.calls.values()) / passes
    return m


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None, help="gzip JSON file for spans")
    ap.add_argument("--tiny", action="store_true", help="small sizes, for tests")
    args = ap.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    queries = workloads.build(args.workload, args.seed, args.tiny)
    runner = Runner(queries, args.out_dir)
    _, _, nbytes = runner.one_pass()  # warm-up; sets each query's reference bytes
    result = {"queries": len(queries), "env": environment()}
    if args.trace == 0:
        timed = runner.passes(args.seconds, MIN_PHASE_PASSES, MIN_SAMPLES)
        n, lat = len(queries), timed["latencies"]
        result.update(timed, query_median_ms={
            q.label: statistics.median(lat[i::n]) * 1e3 for i, q in enumerate(queries)})
    else:
        timed = runner.passes(args.seconds / 2, MIN_PHASE_PASSES)
        tracer = tracer_mod.Tracer()
        tracer.install()
        tracer.record = True
        try:
            traced = runner.passes(args.seconds / 2, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        result.update(walls=timed["walls"], raw_walls=timed["raw_walls"],
                      traced_walls=traced["walls"], per_layer=per_layer(
                          tracer, len(traced["walls"]), statistics.median(timed["walls"]),
                          statistics.median(traced["walls"]), nbytes))
        if args.spans is not None:
            labels = [q.label for q in queries]
            with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
                fh.write(json.dumps({"spans": len(tracer.spans),
                                     "dropped": tracer.dropped}) + "\n")
                for span_id, parent, name, qi, start, end in tracer.spans:
                    fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "query": labels[qi], "start_ns": start,
                                         "end_ns": end}) + "\n")
    result.update(attempted=runner.attempted, failed=runner.failed,
                  known_defect_failures=runner.known, unexpected=runner.unexpected[:20],
                  known_defects=sorted({q.known_defect for q in queries if q.known_defect}),
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

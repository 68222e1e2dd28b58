"""phaseid benchmark: one run, a multi-seed baseline, or a comparison of two baselines.

One run (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload honest --seed 1 --seconds 30 --trace 0

measures set-up time in fresh interpreters, then runs the workload in a
fresh child process (``worker.py``) and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A fuller record, with the run environment, goes to
``bench/out/runs/``.

Baseline and comparison::

    python3 bench/run.py --baseline bench/out/base.json
    python3 bench/run.py --compare bench/baseline.json bench/out/base.json

Run it from the root of a phaseid source tree; it imports ``phaseid``
from ``src/`` and nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").exists() else None

SETUP_SAMPLES = 9
RUNS = 10  # a baseline runs seeds 1..RUNS on every workload
# Calibrated metrics whose raw (uncalibrated) medians are kept beside them.
RAW_METRICS = ("setup_s", "wall_s", "query_p50_ms", "query_p90_ms")
SETUP_CODE = "import phaseid.cli as cli; cli.build_parser()"
RUN_BUDGET_S = 175.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# one run


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Calibrated and raw wall times of fresh interpreters that import phaseid.cli
    and build its parser."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        kernels = [calibrate.kernel_time() for _ in range(3)]
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        kernels += [calibrate.kernel_time() for _ in range(3)]
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.decode(errors='replace')}")
        if i:  # the first one may compile bytecode; users pay that once
            times.append(elapsed * calibrate.speed_factor(kernels))
            raw.append(elapsed)
    return times, raw


def run_worker(args, env, deadline: float) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    tmp_dir = OUT / f"tmp-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(tmp_dir)]
    if args.trace:
        cmd += ["--spans", str(OUT / "runs" / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")]
        (OUT / "runs").mkdir(exist_ok=True)
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload did not finish within the run budget: {exc}") from None
    finally:
        for leftover in tmp_dir.glob("*") if tmp_dir.exists() else ():
            leftover.unlink()
        if tmp_dir.exists():
            tmp_dir.rmdir()
    if done.returncode != 0:
        raise BenchError(f"worker failed ({done.returncode}):\n"
                         f"{done.stderr.decode(errors='replace')[-4000:]}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def one_run(args) -> dict:
    if not (ROOT / "src" / "phaseid" / "__init__.py").exists():
        raise BenchError(f"no phaseid sources under {ROOT / 'src'}; run from a source tree")
    if SPEC is None:
        raise BenchError("BENCHMARK.json not found at the root of the tree")
    deadline = time.perf_counter() + RUN_BUDGET_S
    # One CPU for this process and its children, so that the calibration
    # kernels see the same core as the work they calibrate.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    setup, raw_setup = measure_setup(env) if args.trace == 0 else ([], [])
    res = run_worker(args, env, deadline)

    walls, attempted, failed = res["walls"], res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "env": {**res["env"], "git_sha": git_sha(), "workload_seed": args.seed,
                "pinned_cpu": cpu},
        "queries_per_pass": res["queries"], "passes": len(walls),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "known_defect_failures": res["known_defect_failures"],
        "known_defects": res["known_defects"], "unexpected_failures": res["unexpected"],
    }
    if args.trace == 0:
        lat_ms = sorted(x * 1e3 for x in res["latencies"])
        raw_lat_ms = [x * 1e3 for x in res["raw_latencies"]]
        p90 = statistics.quantiles(lat_ms, n=10)[8]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "query_p50_ms": statistics.median(lat_ms),
            "query_p90_ms": p90,
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        record.update(setup_samples=setup, pass_walls=walls, raw_pass_walls=res["raw_walls"],
                      raw={"setup_s": statistics.median(raw_setup),
                           "wall_s": statistics.median(res["raw_walls"]),
                           "query_p50_ms": statistics.median(raw_lat_ms),
                           "query_p90_ms": statistics.quantiles(raw_lat_ms, n=10)[8]},
                      latency_samples=len(lat_ms),
                      samples_above_p90=sum(1 for x in lat_ms if x > p90),
                      query_median_ms=res["query_median_ms"])
        wanted = SPEC["end_to_end"]
    else:
        values = res["per_layer"]
        record.update(traced_passes=len(res["traced_walls"]))
        wanted = SPEC["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    # Known defects are counted in ``failed``; anything else makes the run incorrect.
    correct = failed == res["known_defect_failures"]
    record["correct"] = correct
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "runs" / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    summarize(record)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def summarize(record: dict) -> None:
    err = sys.stderr
    err.write(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
              f"{record['passes']} passes of {record['queries_per_pass']} queries, "
              f"{record['attempted']} attempted, {record['failed']} failed "
              f"({record['known_defect_failures']} known defect)\n")
    if "latency_samples" in record:
        err.write(f"  {record['latency_samples']} latency samples, "
                  f"{record['samples_above_p90']} above p90\n")
    for reason in record["known_defects"]:
        err.write(f"  {reason}\n")
    for reason in record["unexpected_failures"]:
        err.write(f"  FAILED {reason}\n")


# ---------------------------------------------------------------------------
# baseline: many seeds per workload, each run in the form BENCHMARK.json names


def baseline(out_path: str) -> None:
    seconds = SPEC["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    doc = {"benchmark": SPEC, "seconds": seconds, "seeds": seeds, "git_sha": git_sha(),
           "env": None, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs, records = [], []
        for seed in seeds:
            runs.append(_subrun(workload, seed, seconds, 0))
            records.append(json.loads((OUT / "runs" / f"{workload}-seed{seed}-trace0.json")
                                      .read_text(encoding="utf-8")))
            last = runs[-1]["metrics"]
            sys.stderr.write(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in last.items()) + "\n")
        traced = _subrun(workload, seeds[0], seconds, 1)
        doc["env"] = doc["env"] or records[0]["env"]
        raw = {}
        for name in RAW_METRICS:
            vals = [r["raw"][name] for r in records]
            raw[name] = {"values": vals, "median": statistics.median(vals)}
        end_to_end = {}
        for spec in SPEC["end_to_end"]:
            vals = [r["metrics"][spec["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            end_to_end[spec["name"]] = {
                "unit": spec["unit"], "values": vals, "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0}
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "raw": raw,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    for workload, entry in doc["workloads"].items():
        for name, m in entry["end_to_end"].items():
            flag = "" if m["spread"] < bounds[name] / 3 else "  (spread >= bound/3)"
            print(f"{workload:8s} {name:14s} median {m['median']:.6g} "
                  f"spread {m['spread']:.4f} bound {bounds[name]}{flag}")


def _subrun(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=RUN_BUDGET_S + 30)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} failed:\n{done.stderr.decode()[-4000:]}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# compare two baselines


def label(spec: dict, base: dict, new: dict) -> str:
    """better / worse / same / unresolved for one (metric, workload) pair.

    ``worse``: the new median is worse than the base median by more than
    the metric's bound. ``better``: every new run beats every base run, or
    the median is better by more than both sides' quartile spread while
    that spread is within the bound. ``unresolved``: a spread is wider
    than the bound. ``same``: otherwise.
    """
    lower = spec["better"] == "lower"
    sign = 1.0 if lower else -1.0
    change = sign * (new["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    new_wins = (max(new["values"]) < min(base["values"]) if lower
                else min(new["values"]) > max(base["values"]))
    spread = max(base["spread"], new["spread"])
    if change > spec["bound"]:
        return "worse"
    if new_wins:
        return "better"
    if spread > spec["bound"]:
        return "unresolved"
    return "better" if -change > spread else "same"


def fail_rate(entry: dict) -> float:
    return entry["failed"] / entry["attempted"]


def checks_hold(base: dict, new: dict) -> bool:
    """The new side is correct and fails no larger share of its queries than the base."""
    return new["correct"] and fail_rate(new) <= fail_rate(base)


def compare(base_path: str, new_path: str) -> None:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in base["benchmark"]["end_to_end"]}
    print(f"base {base_path} ({base['git_sha'][:12]}), new {new_path} ({new['git_sha'][:12]})")
    print("checks: correct, failed/attempted; a new side that is incorrect or fails a "
          "larger share labels every pair of its workload 'incorrect'")
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is not None:
            print(f"{workload:8s} base {_fmt_checks(b)}  new {_fmt_checks(n)}"
                  f"{'' if checks_hold(b, n) else '  INCORRECT'}")
    print(f"\n{'workload':8s} {'metric':14s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'new/base':>9s} {'raw':>7s}  label")
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            print(f"{workload:8s} missing from {new_path}")
            continue
        b_entry, n_entry = base["workloads"][workload], new["workloads"][workload]
        for name, spec in specs.items():
            b = b_entry["end_to_end"][name]
            n = n_entry["end_to_end"][name]
            ratio = n["median"] / b["median"] if b["median"] else float("nan")
            b_raw, n_raw = b_entry.get("raw", {}).get(name), n_entry.get("raw", {}).get(name)
            raw = f"{n_raw['median'] / b_raw['median']:7.4f}" if b_raw and n_raw else "      -"
            verdict = label(spec, b, n) if checks_hold(b_entry, n_entry) else "incorrect"
            print(f"{workload:8s} {name:14s} {_fmt(b):>32s} {_fmt(n):>32s} "
                  f"{ratio:9.4f} {raw}  {verdict}")
    print("\nper-layer (traced run, first seed; no bound)")
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        b_layer, n_layer = base["workloads"][workload]["per_layer"], \
            new["workloads"][workload]["per_layer"]
        for name, b in b_layer.items():
            n = n_layer.get(name)
            if n is None or (b == 0 and n == 0):
                continue
            ratio = f"{n / b:9.4f}" if b else "      new"
            print(f"{workload:8s} {name:48s} {b:14.6g} {n:14.6g} {ratio}")


def _fmt_checks(entry: dict) -> str:
    return (f"correct={entry['correct']!s:5s} failed {entry['failed']}/{entry['attempted']} "
            f"({fail_rate(entry):.4f})")


def _fmt(m: dict) -> str:
    return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the tests")
    ap.add_argument("--baseline", metavar="OUT",
                    help=f"run every workload with seeds 1..{RUNS} at run_seconds")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
        elif args.baseline:
            if args.workload or args.seed is not None or args.seconds is not None or args.tiny:
                ap.error("--baseline takes no run options; it uses BENCHMARK.json")
            baseline(args.baseline)
        else:
            if args.workload is None or args.seed is None or args.seconds is None:
                ap.error("--workload, --seed and --seconds are required for a run")
            if SPEC is not None and args.workload not in {w["name"] for w in SPEC["workloads"]}:
                ap.error(f"unknown workload {args.workload!r}")
            print(json.dumps(one_run(args)))
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

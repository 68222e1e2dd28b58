"""Every name the benchmark traces still exists in the package.

``bench/run.py`` reads its per-layer metrics from spans the tracer puts
around ``phaseid``'s public names; a renamed or deleted name makes the
traced run fail with "metrics not produced". This test catches that
without running the benchmark.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_names_a_wrapped_function():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = set()
    for metric in spec["per_layer"]:
        name = metric["name"]
        for suffix in (".calls", ".self_s"):
            if name.endswith(suffix):
                span = name[: -len(suffix)]
                if span not in tracer_mod.LAYERS:  # a layer total, not a span
                    wanted.add(span)
    assert wanted, "no traced names found in BENCHMARK.json"
    missing = sorted(wanted - set(tracer.names))
    assert not missing, f"traced by the benchmark but gone from phaseid: {missing}"

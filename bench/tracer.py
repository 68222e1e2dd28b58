"""Span tracer installed from outside the package, around each layer's public names.

Layers are the ``phaseid`` modules that do work at run time. Every public
function is wrapped, and the wrapper is put into every ``phaseid`` module
namespace that holds the function, because modules bind names with
``from .qsim import partial_trace``; a wrapper on the defining module
alone would miss those calls. Classes are wrapped on the class: the span
of ``qsim.PureState`` is its constructor (``__init__`` with validation),
and public methods get spans named ``<layer>.<Class>.<method>``.

A span's self time is its duration minus the durations of its direct
child spans. Counts and self times accumulate for the whole traced
phase; the spans themselves are kept in memory only while ``record`` is
set, at most MAX_SPANS of them, and are written out by the caller at the
end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "protocol", "adversary", "bounds", "keys", "qsim", "rng", "transport")

# Ancestors under which nested calls are counted separately, for the
# ratios "branch evaluations per attack report", "bound evaluations per
# advice" and "state constructions per protocol round".
# An advisor pass makes millions of spans; keeping them all would take
# gigabytes. Counts and self times still cover every span.
MAX_SPANS = 200_000

ANCESTORS = ("adversary.eve_attack_round", "bounds.min_security_parameter",
             "protocol.run_session")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.nested = Counter()          # (name, ancestor) -> calls
        self.rounds = 0                  # sum of s over protocol.run_session
        self.dense_dim3 = 0              # sum of (2t+2)^3 over dense pair builds
        self.record = False
        self.query = -1                  # index of the query being run
        self.spans: list[tuple] = []     # (id, parent, name, query, start_ns, end_ns)
        self.dropped = 0                 # spans not kept, beyond MAX_SPANS
        self._stack: list[list] = []     # [name, start_ns, child_ns, span_id]
        self._active = Counter()
        self._restore: list[tuple] = []
        self.names: list[str] = []       # every wrapped name

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        for anc in ANCESTORS:
            if self._active[anc]:
                self.nested[(name, anc)] += 1
        self._active[name] += 1
        frame = [name, 0, 0, -1]
        if self.record:
            if len(self.spans) < MAX_SPANS:
                frame[3] = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, span_id = frame
        self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if span_id >= 0:
            parent = self._stack[-1][3] if self._stack else -1  # -1 also when not kept
            self.spans[span_id] = (span_id, parent, name, self.query, start, end)

    def _wrap(self, name: str, fn):
        tracer = self
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if name == "protocol.run_session":
                tracer.rounds += len(result.records)
            elif name == "adversary.build_discrimination_pair":
                t = args[0] if args else kwargs["t"]
                tracer.dense_dim3 += (2 * int(t) + 2) ** 3
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public names; ``uninstall`` puts them back."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"phaseid.{layer}")
            for attr, obj in _public_members(module):
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for module in [m for n, m in sys.modules.items()
                       if m is not None and (n == "phaseid" or n.startswith("phaseid."))]:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def _wrap_class(self, name: str, cls) -> None:
        if "__init__" in vars(cls):
            self._restore.append((cls, "__init__", vars(cls)["__init__"]))
            cls.__init__ = self._wrap(name, cls.__init__)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{name}.{attr}"
            if inspect.isfunction(raw):
                wrapped = self._wrap(label, raw)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(label, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(label, raw.__func__))
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix)) / 1e9


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for attr in names:
        obj = getattr(module, attr)
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and \
                getattr(obj, "__module__", None) == module.__name__ and \
                not (inspect.isclass(obj) and issubclass(obj, BaseException)):
            yield attr, obj

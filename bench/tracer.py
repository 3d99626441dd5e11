"""Per-layer tracing of jacsum, applied from outside the package.

The layers are jacsum's modules.  For each module, every function named in
its `__all__` and defined there is wrapped, and the wrapper replaces the
original in every jacsum namespace that holds it, aliases included
(`from .sequence import jacobsthal as J`).  Classes named in `__all__` get
their `__init__`, `__post_init__`, `__contains__` and public methods and
properties wrapped on the class itself; enums and exceptions are left alone.
A name a hook expects but the package no longer has is skipped and listed
in `skipped`, so refactors do not break tracing.

Each wrapped call is a span.  A layer's self time is the time of its spans
minus the time of the spans they contain; the root span is the harness's
timed region, so the layers' self times plus the harness's own time add up
to the traced wall time.  `enclosures` is a generator: each `next()` is a
span of its own.  Everything a report-row or emit call runs (`rat_str`,
`Enclosure.as_payload`, ...) is serialization, so spans opened inside a
`report` span are folded into it rather than opened in their own layer.

Spans are aggregated per function in memory as they close (calls,
inclusive and self time) and written out once, when the run ends; keeping
every one of the several hundred thousand spans a run opens would distort
the peak memory it traces.
"""

from __future__ import annotations

import enum
import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "report", "theorems", "series", "intervals", "identities", "sequence")
_CLASS_DUNDERS = ("__init__", "__post_init__", "__contains__")


class _Stat:
    __slots__ = ("layer", "calls", "total", "self")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self) -> None:
        # time covered by child spans, per open span; the base entry absorbs
        # calls made outside the root span
        self.stack: list[float] = [0.0]
        self.folded = 0  # depth of open report spans
        self.stats: dict[str, _Stat] = {}
        self.count = {
            "series.rounds": 0,
            "series.terms": 0,
            "series.endpoint_bits_max": 0,
            "theorems.series_passes": 0,
            "theorems.verdicts": 0,
            "intervals.decide_calls": 0,
            "intervals.undecided": 0,
            "identities.checks": 0,
            "report.rows": 0,
            "report.endpoint_chars_max": 0,
            "sequence.max_index": 0,
        }
        self.skipped: list[str] = []
        self.wall = 0.0
        self.harness = 0.0

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("jacsum")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"jacsum.{layer}")
            except ImportError:
                self.skipped.append(f"module jacsum.{layer}")
        namespaces = [pkg, *modules.values()]
        # names the per-layer counters rely on; a missing one is listed in `skipped`
        hooks = {
            "series.enclosures": None,  # counted by the generator proxy
            "intervals.floor_decide": self._on_decide,
            "intervals.ceil_decide": self._on_decide,
            "theorems.verify_range": self._on_verify_range,
            "identities.IdentityResult.__init__": self._on_identity,
            "report.emit_report": self._on_emit,
        }
        wrapped = set()
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if obj is None:
                    self.skipped.append(f"{layer}.{name}")
                elif inspect.isclass(obj):
                    if issubclass(obj, (enum.Enum, BaseException)):
                        continue
                    for attr, value in list(vars(obj).items()):
                        if attr.startswith("__") and attr not in _CLASS_DUNDERS:
                            continue
                        key = f"{layer}.{name}.{attr}"
                        if inspect.isfunction(value):
                            setattr(obj, attr, self._wrap(value, layer, key, hooks.get(key)))
                        elif isinstance(value, property) and value.fget is not None:
                            setattr(obj, attr, property(self._wrap(value.fget, layer, key, None)))
                        else:
                            continue
                        wrapped.add(key)
                elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    key = f"{layer}.{name}"
                    hook = hooks.get(key)
                    if layer == "sequence":
                        hook = self._on_sequence
                    elif layer == "report" and name.endswith("_row"):
                        hook = self._on_row
                    if inspect.isgeneratorfunction(obj):
                        wrapper = self._wrap_generator(obj, layer, key)
                    else:
                        wrapper = self._wrap(obj, layer, key, hook)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, attr, wrapper)
                    wrapped.add(key)
        self.skipped += sorted(f"hook {key}" for key in hooks if key not in wrapped)

    def _stat(self, layer: str, key: str) -> _Stat:
        return self.stats.setdefault(key, _Stat(layer))

    def _wrap(self, fn, layer: str, key: str, hook):
        stat = self._stat(layer, key)
        stack = self.stack
        opens_fold = layer == "report"
        tracer = self

        def traced(*args, **kwargs):
            if tracer.folded:
                return fn(*args, **kwargs)
            stack.append(0.0)
            tracer.folded += opens_fold
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                dt = perf_counter() - t0
                tracer.folded -= opens_fold
                stat.calls += 1
                stat.total += dt
                stat.self += dt - stack.pop()
                stack[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, layer: str, key: str):
        tracer = self
        stat = self._stat(layer, key)

        def traced(*args, **kwargs):
            tracer.count["theorems.series_passes"] += 1
            return _TracedIter(tracer, stat, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- counters -----------------------------------------------------------

    def _on_decide(self, args, result) -> None:
        self.count["intervals.decide_calls"] += 1
        self.count["intervals.undecided"] += result is None

    def _on_verify_range(self, args, result) -> None:
        self.count["theorems.verdicts"] += len(result)

    def _on_identity(self, args, result) -> None:
        self.count["identities.checks"] += 1

    def _on_emit(self, args, result) -> None:
        self.count["report.rows"] += len(args[0])

    def _on_row(self, args, result) -> None:
        p = getattr(result, "payload", None) or {}
        enc = p.get("enclosure") or {}
        chars = max((len(v) for v in (enc.get("lo"), enc.get("hi"), p.get("lhs"), p.get("rhs"))
                     if isinstance(v, str)), default=0)
        c = self.count
        c["report.endpoint_chars_max"] = max(c["report.endpoint_chars_max"], chars)

    def _on_sequence(self, args, result) -> None:
        # the largest integer argument: the index, or hi of jacobsthal_range(lo, hi)
        n = args[0] if len(args) == 1 else max((a for a in args if type(a) is int), default=0)
        c = self.count
        if n > c["sequence.max_index"]:
            c["sequence.max_index"] = n

    def _on_enclosure(self, enc, start_terms: int) -> int:
        c = self.count
        c["series.rounds"] += 1
        c["series.terms"] += enc.terms - start_terms
        iv = enc.interval
        bits = max(iv.lo.numerator.bit_length(), iv.lo.denominator.bit_length(),
                   iv.hi.numerator.bit_length(), iv.hi.denominator.bit_length())
        c["series.endpoint_bits_max"] = max(c["series.endpoint_bits_max"], bits)
        return enc.terms

    # -- the root span and the results ----------------------------------------

    def run(self, workload, *args):
        """Run `workload(*args)` as the root span and return its result."""
        self.stack.append(0.0)
        t0 = perf_counter()
        try:
            return workload(*args)
        finally:
            self.wall = perf_counter() - t0
            self.harness = self.wall - self.stack.pop()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, named `<layer>.<metric>`."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            stats = [s for s in self.stats.values() if s.layer == layer]
            out[f"{layer}.self_s"] = sum(s.self for s in stats)
            out[f"{layer}.calls"] = sum(s.calls for s in stats)
        c = self.count
        out.update({k: v for k, v in c.items() if k != "intervals.undecided"})
        decides = c["intervals.decide_calls"]
        out["intervals.undecided_ratio"] = c["intervals.undecided"] / decides if decides else 0.0
        rounds = c["series.rounds"]
        out["theorems.useful_round_ratio"] = c["theorems.verdicts"] / rounds if rounds else 0.0
        report = {k: s.total for k, s in self.stats.items() if s.layer == "report"}
        out["report.row_s"] = sum(t for k, t in report.items() if k.endswith("_row"))
        out["report.emit_s"] = report.get("report.emit_report", 0.0)
        out["trace.wall_s"] = self.wall
        out["trace.harness_s"] = self.harness
        return out

    def spans(self) -> dict:
        """The aggregated spans, one entry per wrapped function that ran."""
        return {
            key: {"layer": s.layer, "calls": s.calls, "total_s": s.total, "self_s": s.self}
            for key, s in sorted(self.stats.items()) if s.calls
        }


class _TracedIter:
    """Generator proxy: each `next()` is one span in the generator's layer."""

    def __init__(self, tracer: Tracer, stat: _Stat, gen) -> None:
        self.tracer = tracer
        self.stat = stat
        self.gen = gen
        self.terms = None  # last truncation index K this pass reached

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        if tracer.folded:
            return next(self.gen)
        stack = tracer.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            enc = next(self.gen)
            start = self.terms if self.terms is not None else enc.spec.start - 1
            self.terms = tracer._on_enclosure(enc, start)
            return enc
        finally:
            dt = perf_counter() - t0
            stat = self.stat
            stat.calls += 1
            stat.total += dt
            stat.self += dt - stack.pop()
            stack[-1] += dt

"""Spans at pimodulo's layer boundaries, recorded from outside the package.

A layer is a module of pimodulo.  Each public function of a layer is
wrapped at every binding of it in *other* modules, and in the benchmark's
own modules, never in its own module: calls inside a layer (`infer`
calling `infer`, `normalize` calling `leftmost_outermost`) stay unwrapped,
so a span always marks a call that crosses from one layer into another.

A span has a name (`layer.function`), a start, an end, the span open
around it and the id of the benchmark item that was running.  Spans are
kept in memory, up to a cap, and written out at the end; totals per name
and self time per layer are kept for every span, capped or not.  A
layer's self time is its spans' time minus the time of their child spans.

The tracer's own work per span (the wrapper call, opening and closing the
span) would otherwise land in the caller's self time, and partly in the
span itself.  It is timed once per wrapper kind on an empty function, and
taken off: from a span, the part inside its own [start, end]; from the
span around it, the part outside.  A function's total time likewise
leaves out the tracer's work for all the spans below it.  The spans
written out keep their raw times.

`reduction.whnf` is bound nowhere outside `reduction`, so it is wrapped in
its own module (see INNER): `convertible` calls it there, and it does not
recurse.

Generator functions get one span per resumption, so a generator's time is
the time spent producing its items, not the time its consumer holds it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = (
    "terms", "reduction", "typecheck", "syntax", "theories", "algebra",
    "model_stt", "model_cc", "candidates", "generate", "cli",
)

SPAN_CAP = 1_000_000

# Public functions bound only in their own module, wrapped there too.
INNER = {"reduction.whnf"}

CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5

# Functions whose fuel argument (position, keyword) is made explicit, so the
# steps a call spends can be read off the budget.
FUEL_ARGS = {
    "reduction.normalize": (3, "fuel"),
    "reduction.whnf": (3, "fuel"),
    "reduction.convertible": (3, "fuel"),
    "candidates.sn_check": (1, "fuel"),
}


def _empty(*args, **kwargs):
    return None


class Tracer:
    def __init__(self, package, bench_modules, cap=SPAN_CAP, calibrate=True):
        self.package = package
        self.bench_modules = list(bench_modules)
        self.cap = cap
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        # per name: (inside, outside) tracer cost of a kept span, then of a
        # span past the cap
        self._cost: list[tuple] = []
        self.layer_self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = -1
        # open spans: ids, child time, tracer cost below them, name indices
        self._ids: list[int] = []
        self._child: list[float] = []
        self._below: list[float] = []
        self._open_names: list[int] = []
        self._next_id = 0
        self.spans = {k: array(t) for k, t in
                      (("id", "i"), ("parent", "i"), ("name", "i"), ("item", "i"),
                       ("start", "d"), ("end", "d"))}
        self.dropped = 0
        self._wrappers: list[tuple] = []
        self._sampled: list = []
        self._fuel_cls = importlib.import_module(package.__name__ + ".reduction").Fuel
        self.kind_cost = self._calibrate() if calibrate else {}

    # -- bookkeeping ----------------------------------------------------------

    def _name_index(self, name: str, kind: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self._cost.append(self.kind_cost.get(kind, ((0.0, 0.0), (0.0, 0.0))))
        return len(self.names) - 1

    def _open(self, idx: int) -> float:
        self._ids.append(self._next_id)
        self._next_id += 1
        self._child.append(0.0)
        self._below.append(0.0)
        self._open_names.append(idx)
        return perf_counter()

    def _close(self, idx: int, layer: str, start: float) -> None:
        end = perf_counter()
        span_id = self._ids.pop()
        child = self._child.pop()
        below = self._below.pop()
        self._open_names.pop()
        dur = end - start
        kept = len(self.spans["id"]) < self.cap
        inside, outside = self._cost[idx][0 if kept else 1]
        self.layer_self_s[layer] += dur - child - inside
        self.calls[idx] += 1
        self.total_s[idx] += dur - inside - below
        if self._child:
            self._child[-1] += dur + outside
            self._below[-1] += below + inside + outside
        if kept:
            s = self.spans
            s["id"].append(span_id)
            s["parent"].append(self._ids[-1] if self._ids else -1)
            s["name"].append(idx)
            s["item"].append(self.item)
            s["start"].append(start)
            s["end"].append(end)
        else:
            self.dropped += 1

    def parent_name(self) -> str | None:
        return self.names[self._open_names[-1]] if self._open_names else None

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn, binding: str):
        layer = name.split(".")[0]
        tracer = self
        hook = self._hooks(name, binding)
        fuel_at = FUEL_ARGS.get(name)
        kind = "fuel" if fuel_at else "hooked" if hook else "plain"
        idx = self._name_index(name, kind)

        if inspect.isgeneratorfunction(fn):
            keep = name == "generate.sample_well_typed"

            def wrapped_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                corpus = tracer.new_corpus() if keep else None
                while True:
                    start = tracer._open(idx)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, layer, start)
                    if corpus is not None:
                        corpus.append(value)
                    yield value
            return wrapped_gen

        if fuel_at is not None:
            pos, key = fuel_at
            Fuel = self._fuel_cls
            # an inner function spends the fuel of the call around it,
            # which counts the steps
            count_steps = name not in INNER

            def wrapped_fuel(*args, **kwargs):
                if len(args) > pos:
                    fuel = args[pos]
                    if not isinstance(fuel, Fuel):
                        fuel = Fuel() if fuel is None else Fuel(fuel)
                        args = args[:pos] + (fuel,) + args[pos + 1:]
                else:
                    fuel = kwargs.get(key)
                    if not isinstance(fuel, Fuel):
                        fuel = Fuel() if fuel is None else Fuel(fuel)
                        kwargs[key] = fuel
                before = fuel.remaining
                start = tracer._open(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx, layer, start)
                    if count_steps:
                        tracer.counts[name + ".steps"] += before - fuel.remaining
                    if before == fuel.remaining:
                        tracer.counts[name + ".noop"] += 1
            return wrapped_fuel

        if name in ("model_stt.enumerate_valuations", "model_cc.enumerate_m_valuations"):
            key = layer + ".valuations"

            def wrapped_valuations(*args, **kwargs):
                start = tracer._open(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, layer, start)
                tracer.counts[key] += len(result)
                return result
            return wrapped_valuations

        def wrapped(*args, **kwargs):
            if hook is not None:
                hook()
            start = tracer._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, layer, start)
        return wrapped

    def _hooks(self, name: str, binding: str):
        """Counts that need the caller: size tests and infer calls made from
        generate, and how many of them the sampler made."""
        if binding != "generate" or name not in ("terms.term_size", "typecheck.infer"):
            return None
        key = "generate.size_tests" if name == "terms.term_size" else "generate.infer_calls"

        def count():
            self.counts[key] += 1
            if self.parent_name() == "generate.sample_well_typed":
                self.counts[key + ".in_sample"] += 1
        return count

    def _calibrate(self) -> dict:
        """Tracer cost per span of each wrapper kind, for a kept span and
        for one past the cap: (inside its [start, end], outside it)."""
        out = {}
        for kind, name, binding in (("plain", "terms.probe", "probe"),
                                    ("hooked", "terms.term_size", "generate"),
                                    ("fuel", "reduction.normalize", "probe")):
            costs = []
            for cap in (SPAN_CAP, 0):
                probe = Tracer(self.package, [], cap=cap, calibrate=False)
                costs.append(self._cost_of(probe, probe._wrap(name, _empty, binding)))
            out[kind] = tuple(costs)
        return out

    @staticmethod
    def _cost_of(probe: "Tracer", wrapped) -> tuple[float, float]:
        n = CALIBRATION_CALLS
        args = (None, None, None)
        inside, outside = [], []
        for _ in range(CALIBRATION_ROUNDS):
            t0 = perf_counter()
            for _ in range(n):
                pass
            t1 = perf_counter()
            for _ in range(n):
                _empty(*args)
            t2 = perf_counter()
            spanned = probe.total_s[0]
            for _ in range(n):
                wrapped(*args)
            t3 = perf_counter()
            loop = t1 - t0
            call = (t2 - t1 - loop) / n
            inside.append((probe.total_s[0] - spanned) / n - call)
            outside.append((t3 - t2 - loop) / n - call - inside[-1])
        return statistics.median(inside), statistics.median(outside)

    def new_corpus(self) -> list:
        corpus: list = []
        self._sampled.append(corpus)
        return corpus

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        if not self._wrappers:
            self._wrappers = list(self._plan())
        for other, attr, _, wrapper in self._wrappers:
            setattr(other, attr, wrapper)

    def uninstall(self) -> None:
        for other, attr, fn, _ in self._wrappers:
            setattr(other, attr, fn)

    def _plan(self):
        """(module, attribute, function, wrapper) for every binding of a
        layer's public function outside its own module."""
        pkg = self.package.__name__
        modules = {m: importlib.import_module(f"{pkg}.{m}") for m in LAYERS}
        bindings = [*modules.items(), ("package", self.package)]
        bindings += [(d.__name__, d) for d in self.bench_modules]
        for layer, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                inner = f"{layer}.{fname}" in INNER
                for bname, other in bindings:
                    if other is mod and not inner:
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            yield other, attr, fn, self._wrap(f"{layer}.{fname}", fn, bname)

    # -- results ----------------------------------------------------------------

    def total(self, prefix: str) -> float:
        return sum(t for n, t in zip(self.names, self.total_s) if n.startswith(prefix))

    def ncalls(self, prefix: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n.startswith(prefix))

    def sampled_corpora(self) -> list:
        return [c for c in self._sampled if c]

    def write(self, path: Path) -> None:
        """Spans as columns in native byte order after a JSON header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "columns": [[k, a.typecode, a.itemsize] for k, a in self.spans.items()],
            "spans": len(self.spans["id"]),
            "dropped": self.dropped,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in self.spans.values():
                a.tofile(fh)

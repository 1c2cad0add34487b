"""The benchmark tracer's view of the package's signatures and bindings.

`perfbench/spans.py` wraps each function named in its `FUEL_ARGS` and
finds the fuel budget of a call at a fixed position, or else under its
keyword, where it puts a fresh budget when the caller gave none.  A fuel
parameter at another position would make every traced call fail with
"multiple values for argument 'fuel'", so each one must sit where the
tracer looks or be keyword-only.

The tracer wraps a layer's public function only where another module
binds it by name, or in its own module when `INNER` lists it.  A timing
that `perfbench/worker.py` reads with `by_fn` therefore reads 0 once
nothing outside the layer binds its function, say after a refactor
inlines it, so each of those names must stay wrapped.  The tables are
read from the source, not imported, so the benchmark stays as it is.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKER = PERFBENCH / "worker.py"


def _spans_table(name: str):
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {SPANS}")


def test_fuel_sits_where_the_tracer_looks_for_it():
    fuel_args = _spans_table("FUEL_ARGS")
    assert fuel_args
    for name, (pos, key) in fuel_args.items():
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"pimodulo.{module}"), function)
        params = list(inspect.signature(fn).parameters.values())
        param = next((p for p in params if p.name == key), None)
        assert param is not None, f"{name} has no parameter {key}"
        if param.kind is not inspect.Parameter.KEYWORD_ONLY:
            assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, name
            assert params.index(param) == pos, f"{name} takes {key} at {params.index(param)}, not {pos}"


def _timed_names() -> list[str]:
    """The `layer.prefix` of every `by_fn(...)` call in the worker."""
    return [
        ast.literal_eval(node.args[0])
        for node in ast.walk(ast.parse(WORKER.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "by_fn"
    ]


def test_every_timed_function_is_wrapped():
    inner = _spans_table("INNER")
    modules = [importlib.import_module("pimodulo")]
    modules += [importlib.import_module(f"pimodulo.{layer}") for layer in _spans_table("LAYERS")]
    names = _timed_names()
    assert names
    for name in names:
        layer, prefix = name.split(".")
        home = importlib.import_module(f"pimodulo.{layer}")
        wrapped = [
            fname for fname, fn in vars(home).items()
            if fname.startswith(prefix) and not fname.startswith("_")
            and callable(fn) and not isinstance(fn, type)
            and getattr(fn, "__module__", None) == home.__name__
            and (f"{layer}.{fname}" in inner
                 or any(other is not home and any(v is fn for v in vars(other).values())
                        for other in modules))
        ]
        assert wrapped, f"by_fn({name!r}) matches no function the tracer wraps"

"""The benchmark tracer's view of the package's signatures.

`perfbench/spans.py` wraps each function named in its `FUEL_ARGS` and
finds the fuel budget of a call at a fixed position, or else under its
keyword, where it puts a fresh budget when the caller gave none.  A fuel
parameter at another position would make every traced call fail with
"multiple values for argument 'fuel'", so each one must sit where the
tracer looks or be keyword-only.  The table is read from the source, not
imported, so the benchmark stays as it is.
"""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _fuel_args() -> dict:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "FUEL_ARGS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUEL_ARGS in {SPANS}")


def test_fuel_sits_where_the_tracer_looks_for_it():
    fuel_args = _fuel_args()
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

"""The benchmark's traced run wraps landaulab functions and methods by name
(`perfbench/spans.py`); a rename in the package must show up here, in the
fast suite, and not only in the benchmark's own smoke test."""

import importlib
import importlib.util
from pathlib import Path

import landaulab.potentials as potentials

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_spanned_functions_exist():
    spans = _spans()
    missing = [f"{mod}.{name}" for mod, names in spans.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"landaulab.{mod}"),
                                       name, None))]
    assert not missing


def test_spanned_potential_methods_exist():
    spans = _spans()
    missing = [m for m in spans.POTENTIAL_METHODS
               if not callable(getattr(potentials.Potential, m, None))]
    assert not missing
